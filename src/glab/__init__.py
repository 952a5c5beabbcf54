"""glab: a laboratory for constructive finite group theory.

Subpackages cover the finite group engine (`groupcore`), root systems
(`rootsys`), Chevalley generator calculus in SL_n(F_p) (`chevalley`),
thick/generic subset combinatorics (`thickset`), permutation factorization
identities (`permfact`), and central extensions by 2-cocycles
(`extensions`).  The `glab` console script exposes the headline
computations with deterministic JSON reports.
"""

__version__ = "0.1.0"

from .groupcore import (  # noqa: F401
    AbSpec,
    AltSpec,
    CocycleExtSpec,
    CycSpec,
    FiniteGroup,
    ProductSpec,
    QuotientSpec,
    SLSpec,
    SymSpec,
    build_group,
    parse_group_spec,
)
