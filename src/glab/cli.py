"""Command-line front end: ``glab <area> <task> [options]``.

Areas: ``chevalley`` (relation checks, class cubes, prescribed-diagonal
Gauss decomposition), ``thick`` (thickness/genericity analysis of a subset),
``perm`` (cycle-identity sweeps, two-factor expression, class-word
distance), ``ext`` (cocycle extensions: build, splitting, sumset bound,
covering certificate).

Every run prints one JSON report::

    {"schema_version": 1, "version": ..., "task": ..., "config": {...},
     "results": {...}, "timings": {...}}

``results`` is a pure function of ``config`` (any randomness is seeded), so
serializing it with sorted keys is byte-identical across runs; wall-clock
noise lives only under ``timings``.  Exit codes: 0 success, 1 a checked
property failed, 2 bad input, 3 a resource cap was hit, 4 an internal
error (any other exception, reported with the code ``internal_error``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from itertools import chain, repeat

import numpy as np

from . import __version__
from . import extensions as ext
from . import permfact as pf
from . import thickset as ts
from .chevalley import (
    class_cube,
    commutator_structure_constants,
    diag_matrix,
    enumerate_unipotent_products,
    gauss_prescribed,
    regular_diagonals,
    regular_sequence,
    verify_torus_conjugation,
    verify_weyl_torus_action,
)
from .errors import (
    CapExceeded,
    InputError,
    PropertyFailure,
    SpecSyntaxError,
    ToolkitError,
)
from .groupcore import (
    DEFAULT_ORDER_CAP,
    CycSpec,
    FiniteGroup,
    SLSpec,
    _call,
    _integer,
    _integers,
    _require,
    _split_top_level,
    ball_mask,
    build_group,
    check_order,
    element_text,
    inverse_mask,
    mask_from_indices,
    parse_element,
    parse_group_spec,
    require_prime,
)


def _clean(obj):
    """Recursively coerce report payloads to plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _read_json(path: str, what: str):
    """The JSON value in a file; a missing or unreadable file is bad input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError("invalid_parameters", f"cannot read {what}",
                         path=path, reason=e.strerror or str(e)) from None
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise InputError("invalid_parameters", f"{what} is not JSON",
                         path=path, reason=str(e)) from None


# --------------------------------------------------------------------------
# subset expression grammar, with the separator of each constructor's
# arguments (every body is split, which also checks its brackets):
#   class(<element>) | ball(<e1>;...;<ek>;<radius>) | arc(<k>)
#   | file(<path>) | sym(<expr>) | union(<expr>,<expr>,...)
_SUBSET_SEPS = {"class": "", "ball": ";", "arc": "", "file": "", "sym": "",
                "union": ","}


def parse_subset(G: FiniteGroup, text: str, start: int = 0,
                 end: int | None = None) -> np.ndarray:
    """Evaluate the subset expression text[start:end] to a boolean mask."""
    head, lo, hi = _call(text, start, end, _SUBSET_SEPS,
                         "one of class/ball/arc/file/sym/union")
    args = _split_top_level(text, _SUBSET_SEPS[head], lo, hi)
    if head == "class":
        return G.class_mask(parse_element(G, text[lo:hi]))
    if head == "ball":
        if len(args) < 2:
            raise SpecSyntaxError(hi, "at least one element and a radius", text)
        radius = _integer(text, *args[-1])
        if radius < 0:
            raise InputError("invalid_parameters", "ball radius must be >= 0",
                             radius=radius)
        base = mask_from_indices(G, [parse_element(G, text[i:j])
                                     for i, j in args[:-1]])
        return ball_mask(G, base | inverse_mask(G, base), radius)
    if head == "arc":
        if not isinstance(G.spec, CycSpec):
            raise InputError("group_mismatch", "arc(...) needs a cyclic group")
        n = G.spec.modulus
        k = min(_integer(text, lo, hi), n)  # wider arcs are all of Cyc(n)
        return mask_from_indices(G, [G.index[v % n] for v in range(-k, k + 1)])
    if head == "file":
        names = _read_json(text[lo:hi].strip(), "subset file")
        if not isinstance(names, list):
            raise InputError("invalid_parameters",
                             "subset file must hold a JSON list of elements")
        return mask_from_indices(G, [parse_element(G, str(s)) for s in names])
    if head == "sym":
        inner = parse_subset(G, text, lo, hi)
        return inner | inverse_mask(G, inner)
    out = np.zeros(G.order, dtype=bool)
    for i, j in args:
        out |= parse_subset(G, text, i, j)
    return out


# --------------------------------------------------------------------------
# witness replay: re-verify reported witnesses through the form-level
# product path (independent of the cached index tables)


def _replay_clique(G: FiniteGroup, P: np.ndarray, witness: list[int]) -> bool:
    for i, a in enumerate(witness):
        inv_a = G.inv_form(G.elements[a])
        for b in witness[i + 1:]:
            q = G.mul_form(inv_a, G.elements[b])
            if P[G.index[q]]:
                return False
    return True


def _replay_cover(G: FiniteGroup, P: np.ndarray,
                  translators: list[int]) -> bool:
    covered = np.zeros(G.order, dtype=bool)
    members = [G.elements[int(i)] for i in np.nonzero(P)[0]]
    for t in translators:  # the right translates P·t
        tf = G.elements[t]
        for m in members:
            covered[G.index[G.mul_form(m, tf)]] = True
    return bool(covered.all())


# --------------------------------------------------------------------------
# handlers


def _mat_text(n: int, mat: tuple) -> str:
    return ",".join(str(v) for v in mat)


def _run_chev_relations(a) -> dict:
    n, p = a.rank + 1, a.p
    _require(n >= 2, "verify-relations needs rank >= 1", rank=a.rank)
    # the relation loops check at most r·r·p·p commutators and Weyl
    # conjugates and r·p·(p-1)^(n-1) torus conjugates, for r roots; bound
    # them before the primality test, which is slow for a large p
    _require(p >= 2, "verify-relations needs a prime modulus", p=p)
    r = n * (n - 1)
    for factors in ((r, r, p, p), chain((r, p), repeat(p - 1, n - 1))):
        check_order(factors, DEFAULT_ORDER_CAP, "relation instances")
    require_prime(p, "verify-relations")
    results = {
        "structure_constants": commutator_structure_constants(n, p),
        "torus_conjugation": verify_torus_conjugation(n, p),
        "weyl_torus_action": verify_weyl_torus_action(n, p),
    }
    count = p ** (n * (n - 1) // 2)
    if count <= 200_000:
        results["unipotent_factorization"] = enumerate_unipotent_products(n, p)
    else:
        results["unipotent_factorization"] = {"skipped": True,
                                              "would_enumerate": count}
    return results


def _run_chev_class_cube(a) -> dict:
    n, p = a.rank + 1, a.p
    G = build_group(SLSpec(n, p))
    if a.t is not None:
        entries = tuple(_integers(a.t))
        if len(entries) != n:
            raise SpecSyntaxError(0, f"{n} diagonal entries", a.t)
        mats = [diag_matrix(entries, p)]
    else:
        mats = regular_diagonals(n, p)
    out = []
    for m in mats:
        r = class_cube(G, G.index[m])
        r["t"] = _mat_text(n, m)
        out.append(r)
    return {"group": f"SL({n},{p})", "instances": out}


def _run_chev_gauss(a) -> dict:
    n, p = a.rank + 1, a.p
    G = build_group(SLSpec(n, p))
    g = parse_element(G, a.g)
    t = parse_element(G, a.t)
    r = gauss_prescribed(G, g, t)
    return {
        "x": element_text(G, r["x"]),
        "v": _mat_text(n, r["v"]),
        "t": _mat_text(n, r["t"]),
        "u": _mat_text(n, r["u"]),
        "conjugate": _mat_text(n, r["conjugate"]),
    }


def _run_chev_sequence(a) -> dict:
    r = regular_sequence(a.family, a.rank, a.p, a.m)
    r["elements"] = [_mat_text(a.rank + 1, m) for m in r["elements"]]
    return r


def _run_thick_analyze(a) -> dict:
    G = build_group(parse_group_spec(a.group))
    P = parse_subset(G, a.set)
    th = ts.thickness(G, P)
    results = {
        "group": a.group,
        "set_size": int(P.sum()),
        "thickness": th,
        "witness_verified": (
            _replay_clique(G, P, th["witness"]) if th["witness"] else True),
    }
    cert = ts.generic_subgroup_certificate(G, P)
    translators = cert.pop("translators")
    results["genericity"] = {"m": cert["m"], "translators": translators}
    results["cover_verified"] = _replay_cover(G, P, translators)
    if a.probe_normal:
        results["normal_core_probe"] = ts.normal_core_probe(G, cert)
    members = np.nonzero(cert.pop("mask"))[0]
    if len(members) <= 200:
        cert["subgroup_members"] = [element_text(G, int(i)) for i in members]
    results["subgroup_certificate"] = cert
    return results


def _run_perm_identities(a) -> dict:
    return {
        "quotient_scan": pf.scan_cycle_quotient(a.n, a.m_max),
        "merge_scan": pf.scan_merge(a.n, half_max=a.half_max,
                                    full_cap_points=a.full_cap,
                                    seed=a.seed,
                                    random_samples=a.samples),
    }


def _run_perm_express(a) -> dict:
    G = build_group(parse_group_spec(a.group))
    P = parse_subset(G, a.set)
    sigma = parse_element(G, a.sigma)
    r = pf.express_even(G, P, sigma, allow_fallback=not a.no_fallback)
    if G.mul_form(G.elements[r["q1"]],
                  G.elements[r["q2"]]) != G.elements[sigma]:
        raise PropertyFailure("search_exhausted",
                              "the replayed factors do not multiply to sigma",
                              q1=element_text(G, r["q1"]),
                              q2=element_text(G, r["q2"]),
                              sigma=element_text(G, sigma))
    return {
        "mode": r["mode"],
        "budget_guaranteed": r["budget_guaranteed"],
        "q1": element_text(G, r["q1"]),
        "q2": element_text(G, r["q2"]),
        "pairs": r["pairs"],
        "replayed": True,
    }


def _run_perm_distance(a) -> dict:
    G = build_group(parse_group_spec(a.group))
    return pf.class_word_distance(G, parse_element(G, a.sigma),
                                  parse_element(G, a.tau), cap=a.cap)


def _extension_from_args(a):
    if a.cocycle == "carry":
        return ext.build_extension(*ext.carry_cocycle())
    base = build_group(parse_group_spec(a.base))
    if a.cocycle == "coboundary":
        check_order((a.p, base.order), DEFAULT_ORDER_CAP)
        table = ext.coboundary_cocycle(base, a.p, seed=a.seed)
    elif a.cocycle.startswith("file:"):
        table = _read_json(a.cocycle[5:], "cocycle file")
    else:
        raise InputError("invalid_parameters",
                         "cocycle must be carry, coboundary, or file:<path>",
                         got=a.cocycle)
    return ext.build_extension(base, a.p, table)


def _run_ext_build(a) -> dict:
    E = _extension_from_args(a)
    return {**ext.identity_inverse_check(E), "p": E.spec.p,
            "base_order": E.parent.order}


def _run_ext_split(a) -> dict:
    E = _extension_from_args(a)
    r = ext.split_check(E)
    if r["complement"] is not None:
        r["complement"] = [element_text(E, i) for i in r["complement"]]
    return r


def _run_ext_bound(a) -> dict:
    return ext.image_bound_check(_extension_from_args(a), n_max=a.n_max)


def _run_ext_iwasawa(a) -> dict:
    G = build_group(parse_group_spec(a.group))
    A = parse_subset(G, a.a)
    A = A | inverse_mask(G, A)
    A[0] = True
    B = parse_subset(G, a.b)
    return ext.iwasawa_certificate(G, A, B)


# --------------------------------------------------------------------------
# parser assembly


def _int_option(text: str) -> int:
    """An integer option, read like every integer of spec text: ASCII
    digits after an optional '-'.

    A bad value raises an ``InputError``, which argparse passes through
    (it turns only its own type errors into usage text), so ``main``
    reports it like any other bad input.
    """
    try:
        return _integer(text)
    except SpecSyntaxError:
        raise InputError("invalid_parameters",
                         f"expected an integer, got {text!r}",
                         value=text) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``glab`` parser, built on the first call and then reused.

    A task names its handler, which ``main`` looks up when the task runs,
    so the parser holds no state of a run: each ``parse_args`` starts from
    a fresh namespace with the defaults.
    """
    root = argparse.ArgumentParser(
        prog="glab", description="finite group laboratory")
    root.add_argument("--version", action="version", version=__version__)
    areas = root.add_subparsers(dest="area", required=True)

    chev = areas.add_parser("chevalley", help="matrix group calculus")
    chev_sub = chev.add_subparsers(dest="task", required=True)

    c1 = chev_sub.add_parser("verify-relations",
                             help="generator relations in SL(rank+1, p)")
    c1.add_argument("--rank", type=_int_option, required=True)
    c1.add_argument("--p", type=_int_option, required=True)
    c1.set_defaults(handler="_run_chev_relations", task="chevalley.verify-relations")

    c2 = chev_sub.add_parser("class-cube",
                             help="class square/cube coverage for regular "
                                  "diagonals")
    c2.add_argument("--rank", type=_int_option, required=True)
    c2.add_argument("--p", type=_int_option, required=True)
    c2.add_argument("--t", type=str, default=None,
                    help="diagonal entries d1,d2,... (default: all regular)")
    c2.set_defaults(handler="_run_chev_class_cube", task="chevalley.class-cube")

    c3 = chev_sub.add_parser("gauss",
                             help="conjugate to a prescribed Gauss diagonal")
    c3.add_argument("--rank", type=_int_option, required=True)
    c3.add_argument("--p", type=_int_option, required=True)
    c3.add_argument("--g", type=str, required=True,
                    help="group element, row-major entries a,b,c,...")
    c3.add_argument("--t", type=str, required=True,
                    help="target diagonal as a group element")
    c3.set_defaults(handler="_run_chev_gauss", task="chevalley.gauss")

    c4 = chev_sub.add_parser("sequence",
                             help="torus sequence with regular quotients")
    c4.add_argument("--family", type=str, default="A")
    c4.add_argument("--rank", type=_int_option, required=True)
    c4.add_argument("--p", type=_int_option, required=True)
    c4.add_argument("--m", type=_int_option, required=True)
    c4.set_defaults(handler="_run_chev_sequence", task="chevalley.sequence")

    thick = areas.add_parser("thick", help="thickness and genericity")
    thick_sub = thick.add_subparsers(dest="task", required=True)
    t1 = thick_sub.add_parser("analyze", help="analyze a symmetric subset")
    t1.add_argument("--group", type=str, required=True)
    t1.add_argument("--set", type=str, required=True)
    t1.add_argument("--probe-normal", action="store_true",
                    help="experimental: largest normal subgroup inside "
                         "P^(3m-2) and its index")
    t1.set_defaults(handler="_run_thick_analyze", task="thick.analyze")

    perm = areas.add_parser("perm", help="permutation identities and words")
    perm_sub = perm.add_subparsers(dest="task", required=True)

    p1 = perm_sub.add_parser("identities", help="sweep both cycle identities")
    p1.add_argument("--n", type=_int_option, default=8)
    p1.add_argument("--m-max", type=_int_option, default=2)
    p1.add_argument("--half-max", type=_int_option, default=1)
    p1.add_argument("--full-cap", type=_int_option, default=8)
    p1.add_argument("--seed", type=_int_option, default=0)
    p1.add_argument("--samples", type=_int_option, default=200)
    p1.set_defaults(handler="_run_perm_identities", task="perm.identities")

    p2 = perm_sub.add_parser("express",
                             help="two factors in a normal thick set")
    p2.add_argument("--group", type=str, required=True)
    p2.add_argument("--set", type=str, required=True)
    p2.add_argument("--sigma", type=str, required=True)
    p2.add_argument("--no-fallback", action="store_true")
    p2.set_defaults(handler="_run_perm_express", task="perm.express")

    p3 = perm_sub.add_parser("distance", help="least k with tau in class^k")
    p3.add_argument("--group", type=str, required=True)
    p3.add_argument("--sigma", type=str, required=True)
    p3.add_argument("--tau", type=str, required=True)
    p3.add_argument("--cap", type=_int_option, default=None)
    p3.set_defaults(handler="_run_perm_distance", task="perm.distance")

    exta = areas.add_parser("ext", help="central extensions by cocycles")
    ext_sub = exta.add_subparsers(dest="task", required=True)

    def _cocycle_args(sp):
        sp.add_argument("--base", type=str, default="Cyc(2)",
                        help="base group spec (ignored for carry)")
        sp.add_argument("--p", type=_int_option, default=2)
        sp.add_argument("--cocycle", type=str, required=True,
                        help="carry | coboundary | file:<path>")
        sp.add_argument("--seed", type=_int_option, default=0)

    e1 = ext_sub.add_parser("build", help="build and certify the extension")
    _cocycle_args(e1)
    e1.set_defaults(handler="_run_ext_build", task="ext.build")

    e2 = ext_sub.add_parser("split", help="does the extension split?")
    _cocycle_args(e2)
    e2.set_defaults(handler="_run_ext_split", task="ext.split")

    e3 = ext_sub.add_parser("bound", help="sumset bound on section powers")
    _cocycle_args(e3)
    e3.add_argument("--n-max", type=_int_option, default=4)
    e3.set_defaults(handler="_run_ext_bound", task="ext.bound")

    e4 = ext_sub.add_parser("iwasawa", help="covering certificate A^k = G")
    e4.add_argument("--group", type=str, required=True)
    e4.add_argument("--a", type=str, required=True,
                    help="subset expression; symmetrized, identity added")
    e4.add_argument("--b", type=str, required=True,
                    help="subset expression for the solvable subgroup")
    e4.set_defaults(handler="_run_ext_iwasawa", task="ext.iwasawa")

    return root


def _config_of(args: argparse.Namespace) -> dict:
    skip = {"handler", "task", "area"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def main(argv=None) -> int:
    """Run one task and print its report; return the exit code.

    The parser is built by the first call in a process, not at import,
    and every later call reuses it.  ``--help``, ``--version`` and usage
    errors exit from argparse; a bad integer option gets an error report.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    t0 = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        results = _clean(globals()[args.handler](args))
    except Exception as e:
        if isinstance(e, ToolkitError):
            error = {"code": e.code, "message": e.message,
                     "details": _clean(e.details)}
        else:  # a bug: its traceback goes to standard error
            import traceback
            traceback.print_exc()
            error = {"code": "internal_error",
                     "message": f"{type(e).__name__}: {e}", "details": {}}
        payload = {
            "schema_version": 1,
            "version": __version__,
            # a bad integer option stops the parse after the area and
            # the task, whose names make up the task's name
            "task": args.task if args is not None else ".".join(argv[:2]),
            "error": error,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        if isinstance(e, PropertyFailure):
            return 1
        if isinstance(e, CapExceeded):
            return 3
        return 2 if isinstance(e, ToolkitError) else 4
    report = {
        "schema_version": 1,
        "version": __version__,
        "task": args.task,
        "config": _clean(_config_of(args)),
        "results": results,
        "timings": {"total_s": round(time.perf_counter() - t0, 6)},
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
