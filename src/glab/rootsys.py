"""Crystallographic root systems of classical type (A, B, C, D).

Roots live in their standard integer realizations (type A in R^{rank+1},
the others in R^{rank}) and are plain integer tuples, so all arithmetic is
exact.  Positive roots are kept in height-then-lexicographic order, the
ordering every downstream factorization relies on.

`lambda_weights` computes the canonical positive integer weighting of the
simple roots making every positive root's pairing-weight strictly positive:
the solution minimizing the maximum entry, ties broken lexicographically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, confirm

Vec = tuple[int, ...]


def inner(u: Vec, v: Vec) -> int:
    return sum(x * y for x, y in zip(u, v))


def _neg(v: Vec) -> Vec:
    return tuple(-x for x in v)


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    dim: int
    roots: tuple[Vec, ...]
    simple: tuple[Vec, ...]
    positive: tuple[Vec, ...]


def _basis_vec(dim: int, i: int, scale: int = 1) -> Vec:
    return tuple(scale if j == i else 0 for j in range(dim))


def build_root_system(family: str, rank: int) -> RootSystem:
    """Roots of the classical family; unsupported_family_rank otherwise.

    Accepted ranks: A >= 1, B >= 2, C >= 2, D >= 3.
    """
    fam = family.upper()
    ok = {"A": 1, "B": 2, "C": 2, "D": 3}
    if fam not in ok or rank < ok[fam]:
        raise InputError("unsupported_family_rank",
                         f"no system of type {family}{rank}",
                         family=family, rank=rank)
    if fam == "A":
        dim = rank + 1
        roots = [tuple(int(k == i) - int(k == j) for k in range(dim))
                 for i in range(dim) for j in range(dim) if i != j]
        simple = [tuple(int(k == i) - int(k == i + 1) for k in range(dim))
                  for i in range(rank)]
    else:
        dim = rank
        e = lambda i, s=1: _basis_vec(dim, i, s)
        pair_roots = []
        for i in range(dim):
            for j in range(i + 1, dim):
                for si in (1, -1):
                    for sj in (1, -1):
                        pair_roots.append(tuple(si * int(k == i) + sj * int(k == j)
                                                for k in range(dim)))
        if fam == "B":
            roots = pair_roots + [e(i, s) for i in range(dim) for s in (1, -1)]
            simple = [tuple(int(k == i) - int(k == i + 1) for k in range(dim))
                      for i in range(rank - 1)] + [e(rank - 1)]
        elif fam == "C":
            roots = pair_roots + [e(i, 2 * s) for i in range(dim) for s in (1, -1)]
            simple = [tuple(int(k == i) - int(k == i + 1) for k in range(dim))
                      for i in range(rank - 1)] + [e(rank - 1, 2)]
        else:  # D
            roots = pair_roots
            simple = [tuple(int(k == i) - int(k == i + 1) for k in range(dim))
                      for i in range(rank - 1)]
            simple.append(tuple(int(k == rank - 2) + int(k == rank - 1)
                                for k in range(dim)))
    system = RootSystem(fam, rank, dim, tuple(sorted(roots)),
                        tuple(simple), ())
    positive = [r for r in roots if height(system, r) > 0]
    positive.sort(key=lambda r: (height(system, r), r))
    object.__setattr__(system, "positive", tuple(positive))
    # sanity: roots come in +/- pairs split evenly by height sign
    confirm(len(positive) * 2 == len(roots),
            "half of the roots must be positive")
    confirm(all(_neg(r) in set(roots) for r in roots),
            "the roots must come in +/- pairs")
    return system


def _solve_rational(a: list[list[int]], b: list[int]) -> list[Fraction]:
    """Exact solution x of a x = b over Q by Gauss-Jordan; a is invertible."""
    r = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    for col in range(r):
        piv = next(i for i in range(col, r) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for i in range(r):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [row[r] for row in m]


def simple_coefficients(R: RootSystem, root: Vec) -> tuple[int, ...]:
    """Coordinates of ``root`` in the simple-root basis (exact, integral)."""
    # the Gram matrix of a basis is invertible
    x = _solve_rational([[inner(a, b) for b in R.simple] for a in R.simple],
                        [inner(a, root) for a in R.simple])
    coeffs = []
    for v in x:
        confirm(v.denominator == 1, "root must be an integer combination")
        coeffs.append(int(v))
    confirm(tuple(sum(c * a[k] for c, a in zip(coeffs, R.simple))
                  for k in range(R.dim)) == tuple(root),
            "the simple coefficients must recombine to the root")
    return tuple(coeffs)


def height(R: RootSystem, root: Vec) -> int:
    return sum(simple_coefficients(R, root))


def pairing(beta: Vec, alpha: Vec) -> int:
    """Cartan pairing <beta, alpha> = 2 (beta, alpha) / (alpha, alpha)."""
    num = 2 * inner(beta, alpha)
    den = inner(alpha, alpha)
    confirm(den > 0 and num % den == 0, "pairing must be integral on roots")
    return num // den


def cartan_matrix(R: RootSystem) -> tuple[tuple[int, ...], ...]:
    """cartan_matrix[i][j] = <alpha_i, alpha_j>."""
    return tuple(tuple(pairing(a, b) for b in R.simple) for a in R.simple)


def root_weight(R: RootSystem, lam: tuple[int, ...], beta: Vec) -> int:
    """Sum over simple alpha of lam_alpha * <beta, alpha>."""
    return sum(l * pairing(beta, a) for l, a in zip(lam, R.simple))


def _rational_seed(R: RootSystem) -> list[Fraction]:
    """Exact solution of C lam = (1,...,1); entrywise positive."""
    seed = _solve_rational([list(row) for row in cartan_matrix(R)], [1] * R.rank)
    confirm(all(x > 0 for x in seed), "the rational seed must be positive")
    return seed


def lambda_weights(R: RootSystem) -> tuple[int, ...]:
    """Positive integer weights with every simple row-sum strictly positive.

    Returns the solution of ``C lam > 0`` (entrywise, C the Cartan matrix)
    with minimal max-norm, lexicographically least among those.  By
    linearity and the nonnegativity of positive-root coordinates this makes
    ``root_weight(R, lam, beta) > 0`` for *every* positive root beta, which
    is asserted before returning.
    """
    C = cartan_matrix(R)
    r = R.rank
    seed = _rational_seed(R)
    scale = 1
    for x in seed:
        scale = math.lcm(scale, x.denominator)
    upper = max(int(x * scale) for x in seed)

    def search(bound: int) -> tuple[int, ...] | None:
        lam = [0] * r

        def feasible_tail(k: int) -> bool:
            # optimistic check: can rows still reach > 0 with entries <= bound?
            for i in range(r):
                acc = sum(C[i][j] * lam[j] for j in range(k))
                rest = sum((bound if C[i][j] > 0 else 1) * C[i][j]
                           for j in range(k, r))
                if acc + rest <= 0:
                    return False
            return True

        def dfs(k: int) -> tuple[int, ...] | None:
            if k == r:
                if all(sum(C[i][j] * lam[j] for j in range(r)) > 0
                       for i in range(r)):
                    return tuple(lam)
                return None
            for v in range(1, bound + 1):
                lam[k] = v
                if feasible_tail(k + 1):
                    got = dfs(k + 1)
                    if got is not None:
                        return got
            lam[k] = 0
            return None

        return dfs(0)

    # the scaled rational seed is itself a solution, so a bound succeeds
    lam = next(filter(None, map(search, range(1, upper + 1))), None)
    confirm(lam is not None, "weight search must succeed within the seed bound")
    confirm(all(root_weight(R, lam, b) > 0 for b in R.positive),
            "every positive root must weigh more than 0")
    return lam
