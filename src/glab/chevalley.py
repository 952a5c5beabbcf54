"""Generator calculus in SL_n(F_p): root elements, tori, transport solvers.

Matrices are row-major residue tuples (the same canonical form the group
engine uses for its SL family, so matrices index directly into enumerated
groups).  Roots of SL_n are ordered index pairs (i, j), 0-based, i != j;
(i, j) is positive iff i < j, its height is j - i, and for diagonal
t = diag(t_0, ..., t_{n-1}) the character value is alpha(t) = t_i / t_j.

The three families of verified relations:

* torus conjugation      t x_a(s) t^-1 = x_a(a(t) s)
* Weyl-torus action      t_a(u) x_b(s) t_a(u)^-1 = x_b(u^<b,a> s)
* ordered factorization  every upper unitriangular matrix is uniquely
  a product of root elements over the positive roots in height-then-lex
  order.

On top of these sit the two transport solvers (conjugation equations
[t, u'] = u in the upper and [v', t^-1] = v in the lower unitriangular
group), the prescribed-diagonal Gauss decomposition, and the conjugacy
class cube check for regular semisimple elements.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InputError, PropertyFailure, confirm
from .groupcore import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    SLSpec,
    _mul_mod,
    check_order,
    gauss_jordan,
    mat_identity,
    mat_inverse,
    mat_mul,
    product_mask,
    require_prime,
)

Root = tuple[int, int]
Mat = tuple[int, ...]


def positive_roots(n: int) -> list[Root]:
    """(i, j) with i < j, sorted by height j - i, then lexicographically."""
    roots = [(i, j) for i in range(n) for j in range(n) if i < j]
    roots.sort(key=lambda r: (r[1] - r[0], r))
    return roots


def negative_roots(n: int) -> list[Root]:
    return [(j, i) for (i, j) in positive_roots(n)]


def all_roots(n: int) -> list[Root]:
    return positive_roots(n) + negative_roots(n)


def _check_root(n: int, root: Root):
    i, j = root
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise InputError("invalid_root", f"{root} is not a root of SL_{n}",
                         root=root, n=n)


def root_pairing(beta: Root, alpha: Root) -> int:
    """<beta, alpha> for beta = e_i - e_j, alpha = e_k - e_l (type A)."""
    (i, j), (k, l) = beta, alpha
    return int(i == k) - int(i == l) - int(j == k) + int(j == l)


def x_elem(n: int, p: int, root: Root, s: int) -> Mat:
    _check_root(n, root)
    i, j = root
    m = list(mat_identity(n))
    m[i * n + j] = s % p
    return tuple(m)


def w_elem(n: int, p: int, root: Root, u: int) -> Mat:
    if u % p == 0:
        raise InputError("zero_parameter_for_w_or_t",
                         "w_alpha(u) needs an invertible u", u=u)
    i, j = root
    a = x_elem(n, p, root, u)
    b = x_elem(n, p, (j, i), -pow(u, -1, p))
    return mat_mul(mat_mul(a, b, n, p), a, n, p)


def t_elem(n: int, p: int, root: Root, u: int) -> Mat:
    if u % p == 0:
        raise InputError("zero_parameter_for_w_or_t",
                         "t_alpha(u) needs an invertible u", u=u)
    # w_a(1)^-1 = w_a(-1)
    return mat_mul(w_elem(n, p, root, u), w_elem(n, p, root, -1), n, p)


def is_diagonal(m: Mat, n: int) -> bool:
    return all(m[i * n + j] == 0 for i in range(n) for j in range(n) if i != j)


def diag_entries(m: Mat, n: int) -> tuple[int, ...]:
    if not is_diagonal(m, n):
        raise InputError("not_diagonal", "matrix is not diagonal")
    return tuple(m[i * n + i] for i in range(n))


def diag_matrix(entries: tuple[int, ...], p: int) -> Mat:
    n = len(entries)
    if math.prod(entries) % p != 1:
        raise InputError("invalid_parameters",
                         "diagonal entries must multiply to 1", entries=entries)
    if any(e % p == 0 for e in entries):
        raise InputError("invalid_parameters", "diagonal entries must be units")
    m = [0] * (n * n)
    for i, e in enumerate(entries):
        m[i * n + i] = e % p
    return tuple(m)


def root_value(t: Mat, root: Root, n: int, p: int) -> int:
    """alpha(t) = t_i / t_j for diagonal t."""
    d = diag_entries(t, n)
    i, j = root
    return (d[i] * pow(d[j], -1, p)) % p


def is_regular(t: Mat, n: int, p: int) -> bool:
    """Diagonal with pairwise distinct entries (so beta(t) != 1 for roots)."""
    d = diag_entries(t, n)
    return len(set(e % p for e in d)) == n


def regular_diagonals(n: int, p: int) -> list[Mat]:
    """All regular diagonal elements of SL_n(F_p), lexicographic order."""
    return [t for t in _all_diagonals(n, p) if is_regular(t, n, p)]


# --------------------------------------------------------------------------
# ordered factorization of unitriangular matrices


def _is_unitriangular(m: Mat, n: int, sign: int) -> bool:
    for i in range(n):
        if m[i * n + i] != 1:
            return False
        for j in range(n):
            if (j > i if sign < 0 else j < i) and m[i * n + j] != 0:
                return False
    return True


def unipotent_factor(m: Mat, n: int, p: int, sign: int = 1) -> list[tuple[Root, int]]:
    """Coefficients of the ordered root-element factorization of ``m``.

    ``sign=+1`` factors an upper unitriangular matrix over the positive
    roots in height-then-lex order, ``sign=-1`` a lower one over the
    negative roots (same order of their positive counterparts).  The
    returned list covers every root in order, including zero coefficients;
    multiplying the factors back in order reproduces ``m`` exactly, which
    the function checks before returning.
    """
    if not _is_unitriangular(m, n, sign):
        raise InputError("not_unitriangular",
                         "matrix is not unitriangular of the requested sign")
    roots = positive_roots(n) if sign > 0 else negative_roots(n)
    residual = m
    coeffs: list[tuple[Root, int]] = []
    for (i, j) in roots:
        s = residual[i * n + j] % p
        coeffs.append(((i, j), s))
        if s:
            residual = mat_mul(x_elem(n, p, (i, j), -s), residual, n, p)
    confirm(residual == mat_identity(n), "peeling must terminate at identity")
    check = mat_identity(n)
    for root, s in coeffs:
        check = mat_mul(check, x_elem(n, p, root, s), n, p)
    confirm(check == m, "the root factors must multiply back to the matrix")
    return coeffs


def enumerate_unipotent_products(n: int, p: int) -> dict:
    """Verify the factorization map is a bijection onto the unitriangulars.

    Multiplies out all p^{#positive roots} coefficient tuples (vectorized,
    sharing prefixes) and checks the products are pairwise distinct upper
    unitriangular matrices — surjectivity then follows by counting.
    """
    require_prime(p, "enumerate_unipotent_products")
    roots = positive_roots(n)
    m = len(roots)
    prods = np.eye(n, dtype=np.int64)[None, :, :]
    for root in roots:
        # (K, n, n) x (p, n, n) -> (K*p, n, n), prefix-major order
        prods = _mul_mod(prods[:, None], _x_stack(n, p, root, np.arange(p)),
                         p).reshape(-1, n, n)
    flat = prods.reshape(len(prods), n * n)
    distinct = len(np.unique(flat, axis=0))
    iu = np.tril_indices(n, -1)
    unitriangular = bool((prods[:, iu[0], iu[1]] == 0).all()
                         and (prods[:, range(n), range(n)] == 1).all())
    return {
        "count": len(flat),
        "distinct": int(distinct),
        "expected": p**m,
        "bijective": bool(distinct == p**m and unitriangular),
    }


# --------------------------------------------------------------------------
# relation verification, batched: each check stacks its left sides and its
# expected right sides as (..., n, n) int64 arrays, one root at a time, and
# counts the instances whose blocks differ


def _x_stack(n: int, p: int, roots, s) -> np.ndarray:
    """x_a(s) as int64 (n, n) blocks over the broadcast shape of ``roots``
    (an integer array whose last axis holds a root (i, j)) and ``s``."""
    roots = np.asarray(roots, dtype=np.int64)
    i, j, s = np.broadcast_arrays(roots[..., 0], roots[..., 1],
                                  np.asarray(s, dtype=np.int64) % p)
    out = np.zeros(s.shape + (n, n), dtype=np.int64)
    out[..., range(n), range(n)] = 1
    out.reshape(-1, n, n)[np.arange(s.size), i.ravel(), j.ravel()] = s.ravel()
    return out


def _checked_inverse(x: np.ndarray, xi: np.ndarray, p: int) -> np.ndarray:
    """``xi``, once x·xi = I is checked over the whole stack."""
    confirm((_mul_mod(x, xi, p) == np.eye(x.shape[-1], dtype=np.int64)).all(),
            "stacked inverse must invert", p=p)
    return xi


def _mismatches(lhs: np.ndarray, rhs: np.ndarray) -> int:
    """Instances whose (n, n) blocks differ."""
    return int((lhs != rhs).any(axis=(-2, -1)).sum())


def verify_torus_conjugation(n: int, p: int) -> dict:
    """t x_a(s) t^-1 = x_a(a(t) s) over every diagonal t, root a, scalar s.

    The diagonals stack once with their inverses; each root then conjugates
    its p root elements by every t in one product, against the root
    elements at a(t)·s, with a(t) = t_i / t_j read off the diagonal.
    """
    require_prime(p, "verify_torus_conjugation")
    inverse = np.array([0] + [pow(v, -1, p) for v in range(1, p)])
    d = np.array(_all_diagonals(n, p), dtype=np.int64).reshape(-1, n, n)
    entries = d[:, range(n), range(n)]
    di = np.zeros_like(d)
    di[:, range(n), range(n)] = inverse[entries]
    _checked_inverse(d, di, p)
    s = np.arange(p)
    checked = failures = 0
    for i, j in all_roots(n):
        x = _x_stack(n, p, (i, j), s)
        lhs = _mul_mod(_mul_mod(d[:, None], x, p), di[:, None], p)
        value = entries[:, i] * inverse[entries[:, j]] % p
        checked += lhs.size // (n * n)
        failures += _mismatches(lhs, _x_stack(n, p, (i, j), value[:, None] * s))
    return {"checked": checked, "failures": failures}


def verify_weyl_torus_action(n: int, p: int) -> dict:
    """t_a(u) x_b(s) t_a(u)^-1 = x_b(u^<b,a> s) over all roots a, b.

    The root elements x_b(s) stack once; each root a builds its p - 1
    elements t_a(u) form-level, with t_a(u)^-1 = t_a(u^-1), and conjugates
    the whole stack by them in one product, against the root elements at
    u^<b,a>·s.
    """
    require_prime(p, "verify_weyl_torus_action")
    roots = all_roots(n)
    s = np.arange(p)
    rs = np.array(roots)[:, None]
    x = _x_stack(n, p, rs, s)
    # u^k mod p for u = 1..p-1 and each pairing k that occurs
    pairings = np.array([[root_pairing(b, a) for b in roots] for a in roots])
    ks = np.unique(pairings)
    powers = np.array([[pow(u, int(k), p) for k in ks] for u in range(1, p)])
    units = (range(1, p), [pow(u, -1, p) for u in range(1, p)])
    checked = failures = 0
    for alpha, row in zip(roots, pairings):
        ta, tai = (np.array([t_elem(n, p, alpha, u) for u in us],
                            dtype=np.int64).reshape(-1, 1, 1, n, n)
                   for us in units)
        lhs = _mul_mod(_mul_mod(ta, x, p), _checked_inverse(ta, tai, p), p)
        mult = powers[:, np.searchsorted(ks, row), None]
        checked += lhs.size // (n * n)
        failures += _mismatches(lhs, _x_stack(n, p, rs, mult * s))
    return {"checked": checked, "failures": failures}


def _commutator_target(a: Root, b: Root) -> tuple[Root | None, int]:
    """(a + b, N) with [x_a(s), x_b(u)] = x_{a+b}(N s u), or (None, 0) when
    a + b is not a root (and a != -b), so that the two commute."""
    (i, j), (k, l) = a, b
    if j == k and i != l:
        return (i, l), 1
    if l == i and k != j:
        return (k, j), -1
    return None, 0


def commutator_structure_constants(n: int, p: int) -> dict:
    """Realized signs N in [x_a(s), x_b(u)] = x_{a+b}(N s u).

    For type A the nonzero cases are head-to-tail pairs: a = (i,j),
    b = (j,k) gives N = +1 on (i,k); a = (i,j), b = (k,i) gives N = -1 on
    (k,j).  Non-adjacent pairs (a+b not a root, a != -b) must commute.
    Everything is verified against matrix arithmetic for all s, u: each
    root a forms its commutators with every other root b != -a and all
    p·p scalar pairs in one product.
    """
    require_prime(p, "commutator_structure_constants")
    constants = {}
    failures = 0
    roots = all_roots(n)
    s = np.arange(p)
    for a in roots:
        others = [b for b in roots if b != a and b != (a[1], a[0])]
        if not others:
            continue
        rules = [_commutator_target(a, b) for b in others]
        xa = _x_stack(n, p, a, s)[None, :, None]
        xai = _checked_inverse(xa, _x_stack(n, p, a, -s)[None, :, None], p)
        bs = np.array(others)[:, None]
        xb = _x_stack(n, p, bs, s)[:, None, :]
        xbi = _checked_inverse(xb, _x_stack(n, p, bs, -s)[:, None, :], p)
        comm = _mul_mod(_mul_mod(_mul_mod(xai, xbi, p), xa, p), xb, p)
        # x_a(0) = I stands for the identity of a commuting pair
        targets = np.array([t or a for t, _ in rules])[:, None, None]
        sign = np.array([c for _, c in rules])[:, None, None]
        failures += _mismatches(comm, _x_stack(n, p, targets,
                                               sign * np.multiply.outer(s, s)))
        for b, (target, c) in zip(others, rules):
            if target:
                constants[f"{a}+{b}"] = c
    return {"constants": constants, "failures": failures}


def _all_diagonals(n: int, p: int) -> list[Mat]:
    """All diagonal elements of SL_n(F_p), lexicographic order: the first
    n - 1 entries run over the units, the last makes the determinant 1."""
    return [diag_matrix(head + (pow(math.prod(head), -1, p),), p)
            for head in itertools.product(range(1, p), repeat=n - 1)]


# --------------------------------------------------------------------------
# transport solvers


def _comm(a: Mat, b: Mat, n: int, p: int, ai: Mat | None = None,
          bi: Mat | None = None) -> Mat:
    """[a, b] = a^-1 b^-1 a b; ``ai`` and ``bi``, when given, are the
    inverses of a and b, which are then not taken again."""
    if ai is None:
        ai = mat_inverse(a, n, p)
    if bi is None:
        bi = mat_inverse(b, n, p)
    return mat_mul(mat_mul(ai, bi, n, p), mat_mul(a, b, n, p), n, p)


def _solve_transport(n: int, p: int, t: Mat, target: Mat, sign: int) -> Mat:
    """Layer-peeling solve of [t, u'] = u (sign +1) or [v', t^-1] = v (-1).

    Each pass recomputes the full residual, corrects the lowest nonzero
    height-layer coefficient-wise (the layer map acts diagonally there),
    and checks strict height progress; the fixpoint is verified exactly.
    """
    if not is_regular(t, n, p):
        raise InputError("not_regular",
                         "transport needs a regular diagonal element")
    if not _is_unitriangular(target, n, sign):
        raise InputError("not_unitriangular",
                         "transport target has the wrong shape")
    ti = mat_inverse(t, n, p)

    def commutator(sol: Mat) -> Mat:  # t and t^-1 are inverted once, above
        return _comm(t, sol, n, p, ai=ti) if sign > 0 else _comm(sol, ti, n, p, bi=t)

    sol = mat_identity(n)
    last_height = 0
    for _ in range(n):  # max height is n - 1; one extra pass checks the fixpoint
        value = commutator(sol)
        residual = mat_mul(mat_inverse(value, n, p), target, n, p)
        if residual == mat_identity(n):
            break
        layers = [(root, s) for root, s in unipotent_factor(residual, n, p, sign)
                  if s]
        h = min(abs(i - j) for (i, j), _ in layers)
        confirm(h > last_height, "transport peeling must make height progress")
        last_height = h
        for (i, j), s in layers:
            if abs(i - j) != h:
                continue
            av = root_value(t, (i, j), n, p)
            mult = (1 - pow(av, -1, p)) % p if sign > 0 else (av - 1) % p
            c = (s * pow(mult, -1, p)) % p
            sol = mat_mul(sol, x_elem(n, p, (i, j), c), n, p)
    final = commutator(sol)
    confirm(final == target, "transport solve failed to converge")
    return sol


def transport_into_unipotent(n: int, p: int, t: Mat, target: Mat) -> Mat:
    """u' upper unitriangular with [t, u'] = target."""
    return _solve_transport(n, p, t, target, +1)


def transport_into_opposite(n: int, p: int, t: Mat, target: Mat) -> Mat:
    """v' lower unitriangular with [v', t^-1] = target."""
    return _solve_transport(n, p, t, target, -1)


# --------------------------------------------------------------------------
# Gauss decomposition with prescribed diagonal


def gauss_prescribed(G: FiniteGroup, g: int, t: int) -> dict:
    """Conjugate g so its Gauss decomposition has diagonal exactly t.

    Walks conjugators x in element-index order; accepts the first with
    g^x having nonvanishing leading principal minors and LDU diagonal
    equal to t.  Returns the conjugator and the triangular factors, all
    re-verified by recomposition.  search_exhausted if no x works.
    """
    spec = G.spec
    if not isinstance(spec, SLSpec):
        raise InputError("group_mismatch", "gauss_prescribed needs an SL group")
    n, p = spec.n, spec.p
    if G.class_mask(g).sum() == 1:
        raise InputError("noncentral_required",
                         "central elements conjugate only to themselves")
    t_mat = G.elements[t]
    diag_entries(t_mat, n)  # not_diagonal if it is not
    for x in range(G.order):
        m = G.elements[G.conj(g, x)]
        ldu = gauss_jordan(m, n, p)[1]
        if ldu is not None and ldu[1] == t_mat:
            L, D, U = ldu
            confirm(mat_mul(mat_mul(L, D, n, p), U, n, p) == m,
                    "L·D·U must multiply back to the conjugate")
            return {"x": x, "v": L, "t": D, "u": U, "conjugate": m}
    raise PropertyFailure("search_exhausted",
                          "no conjugate has the prescribed diagonal",
                          exhausted=True)


# --------------------------------------------------------------------------
# class cube


def class_cube(G: FiniteGroup, t: int) -> dict:
    """Powers of the conjugacy class of a regular element.

    Checks C^2 covers G minus the center and C^3 covers G, recording the
    least power whose class product reaches all of G, read from the
    group's power walk of C (:meth:`FiniteGroup.class_walk_of`).
    """
    spec = G.spec
    if not isinstance(spec, SLSpec):
        raise InputError("group_mismatch", "class_cube needs an SL group")
    if not is_regular(G.elements[t], spec.n, spec.p):
        raise InputError("not_regular", "class_cube needs a regular element")
    C = G.class_mask(t)
    C2 = product_mask(G, C, C)
    C3 = product_mask(G, C2, C)
    # the walk stops at a repeat, so None means C^k never covers G
    return {
        "class_size": int(C.sum()),
        "square_covers_complement": bool((C2 | G.center_mask()).all()),
        "cube_is_group": bool(C3.all()),
        "min_power": G.class_walk_of("power", int(G.conjugacy_classes()[0][t])).full,
    }


# --------------------------------------------------------------------------
# regular sequences from weighted tori


def _mult_order(s: int, p: int) -> int:
    k, x = 1, s % p
    while x != 1:
        x = (x * s) % p
        k += 1
    return k


def regular_sequence(family: str, rank: int, p: int, m: int) -> dict:
    """A geometric torus sequence whose pairwise quotients are all regular.

    Picks the least s >= 2 whose multiplicative order d avoids every
    congruence delta * w_beta = 0 mod d (1 <= delta < m, beta positive,
    w the lambda-weight of beta), then returns a(s^i) for i < m where
    a(u) is the product of simple-root torus elements t_alpha(u^lambda_alpha).
    Matrix output is the SL_{rank+1}(F_p) realization (type A only).
    """
    from . import rootsys
    if family.upper() != "A":
        raise InputError("unsupported_family_rank",
                         "matrix realization only for type A", family=family)
    if m < 1:
        raise InputError("invalid_parameters", "need m >= 1", m=m)
    # bound the scan over s < p and the m·m quotient checks before the
    # primality test, which is slow for a large p
    check_order((p - 1, m, m), DEFAULT_ORDER_CAP, "sequence checks")
    # lambda_weights tries weightings with entries up to the largest entry
    # of its scaled rational seed, i (rank + 1 - i) / 2 for A_rank (doubled
    # for an odd rank): bound upper^rank of them before building anything
    i = (rank + 1) // 2
    upper = i * (rank + 1 - i) // (1 if rank % 2 else 2)
    check_order(itertools.repeat(upper, max(rank, 0)), DEFAULT_ORDER_CAP,
                "weight search")
    require_prime(p, "regular_sequence")
    R = rootsys.build_root_system(family, rank)
    lam = rootsys.lambda_weights(R)
    weights = [rootsys.root_weight(R, lam, b) for b in R.positive]
    n = rank + 1
    if m == 1:
        return {"s": 1, "order": 1, "lam": list(lam), "weights": weights,
                "elements": [mat_identity(n)]}
    chosen = None
    for s in range(2, p):
        d = _mult_order(s, p)
        if all((delta * w) % d for delta in range(1, m) for w in weights):
            chosen = (s, d)
            break
    if chosen is None:
        raise InputError("field_too_small",
                         f"no multiplicative order in F_{p} avoids the weights",
                         p=p, m=m)
    s, d = chosen
    simple_pairs = [(k, k + 1) for k in range(rank)]
    elements = []
    for i in range(m):
        u = pow(s, i, p)
        acc = mat_identity(n)
        for (root, l) in zip(simple_pairs, lam):
            acc = mat_mul(acc, t_elem(n, p, root, pow(u, l, p)), n, p)
        elements.append(acc)
    # pairwise quotients must be regular — that is the point of the weights
    for i in range(m):
        for j in range(m):
            if i != j:
                q = mat_mul(elements[i], mat_inverse(elements[j], n, p), n, p)
                confirm(is_regular(q, n, p), "a pairwise quotient is not regular")
    return {"s": s, "order": d, "lam": list(lam), "weights": weights,
            "elements": elements}
