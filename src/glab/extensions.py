"""Central extensions by Z/p along 2-cocycles, and commutator certificates.

A cocycle table h on a finite group H (values in Z/p) determines the
extension E = Z/p x_h H with multiplication
(a, x)(b, y) = (a + b + h(x, y), xy).  The group engine builds E from a
``CocycleExtSpec`` and keeps H as ``E.parent``, so each check takes E
alone.  This module supplies the validation, the splitting search, the
sumset bound on powers of the section image, the Iwasawa-style covering
certificate, and the four-factor commutator expansion check.
"""

from __future__ import annotations

import math
from itertools import product as iter_product

import numpy as np

from .errors import CapExceeded, InputError, confirm
from .groupcore import (
    DEFAULT_ORDER_CAP,
    CocycleExtSpec,
    FiniteGroup,
    _close,
    _cocycle_model,
    _enumerate,
    _orbit_min,
    _require,
    ball_walk,
    build_group,
    check_order,
    derived_subgroup,
    inverse_mask,
    is_normal_mask,
    is_subgroup_mask,
    is_symmetric_mask,
    mask_from_indices,
    product_mask,
)


def validate_cocycle(base: FiniteGroup, table, p: int) -> np.ndarray:
    """Check the 2-cocycle identity on every triple; return the table mod p.

    The table is |H| lists of |H| integers (JSON integers, so booleans do
    not count), or an integer array of that shape, indexed by the element
    indices of the base group.  h(x,y) + h(xy,z) = h(y,z) + h(x,yz) for
    all x, y, z in the base group.
    """
    if p < 2:
        raise InputError("invalid_parameters", "modulus must be >= 2", p=p)
    m = base.order
    rows = table.tolist() if isinstance(table, np.ndarray) else table
    if not (isinstance(rows, list) and len(rows) == m
            and all(isinstance(row, list) and len(row) == m
                    and all(type(v) is int for v in row) for row in rows)):
        raise InputError("invalid_cocycle",
                         "table must be |H| lists of |H| integers",
                         expected=[m, m])
    h = np.array([[v % p for v in row] for row in rows], dtype=np.int64)
    M = base.rows(np.arange(m))
    lhs = h[:, :, None] + h[M]
    rhs = h[None, :, :] + h[:, M.reshape(-1)].reshape(m, m, m)
    bad = np.nonzero((lhs - rhs) % p)
    if len(bad[0]):
        x, y, z = (int(bad[0][0]), int(bad[1][0]), int(bad[2][0]))
        raise InputError("invalid_cocycle",
                         "cocycle identity fails",
                         triple=[x, y, z],
                         lhs=int(lhs[x, y, z] % p), rhs=int(rhs[x, y, z] % p))
    return h


def build_extension(base: FiniteGroup, p: int, table,
                    cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Validate the table and build E = Z/p x_h H, which keeps the built
    base group H as ``E.parent``; E is enumerated on that group, which is
    not built again.  An order p·|H| above ``cap`` is refused before the
    table is read."""
    check_order((p, base.order), cap)
    h = validate_cocycle(base, table, p)
    spec = CocycleExtSpec(p=p, base=base.spec,
                          values=tuple(int(v) for v in h.reshape(-1)))
    E = _enumerate(spec, _cocycle_model(spec, cap, base), cap)
    confirm(E.order == p * base.order, "extension order is not p·|H|",
            order=E.order, expected=p * base.order)
    return E


def _cocycle_of(E: FiniteGroup) -> tuple[FiniteGroup, np.ndarray]:
    """The base group of an extension E and its cocycle table."""
    if not isinstance(E.spec, CocycleExtSpec):
        raise InputError("group_mismatch", "needs a cocycle extension")
    m = E.parent.order
    return E.parent, np.asarray(E.spec.values, dtype=np.int64).reshape(m, m)


def identity_inverse_check(E: FiniteGroup) -> dict:
    """Confirm the closed identity/inverse formulas against the product law.

    The predicted identity is (-h(e,e), e) and the predicted inverse of
    (a, x) is (-a - h(x, x^-1) - h(e,e), x^-1); both are certified through
    E's multiplication alone (e*g = g and g*g^-1 = e on every element).
    """
    base, h = _cocycle_of(E)
    h11 = int(h[0, 0])
    p = E.spec.p
    ident = ((-h11) % p, base.elements[0])
    confirm(E.elements[0] == ident, "extension identity is not (-h(e,e), e)",
            element=0)
    for g in range(E.order):
        a, xf = E.elements[g]
        xi = base.index[xf]
        xinv = base.inv(xi)
        pred_inv = ((-a - int(h[xi, xinv]) - h11) % p, base.elements[xinv])
        confirm(E.mul_form(ident, E.elements[g]) == E.elements[g]
                and E.mul_form(E.elements[g], pred_inv) == ident,
                "identity/inverse formula violated", element=g)
    from .groupcore import form_to_text
    return {"order": E.order, "identity": form_to_text(E.spec, ident),
            "checked": E.order}


def split_check(E: FiniteGroup) -> dict:
    """Decide whether the extension splits (has a complement to the fiber).

    A complement K meets each fiber once, so the section it defines is a
    homomorphism and K is generated by lifts of the base group's canonical
    generators.  Trying all p^k lift assignments and closing is therefore
    exhaustive: the extension splits iff some closure has base order.
    """
    base, p = _cocycle_of(E)[0], E.spec.p
    gen_forms = [base.elements[g] for g in base.generators]
    tried = 0
    for lift in iter_product(range(p), repeat=len(gen_forms)):
        tried += 1
        idxs = [E.index[(c, gf)] for c, gf in zip(lift, gen_forms)]
        K = E.subgroup_closure(idxs)
        if int(K.sum()) == base.order:
            return {"splits": True,
                    "complement": [int(i) for i in np.nonzero(K)[0]],
                    "assignments_tried": tried}
    return {"splits": False, "complement": None,
            "assignments_tried": tried}


def enumerate_subgroups(G: FiniteGroup, cap: int = 20_000) -> list[np.ndarray]:
    """All subgroups of a small group, by incremental closure: each
    subgroup S keeps right maps x ↦ x·s that generate it, and <S, g> is S
    closed under those and the one map x ↦ x·g.  As <S, g> = <S, g·s> for
    s in S, one g per coset g·S is tried, the least, other than S itself."""
    trivial = mask_from_indices(G, [0])
    seen = {trivial.tobytes(): trivial}
    queue = [(trivial, np.empty((0, G.order), dtype=np.int64))]
    while queue:
        S, maps = queue.pop()
        least = np.flatnonzero(_orbit_min(maps) == np.arange(G.order))
        for g in least[1:].tolist():
            gens = np.vstack([maps, G.right_map(g)])
            T = _close(S, gens)
            key = T.tobytes()
            if key not in seen:
                if len(seen) >= cap:
                    raise CapExceeded("order_cap_exceeded",
                                      "too many subgroups", cap=cap)
                seen[key] = T
                queue.append((T, gens))
    return sorted(seen.values(), key=lambda m: (int(m.sum()), m.tobytes()))


def complement_scan(E: FiniteGroup) -> dict:
    """Independent splitting decision by full subgroup enumeration.

    The fiber over the base identity is the central Z/p; a complement is a
    subgroup of base order meeting it only in the identity.
    """
    base_order = _cocycle_of(E)[0].order
    fiber = np.array([f[1] == E.elements[0][1] for f in E.elements])
    for K in enumerate_subgroups(E):
        if int(K.sum()) == base_order and int((K & fiber).sum()) == 1:
            return {"splits": True,
                    "complement": [int(i) for i in np.nonzero(K)[0]]}
    return {"splits": False, "complement": None}


def _sumset(values: set[int], k: int, p: int) -> set[int]:
    out = {0}
    for _ in range(k):
        out = {(a + b) % p for a in out for b in values}
    return out


def image_bound_check(E: FiniteGroup, n_max: int = 4) -> dict:
    """Such first coordinates as P^n can reach, against the cocycle sumset.

    P is the difference set of the canonical section image {(0, x)}; the
    first coordinates of P^n must land in
    (2n-1)-sumset(im h) + n-sumset(-im h) - n*h(e,e).
    """
    _require(n_max >= 1, "the bound needs n_max >= 1", n_max=n_max)
    base, h = _cocycle_of(E)
    m, p = base.order, E.spec.p
    h11 = int(h[0, 0])
    im_h = {int(v) % p for v in h.reshape(-1)}
    neg_im = {(-v) % p for v in im_h}
    section = mask_from_indices(
        E, [E.index[(0, base.elements[x])] for x in range(m)])
    P = product_mask(E, section, inverse_mask(E, section))
    levels = {}
    # e in P, so P^n is the ball, which stays put once the walk stops
    states = ball_walk(E, P, n_max).states()
    holds = True
    for n in range(1, n_max + 1):
        cur = states[min(n, len(states) - 1)]
        observed = sorted({E.elements[int(g)][0] for g in np.nonzero(cur)[0]})
        bound = {(a + b - n * h11) % p
                 for a in _sumset(im_h, 2 * n - 1, p)
                 for b in _sumset(neg_im, n, p)}
        contained = set(observed) <= bound
        holds = holds and contained
        levels[n] = {"observed": observed, "bound": sorted(bound),
                     "contained": contained}
    return {"n_max": n_max, "holds": holds, "levels": levels}


def derived_length_of_subgroup(G: FiniteGroup, B: np.ndarray,
                               cap: int = 30) -> int:
    """Derived length of the subgroup B; raises if B is not solvable."""
    if not is_subgroup_mask(G, B):
        raise InputError("premise_violation", "B is not a subgroup")
    cur = B
    length = 0
    while int(cur.sum()) > 1:
        nxt = derived_subgroup(G, cur)
        if (nxt == cur).all() or length >= cap:
            raise InputError("premise_violation",
                             "B is not solvable", derived_stabilized=True)
        cur = nxt
        length += 1
    return length


def iwasawa_certificate(G: FiniteGroup, A: np.ndarray, B: np.ndarray) -> dict:
    """Covering certificate: A^k = G within the solvable-factor bound.

    Premises: G perfect with finite commutator width N; A a normal
    symmetric subset containing the identity; B a solvable subgroup of
    derived length M with AB = G.  The certified bound is k <= (4N)^M.
    """
    if not G.is_perfect():
        raise InputError("premise_violation", "G must be perfect")
    if not A[0]:
        raise InputError("premise_violation", "A must contain the identity")
    if not is_symmetric_mask(G, A):
        raise InputError("premise_violation", "A must be symmetric")
    if not is_normal_mask(G, A):
        raise InputError("premise_violation", "A must be normal")
    M = derived_length_of_subgroup(G, B)
    from .groupcore import commutator_width
    N = commutator_width(G)
    if not product_mask(G, A, B).all():
        raise InputError("premise_violation", "AB must cover G")
    bound = (4 * N) ** M
    full = ball_walk(G, A, math.inf).full  # e in A: A^k is the ball
    k_min = None if full is None else max(full, 1)
    holds = k_min is not None and k_min <= bound
    return {"N": N, "M": M, "bound": bound, "k_min": k_min, "holds": holds}


def commutator_expansion_check(G: FiniteGroup, count: int = 10_000,
                               seed: int = 0,
                               quadruples=None) -> dict:
    """The four-factor expansion of [a1 b1, a2 b2], on random quadruples.

    [a1 b1, a2 b2] =
        (a1^-1)^{b1} * (a2^-1 a1)^{b2 b1} * a2^{b2^{b1}} * [b1, b2]
    with x^y = y^-1 x y and [a, b] = a^-1 b^-1 a b.
    """
    _require(min(seed, count) >= 0, "seed and count must be >= 0",
             seed=seed, count=count)
    rng = np.random.default_rng(seed)
    if quadruples is None:
        quadruples = rng.integers(0, G.order, size=(count, 4))
    checked = 0
    for a1, b1, a2, b2 in quadruples:
        a1, b1, a2, b2 = int(a1), int(b1), int(a2), int(b2)
        lhs = G.comm(G.mul(a1, b1), G.mul(a2, b2))
        f1 = G.conj(G.inv(a1), b1)
        f2 = G.conj(G.mul(G.inv(a2), a1), G.mul(b2, b1))
        f3 = G.conj(a2, G.conj(b2, b1))
        f4 = G.comm(b1, b2)
        rhs = G.mul(G.mul(G.mul(f1, f2), f3), f4)
        confirm(lhs == rhs, "commutator expansion violated",
                quadruple=[a1, b1, a2, b2])
        checked += 1
    return {"checked": checked, "violations": 0}


# --------------------------------------------------------------------------
# ready-made cocycles and subsets


def coboundary_cocycle(base: FiniteGroup, p: int, seed: int = 0) -> np.ndarray:
    """The coboundary of a random function u: h(x,y) = u(x)+u(y)-u(xy)."""
    _require(p >= 2, "modulus must be >= 2", p=p)
    _require(seed >= 0, "seed must be >= 0", seed=seed)
    rng = np.random.default_rng(seed)
    u = rng.integers(0, p, size=base.order)
    M = base.rows(np.arange(base.order))
    return (u[:, None] + u[None, :] - u[M]) % p


def carry_cocycle() -> tuple[FiniteGroup, int, np.ndarray]:
    """The carry bit of binary addition: extends Z/2 by Z/2 into Z/4."""
    from .groupcore import CycSpec
    table = np.array([[0, 0], [0, 1]], dtype=np.int64)
    return build_group(CycSpec(2)), 2, table


def upper_triangular_mask(G: FiniteGroup) -> np.ndarray:
    """Elements of a matrix group whose (row-major flat) matrix is upper
    triangular."""
    n = math.isqrt(len(G.elements[0]))
    if n * n != len(G.elements[0]) or not isinstance(G.elements[0][0], int):
        raise InputError("group_mismatch", "not a flat matrix group")
    out = np.zeros(G.order, dtype=bool)
    for g, form in enumerate(G.elements):
        if all(form[i * n + j] == 0 for i in range(n) for j in range(i)):
            out[g] = True
    return out


def symmetric_class_with_identity(G: FiniteGroup, g: int) -> np.ndarray:
    """class(g) united with its inverses and the identity — normal symmetric."""
    C = G.class_mask(g)
    A = C | inverse_mask(G, C)
    A[0] = True
    return A
