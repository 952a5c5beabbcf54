"""Cycle-surgery identities and factorization searches in Sym(n)/Alt(n).

Composition is (sigma ∘ tau)(x) = sigma(tau(x)) — the right factor acts
first — matching the group engine's convention for its permutation
families.  Public entry points take 1-based points, the usual way cycles
are written; internally everything is a 0-based image tuple.

The two surgery identities:

* quotient:  (x,a_1..a_m)^-1 ∘ (x,b_1..b_m)  =  (x,b_1..b_m,a_m..a_1)
* merge:     (x,y,a_1..a_{2p+1}) ∘ (x,y,b_1..b_{2q+1})
                                  =  (x,a_1..a_{2p+1}) ∘ (y,b_1..b_{2q+1})

Both are verified instance-by-instance; the scan_* harnesses drive the
large exhaustive sweeps with numpy.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, PropertyFailure
from .groupcore import (
    AltSpec,
    FiniteGroup,
    SymSpec,
    _cycles_of,
    is_normal_mask,
    is_symmetric_mask,
    perm_compose,
    perm_inverse,
    perm_to_text,
    power_walk,
)
from .thickset import thickness


def cycle_perm(n: int, points: tuple[int, ...]) -> tuple[int, ...]:
    """The cycle (points) as an image tuple; points are 1-based."""
    pts = [p - 1 for p in points]
    if any(p < 0 or p >= n for p in pts):
        raise InputError("invalid_parameters", f"points must lie in 1..{n}")
    if len(set(pts)) != len(pts):
        raise InputError("overlap_violation", "cycle points must be distinct")
    img = list(range(n))
    for i, p in enumerate(pts):
        img[p] = pts[(i + 1) % len(pts)]
    return tuple(img)


def _distinct(*groups: tuple[int, ...]):
    flat = [p for g in groups for p in g]
    if len(set(flat)) != len(flat):
        raise InputError("overlap_violation",
                         "the point lists must be pairwise disjoint")


def cycle_quotient(n: int, x: int, a: tuple[int, ...], b: tuple[int, ...]) -> dict:
    """(x,a)^-1 ∘ (x,b) collapses to the single cycle (x, b, reversed(a)).

    Lists must have equal length and share no points (nor contain x).
    Returns image tuples for both sides; they are checked equal.
    """
    if len(a) != len(b):
        raise InputError("length_mismatch", "lists must have equal length",
                         len_a=len(a), len_b=len(b))
    _distinct((x,), a, b)
    lhs = perm_compose(perm_inverse(cycle_perm(n, (x,) + tuple(a))),
                       cycle_perm(n, (x,) + tuple(b)))
    rhs = cycle_perm(n, (x,) + tuple(b) + tuple(reversed(a)))
    if lhs != rhs:
        raise PropertyFailure("search_exhausted", "quotient identity violated",
                              x=x, a=a, b=b)
    return {"result": rhs, "text": perm_to_text(rhs)}


def merge_split(n: int, x: int, y: int, a: tuple[int, ...],
                b: tuple[int, ...]) -> dict:
    """(x,y,a) ∘ (x,y,b) = (x,a) ∘ (y,b) for odd-length lists a and b."""
    if len(a) % 2 == 0 or len(b) % 2 == 0:
        raise InputError("even_length", "the merge identity needs odd lists",
                         len_a=len(a), len_b=len(b))
    _distinct((x,), (y,), a, b)
    lhs = perm_compose(cycle_perm(n, (x, y) + tuple(a)),
                       cycle_perm(n, (x, y) + tuple(b)))
    rhs = perm_compose(cycle_perm(n, (x,) + tuple(a)),
                       cycle_perm(n, (y,) + tuple(b)))
    if lhs != rhs:
        raise PropertyFailure("search_exhausted", "merge identity violated",
                              x=x, y=y, a=a, b=b)
    return {"result": lhs, "text": perm_to_text(lhs)}


# --------------------------------------------------------------------------
# vectorized cycle builders for the exhaustive scans


def _perm_rows_for_cycle(n: int, prefix: tuple[int, ...],
                         tails: np.ndarray, close_to: int | None = None
                         ) -> np.ndarray:
    """Image rows for the cycles (prefix, tail) over a batch of tails.

    ``tails`` has shape (K, m); points are 0-based here.  The cycle is
    prefix followed by the tail row, closing back to prefix[0] (or to
    ``close_to`` when given).
    """
    K, m = tails.shape
    rows = np.tile(np.arange(n, dtype=np.int64), (K, 1))
    chain = list(prefix)
    ar = np.arange(K)
    for t in range(m + len(prefix)):
        cur = (np.full(K, chain[t], dtype=np.int64) if t < len(prefix)
               else tails[:, t - len(prefix)])
        nxt_t = t + 1
        if nxt_t < len(prefix):
            nxt = np.full(K, chain[nxt_t], dtype=np.int64)
        elif nxt_t < len(prefix) + m:
            nxt = tails[:, nxt_t - len(prefix)]
        else:
            nxt = np.full(K, close_to if close_to is not None else chain[0],
                          dtype=np.int64)
        rows[ar, cur] = nxt
    return rows


def _permutations_array(pool: list[int], m: int) -> np.ndarray:
    from itertools import permutations
    if m == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.array(list(permutations(pool, m)), dtype=np.int64)


def scan_cycle_quotient(n: int = 12, m_max: int = 3) -> dict:
    """Exhaust the quotient identity over all placements in Sym(n).

    For each list length m <= m_max, every choice of x, a and b with
    distinct points is instantiated; the two sides are compared as image
    arrays (b-axis vectorized).  Returns per-length instance counts.
    """
    from itertools import permutations
    if not 0 <= 2 * m_max + 1 <= n:
        raise InputError("invalid_parameters",
                         "the quotient identity with lists of length m_max "
                         "needs m_max >= 0 and 2 m_max + 1 <= n points",
                         n=n, m_max=m_max)
    counts = {}
    for m in range(m_max + 1):
        total = 0
        for head in permutations(range(n), m + 1):
            x, a = head[0], head[1:]
            pool = [p for p in range(n) if p not in head]
            tails = _permutations_array(pool, m)
            # lhs = (x,a)^-1 ∘ (x,b): gather through the fixed inverse
            inv1 = np.array(perm_inverse(
                tuple(np.arange(n)) if m == 0 else
                tuple(_perm_rows_for_cycle(n, (x,) + a,
                                           np.zeros((1, 0), dtype=np.int64))[0])),
                dtype=np.int64)
            s2 = _perm_rows_for_cycle(n, (x,), tails)
            lhs = inv1[s2]
            rhs = _perm_rows_for_cycle(n, (x,), np.hstack(
                [tails, np.tile(np.array(a[::-1], dtype=np.int64), (len(tails), 1))]
            ) if m else np.zeros((len(tails), 0), dtype=np.int64))
            if not (lhs == rhs).all():
                bad = int(np.nonzero((lhs != rhs).any(axis=1))[0][0])
                raise PropertyFailure("search_exhausted",
                                      "quotient identity violated",
                                      x=x + 1, a=tuple(q + 1 for q in a),
                                      b=tuple(int(q) + 1 for q in tails[bad]))
            total += len(tails)
        counts[m] = total
    return {"n": n, "counts": counts, "total": sum(counts.values())}


def scan_merge(n: int = 12, half_max: int = 3, full_cap_points: int = 8,
               seed: int = 0, random_samples: int = 2000,
               shapes: list[tuple[int, int]] | None = None) -> dict:
    """Exhaust the merge identity over shapes (2p+1, 2q+1), p,q <= half_max.

    Shapes fitting in ``full_cap_points`` points are exhausted over *all*
    placements.  Larger shapes are exhausted over the x=1, y=2 slice —
    complete by conjugation-equivariance, which is itself machine-checked
    here on seeded random placements and relabelings — plus seeded random
    general placements as an independent spot check.  The outer loop runs
    over the shorter of the two lists so the longer one is vectorized.
    """
    from itertools import permutations
    rng = np.random.default_rng(seed)
    if shapes is None:
        shapes = [(2 * p + 1, 2 * q + 1)
                  for p in range(half_max + 1) for q in range(half_max + 1)
                  if 2 + (2 * p + 1) + (2 * q + 1) <= n]
    if not shapes or any(2 + la + lb > n for la, lb in shapes):
        raise InputError("invalid_parameters",
                         "the merge identity needs shapes (la, lb) with "
                         "2 + la + lb <= n points", n=n, shapes=shapes)
    report = {"n": n, "shapes": {}, "equivariance_checks": 0,
              "random_checks": 0}

    def _fixed_row(prefix: tuple[int, ...]) -> np.ndarray:
        return _perm_rows_for_cycle(n, prefix,
                                    np.zeros((1, 0), dtype=np.int64))[0]

    def batch_over_b(x: int, y: int, a: tuple[int, ...], tails: np.ndarray):
        """All-b batch for fixed x, y, a (0-based); raises on violation."""
        s1 = _fixed_row((x, y) + a)
        r1 = _fixed_row((x,) + a)
        lhs = s1[_perm_rows_for_cycle(n, (x, y), tails)]
        rhs = r1[_perm_rows_for_cycle(n, (y,), tails)]
        if not (lhs == rhs).all():
            bad = int(np.nonzero((lhs != rhs).any(axis=1))[0][0])
            raise PropertyFailure("search_exhausted", "merge identity violated",
                                  x=x + 1, y=y + 1,
                                  a=tuple(q + 1 for q in a),
                                  b=tuple(int(q) + 1 for q in tails[bad]))
        return len(tails)

    def batch_over_a(x: int, y: int, b: tuple[int, ...], tails: np.ndarray):
        """All-a batch for fixed x, y, b; composition gathers along columns."""
        s2 = _fixed_row((x, y) + b)
        r2 = _fixed_row((y,) + b)
        lhs = _perm_rows_for_cycle(n, (x, y), tails)[:, s2]
        rhs = _perm_rows_for_cycle(n, (x,), tails)[:, r2]
        if not (lhs == rhs).all():
            bad = int(np.nonzero((lhs != rhs).any(axis=1))[0][0])
            raise PropertyFailure("search_exhausted", "merge identity violated",
                                  x=x + 1, y=y + 1,
                                  a=tuple(int(q) + 1 for q in tails[bad]),
                                  b=tuple(q + 1 for q in b))
        return len(tails)

    for la, lb in shapes:
        pts = 2 + la + lb
        mode = "full" if pts <= full_cap_points else "slice"
        outer_len, inner_len = (la, lb) if la <= lb else (lb, la)
        over_b = la <= lb
        total = 0
        if mode == "full":
            for head in permutations(range(n), 2 + outer_len):
                x, y, fixed = head[0], head[1], head[2:]
                pool = [p for p in range(n) if p not in head]
                tails = _permutations_array(pool, inner_len)
                total += (batch_over_b(x, y, fixed, tails) if over_b
                          else batch_over_a(x, y, fixed, tails))
        else:
            x, y = 0, 1
            for fixed in permutations(range(2, n), outer_len):
                pool = [p for p in range(2, n) if p not in fixed]
                tails = _permutations_array(pool, inner_len)
                total += (batch_over_b(x, y, fixed, tails) if over_b
                          else batch_over_a(x, y, fixed, tails))
        report["shapes"][f"{la},{lb}"] = {"mode": mode, "instances": total}

    # conjugation-equivariance: relabeling by any sigma transports an
    # instance at (x,y,a,b) to the instance at the image points
    for _ in range(200):
        la, lb = shapes[rng.integers(len(shapes))]
        pts = [int(v) for v in rng.permutation(n)[:2 + la + lb]]
        x, y, a, b = pts[0], pts[1], tuple(pts[2:2 + la]), tuple(pts[2 + la:])
        sigma = tuple(int(v) for v in rng.permutation(n))
        inv = perm_inverse(sigma)
        for cyc_pts in [(x, y) + a, (x, y) + b, (x,) + a, (y,) + b]:
            c = cycle_perm(n, tuple(q + 1 for q in cyc_pts))
            relabeled = cycle_perm(n, tuple(sigma[q] + 1 for q in cyc_pts))
            assert perm_compose(sigma, perm_compose(c, inv)) == relabeled
        report["equivariance_checks"] += 1

    for _ in range(random_samples):
        la, lb = shapes[rng.integers(len(shapes))]
        pts = [int(v) for v in rng.permutation(n)[:2 + la + lb]]
        merge_split(n, pts[0] + 1, pts[1] + 1,
                    tuple(q + 1 for q in pts[2:2 + la]),
                    tuple(q + 1 for q in pts[2 + la:]))
        report["random_checks"] += 1
    return report


# --------------------------------------------------------------------------
# expressing even permutations over a normal thick set


def express_even(G: FiniteGroup, P: np.ndarray, sigma: int,
                 allow_fallback: bool = True) -> dict:
    """Write sigma = q1 * q2 with q1, q2 in the normal thick set P.

    Constructive route: split sigma into disjoint cycles, pair up the
    even-length ones and apply the merge identity backwards, so q1 is the
    odd-length cycles of sigma times the first merge halves and q2 the
    second halves — both products of odd-length cycles sharing points only
    inside a pair.  Membership of q1, q2 in P is always machine-checked;
    the support budget (n >= thickness * (L - 1) + 1 per produced cycle
    length L, plus two free points so classes do not split) is the
    sufficient condition under which membership is *guaranteed*, and is
    reported as a flag.  When the constructive factors fall outside P, an
    exhaustive scan over q1 in P finds a factorization or proves there is
    none.
    """
    if not isinstance(G.spec, (SymSpec, AltSpec)):
        raise InputError("group_mismatch",
                         "express_even needs a group Sym(n) or Alt(n)")
    if not P[0]:
        raise InputError("not_thick",
                         "P misses the identity, so it is not thick")
    if not is_symmetric_mask(G, P):
        raise InputError("not_symmetric", "P must be symmetric")
    if not is_normal_mask(G, P):
        raise InputError("not_normal", "P must be a union of classes")
    n = len(G.elements[0])
    form = G.elements[sigma]
    cycles = [tuple(x + 1 for x in c) for c in _cycles_of(form) if len(c) >= 2]
    evens = [c for c in cycles if len(c) % 2 == 0]
    odds = [c for c in cycles if len(c) % 2 == 1]
    if len(evens) % 2:
        raise InputError("invalid_parameters",
                         "sigma must be an even permutation", sigma=sigma)

    thick = thickness(G, P)["value"]
    produced_lengths = [len(c) for c in odds] + [len(c) + 1 for c in evens]
    supp1 = sum(len(c) for c in odds) + sum(len(evens[k]) + 1
                                            for k in range(0, len(evens), 2))
    supp2 = sum(len(evens[k]) + 1 for k in range(1, len(evens), 2))
    budget_ok = all(n >= thick * (L - 1) + 1 for L in produced_lengths) \
        and supp1 + 2 <= n and supp2 + 2 <= n

    q1_form = tuple(range(n))
    q2_form = tuple(range(n))
    pairs = []
    for c in odds:
        q1_form = perm_compose(q1_form, cycle_perm(n, c))
    for k in range(0, len(evens), 2):
        (x, *a), (y, *b) = evens[k], evens[k + 1]
        q1_form = perm_compose(q1_form, cycle_perm(n, (x, y, *a)))
        q2_form = perm_compose(q2_form, cycle_perm(n, (x, y, *b)))
        pairs.append({"x": x, "y": y, "a": a, "b": b})
    q1, q2 = G.index[q1_form], G.index[q2_form]
    assert G.mul(q1, q2) == sigma
    if P[q1] and P[q2]:
        return {"mode": "constructive", "q1": q1, "q2": q2, "pairs": pairs,
                "budget_guaranteed": budget_ok}

    if not allow_fallback:
        raise InputError("omega_too_small_and_no_fallback",
                         "constructive factors fall outside P and fallback "
                         "is disabled", n=n, thickness=thick)
    for q1 in np.nonzero(P)[0]:
        q2 = G.mul(G.inv(int(q1)), sigma)
        if P[q2]:
            assert G.mul(int(q1), q2) == sigma
            return {"mode": "fallback", "q1": int(q1), "q2": int(q2),
                    "pairs": None, "budget_guaranteed": False}
    raise PropertyFailure("search_exhausted",
                          "sigma is not a product of two elements of P",
                          sigma=sigma)


def class_word_distance(G: FiniteGroup, sigma: int, tau: int,
                        cap: int | None = None) -> dict:
    """Least k with tau a product of k conjugates of sigma (k = 0 for e).

    Walks the class powers C, C^2, ...; None when tau is unreachable
    (e.g. across a parity obstruction) or not reached within ``cap``.
    """
    if sigma == 0:
        raise InputError("identity_sigma",
                         "the class of the identity reaches nothing")
    if tau == 0:
        return {"k": 0}
    if cap is None:
        cap = G.order
    C = G.class_mask(sigma)
    for k, cur in enumerate(power_walk(G, C, C), start=1):
        if k > cap:
            break
        if cur[tau]:
            return {"k": k}
    return {"k": None}
