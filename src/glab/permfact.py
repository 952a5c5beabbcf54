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
large exhaustive sweeps with numpy, on the images of the instances' points.
"""

from __future__ import annotations

import math
from itertools import chain, permutations

import numpy as np

from .errors import InputError, PropertyFailure, confirm
from .groupcore import (
    AltSpec,
    FiniteGroup,
    SymSpec,
    _cycles_of,
    _require,
    check_order,
    is_normal_mask,
    is_symmetric_mask,
    perm_compose,
)
from .thickset import _quotient_clique


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


# --------------------------------------------------------------------------
# the chunked instance kernel of the exhaustive scans

CHUNK = 1 << 13
"""Instances per chunk, so that the arrays of a chunk stay in the cache."""

SWEEP_CAP = 5 * 10 ** 7
"""Most instances one sweep may check: 0.5 s at 10^8 a second on 2 cores."""


def _check_sweeps(n: int, sweeps) -> None:
    """Refuse, before any runs, a sweep (fixed, length) over more than
    SWEEP_CAP instances, the injective ``length``-tuples of n - fixed points."""
    for fixed, length in sweeps:
        check_order(range(n - fixed, n - fixed - length, -1), SWEEP_CAP,
                    "sweep instances")


def _instance_chunks(n: int, fixed: tuple[int, ...], length: int):
    """Yield the tuples fixed + t, t injective over the other points of
    range(n), in lexicographic order of t and in chunks of at most CHUNK.

    A chunk holds one tuple per column, in the least unsigned type that
    holds n.  A tuple is a head (fixed and its next points) and a tail; the
    head is the shortest for which the tails of one head fit in a chunk.
    Heads are read from itertools in blocks of whole chunks whose pools
    hold at most 8 CHUNK points (an empty tail, past CHUNK points, needs
    none); each head's pool, the sorted points it leaves free, comes from
    one boolean mask per block, and the tails are that pool gathered at
    the injective tuples over its positions, listed once.  A chunk is one
    array: its head rows, then one gather.
    """
    free = n - len(fixed)
    head = 0
    while math.perm(free - head, length - head) > CHUNK:
        head += 1
    width, tail = len(fixed) + head, length - head
    tails = math.perm(n - width, tail)
    per = max(1, CHUNK // tails)
    idx = _injective(n - width, tail)
    block = per * max(1, 8 * CHUNK // ((n - width) * per))
    dtype = np.min_scalar_type(n)
    heads = chain.from_iterable(fixed + h for h in permutations(
        [p for p in range(n) if p not in fixed], head))
    left = math.perm(free, head)
    while left:
        k, left = min(block, left), left - min(block, left)
        H = np.fromiter(heads, dtype, count=k * width).reshape(k, width)
        if tail:
            unused = np.ones((k, n), dtype=bool)
            unused[np.arange(k)[:, None], H] = False
            pools = np.broadcast_to(np.arange(n, dtype=dtype), (k, n))[
                unused].reshape(k, n - width)
        for lo in range(0, k, per):
            h = H[lo:lo + per]
            out = np.empty((width + tail, len(h) * tails), dtype)
            rows = out.reshape(width + tail, len(h), tails)
            rows[:width] = h.T[:, :, None]
            if tail:
                pools[lo:lo + per].take(idx, axis=1,
                                        out=rows[width:].transpose(1, 0, 2))
            yield out


def _injective(m: int, t: int) -> np.ndarray:
    """The injective t-tuples over range(m) in lexicographic order, one per
    column: those that start at f are f over the (t - 1)-tuples of
    range(m - 1), each point p >= f moved up by one."""
    tuples = np.zeros((0, 1), dtype=np.intp)
    for k in range(m - t + 1, m + 1):
        starts = np.arange(k)
        rest = tuples[:, None] + (tuples[:, None] >= starts[:, None])
        tuples = np.vstack([starts.repeat(tuples.shape[1])[None],
                            rest.reshape(len(tuples), k * tuples.shape[1])])
    return tuples


def _images(points: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Images of the instances' own points under a product of cycles that
    takes point j of each instance to its point ``order[j]``, for
    ``points[j, k]`` point j of instance k: one row gather."""
    return points.take(order, axis=0)


def _row_order(length: int, cycles) -> np.ndarray:
    """The row order of a product of cycles of tuple positions, c taking
    the point at c[i] to the one at c[i + 1]; the cycles compose left to
    right on the right of the images R, (R ∘ c)(p) = R(c(p))."""
    order = np.arange(length)
    for c in cycles:
        order[c] = order[np.roll(c, -1)]
    return order


def _sweep(n: int, fixed: tuple[int, ...], length: int, lhs, rhs,
           name: str, fields: dict) -> int:
    """Check lhs = rhs, two products of cycles, on every instance tuple.

    Instances come from _instance_chunks, and a cycle is a list of tuple
    positions, so both sides fix every point off the tuple: they are equal
    as permutations of range(n) iff the images of the tuple's own points
    are, a byte each for n < 256.  Each side is one row order, composed
    once, and one gather per chunk.  Returns the number of instances.  The
    first instance in that order whose images differ raises PropertyFailure,
    with its points (1-based) named by ``fields``: name -> tuple positions,
    or one position.
    """
    lhs, rhs = (_row_order(len(fixed) + length, side) for side in (lhs, rhs))
    total = 0
    for points in _instance_chunks(n, fixed, length):
        left, right = _images(points, lhs), _images(points, rhs)
        if not np.array_equal(left, right):
            bad = points[:, (left != right).any(axis=0).argmax()] + 1
            raise PropertyFailure(
                "search_exhausted", f"{name} identity violated",
                **{k: int(bad[c]) if isinstance(c, int)
                   else tuple(int(q) for q in bad[c])
                   for k, c in fields.items()})
        total += points.shape[1]
    return total


def scan_cycle_quotient(n: int = 12, m_max: int = 3) -> dict:
    """Exhaust the quotient identity over all placements in Sym(n).

    For each list length m <= m_max, the instances are the injective
    tuples (x, a, b) of 2m + 1 points in lexicographic order.  Chunks of
    them are checked at once on the images of their own points under
    (x,a)^-1 ∘ (x,b) (the inverse being the cycle run backwards) and
    (x, b, reversed a); a violation reports the first bad instance in that
    order.  Returns
    per-length instance counts.
    """
    if not 0 <= 2 * m_max + 1 <= n:
        raise InputError("invalid_parameters",
                         "the quotient identity with lists of length m_max "
                         "needs m_max >= 0 and 2 m_max + 1 <= n points",
                         n=n, m_max=m_max)
    _check_sweeps(n, [(0, 2 * m + 1) for m in range(m_max + 1)])
    counts = {}
    for m in range(m_max + 1):
        a, b = list(range(1, m + 1)), list(range(m + 1, 2 * m + 1))
        counts[m] = _sweep(n, (), 2 * m + 1, [a[::-1] + [0], [0] + b],
                           [[0] + b + a[::-1]], "quotient",
                           {"x": 0, "a": a, "b": b})
    return {"n": n, "counts": counts, "total": sum(counts.values())}


def scan_merge(n: int = 12, half_max: int = 3, full_cap_points: int = 8,
               seed: int = 0, random_samples: int = 2000,
               shapes: list[tuple[int, int]] | None = None) -> dict:
    """Exhaust the merge identity over shapes (2p+1, 2q+1), p,q <= half_max.

    Shapes fitting in ``full_cap_points`` points are exhausted over *all*
    placements.  Larger shapes are exhausted over the x=1, y=2 slice —
    complete by conjugation-equivariance, which is itself machine-checked
    here on seeded random placements and relabelings — plus seeded random
    general placements as an independent spot check.  The instances of a
    shape are the injective tuples (x, y, shorter list, longer list) in
    lexicographic order.  Chunks of them are checked at once on the images
    of their own points under (x,y,a) ∘ (x,y,b) and (x,a) ∘ (y,b); a
    violation reports the first bad instance in that order.  The spot
    checks draw their shapes in one rng call and their placements and
    relabelings in another, and check the draws of a shape at once on
    n-wide image rows; a violation reports the first bad draw.
    """
    _require(min(seed, random_samples, full_cap_points) >= 0,
             "seed, sample count and full cap must be >= 0", seed=seed,
             random_samples=random_samples, full_cap_points=full_cap_points)
    rng = np.random.default_rng(seed)
    if shapes is None:
        shapes = [(2 * p + 1, 2 * q + 1)
                  for p in range(half_max + 1) for q in range(half_max + 1)
                  if 2 + (2 * p + 1) + (2 * q + 1) <= n]
    if not shapes or any(2 + la + lb > n for la, lb in shapes):
        raise InputError("invalid_parameters",
                         "the merge identity needs shapes (la, lb) with "
                         "2 + la + lb <= n points", n=n, shapes=shapes)
    if any(min(la, lb) < 1 or la % 2 == 0 or lb % 2 == 0
           for la, lb in shapes):
        raise InputError("even_length", "the merge identity needs odd lists",
                         shapes=shapes)
    # a full sweep places all 2 + la + lb points, a slice all but x and y
    _check_sweeps(n, [(0, 2 + la + lb) if 2 + la + lb <= full_cap_points
                      else (2, la + lb) for la, lb in shapes])
    report = {"n": n, "shapes": {}}

    for la, lb in shapes:
        pts = 2 + la + lb
        mode = "full" if pts <= full_cap_points else "slice"
        shorter = list(range(2, 2 + min(la, lb)))
        longer = list(range(2 + min(la, lb), pts))
        a, b = (shorter, longer) if la <= lb else (longer, shorter)
        fixed = () if mode == "full" else (0, 1)
        total = _sweep(n, fixed, pts - len(fixed), [[0, 1] + a, [0, 1] + b],
                       [[0] + a, [1] + b], "merge",
                       {"x": 0, "y": 1, "a": a, "b": b})
        report["shapes"][f"{la},{lb}"] = {"mode": mode, "instances": total}

    # conjugation-equivariance: relabeling by any sigma transports an
    # instance at (x,y,a,b) to the instance at the image points
    report["equivariance_checks"] = _spot_check(
        n, shapes, *_draws(rng, n, len(shapes), 200, 2), _relabel_sides,
        "conjugation equivariance")
    report["random_checks"] = _spot_check(
        n, shapes, *_draws(rng, n, len(shapes), random_samples, 1),
        _merge_sides, "merge identity")
    return report


def _draws(rng, n: int, kinds: int, k: int, per: int):
    """k draws of a shape index below ``kinds`` and ``per`` permutations of
    range(n): one rng call for the indices, one for the permutations."""
    which = rng.integers(kinds, size=k)
    perms = rng.permuted(np.tile(np.arange(n), (k * per, 1)), axis=1)
    return which, perms.reshape(k, per, n)


# --------------------------------------------------------------------------
# the batched spot checks: permutations of range(n) as rows of (K, n) images


def _cycles(n: int, points: np.ndarray) -> np.ndarray:
    """The cycle (points[k]) as row k of images, for 0-based rows of
    distinct points."""
    images = np.tile(np.arange(n), (len(points), 1))
    np.put_along_axis(images, points, np.roll(points, -1, axis=1), axis=1)
    return images


def _compose(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """f ∘ g row by row: (f ∘ g)(x) = f(g(x))."""
    return np.take_along_axis(f, g, axis=1)


def _inverse(f: np.ndarray) -> np.ndarray:
    inv = np.empty_like(f)
    np.put_along_axis(inv, f, np.broadcast_to(np.arange(f.shape[1]), f.shape),
                      axis=1)
    return inv


def _merge_cycles(la: int, points: np.ndarray) -> list[np.ndarray]:
    """The point rows of (x,y,a), (x,y,b), (x,a) and (y,b), for the rows
    (x, y, a, b) of ``points`` with la points in a."""
    x, y, a, b = np.hsplit(points, [1, 2, 2 + la])
    return [np.hstack(c) for c in ((x, y, a), (x, y, b), (x, a), (y, b))]


def _merge_sides(n: int, la: int, points: np.ndarray):
    """(x,y,a) ∘ (x,y,b) and (x,a) ∘ (y,b) for each row (x, y, a, b)."""
    xya, xyb, xa, yb = (_cycles(n, c) for c in _merge_cycles(la, points))
    return _compose(xya, xyb), _compose(xa, yb)


def _relabel_sides(n: int, la: int, points: np.ndarray, sigma: np.ndarray):
    """sigma ∘ c ∘ sigma^-1 and the cycle through the sigma-images of c's
    points, for each cycle c of the merge identity at the rows (x, y, a, b),
    the four of a row side by side."""
    inv = _inverse(sigma)
    cycles = _merge_cycles(la, points)
    return (np.hstack([_compose(sigma, _compose(_cycles(n, c), inv))
                       for c in cycles]),
            np.hstack([_cycles(n, _compose(sigma, c)) for c in cycles]))


def _spot_check(n: int, shapes: list[tuple[int, int]], which: np.ndarray,
                perms: np.ndarray, sides, name: str) -> int:
    """Check sides(n, la, points, *rest) = two equal image arrays on every
    draw k, of shape index which[k] and permutations perms[k] = (first,
    *rest): the points (x, y, a, b) are first's first 2 + la + lb, and the
    draws of one shape go at once.  Returns the number of draws; the first
    bad one in draw order raises PropertyFailure naming its points
    (1-based), and sigma if it has one.
    """
    bad = np.zeros(len(which), dtype=bool)
    for s in np.unique(which).tolist():
        k = np.flatnonzero(which == s)
        la, lb = shapes[s]
        left, right = sides(n, la, perms[k, 0, :2 + la + lb],
                            *perms[k, 1:].swapaxes(0, 1))
        bad[k] = (left != right).any(axis=1)
    if bad.any():
        k = int(bad.argmax())
        la, lb = shapes[which[k]]
        p = (perms[k] + 1).tolist()
        details = {"x": p[0][0], "y": p[0][1], "a": tuple(p[0][2:2 + la]),
                   "b": tuple(p[0][2 + la:2 + la + lb])}
        if len(p) > 1:
            details["sigma"] = tuple(p[1])
        raise PropertyFailure("search_exhausted", f"{name} violated",
                              **details)
    return len(which)


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
    reported as a flag; the flag needs only an upper bound on the
    thickness, so its clique search stops at that bound, at every group
    order: a true flag is proved.  When the constructive factors fall
    outside P, an exhaustive scan over q1 in P finds a factorization or
    proves there is none.
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

    produced_lengths = [len(c) for c in odds] + [len(c) + 1 for c in evens]
    supp1 = sum(len(c) for c in odds) + sum(len(evens[k]) + 1
                                            for k in range(0, len(evens), 2))
    supp2 = sum(len(evens[k]) + 1 for k in range(1, len(evens), 2))
    supports_ok = supp1 + 2 <= n and supp2 + 2 <= n
    # n >= thickness * (L - 1) + 1 for every L iff thickness <= T, that is
    # iff no P-free clique has size T: the search stops at that size
    T = min(((n - 1) // (L - 1) for L in produced_lengths), default=None)
    budget_ok = supports_ok and (
        T is None or len(_quotient_clique(G, ~P, cap=T)) < T)

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
    q1, q2 = _checked_factors(G, G.index[q1_form], G.index[q2_form], sigma)
    if P[q1] and P[q2]:
        return {"mode": "constructive", "q1": q1, "q2": q2, "pairs": pairs,
                "budget_guaranteed": budget_ok}

    if not allow_fallback:
        raise InputError("omega_too_small_and_no_fallback",
                         "constructive factors fall outside P and fallback "
                         "is disabled", n=n)
    inv = G.inverses()
    q1s = np.nonzero(P)[0]
    q2s = inv[G.row(int(inv[sigma]))[q1s]]  # q1^-1 sigma = (sigma^-1 q1)^-1
    if P[q2s].any():
        q1, q2 = _checked_factors(G, int(q1s[P[q2s]][0]),
                                  int(q2s[P[q2s]][0]), sigma)
        return {"mode": "fallback", "q1": q1, "q2": q2,
                "pairs": None, "budget_guaranteed": False}
    raise PropertyFailure("search_exhausted",
                          "sigma is not a product of two elements of P",
                          sigma=sigma)


def _checked_factors(G: FiniteGroup, q1: int, q2: int,
                     sigma: int) -> tuple[int, int]:
    """(q1, q2), once q1 * q2 = sigma is checked."""
    confirm(G.mul(q1, q2) == sigma, "the factors do not multiply to sigma",
            q1=q1, q2=q2, sigma=sigma)
    return q1, q2


def class_word_distance(G: FiniteGroup, sigma: int, tau: int,
                        cap: int | None = None) -> dict:
    """Least k with tau a product of k conjugates of sigma (k = 0 for e).

    Reads C, C^2, ... off the group's power walk of sigma's class C
    (:meth:`FiniteGroup.class_walk_of`); None when tau is unreachable
    (e.g. across a parity obstruction) or not reached within ``cap`` >= 1.
    """
    if cap is not None and cap < 1:
        raise InputError("invalid_parameters", "the cap must be at least 1",
                         cap=cap)
    if sigma == 0:
        raise InputError("identity_sigma",
                         "the class of the identity reaches nothing")
    if tau == 0:
        return {"k": 0}
    if cap is None:
        cap = G.order
    cid, _ = G.conjugacy_classes()
    t = int(cid[tau])
    k = G.class_walk_of("power", int(cid[sigma]), cap, t).first(t)
    return {"k": k if k is not None and k <= cap else None}
