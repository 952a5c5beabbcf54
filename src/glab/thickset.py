"""Thickness, genericity, and class-ball combinatorics on finite groups.

A symmetric subset P of G is N-thick when every length-N sequence
(g_1, ..., g_N) contains i < j with g_i^-1 g_j in P.  Equivalently the
"P-free" graph (edge between a and b iff a^-1 b is outside P) has no
clique of size N.  The minimal such N is ``max P-free clique + 1``; nothing
is 1-thick, and when the identity is outside P constant sequences are
P-free at every length, so the thickness is infinite.

Everything here is exact and deterministic at laboratory sizes: cliques by
branch-and-bound over bitmask adjacency (the first maximum found is the
lexicographically least), minimal covers by iterative deepening from the
counting bound.  Each routine reports concrete witnesses.  One clique
search, :func:`_max_clique`, answers every P-free question; a size cap
stops it for ``permfact.express_even``'s support budget and, above
``EXACT_CLIQUE_CAP`` elements, for the thickness.

Both searches use the group's symmetry, which leaves every witness as it
would be without it.  One oracle, :class:`_Orbits`, names the orbits of
the automorphisms that fix the points a branch has chosen: with nothing
chosen one orbit, all of G, by translation; for a normal set, the
conjugacy classes below [e], and below [e, v] the orbits of conjugation
by the powers of v; nothing deeper, and nothing below the root for a set
that is not normal.  Wherever it answers, both searches branch on the
first candidate of each orbit only (orbit pruning by the stabiliser of
the chosen points, after McKay, 1998, and McKay and Piperno, 2014): a
skipped branch is the image of one searched before.  The clique search
also cuts with a greedy-colouring bound (Tomita and Seki, MCQ, 2003),
and the cover search takes its last translate from one AND of bitmasks.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .errors import CapExceeded, InputError, confirm
from .groupcore import (
    FiniteGroup,
    _conjugation,
    _orbit_min,
    ball_mask,
    is_subgroup_mask,
    is_normal_mask,
    is_symmetric_mask,
    quotient_projection,
)

EXACT_CLIQUE_CAP = 5000
PACK_BATCH = 1 << 18  # bool entries packed into bitmasks at once


# --------------------------------------------------------------------------
# clique kernel


def _pack_bits(hit: np.ndarray) -> list[int]:
    """Each line of a 2-D bool array as an int: bit i is set iff hit[., i]."""
    width = -(-hit.shape[1] // 8)
    packed = np.packbits(hit, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[i:i + width], "little")
            for i in range(0, len(packed), width)]


def _column_masks(columns: np.ndarray, n: int) -> list[int]:
    """masks[j] = the bitmask of the indices columns[:, j], below n.

    Packed a batch of columns at a time, so the bool temporary holds at
    most ``PACK_BATCH`` entries, not one line per column at once.
    """
    masks: list[int] = []
    step = max(1, PACK_BATCH // n)
    for lo in range(0, columns.shape[1], step):
        block = columns[:, lo:lo + step]
        hit = np.zeros((block.shape[1], n), dtype=bool)
        hit.ravel()[block + np.arange(0, hit.size, n)] = True
        masks += _pack_bits(hit)
    return masks


def _orbit_masks(label: list[int]) -> list[int]:
    """masks[x] = bitmask of the elements with the same label as x."""
    members = dict.fromkeys(label, 0)
    if len(members) == 1:  # one orbit: every mask is all of G
        return [(1 << len(label)) - 1] * len(label)
    for x, lab in enumerate(label):
        members[lab] |= 1 << x
    return [members[lab] for lab in label]


class _Orbits:
    """The orbit oracle of the clique and cover searches on G.

    Called with the points chosen so far (Cayley-graph vertices, or
    translators g of right translates P·g), it names the orbits of the
    automorphisms that fix them: all of G for none (translation); for a
    ``normal`` set, the classes for [e] and the orbits of conjugation by
    the powers of v for [e, v]; else None.  ``depth`` bounds the number of
    points it answers for.  ``form`` turns the orbit labels (equal labels,
    one orbit) into what the search reads.  A set is built on each call;
    each search asks once per set of chosen points, when it first needs it.
    """

    def __init__(self, G: FiniteGroup, normal: bool, form: Callable):
        self.G, self.depth, self.form = G, 3 if normal else 1, form

    def __call__(self, chosen: list[int]):
        G = self.G
        if not chosen:
            label = [0] * G.order
        elif len(chosen) >= self.depth or chosen[0] != 0:
            return None
        elif len(chosen) == 1:
            label = G.conjugacy_classes()[0].tolist()
        else:
            conj = _conjugation(G.inverses(), G.right_map(chosen[1]))
            label = _orbit_min(conj[None]).tolist()
        return self.form(label)


def _colour_bound(apart: list[int], cand: int, room: int) -> int:
    """Greedy colour classes of ``cand`` in index order, counted to room + 1.

    ``apart[v]`` is every vertex other than v that is not a neighbour of v,
    so each class is an independent set and no clique inside ``cand`` is
    larger than the number of classes (Tomita and Seki's MCQ bound).
    Colouring stops once the count exceeds ``room``, where it can no longer
    cut.
    """
    colours = 0
    while cand and colours <= room:
        colours += 1
        free = cand
        while free:
            low = free & -free
            cand ^= low
            free &= apart[low.bit_length() - 1]
    return colours


def _max_clique(adj: list[int], cap: int | None = None,
                orbits: _Orbits | None = None) -> list[int]:
    """Maximum clique of a graph, lex-least among the maximum ones.

    Binary branching on the lowest candidate vertex, include-branch first,
    from the empty clique; a branch is cut only when it cannot *strictly*
    beat the incumbent, so the first maximum recorded is the lex-least.
    Two bounds cut: the number of candidates and, when that does not cut
    and the clique is shorter than the incumbent (else one colour class
    beats it), the number of greedy colour classes of the candidates.
    ``cap`` stops the search as soon as a clique of that size is known.  A
    lower bound is the search's first clique, ``cap=1``: no bound cuts
    before a clique is recorded, so it is the greedy one, the lowest
    candidate from 0 on.
    The include-branch is descended in place and only the exclude-branch
    is stacked, as the clique length it resumes from, its candidates and
    its orbits, so the depth is not bounded by the recursion limit; an
    exclude-branch that the incumbent already cuts is not stacked at all.

    ``orbits`` is a Cayley graph's oracle (:class:`_Orbits`) in the form
    of :func:`_orbit_masks`, asked once per clique, at its first stacked
    exclude-branch.  Wherever it answers for the clique so far, the
    exclude-branch after v drops v's whole orbit, so only the first
    candidate of each orbit is branched on:
    vertex 0 at the empty clique; for a normal connection set, one vertex
    per conjugacy class below [0], and one per orbit of conjugation by the
    powers of v below [0, v].  The candidates there, the common neighbours
    less the orbits dropped before, are invariant under the automorphisms
    fixing the clique, so a clique through it and an image of w is the
    image of one through it and w, which w's include-branch has searched.
    The dropped cliques cannot strictly beat the incumbent, so the
    lex-least maximum, the ``cap`` stops and the first clique are those of
    the search without the oracle.
    """
    full = (1 << len(adj)) - 1
    apart = [full & ~(a | 1 << v) for v, a in enumerate(adj)]
    depth = orbits.depth if orbits else 0
    best: list[int] = []
    cur: list[int] = []
    stack: list[tuple] = []
    cand = full
    ask = object()  # the orbits at cur, until the oracle is asked for them
    orbit = ask if depth else None
    while cap is None or len(best) < cap:
        k = len(cur)
        room = len(best) - k  # a better clique takes more than room from cand
        size = cand.bit_count()
        if size > room and (room < 1 or _colour_bound(apart, cand, room) > room):
            if cand:
                low = cand & -cand
                v = low.bit_length() - 1
                if size - 1 > room:
                    if orbit is ask:
                        orbit = orbits(cur)
                    rest = cand & ~orbit[v] if orbit else cand ^ low
                    if rest.bit_count() > room:
                        stack.append((k, rest, orbit))
                cur.append(v)
                cand &= adj[v]
                orbit = ask if k + 1 < depth else None
                continue
            best = cur.copy()
        if not stack:
            break
        k, cand, orbit = stack.pop()
        del cur[k:]
    return best


def _quotient_clique(G: FiniteGroup, M: np.ndarray, cap: int | None = None) -> list[int]:
    """Sorted largest set of elements whose quotients a^-1 b all lie in M.

    Builds the Cayley-graph adjacency "a^-1 b in M" from the rows of the
    inverses, walked by ``G.row_batches``, searches it up to ``cap`` and
    replays the defining property on the returned witness.  The search
    branches on the first vertex of each orbit of the oracle only: vertex
    0 at the root and, when M is normal, one per conjugacy class below [e]
    and one per orbit of conjugation by the powers of v below [e, v].
    """
    adj = []
    for lo, rows in G.row_batches(G.inverses()):
        inside = M[rows]  # inside[i, b] = (a^-1 b in M) for a = lo + i
        inside[np.arange(len(rows)), np.arange(lo, lo + len(rows))] = False
        adj += _pack_bits(inside)
    orbits = _Orbits(G, is_normal_mask(G, M), _orbit_masks)
    witness = sorted(_max_clique(adj, cap, orbits))
    for i, a in enumerate(witness):  # replay the defining property
        a_inv = G.inv(a)
        for b in witness[i + 1:]:
            confirm(M[G.mul(a_inv, b)],
                    "a clique quotient lies outside the set", a=a, b=b)
    return witness


# --------------------------------------------------------------------------
# thickness


def thickness(G: FiniteGroup, P: np.ndarray) -> dict:
    """Minimal N for which P is N-thick, with a maximal P-free witness.

    Returns ``{"value": int | inf, "witness": [...], "status": ...}``;
    status is "exact" up to ``EXACT_CLIQUE_CAP`` elements and
    "lower_bound_only" above it, where the search stops at its first
    clique, a lower bound.  The witness is a P-free sequence of length
    value - 1 (element indices); for infinite thickness it is [0, 0].
    """
    if not is_symmetric_mask(G, P):
        raise InputError("not_symmetric", "thickness needs P = P^-1")
    if not P[0]:
        return {"value": math.inf, "witness": [0, 0], "status": "exact"}
    exact = G.order <= EXACT_CLIQUE_CAP
    witness = _quotient_clique(G, ~P, cap=None if exact else 1)
    return {"value": len(witness) + 1, "witness": witness,
            "status": "exact" if exact else "lower_bound_only"}


def check_intersection_bound(G: FiniteGroup, P: np.ndarray, Q: np.ndarray) -> dict:
    tp = thickness(G, P)
    tq = thickness(G, Q)
    if math.isinf(tp["value"]) or math.isinf(tq["value"]):
        raise InputError("precondition_violation",
                         "intersection bound needs finite thickness")
    try:
        bound = ramsey_bound(tp["value"], tq["value"])
    except InputError as e:
        raise InputError("table_incomplete",
                         f"no tabulated Ramsey number for {e.details}") from e
    ti = thickness(G, P & Q)
    return {
        "thickness_P": tp["value"],
        "thickness_Q": tq["value"],
        "bound": bound,
        "thickness_intersection": ti["value"],
        "holds": bool(ti["value"] <= bound),
    }


# --------------------------------------------------------------------------
# Ramsey numbers (table-backed)


_RAMSEY_TABLE = {
    (2, 2): 2, (2, 3): 3, (2, 4): 4, (2, 5): 5,
    (3, 3): 6, (3, 4): 9, (3, 5): 14, (4, 4): 18,
}


def ramsey_bound(n: int, m: int) -> int:
    if n < 2 or m < 2:
        raise InputError("invalid_parameters", "Ramsey table starts at (2,2)")
    key = (min(n, m), max(n, m))
    if key not in _RAMSEY_TABLE:
        raise InputError("out_of_table", f"R{key} is not tabulated", pair=key)
    return _RAMSEY_TABLE[key]


# --------------------------------------------------------------------------
# genericity and the generic-subgroup certificate


def genericity(G: FiniteGroup, P: np.ndarray, cap: int | None = None) -> dict:
    """Least m with m right-translates of P covering G, plus translators.

    Exact minimum cover: iterative deepening starting from the counting
    bound ceil(|G| / |P|); branching always on the lowest-index uncovered
    element, candidate translators in index order, so the reported
    translator tuple is canonical.  Two cuts use the group's symmetry or
    the search order and keep that tuple:

    * Wherever the orbit oracle (:class:`_Orbits`) answers for the
      translators chosen so far, only the first candidate of each orbit is
      tried: the automorphisms fixing the chosen translators keep the
      uncovered set and map a cover through them and g to one of the same
      size through them and an image of g, so a later candidate in g's
      orbit is reached only after an earlier one failed, and fails too.
      At the root, right translation makes G one orbit: only the first
      translator covering e is tried.  For a normal P with e in P that is
      e, and below [e] one candidate per conjugacy class is tried, and
      below [e, g1] one per orbit of conjugation by the powers of g1.
    * The last translate must cover everything left, so at depth
      limit - 1 the translators covering each uncovered element are ANDed
      as bitmasks; the lowest bit left is the first candidate the loop
      over them would accept, and none is tried when the AND is 0.

    The bitmasks of every translate and of the translators covering each
    element are packed once, before the search.
    """
    p = np.flatnonzero(P)
    if not len(p):
        raise InputError("invalid_parameters", "cannot cover with an empty set")
    n = G.order
    if cap is None:
        cap = n
    # column g of ``right`` is P*g, and x is covered by P*g iff g in P^-1 x,
    # which is column x of the rows of P^-1, sorted
    right = G.rows(p)
    covering = G.rows(G.inverses()[p])
    covering.sort(axis=0)
    translate = _column_masks(right, n)  # translate[g] = P*g
    covered_by = _column_masks(covering, n)  # covered_by[x] = {g : x in P*g}
    full = (1 << n) - 1
    orbits = _Orbits(G, is_normal_mask(G, P), list)
    columns: dict[int, list[int]] = {}
    firsts: dict[tuple, list[int]] = {}  # chosen -> candidates cut by orbits

    def candidates(x: int, chosen: list[int]) -> list[int]:
        """The translators covering x, the first of each orbit only; x is
        the least element the chosen translators leave uncovered, so the
        cut list is kept per chosen translators for the next limits."""
        gs = columns.get(x)
        if gs is None:
            gs = columns[x] = covering[:, x].tolist()
        if len(chosen) >= orbits.depth:
            return gs
        key = tuple(chosen)
        if key not in firsts:
            label, seen = orbits(chosen), set()
            firsts[key] = gs if label is None else [
                g for g in gs if label[g] not in seen and not seen.add(label[g])]
        return firsts[key]

    def last_translate(uncovered: int) -> int | None:
        """The lowest g with P*g covering ``uncovered``, if any."""
        common = -1
        while uncovered and common:
            low = uncovered & -uncovered
            uncovered ^= low
            common &= covered_by[low.bit_length() - 1]
        return (common & -common).bit_length() - 1 if common else None

    def cover(limit: int) -> list[int] | None:
        """First cover by at most ``limit`` translates in search order.

        Depth-first without recursion: each open node is a stack frame
        (uncovered, iterator over its remaining candidate translators),
        and ``chosen[i]`` is the candidate taken at frame i.
        """
        chosen: list[int] = []
        stack: list[tuple] = []
        uncovered = full
        while uncovered:
            depth = len(chosen)
            if depth < limit and (limit - depth) * len(p) >= uncovered.bit_count():
                if depth == limit - 1:
                    g = last_translate(uncovered)
                    if g is not None:
                        return chosen + [g]
                else:
                    x = (uncovered & -uncovered).bit_length() - 1
                    stack.append((uncovered, iter(candidates(x, chosen))))
            while stack:
                parent, rest = stack[-1]
                g = next(rest, None)
                if g is not None:
                    break
                stack.pop()
            else:
                return None
            del chosen[len(stack) - 1:]
            chosen.append(g)
            uncovered = parent & ~translate[g]
        return chosen

    lower = -(-n // len(p))
    for m in range(lower, cap + 1):
        sol = cover(m)
        if sol is not None:
            covered = np.zeros(n, dtype=bool)  # replayed on the rows of P
            covered[right[:, sol]] = True
            confirm(covered.all(), "the translates do not cover G",
                    translators=sol)
            return {"m": m, "translators": sol}
    raise CapExceeded("search_exhausted", f"no cover within {cap} translates",
                      cap=cap)


def generic_subgroup_certificate(G: FiniteGroup, P: np.ndarray) -> dict:
    """For e in P = P^-1 and P m-generic: P^(3m-2) is a subgroup of index <= m.

    Computes m exactly, takes the mask power, and machine-checks both the
    subgroup property and the index bound.  The cover's ``translators``
    come back with it, so a caller needs no second cover search.
    """
    if not P[0] or not is_symmetric_mask(G, P):
        raise InputError("precondition_violation",
                         "certificate needs e in P and P symmetric")
    gen = genericity(G, P)
    m = gen["m"]
    power = ball_mask(G, P, 3 * m - 2)  # e in P: the power is the ball
    sub = is_subgroup_mask(G, power)
    index = G.order // int(power.sum()) if sub else None
    return {
        "m": m,
        "power_exponent": 3 * m - 2,
        "power_order": int(power.sum()),
        "is_subgroup": bool(sub),
        "index": index,
        "index_at_most_m": bool(sub and index <= m),
        "mask": power,
        "translators": gen["translators"],
    }


def normal_core_probe(G: FiniteGroup, cert: dict) -> dict:
    """Experimental: the largest normal subgroup inside P^(3m-2).

    Observation-only companion to :func:`generic_subgroup_certificate`,
    whose result ``cert`` it takes — keeps the elements whose whole class
    lies in the subgroup and reports that core's order and index.  No
    pass/fail semantics.
    """
    if not cert["is_subgroup"]:
        return {"experimental": True, "core_order": None, "core_index": None,
                "certificate_m": cert["m"]}
    # x lies in every conjugate of H iff its whole class lies in H
    cid, reps = G.conjugacy_classes()
    leaves = np.zeros(len(reps), dtype=bool)
    leaves[cid[~cert["mask"]]] = True
    core = ~leaves[cid]
    confirm(is_subgroup_mask(G, core), "the normal core is not a subgroup")
    return {
        "experimental": True,
        "certificate_m": cert["m"],
        "power_order": cert["power_order"],
        "core_order": int(core.sum()),
        "core_index": G.order // int(core.sum()),
        "core_thickness": thickness(G, core)["value"] if core[0] else None,
    }


# --------------------------------------------------------------------------
# epimorphism transport


def preimage_thickness_check(Q: FiniteGroup, X: np.ndarray) -> dict:
    """f^-1[X] is N-thick iff X is: minimal thickness values must agree."""
    pre = X[quotient_projection(Q)]
    tx = thickness(Q, X)
    tp = thickness(Q.parent, pre)
    return {"thickness_image": tx["value"], "thickness_preimage": tp["value"],
            "holds": tx["value"] == tp["value"]}


def image_thickness_check(Q: FiniteGroup, Z: np.ndarray) -> dict:
    """Pushing a thick set through an epimorphism cannot raise its thickness."""
    img = np.zeros(Q.order, dtype=bool)
    img[quotient_projection(Q)[np.nonzero(Z)[0]]] = True
    tz = thickness(Q.parent, Z)
    ti = thickness(Q, img)
    return {"thickness_source": tz["value"], "thickness_image": ti["value"],
            "holds": ti["value"] <= tz["value"]}


# --------------------------------------------------------------------------
# class balls


def gn_set(G: FiniteGroup, N: int) -> np.ndarray:
    """Elements whose symmetrized class N-ball already covers the group.

    g qualifies iff (cl(g) ∪ cl(g^-1))^{<=N} = G with the 0-ball = {e}.
    Constant on classes, so read per class off the group's ball walk of
    the class-inverse pair (:meth:`FiniteGroup.class_walk_of`).
    """
    if N < 0:
        raise InputError("invalid_parameters", "ball radius must be >= 0")
    cid, reps = G.conjugacy_classes()
    full = [G.class_walk_of("ball", i, N).full for i in range(len(reps))]
    return np.array([f is not None and f <= N for f in full])[cid]


def gn_product_check(G: FiniteGroup, H: FiniteGroup, product: FiniteGroup,
                     N: int) -> dict:
    """Does gn_set distribute over a direct product at radius N?

    Compares gn_set(G x H, N) with gn_set(G, N) x gn_set(H, N).  The
    containment ⊆ always holds: the class of (g, h) projects onto the
    class of g (resp. h), so projecting a ball that covers G x H onto a
    factor gives a ball of the same radius that covers the factor.  Only
    equality is the checked proposition.  It is not a theorem in general
    (fails already for Z/3 x Z/3 at N = 2) and is reported with a
    counterexample when false.
    """
    gn_g = gn_set(G, N)
    gn_h = gn_set(H, N)
    gn_p = gn_set(product, N)
    expected = np.zeros(product.order, dtype=bool)
    for i in range(product.order):
        fg, fh = product.elements[i]
        expected[i] = gn_g[G.index[fg]] and gn_h[H.index[fh]]
    holds = bool((gn_p == expected).all())
    counter = None
    if not holds:
        diff = int(np.nonzero(gn_p != expected)[0][0])
        counter = {"index": diff, "in_product_set": bool(gn_p[diff]),
                   "in_factor_product": bool(expected[diff])}
    return {"holds": holds, "size_product": int(gn_p.sum()),
            "size_expected": int(expected.sum()), "counterexample": counter}


def bounded_simplicity_degree(G: FiniteGroup, cap: int | None = None) -> dict:
    """Worst-case class-ball radius needed to cover G, or a stuck witness.

    For every noncentral class, grows (cl ∪ cl^-1)^{<=n}, the group's ball
    walk (:meth:`FiniteGroup.class_walk_of`), until it covers G or
    stabilizes short; a stabilizing class yields value None plus the
    lowest-index witness element whose ball is stuck below |G|.
    """
    if cap is None:
        cap = G.order
    cid, reps = G.conjugacy_classes()
    center = G.center_mask()
    if all(center[r] for r in reps):
        raise InputError("degenerate_abelian",
                         "all classes are central; no class ball can move")
    per_class = []
    for i, r in enumerate(reps):
        if center[r]:
            continue
        walk = G.class_walk_of("ball", i, cap + 1)
        if walk.full is None and walk.done and walk.k <= cap:
            return {"value": None, "witness": int(r),
                    "stabilized_order": int(np.bincount(cid)[walk.state].sum())}
        if walk.full is None or walk.full > cap:
            raise CapExceeded("search_exhausted",
                              f"ball radius exceeded {cap}", cap=cap)
        per_class.append({"rep": int(r), "radius": walk.full})
    return {"value": max(pc["radius"] for pc in per_class), "witness": None,
            "per_class": per_class}


def covering_number(G: FiniteGroup) -> dict:
    """Max over nontrivial classes of the least n with C^n = G.

    Only defined for simple nonabelian groups.  Each n is read off the
    group's power walk of C, and the walks also decide simplicity: a class
    whose powers fill G generates G, so when every walk fills G, no
    nontrivial class lies in a proper normal subgroup.  Conversely, in a
    simple nonabelian group the powers of a nontrivial class C fill G
    before they repeat: for x in C of order o, x^-1 = x^(o-1) lies in
    C^(o-1), so C^o ⊇ C·C^(o-1) ∋ e, and C^o, C^2o, ... grow to a normal
    subgroup, which is G since |C^o| >= |C| > 1 (the centre is trivial);
    G, once reached, stays, so it comes before the first repeat.  So only
    when a walk ends short of G is the normal closure of each class
    taken, to name the first class that generates a proper normal
    subgroup.
    """
    cid, reps = G.conjugacy_classes()
    if G.is_abelian() or G.order == 1:
        raise InputError("not_simple_nonabelian", "group is abelian")
    per_class = []
    for i, r in enumerate(reps[1:], start=1):
        n = G.class_walk_of("power", i).full
        if n is None:
            for r in reps[1:]:
                if not G.normal_closure_mask(G.class_mask(r)).all():
                    raise InputError(
                        "not_simple_nonabelian",
                        f"class of element {r} generates a proper normal subgroup")
            confirm(False, "class powers cycled below G")
        per_class.append({"rep": int(r), "power": n})
    return {"value": max(pc["power"] for pc in per_class), "per_class": per_class}
