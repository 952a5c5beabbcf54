"""Thick sets: thickness, Ramsey intersections, genericity, class balls."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import glab.thickset as thickset
from glab.errors import CapExceeded, InputError
from glab.extensions import build_extension, carry_cocycle
from glab.groupcore import (
    CycSpec,
    FiniteGroup,
    build_group,
    inverse_mask,
    mask_from_indices,
    parse_element,
    parse_group_spec,
    quotient_projection,
)
from glab.thickset import (
    _max_clique,
    _quotient_clique,
    bounded_simplicity_degree,
    check_intersection_bound,
    covering_number,
    generic_subgroup_certificate,
    genericity,
    gn_product_check,
    gn_set,
    image_thickness_check,
    normal_core_probe,
    preimage_thickness_check,
    ramsey_bound,
    thickness,
)
from walk_oracles import power_walk


def _arc(G, k):
    return mask_from_indices(G, [0] + list(range(1, k + 1))
                             + [G.order - i for i in range(1, k + 1)])


def _alt5_small_support_set(alt5):
    """{e} + both classes of support-<=4 nontrivial even permutations."""
    P = alt5.class_mask(0).copy()
    P |= alt5.class_mask(parse_element(alt5, "(1,2)(3,4)"))
    P |= alt5.class_mask(parse_element(alt5, "(1,2,3)"))
    return P


# -- thickness


def test_thickness_frozen_examples(cyc5, cyc12):
    assert thickness(cyc5, mask_from_indices(cyc5, [0, 1, 4])) == {
        "value": 3, "witness": [0, 2], "status": "exact"}
    assert thickness(cyc12, _arc(cyc12, 1)) == {
        "value": 7, "witness": [0, 2, 4, 6, 8, 10], "status": "exact"}


def test_thickness_of_identity_only(cyc7, sym4, alt5):
    for G, expect in ((cyc7, 8), (sym4, 25), (alt5, 61)):
        rep = thickness(G, mask_from_indices(G, [0]))
        assert rep["value"] == expect == G.order + 1
        assert rep["witness"] == list(range(G.order))


def test_thickness_infinite_without_identity(cyc6):
    rep = thickness(cyc6, mask_from_indices(cyc6, [1, 5]))
    assert math.isinf(rep["value"])
    assert rep["witness"] == [0, 0]


def test_searches_deeper_than_the_recursion_limit():
    """{e} in Cyc(1100): the clique and the cover both take all 1100
    elements, one search level each."""
    G = build_group(CycSpec(1100))
    P = mask_from_indices(G, [0])
    th = thickness(G, P)
    assert th["value"] == 1101 and th["witness"] == list(range(1100))
    assert genericity(G, P) == {"m": 1100, "translators": list(range(1100))}


def test_thickness_requires_symmetric(cyc6):
    with pytest.raises(InputError) as e:
        thickness(cyc6, mask_from_indices(cyc6, [0, 1]))
    assert e.value.code == "not_symmetric"


def test_thickness_alt5_small_support(alt5):
    P = _alt5_small_support_set(alt5)
    assert int(P.sum()) == 36
    assert thickness(alt5, P) == {
        "value": 6, "witness": [0, 2, 6, 12, 22], "status": "exact"}


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_thickness_witness_replay(cyc12, data):
    picks = data.draw(st.sets(st.integers(1, 11), min_size=0, max_size=6))
    idx = {0} | picks | {cyc12.inv(i) for i in picks}
    P = mask_from_indices(cyc12, sorted(idx))
    rep = thickness(cyc12, P)
    assert rep["status"] == "exact"
    assert len(rep["witness"]) == rep["value"] - 1
    w = rep["witness"]
    for i, a in enumerate(w):
        for b in w[i + 1:]:
            assert not P[cyc12.mul(cyc12.inv(a), b)]


# -- the exact searches against exhaustive oracles and unpruned copies

SMALL_GROUPS = ("Sym(3)", "Cyc(12)", "Ab(4,2)", "Sym(4)", "SL(2,3)",
                "Prod(Sym(3),Cyc(4))", "Cyc(24)")


@functools.cache
def _group(spec):
    return build_group(parse_group_spec(spec))


def _drawn_set(G, data, symmetric):
    """A set drawn element by element; with e and closed under inverses when
    ``symmetric``, else made nonempty by one drawn element."""
    P = np.array(data.draw(st.lists(st.booleans(), min_size=G.order,
                                    max_size=G.order)), dtype=bool)
    if symmetric:
        P[0] = True
        return P | inverse_mask(G, P)
    P[data.draw(st.integers(0, G.order - 1))] = True
    return P


def _lex_least_maximum_clique(G, M):
    """Least sorted clique of largest size in the graph "a^-1 b in M", over
    form-level products.  Every maximum clique is maximal, and all maximal
    cliques are listed (Bron-Kerbosch with a pivot), so no bound is used."""
    n = G.order
    nbr = {a: {b for b in range(n) if b != a and M[G.mul(G.inv(a), b)]}
           for a in range(n)}
    maximal = []

    def extend(clique, cand, done):
        if not cand and not done:
            maximal.append(sorted(clique))
            return
        pivot = max(cand | done, key=lambda u: len(nbr[u] & cand))
        for v in sorted(cand - nbr[pivot]):
            extend(clique | {v}, cand & nbr[v], done & nbr[v])
            cand = cand - {v}
            done = done | {v}

    extend(set(), set(range(n)), set())
    size = max(map(len, maximal))
    return min(c for c in maximal if len(c) == size)


def _least_cover_size(G, P):
    """Least number of right translates P*g covering G, over form-level
    products: some translate covers the least uncovered element, so the
    least cover of a remainder is one of those translates plus the least
    cover of what it leaves, memoised on the remainder."""
    p = [int(a) for a in np.nonzero(P)[0]]
    translates = [frozenset(G.mul(a, g) for a in p) for g in range(G.order)]

    @functools.cache
    def least(uncovered):
        if not uncovered:
            return 0
        x = min(uncovered)
        return 1 + min(least(uncovered - t) for t in translates if x in t)

    return least(frozenset(range(G.order)))


@given(st.sampled_from(SMALL_GROUPS), st.data())
@settings(max_examples=150, deadline=None)
def test_clique_witnesses_are_the_lex_least_maximum_cliques(spec, data):
    G = _group(spec)
    P = _drawn_set(G, data, symmetric=True)
    assert thickness(G, P)["witness"] == _lex_least_maximum_clique(G, ~P)
    S = P.copy()
    S[0] = False
    if S.any():
        assert _quotient_clique(G, S) == _lex_least_maximum_clique(G, S)


@given(st.sampled_from(SMALL_GROUPS), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_genericity_is_the_least_cover_size(spec, symmetric, data):
    G = _group(spec)
    P = _drawn_set(G, data, symmetric)
    assert genericity(G, P)["m"] == _least_cover_size(G, P)


def _unpruned_max_clique(adj, n, cap=None):
    """The clique search over all vertices with the candidate count as its
    only bound: the search whose witness the symmetric one must return."""
    best, cur, stack = [], [], []
    cand = (1 << n) - 1
    while cap is None or len(best) < cap:
        k = len(cur)
        bound = k + cand.bit_count()
        if bound > len(best):
            if cand:
                low = cand & -cand
                if bound - 1 > len(best):
                    stack.append((k, cand ^ low))
                v = low.bit_length() - 1
                cur.append(v)
                cand &= adj[v]
                continue
            best = cur.copy()
        if not stack:
            break
        k, cand = stack.pop()
        del cur[k:]
    return sorted(best)


def _unpruned_cover(G, P):
    """The cover search that tries every translator at every depth, the
    root included, by iterative deepening from the counting bound."""
    n, size = G.order, int(P.sum())
    p = np.nonzero(P)[0]
    inv = G.inverses()
    rows = np.stack([G.row(int(a)) for a in p])  # column g is P*g
    translate = [_bits(np.isin(np.arange(n), rows[:, g])) for g in range(n)]
    covering = np.sort(np.stack([G.row(int(inv[a])) for a in p]), axis=0)

    def first(uncovered, limit):
        if not uncovered:
            return []
        if limit * size < uncovered.bit_count():
            return None
        x = (uncovered & -uncovered).bit_length() - 1
        for g in covering[:, x].tolist():
            rest = first(uncovered & ~translate[g], limit - 1)
            if rest is not None:
                return [g] + rest
        return None

    for m in range(-(-n // size), n + 1):
        got = first((1 << n) - 1, m)
        if got is not None:
            return {"m": m, "translators": got}


def _bits(mask):
    return sum(1 << int(i) for i in np.nonzero(mask)[0])


def _free_adjacency(G, P):
    """Bitmask rows of the P-free graph: b is a neighbour of a iff a^-1 b
    lies outside P and b != a."""
    inv = G.inverses()
    return [_bits(~P[G.row(int(inv[a]))]) & ~(1 << a) for a in range(G.order)]


@given(st.sampled_from(["Alt(5)", "Sym(5)"]), st.floats(0.45, 0.8),
       st.integers(0, 2**32 - 1), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_searches_match_the_unpruned_searches(spec, density, seed, cap):
    """Same witness, same capped clique and same translators as searches
    that use neither the group's symmetry nor the colouring bound."""
    G = _group(spec)
    P = np.random.default_rng(seed).random(G.order) < density
    P[0] = True
    P |= inverse_mask(G, P)
    adj = _free_adjacency(G, P)
    assert thickness(G, P)["witness"] == _unpruned_max_clique(adj, G.order)
    assert _quotient_clique(G, ~P, cap=cap)[:cap] == \
        _unpruned_max_clique(adj, G.order, cap)[:cap]
    assert genericity(G, P) == _unpruned_cover(G, P)


def _greedy_clique(adj, n):
    """The greedy clique that ``thickness`` took above the clique cap
    before the capped search replaced it: the lowest candidate, from
    vertex 0 on, until none is left."""
    out, cand = [], (1 << n) - 1
    while cand:
        v = (cand & -cand).bit_length() - 1
        out.append(v)
        cand &= adj[v]
    return out


@given(st.sampled_from(SMALL_GROUPS + ("Alt(5)", "Sym(5)", "SL(2,5)",
                                       "Quot(SL(2,5),center)")), st.data())
@settings(max_examples=100, deadline=None)
def test_first_clique_is_the_greedy_clique(spec, data):
    """The search stopped at its first clique returns the greedy clique,
    and above the clique cap the thickness is that lower bound."""
    G = _group(spec)
    P = _drawn_set(G, data, symmetric=True)
    adj = _free_adjacency(G, P)
    greedy = _greedy_clique(adj, G.order)
    assert _max_clique(adj, 1) == greedy
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thickset, "EXACT_CLIQUE_CAP", 0)
        assert thickness(G, P) == {"value": len(greedy) + 1, "witness": greedy,
                                   "status": "lower_bound_only"}


# the four sets whose searches took seconds before the searches used the
# group's symmetry: e with two symmetrized classes, named by representatives
HEAVY_SETS = [
    ("SL(2,5)", ("1,1,1,2", "0,2,2,1"),
     {"value": 11, "witness": [0, 1, 3, 7, 17, 22, 39, 40, 70, 71],
      "status": "exact"},
     {"m": 5, "translators": [0, 8, 9, 60, 70]}),
    ("SL(2,5)", ("0,2,2,1", "0,2,2,3"),
     {"value": 11, "witness": [0, 1, 3, 7, 17, 22, 39, 40, 70, 71],
      "status": "exact"},
     {"m": 5, "translators": [0, 12, 68, 23, 117]}),
    ("Quot(SL(2,7),center)", ("1,0,1,1", "2,3,3,5"),
     {"value": 13,
      "witness": [0, 4, 6, 24, 32, 38, 103, 131, 135, 147, 160, 163],
      "status": "exact"},
     {"m": 4, "translators": [0, 29, 78, 123]}),
    ("Quot(SL(2,7),center)", ("1,2,2,5", "2,3,3,5"),
     {"value": 11, "witness": [0, 1, 4, 6, 11, 16, 27, 41, 42, 46],
      "status": "exact"},
     {"m": 4, "translators": [0, 67, 73, 30]}),
]


@pytest.mark.parametrize("spec,reps,thick,gen", HEAVY_SETS)
def test_heavy_normal_sets_frozen(hang_guard, spec, reps, thick, gen):
    G = _group(spec)
    P = mask_from_indices(G, [0])
    for text in reps:
        C = G.class_mask(parse_element(G, text))
        P |= C | inverse_mask(G, C)
    assert thickness(G, P) == thick
    assert genericity(G, P) == gen


# sets that finish only since the searches cut by conjugacy classes; the
# Alt(6) thickness took one to two and a half minutes without the cuts,
# and its cover search does not finish in minutes
NEW_HEAVY_SETS = [
    ("Sym(5)", "(1,2,3)",
     {"value": 21, "witness": [0, 1, 2, 3, 5, 8, 10, 16, 17, 27, 73, 74, 88,
                               92, 96, 106, 108, 113, 114, 117],
      "status": "exact"},
     {"m": 8, "translators": [0, 1, 47, 31, 11, 106, 92, 115]}),
    ("Alt(6)", "(1,2,3)",
     {"value": 61,
      "witness": [0, 1, 3, 8, 16, 24, 37, 47, 67, 73, 82, 97, 102, 108, 110,
                  118, 119, 124, 132, 138, 140, 155, 159, 170, 173, 174, 178,
                  180, 182, 189, 195, 200, 208, 213, 215, 231, 240, 243, 244,
                  246, 247, 267, 278, 286, 305, 311, 314, 320, 325, 333, 339,
                  343, 344, 345, 346, 349, 354, 355, 357, 358],
      "status": "exact"},
     None),
]


@pytest.mark.parametrize("spec,rep,thick,gen", NEW_HEAVY_SETS)
def test_new_heavy_normal_sets_frozen(hang_guard, spec, rep, thick, gen):
    """e with the class of a 3-cycle; witness and cover replayed over
    form-level products."""
    G = _group(spec)
    P = G.class_mask(0) | G.class_mask(parse_element(G, rep))
    assert thickness(G, P) == thick
    w = thick["witness"]
    for i, a in enumerate(w):
        for b in w[i + 1:]:
            assert not P[G.mul(G.inv(a), b)]
    if gen is not None:
        assert genericity(G, P) == gen
        covered = {G.mul(int(a), g) for g in gen["translators"]
                   for a in np.nonzero(P)[0]}
        assert len(covered) == G.order


def test_thickness_caches_no_rows(monkeypatch):
    """The clique search walks the Cayley rows it needs in batches, not
    row by row: on Sym(7), 5,040 rows would take 203 MB."""
    G = build_group(parse_group_spec("Sym(7)"))
    P = ~(G.class_mask(parse_element(G, "(1,2)"))
          | G.class_mask(parse_element(G, "(2,4,6)(3,5,7)")))
    monkeypatch.setattr(G, "row", None)  # a single-row call would fail
    assert thickness(G, P)["value"] == 3


# -- the class cuts against copies of the searches without them


def _colour_count(adj, cand, room):
    """The greedy colouring bound as the searches took it before any cut by
    classes: colour classes of ``cand`` in index order, counted to room + 1,
    each grown from the non-neighbours of its vertices."""
    colours = 0
    while cand and colours <= room:
        colours += 1
        free = cand
        while free:
            low = free & -free
            cand ^= low
            free &= ~(adj[low.bit_length() - 1] | low)
    return colours


def _classless_max_clique(adj, cap=None):
    """The clique search before it cut by conjugacy classes: from vertex 0,
    with the candidate count and the colouring bound."""
    best, cur, stack = [], [0], []
    cand = adj[0]
    while cap is None or len(best) < cap:
        k = len(cur)
        room = len(best) - k
        size = cand.bit_count()
        if size > room and _colour_count(adj, cand, room) > room:
            if cand:
                low = cand & -cand
                if size - 1 > room:
                    stack.append((k, cand ^ low))
                v = low.bit_length() - 1
                cur.append(v)
                cand &= adj[v]
                continue
            best = cur.copy()
        if not stack:
            break
        k, cand = stack.pop()
        del cur[k:]
    return sorted(best)


def _classless_cover(G, P):
    """The cover search before the class cut and the last-translate AND:
    one translator at the root, every candidate tried below it."""
    p = [int(a) for a in np.nonzero(P)[0]]
    n = G.order
    inv = G.inverses()
    right = np.stack([G.row(a) for a in p])
    covering = np.sort(np.stack([G.row(int(inv[a])) for a in p]), axis=0)
    translate = [_bits(np.isin(np.arange(n), right[:, g])) for g in range(n)]
    full = (1 << n) - 1

    def cover(limit):
        chosen, stack, uncovered = [], [], full
        while uncovered:
            depth = len(chosen)
            if depth < limit and (limit - depth) * len(p) >= uncovered.bit_count():
                x = (uncovered & -uncovered).bit_length() - 1
                gs = covering[:, x].tolist()
                stack.append((uncovered, iter(gs if depth else gs[:1])))
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

    for m in range(-(-n // len(p)), n + 1):
        got = cover(m)
        if got is not None:
            return {"m": m, "translators": got}


def _symmetrized_classes(G):
    """The classes of G other than {e}, each joined with its inverse class,
    without repeats, in the order of their least elements."""
    cid, reps = G.conjugacy_classes()
    out = []
    for r in reps[1:]:
        C = G.class_mask(r)
        C = C | inverse_mask(G, C)
        if not any((C == D).all() for D in out):
            out.append(C)
    return out


# sets e + classes, by indices into _symmetrized_classes, on which a copy
# without the class cuts takes more than half a second (most of them
# seconds, and four of the Sym(5) covers more than 30 s)
CLASSLESS_TOO_SLOW = {
    "clique": {("Sym(5)", (4,)), ("Sym(5)", (0, 4))}
    | {("SL(2,5)", combo) for combo in [
        (0,), (1,), (2,), (3,), (6,), (0, 6), (0, 7), (1, 7), (2, 7), (3, 7),
        (6, 7)]}
    | {("Quot(SL(2,7),center)", (3,))},
    "cover": {("Sym(5)", combo) for combo in [
        (0,), (1,), (2,), (3,), (4,), (5,), (0, 1), (0, 2), (0, 3), (1, 3),
        (1, 4), (1, 5), (3, 4), (4, 5)]}
    | {("SL(2,5)", combo) for combo in [
        (0,), (1,), (3,), (4,), (0, 1), (0, 2), (0, 3), (0, 4), (0, 6),
        (0, 7), (1, 2), (1, 3), (1, 4), (1, 6), (1, 7), (2, 3), (3, 7),
        (4, 7)]}
    | {("Quot(SL(2,7),center)", combo) for combo in [(0,), (2,), (3,)]},
}


@pytest.mark.parametrize("spec", SMALL_GROUPS + ("Alt(5)", "Sym(5)", "SL(2,5)",
                                                 "Quot(SL(2,7),center)"))
def test_class_cuts_keep_witnesses_and_translators(hang_guard, spec):
    """Every set e + one or two symmetrized classes: the same witness as
    the clique search and the same translators as the cover search that
    cut neither by classes nor, one level deeper, by the orbits of
    conjugation by the powers of the element chosen at the first level."""
    G = _group(spec)
    classes = _symmetrized_classes(G)
    for k in (1, 2):
        for combo in itertools.combinations(range(len(classes)), k):
            P = G.class_mask(0) | functools.reduce(
                np.logical_or, [classes[i] for i in combo])
            if (spec, combo) not in CLASSLESS_TOO_SLOW["clique"]:
                assert thickness(G, P)["witness"] == \
                    _classless_max_clique(_free_adjacency(G, P))
            if (spec, combo) not in CLASSLESS_TOO_SLOW["cover"]:
                assert genericity(G, P) == _classless_cover(G, P)


def test_pair_cuts_rest_on_the_stabiliser_of_the_pair(monkeypatch):
    """The oracle's orbits below [e, v] are those of conjugation by the
    powers of v, which fixes e and v.  Orbits of conjugation by an element
    that does not commute with v (which moves v) lose a maximum clique and
    a first cover, so the comparisons above would see a cut by the wrong
    orbits."""
    real = thickset._conjugation

    def moved(inv, right):  # the right map of v, in the group G below: right[0] = v
        v = int(right[0])
        u = next((u for u in range(G.order) if G.mul(u, v) != G.mul(v, u)), v)
        return real(inv, G.right_map(u))

    monkeypatch.setattr(thickset, "_conjugation", moved)
    G = _group("Quot(SL(2,7),center)")
    P = G.class_mask(0) | _symmetrized_classes(G)[0]
    assert thickness(G, P)["witness"] != \
        _classless_max_clique(_free_adjacency(G, P))
    G = _group("SL(2,5)")
    P = G.class_mask(0) | _symmetrized_classes(G)[6]
    assert genericity(G, P) != _classless_cover(G, P)


@pytest.mark.parametrize("spec", SMALL_GROUPS + ("Alt(5)", "Sym(5)", "SL(2,5)",
                                                 "Quot(SL(2,7),center)"))
def test_oracle_orbits_are_the_stabiliser_orbits(spec):
    """The oracle's orbit sets, in both forms, against conjugation by
    form-level products: all of G at the root; below [e] the orbits of
    conjugation by every element, the classes; below [e, v] the orbits of
    conjugation by v.  A set that is not normal gets nothing below the
    root, and points that do not start at e get nothing."""
    G = _group(spec)
    n = G.order
    conj = np.array([[G.index[G.mul_form(G.mul_form(G.inv_form(G.elements[h]), fx),
                                         G.elements[h])] for fx in G.elements]
                     for h in range(n)])  # conj[h, x] = h^-1 x h
    labels = thickset._Orbits(G, True, list)
    masks = thickset._Orbits(G, True, thickset._orbit_masks)
    assert labels([]) == [0] * n
    assert masks([]) == [(1 << n) - 1] * n

    def check(chosen, maps):
        label, bits = labels(chosen), masks(chosen)
        orbit = np.eye(n, dtype=bool)  # orbit[x, y]: y in the orbit of x
        while True:
            grown = orbit.copy()
            for m in maps:
                grown[:, m] |= orbit
            if (grown == orbit).all():
                break
            orbit = grown
        label = np.array(label)
        assert (orbit == (label[:, None] == label[None, :])).all()
        assert bits == [_bits(row) for row in orbit]

    check([0], conj)
    for v in range(n):
        check([0, v], conj[v:v + 1])
    check([0], conj)  # the set kept for [e] is not one for another point
    assert labels([0, 1, 2]) is None and masks([0, 1, 2]) is None
    if n > 1:
        assert labels([1]) is None and labels([1, 0]) is None
    plain = thickset._Orbits(G, False, list)
    assert plain.depth == 1 and plain([0]) is None and plain([0, 1]) is None


def _brute_lex_least_maximum_clique(n, edges):
    """The least sorted clique of largest size, over all vertex subsets."""
    for size in range(n, 0, -1):
        for clique in itertools.combinations(range(n), size):
            if all(pair in edges for pair in itertools.combinations(clique, 2)):
                return list(clique)
    return []


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2))))
# vertex 0 is on no maximum clique
@example((3, [False, False, True]))
@settings(max_examples=200, deadline=None)
def test_max_clique_without_oracle_is_lex_least(graph):
    """Without an oracle the search runs over all vertices of any graph,
    not only Cayley graphs, from the empty clique: it returns the
    lex-least maximum clique found by brute force, and its first clique
    is the greedy one."""
    n, bits = graph
    edges = {pair for pair, b in zip(itertools.combinations(range(n), 2), bits) if b}
    adj = [sum(1 << w for w in range(n) if (min(v, w), max(v, w)) in edges)
           for v in range(n)]
    assert _max_clique(adj) == _brute_lex_least_maximum_clique(n, edges)
    assert _max_clique(adj, 1) == _greedy_clique(adj, n)


@given(st.sampled_from(SMALL_GROUPS + ("Alt(5)",)),
       st.sets(st.integers(0, 10), min_size=1))
# trying one candidate per class at depth 1 would lose the first cover of
# {[e|1], [e|2]} with the class of [(1,2)|0], and of the elements of order
# 2 and 5 in Alt(5)
@example("Prod(Sym(3),Cyc(4))", {0, 1, 3})
@example("Alt(5)", {1, 2, 3})
@settings(max_examples=100, deadline=None, derandomize=True)
def test_cover_of_a_normal_set_without_identity(spec, picked):
    """Unions of classes other than {e}: the root translator is not e and
    conjugation does not fix it, so depth 1 tries every candidate."""
    G = _group(spec)
    reps = G.conjugacy_classes()[1][1:]
    P = functools.reduce(np.logical_or,
                         [G.class_mask(reps[i % len(reps)]) for i in picked])
    assert genericity(G, P) == _classless_cover(G, P)


@given(st.sampled_from(SMALL_GROUPS + ("Alt(5)", "Sym(5)")), st.data(),
       st.integers(1, 12))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_spread_length_on_normal_sets_keeps_the_capped_clique(spec, data, cap):
    """The spread length of S, the longest sequence whose quotients
    g_i^-1 g_j all lie in S, is the capped clique of the quotient graph;
    for a normal S the search cuts by classes and keeps that clique."""
    G = _group(spec)
    classes = _symmetrized_classes(G)
    picked = data.draw(st.lists(st.sampled_from(range(len(classes))),
                                min_size=1, max_size=2, unique=True))
    S = functools.reduce(np.logical_or, [classes[i] for i in picked])
    got = _quotient_clique(G, S, cap=cap)
    want = _classless_max_clique(_free_adjacency(G, ~S), cap)
    assert got[:cap] == want[:cap]
    assert min(len(got), cap) == min(len(want), cap)


# -- Ramsey table and its checkers


def test_ramsey_table():
    assert [ramsey_bound(2, m) for m in range(2, 6)] == [2, 3, 4, 5]
    assert ramsey_bound(3, 3) == 6
    assert ramsey_bound(3, 4) == ramsey_bound(4, 3) == 9
    assert ramsey_bound(3, 5) == 14
    assert ramsey_bound(4, 4) == 18


def test_ramsey_errors():
    with pytest.raises(InputError) as e:
        ramsey_bound(4, 5)
    assert e.value.code == "out_of_table"
    with pytest.raises(InputError) as e:
        ramsey_bound(1, 3)
    assert e.value.code == "invalid_parameters"


# exhaustive checkers of the small Ramsey numbers, which back the table
# of ramsey_bound


def ramsey_two_colorings_forced(N: int, s: int = 3, t: int = 3) -> bool:
    """True iff *every* red/blue coloring of K_N has a red K_s or blue K_t.

    Fully exhaustive over all 2^(N choose 2) colorings; meant for the
    (3,3) entries where that is 2^15 at most.
    """
    edges = [(i, j) for i in range(N) for j in range(i + 1, N)]
    eidx = {e: k for k, e in enumerate(edges)}
    cols = np.arange(1 << len(edges), dtype=np.int64)
    hit = np.zeros(len(cols), dtype=bool)
    from itertools import combinations
    for size, want_red in ((s, True), (t, False)):
        for verts in combinations(range(N), size):
            bits = [eidx[(a, b)] for a, b in combinations(verts, 2)]
            sub = np.zeros(len(cols), dtype=np.int64)
            for b in bits:
                sub += (cols >> b) & 1
            hit |= (sub == len(bits)) if want_red else (sub == 0)
    return bool(hit.all())


def ramsey_witness_graph(N: int, s: int, t: int) -> list[int] | None:
    """A graph on N vertices with clique < s and independence < t, or None.

    Vertex-incremental search: vertex k tries every adjacency mask into
    {0..k-1}, rejecting masks that complete an s-clique or a t-independent
    set (tracked incrementally as bitmasks, filtered with numpy).
    Returns adjacency bitmasks or None if no such graph exists — None at
    N = R(s,t) is exactly the arrow property.
    """
    cliques: list[list[int]] = [[] for _ in range(s)]    # by size 1..s-1
    indeps: list[list[int]] = [[] for _ in range(t)]
    adj: list[int] = []

    def dfs(k: int) -> list[int] | None:
        if k == N:
            return list(adj)
        masks = np.arange(1 << k, dtype=np.int64)
        bad = np.zeros(len(masks), dtype=bool)
        if cliques[s - 1]:
            cs = np.array(cliques[s - 1], dtype=np.int64)
            bad |= ((masks[:, None] & cs) == cs).any(axis=1)
        if indeps[t - 1]:
            ds = np.array(indeps[t - 1], dtype=np.int64)
            bad |= ((masks[:, None] & ds) == 0).any(axis=1)
        for m in map(int, masks[~bad]):
            added_c, added_i = [], []
            # snapshot lengths first: this vertex's additions must not feed
            # the larger sizes within the same update
            clens = [len(x) for x in cliques]
            ilens = [len(x) for x in indeps]
            for size in range(2, s):
                for c in cliques[size - 1][:clens[size - 1]]:
                    if c & m == c:
                        cliques[size].append(c | (1 << k))
                        added_c.append(size)
            for size in range(2, t):
                for d in indeps[size - 1][:ilens[size - 1]]:
                    if d & m == 0:
                        indeps[size].append(d | (1 << k))
                        added_i.append(size)
            cliques[1].append(1 << k)
            indeps[1].append(1 << k)
            adj.append(m)
            for i in range(k):
                if m >> i & 1:
                    adj[i] |= 1 << k
            got = dfs(k + 1)
            if got is not None:
                return got
            adj.pop()
            for i in range(k):
                adj[i] &= ~(1 << k)
            cliques[1].pop()
            indeps[1].pop()
            for size in reversed(added_c):
                cliques[size].pop()
            for size in reversed(added_i):
                indeps[size].pop()
        return None

    return dfs(0)


def test_ramsey_3_3_by_exhaustion():
    assert ramsey_two_colorings_forced(6, 3, 3)
    assert not ramsey_two_colorings_forced(5, 3, 3)


def test_ramsey_witness_graphs_frozen():
    assert ramsey_witness_graph(5, 3, 3) == [12, 24, 17, 3, 6]
    assert ramsey_witness_graph(6, 3, 3) is None
    assert ramsey_witness_graph(8, 3, 4) == [40, 80, 224, 193, 130, 5, 14, 28]


def test_ramsey_witness_graph_replay():
    from itertools import combinations
    adj = ramsey_witness_graph(8, 3, 4)
    for trio in combinations(range(8), 3):
        assert not all(adj[a] >> b & 1 for a, b in combinations(trio, 2))
    for quad in combinations(range(8), 4):
        assert any(adj[a] >> b & 1 for a, b in combinations(quad, 2))


# -- intersections of thick sets


def test_check_intersection_bound_frozen(cyc6):
    P = mask_from_indices(cyc6, [0, 1, 5])
    Q = mask_from_indices(cyc6, [0, 2, 4])
    assert check_intersection_bound(cyc6, P, Q) == {
        "thickness_P": 4, "thickness_Q": 3, "bound": 9,
        "thickness_intersection": 7, "holds": True}


def test_check_intersection_bound_preconditions(cyc12):
    with pytest.raises(InputError) as e:
        check_intersection_bound(cyc12, mask_from_indices(cyc12, [1, 11]),
                                 _arc(cyc12, 1))
    assert e.value.code == "precondition_violation"
    with pytest.raises(InputError) as e:
        check_intersection_bound(cyc12, _arc(cyc12, 1), _arc(cyc12, 1))
    assert e.value.code == "table_incomplete"  # R(7,7) is not tabulated


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_intersection_bound_random_pairs(cyc12, data):
    def draw_set():
        picks = data.draw(st.sets(st.integers(1, 11), min_size=3, max_size=9))
        idx = {0} | picks | {cyc12.inv(i) for i in picks}
        return mask_from_indices(cyc12, sorted(idx))

    P, Q = draw_set(), draw_set()
    try:
        assert check_intersection_bound(cyc12, P, Q)["holds"]
    except InputError as e:
        assert e.code == "table_incomplete"


# -- genericity and the subgroup certificate


def test_genericity_frozen(cyc6):
    assert genericity(cyc6, mask_from_indices(cyc6, [0, 1, 5])) == {
        "m": 2, "translators": [0, 3]}


def test_genericity_translators_cover(sym4):
    P = mask_from_indices(
        sym4, sorted({0, 1} | {sym4.inv(1)} | {2, sym4.inv(2)}))
    rep = genericity(sym4, P)
    covered = np.zeros(sym4.order, dtype=bool)
    for g in rep["translators"]:
        for a in np.nonzero(P)[0]:
            covered[sym4.mul(int(a), g)] = True
    assert covered.all()
    assert len(rep["translators"]) == rep["m"]


def _first_cover_form_level(G, P):
    """genericity's search order over form-level products: the least m, and
    the first cover found branching on the least uncovered element with
    its covering translators in index order."""
    p = [int(a) for a in np.nonzero(P)[0]]

    def search(uncovered, chosen, limit):
        if not uncovered:
            return chosen
        if len(chosen) == limit:
            return None
        x = min(uncovered)
        for g in sorted(G.mul(G.inv(a), x) for a in p):
            got = search(uncovered - {G.mul(a, g) for a in p}, chosen + [g],
                         limit)
            if got is not None:
                return got
        return None

    for m in range(1, G.order + 1):
        got = search(set(range(G.order)), [], m)
        if got is not None:
            return {"m": m, "translators": got}


@pytest.mark.parametrize("seed", range(6))
def test_genericity_matches_a_form_level_search(sym4, seed):
    """Random sets, neither symmetric nor normal, so that a translate
    taken on the wrong side would give other translators."""
    rng = np.random.default_rng(seed)
    P = mask_from_indices(sym4, rng.choice(24, size=4 + seed, replace=False))
    assert genericity(sym4, P) == _first_cover_form_level(sym4, P)


def test_genericity_errors(cyc6):
    with pytest.raises(InputError):
        genericity(cyc6, np.zeros(6, dtype=bool))
    with pytest.raises(CapExceeded) as e:
        genericity(cyc6, mask_from_indices(cyc6, [0]), cap=3)
    assert e.value.code == "search_exhausted"


def test_certificate_frozen(cyc6, cyc4=None):
    cert = generic_subgroup_certificate(cyc6, mask_from_indices(cyc6, [0, 1, 5]))
    assert cert["m"] == 2 and cert["power_exponent"] == 4
    assert cert["power_order"] == 6 and cert["index"] == 1
    assert cert["is_subgroup"] and cert["index_at_most_m"]
    assert cert["translators"] == [0, 3]  # genericity's cover, see above
    C4 = build_group(CycSpec(4))
    cert = generic_subgroup_certificate(C4, mask_from_indices(C4, [0, 2]))
    assert cert["m"] == 2 and cert["power_exponent"] == 4
    assert cert["power_order"] == 2 and cert["index"] == 2
    assert cert["is_subgroup"] and cert["index_at_most_m"]
    assert sorted(np.nonzero(cert["mask"])[0].tolist()) == [0, 2]
    cert = generic_subgroup_certificate(cyc6, np.ones(6, dtype=bool))
    assert cert["m"] == 1 and cert["power_exponent"] == 1  # P^1 = G, P^0 = {e}
    assert cert["power_order"] == 6 and cert["index"] == 1


def test_certificate_precondition(cyc6):
    with pytest.raises(InputError) as e:
        generic_subgroup_certificate(cyc6, mask_from_indices(cyc6, [1, 5]))
    assert e.value.code == "precondition_violation"


def test_normal_core_probe(cyc6):
    cert = generic_subgroup_certificate(cyc6, mask_from_indices(cyc6, [0, 1, 5]))
    rep = normal_core_probe(cyc6, cert)
    assert rep == {"experimental": True, "certificate_m": 2, "power_order": 6,
                   "core_order": 6, "core_index": 1, "core_thickness": 2}


# -- epimorphism transport


def test_preimage_thickness_equality():
    Q = build_group(parse_group_spec("Quot(Cyc(12),gen(6))"))
    X = mask_from_indices(Q, [0, 1, 5])
    assert preimage_thickness_check(Q, X) == {
        "thickness_image": 4, "thickness_preimage": 4, "holds": True}


def test_image_thickness_monotone(cyc12):
    Q = build_group(parse_group_spec("Quot(Cyc(12),gen(6))"))
    Z = mask_from_indices(cyc12, [0, 1, 11])
    assert image_thickness_check(Q, Z) == {
        "thickness_source": 7, "thickness_image": 4, "holds": True}


# -- power covers


def power_cover(G: FiniteGroup, P: np.ndarray, cap: int | None = None) -> dict:
    """Least n with P^n = G, or None with the stabilized union of powers;
    no library code calls it, and it stays here as a check of the oracle
    power_walk and of the products it takes.

    The power walk stops at the first repeated power (e.g. for
    parity-alternating sets); the union of all powers seen is the closure
    under the generated subsemigroup.
    """
    if cap is None:
        cap = 4 * G.order + 4
    if P.sum() == 0:
        return {"n": None, "cycle": False, "closure_order": 0}
    closure = np.zeros(G.order, dtype=bool)
    for k, cur in enumerate(power_walk(G, P, P), start=1):
        if k > cap:
            raise CapExceeded("search_exhausted", f"no cover after {cap} powers",
                              cap=cap)
        if cur.all():
            return {"n": k, "cycle": False, "closure_order": G.order}
        closure |= cur
    return {"n": None, "cycle": True, "closure_order": int(closure.sum())}


def test_power_cover(sym3):
    transpositions = sym3.class_mask(1)
    assert power_cover(sym3, transpositions) == {
        "n": None, "cycle": True, "closure_order": 6}
    with_e = transpositions | mask_from_indices(sym3, [0])
    assert power_cover(sym3, with_e) == {
        "n": 2, "cycle": False, "closure_order": 6}
    assert power_cover(sym3, np.zeros(6, dtype=bool)) == {
        "n": None, "cycle": False, "closure_order": 0}
    with pytest.raises(CapExceeded) as e:  # T^2 = Alt(3) is a new power
        power_cover(sym3, transpositions, cap=1)
    assert e.value.code == "search_exhausted"


# -- class-ball covering sets


def test_gn_set_frozen(cyc6, sym3, alt5):
    assert np.nonzero(gn_set(cyc6, 1))[0].tolist() == []
    assert np.nonzero(gn_set(cyc6, 3))[0].tolist() == [1, 5]
    assert np.nonzero(gn_set(sym3, 2))[0].tolist() == [1, 3, 5]
    assert np.nonzero(gn_set(sym3, 5))[0].tolist() == [1, 3, 5]
    assert [int(gn_set(alt5, N).sum()) for N in range(5)] == [0, 0, 35, 59, 59]


def test_gn_set_negative_radius(cyc6):
    with pytest.raises(InputError):
        gn_set(cyc6, -1)


def test_gn_set_is_class_and_inverse_closed(sym4):
    for N in (2, 3):
        gn = gn_set(sym4, N)
        for i in np.nonzero(gn)[0]:
            assert gn[sym4.inv(int(i))]
            assert (gn[sym4.class_mask(int(i))]).all()


def test_gn_product_distribution_truth_table(alt5, sym3, a5xs3):
    """The distribution law over a direct product is NOT a theorem.

    Verified truth table for (Alt(5), Sym(3)): radius 2 fails because a
    length-k word over cl(g) x cl(h) forces length-k words in *both*
    coordinates — the target (e, transposition) needs odd length in the
    second coordinate but cannot close the first at length 1.
    """
    expected = {
        0: (True, 0, 0), 1: (True, 0, 0), 2: (False, 0, 105),
        3: (False, 105, 177), 4: (True, 177, 177)}
    for N, (holds, size_p, size_e) in expected.items():
        rep = gn_product_check(alt5, sym3, a5xs3, N)
        assert rep["holds"] == holds
        assert rep["size_product"] == size_p
        assert rep["size_expected"] == size_e
        if holds:
            assert rep["counterexample"] is None
    # pinned first counterexamples
    ce2 = gn_product_check(alt5, sym3, a5xs3, 2)["counterexample"]
    assert ce2 == {"index": 8, "in_product_set": False, "in_factor_product": True}
    ce3 = gn_product_check(alt5, sym3, a5xs3, 3)["counterexample"]
    assert ce3 == {"index": 10, "in_product_set": False, "in_factor_product": True}


def test_gn_product_containment_direction(alt5, sym3, a5xs3):
    """One inclusion IS a theorem: gn(GxH, N) ⊆ gn(G, N) x gn(H, N)."""
    for N in range(5):
        gn_p = gn_set(a5xs3, N)
        gn_g, gn_h = gn_set(alt5, N), gn_set(sym3, N)
        for i in np.nonzero(gn_p)[0]:
            fg, fh = a5xs3.elements[int(i)]
            assert gn_g[alt5.index[fg]] and gn_h[sym3.index[fh]]


def gn_image_check(Q: FiniteGroup, N: int) -> dict:
    """Epimorphic image law: f[gn_set(G, N)] ⊆ gn_set(Q, N), a check of
    :func:`gn_set` on a quotient and its parent."""
    proj = quotient_projection(Q)
    src = gn_set(Q.parent, N)
    img = np.zeros(Q.order, dtype=bool)
    img[proj[np.nonzero(src)[0]]] = True
    tgt = gn_set(Q, N)
    return {"holds": bool((img <= tgt).all()),
            "image_size": int(img.sum()), "target_size": int(tgt.sum())}


def test_parent_is_the_group_a_quotient_or_an_extension_came_from(sl25, sym4):
    """Only a quotient projects: an extension keeps its base as its parent
    too, and a group built from a family keeps none."""
    psl = build_group(parse_group_spec("Quot(SL(2,5),center)"))
    assert psl.parent.spec == sl25.spec and psl.parent.elements == sl25.elements
    base, p, table = carry_cocycle()
    E = build_extension(base, p, table)
    assert E.parent.elements == base.elements
    assert sym4.parent is None
    for G in (E, sym4):
        with pytest.raises(InputError) as e:
            quotient_projection(G)
        assert e.value.code == "group_mismatch"
        with pytest.raises(InputError) as e:
            preimage_thickness_check(G, np.ones(G.order, dtype=bool))
        assert e.value.code == "group_mismatch"


def test_gn_image_check():
    Q = build_group(parse_group_spec("Quot(Cyc(12),gen(6))"))
    assert gn_image_check(Q, 3) == {
        "holds": True, "image_size": 0, "target_size": 2}
    psl = build_group(parse_group_spec("Quot(SL(2,5),center)"))
    for N in (2, 3):
        assert gn_image_check(psl, N)["holds"]


# -- bounded simplicity and covering numbers


def test_bounded_simplicity_sym3(sym3):
    got = bounded_simplicity_degree(sym3)
    assert got == {"value": None, "witness": 2, "stabilized_order": 3}
    # the witness is a 3-cycle whose ball really does stall on Alt(3)
    from glab.groupcore import element_text
    assert element_text(sym3, got["witness"]) == "(1,2,3)"


def test_bounded_simplicity_alt5(alt5):
    assert bounded_simplicity_degree(alt5) == {
        "value": 3, "witness": None,
        "per_class": [{"rep": 1, "radius": 2}, {"rep": 2, "radius": 3},
                      {"rep": 4, "radius": 3}, {"rep": 9, "radius": 2}]}


@pytest.mark.parametrize("spec, value", [
    ("Alt(8)", 4), ("SL(2,23)", 3), ("SL(2,31)", 3),
    ("Sym(8)", None),  # the balls of the even classes stay in Alt(8)
])
def test_bounded_simplicity_at_scale(hang_guard, spec, value):
    """Groups of 12,144 to 40,320 elements: the class walks need one row
    per class, where one row per element of Sym(8) would take 13 GB."""
    G = build_group(parse_group_spec(spec))
    assert bounded_simplicity_degree(G)["value"] == value


def test_bounded_simplicity_cap(alt5):
    with pytest.raises(CapExceeded) as e:  # every class needs radius >= 2
        bounded_simplicity_degree(alt5, cap=1)
    assert e.value.code == "search_exhausted"


def test_bounded_simplicity_degenerate(cyc6):
    with pytest.raises(InputError) as e:
        bounded_simplicity_degree(cyc6)
    assert e.value.code == "degenerate_abelian"


def test_covering_number_alt5(alt5):
    assert covering_number(alt5) == {
        "value": 3,
        "per_class": [{"rep": 1, "power": 2}, {"rep": 2, "power": 3},
                      {"rep": 4, "power": 3}, {"rep": 9, "power": 2}]}


def test_covering_number_rejects_non_simple(sym3, cyc6):
    for G in (sym3, cyc6):
        with pytest.raises(InputError) as e:
            covering_number(G)
        assert e.value.code == "not_simple_nonabelian"


# -- spread sequences


def test_spread_length_frozen(cyc5):
    """The longest sequence with quotients in {2, 3} is the clique [0, 2]."""
    assert _quotient_clique(cyc5, mask_from_indices(cyc5, [2, 3])) == [0, 2]


def test_spread_length_of_gn_ball(alt5):
    """bounded_simplicity_degree(Alt(5)) = 3 and gn(Alt(5), 3) is everything
    but e, so every sequence of distinct elements qualifies: the clique
    search capped at |G| takes the whole group."""
    assert _quotient_clique(alt5, gn_set(alt5, 3), cap=60) == list(range(60))
