"""Group engine: enumeration order, arithmetic, structure, text forms."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glab import groupcore
from glab.errors import CapExceeded, InputError
from glab.groupcore import (
    AbSpec,
    CycSpec,
    QuotientSpec,
    SymSpec,
    abelian_invariants,
    ball_mask,
    ball_walk,
    build_group,
    commutator_mask,
    commutator_width,
    derived_subgroup,
    element_text,
    inverse_mask,
    is_normal_mask,
    is_subgroup_mask,
    is_symmetric_mask,
    mask_from_indices,
    parse_element,
    parse_group_spec,
    product_mask,
    quotient_projection,
)
from glab.chevalley import class_cube, regular_diagonals
from glab.permfact import class_word_distance
from glab.thickset import bounded_simplicity_degree, gn_set, thickness
from walk_oracles import class_walk, power_walk


# -- enumeration is canonical: these orderings are load-bearing for witnesses


def test_ab_4_2_enumeration_order(ab42):
    assert ab42.elements == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]


def test_sym3_enumeration_order(sym3):
    assert [element_text(sym3, i) for i in range(6)] == [
        "e", "(1,2)", "(1,2,3)", "(2,3)", "(1,3,2)", "(1,3)"]


def test_identity_is_index_zero(sym4, sl25, cyc6):
    for G in (sym4, sl25, cyc6):
        assert G.elements[0] == G._model.identity


# -- arithmetic


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_group_axioms_sampled(sym4, data):
    n = sym4.order
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert sym4.mul(sym4.mul(a, b), c) == sym4.mul(a, sym4.mul(b, c))
    assert sym4.mul(a, sym4.inv(a)) == 0
    assert sym4.mul(0, a) == a == sym4.mul(a, 0)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_conj_and_comm_identities(sl25, data):
    n = sl25.order
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    # a^b = b^-1 a b,  [a,b] = a^-1 a^b
    assert sl25.conj(a, b) == sl25.mul(sl25.mul(sl25.inv(b), a), b)
    assert sl25.comm(a, b) == sl25.mul(sl25.inv(a), sl25.conj(a, b))


def test_power_matches_repeated_mul(cyc7):
    for a in range(7):
        acc = 0
        for k in range(15):
            assert cyc7.power(a, k) == acc
            acc = cyc7.mul(acc, a)
        assert cyc7.power(a, -1) == cyc7.inv(a)


def test_cayley_row(sym3):
    for a in range(6):
        row = sym3.row(a)
        assert [int(row[b]) for b in range(6)] == [sym3.mul(a, b) for b in range(6)]


# -- structure


def test_alt5_is_perfect_with_five_classes(alt5):
    assert alt5.is_perfect()
    _, reps = alt5.conjugacy_classes()
    assert len(reps) == 5
    assert sorted(int(alt5.class_mask(r).sum()) for r in reps) == [1, 12, 12, 15, 20]


def test_class_mask_is_conjugation_invariant(sym4):
    cid, reps = sym4.conjugacy_classes()
    for r in reps:
        mask = sym4.class_mask(r)
        for g in sym4.generators:
            assert mask[sym4.conj(r, g)]


def test_center_of_sl25_is_plus_minus_identity(sl25):
    center = np.nonzero(sl25.center_mask())[0]
    assert [sl25.elements[int(i)] for i in center] == [(1, 0, 0, 1), (4, 0, 0, 4)]


def test_abelian_invariants():
    assert abelian_invariants(build_group(AbSpec((4, 2)))) == (2, 4)
    assert abelian_invariants(build_group(CycSpec(6))) == (6,)
    assert abelian_invariants(build_group(AbSpec((2, 2, 2)))) == (2, 2, 2)


def test_commutator_width_abelian_edge(cyc6):
    # derived subgroup {e}, which the walk of the commutators starts at
    assert commutator_width(cyc6) == 1  # e = [e,e]
    assert commutator_width(build_group(CycSpec(1))) == 1


# -- subset arithmetic on index masks


def test_product_mask_brute_force(sym3):
    a = mask_from_indices(sym3, [1, 2])
    b = mask_from_indices(sym3, [0, 5])
    prod = product_mask(sym3, a, b)
    expect = {sym3.mul(x, y) for x in [1, 2] for y in [0, 5]}
    assert set(np.nonzero(prod)[0].tolist()) == expect


@functools.cache
def _group(spec):
    return build_group(parse_group_spec(spec))


def _product_oracle(G, a_mask, b_mask):
    """The union of the rows of every a in A at B; the rows are walked
    afresh from the enumeration tree, outside the group's row cache."""
    out = np.zeros(G.order, dtype=bool)
    for a in np.flatnonzero(a_mask).tolist():
        out[G._tree.row(a)[b_mask]] = True
    return out


@pytest.mark.parametrize("spec", ["Alt(5)", "Sym(5)", "SL(2,7)", "Sym(6)",
                                  "SL(3,3)", "Cyc(12)", "Prod(Cyc(8),Sym(3))"])
@given(data=st.data())
@settings(derandomize=True, max_examples=8, deadline=None)
def test_product_of_class_unions_matches_every_row(spec, data):
    """Unions of classes take one class step, from the class table or (for
    Cyc(12) and Prod(Cyc(8),Sym(3)), too many classes for one) from one
    row per class of A; the product must be the union over every element
    of A."""
    G = _group(spec)
    cid, reps = G.conjugacy_classes()
    classes = st.sets(st.integers(0, len(reps) - 1), max_size=4)
    A = np.isin(cid, sorted(data.draw(classes)))
    B = np.isin(cid, sorted(data.draw(classes)))
    assert (product_mask(G, A, B) == _product_oracle(G, A, B)).all()


def test_product_of_a_non_normal_set_takes_every_row(sym4, monkeypatch):
    """A non-normal product walks the rows of its smaller factor: of A
    when |A| <= |B|, and of B^-1 when |A| > |B|."""
    walked = []
    rows = sym4.rows
    monkeypatch.setattr(sym4, "rows",
                        lambda e: walked.extend(e.tolist()) or rows(e))
    T = sym4.class_mask(1)  # the transpositions, a class
    inv = sym4.inverses()
    c = int(np.flatnonzero(inv != np.arange(sym4.order))[0])  # c^-1 != c
    pair, other = mask_from_indices(sym4, [0, c]), mask_from_indices(sym4, [1, 3])
    for A, B, want in [(pair, T, [0, c]),
                       (T, pair, [0, int(inv[c])]),
                       (pair, other, [0, c])]:
        walked.clear()
        assert (product_mask(sym4, A, B) == _product_oracle(sym4, A, B)).all()
        assert walked == want


@pytest.mark.parametrize("spec", ["Sym(4)", "SL(2,5)", "Quot(SL(2,7),center)",
                                  "Cyc(12)", "Prod(Cyc(8),Sym(3))"])
@given(data=st.data())
@settings(derandomize=True, max_examples=8, deadline=None)
def test_class_walk_matches_iterated_products(spec, data):
    """Steps a ↦ a·s of ``_class_step`` from any union of classes A, and
    ``product_mask`` on their masks, through the oracle walks: A, A·S,
    A·S², ... from the element-level product, up to the first repeat."""
    G = _group(spec)
    cid, reps = G.conjugacy_classes()
    classes = st.sets(st.integers(0, len(reps) - 1), max_size=4)
    a = np.isin(np.arange(len(reps)), sorted(data.draw(classes)))
    s = np.isin(np.arange(len(reps)), sorted(data.draw(classes)))
    want, cur = [], a[cid]
    while not any((cur == w).all() for w in want):
        want.append(cur)
        cur = _product_oracle(G, cur, s[cid])
    walk = [v[cid] for v in class_walk(G, a, s)]
    assert np.array_equal(walk, want)
    assert np.array_equal(list(power_walk(G, a[cid], s[cid])), want)


def test_class_walks_keep_memory_bounded():
    """Cyc(1000) (c = |G|) and Prod(Cyc(8),Sym(3)) (c^2 = 12·|G|) have too
    many classes for the c^3-byte class table and never build it; SL(2,11)
    builds it from uncached rows and keeps no Cayley row."""
    cyc = build_group(parse_group_spec("Cyc(1000)"))
    assert class_word_distance(cyc, 1, 500)["k"] == 500
    assert gn_set(cyc, 1).sum() == 0
    prod = build_group(parse_group_spec("Prod(Cyc(8),Sym(3))"))
    assert len(prod.conjugacy_classes()[1]) ** 2 > 8 * prod.order
    assert bounded_simplicity_degree(prod)["value"] is None
    assert gn_set(prod, 4).sum() == 0
    assert cyc._class_table is None and prod._class_table is None
    G = build_group(parse_group_spec("SL(2,11)"))
    T = G.class_mask(1)
    assert bounded_simplicity_degree(G)["value"] is not None
    assert gn_set(G, 3).any()
    assert class_word_distance(G, 1, G.order - 1)["k"] is not None
    for m in regular_diagonals(2, 11):
        assert class_cube(G, G.index[m])["cube_is_group"]
    assert ball_walk(G, T, math.inf).k > 1
    assert product_mask(G, T, T).any()
    assert G._class_table is not None


def _row_per_class_walk(G, a, s):
    """The class walk with one Cayley row per class of the current vector
    at every step, the step groups above the class-table size rule took
    before they stepped through right maps of S's elements."""
    cid, reps = G.conjugacy_classes()
    b_idx, rows = np.flatnonzero(s[cid]), {}
    walk = []
    while not any((a == w).all() for w in walk):
        walk.append(a)
        a = np.zeros(len(reps), dtype=bool)
        for i in np.flatnonzero(walk[-1]).tolist():
            if i not in rows:
                rows[i] = G._tree.row(reps[i])
            a[cid[rows[i][b_idx]]] = True
    return walk


@pytest.mark.parametrize("spec", ["Cyc(1000)", "Prod(Cyc(8),Sym(3))"])
def test_class_walk_through_right_maps(spec):
    """Above the size rule a step takes right maps of S's elements once S
    is no larger than the current vector; the walk is the one that rows
    of the classes gave, on seeded S of 1 to 6 classes and A of 1 to 40
    (or all) classes."""
    G = build_group(parse_group_spec(spec))
    c = len(G.conjugacy_classes()[1])
    assert c ** 2 > 8 * G.order
    rng = np.random.default_rng(7)
    for size_s, size_a in [(1, 1), (2, 1), (3, 9), (6, 2), (6, 40)]:
        a, s = (np.isin(np.arange(c), rng.choice(c, min(k, c), replace=False))
                for k in (size_a, size_s))
        want = _row_per_class_walk(G, a, s)
        assert np.array_equal(list(class_walk(G, a, s)), want)


def test_a_long_class_walk_keeps_one_row(monkeypatch):
    """Cyc(3000) from 1 to 1500: one right map, walked once, where the row
    per class step walked 1499 rows."""
    G = build_group(parse_group_spec("Cyc(3000)"))
    G.conjugacy_classes()  # walks the generator's row for the inverses
    walked = []
    row = G._tree.row
    monkeypatch.setattr(G._tree, "row", lambda a: walked.append(a) or row(a))
    assert class_word_distance(G, 1, 1500) == {"k": 1500}
    assert len(walked) <= 1


def test_bounded_simplicity_degree_builds_one_row_per_class(monkeypatch):
    """SL(3,3) built all of its 5616 rows with one row per element of A."""
    G = build_group(parse_group_spec("SL(3,3)"))
    _, reps = G.conjugacy_classes()  # walks the inverse rows first
    G.center_mask()
    built = []
    row = G._tree.row
    monkeypatch.setattr(G._tree, "row", lambda a: built.append(a) or row(a))
    assert bounded_simplicity_degree(G)["value"] == 3
    assert len(built) <= len(reps) == 12


def _peak_mib(f) -> float:
    """Peak traced allocation of f(), in MiB."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_commutator_width_walks_rows_in_batches():
    """SL(2,13): the commutators come from batches of rows; keeping all
    2,184 rows took 37 MiB."""
    G = build_group(parse_group_spec("SL(2,13)"))
    G.conjugacy_classes()
    assert _peak_mib(lambda: commutator_width(G)) < 8


def test_a_non_normal_power_walk_keeps_no_rows():
    """The four powers of a seeded symmetric, non-normal set P of odd
    permutations in Sym(7), and its balls, walk at most |P| + 1 rows a
    step and keep none; keeping the rows of every power took 184 MiB."""
    G = build_group(parse_group_spec("Sym(7)"))
    odd = np.flatnonzero(~G.derived_mask())
    x = np.random.default_rng(5).choice(odd, 40, replace=False)
    P = mask_from_indices(G, x) | mask_from_indices(G, G.inverses()[x])
    assert not is_normal_mask(G, P)
    walk = power_walk(G, P, P)
    assert _peak_mib(lambda: [next(walk) for _ in range(4)]) < 16
    assert next(walk, None) is None  # P^3 = P^5 = the odd permutations
    assert _peak_mib(lambda: ball_walk(G, P, 4)) < 16


@pytest.mark.parametrize("spec", ["Alt(5)", "Cyc(24)", "SL(2,7)"])
def test_row_batch_size_changes_no_result(spec, monkeypatch):
    """One row per batch, or three, gives the class table, the thickness
    witness, non-normal products and the commutators of the default batch."""
    def results():
        G = build_group(parse_group_spec(spec))
        rng = np.random.default_rng(11)
        inv = G.inverses()
        Q = mask_from_indices(G, rng.choice(G.order, 6, replace=False))
        P = ~(Q | Q[inv])
        P[0] = True
        A, B = (mask_from_indices(G, rng.choice(G.order, k, replace=False))
                for k in (5, 9))
        return (G.class_table(), thickness(G, P)["witness"],
                product_mask(G, A, B), product_mask(G, B, A),
                commutator_mask(G))

    want = results()
    order = build_group(parse_group_spec(spec)).order
    for batch in (order, 3 * order):
        monkeypatch.setattr(groupcore, "ROW_BATCH", batch)
        for got, expected in zip(results(), want):
            assert np.array_equal(got, expected)


def test_ball_mask_levels(cyc6):
    step = mask_from_indices(cyc6, [1])
    balls = [ball_mask(cyc6, step, n) for n in range(4)]
    assert [sorted(np.nonzero(b)[0].tolist()) for b in balls] == [
        [0], [0, 1], [0, 1, 2], [0, 1, 2, 3]]
    # monotone in the radius
    for small, big in zip(balls, balls[1:]):
        assert (small <= big).all()


def test_power_walk_stops_before_first_repeat(cyc6, sym3):
    """The kept power walks {e}, S, S², ... of the class of 1 in Cyc(6) and
    of the transpositions T in Sym(3) stop at S^k once S^(k+1) repeats."""
    cid = cyc6.conjugacy_classes()[0]
    walk = cyc6.class_walk_of("power", int(cid[1]))
    assert (walk.k, walk.done, walk.full) == (5, True, None)
    assert [np.flatnonzero(v[cid]).tolist() for v in walk.states()] == [
        [0], [1], [2], [3], [4], [5]]
    # T, T^2 = Alt(3), then T again
    cid = sym3.conjugacy_classes()[0]
    T = sym3.class_mask(1)
    walk = sym3.class_walk_of("power", int(cid[1]))
    assert (walk.k, walk.done, walk.full) == (2, True, None)
    states = [v[cid] for v in walk.states()]
    assert (states[1] == T).all() and np.flatnonzero(states[2]).tolist() == [0, 2, 4]


@pytest.mark.parametrize("spec", ["Sym(4)", "SL(2,3)"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_ball_mask_matches_word_enumeration(spec, data):
    """ball_mask against words of length <= r multiplied out by mul_form,
    and ball_walk's states, k, full and done against the balls of every
    radius up to the first that is G or adds nothing."""
    G = build_group(parse_group_spec(spec))
    S = data.draw(st.sets(st.integers(0, G.order - 1), max_size=4))
    r = data.draw(st.integers(0, 4))
    balls = [{G.elements[0]}]
    layer = set(balls[0])
    while len(balls[-1]) < G.order and (len(balls) < 2 or balls[-1] != balls[-2]):
        layer = {G.mul_form(f, G.elements[s]) for f in layer for s in S}
        balls.append(balls[-1] | layer)
    stop = len(balls) - 1 if len(balls[-1]) == G.order else len(balls) - 2
    mask = mask_from_indices(G, sorted(S))
    got = ball_mask(G, mask, r)
    assert {G.elements[int(i)] for i in np.nonzero(got)[0]} == balls[min(r, stop)]
    walk = ball_walk(G, mask, math.inf)
    assert [{G.elements[int(i)] for i in np.flatnonzero(b)}
            for b in walk.states()] == balls[:stop + 1]
    full = stop if len(balls[stop]) == G.order else None
    assert (walk.k, walk.full, walk.done) == (stop, full, full is None)
    assert ball_walk(G, mask, r).k == min(r, stop)


def test_inverse_and_symmetry(sym3):
    m = mask_from_indices(sym3, [2])  # a 3-cycle
    assert not is_symmetric_mask(sym3, m)
    assert is_symmetric_mask(sym3, m | inverse_mask(sym3, m))


def test_subgroup_masks(sym4):
    assert is_subgroup_mask(sym4, sym4.derived_mask())
    assert not is_subgroup_mask(sym4, mask_from_indices(sym4, [0, 1, 2]))
    three = sym4.subgroup_closure([parse_element(sym4, "(1,2,3)")])
    assert int(three.sum()) == 3 and is_subgroup_mask(sym4, three)


def _all_commutators_closure(G, H):
    """[H, H] by brute force: the subgroup generated by [a, b] for every
    pair in H, over form-level products."""
    members = np.flatnonzero(H).tolist()
    return G.subgroup_closure(sorted({G.comm(a, b) for a in members
                                      for b in members}))


@given(st.sampled_from(["Sym(4)", "SL(2,3)", "SL(2,5)", "Alt(5)"]), st.data())
@settings(max_examples=40, deadline=None)
def test_derived_subgroup_matches_all_commutators(spec, data):
    G = _group(spec)
    seeds = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    H = G.subgroup_closure(seeds)
    assert (derived_subgroup(G, H) == _all_commutators_closure(G, H)).all()


@pytest.mark.parametrize("spec, order", [("Sym(4)", 12), ("SL(2,3)", 8),
                                         ("SL(2,5)", 120), ("Alt(5)", 60)])
def test_derived_mask_matches_all_commutators(spec, order):
    G = _group(spec)
    D = G.derived_mask()
    assert int(D.sum()) == order
    assert (D == _all_commutators_closure(G, np.ones(G.order, dtype=bool))).all()


def test_normal_closure(sym4):
    double = parse_element(sym4, "(1,2)(3,4)")
    v4 = sym4.normal_closure_mask(mask_from_indices(sym4, [double]))
    assert int(v4.sum()) == 4 and is_subgroup_mask(sym4, v4)


# -- derived constructions: products and quotients


def test_product_group_componentwise(a5xs3, alt5, sym3):
    assert a5xs3.order == 360
    ga, gb = a5xs3.elements[3], a5xs3.elements[7]
    prod = a5xs3.mul(3, 7)
    la, ra = ga
    lb, rb = gb
    assert a5xs3.elements[prod] == (alt5.mul_form(la, lb), sym3.mul_form(ra, rb))


def test_quotient_projection_is_homomorphism(cyc12):
    Q = build_group(parse_group_spec("Quot(Cyc(12),gen(6))"))
    assert Q.order == 6
    proj = quotient_projection(Q)
    parent = Q.parent
    for a in range(parent.order):
        for b in range(parent.order):
            assert proj[parent.mul(a, b)] == Q.mul(int(proj[a]), int(proj[b]))


def test_quotient_by_center_of_sl25():
    Q = build_group(parse_group_spec("Quot(SL(2,5),center)"))
    assert Q.order == 60
    assert Q.is_perfect()
    _, reps = Q.conjugacy_classes()
    assert len(reps) == 5  # PSL(2,5) is Alt(5) in disguise


# -- element text round-trips


def test_round_trip_texts(sym4, sl25, ab42):
    for G in (sym4, sl25, ab42):
        for i in range(G.order):
            assert parse_element(G, element_text(G, i)) == i


def test_parse_element_rejects_garbage(sym3):
    with pytest.raises(InputError):
        parse_element(sym3, "(1,7)")
    with pytest.raises(InputError):
        parse_element(sym3, "totally not an element")


# -- spec parsing and caps


def test_parse_group_spec_errors():
    with pytest.raises(InputError) as e:
        parse_group_spec("Foo(3)")
    assert e.value.code == "syntax_error"
    with pytest.raises(InputError):
        parse_group_spec("Cyc(6) trailing")


def test_order_cap():
    with pytest.raises(CapExceeded) as e:
        build_group(parse_group_spec("Sym(9)"))
    assert e.value.code == "order_cap_exceeded"
    assert e.value.details["order"] == 362880


@pytest.mark.parametrize("spec, details", [
    ("Alt(10)", {"cap": 100000, "order": 1814400}),
    ("Prod(Sym(7),Sym(7))", {"cap": 100000, "order": 5040 ** 2}),
    ("Sym(69)", {"cap": 100000, "order": math.factorial(69)}),
    ("Sym(70)", {"cap": 100000}),  # 70! > 10^100: not multiplied out
    ("Cyc(" + "9" * 4000 + ")", {"cap": 100000}),
    ("Ab(1000000,1000000)", {"cap": 100000, "order": 10 ** 12}),
    ("SL(2,1000000000000000003)",
     {"cap": 100000, "order": (10 ** 18 + 3) ** 3 - (10 ** 18 + 3)}),
    ("SL(3,1000000000000000003)", {"cap": 100000}),
])
def test_order_cap_names_only_small_orders(spec, details):
    with pytest.raises(CapExceeded) as e:
        build_group(parse_group_spec(spec))
    assert e.value.code == "order_cap_exceeded"
    assert e.value.details == details


def test_parsing_builds_no_group(monkeypatch):
    """A Quot spec names its seeds; the caller's build resolves them."""
    import glab.groupcore as groupcore

    def refuse(*args, **kwargs):
        raise AssertionError("parsing built a group")

    monkeypatch.setattr(groupcore, "build_group", refuse)
    assert parse_group_spec("Quot(Sym(9),center)") == QuotientSpec(
        SymSpec(9), "center")
    assert parse_group_spec("Quot(Sym(4),gen((1,2)(3,4);e))") == QuotientSpec(
        SymSpec(4), ((1, 0, 3, 2), (0, 1, 2, 3)))
    assert parse_group_spec("Quot(Cyc(12),gen())") == QuotientSpec(
        CycSpec(12), ())


def test_quotient_is_built_under_the_callers_cap():
    with pytest.raises(CapExceeded) as e:
        build_group(parse_group_spec("Quot(Sym(7),center)"), cap=100)
    assert e.value.details == {"cap": 100, "order": 5040}


def test_quotient_seeds_resolve_like_parse_element():
    with pytest.raises(InputError) as e:
        build_group(parse_group_spec("Quot(SL(2,5),gen(1,1,1,1))"))
    assert e.value.code == "group_mismatch"
    Q = build_group(parse_group_spec("Quot(SL(2,5),center)"))
    with pytest.raises(InputError) as e:
        parse_element(Q, "1,1,1,1")
    assert e.value.code == "group_mismatch"
    # a quotient of a quotient reads elements of the innermost parent
    QQ = build_group(parse_group_spec(
        "Quot(Quot(Sym(4),gen((1,2)(3,4))),gen((1,2,3)))"))
    assert QQ.order == 2
    assert parse_element(QQ, "(1,3)(2,4)") == parse_element(QQ, "(2,3,4)") == 0
    assert parse_element(QQ, "(1,2)") == parse_element(QQ, "(1,2,3,4)") == 1


def test_quotient_seed_with_zero_modulus():
    with pytest.raises(InputError) as e:
        parse_group_spec("Quot(Cyc(0),gen(1))")
    assert e.value.code == "invalid_parameters"
