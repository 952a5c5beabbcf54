"""Thick sets: thickness, Ramsey intersections, genericity, class balls."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glab.errors import CapExceeded, InputError
from glab.groupcore import (
    CycSpec,
    build_group,
    mask_from_indices,
    parse_element,
    parse_group_spec,
)
from glab.thickset import (
    bounded_simplicity_degree,
    check_intersection_bound,
    covering_number,
    generic_subgroup_certificate,
    genericity,
    gn_image_check,
    gn_product_check,
    gn_set,
    image_thickness_check,
    normal_core_probe,
    power_cover,
    preimage_thickness_check,
    ramsey_bound,
    ramsey_two_colorings_forced,
    ramsey_witness_graph,
    spread_length,
    thickness,
)


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
    assert spread_length(cyc5, mask_from_indices(cyc5, [2, 3])) == {
        "value": 2, "witness": [0, 2], "status": "exact"}


def test_spread_length_of_gn_ball(alt5):
    """bounded_simplicity_degree(Alt(5)) = 3 and gn(Alt(5), 3) is everything
    but e, so arbitrarily long sequences qualify: the cap (=|G|) is hit."""
    rep = spread_length(alt5, gn_set(alt5, 3))
    assert rep["value"] == 60 and rep["status"] == "capped"


def test_spread_length_identity_inside(cyc6):
    rep = spread_length(cyc6, mask_from_indices(cyc6, [0, 3]))
    assert rep == {"value": 6, "witness": [0] * 6, "status": "capped"}


def test_spread_length_empty_and_asymmetric(cyc6):
    assert spread_length(cyc6, np.zeros(6, dtype=bool)) == {
        "value": 1, "witness": [0], "status": "exact"}
    with pytest.raises(InputError):
        spread_length(cyc6, mask_from_indices(cyc6, [1]))
