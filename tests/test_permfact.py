"""Disjoint-cycle surgery identities and two-factor expressions."""

import numpy as np
import pytest
from collections import Counter

from glab.errors import InputError, PropertyFailure
from glab.groupcore import (
    element_text,
    parse_element,
    perm_compose,
    perm_inverse,
)
from glab.permfact import (
    class_word_distance,
    cycle_perm,
    cycle_quotient,
    express_even,
    merge_split,
    scan_cycle_quotient,
    scan_merge,
)


def _alt5_small_support_set(alt5):
    P = alt5.class_mask(0).copy()
    P |= alt5.class_mask(parse_element(alt5, "(1,2)(3,4)"))
    P |= alt5.class_mask(parse_element(alt5, "(1,2,3)"))
    return P


# -- cycle builder


def test_cycle_perm_basics():
    assert cycle_perm(6, (1, 4, 5, 3, 2)) == (3, 0, 1, 4, 2, 5)
    assert cycle_perm(4, ()) == (0, 1, 2, 3)
    assert cycle_perm(4, (2,)) == (0, 1, 2, 3)
    with pytest.raises(InputError) as e:
        cycle_perm(5, (1, 9))
    assert e.value.code == "invalid_parameters"
    with pytest.raises(InputError):
        cycle_perm(5, (1, 2, 1))


# -- the two surgery identities, single instances


def test_cycle_quotient_example():
    got = cycle_quotient(6, 1, (2, 3), (4, 5))
    assert got == {"result": (3, 0, 1, 4, 2, 5), "text": "(1,4,5,3,2)"}
    # independent recomposition: (x,a)^-1 then (x,b), right-to-left
    lhs = perm_compose(perm_inverse(cycle_perm(6, (1, 2, 3))),
                       cycle_perm(6, (1, 4, 5)))
    assert lhs == got["result"] == cycle_perm(6, (1, 4, 5, 3, 2))


def test_merge_split_example():
    got = merge_split(8, 1, 2, (3, 4, 5), (6, 7, 8))
    assert got["text"] == "(1,3,4,5)(2,6,7,8)"
    lhs = perm_compose(cycle_perm(8, (1, 2, 3, 4, 5)),
                       cycle_perm(8, (1, 2, 6, 7, 8)))
    rhs = perm_compose(cycle_perm(8, (1, 3, 4, 5)), cycle_perm(8, (2, 6, 7, 8)))
    assert lhs == rhs == got["result"]


def test_surgery_input_errors():
    with pytest.raises(InputError) as e:
        cycle_quotient(6, 1, (2, 3), (4,))
    assert e.value.code == "length_mismatch"
    with pytest.raises(InputError) as e:
        cycle_quotient(6, 1, (2, 3), (3, 5))
    assert e.value.code == "overlap_violation"
    with pytest.raises(InputError) as e:
        merge_split(8, 1, 2, (3, 4), (6, 7))
    assert e.value.code == "even_length"
    with pytest.raises(InputError) as e:
        merge_split(8, 1, 1, (3, 4, 5), (6, 7, 8))
    assert e.value.code == "overlap_violation"


# -- exhaustive scans (small degrees; degree 12 is the acceptance run)


def test_scan_cycle_quotient_degree7():
    assert scan_cycle_quotient(7, 2) == {
        "n": 7, "counts": {0: 7, 1: 210, 2: 2520}, "total": 2737}


def test_scans_refuse_too_few_points():
    with pytest.raises(InputError) as e:
        scan_cycle_quotient(3, 2)  # x, a and b need 2 * 2 + 1 = 5 points
    assert e.value.code == "invalid_parameters"
    with pytest.raises(InputError) as e:
        scan_cycle_quotient(7, -1)  # would check nothing
    assert e.value.code == "invalid_parameters"
    assert scan_cycle_quotient(5, 2)["counts"] == {0: 5, 1: 60, 2: 120}
    with pytest.raises(InputError) as e:
        scan_merge(3, half_max=1)  # the least shape (1, 1) needs 4 points
    assert e.value.code == "invalid_parameters"
    with pytest.raises(InputError) as e:
        scan_merge(7, shapes=[(3, 3)])
    assert e.value.code == "invalid_parameters"


def test_scan_merge_degree7():
    rep = scan_merge(7, half_max=1, random_samples=50)
    assert rep["n"] == 7
    assert rep["shapes"] == {
        "1,1": {"mode": "full", "instances": 840},
        "1,3": {"mode": "full", "instances": 5040},
        "3,1": {"mode": "full", "instances": 5040}}
    assert rep["equivariance_checks"] == 200
    assert rep["random_checks"] == 50


def test_scan_merge_degree8_all_shapes_full():
    rep = scan_merge(8, half_max=1, random_samples=50)
    assert rep["shapes"] == {
        "1,1": {"mode": "full", "instances": 1680},
        "1,3": {"mode": "full", "instances": 20160},
        "3,1": {"mode": "full", "instances": 20160},
        "3,3": {"mode": "full", "instances": 40320}}


def test_scan_merge_slice_mode():
    rep = scan_merge(9, half_max=1, full_cap_points=6, random_samples=20,
                     shapes=[(3, 3)])
    assert rep["shapes"]["3,3"]["mode"] == "slice"
    # slice fixes x=1, y=2: placements of a, b over the remaining 7 points
    assert rep["shapes"]["3,3"]["instances"] == 210 * 24


# -- two-factor expression over a thick normal set


def test_express_constructive_example(alt5):
    P = _alt5_small_support_set(alt5)
    got = express_even(alt5, P, parse_element(alt5, "(1,2)(3,4)"))
    assert got["mode"] == "constructive"
    assert element_text(alt5, got["q1"]) == "(1,3,2)"
    assert element_text(alt5, got["q2"]) == "(1,3,4)"
    assert got["pairs"] == [{"x": 1, "y": 3, "a": [2], "b": [4]}]
    assert got["budget_guaranteed"] is False  # degree 5 is below the budget


def test_express_fallback_example(alt5):
    P = _alt5_small_support_set(alt5)
    got = express_even(alt5, P, parse_element(alt5, "(1,2,3,4,5)"))
    assert got["mode"] == "fallback"
    assert element_text(alt5, got["q1"]) == "(1,2,3)"
    assert element_text(alt5, got["q2"]) == "(3,4,5)"
    assert got["pairs"] is None


def test_express_whole_group(alt5):
    P = _alt5_small_support_set(alt5)
    modes = Counter()
    for sigma in range(alt5.order):
        got = express_even(alt5, P, sigma)
        assert P[got["q1"]] and P[got["q2"]]
        assert alt5.mul(got["q1"], got["q2"]) == sigma
        modes[got["mode"]] += 1
    assert modes == Counter({"constructive": 36, "fallback": 24})


def test_express_rejects_bad_sets(alt5, sym4):
    three = parse_element(alt5, "(1,2,3)")
    no_identity = alt5.class_mask(three)
    with pytest.raises(InputError) as e:
        express_even(alt5, no_identity, 0)
    assert e.value.code == "not_thick"

    from glab.groupcore import mask_from_indices
    lopsided = mask_from_indices(alt5, [0, three])
    with pytest.raises(InputError) as e:
        express_even(alt5, lopsided, 0)
    assert e.value.code == "not_symmetric"

    not_classes = mask_from_indices(alt5, [0, three, alt5.inv(three)])
    with pytest.raises(InputError) as e:
        express_even(alt5, not_classes, 0)
    assert e.value.code == "not_normal"

    P = sym4.class_mask(0) | sym4.class_mask(parse_element(sym4, "(1,2)"))
    with pytest.raises(InputError) as e:
        express_even(sym4, P, parse_element(sym4, "(1,2)"))
    assert e.value.code == "invalid_parameters"


def test_express_search_exhausted(alt5):
    only_identity = alt5.class_mask(0)
    with pytest.raises(PropertyFailure) as e:
        express_even(alt5, only_identity, parse_element(alt5, "(1,2,3)"))
    assert e.value.code == "search_exhausted"


def test_express_no_fallback(alt5):
    P = _alt5_small_support_set(alt5)
    with pytest.raises(InputError) as e:
        express_even(alt5, P, parse_element(alt5, "(1,2,3,4,5)"),
                     allow_fallback=False)
    assert e.value.code == "omega_too_small_and_no_fallback"


def test_express_set_squares_to_whole_group(alt5):
    from glab.groupcore import product_mask
    P = _alt5_small_support_set(alt5)
    assert product_mask(alt5, P, P).all()


# -- class word distance


def test_class_word_distance(sym4):
    t = parse_element(sym4, "(1,2)")
    assert class_word_distance(sym4, t, parse_element(sym4, "(1,2,3)")) == {"k": 2}
    assert class_word_distance(sym4, t, parse_element(sym4, "(1,2,3,4)")) == {"k": 3}
    assert class_word_distance(sym4, t, parse_element(sym4, "(1,2,3,4)"),
                               cap=2) == {"k": None}
    assert class_word_distance(sym4, parse_element(sym4, "(1,2,3)"), t) == {"k": None}
    assert class_word_distance(sym4, t, 0) == {"k": 0}
    with pytest.raises(InputError) as e:
        class_word_distance(sym4, 0, t)
    assert e.value.code == "identity_sigma"
