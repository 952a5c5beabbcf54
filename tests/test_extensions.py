"""Central extensions by 2-cocycles and the solvable-factor covering bound."""

import tracemalloc

import numpy as np
import pytest

from glab import extensions, groupcore
from glab.errors import CapExceeded, InputError
from glab.extensions import (
    build_extension,
    carry_cocycle,
    coboundary_cocycle,
    commutator_expansion_check,
    complement_scan,
    derived_length_of_subgroup,
    enumerate_subgroups,
    identity_inverse_check,
    image_bound_check,
    iwasawa_certificate,
    split_check,
    symmetric_class_with_identity,
    upper_triangular_mask,
    validate_cocycle,
)
from glab.groupcore import (
    AbSpec,
    CycSpec,
    SymSpec,
    abelian_invariants,
    build_group,
    element_text,
    inverse_mask,
    is_subgroup_mask,
    is_symmetric_mask,
    mask_from_indices,
    parse_group_spec,
    product_mask,
)


@pytest.fixture(scope="module")
def carry_ext():
    return build_extension(*carry_cocycle())


# -- cocycle validation


def test_validate_cocycle_accepts_coboundaries():
    for base_text, p in (("Sym(3)", 2), ("Cyc(8)", 3), ("Ab(2,2)", 5)):
        base = build_group(parse_group_spec(base_text))
        table = coboundary_cocycle(base, p, seed=3)
        got = validate_cocycle(base, table, p)
        assert got.shape == (base.order, base.order)


def test_validate_cocycle_rejects_perturbation():
    base = build_group(AbSpec((2, 2)))
    table = coboundary_cocycle(base, 3, seed=7)
    bad = table.copy()
    bad[1, 2] = (bad[1, 2] + 1) % 3
    with pytest.raises(InputError) as e:
        validate_cocycle(base, bad, 3)
    assert e.value.code == "invalid_cocycle"
    assert e.value.details["triple"] == [1, 1, 2]
    assert e.value.details == {"triple": [1, 1, 2], "lhs": 2, "rhs": 0}


def _first_failing_triple(base, table, p):
    """The cocycle identity on all |H|^3 triples at once, as one array."""
    h, M = np.asarray(table) % p, base.rows(np.arange(base.order))
    lhs = h[:, :, None] + h[M]
    rhs = h[None, :, :] + h[:, M]
    x, y, z = (int(t[0]) for t in np.nonzero((lhs - rhs) % p))
    return {"triple": [x, y, z], "lhs": int(lhs[x, y, z] % p),
            "rhs": int(rhs[x, y, z] % p)}


@pytest.mark.parametrize("base_text,p,cell", [
    ("Cyc(70)", 3, (69, 5)), ("Sym(4)", 5, (17, 9)), ("Cyc(100)", 2, (0, 99))])
@pytest.mark.parametrize("pairs", [None, 1, 7])
def test_validate_cocycle_names_the_first_failing_triple(base_text, p, cell,
                                                         pairs, monkeypatch):
    """Checked a block of pairs (x, y) at a time (as many as fit in
    ``ROW_BATCH`` triples, or 1 or 7 a block), the first failing triple in
    (x, y, z) order and its two sides are those of the whole check."""
    base = build_group(parse_group_spec(base_text))
    if pairs is not None:
        monkeypatch.setattr(extensions, "ROW_BATCH", pairs * base.order)
    bad = coboundary_cocycle(base, p, seed=5)
    bad[cell] = (bad[cell] + 1) % p
    with pytest.raises(InputError) as e:
        validate_cocycle(base, bad, p)
    assert e.value.details == _first_failing_triple(base, bad, p)
    assert validate_cocycle(base, coboundary_cocycle(base, p), p).shape == bad.shape


def test_build_group_refuses_an_extension_spec():
    """An extension is built only by ``build_extension``, which checks its
    table; ``build_group`` builds no extension from a spec."""
    E = build_extension(*carry_cocycle())
    with pytest.raises(InputError) as e:
        build_group(E.spec)
    assert e.value.code == "invalid_parameters"


def test_validate_cocycle_in_bounded_memory():
    """The check of a 200-element base holds blocks of ``ROW_BATCH``
    triples, not |H|^3 = 8,000,000 of them (64 MB of int64 each)."""
    base = build_group(CycSpec(200))
    table = coboundary_cocycle(base, 2, seed=1)
    tracemalloc.start()
    try:
        validate_cocycle(base, table, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


@pytest.mark.parametrize("base_text", ["Sym(4)", "Cyc(12)"])
def test_cocycle_checks_cache_no_base_rows(base_text, monkeypatch):
    """The cocycle table, its check and the splitting search read the base
    group's multiplication table as one batch of rows, not row by row."""
    base = build_group(parse_group_spec(base_text))
    monkeypatch.setattr(base, "row", None)  # a single-row call would fail
    table = coboundary_cocycle(base, 3, seed=1)
    E = build_extension(base, 3, table)
    validate_cocycle(base, table, 3)
    monkeypatch.setattr(E.parent, "row", None)
    assert split_check(E)["splits"]


def _no_build(*args, **kwargs):
    raise AssertionError("an extension check built a group")


@pytest.mark.parametrize("cocycle", ["carry", "coboundary"])
def test_extension_checks_take_the_base_from_the_extension(cocycle, monkeypatch):
    """E keeps the base group it was built from as E.parent, so the four
    checks that read the base build no group: on the carry extension of
    Z/2 and on a coboundary extension of Sym(3)."""
    if cocycle == "carry":
        base, p, table = carry_cocycle()
    else:
        base, p = build_group(SymSpec(3)), 3
        table = coboundary_cocycle(base, p, seed=2)
    E = build_extension(base, p, table)
    assert E.parent.elements == base.elements and E.parent.spec == base.spec
    monkeypatch.setattr(extensions, "build_group", _no_build)
    monkeypatch.setattr(groupcore, "build_group", _no_build)
    splits = cocycle == "coboundary"
    assert identity_inverse_check(E)["checked"] == E.order
    assert split_check(E)["splits"] is splits
    assert complement_scan(E)["splits"] is splits
    assert image_bound_check(E, n_max=3)["holds"]


def test_extension_checks_refuse_other_groups():
    G = build_group(SymSpec(3))
    for check in (identity_inverse_check, split_check, complement_scan,
                  image_bound_check):
        with pytest.raises(InputError) as e:
            check(G)
        assert e.value.code == "group_mismatch"


# -- the carry extension: Z/4 as a nonsplit extension of Z/2 by Z/2


def test_carry_extension_is_cyclic_of_order_four(carry_ext):
    E = carry_ext
    assert E.order == 4
    assert E.is_abelian()
    assert abelian_invariants(E) == (4,)
    assert [element_text(E, i) for i in range(4)] == [
        "[0|0]", "[0|1]", "[1|0]", "[1|1]"]


def test_carry_identity_inverse_certificate(carry_ext):
    E = carry_ext
    assert identity_inverse_check(E) == {
        "order": 4, "identity": "[0|0]", "checked": 4}


def test_carry_does_not_split(carry_ext):
    E = carry_ext
    assert split_check(E) == {
        "splits": False, "complement": None, "assignments_tried": 2}
    assert complement_scan(E) == {"splits": False, "complement": None}


def test_carry_image_bound(carry_ext):
    E = carry_ext
    rep = image_bound_check(E, n_max=4)
    assert rep["holds"] and rep["n_max"] == 4
    assert rep["levels"][1] == {
        "observed": [0, 1], "bound": [0, 1], "contained": True}


@pytest.mark.parametrize("base_text, p", [("Cyc(2)", 2), ("Cyc(3)", 7)])
def test_image_bound_levels_past_the_last_growth(base_text, p):
    """n_max = 7 goes past the radius where P^n stops growing (2 for the
    carry, 5 for the Cyc(3) coboundary, whose last growth adds the first
    coordinate 0); each level observes the first coordinates of P^n,
    taken product by product."""
    base = build_group(parse_group_spec(base_text))
    table = carry_cocycle()[2] if base.order == 2 else coboundary_cocycle(base, p)
    E = build_extension(base, p, table)
    rep = image_bound_check(E, n_max=7)
    section = mask_from_indices(
        E, [E.index[(0, base.elements[x])] for x in range(base.order)])
    P = product_mask(E, section, inverse_mask(E, section))
    powers = [P]
    for n in range(2, 8):
        powers.append(product_mask(E, powers[-1], P))
    assert any((a == b).all() for a, b in zip(powers[:5], powers[1:6]))
    for n, power in enumerate(powers, start=1):
        assert rep["levels"][n]["observed"] == sorted(
            {E.elements[int(g)][0] for g in np.flatnonzero(power)})


# -- coboundary extensions always split


def test_coboundary_split_frozen_example():
    base = build_group(AbSpec((2, 2)))
    E = build_extension(base, 3, coboundary_cocycle(base, 3, seed=7))
    assert split_check(E) == {
        "splits": True, "complement": [0, 6, 7, 8], "assignments_tried": 6}
    assert complement_scan(E)["splits"] is True


@pytest.mark.parametrize("base_text", ["Sym(3)", "Cyc(8)", "Ab(2,2,2)"])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coboundary_battery_splits(base_text, p, seed):
    base = build_group(parse_group_spec(base_text))
    table = coboundary_cocycle(base, p, seed=seed)
    E = build_extension(base, p, table)
    assert E.order == p * base.order
    rep = split_check(E)
    assert rep["splits"]
    comp = mask_from_indices(E, rep["complement"])
    assert is_subgroup_mask(E, comp)
    assert int(comp.sum()) == base.order


def test_coboundary_identity_inverse_and_bound():
    base = build_group(SymSpec(3))
    for seed in range(3):
        E = build_extension(base, 3, coboundary_cocycle(base, 3, seed=seed))
        assert identity_inverse_check(E)["checked"] == E.order
        assert image_bound_check(E, n_max=4)["holds"]


# -- commutator expansion


def test_commutator_expansion_explicit_and_random(sym6, sl27):
    got = commutator_expansion_check(sym6, count=500, seed=1)
    assert got == {"checked": 500, "violations": 0}
    got = commutator_expansion_check(sl27, count=300, seed=2)
    assert got == {"checked": 300, "violations": 0}
    got = commutator_expansion_check(sym6, quadruples=[(1, 2, 3, 4), (5, 0, 2, 1)])
    assert got == {"checked": 2, "violations": 0}


@pytest.mark.parametrize("call, details", [
    (lambda G: coboundary_cocycle(G, 3, seed=-1), {"seed": -1}),
    (lambda G: commutator_expansion_check(G, count=5, seed=-1),
     {"seed": -1, "count": 5}),
    (lambda G: commutator_expansion_check(G, count=-1),
     {"seed": 0, "count": -1}),
])
def test_seeded_checks_refuse_negative_seeds_and_counts(sym3, call, details):
    """numpy's rng raised a bare ValueError on a negative seed."""
    with pytest.raises(InputError) as e:
        call(sym3)
    assert e.value.code == "invalid_parameters"
    assert e.value.details == details


# -- solvable-factor covering certificate


def test_upper_triangular_borel(sl25):
    B = upper_triangular_mask(sl25)
    assert int(B.sum()) == 20
    assert is_subgroup_mask(sl25, B)
    assert derived_length_of_subgroup(sl25, B) == 2


def test_derived_length_premises(sl25):
    with pytest.raises(InputError) as e:
        derived_length_of_subgroup(sl25, mask_from_indices(sl25, [0, 1, 2]))
    assert e.value.code == "premise_violation"
    whole = np.ones(sl25.order, dtype=bool)
    with pytest.raises(InputError) as e:
        derived_length_of_subgroup(sl25, whole)  # perfect, so never solvable
    assert e.value.code == "premise_violation"
    assert e.value.details.get("derived_stabilized")


def test_iwasawa_certificate_sl25(sl25):
    A = symmetric_class_with_identity(sl25, sl25.index[(0, 1, 4, 0)])
    assert int(A.sum()) == 31
    assert A[0] and is_symmetric_mask(sl25, A)
    B = upper_triangular_mask(sl25)
    assert iwasawa_certificate(sl25, A, B) == {
        "N": 1, "M": 2, "bound": 16, "k_min": 2, "holds": True}


def test_iwasawa_certificate_trivial_group():
    """On Cyc(1), A = {e} is all of G from the start, and k_min is 1."""
    G = build_group(CycSpec(1))
    one = np.ones(1, dtype=bool)
    assert iwasawa_certificate(G, one, one) == {
        "N": 1, "M": 0, "bound": 1, "k_min": 1, "holds": True}


def test_iwasawa_premises(sl25, sym3):
    A = symmetric_class_with_identity(sl25, sl25.index[(0, 1, 4, 0)])
    B = upper_triangular_mask(sl25)

    with pytest.raises(InputError) as e:
        iwasawa_certificate(sym3, np.ones(6, dtype=bool), np.ones(6, dtype=bool))
    assert "perfect" in e.value.message

    noe = A.copy()
    noe[0] = False
    with pytest.raises(InputError) as e:
        iwasawa_certificate(sl25, noe, B)
    assert "identity" in e.value.message

    w = sl25.index[(0, 1, 4, 0)]
    lopsided = mask_from_indices(sl25, [0, sl25.mul(w, w), 1])
    if not is_symmetric_mask(sl25, lopsided):
        with pytest.raises(InputError) as e:
            iwasawa_certificate(sl25, lopsided, B)
        assert "symmetric" in e.value.message

    not_normal = mask_from_indices(sl25, sorted({0, 1, sl25.inv(1)}))
    with pytest.raises(InputError) as e:
        iwasawa_certificate(sl25, not_normal, B)
    assert "normal" in e.value.message

    center_only = sl25.center_mask()
    with pytest.raises(InputError) as e:
        iwasawa_certificate(sl25, center_only, B)
    assert "cover" in e.value.message


def _subgroups_by_closures(G):
    """All subgroups, closing members + [g] afresh for every subgroup S and
    every g outside it: the loop enumerate_subgroups replaced."""
    trivial = mask_from_indices(G, [0])
    seen = {trivial.tobytes(): trivial}
    queue = [trivial]
    while queue:
        S = queue.pop()
        members = [int(x) for x in np.nonzero(S)[0]]
        for g in range(G.order):
            if not S[g]:
                T = G.subgroup_closure(members + [g])
                if seen.setdefault(T.tobytes(), T) is T:
                    queue.append(T)
    return sorted(seen.values(), key=lambda m: (int(m.sum()), m.tobytes()))


@pytest.mark.parametrize("name, count", [("Sym(4)", 30), ("SL(2,3)", 15),
                                         ("Alt(5)", 59)])
def test_enumerate_subgroups_matches_fresh_closures(name, count):
    """Closing <S, g> from S's kept maps, one g per coset g·S, lists the
    subgroups that closing every members + [g] afresh lists, in order."""
    G = build_group(parse_group_spec(name))
    got, want = enumerate_subgroups(G), _subgroups_by_closures(G)
    assert len(got) == len(want) == count
    assert all((a == b).all() for a, b in zip(got, want))
    assert all(is_subgroup_mask(G, K) for K in got)


def test_enumerate_subgroups_cap(sym4):
    """Sym(4) has 30 subgroups; a cap below that is a cap error (exit 3),
    like every other ``order_cap_exceeded``."""
    assert len(enumerate_subgroups(sym4)) == 30
    with pytest.raises(CapExceeded) as e:
        enumerate_subgroups(sym4, cap=5)
    assert e.value.code == "order_cap_exceeded"
    assert e.value.details == {"cap": 5}
