"""Root systems: positive-root order, Cartan data, positive weightings."""

import pytest

from glab.errors import InputError
from glab.rootsys import (
    RootSystem,
    Vec,
    build_root_system,
    cartan_matrix,
    height,
    lambda_weights,
    pairing,
    root_weight,
    simple_coefficients,
)


POSITIVE_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 8): 36,
    ("B", 2): 4, ("B", 3): 9,
    ("C", 2): 4, ("C", 3): 9,
    ("D", 3): 6, ("D", 4): 12,
}


@pytest.mark.parametrize("family,rank", sorted(POSITIVE_COUNTS))
def test_positive_root_counts(family, rank):
    R = build_root_system(family, rank)
    assert len(R.positive) == POSITIVE_COUNTS[(family, rank)]
    assert len(R.roots) == 2 * len(R.positive)
    assert len(R.simple) == rank


def test_positive_roots_sorted_by_height_then_lex():
    R = build_root_system("A", 3)
    keyed = [(height(R, r), r) for r in R.positive]
    assert keyed == sorted(keyed)
    assert R.positive[0] == R.simple[-1] or height(R, R.positive[0]) == 1


def test_simple_coefficients_nonnegative_on_positive():
    for family, rank in (("A", 3), ("B", 2), ("C", 3), ("D", 4)):
        R = build_root_system(family, rank)
        for r in R.positive:
            coeffs = simple_coefficients(R, r)
            assert all(c >= 0 for c in coeffs)
            assert sum(c * a[k] for c, a in zip(coeffs, R.simple)
                       for k in [0]) == r[0]


def is_root(R: RootSystem, v: Vec) -> bool:
    return tuple(v) in set(R.roots)


def test_is_root():
    R = build_root_system("A", 2)
    assert is_root(R, (1, -1, 0))
    assert is_root(R, (1, 0, -1))
    assert not is_root(R, (2, -2, 0))
    assert not is_root(R, (0, 0, 0))


def test_cartan_matrices():
    assert cartan_matrix(build_root_system("A", 2)) == ((2, -1), (-1, 2))
    assert cartan_matrix(build_root_system("A", 3)) == (
        (2, -1, 0), (-1, 2, -1), (0, -1, 2))
    # B2: short simple root last; <a1,a2> = -2, <a2,a1> = -1
    assert cartan_matrix(build_root_system("B", 2)) == ((2, -2), (-1, 2))
    # C2: long simple root last, transposed pattern
    assert cartan_matrix(build_root_system("C", 2)) == ((2, -1), (-2, 2))


def test_pairing_integrality_and_asymmetry():
    R = build_root_system("B", 2)
    a1, a2 = R.simple  # e1 - e2 (long), e2 (short)
    assert pairing(a1, a2) == -2
    assert pairing(a2, a1) == -1


LAMBDA_EXPECTED = {
    ("A", 1): (1,),
    ("A", 2): (1, 1),
    ("A", 3): (2, 3, 2),
    ("A", 8): (4, 7, 9, 10, 10, 9, 7, 4),
    ("B", 2): (3, 2),
    ("C", 2): (2, 3),
    ("D", 3): (3, 2, 2),
}


@pytest.mark.parametrize("family,rank", sorted(LAMBDA_EXPECTED))
def test_lambda_weights_frozen(family, rank):
    R = build_root_system(family, rank)
    assert lambda_weights(R) == LAMBDA_EXPECTED[(family, rank)]


@pytest.mark.parametrize("family,rank", sorted(POSITIVE_COUNTS))
def test_lambda_weights_make_all_positive_roots_positive(family, rank):
    R = build_root_system(family, rank)
    lam = lambda_weights(R)
    assert all(l >= 1 for l in lam)
    assert all(root_weight(R, lam, b) > 0 for b in R.positive)
    # minimality of the max entry, exhaustively checkable at small rank
    m = max(lam)
    if m > 1 and rank <= 3:
        import itertools
        for cand in itertools.product(range(1, m), repeat=rank):
            assert not all(root_weight(R, cand, b) > 0 for b in R.positive)


@pytest.mark.parametrize("family,rank", [
    ("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 6), ("Z", 4)])
def test_unsupported_family_rank(family, rank):
    with pytest.raises(InputError) as e:
        build_root_system(family, rank)
    assert e.value.code == "unsupported_family_rank"
