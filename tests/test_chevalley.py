"""Matrix calculus in SL_n(F_p): root elements, relations, transport, Gauss."""

import itertools
import math
import time

import numpy as np
import pytest

import glab.chevalley as chevalley
from glab.chevalley import (
    _all_diagonals,
    all_roots,
    class_cube,
    commutator_structure_constants,
    diag_entries,
    diag_matrix,
    enumerate_unipotent_products,
    gauss_prescribed,
    is_regular,
    positive_roots,
    regular_diagonals,
    regular_sequence,
    root_pairing,
    root_value,
    t_elem,
    transport_into_opposite,
    transport_into_unipotent,
    unipotent_factor,
    verify_torus_conjugation,
    verify_weyl_torus_action,
    w_elem,
    x_elem,
)
from glab.errors import CapExceeded, InputError, PropertyFailure, confirm
from glab.groupcore import gauss_jordan, mat_identity, mat_inverse, mat_mul
from glab.rootsys import _rational_seed, build_root_system


def _comm(a, b, n, p):
    return mat_mul(mat_mul(mat_inverse(a, n, p), mat_inverse(b, n, p), n, p),
                   mat_mul(a, b, n, p), n, p)


# -- root-indexed generators


def test_root_lists():
    assert positive_roots(2) == [(0, 1)]
    # positives first in height order, then their negatives in the same order
    assert all_roots(3) == [(0, 1), (1, 2), (0, 2), (1, 0), (2, 1), (2, 0)]


def test_generator_shapes():
    assert x_elem(2, 5, (0, 1), 1) == (1, 1, 0, 1)
    assert x_elem(2, 5, (1, 0), 3) == (1, 0, 3, 1)
    assert w_elem(2, 5, (0, 1), 1) == (0, 1, 4, 0)
    assert t_elem(2, 5, (0, 1), 2) == (2, 0, 0, 3)


def test_x_is_additive_in_s():
    for p in (3, 5):
        for s in range(p):
            for u in range(p):
                lhs = mat_mul(x_elem(3, p, (0, 2), s), x_elem(3, p, (0, 2), u), 3, p)
                assert lhs == x_elem(3, p, (0, 2), (s + u) % p)


def test_torus_and_weyl_relations():
    assert verify_torus_conjugation(2, 5) == {"checked": 40, "failures": 0}
    assert verify_weyl_torus_action(2, 5) == {"checked": 80, "failures": 0}
    assert verify_torus_conjugation(3, 5) == {"checked": 480, "failures": 0}
    assert verify_weyl_torus_action(3, 5) == {"checked": 720, "failures": 0}


def test_structure_constants_rank1_empty():
    assert commutator_structure_constants(2, 5) == {"constants": {}, "failures": 0}


def test_structure_constants_rank2():
    sc = commutator_structure_constants(3, 5)
    assert sc["failures"] == 0
    assert len(sc["constants"]) == 12
    assert sc["constants"]["(0, 1)+(1, 2)"] == 1
    assert sc["constants"]["(0, 1)+(2, 0)"] == -1
    # the recorded constant reproduces the actual commutator
    n, p = 3, 5
    c = sc["constants"]["(0, 1)+(1, 2)"]
    got = _comm(x_elem(n, p, (0, 1), 2), x_elem(n, p, (1, 2), 3), n, p)
    assert got == x_elem(n, p, (0, 2), (c * 2 * 3) % p)


# -- the batched relation checks against per-instance form-level loops;
# the targets' rules (the commutator constant, the pairing) are read from
# the module, so one mutated rule reaches both sides


def _oracle_torus(n, p):
    checked = failures = 0
    for t in _all_diagonals(n, p):
        ti = mat_inverse(t, n, p)
        for root in all_roots(n):
            av = root_value(t, root, n, p)
            for s in range(p):
                lhs = mat_mul(mat_mul(t, x_elem(n, p, root, s), n, p), ti, n, p)
                checked += 1
                failures += lhs != x_elem(n, p, root, av * s)
    return {"checked": checked, "failures": failures}


def _oracle_weyl(n, p):
    checked = failures = 0
    for alpha in all_roots(n):
        for u in range(1, p):
            ta = t_elem(n, p, alpha, u)
            tai = mat_inverse(ta, n, p)
            for beta in all_roots(n):
                k = chevalley.root_pairing(beta, alpha)
                mult = pow(u, k, p) if k >= 0 else pow(pow(u, -1, p), -k, p)
                for s in range(p):
                    lhs = mat_mul(mat_mul(ta, x_elem(n, p, beta, s), n, p),
                                  tai, n, p)
                    checked += 1
                    failures += lhs != x_elem(n, p, beta, mult * s)
    return {"checked": checked, "failures": failures}


def _oracle_commutators(n, p):
    constants, failures = {}, 0
    for a in all_roots(n):
        for b in all_roots(n):
            if a == b or (a[0] == b[1] and a[1] == b[0]):
                continue
            target, expect = chevalley._commutator_target(a, b)
            for s in range(p):
                for u in range(p):
                    comm = _comm(x_elem(n, p, a, s), x_elem(n, p, b, u), n, p)
                    want = (x_elem(n, p, target, expect * s * u)
                            if target else mat_identity(n))
                    failures += comm != want
            if target:
                constants[f"{a}+{b}"] = expect
    return {"constants": constants, "failures": failures}


RELATION_CASES = [(rank, p) for rank in (1, 2, 3) for p in (2, 3, 5, 7)
                  if rank < 3 or p <= 5]


@pytest.mark.parametrize("rank, p", RELATION_CASES)
def test_batched_relations_match_the_form_level_loops(rank, p):
    n = rank + 1
    assert verify_torus_conjugation(n, p) == _oracle_torus(n, p)
    assert verify_weyl_torus_action(n, p) == _oracle_weyl(n, p)
    got, want = commutator_structure_constants(n, p), _oracle_commutators(n, p)
    assert got == want
    assert list(got["constants"]) == list(want["constants"])  # same order


@pytest.mark.parametrize("rank, p", [(1, 5), (2, 3), (2, 7), (3, 5)])
def test_batched_relations_count_a_wrong_pairing(rank, p, monkeypatch):
    """<b, a> + 1 for b = a: u^(k+1) s differs from u^k s unless u = 1 or
    s = 0, so the (p - 2)(p - 1) other instances of that pair fail."""
    n = rank + 1
    a = all_roots(n)[0]
    monkeypatch.setattr(chevalley, "root_pairing",
                        lambda b, al: root_pairing(b, al) + (b == al == a))
    got = verify_weyl_torus_action(n, p)["failures"]
    assert got == _oracle_weyl(n, p)["failures"] == (p - 2) * (p - 1)


@pytest.mark.parametrize("rank, p", [(2, 3), (2, 7), (3, 5)])
def test_batched_commutators_count_a_negated_constant(rank, p, monkeypatch):
    """N negated on one head-to-tail pair: x(-su) != x(su) unless su = 0,
    so (p - 1)^2 instances fail, and the sign is recorded as given."""
    n = rank + 1
    pair = ((0, 1), (1, 2))
    rule = chevalley._commutator_target

    def negated(a, b):
        target, c = rule(a, b)
        return target, -c if (a, b) == pair else c

    monkeypatch.setattr(chevalley, "_commutator_target", negated)
    got, want = commutator_structure_constants(n, p), _oracle_commutators(n, p)
    assert got == want
    assert got["failures"] == (p - 1) ** 2
    assert got["constants"]["(0, 1)+(1, 2)"] == -1


@pytest.mark.parametrize("n,p,expected", [
    (2, 3, 3), (2, 5, 5), (3, 3, 27), (3, 5, 125)])
def test_unipotent_products_bijective(n, p, expected):
    rep = enumerate_unipotent_products(n, p)
    assert rep == {"count": expected, "distinct": expected,
                   "expected": expected, "bijective": True}


@pytest.mark.parametrize("check", [
    commutator_structure_constants, enumerate_unipotent_products,
    verify_torus_conjugation, verify_weyl_torus_action])
def test_relation_checks_refuse_composite_modulus(check):
    with pytest.raises(InputError) as e:
        check(2, 4)  # Z/4 is not a field
    assert e.value.code == "invalid_parameters"
    assert e.value.details == {"p": 4}


# -- regular semisimple elements


def test_regular_diagonals_frozen():
    assert regular_diagonals(2, 5) == [(2, 0, 0, 3), (3, 0, 0, 2)]
    assert regular_diagonals(2, 7) == [
        (2, 0, 0, 4), (3, 0, 0, 5), (4, 0, 0, 2), (5, 0, 0, 3)]
    assert regular_diagonals(3, 3) == []  # F_3 has too few units


def test_regularity_predicate():
    assert is_regular((2, 0, 0, 3), 2, 5)
    assert not is_regular((1, 0, 0, 1), 2, 5)
    assert not is_regular((4, 0, 0, 4), 2, 5)  # central: both roots value 1
    assert root_value((2, 0, 0, 3), (0, 1), 2, 5) == (2 * pow(3, -1, 5)) % 5


def test_diag_round_trip():
    m = diag_matrix((1, 2, 3), 5)
    assert diag_entries(m, 3) == (1, 2, 3)
    with pytest.raises(InputError):
        diag_entries((1, 1, 0, 1), 2)


def test_unipotent_factor_round_trip():
    n, p = 3, 5
    m = mat_mul(x_elem(n, p, (0, 1), 2),
                mat_mul(x_elem(n, p, (0, 2), 4), x_elem(n, p, (1, 2), 1), n, p),
                n, p)
    factors = unipotent_factor(m, n, p)
    acc = mat_identity(n)
    for root, s in factors:
        acc = mat_mul(acc, x_elem(n, p, root, s), n, p)
    assert acc == m


# -- transport


def test_transport_frozen_example():
    t = (2, 0, 0, 3)
    u = transport_into_unipotent(2, 5, t, (1, 1, 0, 1))
    assert u == (1, 3, 0, 1)
    assert _comm(t, u, 2, 5) == (1, 1, 0, 1)
    v = transport_into_opposite(2, 5, t, (1, 0, 1, 1))
    assert v == (1, 0, 2, 1)
    assert _comm(v, mat_inverse(t, 2, 5), 2, 5) == (1, 0, 1, 1)


def test_transport_covers_all_targets_sl3():
    n, p = 3, 5
    t = diag_matrix((1, 2, 3), p)
    assert is_regular(t, n, p)
    import itertools
    for a, b, c in itertools.product(range(p), repeat=3):
        target = (1, a, b, 0, 1, c, 0, 0, 1)
        u = transport_into_unipotent(n, p, t, target)
        assert _comm(t, u, n, p) == target


def test_transport_rejects_irregular():
    with pytest.raises(InputError) as e:
        transport_into_unipotent(2, 5, (1, 0, 0, 1), (1, 1, 0, 1))
    assert e.value.code == "not_regular"
    with pytest.raises(InputError):
        transport_into_unipotent(2, 5, (2, 0, 0, 3), (1, 0, 1, 1))


# -- Gauss decomposition with prescribed diagonal


def test_gauss_frozen_example(sl25):
    g = sl25.index[(1, 1, 1, 2)]
    t = sl25.index[(2, 0, 0, 3)]
    res = gauss_prescribed(sl25, g, t)
    assert sl25.elements[res["x"]] == (1, 0, 1, 1)
    assert res["v"] == (1, 0, 3, 1)
    assert res["t"] == (2, 0, 0, 3)
    assert res["u"] == (1, 3, 0, 1)
    assert res["conjugate"] == (2, 1, 1, 1)
    n, p = 2, 5
    assert mat_mul(mat_mul(res["v"], res["t"], n, p), res["u"], n, p) == res["conjugate"]


def _det(rows: list) -> int:
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j]
               * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def _ldu(m, n, p):
    """Unique L * D * U with L/U unit-triangular and D invertible, or None.

    Elimination without row swaps meets a zero pivot exactly when a
    leading principal minor of m vanishes; then it returns None.
    """
    a = [[m[i * n + j] % p for j in range(n)] for i in range(n)]
    L = [[int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = a[col][col] % p
        if piv == 0:
            return None
        inv = pow(piv, -1, p)
        for r in range(col + 1, n):
            f = (a[r][col] * inv) % p
            L[r][col] = f
            a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    D = [a[i][i] % p for i in range(n)]
    U = [[(a[i][j] * pow(D[i], -1, p)) % p if j >= i else 0 for j in range(n)]
         for i in range(n)]
    Lm = tuple(L[i][j] % p for i in range(n) for j in range(n))
    Dm = tuple(D[i] if i == j else 0 for i in range(n) for j in range(n))
    Um = tuple(U[i][j] % p for i in range(n) for j in range(n))
    confirm(mat_mul(mat_mul(Lm, Dm, n, p), Um, n, p) == tuple(v % p for v in m),
            "L·D·U must multiply back to the matrix")
    return Lm, Dm, Um


def _gauss_jordan_inverse(a, n, p):
    """Inverse mod p by Gauss-Jordan; raises if a is singular."""
    m = [[a[i * n + j] for j in range(n)] + [int(i == j) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] % p), None)
        if piv is None:
            raise InputError("invalid_parameters", "singular matrix mod p")
        m[col], m[piv] = m[piv], m[col]
        inv_p = pow(m[col][col], -1, p)
        m[col] = [(v * inv_p) % p for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [(v - f * w) % p for v, w in zip(m[r], m[col])]
    return tuple(m[i][n + j] % p for i in range(n) for j in range(n))


def test_ldu_fails_exactly_at_a_vanishing_leading_minor():
    """The one elimination against the two it replaced, ``_ldu`` and the
    old Gauss-Jordan ``mat_inverse``: the same inverse or the same
    "singular", the same L, D and U, and no factors exactly when a leading
    minor vanishes, on all 3x3 matrices mod 3 and seeded 4x4 matrices mod
    5 and mod 7."""
    rng = np.random.default_rng(27)
    cases = [(3, 3, itertools.product(range(3), repeat=9))]
    cases += [(4, p, map(tuple, rng.integers(0, p, size=(1000, 16)).tolist()))
              for p in (5, 7)]
    swapped = 0
    for n, p, matrices in cases:
        for m in matrices:
            inverse, factors = gauss_jordan(m, n, p)
            try:
                assert inverse == _gauss_jordan_inverse(m, n, p), m
            except InputError:
                assert inverse is None, m
            assert factors == _ldu(m, n, p), m
            vanishes = any(
                _det([list(m[n * i:n * i + k]) for i in range(k)]) % p == 0
                for k in range(1, n + 1))
            assert (factors is None) == vanishes, m
            swapped += inverse is not None and factors is None
    assert swapped > 1000  # invertible matrices that need a row swap
    with pytest.raises(InputError) as e:
        mat_inverse((1, 2, 2, 4), 2, 5)
    assert (e.value.code, e.value.message) == ("invalid_parameters",
                                               "singular matrix mod p")


def test_gauss_rejects_central(sl25):
    center = sl25.index[(4, 0, 0, 4)]
    t = sl25.index[(2, 0, 0, 3)]
    with pytest.raises(InputError) as e:
        gauss_prescribed(sl25, center, t)
    assert e.value.code == "noncentral_required"


# -- class cube


def test_class_cube_sl25(sl25):
    for t_mat in regular_diagonals(2, 5):
        rep = class_cube(sl25, sl25.index[t_mat])
        assert rep == {"class_size": 30, "square_covers_complement": True,
                       "cube_is_group": True, "min_power": 2}


def test_class_cube_sl27(sl27):
    for t_mat in regular_diagonals(2, 7):
        rep = class_cube(sl27, sl27.index[t_mat])
        assert rep == {"class_size": 56, "square_covers_complement": True,
                       "cube_is_group": True, "min_power": 3}


# -- torus-generator sequences


def test_regular_sequence_a2_f11():
    rep = regular_sequence("A", 2, 11, 4)
    assert rep["s"] == 2
    assert rep["order"] == 10
    assert rep["lam"] == [1, 1]
    assert rep["weights"] == [1, 1, 2]
    assert len(rep["elements"]) == 4
    assert rep["elements"][0] == mat_identity(3)
    # each element is a regular diagonal matrix in SL(3, 11), pairwise distinct
    seen = set()
    for m in rep["elements"][1:]:
        entries = diag_entries(m, 3)
        assert is_regular(m, 3, 11)
        seen.add(entries)
    assert len(seen) == 3


def test_regular_sequence_field_too_small():
    with pytest.raises(InputError) as e:
        regular_sequence("A", 2, 3, 4)
    assert e.value.code == "field_too_small"


@pytest.mark.parametrize("rank, p, m", [(1, 5, 2), (1, 7, 2), (1, 7, 3),
                                        (2, 5, 2), (2, 7, 2), (2, 7, 3),
                                        (2, 11, 4), (1, 24989, 2)])
def test_regular_sequence_within_the_bound(rank, p, m):
    """The CLI benchmark's inputs, criterion 5's, and one with
    (p - 1)·m·m = 99,952 just below the cap."""
    assert len(regular_sequence("A", rank, p, m)["elements"]) == m


@pytest.mark.parametrize("p, m, code", [(25013, 2, "order_cap_exceeded"),
                                        (5, 158, "field_too_small"),
                                        (5, 159, "order_cap_exceeded")])
def test_regular_sequence_bound_covers_p_and_m(p, m, code):
    """(p - 1)·m·m is bounded by the order cap, 100,000, before anything
    else: 25012·4 and 4·159² pass it, 4·158² does not."""
    with pytest.raises((CapExceeded, InputError)) as e:
        regular_sequence("A", 1, p, m)
    assert e.value.code == code


@pytest.mark.parametrize("rank", range(1, 10))
def test_weight_search_bound_is_the_scaled_rational_seed(rank):
    """regular_sequence bounds the weight search by upper^rank from a
    closed form of the A_rank seed; it is the largest scaled seed entry."""
    seed = _rational_seed(build_root_system("A", rank))
    scale = math.lcm(*(x.denominator for x in seed))
    upper = max(int(x * scale) for x in seed)
    if upper ** rank <= 100_000:
        assert len(regular_sequence("A", rank, 101, 2)["elements"]) == 2
    else:
        with pytest.raises(CapExceeded) as e:
            regular_sequence("A", rank, 101, 2)
        assert e.value.details == {"cap": 100_000, "order": upper ** rank}


@pytest.mark.parametrize("rank", [20, 10 ** 9])
def test_regular_sequence_bounds_the_rank(rank, hang_guard):
    """lambda_weights and the root system grow exponentially in the rank;
    both are refused before they start (rank 20 ran past 60 s)."""
    t0 = time.monotonic()
    with pytest.raises(CapExceeded) as e:
        regular_sequence("A", rank, 3, 2)
    assert time.monotonic() - t0 < 1.0
    assert e.value.code == "order_cap_exceeded"
