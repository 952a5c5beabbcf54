"""Acceptance suite: one test per shipped criterion, run ``pytest -v`` for
the per-criterion pass/fail lines.

Time budgets (criteria 1, 2, 4, 11) are asserted inside the tests with
generous margins pinned to the criterion text.  Every randomized step uses
a fixed seed written into the test so reruns are bit-identical.

Criterion 7 note: its product clause checks, for (Alt(5), Sym(3)) at
N <= 4, the containment gn_set(G x H, N) ⊆ gn_set(G, N) x gn_set(H, N) and
the verified truth table of the equality (it holds exactly at N in
{0, 1, 4}; the side sizes are 0/0, 0/0, 0/105, 105/177, 177/177).  Equality
is not a theorem: at N = 2 every letter of the class of ((1,2,3), (1,2))
is (3-cycle, transposition), so no word of length <= 2 reaches
(e, (1,2)).  The counterexamples at N = 2 and N = 3 are replayed by
form-level word enumeration against explicit targets.
"""

import json
import time

import numpy as np
import pytest

from glab.chevalley import (
    _all_diagonals,
    class_cube,
    commutator_structure_constants,
    enumerate_unipotent_products,
    gauss_prescribed,
    is_regular,
    regular_diagonals,
    regular_sequence,
    t_elem,
    verify_torus_conjugation,
    verify_weyl_torus_action,
    x_elem,
)
from glab.cli import main as cli_main
from glab.errors import InputError
from glab.extensions import (
    build_extension,
    carry_cocycle,
    coboundary_cocycle,
    commutator_expansion_check,
    complement_scan,
    identity_inverse_check,
    image_bound_check,
    iwasawa_certificate,
    split_check,
    symmetric_class_with_identity,
    upper_triangular_mask,
    validate_cocycle,
)
from glab.groupcore import (
    abelian_invariants,
    build_group,
    commutator_width,
    element_text,
    mat_inverse,
    mat_mul,
    mask_from_indices,
    parse_element,
    parse_group_spec,
    product_mask,
)
from glab.permfact import express_even, scan_cycle_quotient, scan_merge
from glab.thickset import (
    bounded_simplicity_degree,
    check_intersection_bound,
    generic_subgroup_certificate,
    gn_product_check,
    gn_set,
    image_thickness_check,
    preimage_thickness_check,
    thickness,
)


def _comm_mat(a, b, n, p):
    return mat_mul(mat_mul(mat_inverse(a, n, p), mat_inverse(b, n, p), n, p),
                   mat_mul(a, b, n, p), n, p)


def test_criterion_01_steinberg_relations():
    """Relation suite exhaustive in SL2(F5), SL3(F5), SL3(F7);
    unitriangular factorization bijective in SL4(F5); < 10 s."""
    t0 = time.monotonic()
    expected_counts = {(2, 5): (40, 80), (3, 5): (480, 720), (3, 7): (1512, 1512)}
    for (n, p), (n_star, n_weyl) in expected_counts.items():
        assert verify_torus_conjugation(n, p) == {
            "checked": n_star, "failures": 0}
        assert verify_weyl_torus_action(n, p) == {
            "checked": n_weyl, "failures": 0}
        assert commutator_structure_constants(n, p)["failures"] == 0
    assert enumerate_unipotent_products(4, 5) == {
        "count": 15625, "distinct": 15625, "expected": 15625, "bijective": True}
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_regular_class_cubes(sl25, sl27):
    """C^2 covers G minus the center and C^3 = G for every regular diagonal
    in SL2(F5), SL2(F7), SL3(F3); < 60 s."""
    t0 = time.monotonic()
    instances = 0
    for G, (n, p) in ((sl25, (2, 5)), (sl27, (2, 7))):
        for t_mat in regular_diagonals(n, p):
            rep = class_cube(G, G.index[t_mat])
            assert rep["square_covers_complement"]
            assert rep["cube_is_group"]
            instances += 1
    assert instances == 6
    assert regular_diagonals(3, 3) == []  # SL3(F3): vacuously satisfied
    assert time.monotonic() - t0 < 60.0


def test_criterion_03_commutator_transport_bijectivity():
    """u -> [t,u] permutes the unitriangular group for every regular t in
    SL2(F5) and SL3(F3); the transport solver inverts it exactly."""
    from glab.chevalley import transport_into_opposite, transport_into_unipotent
    n, p = 2, 5
    uppers = [x_elem(n, p, (0, 1), s) for s in range(p)]
    lowers = [x_elem(n, p, (1, 0), s) for s in range(p)]
    for t in regular_diagonals(n, p):
        ti = mat_inverse(t, n, p)
        images = [_comm_mat(t, u, n, p) for u in uppers]
        assert sorted(images) == sorted(uppers)  # phi permutes U
        for u in uppers:
            got = transport_into_unipotent(n, p, t, _comm_mat(t, u, n, p))
            assert got == u
        images = [_comm_mat(v, ti, n, p) for v in lowers]
        assert sorted(images) == sorted(lowers)  # psi permutes V
        for v in lowers:
            got = transport_into_opposite(n, p, t, _comm_mat(v, ti, n, p))
            assert got == v
    assert regular_diagonals(3, 3) == []  # SL3(F3): vacuously satisfied


def test_criterion_04_gauss_prescribed_torus(sl25):
    """Every noncentral g (118) x every diagonal t (4) yields a verified
    Gauss triple; zero search_exhausted events; < 120 s."""
    t0 = time.monotonic()
    n, p = 2, 5
    diagonals = _all_diagonals(n, p)
    assert len(diagonals) == 4
    center = sl25.center_mask()
    noncentral = [g for g in range(sl25.order) if not center[g]]
    assert len(noncentral) == 118
    runs = 0
    for g in noncentral:
        for t_mat in diagonals:
            rep = gauss_prescribed(sl25, g, sl25.index[t_mat])
            recomposed = mat_mul(mat_mul(rep["v"], rep["t"], n, p),
                                 rep["u"], n, p)
            assert recomposed == rep["conjugate"]
            assert rep["conjugate"] == sl25.elements[
                sl25.conj(g, rep["x"])]
            runs += 1
    assert runs == 472
    assert time.monotonic() - t0 < 120.0


def test_criterion_05_regular_sequences():
    """A2/F11, m=4: pairwise quotients regular for all roots; A2/F3 errors
    field_too_small."""
    rep = regular_sequence("A", 2, 11, 4)
    assert rep["s"] == 2 and rep["order"] == 10
    assert rep["weights"] == [1, 1, 2]
    els = rep["elements"]
    assert len(els) == 4
    for i in range(4):
        for j in range(4):
            if i != j:
                q = mat_mul(els[i], mat_inverse(els[j], 3, 11), 3, 11)
                assert is_regular(q, 3, 11)  # checks every positive root
    with pytest.raises(InputError) as e:
        regular_sequence("A", 2, 3, 4)
    assert e.value.code == "field_too_small"


def _random_symmetric_set(G, rng, density):
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    for i in range(1, G.order):
        if not mask[i] and rng.random() < density:
            mask[i] = True
            mask[G.inv(i)] = True
    return mask


def test_criterion_06_thick_set_suite(cyc5, cyc7, sym4, alt5):
    """Thickness values, subgroup certificates, 500 Ramsey intersection
    pairs, epimorphism thickness laws on 100 random sets per quotient."""
    assert thickness(cyc5, mask_from_indices(cyc5, [0, 1, 4]))["value"] == 3
    for G in (cyc7, sym4, alt5):
        only_e = mask_from_indices(G, [0])
        assert thickness(G, only_e)["value"] == G.order + 1

    cyc6 = build_group(parse_group_spec("Cyc(6)"))
    cyc4 = build_group(parse_group_spec("Cyc(4)"))
    for G, idx in ((cyc6, [0, 1, 5]), (cyc4, [0, 2])):
        cert = generic_subgroup_certificate(G, mask_from_indices(G, idx))
        assert cert["is_subgroup"] and cert["index_at_most_m"]

    # Ramsey intersection inequality: 500 random symmetric pairs with
    # thickness <= 4 in groups of order <= 60
    groups = [build_group(parse_group_spec(t)) for t in
              ("Cyc(12)", "Cyc(24)", "Sym(4)", "Alt(5)", "Cyc(60)", "Ab(6,2)")]
    assert all(G.order <= 60 for G in groups)
    rng = np.random.default_rng(42)
    checked = resamples = 0
    while checked < 500:
        G = groups[checked % len(groups)]

        def bounded_set():
            nonlocal resamples
            while True:
                density = rng.uniform(0.55, 0.85)
                P = _random_symmetric_set(G, rng, density)
                if thickness(G, P)["value"] <= 4:
                    return P
                resamples += 1
                assert resamples < 20000, "sampler starved"

        rep = check_intersection_bound(G, bounded_set(), bounded_set())
        assert rep["holds"]
        assert rep["thickness_P"] <= 4 and rep["thickness_Q"] <= 4
        checked += 1
    assert checked == 500

    # epimorphism laws on Cyc(12) -> Cyc(6) and SL(2,5) -> PSL(2,5)
    for text in ("Quot(Cyc(12),gen(6))", "Quot(SL(2,5),center)"):
        Q = build_group(parse_group_spec(text))
        parent = Q.parent
        rng = np.random.default_rng(7)
        for _ in range(100):
            density = 0.3 + 0.4 * rng.random()
            X = _random_symmetric_set(Q, rng, density)
            assert preimage_thickness_check(Q, X)["holds"]
            Z = _random_symmetric_set(parent, rng, density)
            assert image_thickness_check(Q, Z)["holds"]


def _symmetrized_class_forms(G, form):
    """cl(g) ∪ cl(g^-1) as a set of forms, conjugating by every element with
    the form-level operations only."""
    out = set()
    for x in (form, G.inv_form(form)):
        for h in G.elements:
            out.add(G.mul_form(G.mul_form(G.inv_form(h), x), h))
    return out


def _word_ball_forms(G, letters, N):
    """Forms of all words of length <= N over ``letters`` (the empty word is
    e), grown one letter at a time with ``mul_form``."""
    ball = frontier = {G.elements[0]}
    for _ in range(N):
        frontier = {G.mul_form(w, a) for w in frontier for a in letters} - ball
        ball = ball | frontier
    return ball


def test_criterion_07_gn_laws(cyc6, sym3, alt5, a5xs3):
    """gn_set examples; the product law for (Alt(5), Sym(3)), N <= 4;
    bounded simplicity degrees.

    Product clause.  gn_set(G x H, N) ⊆ gn_set(G, N) x gn_set(H, N) holds at
    every N; equality is not a theorem.  For N = 0..4 the sizes of the two
    sides are 0/0, 0/0, 0/105, 105/177, 177/177 (a plain-Python brute force
    over its own permutations gives the same table), so equality holds
    exactly at N in {0, 1, 4}.  At N = 2 and N = 3 the reported
    counterexample is replayed with form-level word enumeration: both of
    its coordinates have covering N-balls in their factors, yet its own
    symmetrized class N-ball in the product misses an explicit target.

    N = 2, element ((1,2,3), (1,2)), target (e, (1,2)): every letter is
    (3-cycle, transposition), so a word of length <= 2 has a transposition
    in the second coordinate only at length 1, where the first coordinate
    is a 3-cycle, never e.
    N = 3, element ((1,2,3,4,5), (1,2)), target ((1,2)(3,4), e): e in the
    second coordinate forces length 0 or 2, and no double transposition is
    a product of at most two elements of the class of (1,2,3,4,5) in Alt(5).
    """
    assert np.nonzero(gn_set(cyc6, 1))[0].tolist() == []
    assert np.nonzero(gn_set(cyc6, 3))[0].tolist() == [1, 5]

    rep = bounded_simplicity_degree(sym3)
    assert rep["value"] is None
    assert element_text(sym3, rep["witness"]) == "(1,2,3)"
    assert bounded_simplicity_degree(alt5)["value"] == 3  # finite

    truth_table = {  # N: (equality holds, |gn(G x H)|, |gn(G) x gn(H)|)
        0: (True, 0, 0), 1: (True, 0, 0), 2: (False, 0, 105),
        3: (False, 105, 177), 4: (True, 177, 177)}
    targets = {2: ("e", "(1,2)"), 3: ("(1,2)(3,4)", "e")}
    for N, row in truth_table.items():
        gn_p = gn_set(a5xs3, N)
        gn_g, gn_h = gn_set(alt5, N), gn_set(sym3, N)
        factor = np.array([gn_g[alt5.index[fa]] and gn_h[sym3.index[fb]]
                           for fa, fb in a5xs3.elements])
        outside = np.nonzero(gn_p & ~factor)[0]
        assert outside.size == 0, (
            f"containment fails at N={N}: element {int(outside[0])} is in "
            f"gn_set of the product but not in the factor product")

        rep = gn_product_check(alt5, sym3, a5xs3, N)
        assert (rep["holds"], rep["size_product"], rep["size_expected"]) \
            == row, f"truth table row N={N}"
        assert (rep["size_product"], rep["size_expected"]) \
            == (int(gn_p.sum()), int(factor.sum()))
        if N not in targets:
            assert rep["counterexample"] is None
            continue

        ce = rep["counterexample"]
        assert ce["in_factor_product"] and not ce["in_product_set"]
        form = a5xs3.elements[ce["index"]]
        for F, f in zip((alt5, sym3), form):
            ball = _word_ball_forms(F, _symmetrized_class_forms(F, f), N)
            assert ball == set(F.elements), (
                f"N={N}: factor {element_text(F, F.index[f])} does not cover")
        t_g, t_h = targets[N]
        target = (alt5.elements[parse_element(alt5, t_g)],
                  sym3.elements[parse_element(sym3, t_h)])
        ball = _word_ball_forms(a5xs3, _symmetrized_class_forms(a5xs3, form), N)
        assert target not in ball, (
            f"N={N}: the class ball of counterexample {ce['index']} reaches "
            f"({t_g}, {t_h})")


def test_criterion_08_permutation_identities(alt5):
    """Both cycle-surgery identities exhaustively in Sym(12) for list
    lengths <= 3 resp. <= 7 (odd); express_even on all 60 elements of
    Alt(5) over the computed thick normal P with P^2 = Alt(5)."""
    rep = scan_cycle_quotient(12, 3)
    assert rep["counts"] == {0: 12, 1: 1320, 2: 95040, 3: 3991680}

    rep = scan_merge(12, half_max=3, random_samples=2000, seed=0)
    assert rep["shapes"] == {
        "1,1": {"mode": "full", "instances": 11880},
        "1,3": {"mode": "full", "instances": 665280},
        "3,1": {"mode": "full", "instances": 665280},
        "1,5": {"mode": "full", "instances": 19958400},
        "5,1": {"mode": "full", "instances": 19958400},
        "3,3": {"mode": "full", "instances": 19958400},
        "3,5": {"mode": "slice", "instances": 1814400},
        "5,3": {"mode": "slice", "instances": 1814400},
        "5,5": {"mode": "slice", "instances": 3628800},
        "1,7": {"mode": "slice", "instances": 1814400},
        "7,1": {"mode": "slice", "instances": 1814400},
        "3,7": {"mode": "slice", "instances": 3628800},
        "7,3": {"mode": "slice", "instances": 3628800},
    }
    assert rep["equivariance_checks"] == 200
    assert rep["random_checks"] == 2000

    P = alt5.class_mask(0) | alt5.class_mask(parse_element(alt5, "(1,2)(3,4)")) \
        | alt5.class_mask(parse_element(alt5, "(1,2,3)"))
    assert product_mask(alt5, P, P).all()  # P^2 = Alt(5)
    for sigma in range(alt5.order):
        got = express_even(alt5, P, sigma)
        assert P[got["q1"]] and P[got["q2"]]
        assert alt5.mul(got["q1"], got["q2"]) == sigma


def test_criterion_09_cocycle_suite():
    """Carry cocycle builds Z/4 nonsplit; 200 random valid cocycles
    (p in {2,3,5}, |H| <= 24) certify identity/inverse formulas and the
    image bound for n <= 4."""
    E = build_extension(*carry_cocycle())
    assert abelian_invariants(E) == (4,)
    assert split_check(E)["splits"] is False
    assert complement_scan(E)["splits"] is False

    bases = ["Cyc(2)", "Cyc(3)", "Cyc(4)", "Cyc(6)", "Cyc(8)", "Cyc(12)",
             "Cyc(24)", "Ab(2,2)", "Ab(4,2)", "Ab(2,2,2)", "Ab(3,3)",
             "Ab(4,4)", "Sym(3)", "Sym(4)", "Alt(4)", "Ab(6,2)"]
    built = 0
    for seed in range(5):
        for base_text in bases:
            for prime in (2, 3, 5):
                if built == 200:
                    break
                base = build_group(parse_group_spec(base_text))
                assert base.order <= 24
                table = coboundary_cocycle(base, prime, seed=seed)
                validate_cocycle(base, table, prime)
                E = build_extension(base, prime, table)
                assert identity_inverse_check(E)["checked"] == E.order
                assert image_bound_check(E, n_max=4)["holds"]
                built += 1
    assert built == 200


def test_criterion_10_iwasawa(sym6, sl27, sl25):
    """Four-factor commutator expansion on 10^4 random quadruples in
    Sym(6) and SL2(F7); the SL2(F5) covering certificate with k_min <= 16."""
    assert commutator_expansion_check(sym6, count=10_000, seed=0) == {
        "checked": 10_000, "violations": 0}
    assert commutator_expansion_check(sl27, count=10_000, seed=0) == {
        "checked": 10_000, "violations": 0}

    A = symmetric_class_with_identity(sl25, sl25.index[(0, 1, 4, 0)])
    B = upper_triangular_mask(sl25)
    rep = iwasawa_certificate(sl25, A, B)
    assert rep["N"] == 1 and rep["M"] == 2 and rep["bound"] == 16
    assert rep["k_min"] is not None and rep["k_min"] <= 16
    assert rep["holds"]


def test_criterion_11_commutator_width(alt5, sl25):
    """cw(Alt(5)) = cw(SL2(F5)) = 1 by exhaustive enumeration; < 30 s."""
    t0 = time.monotonic()
    assert commutator_width(alt5) == 1
    assert commutator_width(sl25) == 1
    assert time.monotonic() - t0 < 30.0


CLI_TASKS = [
    ("chevalley", "verify-relations", "--rank", "1", "--p", "5"),
    ("chevalley", "class-cube", "--rank", "1", "--p", "5"),
    ("chevalley", "gauss", "--rank", "1", "--p", "5",
     "--g", "1,1,1,2", "--t", "2,0,0,3"),
    ("chevalley", "sequence", "--rank", "2", "--p", "11", "--m", "4"),
    ("thick", "analyze", "--group", "Cyc(12)", "--set", "arc(1)"),
    ("thick", "analyze", "--group", "Cyc(6)", "--set", "arc(1)",
     "--probe-normal"),
    ("perm", "identities", "--n", "6", "--m-max", "2", "--half-max", "1",
     "--samples", "25"),
    ("perm", "express", "--group", "Alt(5)",
     "--set", "union(class(e),class((1,2)(3,4)),class((1,2,3)))",
     "--sigma", "(1,2)(3,4)"),
    ("perm", "distance", "--group", "Sym(4)", "--sigma", "(1,2)",
     "--tau", "(1,2,3,4)"),
    ("ext", "build", "--base", "Cyc(2)", "--p", "2", "--cocycle", "carry"),
    ("ext", "split", "--base", "Sym(3)", "--p", "3", "--cocycle", "coboundary",
     "--seed", "5"),
    ("ext", "bound", "--base", "Ab(2,2)", "--p", "3", "--cocycle",
     "coboundary", "--seed", "7", "--n-max", "4"),
    ("ext", "iwasawa", "--group", "SL(2,5)", "--a", "class(0,1,4,0)",
     "--b", "ball(2,0,0,3;1,1,0,1;20)"),
]


def test_criterion_12_cli_determinism(capsys):
    """Re-running every CLI task with identical config+seed produces a
    byte-identical results section."""
    for argv in CLI_TASKS:
        def results_bytes():
            code = cli_main(list(argv))
            assert code == 0, f"task {argv} exited {code}"
            rep = json.loads(capsys.readouterr().out)
            return json.dumps(rep["results"], sort_keys=True).encode()

        assert results_bytes() == results_bytes(), f"nondeterministic: {argv}"
