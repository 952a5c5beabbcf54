"""Command-line reports: shape, determinism, witness replay, exit codes."""

import json
import subprocess
import sys
import time

import pytest

import glab.cli
import glab.permfact as pf
from glab import extensions, groupcore
from glab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- report envelope


def test_envelope_and_thick_analyze(capsys):
    code, rep = run_cli(capsys, "thick", "analyze",
                        "--group", "Cyc(6)", "--set", "arc(1)")
    assert code == 0
    assert set(rep) == {"config", "results", "schema_version", "task",
                        "timings", "version"}
    assert rep["task"] == "thick.analyze"
    assert rep["config"] == {"group": "Cyc(6)", "probe_normal": False,
                             "set": "arc(1)"}
    assert rep["results"] == {
        "cover_verified": True,
        "genericity": {"m": 2, "translators": [0, 3]},
        "group": "Cyc(6)",
        "set_size": 3,
        "subgroup_certificate": {
            "index": 1, "index_at_most_m": True, "is_subgroup": True,
            "m": 2, "power_exponent": 4, "power_order": 6,
            "subgroup_members": ["0", "1", "2", "3", "4", "5"]},
        "thickness": {"status": "exact", "value": 4, "witness": [0, 2, 4]},
        "witness_verified": True,
    }


def test_probe_normal_is_marked_experimental(capsys, monkeypatch):
    import glab.thickset as ts
    searches = []
    search = ts.genericity
    monkeypatch.setattr(ts, "genericity",
                        lambda *a, **k: searches.append(1) or search(*a, **k))
    code, rep = run_cli(capsys, "thick", "analyze", "--group", "Cyc(6)",
                        "--set", "arc(1)", "--probe-normal")
    assert code == 0
    assert len(searches) == 1  # one cover search serves all three sections
    probe = rep["results"]["normal_core_probe"]
    assert probe == {"certificate_m": 2, "core_index": 1, "core_order": 6,
                     "core_thickness": 2, "experimental": True,
                     "power_order": 6}


def test_analyze_beyond_the_recursion_limit(capsys):
    code, rep = run_cli(capsys, "thick", "analyze", "--group", "Cyc(1100)",
                        "--set", "arc(0)")
    assert code == 0
    res = rep["results"]
    assert res["thickness"]["value"] == 1101 and res["genericity"]["m"] == 1100
    assert res["witness_verified"] and res["cover_verified"]


def test_analyze_arc_in_cyc60(capsys, hang_guard):
    """A clique of 15 in a 60-vertex Cayley graph: seconds of branching
    without the group's symmetry and the colouring bound."""
    code, rep = run_cli(capsys, "thick", "analyze",
                        "--group", "Cyc(60)", "--set", "arc(3)")
    assert code == 0
    res = rep["results"]
    assert res["thickness"] == {"status": "exact", "value": 16,
                                "witness": list(range(0, 60, 4))}
    assert res["genericity"] == {
        "m": 9, "translators": [0, 4, 11, 18, 25, 32, 39, 46, 53]}
    assert res["witness_verified"] and res["cover_verified"]
    assert res["subgroup_certificate"]["power_order"] == 60


# -- determinism: identical reports (minus timings) across repeat runs


@pytest.mark.parametrize("argv", [
    ("thick", "analyze", "--group", "Cyc(12)", "--set", "arc(1)"),
    ("ext", "split", "--base", "Sym(3)", "--p", "3",
     "--cocycle", "coboundary", "--seed", "5"),
    ("perm", "identities", "--n", "6", "--m-max", "2", "--half-max", "1",
     "--samples", "25"),
    ("chevalley", "class-cube", "--rank", "1", "--p", "7"),
])
def test_byte_determinism(capsys, argv):
    def stripped():
        code = main(list(argv))
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        del rep["timings"]
        return json.dumps(rep, sort_keys=True)

    assert stripped() == stripped()


# -- chevalley subcommands


def test_verify_relations_rank1(capsys):
    code, rep = run_cli(capsys, "chevalley", "verify-relations",
                        "--rank", "1", "--p", "5")
    assert code == 0
    assert rep["results"] == {
        "structure_constants": {"constants": {}, "failures": 0},
        "torus_conjugation": {"checked": 40, "failures": 0},
        "unipotent_factorization": {
            "bijective": True, "count": 5, "distinct": 5, "expected": 5},
        "weyl_torus_action": {"checked": 80, "failures": 0}}


def test_class_cube_sl2_31_cold(capsys, hang_guard):
    """SL(2,31) has 29,760 elements; its class powers run one row per
    class, and every regular class already covers the group in 3 steps."""
    code, rep = run_cli(capsys, "chevalley", "class-cube",
                        "--rank", "1", "--p", "31")
    assert code == 0
    instances = rep["results"]["instances"]
    assert len(instances) == 28
    assert {i["min_power"] for i in instances} == {3}


def test_class_cube_rank1(capsys):
    code, rep = run_cli(capsys, "chevalley", "class-cube",
                        "--rank", "1", "--p", "5")
    assert code == 0
    assert rep["results"]["group"] == "SL(2,5)"
    assert rep["results"]["instances"] == [
        {"class_size": 30, "cube_is_group": True, "min_power": 2,
         "square_covers_complement": True, "t": "2,0,0,3"},
        {"class_size": 30, "cube_is_group": True, "min_power": 2,
         "square_covers_complement": True, "t": "3,0,0,2"}]


def test_gauss_prescribed(capsys):
    code, rep = run_cli(capsys, "chevalley", "gauss", "--rank", "1",
                        "--p", "5", "--g", "1,1,1,2", "--t", "2,0,0,3")
    assert code == 0
    assert rep["results"] == {
        "conjugate": "2,1,1,1", "t": "2,0,0,3", "u": "1,3,0,1",
        "v": "1,0,3,1", "x": "1,0,1,1"}


def test_sequence(capsys):
    code, rep = run_cli(capsys, "chevalley", "sequence",
                        "--rank", "2", "--p", "11", "--m", "4")
    assert code == 0
    assert rep["results"] == {
        "elements": ["1,0,0,0,1,0,0,0,1", "2,0,0,0,1,0,0,0,6",
                     "4,0,0,0,1,0,0,0,3", "8,0,0,0,1,0,0,0,7"],
        "lam": [1, 1], "order": 10, "s": 2, "weights": [1, 1, 2]}


def test_sequence_field_too_small(capsys):
    code, rep = run_cli(capsys, "chevalley", "sequence",
                        "--rank", "2", "--p", "3", "--m", "4")
    assert code == 2
    assert rep["error"]["code"] == "field_too_small"


@pytest.mark.parametrize("argv", [
    ("chevalley", "sequence", "--rank", "2", "--p", "9", "--m", "3"),
    ("chevalley", "verify-relations", "--rank", "1", "--p", "4"),
])
def test_chevalley_refuses_composite_modulus(capsys, argv):
    code, rep = run_cli(capsys, *argv)
    assert code == 2
    assert rep["error"]["code"] == "invalid_parameters"
    assert "prime modulus" in rep["error"]["message"]


# -- perm subcommands


def test_perm_identities(capsys):
    code, rep = run_cli(capsys, "perm", "identities", "--n", "7",
                        "--m-max", "2", "--half-max", "1", "--samples", "40")
    assert code == 0
    assert rep["results"]["quotient_scan"] == {
        "counts": {"0": 7, "1": 210, "2": 2520}, "n": 7, "total": 2737}
    assert rep["results"]["merge_scan"]["shapes"] == {
        "1,1": {"instances": 840, "mode": "full"},
        "1,3": {"instances": 5040, "mode": "full"},
        "3,1": {"instances": 5040, "mode": "full"}}


def test_perm_identities_needs_enough_points(capsys):
    code, rep = run_cli(capsys, "perm", "identities", "--n", "3",
                        "--m-max", "2")
    assert code == 2
    assert rep["error"]["code"] == "invalid_parameters"
    assert rep["error"]["details"] == {"m_max": 2, "n": 3}


def test_perm_express_with_replay(capsys):
    code, rep = run_cli(capsys, "perm", "express", "--group", "Alt(5)",
                        "--set", "union(class(e),class((1,2)(3,4)),class((1,2,3)))",
                        "--sigma", "(1,2,3,4,5)")
    assert code == 0
    assert rep["results"] == {
        "budget_guaranteed": False, "mode": "fallback", "pairs": None,
        "q1": "(1,2,3)", "q2": "(3,4,5)", "replayed": True}


def test_perm_express_replay_is_checked(capsys, monkeypatch):
    """A factorisation whose replayed product is not sigma is reported as
    a property failure, exit 1, even under python -O."""
    express = glab.cli.pf.express_even

    def wrong(*args, **kwargs):
        r = express(*args, **kwargs)
        return dict(r, q2=r["q1"])

    monkeypatch.setattr(glab.cli.pf, "express_even", wrong)
    code, rep = run_cli(capsys, "perm", "express", "--group", "Alt(5)",
                        "--set", "union(class(e),class((1,2)(3,4)),class((1,2,3)))",
                        "--sigma", "(1,2,3,4,5)")
    assert code == 1
    assert rep["error"]["code"] == "search_exhausted"
    assert rep["error"]["details"] == {"q1": "(1,2,3)", "q2": "(1,2,3)",
                                       "sigma": "(1,2,3,4,5)"}


def test_perm_distance(capsys):
    code, rep = run_cli(capsys, "perm", "distance", "--group", "Sym(4)",
                        "--sigma", "(1,2)", "--tau", "(1,2,3)")
    assert code == 0
    assert rep["results"] == {"k": 2}


@pytest.mark.parametrize("cap, k", [("1", None), ("2", 2)])
def test_perm_distance_cap(capsys, cap, k):
    code, rep = run_cli(capsys, "perm", "distance", "--group", "Sym(4)",
                        "--sigma", "(1,2)", "--tau", "(1,2,3)", "--cap", cap)
    assert code == 0
    assert rep["results"] == {"k": k}


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_perm_distance_refuses_a_cap_below_1(capsys, cap):
    """A cap below 1 was read as "tau is unreachable"."""
    code, rep = run_cli(capsys, "perm", "distance", "--group", "Sym(4)",
                        "--sigma", "(1,2)", "--tau", "(1,2,3)", "--cap", cap)
    assert code == 2
    assert rep["error"]["code"] == "invalid_parameters"
    assert rep["error"]["details"] == {"cap": int(cap)}


def test_perm_distance_across_parity_in_sym8(capsys, hang_guard):
    """An odd tau is never a product of 3-cycles; the class walk of the
    3-cycles stops inside Alt(8) without a row per element of Sym(8)."""
    code, rep = run_cli(capsys, "perm", "distance", "--group", "Sym(8)",
                        "--sigma", "(1,2,3)", "--tau", "(1,2)(3,4,5)(6,7,8)")
    assert code == 0
    assert rep["results"] == {"k": None}


# -- ext subcommands


def test_ext_build_carry(capsys):
    code, rep = run_cli(capsys, "ext", "build", "--base", "Cyc(2)",
                        "--p", "2", "--cocycle", "carry")
    assert code == 0
    assert rep["results"] == {"base_order": 2, "checked": 4,
                              "identity": "[0|0]", "order": 4, "p": 2}


def test_ext_split_coboundary(capsys):
    code, rep = run_cli(capsys, "ext", "split", "--base", "Sym(3)", "--p", "3",
                        "--cocycle", "coboundary", "--seed", "5")
    assert code == 0
    assert rep["results"]["splits"] is True
    assert len(rep["results"]["complement"]) == 6
    assert rep["results"]["complement"][0] == "[1|e]"


def test_ext_split_builds_its_base_once(capsys, monkeypatch):
    """The extension is enumerated on the base group the job built, so one
    ``ext split --cocycle coboundary`` job builds Sym(3) once."""
    real = groupcore.build_group
    built = []

    def counted(spec, *args, **kwargs):
        built.append(spec)
        return real(spec, *args, **kwargs)

    for module in (glab.cli, extensions, groupcore):
        monkeypatch.setattr(module, "build_group", counted)
    code, rep = run_cli(capsys, "ext", "split", "--base", "Sym(3)", "--p", "3",
                        "--cocycle", "coboundary", "--seed", "5")
    assert code == 0 and rep["results"]["splits"] is True
    assert built == [groupcore.SymSpec(3)]


def test_ext_split_carry_does_not(capsys):
    code, rep = run_cli(capsys, "ext", "split", "--base", "Cyc(2)",
                        "--p", "2", "--cocycle", "carry")
    assert code == 0
    assert rep["results"] == {"assignments_tried": 2, "complement": None,
                              "splits": False}


def test_ext_bound(capsys):
    code, rep = run_cli(capsys, "ext", "bound", "--base", "Cyc(2)",
                        "--p", "2", "--cocycle", "carry", "--n-max", "3")
    assert code == 0
    assert rep["results"]["holds"] is True
    assert rep["results"]["levels"]["3"] == {
        "bound": [0, 1], "contained": True, "observed": [0, 1]}


def test_ext_iwasawa(capsys):
    code, rep = run_cli(capsys, "ext", "iwasawa", "--group", "SL(2,5)",
                        "--a", "class(0,1,4,0)",
                        "--b", "ball(2,0,0,3;1,1,0,1;20)")
    assert code == 0
    assert rep["results"] == {"M": 2, "N": 1, "bound": 16,
                              "holds": True, "k_min": 2}


# -- subset grammar


def test_subset_file_and_sym(capsys, tmp_path):
    listing = tmp_path / "subset.json"
    listing.write_text(json.dumps(["1"]))
    code, rep = run_cli(capsys, "thick", "analyze", "--group", "Cyc(6)",
                        "--set", f"union(class(0),sym(file({listing})))")
    assert code == 0
    # {0} union sym({1}) = {0, 1, 5}: same analysis as arc(1)
    assert rep["results"]["set_size"] == 3
    assert rep["results"]["thickness"]["value"] == 4


def test_subset_ball_radius(capsys):
    code, rep = run_cli(capsys, "thick", "analyze", "--group", "Cyc(12)",
                        "--set", "ball(1;2)")
    assert code == 0
    assert rep["results"]["set_size"] == 5  # {0, +-1, +-2}


def test_subset_ball_refuses_negative_radius(capsys):
    code, rep = run_cli(capsys, "thick", "analyze", "--group", "Cyc(12)",
                        "--set", "ball(1;-3)")
    assert code == 2
    assert rep["error"]["code"] == "invalid_parameters"
    assert rep["error"]["details"] == {"radius": -3}


def test_subset_file_missing(capsys, tmp_path):
    missing = tmp_path / "absent.json"
    code, rep = run_cli(capsys, "thick", "analyze", "--group", "Cyc(6)",
                        "--set", f"file({missing})")
    assert code == 2
    assert rep["error"]["code"] == "invalid_parameters"
    assert rep["error"]["details"]["path"] == str(missing)


def test_subset_file_not_json(capsys, tmp_path):
    listing = tmp_path / "subset.json"
    listing.write_text("1, 2, 3 are not a JSON list")
    code, rep = run_cli(capsys, "thick", "analyze", "--group", "Cyc(6)",
                        "--set", f"file({listing})")
    assert code == 2
    assert rep["error"]["code"] == "invalid_parameters"
    assert "not JSON" in rep["error"]["message"]


def test_ext_cocycle_file_missing(capsys, tmp_path):
    missing = tmp_path / "absent.json"
    code, rep = run_cli(capsys, "ext", "build", "--base", "Cyc(2)", "--p", "2",
                        "--cocycle", f"file:{missing}")
    assert code == 2
    assert rep["error"]["code"] == "invalid_parameters"
    assert rep["error"]["details"]["path"] == str(missing)


def test_ext_cocycle_file_table(capsys, tmp_path):
    """A file holding the carry table builds the same extension as carry."""
    path = tmp_path / "carry.json"
    path.write_text(json.dumps([[0, 0], [0, 1]]))
    code, rep = run_cli(capsys, "ext", "build", "--base", "Cyc(2)", "--p", "2",
                        "--cocycle", f"file:{path}")
    assert code == 0
    assert rep["results"] == {"base_order": 2, "checked": 4,
                              "identity": "[0|0]", "order": 4, "p": 2}


@pytest.mark.parametrize("table", [
    [["a", "b"], ["c", "d"]],
    [[0, 0], [0]],
    [[0, 0], [0, 1.5]],
    [[0, 0], [0, "1"]],
    [[0, 0], [0, True]],
    [[0, 0], [0, 1], [0, 0]],
    {"table": [[0, 0], [0, 1]]},
])
def test_ext_cocycle_file_must_hold_integers(capsys, tmp_path, table):
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(table))
    code, rep = run_cli(capsys, "ext", "build", "--base", "Cyc(2)", "--p", "2",
                        "--cocycle", f"file:{path}")
    assert code == 2
    assert rep["error"]["code"] == "invalid_cocycle"


@pytest.mark.parametrize("cocycle", ["file", "coboundary"])
def test_ext_refuses_an_order_over_the_cap_before_the_table(capsys, tmp_path,
                                                            cocycle):
    """A modulus beyond int64 is refused by the order cap, not by an
    overflow while the table is reduced."""
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps([[0, 0], [0, 10 ** 20]]))
    code, rep = run_cli(capsys, "ext", "build", "--base", "Cyc(2)",
                        "--p", str(10 ** 21), "--cocycle",
                        f"file:{path}" if cocycle == "file" else cocycle)
    assert code == 3
    assert rep["error"]["code"] == "order_cap_exceeded"
    assert rep["error"]["details"] == {"cap": 100000, "order": 2 * 10 ** 21}


def test_ext_coboundary_refuses_a_modulus_below_2(capsys):
    code, rep = run_cli(capsys, "ext", "build", "--base", "Cyc(2)",
                        "--p", "0", "--cocycle", "coboundary")
    assert code == 2
    assert rep["error"]["code"] == "invalid_parameters"


def test_quotient_element_outside_the_parent(capsys):
    code, rep = run_cli(capsys, "thick", "analyze", "--group",
                        "Quot(SL(2,5),center)", "--set", "class(1,1,1,1)")
    assert code == 2
    assert rep["error"]["code"] == "group_mismatch"


def test_arc_needs_cyclic_group(capsys):
    code, rep = run_cli(capsys, "thick", "analyze", "--group", "Sym(4)",
                        "--set", "arc(1)")
    assert code == 2
    assert rep["error"]["code"] == "group_mismatch"


def test_express_needs_permutation_group(capsys):
    code, rep = run_cli(capsys, "perm", "express", "--group", "Cyc(6)",
                        "--set", "arc(1)", "--sigma", "1")
    assert code == 2
    assert rep["error"]["code"] == "group_mismatch"


# -- exit codes and error payloads


def test_exit_1_property_failure(capsys):
    code, rep = run_cli(capsys, "perm", "express", "--group", "Alt(5)",
                        "--set", "class(e)", "--sigma", "(1,2,3)")
    assert code == 1
    assert rep["error"]["code"] == "search_exhausted"


def test_exit_2_subset_syntax(capsys):
    code, rep = run_cli(capsys, "thick", "analyze",
                        "--group", "Cyc(6)", "--set", "blob(1)")
    assert code == 2
    assert rep["error"]["code"] == "syntax_error"
    assert rep["error"]["details"]["position"] == 0
    assert "class/ball/arc/file/sym/union" in rep["error"]["details"]["expected"]


def test_exit_2_group_syntax(capsys):
    code, rep = run_cli(capsys, "thick", "analyze",
                        "--group", "Foo(3)", "--set", "arc(1)")
    assert code == 2
    assert rep["error"]["code"] == "syntax_error"
    assert rep["error"]["details"]["position"] == 0


DEEP = 3000


@pytest.mark.parametrize("argv", [
    pytest.param(("thick", "analyze", "--group", "Cyc(²)", "--set", "arc(1)"),
                 id="superscript-digit"),
    pytest.param(("thick", "analyze", "--group", "Cyc(١٢)", "--set", "arc(1)"),
                 id="arabic-indic-digits"),
    pytest.param(("thick", "analyze", "--group", "Cyc(12)",
                  "--set", "class(1_1)"), id="underscore-in-element"),
    pytest.param(("thick", "analyze", "--group", "Cyc(12)",
                  "--set", "arc(1_0)"), id="underscore-in-arc"),
    pytest.param(("thick", "analyze", "--group",
                  "Prod(" * DEEP + "Cyc(2)" + ",Cyc(2))" * DEEP,
                  "--set", "class(e)"), id="deep-prod"),
    pytest.param(("thick", "analyze", "--group", "Sym(3)",
                  "--set", "sym(" * DEEP + "class(e)" + ")" * DEEP),
                 id="deep-sym"),
    pytest.param(("thick", "analyze", "--group", "Sym(3)", "--set", "class()"),
                 id="empty-class"),
    pytest.param(("thick", "analyze", "--group", "Sym(3)", "--set", "ball(;1)"),
                 id="empty-ball-element"),
    pytest.param(("perm", "distance", "--group", "Prod(Sym(3),Sym(3))",
                  "--sigma", "[|(1,2)]", "--tau", "[e|e]"), id="empty-left"),
    pytest.param(("chevalley", "class-cube", "--rank", "1", "--p", "5",
                  "--t", "2,3,1"), id="diagonal-too-long"),
    pytest.param(("chevalley", "class-cube", "--rank", "1", "--p", "5",
                  "--t", "2,x"), id="diagonal-not-integers"),
])
def test_exit_2_grammar_probes(capsys, argv):
    """Inputs that once ended in an uncaught exception, hit the recursion
    limit, or were read with non-ASCII digits or as the identity."""
    code, rep = run_cli(capsys, *argv)
    assert code == 2
    assert rep["error"]["code"] == "syntax_error"


def test_express_no_fallback_in_alt6(capsys, hang_guard):
    code, rep = run_cli(capsys, "perm", "express", "--group", "Alt(6)",
                        "--set", "union(class(e),class((1,2)(3,4)))",
                        "--sigma", "(1,2,3)", "--no-fallback")
    assert code == 2
    assert rep["error"]["code"] == "omega_too_small_and_no_fallback"
    assert rep["error"]["details"] == {"n": 6}


def test_exit_3_order_cap(capsys):
    code, rep = run_cli(capsys, "thick", "analyze",
                        "--group", "Sym(9)", "--set", "arc(1)")
    assert code == 3
    assert rep["error"]["code"] == "order_cap_exceeded"
    assert rep["error"]["details"] == {"cap": 100000, "order": 362880}


@pytest.mark.parametrize("group", ["Sym(1600)", "Alt(1700)", "Sym(300000)",
                                   "SL(120,2)", "SL(2,1000000000000000003)"])
def test_exit_3_order_cap_far_above_the_cap(capsys, hang_guard, group):
    """An order with thousands of digits is neither multiplied out nor
    printed, and a huge modulus is refused before its primality test."""
    code, rep = run_cli(capsys, "thick", "analyze",
                        "--group", group, "--set", "class(e)")
    assert code == 3
    assert rep["error"]["code"] == "order_cap_exceeded"
    assert rep["error"]["details"]["cap"] == 100000
    assert rep["error"]["details"].get("order", 0) < 10 ** 100


@pytest.mark.parametrize("rank, p", [("1", "1000000000000000003"),
                                     ("1000000000", "2"), ("2", "29")])
def test_verify_relations_refuses_too_many_instances(capsys, hang_guard,
                                                     rank, p):
    """The relation loops are bounded before the primality test of p,
    which ran for more than 10 s on the 19-digit prime."""
    t0 = time.monotonic()
    code, rep = run_cli(capsys, "chevalley", "verify-relations",
                        "--rank", rank, "--p", p)
    assert time.monotonic() - t0 < 1.0
    assert code == 3
    assert rep["error"]["code"] == "order_cap_exceeded"
    assert rep["error"]["details"]["cap"] == 100000


@pytest.mark.parametrize("argv", [("--n", "40"), ("--n", "40", "--m-max", "0")])
def test_perm_identities_refuses_too_many_instances(capsys, hang_guard, argv):
    """Every sweep is bounded before any runs: at n = 40 the quotient
    sweep at m = 2 has perm(40, 5), about 7.9·10^7 instances, and the full
    (3, 3) merge sweep perm(40, 8), about 3.6·10^12, which ran for hours."""
    t0 = time.monotonic()
    code, rep = run_cli(capsys, "perm", "identities", *argv)
    assert time.monotonic() - t0 < 1.0
    assert code == 3
    assert rep["error"]["code"] == "order_cap_exceeded"
    assert rep["error"]["details"]["cap"] == pf.SWEEP_CAP


@pytest.mark.parametrize("rank", ["-1", "0"])
def test_verify_relations_refuses_a_rank_below_1(capsys, rank):
    code, rep = run_cli(capsys, "chevalley", "verify-relations",
                        "--rank", rank, "--p", "5")
    assert code == 2
    assert rep["error"]["code"] == "invalid_parameters"
    assert rep["error"]["details"] == {"rank": int(rank)}


@pytest.mark.parametrize("p, m", [("1000000000000000003", "2"),
                                  ("99991", "5000")])
def test_sequence_refuses_too_many_checks(capsys, hang_guard, p, m):
    """The scan for s and the m·m quotient checks are bounded before the
    primality test of p; these ran for more than 10 s and 60 s before."""
    t0 = time.monotonic()
    code, rep = run_cli(capsys, "chevalley", "sequence",
                        "--rank", "1", "--p", p, "--m", m)
    assert time.monotonic() - t0 < 1.0
    assert code == 3
    assert rep["error"]["code"] == "order_cap_exceeded"
    assert rep["error"]["details"]["cap"] == 100000


@pytest.mark.parametrize("rank, p", [("2", "7"), ("2", "11")])
def test_verify_relations_under_the_cap(capsys, rank, p):
    code, rep = run_cli(capsys, "chevalley", "verify-relations",
                        "--rank", rank, "--p", p)
    assert code == 0
    assert all(rep["results"][k]["failures"] == 0
               for k in ("structure_constants", "torus_conjugation",
                         "weyl_torus_action"))


@pytest.mark.parametrize("rank, p", [(2, 23), (1, 157)])
def test_verify_relations_largest_under_the_cap(capsys, hang_guard, rank, p):
    """The largest inputs under the instance cap (r·r·p·p <= 100,000 for
    r = n(n - 1) roots); they took 1.4 s and 1.0 s with one matrix chain
    per instance."""
    n = rank + 1
    r = n * (n - 1)
    t0 = time.monotonic()
    code, rep = run_cli(capsys, "chevalley", "verify-relations",
                        "--rank", str(rank), "--p", str(p))
    assert time.monotonic() - t0 < 1.0
    assert code == 0
    res = rep["results"]
    assert res["torus_conjugation"] == {
        "checked": (p - 1) ** (n - 1) * r * p, "failures": 0}
    assert res["weyl_torus_action"] == {
        "checked": r * r * (p - 1) * p, "failures": 0}
    assert res["structure_constants"]["failures"] == 0
    # a head-to-tail pair per ordered triple of indices, each way round
    assert len(res["structure_constants"]["constants"]) == 2 * r * (n - 2)


def test_sequence_refuses_a_weight_search_over_the_cap(capsys, hang_guard):
    """The weight search grows exponentially in the rank; rank 20 ran past
    60 s before it was bounded."""
    t0 = time.monotonic()
    code, rep = run_cli(capsys, "chevalley", "sequence",
                        "--rank", "20", "--p", "3", "--m", "2")
    assert time.monotonic() - t0 < 1.0
    assert code == 3
    assert rep["error"]["code"] == "order_cap_exceeded"


@pytest.mark.parametrize("argv, details", [
    (("perm", "identities", "--n", "6", "--seed", "-1"),
     {"seed": -1, "random_samples": 200, "full_cap_points": 8}),
    (("perm", "identities", "--samples", "-1", "--full-cap", "-5"),
     {"seed": 0, "random_samples": -1, "full_cap_points": -5}),
    (("ext", "build", "--base", "Sym(3)", "--p", "3",
      "--cocycle", "coboundary", "--seed", "-1"), {"seed": -1}),
    (("ext", "split", "--base", "Sym(3)", "--p", "3",
      "--cocycle", "coboundary", "--seed", "-1"), {"seed": -1}),
    (("ext", "bound", "--cocycle", "carry", "--n-max", "-1"), {"n_max": -1}),
    (("ext", "bound", "--cocycle", "carry", "--n-max", "0"), {"n_max": 0}),
])
def test_negative_seeds_and_counts_are_refused(capsys, argv, details):
    """A negative seed crashed the rng (exit 4); a negative sample count or
    n_max gave an empty, vacuous report with exit 0."""
    code, rep = run_cli(capsys, *argv)
    assert code == 2
    assert rep["error"]["code"] == "invalid_parameters"
    assert rep["error"]["details"] == details


# -- one parser per process


def test_reused_parser_resets_defaults(capsys):
    code, rep = run_cli(capsys, "perm", "identities", "--n", "6",
                        "--samples", "5")
    assert code == 0 and rep["config"]["n"] == 6
    code, rep = run_cli(capsys, "perm", "identities", "--samples", "5")
    assert code == 0 and rep["config"]["n"] == 8
    assert rep["results"]["merge_scan"]["n"] == 8


def test_reused_parser_resets_store_true_flags(capsys):
    argv = ("thick", "analyze", "--group", "Cyc(6)", "--set", "arc(1)")
    code, rep = run_cli(capsys, *argv, "--probe-normal")
    assert code == 0 and "normal_core_probe" in rep["results"]
    code, rep = run_cli(capsys, *argv)
    assert code == 0 and rep["config"]["probe_normal"] is False
    assert "normal_core_probe" not in rep["results"]


def test_reused_parser_after_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["perm", "distance", "--group", "Sym(4)"])
    assert e.value.code == 2
    capsys.readouterr()
    code, rep = run_cli(capsys, "perm", "distance", "--group", "Sym(4)",
                        "--sigma", "(1,2)", "--tau", "(1,2,3)")
    assert code == 0 and rep["results"]["k"] == 2


def test_parser_is_built_once_by_main_not_at_import():
    probe = ("import contextlib, io, glab.cli as c\n"
             "n0 = c.build_parser.cache_info().misses\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    for p in ('2', '3'):\n"
             "        c.main(['chevalley', 'verify-relations',"
             " '--rank', '1', '--p', p])\n"
             "print(n0, c.build_parser.cache_info().misses)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0", "1"]
    assert glab.cli.build_parser() is glab.cli.build_parser()


def test_ext_order_with_thousands_of_digits(capsys):
    code, rep = run_cli(capsys, "ext", "build", "--base", "Cyc(2)",
                        "--p", "9" * 4300, "--cocycle", "coboundary")
    assert code == 3
    assert rep["error"]["details"] == {"cap": 100000}


@pytest.mark.parametrize("value", ["\u0661\u0662", "1_0", "+5", "5x", ""])
def test_integer_options_are_ascii_digits(capsys, value):
    """Integer options are read like the integers inside spec text."""
    code, rep = run_cli(capsys, "perm", "distance", "--group", "Sym(4)",
                        "--sigma", "(1,2)", "--tau", "(1,2,3)", "--cap", value)
    assert code == 2
    assert rep["error"]["code"] == "invalid_parameters"
    assert "expected an integer" in rep["error"]["message"]
    assert rep["error"]["details"] == {"value": value}


def test_bad_integer_option_gets_an_error_report(capsys):
    """A bad integer option is a JSON error report with exit 2, not
    argparse's usage text; --help and --version still exit from argparse."""
    code = main(["chevalley", "verify-relations", "--rank", "x", "--p", "5"])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 2 and err == ""
    assert set(rep) == {"error", "schema_version", "task", "version"}
    assert rep["task"] == "chevalley.verify-relations"
    assert rep["error"]["code"] == "invalid_parameters"
    assert rep["error"]["details"] == {"value": "x"}
    for argv in (["--version"], ["chevalley", "verify-relations", "--help"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 0
        assert capsys.readouterr().out
    code, rep = run_cli(capsys, "chevalley", "verify-relations",
                        "--rank", "1", "--p", "5")
    assert code == 0 and rep["config"] == {"p": 5, "rank": 1}


def test_exit_4_internal_error(capsys, monkeypatch):
    import glab.cli as cli

    def crash(a):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_run_perm_distance", crash)
    code, rep = run_cli(capsys, "perm", "distance", "--group", "Sym(4)",
                        "--sigma", "(1,2)", "--tau", "(1,2,3)")
    assert code == 4
    assert set(rep) == {"error", "schema_version", "task", "version"}
    assert rep["task"] == "perm.distance"
    assert rep["error"] == {"code": "internal_error",
                            "message": "RuntimeError: boom", "details": {}}
