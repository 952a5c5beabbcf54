"""The index-level kernel against the form-level product.

The group kernel computes rows and inverses by walking the enumeration
tree, classes and centres from conjugation tables, and closures, subgroup
and normality tests and commutators from rows, inverses and class ids.
These tests recompute all of them with ``mul_form``/``inv_form`` only, on
random small groups of every family, and pin the enumeration order of each
family's frozen test group.
"""

import ast
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glab import groupcore
from glab.errors import CapExceeded
from glab.extensions import build_extension, carry_cocycle, coboundary_cocycle
from glab.groupcore import (
    AbSpec,
    AltSpec,
    CycSpec,
    ProductSpec,
    SLSpec,
    SymSpec,
    build_group,
    commutator_mask,
    element_text,
    is_normal_mask,
    is_subgroup_mask,
    mask_from_indices,
    parse_group_spec,
)

LEAVES = (
    st.builds(CycSpec, st.integers(1, 12))
    | st.builds(AbSpec, st.tuples(st.integers(1, 4), st.integers(1, 4)))
    | st.builds(SymSpec, st.integers(1, 5))
    | st.builds(AltSpec, st.integers(1, 6))
    | st.builds(SLSpec, st.just(2), st.sampled_from([2, 3, 5]))
)
SMALL_LEAVES = LEAVES.filter(lambda s: build_group(s).order <= 24)


@st.composite
def groups(draw):
    """A built group of any family, of order at most 360."""
    kind = draw(st.sampled_from(["leaf", "prod", "quot", "ext"]))
    if kind == "leaf":
        return build_group(draw(LEAVES))
    if kind == "prod":
        return build_group(ProductSpec(draw(SMALL_LEAVES), draw(SMALL_LEAVES)))
    if kind == "quot":
        left = build_group(draw(SMALL_LEAVES))
        right = build_group(draw(SMALL_LEAVES.filter(
            lambda s: build_group(s).order <= 12)))
        parent = build_group(ProductSpec(left.spec, right.spec))
        text = _spec_text(parent.spec)
        if draw(st.booleans()):
            return build_group(parse_group_spec(f"Quot({text},center)"))
        # the normal closure of (x, e) keeps the right factor in the quotient
        x = draw(st.sampled_from(left.elements))
        seed = parent.index[(x, right.elements[0])]
        return build_group(parse_group_spec(
            f"Quot({text},gen({element_text(parent, seed)}))"))
    base = build_group(draw(SMALL_LEAVES))
    p = draw(st.sampled_from([2, 3, 5]))
    table = coboundary_cocycle(base, p, seed=draw(st.integers(0, 9)))
    return build_extension(base, p, table)


def _spec_text(spec) -> str:
    match spec:
        case CycSpec(modulus=k):
            return f"Cyc({k})"
        case AbSpec(moduli=mods):
            return "Ab(" + ",".join(map(str, mods)) + ")"
        case SymSpec(degree=n):
            return f"Sym({n})"
        case AltSpec(degree=n):
            return f"Alt({n})"
        case SLSpec(n=n, p=p):
            return f"SL({n},{p})"
        case ProductSpec(left=left, right=right):
            return f"Prod({_spec_text(left)},{_spec_text(right)})"


def _form_rows(G) -> np.ndarray:
    return np.array([[G.index[G.mul_form(fa, fb)] for fb in G.elements]
                     for fa in G.elements], dtype=np.int64)


def _form_inverses(G) -> np.ndarray:
    return np.array([G.index[G.inv_form(f)] for f in G.elements], dtype=np.int64)


def _form_closure(G, rows, seeds, conjugate=False) -> np.ndarray:
    """Breadth-first closure of {e} ∪ seeds under products from ``rows``.

    With ``conjugate``, the seeds are first closed under conjugation by
    every element, so the result is the normal closure.
    """
    inv = _form_inverses(G)
    todo = list(seeds)
    seeds = set(todo)
    while conjugate and todo:
        x = todo.pop()
        for g in range(G.order):
            y = int(rows[rows[inv[g], x], g])
            if y not in seeds:
                seeds.add(y)
                todo.append(y)
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    todo = [0]
    while todo:
        x = todo.pop()
        for s in seeds:
            y = int(rows[x, s])
            if not mask[y]:
                mask[y] = True
                todo.append(y)
    return mask


def _form_classes(G):
    """Class ids and least members, conjugating by every element's form."""
    cid = [-1] * G.order
    reps = []
    for x in range(G.order):
        if cid[x] >= 0:
            continue
        fx = G.elements[x]
        for fg in G.elements:
            cid[G.index[G.mul_form(G.mul_form(G.inv_form(fg), fx), fg)]] = len(reps)
        reps.append(x)
    return cid, reps


@given(G=groups(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_form_level_products(G, data):
    rows = _form_rows(G)
    assert (np.stack([G.row(a) for a in range(G.order)]) == rows).all()
    inv = _form_inverses(G)
    assert (G.inverses() == inv).all()
    cid, reps = G.conjugacy_classes()
    assert (cid.tolist(), reps) == _form_classes(G)
    central = [all(rows[x, g] == rows[g, x] for g in range(G.order))
               for x in range(G.order)]
    assert G.center_mask().tolist() == central

    element = st.integers(0, G.order - 1)
    seeds = data.draw(st.lists(element, min_size=1, max_size=3))
    sub = G.subgroup_closure(seeds)
    assert (sub == _form_closure(G, rows, seeds)).all()
    normal = G.normal_closure_mask(mask_from_indices(G, seeds))
    assert (normal == _form_closure(G, rows, seeds, conjugate=True)).all()

    # [a, b] = a^-1 b^-1 a b, every pair multiplied out
    comms = np.zeros(G.order, dtype=bool)
    comms[rows[rows[inv[:, None], inv[None, :]], rows]] = True
    assert (commutator_mask(G) == comms).all()

    bits = data.draw(st.lists(st.booleans(), min_size=G.order, max_size=G.order))
    for mask in (np.array(bits), sub, normal, sub | np.array(bits)):
        members = np.flatnonzero(mask)
        closed = bool(mask[0]) and bool(mask[rows[np.ix_(members, members)]].all())
        assert is_subgroup_mask(G, mask) == closed
        # conjugates[g, j] = g^-1 m_j g
        g = np.arange(G.order)[:, None]
        conjugates = rows[rows[inv[g], members[None, :]], g]
        assert is_normal_mask(G, mask) == bool(mask[conjugates].all())


@pytest.mark.parametrize("text,layered", [
    ("Cyc(40)", False), ("Sym(4)", False),
    ("Alt(6)", True), ("SL(2,7)", True), ("Prod(Alt(5),Sym(3))", True)])
def test_both_row_walks_match_form_products(text, layered):
    """Trees of thin layers are walked element by element, others by layer."""
    G = build_group(parse_group_spec(text))
    assert (G._tree._thin is None) == layered
    assert (np.stack([G.row(a) for a in range(G.order)]) == _form_rows(G)).all()
    assert (G.inverses() == _form_inverses(G)).all()


def _digest(G) -> str:
    return hashlib.sha256(repr(G.elements).encode()).hexdigest()[:16]


@pytest.mark.parametrize("text,digest", [
    ("Cyc(12)", "8e0b0301e2b318f3"),
    ("Ab(4,2)", "bf9eab1f93eec0ac"),
    ("Sym(6)", "b16f0ea3ef729b4a"),
    ("Alt(5)", "7181c2e1d66e0b91"),
    ("SL(2,5)", "b124f932a6211692"),
    ("SL(3,3)", "3416cdc3085e62f5"),
    ("Prod(Alt(5),Sym(3))", "168bfc35070774c8"),
    ("Quot(SL(2,5),center)", "399ce2d6a491acb3"),
    ("Quot(Cyc(12),gen(6))", "b0229c06acf4d5c9"),
])
def test_enumeration_order_is_frozen(text, digest):
    assert _digest(build_group(parse_group_spec(text))) == digest


def test_extension_enumeration_order_is_frozen():
    base = build_group(AbSpec((2, 2)))
    E = build_extension(base, 3, coboundary_cocycle(base, 3, seed=7))
    assert _digest(E) == "bf47ecfea95bf907"
    E = build_extension(*carry_cocycle())
    assert _digest(E) == "51affb9eda67fa59"


def test_quotient_by_a_permutation_in_gen():
    """gen(...) takes element texts that hold parentheses, such as cycles."""
    Q = build_group(parse_group_spec("Quot(Sym(4),gen((1,2)(3,4)))"))
    assert Q.order == 6 and len(Q.conjugacy_classes()[1]) == 3


def _form_bfs(model):
    """The enumeration with one ``model.mul`` per (element, generator) pair,
    as ``build_group`` ran it before its layers were multiplied at once:
    the elements, the right tables (k, |G|) and each element's first edge
    as (parent, k)."""
    elements = [model.identity]
    index = {model.identity: 0}
    right, edges = [], []
    frontier = [model.identity]
    while frontier:
        found, pending = {}, []
        for f in frontier:
            for g in model.generator_forms:
                h = model.mul(f, g)
                i = index.get(h)
                if i is None:
                    found.setdefault(h, len(right))
                    pending.append(len(right))
                    i = h
                right.append(i)
        frontier = sorted(found)
        for h in frontier:
            index[h] = len(elements)
            elements.append(h)
            edges.append(found[h])
        for pos in pending:
            right[pos] = index[right[pos]]
    k = len(model.generator_forms)
    right = np.array(right, dtype=np.int64).reshape(len(elements), k).T
    edges = [divmod(e, k) for e in edges]
    return elements, right, edges


def _extension():
    base = build_group(SymSpec(4))
    return build_extension(base, 3, coboundary_cocycle(base, 3, seed=7))


ORACLE_GROUPS = (
    ["Cyc(1)", "Cyc(2)", "Cyc(24)", "Ab(2,2)", "Ab(30,40)"]
    + [f"Sym({n})" for n in range(1, 8)] + [f"Alt({n})" for n in range(2, 8)]
    + [f"SL(2,{p})" for p in (2, 3, 5, 7, 11, 13)] + ["SL(3,2)", "SL(3,3)"]
    + ["Quot(SL(2,7),center)", "Prod(Alt(5),Sym(3))", "extension"])


@pytest.mark.parametrize("text", ORACLE_GROUPS)
def test_layer_products_match_the_form_level_bfs(text):
    """One batched product per layer numbers every element, fills every
    right table and picks every tree edge as the pairwise loop does."""
    G = _extension() if text == "extension" else build_group(parse_group_spec(text))
    elements, right, edges = _form_bfs(G._model)
    # repr also pins the types: tuples of Python ints, ints for Cyc
    assert repr(G.elements) == repr(elements)
    assert G.index == {f: i for i, f in enumerate(elements)}
    tree = G._tree
    assert tree.right.shape == right.shape and (tree.right == right).all()
    n = G.order
    assert list(zip(tree._parent.tolist(), (tree._offset // n).tolist())) == edges
    # every Cayley row: row(a)[0] = a and a·(x·g_k) = (a·x)·g_k
    for lo in range(0, n, 512):
        starts = np.arange(lo, min(lo + 512, n))
        rows = G.rows(starts)
        assert (rows[:, 0] == starts).all()
        for table in right:
            assert (rows[:, table] == table[rows]).all()
        for a, row in zip(starts.tolist(), rows):
            assert (tree.row(a) == row).all()
    inverses = [G.index[G._model.inv(f)] for f in elements]
    assert G.inverses().tolist() == inverses


@pytest.mark.parametrize("text,layered", [
    ("Cyc(24)", False), ("Sym(4)", False), ("SL(2,5)", False),
    ("Alt(6)", True), ("Cyc(1)", True)])
def test_row_batches_equal_stacked_rows(text, layered):
    """row() walks thin trees element by element, and rows() a small batch
    on them start by start and a large one by layer; all give the same
    rows, for any batch and an empty one."""
    G = build_group(parse_group_spec(text))
    assert (G._tree._thin is None) == layered
    starts = np.random.default_rng(3).permutation(G.order)
    stacked = np.stack([G._tree.row(int(a)) for a in starts])
    assert (G.rows(starts[:1]) == stacked[:1]).all()
    # the per-layer slices are built by the first layered walk only
    assert ("_steps" in vars(G._tree)) == layered
    assert (G.rows(starts[:2]) == stacked[:2]).all()
    assert (G.rows(starts) == stacked).all()
    assert G.rows(np.array([], dtype=np.int64)).shape == (0, G.order)


def test_largest_sl2_under_the_cap_enumerates(hang_guard):
    """SL(2,43), 79,464 elements, the largest SL(2,p) under the default
    cap; sampled rows and inverses agree with the form-level product."""
    G = build_group(SLSpec(2, 43))
    assert G.order == 43 * (43 ** 2 - 1) == 79_464
    rng = np.random.default_rng(0)
    sample = rng.choice(G.order, 6, replace=False)
    inv = G.inverses()
    for a, row in zip(sample.tolist(), G.rows(sample)):
        fa = G.elements[a]
        for b in rng.choice(G.order, 50).tolist():
            assert row[b] == G.index[G.mul_form(fa, G.elements[b])]
        assert inv[a] == G.index[G.inv_form(fa)]
    with pytest.raises(CapExceeded):
        build_group(SLSpec(2, 47))


def test_kernel_checks_stay_checks_under_optimisation():
    """Under python -O the overflow guard of the mod-p kernel, the stacked
    inverse check, the extension's order and identity checks, the clique
    and cover replays, the normal core check, the commutator check of
    ``commutator_width``, the root-factor peeling and recomposition, the
    transport's height progress, both L·D·U recompositions, the regular
    sequence's quotients, the p-power count of ``abelian_invariants`` and
    the root-system checks of ``rootsys`` still raise their typed errors."""
    src = os.path.dirname(os.path.dirname(groupcore.__file__))
    code = (
        "import numpy as np\n"
        "from glab import chevalley, extensions, groupcore\n"
        "from glab.errors import ToolkitError\n"
        "def attempt(f):\n"
        "    try:\n"
        "        f()\n"
        "    except ToolkitError as e:\n"
        "        print(type(e).__name__, e.code, e.message)\n"
        "eye = np.eye(2, dtype=np.int64)\n"
        "attempt(lambda: groupcore._mul_mod(eye, eye, 2 ** 32))\n"
        "attempt(lambda: chevalley._checked_inverse(eye + np.eye(2, k=1, dtype=np.int64), eye, 5))\n"
        "real = extensions._enumerate\n"
        "extensions._enumerate = lambda spec, model, cap: model.parent\n"
        "attempt(lambda: extensions.build_extension(*extensions.carry_cocycle()))\n"
        "extensions._enumerate = real\n"
        "E = extensions.build_extension(*extensions.carry_cocycle())\n"
        "E.spec = groupcore.CocycleExtSpec(E.spec.p, E.spec.base, (1,) + E.spec.values[1:])\n"
        "attempt(lambda: extensions.identity_inverse_check(E))\n"
        "from glab import thickset\n"
        "G = groupcore.build_group(groupcore.SymSpec(3))\n"
        "everything = np.ones(G.order, dtype=bool)\n"
        "thickset._max_clique = lambda adj, cap, orbits: [0, 1]\n"
        "attempt(lambda: thickset.thickness(G, everything))\n"
        "thickset._pack_bits = lambda hit: [(1 << hit.shape[1]) - 1] * len(hit)\n"
        "attempt(lambda: thickset.genericity(G, groupcore.mask_from_indices(G, [0, 1])))\n"
        "T = G.class_mask(0) | G.class_mask(1)\n"
        "cert = {'is_subgroup': True, 'mask': T, 'm': 1, 'power_order': 4}\n"
        "attempt(lambda: thickset.normal_core_probe(G, cert))\n"
        "groupcore.commutator_mask = lambda G: everything\n"
        "attempt(lambda: groupcore.commutator_width(G))\n"
        "x_elem, mat_mul = chevalley.x_elem, chevalley.mat_mul\n"
        "chevalley.x_elem = lambda n, p, r, s: groupcore.mat_identity(n)\n"
        "attempt(lambda: chevalley.unipotent_factor((1, 1, 0, 1), 2, 5))\n"
        "chevalley.x_elem = lambda n, p, r, s: x_elem(n, p, r, s if s < 0 else 2 * s)\n"
        "attempt(lambda: chevalley.unipotent_factor((1, 1, 0, 1), 2, 5))\n"
        "chevalley.x_elem = x_elem\n"
        "chevalley.root_value = lambda t, r, n, p: 0\n"
        "t3 = chevalley.regular_diagonals(3, 5)[0]\n"
        "attempt(lambda: chevalley.transport_into_opposite(3, 5, t3, (1, 0, 0, 1, 1, 0, 1, 1, 1)))\n"
        "groupcore.mat_mul = lambda a, b, n, p: a\n"
        "attempt(lambda: groupcore.gauss_jordan((2, 1, 1, 1), 2, 5))\n"
        "groupcore.mat_mul = mat_mul\n"
        "S = groupcore.build_group(groupcore.SLSpec(2, 5))\n"
        "t = chevalley.regular_diagonals(2, 5)[0]\n"
        "chevalley.gauss_jordan = lambda m, n, p: (None, ((1, 0, 0, 1), t, (1, 0, 0, 1)))\n"
        "attempt(lambda: chevalley.gauss_prescribed(S, S.index[(1, 1, 0, 1)], S.index[t]))\n"
        "chevalley.is_regular = lambda q, n, p: False\n"
        "attempt(lambda: chevalley.regular_sequence('A', 1, 7, 2))\n"
        "C = groupcore.build_group(groupcore.CycSpec(6))\n"
        "C.power = lambda x, k: 0\n"
        "attempt(lambda: groupcore.abelian_invariants(C))\n"
        "from glab import rootsys\n"
        "attempt(lambda: rootsys.pairing((1, 0), (0, 0)))\n"
        "R = rootsys.build_root_system('A', 2)\n"
        "rootsys.root_weight = lambda R, lam, b: 0\n"
        "attempt(lambda: rootsys.lambda_weights(R))\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], text=True,
                         capture_output=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out == (
        "CapExceeded modulus_cap_exceeded int64 matrix products overflow at this modulus\n"
        "PropertyFailure search_exhausted stacked inverse must invert\n"
        "PropertyFailure search_exhausted extension order is not p·|H|\n"
        "PropertyFailure search_exhausted extension identity is not (-h(e,e), e)\n"
        "PropertyFailure search_exhausted a clique quotient lies outside the set\n"
        "PropertyFailure search_exhausted the translates do not cover G\n"
        "PropertyFailure search_exhausted the normal core is not a subgroup\n"
        "PropertyFailure search_exhausted a commutator lies outside [G, G]\n"
        "PropertyFailure search_exhausted peeling must terminate at identity\n"
        "PropertyFailure search_exhausted the root factors must multiply back to the matrix\n"
        "PropertyFailure search_exhausted transport peeling must make height progress\n"
        "PropertyFailure search_exhausted L·D·U must multiply back to the matrix\n"
        "PropertyFailure search_exhausted L·D·U must multiply back to the conjugate\n"
        "PropertyFailure search_exhausted a pairwise quotient is not regular\n"
        "PropertyFailure search_exhausted order-dividing count must be a p-power\n"
        "PropertyFailure search_exhausted pairing must be integral on roots\n"
        "PropertyFailure search_exhausted every positive root must weigh more than 0\n")


def test_no_assert_in_the_library():
    """Every claim check in ``src/glab`` is a call that raises, such as
    ``errors.confirm``: ``python -O`` strips an ``assert`` statement."""
    src = os.path.dirname(groupcore.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                tree = ast.parse(f.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


def test_class_balls_workload_round_passes_its_checks(monkeypatch):
    """One round of ``benchmark/``'s class-balls workload through its
    harness: no job fails and the workload's checks find no problem, so
    renaming a function it calls fails here and not only in the benchmark."""
    bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmark")
    monkeypatch.syspath_prepend(bench)
    import harness
    import wl_classballs
    from common import Failed
    out = harness.run_round(wl_classballs, 1)
    assert [k for k, v in out.outputs.items() if isinstance(v, Failed)] == []
    assert wl_classballs.check(out.state, out.outputs, 1) == []


def test_thick_search_workload_round_passes_its_checks(monkeypatch):
    """One round of the thick-search workload through its harness: the
    clique and cover searches it runs fail no job, and its checks (brute
    force on the groups of order 24, replays on the others) find no
    problem, so a search change that breaks the benchmark fails here."""
    bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmark")
    monkeypatch.syspath_prepend(bench)
    import harness
    import wl_thick
    from common import Failed
    out = harness.run_round(wl_thick, 1)
    assert [k for k, v in out.outputs.items() if isinstance(v, Failed)] == []
    assert wl_thick.check(out.state, out.outputs, 1) == []


def test_perm_sweep_workload_round_passes_its_checks(monkeypatch):
    """One round of the perm-sweep workload through its harness: the
    quotient and merge sweeps and their spot checks fail no job, and the
    checks (instance counts from falling factorials, spot-check counts)
    find no problem, so a sweep change that breaks the benchmark fails
    here."""
    bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmark")
    monkeypatch.syspath_prepend(bench)
    import harness
    import wl_perm
    from common import Failed
    out = harness.run_round(wl_perm, 1)
    assert [k for k, v in out.outputs.items() if isinstance(v, Failed)] == []
    assert wl_perm.check(out.state, out.outputs, 1) == []


def test_benchmark_tracer_wraps_and_restores(monkeypatch):
    """``benchmark/spans.py`` wraps glab functions and ``FiniteGroup``
    methods by name: on Sym(4) it counts rows and products, and
    ``remove`` puts every original back."""
    bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmark")
    monkeypatch.syspath_prepend(bench)
    import spans
    from glab import thickset
    owners = [m for name, m in sorted(sys.modules.items())
              if name.split(".")[0] == "glab"] + [groupcore.FiniteGroup]
    before = [(owner, dict(vars(owner))) for owner in owners]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert groupcore.product_mask is not before[owners.index(groupcore)][1][
            "product_mask"]
        G = build_group(parse_group_spec("Sym(4)"))
        P = G.class_mask(0) | G.class_mask(1)
        A = groupcore.mask_from_indices(G, [0, 1, 2])
        groupcore.product_mask(G, A, P)
        thickset.thickness(G, P)
        thickset.genericity(G, P)
        G.row(3)
    finally:
        tracer.remove()
    assert tracer.counts["groupcore.row_calls"] > 0
    assert tracer.counts["groupcore.product_mask_calls"] > 0
    for owner, attrs in before:
        assert all(vars(owner)[k] is v for k, v in attrs.items()), owner
