"""The index-level kernel against the form-level product.

The group kernel computes rows and inverses by walking the enumeration
tree, classes and centres from conjugation tables, and closures, subgroup
and normality tests and commutators from rows, inverses and class ids.
These tests recompute all of them with ``mul_form``/``inv_form`` only, on
random small groups of every family, and pin the enumeration order of each
family's frozen test group.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    return build_extension(base.spec, p, table)[1]


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
    _, E = build_extension(base.spec, 3, coboundary_cocycle(base, 3, seed=7))
    assert _digest(E) == "bf47ecfea95bf907"
    _, E = build_extension(*carry_cocycle())
    assert _digest(E) == "51affb9eda67fa59"


def test_quotient_by_a_permutation_in_gen():
    """gen(...) takes element texts that hold parentheses, such as cycles."""
    Q = build_group(parse_group_spec("Quot(Sym(4),gen((1,2)(3,4)))"))
    assert Q.order == 6 and len(Q.conjugacy_classes()[1]) == 3
