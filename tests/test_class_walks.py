"""Kept class walks against the per-call walks they replaced.

``class_word_distance``, ``gn_set``, ``bounded_simplicity_degree``,
``covering_number`` and ``class_cube`` read the walks that
``FiniteGroup.class_walk_of`` keeps.  The oracles below are the loops each
of them ran before, walking the class powers or balls afresh with
``class_walk`` on every call.  Prod(Cyc(10),Sym(5)) has 70 classes and is
still table-sized; Cyc(24) is above the size rule and keeps no walk.
"""

import gc
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from glab.chevalley import class_cube, is_regular, regular_diagonals
from glab.errors import CapExceeded, InputError, PropertyFailure
from glab.groupcore import build_group, parse_group_spec
from glab.permfact import class_word_distance
from glab.thickset import bounded_simplicity_degree, covering_number, gn_set
from walk_oracles import class_walk

GROUPS = ["Alt(5)", "Sym(5)", "SL(2,7)", "Quot(SL(2,7),center)",
          "Prod(Alt(5),Sym(3))", "Prod(Cyc(10),Sym(5))", "Cyc(24)"]


def _group(spec):
    return build_group(parse_group_spec(spec))


# -- the per-call loops


def _distance_oracle(G, sigma, tau, cap=None):
    if tau == 0:
        return {"k": 0}
    if cap is None:
        cap = G.order
    cid, reps = G.conjugacy_classes()
    C = np.arange(len(reps)) == cid[sigma]
    for k, cur in enumerate(class_walk(G, C, C), start=1):
        if k > cap:
            break
        if cur[cid[tau]]:
            return {"k": k}
    return {"k": None}


def _ball_source(G, g):
    cid, reps = G.conjugacy_classes()
    source = np.zeros(len(reps), dtype=bool)
    source[[cid[g], cid[G.inv(g)]]] = True
    return source


def _gn_oracle(G, N):
    cid, reps = G.conjugacy_classes()
    e = np.arange(len(reps)) == 0
    out = np.zeros(len(reps), dtype=bool)
    done = np.zeros(len(reps), dtype=bool)
    for i, r in enumerate(reps):
        if done[i]:
            continue
        source = _ball_source(G, r)
        done |= source
        for k, ball in enumerate(class_walk(G, e, source | e)):
            if k >= N:
                break
        if ball.all():
            out |= source
    return out[cid]


def _bsd_oracle(G, cap=None):
    if cap is None:
        cap = G.order
    cid, reps = G.conjugacy_classes()
    center = G.center_mask()
    if all(center[r] for r in reps):
        raise InputError("degenerate_abelian", "all classes are central")
    worst = 0
    per_class = []
    for r in reps:
        if center[r]:
            continue
        step = _ball_source(G, r)
        step[0] = True
        for n, cur in enumerate(class_walk(G, step, step), start=1):
            if n > cap:
                raise CapExceeded("search_exhausted", f"ball radius exceeded {cap}")
            if cur.all():
                break
        else:
            return {"value": None, "witness": int(r),
                    "stabilized_order": int(np.bincount(cid)[cur].sum())}
        per_class.append({"rep": int(r), "radius": n})
        worst = max(worst, n)
    return {"value": worst, "witness": None, "per_class": per_class}


def _covering_oracle(G):
    cid, reps = G.conjugacy_classes()
    if G.is_abelian() or G.order == 1:
        raise InputError("not_simple_nonabelian", "group is abelian")
    for r in reps[1:]:
        if not G.normal_closure_mask(G.class_mask(r)).all():
            raise InputError("not_simple_nonabelian", "proper normal subgroup")
    worst = 0
    per_class = []
    for i, r in enumerate(reps[1:], start=1):
        C = np.arange(len(reps)) == i
        for n, cur in enumerate(class_walk(G, C, C), start=1):
            if cur.all():
                break
        else:
            raise PropertyFailure("search_exhausted", "class powers cycled below G")
        per_class.append({"rep": int(r), "power": n})
        worst = max(worst, n)
    return {"value": worst, "per_class": per_class}


def _min_power_oracle(G, t):
    cid, reps = G.conjugacy_classes()
    cls = np.arange(len(reps)) == cid[t]
    walk = class_walk(G, cls, cls)
    return next((k for k, cur in enumerate(walk, start=1) if cur.all()), None)


def _outcome(f, *args):
    """f(*args), or the type and code of the typed error it raises."""
    try:
        return f(*args)
    except (CapExceeded, InputError, PropertyFailure) as e:
        return type(e).__name__, e.code


# -- the kept walks give the same answers in any order of calls


@pytest.mark.parametrize("spec", GROUPS)
def test_distances_match_the_per_call_walk(spec):
    """Every (class, target) pair with cap None, 1, 2 and 3, asked in a
    seeded random order, so that each kept walk is met at every stage."""
    G = _group(spec)
    reps = G.conjugacy_classes()[1]
    calls = [(r, t, cap) for r in reps[1:] for t in reps
             for cap in (None, 1, 2, 3)]
    random.Random(3).shuffle(calls)
    for r, t, cap in calls:
        assert class_word_distance(G, r, t, cap) == _distance_oracle(G, r, t, cap)


@pytest.mark.parametrize("spec", GROUPS)
def test_gn_set_matches_the_per_call_walk(spec):
    """N = 0..5 asked in ascending order on one group and in descending
    order on another."""
    for order in (range(6), range(5, -1, -1)):
        G = _group(spec)
        for N in order:
            assert np.array_equal(gn_set(G, N), _gn_oracle(G, N))


@pytest.mark.parametrize("spec", GROUPS)
def test_bounded_simplicity_degree_matches_the_per_call_walk(spec):
    """Radii, the stuck witness with its stabilized order, and the caps
    around the degree: the one below raises, asked before and after the
    walks have gone further."""
    G = _group(spec)
    want = _outcome(_bsd_oracle, G)
    degree = want["value"] if isinstance(want, dict) else None
    caps = [None, 0, 1, 2, 3] + ([degree - 1, degree, degree + 1] if degree else [])
    for order in (caps, caps[::-1]):
        G = _group(spec)
        for cap in order:
            assert _outcome(bounded_simplicity_degree, G, cap) == \
                _outcome(_bsd_oracle, G, cap)
    if degree:
        assert _outcome(bounded_simplicity_degree, G, degree - 1) == \
            ("CapExceeded", "search_exhausted")
    if spec in ("Prod(Alt(5),Sym(3))", "Prod(Cyc(10),Sym(5))"):
        assert want["value"] is None and want["stabilized_order"] < G.order


@pytest.mark.parametrize("spec", GROUPS)
def test_covering_number_and_min_power_match_the_per_call_walk(spec):
    G = _group(spec)
    assert _outcome(covering_number, G) == _outcome(_covering_oracle, G)
    reps = G.conjugacy_classes()[1]
    for t in reps[1:]:
        assert G.class_walk_of("power", int(G.conjugacy_classes()[0][t])).full == \
            _min_power_oracle(G, t)


def test_covering_number_raises_when_powers_cycle(monkeypatch):
    """With the simplicity check passed by force, the powers of Sym(5)'s
    transpositions alternate between the two cosets of Alt(5)."""
    G = _group("Sym(5)")
    monkeypatch.setattr(G, "normal_closure_mask",
                        lambda mask: np.ones(G.order, dtype=bool))
    want = _outcome(_covering_oracle, G)
    assert want == ("PropertyFailure", "search_exhausted")
    assert _outcome(covering_number, G) == want


@pytest.mark.parametrize("spec", ["SL(2,5)", "SL(2,7)"])
def test_class_cube_min_power_matches_the_per_call_walk(spec):
    G = _group(spec)
    for m in regular_diagonals(2, G.spec.p):
        t = G.index[m]
        assert is_regular(m, 2, G.spec.p)
        assert class_cube(G, t)["min_power"] == _min_power_oracle(G, t)


@pytest.mark.parametrize("spec", ["SL(2,7)", "Prod(Cyc(10),Sym(5))"])
def test_kept_walks_go_no_further_than_asked(spec):
    """After gn_set(G, N), class_word_distance with a cap and
    bounded_simplicity_degree with a cap, no kept walk has taken more steps
    than the per-call loop computed: N, the cap and the cap plus one.  A
    class and its inverse class share one ball walk."""
    G = _group(spec)
    cid, reps = G.conjugacy_classes()
    walks = G._class_walks
    for N in range(4):
        gn_set(G, N)
        assert max(w.k for w in walks["ball"].values()) <= N
    pairs = {frozenset((i, cid[G.inv(r)])) for i, r in enumerate(reps)}
    assert len({id(w) for w in walks["ball"].values()}) == len(pairs)
    for cap in (1, 2):
        for r in reps[1:]:
            for t in reps:
                class_word_distance(G, r, t, cap)
        assert max(w.k for w in walks["power"].values()) <= cap
    _outcome(bounded_simplicity_degree, G, 4)
    assert max(w.k for w in walks["ball"].values()) <= 5


@pytest.mark.parametrize("spec", GROUPS)
def test_class_walk_of_records_the_walk(spec):
    """k, done, state, full and the first step that meets each class, of
    each walk run to its end, against the list of its states from
    class_walk."""
    G = _group(spec)
    cid, reps = G.conjugacy_classes()
    c = len(reps)
    for kind in ("power", "ball"):
        for i in range(c):
            s = np.arange(c) == i
            if kind == "ball":
                s |= np.isin(np.arange(c), [0, cid[G.inv(reps[i])]])
            states = list(class_walk(G, np.arange(c) == 0, s))
            walk = G.class_walk_of(kind, i)
            full = next((k for k, x in enumerate(states) if x.all()), None)
            assert walk.full == full
            last = len(states) - 1 if full is None else full
            assert walk.k == last and walk.done == (full is None)
            assert np.array_equal(walk.state, states[last])
            hits = np.array(states[:last + 1])
            assert [walk.first(l) for l in range(c)] == [
                int(h.argmax()) if h.any() else None for h in hits.T]
    assert (c ** 2 > 8 * G.order) == (G._class_walks == {"power": {}, "ball": {}})


def test_kept_walks_hold_little_memory():
    """Prod(Cyc(10),Sym(5)): the kept walks of gn_set(G, 3) and of the
    whole distance table hold under 0.15 MB (a c×c step matrix kept per
    walk took 0.26 MB and 0.39 MB), and hold no reference to the group,
    which is freed when dropped without the cycle collector.  Cyc(3000) is
    above the size rule and keeps no walk."""
    G = _group("Prod(Cyc(10),Sym(5))")
    cid, reps = G.conjugacy_classes()
    G.class_table()
    G.center_mask()
    held = []
    tracemalloc.start()
    try:
        gn_set(G, 3)
        held.append(tracemalloc.get_traced_memory()[0])
        for r in reps[1:]:
            for t in reps:
                class_word_distance(G, r, t)
        held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert max(held) < 0.15 * 2 ** 20
    ref = weakref.ref(G)
    gc.disable()
    try:
        del G
        assert ref() is None
    finally:
        gc.enable()
    cyc = _group("Cyc(3000)")
    assert class_word_distance(cyc, 1, 1500) == {"k": 1500}
    assert cyc._class_walks == {"power": {}, "ball": {}}
