"""Disjoint-cycle surgery identities and two-factor expressions."""

import itertools
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import glab.permfact as permfact
import glab.thickset as thickset
from glab.errors import CapExceeded, InputError, PropertyFailure, confirm
from glab.groupcore import (
    build_group,
    element_text,
    parse_element,
    parse_group_spec,
    perm_compose,
    perm_inverse,
    perm_to_text,
)
from glab.permfact import (
    class_word_distance,
    cycle_perm,
    express_even,
    scan_cycle_quotient,
    scan_merge,
)


def _alt5_small_support_set(alt5):
    P = alt5.class_mask(0).copy()
    P |= alt5.class_mask(parse_element(alt5, "(1,2)(3,4)"))
    P |= alt5.class_mask(parse_element(alt5, "(1,2,3)"))
    return P


# -- the two identities one instance at a time: the oracles of the scans


def _distinct(*groups: tuple[int, ...]):
    flat = [p for g in groups for p in g]
    if len(set(flat)) != len(flat):
        raise InputError("overlap_violation",
                         "the point lists must be pairwise disjoint")


def cycle_quotient(n: int, x: int, a: tuple[int, ...], b: tuple[int, ...]) -> dict:
    """(x,a)^-1 ∘ (x,b) collapses to the single cycle (x, b, reversed(a)).

    Lists must have equal length and share no points (nor contain x).
    Returns image tuples for both sides; they are checked equal.
    """
    if len(a) != len(b):
        raise InputError("length_mismatch", "lists must have equal length",
                         len_a=len(a), len_b=len(b))
    _distinct((x,), a, b)
    lhs = perm_compose(perm_inverse(cycle_perm(n, (x,) + tuple(a))),
                       cycle_perm(n, (x,) + tuple(b)))
    rhs = cycle_perm(n, (x,) + tuple(b) + tuple(reversed(a)))
    confirm(lhs == rhs, "quotient identity violated", x=x, a=a, b=b)
    return {"result": rhs, "text": perm_to_text(rhs)}


def merge_split(n: int, x: int, y: int, a: tuple[int, ...],
                b: tuple[int, ...]) -> dict:
    """(x,y,a) ∘ (x,y,b) = (x,a) ∘ (y,b) for odd-length lists a and b.

    Both sides are built form-level and checked equal; returns the image
    tuple of the product and its text."""
    if len(a) % 2 == 0 or len(b) % 2 == 0:
        raise InputError("even_length", "the merge identity needs odd lists",
                         len_a=len(a), len_b=len(b))
    _distinct((x,), (y,), a, b)
    lhs = perm_compose(cycle_perm(n, (x, y) + tuple(a)),
                       cycle_perm(n, (x, y) + tuple(b)))
    rhs = perm_compose(cycle_perm(n, (x,) + tuple(a)),
                       cycle_perm(n, (y,) + tuple(b)))
    confirm(lhs == rhs, "merge identity violated", x=x, y=y, a=a, b=b)
    return {"result": lhs, "text": perm_to_text(lhs)}


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
    for shape in [(2, 2), (1, 4), (0, 1), (-1, 3)]:
        with pytest.raises(InputError) as e:  # checked before any sweep
            scan_merge(8, shapes=[shape], random_samples=0)
        assert e.value.code == "even_length"


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


def test_scan_merge_degree10_shape_3_3():
    """The heaviest sweep of the perm-sweep benchmark, over many chunks."""
    rep = scan_merge(10, shapes=[(3, 3)])
    assert rep["shapes"] == {"3,3": {"mode": "full", "instances": 1814400}}


# -- the chunked sweep kernel against a form-level loop


def _merge_instances(n, la, lb, sliced):
    """(tuple, a, b) per merge instance, 0-based, by a plain loop in the
    sweep's order: tuples (x, y, shorter list, longer list)."""
    short = min(la, lb)
    if sliced:
        tuples = ((0, 1) + t
                  for t in itertools.permutations(range(2, n), la + lb))
    else:
        tuples = itertools.permutations(range(n), 2 + la + lb)
    for t in tuples:
        s, l = t[2:2 + short], t[2 + short:]
        yield (t,) + ((s, l) if la <= lb else (l, s))


def _quotient_instances(n, m):
    for t in itertools.permutations(range(n), 2 * m + 1):
        yield t, t[1:m + 1], t[m + 1:]


def _one_based(points):
    return tuple(q + 1 for q in points)


def _record_kernel(monkeypatch, chunk=64):
    """Log (instance tuples, images) of every side the kernel builds, in
    chunks of ``chunk`` instances: 64 by default, so that small sweeps
    stream many heads."""
    monkeypatch.setattr(permfact, "CHUNK", chunk)
    log = []
    build = permfact._images

    def recording(points, moves):
        images = build(points, moves)
        log.append((points.T.tolist(), images))
        return images

    monkeypatch.setattr(permfact, "_images", recording)
    return log


def _full_rows(n, tuples, images):
    """The n-wide image rows that the images of the tuples' own points
    stand for: the identity off each tuple."""
    rows = np.tile(np.arange(n), (len(tuples), 1))
    rows[np.arange(len(tuples))[:, None], tuples] = images.T
    return rows


def _checked(n, log):
    """Instances, left rows and right rows in the order they were checked
    (each chunk builds its left side first)."""
    rows = [_full_rows(n, tuples, images) for tuples, images in log]
    return ([tuple(t) for tuples, _ in log[::2] for t in tuples],
            np.concatenate(rows[::2]), np.concatenate(rows[1::2]))


@pytest.mark.parametrize("n, cap, shapes", [
    (7, 8, [(1, 1), (1, 3), (3, 1)]),
    (8, 4, [(1, 1), (1, 3), (3, 1), (3, 3)]),
])
def test_scan_merge_matches_a_form_level_loop(monkeypatch, n, cap, shapes):
    log = _record_kernel(monkeypatch)
    for la, lb in shapes:
        log.clear()
        rep = scan_merge(n, full_cap_points=cap, random_samples=0,
                         shapes=[(la, lb)])
        tuples, left, right = _checked(n, log)
        want, images = [], []
        for t, a, b in _merge_instances(n, la, lb, 2 + la + lb > cap):
            want.append(t)
            images.append(merge_split(n, t[0] + 1, t[1] + 1, _one_based(a),
                                      _one_based(b))["result"])
        assert rep["shapes"][f"{la},{lb}"]["instances"] == len(want)
        assert tuples == want
        assert (left == np.array(images)).all()
        assert (right == np.array(images)).all()


def test_scan_cycle_quotient_matches_a_form_level_loop(monkeypatch):
    log = _record_kernel(monkeypatch)
    rep = scan_cycle_quotient(7, 3)
    tuples, left, right = _checked(7, log)
    want, images, counts = [], [], {}
    for m in range(4):
        for t, a, b in _quotient_instances(7, m):
            want.append(t)
            images.append(cycle_quotient(7, t[0] + 1, _one_based(a),
                                         _one_based(b))["result"])
            counts[m] = counts.get(m, 0) + 1
    assert rep["counts"] == counts
    assert tuples == want
    assert (left == np.array(images)).all()
    assert (right == np.array(images)).all()


def test_sweeps_past_255_points(monkeypatch):
    """At n >= 256 a point no longer fits a byte: the tuples and images
    are uint16, and every point up to n - 1 is swept."""
    log = _record_kernel(monkeypatch, permfact.CHUNK)
    assert scan_cycle_quotient(300, 0) == {"n": 300, "counts": {0: 300},
                                           "total": 300}
    tuples, left, right = _checked(300, log)
    assert tuples == [(x,) for x in range(300)]
    assert (left == np.arange(300)).all() and (right == left).all()

    log.clear()
    rep = scan_merge(300, shapes=[(1, 1)], full_cap_points=3,
                     random_samples=0)
    assert rep["shapes"] == {"1,1": {"mode": "slice", "instances": 298 * 297}}
    assert {images.dtype for _, images in log} == {np.dtype(np.uint16)}
    # 88,506 full rows of 300 points would take 200 MB: compare the images
    tuples = [tuple(t) for ts, _ in log[::2] for t in ts]
    assert tuples == [(0, 1) + t
                      for t in itertools.permutations(range(2, 300), 2)]
    left, right = (np.concatenate([images for _, images in log[i::2]], axis=1)
                   for i in (0, 1))
    assert (left == right).all()
    for k in range(0, len(tuples), 997):
        t = tuples[k]
        want = merge_split(300, 1, 2, (t[2] + 1,), (t[3] + 1,))["result"]
        assert (_full_rows(300, [t], left[:, k:k + 1]) == want).all()


def test_sweep_compares_both_sides():
    """(x,y,z) = (y,z,x) on all 60 triples of 5 points, but (x,y,z) is not
    (x,z,y): the first triple is named, whichever side is which."""
    assert permfact._sweep(5, (), 3, [[0, 1, 2]], [[1, 2, 0]], "rotation",
                           {}) == 60
    for lhs, rhs in [([[0, 1, 2]], [[0, 2, 1]]), ([[0, 2, 1]], [[0, 1, 2]]),
                     ([[0, 1]], []), ([], [[1, 2]])]:
        with pytest.raises(PropertyFailure) as e:
            permfact._sweep(5, (), 3, lhs, rhs, "false", {"x": 0, "t": [1, 2]})
        assert e.value.message == "false identity violated"
        assert e.value.details == {"x": 1, "t": (2, 3)}


def test_tails_table_is_the_injective_tuples():
    """The tails table lists the injective t-tuples over range(m) in
    itertools' order, one per column, at every m <= 7 and t <= m."""
    for m in range(8):
        for t in range(m + 1):
            got = permfact._injective(m, t)
            want = list(itertools.permutations(range(m), t))
            assert got.shape == (t, len(want))
            assert [tuple(c) for c in got.T.tolist()] == want


@pytest.mark.parametrize("chunk", [64, 4096, permfact.CHUNK])
def test_chunk_size_changes_nothing(monkeypatch, chunk):
    """Every chunk size gives the same tuples in the same order, the same
    counts and the same first bad instance.  At 64 the 8-point sweeps
    cross head blocks: (3, 3) on 8 points has 1,680 heads of 4 points, in
    blocks of 128."""
    monkeypatch.setattr(permfact, "CHUNK", chunk)
    for n, fixed, length in [(8, (), 8), (8, (), 5), (9, (0, 1), 4),
                             (7, (), 1), (300, (), 2)]:
        chunks = list(permfact._instance_chunks(n, fixed, length))
        assert max(c.shape[1] for c in chunks) <= chunk
        rest = [p for p in range(n) if p not in fixed]
        assert [tuple(t) for c in chunks for t in c.T.tolist()] == [
            fixed + t for t in itertools.permutations(rest, length)]
    assert scan_cycle_quotient(8, 3)["counts"] == {
        m: len(list(itertools.permutations(range(8), 2 * m + 1)))
        for m in range(4)}
    assert scan_merge(8, half_max=1, random_samples=0)["shapes"] == {
        "1,1": {"mode": "full", "instances": 1680},
        "1,3": {"mode": "full", "instances": 20160},
        "3,1": {"mode": "full", "instances": 20160},
        "3,3": {"mode": "full", "instances": 40320}}
    with pytest.raises(PropertyFailure) as e:  # false on every instance
        permfact._sweep(9, (0, 1), 4, [[0, 2, 3]], [[0, 3, 2]], "false",
                        {"x": 0, "t": [2, 3, 4, 5]})
    assert e.value.details == {"x": 1, "t": (3, 4, 5, 6)}
    instances = list(_merge_instances(8, 3, 3, False))
    t, a, b = instances[30000]
    _break_kernel(monkeypatch, instances[30001][0], t, chunk=chunk)
    with pytest.raises(PropertyFailure) as e:
        scan_merge(8, random_samples=0, shapes=[(3, 3)])
    assert e.value.details == {"x": t[0] + 1, "y": t[1] + 1,
                               "a": _one_based(a), "b": _one_based(b)}


def test_sweeps_past_the_cap_are_refused_before_any_runs(monkeypatch):
    """Each scan counts the instances of all its sweeps, perm(n - fixed,
    length) each, before it runs one, and refuses a count above SWEEP_CAP;
    a slice fixes x and y, so it counts perm(n - 2, la + lb)."""
    swept = []
    monkeypatch.setattr(permfact, "_sweep", lambda n, fixed, length, *rest:
                        swept.append((n, len(fixed), length)) or 0)
    for scan in (lambda: scan_cycle_quotient(40, 2),
                 lambda: scan_merge(40, half_max=1),
                 lambda: scan_merge(40, shapes=[(1, 1), (1, 3)],
                                    full_cap_points=6)):
        with pytest.raises(CapExceeded) as e:
            scan()
        assert e.value.code == "order_cap_exceeded"
        assert e.value.details["cap"] == permfact.SWEEP_CAP
    assert swept == []
    scan_merge(40, shapes=[(1, 1), (1, 3)], full_cap_points=4, random_samples=0)
    assert swept == [(40, 0, 4), (40, 2, 4)]
    # criterion 8's largest full sweep runs under a cap of its own size
    monkeypatch.setattr(permfact, "SWEEP_CAP", math.perm(12, 8))
    scan_merge(12, shapes=[(3, 3)], random_samples=0)
    monkeypatch.setattr(permfact, "SWEEP_CAP", math.perm(12, 8) - 1)
    with pytest.raises(CapExceeded):
        scan_merge(12, shapes=[(3, 3)], random_samples=0)
    assert swept[2:] == [(12, 0, 8)]


@pytest.mark.parametrize("n, m, counts", [
    (300, 1, {0: 300, 1: 300 * 299 * 298}),
    (9000, 0, {0: 9000}),
])
def test_sweep_memory_stays_bounded_past_255_points(n, m, counts):
    """89,700 heads of 2 points and 26,730,600 instances of the quotient
    identity at m = 1 on 300 points, and 9,000 heads of 9,000 points with
    empty tails: the head blocks keep the traced peak at a few MB, where
    one block of every head's pool took 81 MB at 300 points."""
    import tracemalloc
    tracemalloc.start()
    try:
        rep = scan_cycle_quotient(n, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["counts"] == counts
    assert peak < 4 << 20


def test_scan_merge_spot_checks_format_no_text(monkeypatch):
    """The spot checks stay on image arrays, and every requested random
    sample is checked."""
    rows = []
    sides = permfact._merge_sides

    def counting(n, la, points):
        rows.extend(points.tolist())
        return sides(n, la, points)

    monkeypatch.setattr(permfact, "_merge_sides", counting)
    # a call would fail; permfact imports no perm_to_text since the
    # single-instance identities that formatted their text left it
    monkeypatch.setattr(permfact, "perm_to_text", None, raising=False)
    rep = scan_merge(8, shapes=[(1, 3)], random_samples=50)
    assert rep["random_checks"] == len(rows) == 50


# -- the batched spot checks against the form-level loops


def _form_level_spot_checks(n, shapes, seed, samples):
    """The spot checks of scan_merge one draw at a time, from cycle_perm,
    perm_compose and merge_split: per equivariance draw its 0-based
    points, la, sigma and both sides; per random draw its points, la and
    product.  The draws are scan_merge's: per kind, one rng call for the
    shape indices and one for the permutations, two per equivariance
    draw."""
    rng = np.random.default_rng(seed)

    def draws(k, per):
        which = rng.integers(len(shapes), size=k)
        perms = rng.permuted(np.tile(np.arange(n), (k * per, 1)), axis=1)
        for s, ps in zip(which.tolist(), perms.reshape(k, per, n).tolist()):
            la, lb = shapes[s]
            yield la, tuple(ps[0][:2 + la + lb]), *map(tuple, ps[1:])

    relabeled, merged = [], []
    for la, pts, sigma in draws(200, 2):
        x, y, a, b = pts[0], pts[1], pts[2:2 + la], pts[2 + la:]
        inv = perm_inverse(sigma)
        left = right = ()
        for cyc in [(x, y) + a, (x, y) + b, (x,) + a, (y,) + b]:
            c = cycle_perm(n, _one_based(cyc))
            left += perm_compose(sigma, perm_compose(c, inv))
            right += cycle_perm(n, tuple(sigma[q] + 1 for q in cyc))
        assert left == right
        relabeled.append((pts, la, sigma, left))
    for la, pts in draws(samples, 1):
        merged.append((pts, la, merge_split(
            n, pts[0] + 1, pts[1] + 1, _one_based(pts[2:2 + la]),
            _one_based(pts[2 + la:]))["result"]))
    return relabeled, merged


def _spot_checks_only(monkeypatch):
    """Let scan_merge skip its sweeps and log what its spot checks build:
    per checked draw (points, sigma or None, left side, right side)."""
    monkeypatch.setattr(permfact, "_sweep", lambda *args: 0)
    log = []

    def recording(sides):
        def logged(n, la, points, *sigma):
            left, right = sides(n, la, points, *sigma)
            rest = sigma[0].tolist() if sigma else [None] * len(points)
            log.extend(zip(points.tolist(), rest, left.tolist(),
                           right.tolist()))
            return left, right
        return logged

    for name in ("_merge_sides", "_relabel_sides"):
        monkeypatch.setattr(permfact, name,
                            recording(getattr(permfact, name)))
    return log


SPOT_SHAPES = [
    (7, [(1, 1), (1, 3), (3, 1)]),
    (8, [(1, 1), (1, 3), (3, 1), (3, 3), (1, 5)]),
    (12, [(2 * p + 1, 2 * q + 1) for p in range(4) for q in range(4)
          if 2 * p + 2 * q + 4 <= 12]),
]


@pytest.mark.parametrize("n, shapes", SPOT_SHAPES)
@pytest.mark.parametrize("seed", [0, 5])
def test_spot_checks_match_the_form_level_loops(monkeypatch, n, shapes,
                                                 seed):
    """Same seed, same draws: the batched checks see each draw of the
    form-level loops, and build the images those loops build."""
    log = _spot_checks_only(monkeypatch)
    rep = scan_merge(n, shapes=shapes, seed=seed, random_samples=300)
    assert rep["equivariance_checks"] == 200 and rep["random_checks"] == 300
    relabeled, merged = _form_level_spot_checks(n, shapes, seed, 300)
    want = Counter(
        [(p, s, left, left) for p, _, s, left in relabeled]
        + [(p, None, img, img) for p, _, img in merged])
    got = Counter((tuple(p), s if s is None else tuple(s), tuple(left),
                   tuple(right)) for p, s, left, right in log)
    assert got == want
    assert {(la, len(p) - 2 - la) for p, la, *_ in relabeled + merged} \
        == set(shapes)


def _break_cycles(monkeypatch, points):
    """Make the batched cycle builder return the identity for the cycle
    through the 0-based ``points``, in that order."""
    build = permfact._cycles

    def broken(n, rows):
        images = build(n, rows)
        if rows.shape[1] == len(points):
            images[(rows == points).all(axis=1)] = np.arange(n)
        return images

    monkeypatch.setattr(permfact, "_cycles", broken)


@pytest.mark.parametrize("n, shapes", SPOT_SHAPES)
@pytest.mark.parametrize("stage", ["relabel", "merge"])
def test_spot_checks_report_the_broken_sample(monkeypatch, n, shapes, stage):
    """A cycle builder that is wrong on one draw's (x, y, a) is caught, and
    the first draw that uses that cycle is named, 1-based, with its sigma
    in the equivariance checks."""
    seed = 3
    relabeled, merged = _form_level_spot_checks(n, shapes, seed, 300)

    def cycles(draw):
        p, la = draw[:2]
        cs = [p[:2 + la], p[:2] + p[2 + la:], p[:1] + p[2:2 + la],
              p[1:2] + p[2 + la:]]
        if len(draw) == 4:  # an equivariance draw: the relabeled cycles too
            cs += [tuple(draw[2][q] for q in c) for c in cs]
        return cs

    def xya(draw):
        return draw[0][:2 + draw[1]]

    if stage == "relabel":
        draws, cycle = relabeled, xya(relabeled[100])
    else:  # a random draw whose (x, y, a) no equivariance draw builds
        draws, taken = merged, {c for d in relabeled for c in cycles(d)}
        cycle = next(xya(d) for d in merged[150:] if xya(d) not in taken)
    first = next(d for d in draws if cycle in cycles(d))
    p, la = first[:2]
    details = {"x": p[0] + 1, "y": p[1] + 1, "a": _one_based(p[2:2 + la]),
               "b": _one_based(p[2 + la:])}
    if stage == "relabel":
        details["sigma"] = _one_based(first[2])
    monkeypatch.setattr(permfact, "_sweep", lambda *args: 0)
    _break_cycles(monkeypatch, cycle)
    with pytest.raises(PropertyFailure) as e:
        scan_merge(n, shapes=shapes, seed=seed, random_samples=300)
    assert e.value.code == "search_exhausted"
    assert e.value.message == ("conjugation equivariance violated"
                               if stage == "relabel"
                               else "merge identity violated")
    assert e.value.details == details


def test_spot_checks_stay_checks_under_optimisation():
    """Under python -O a broken inverse still raises PropertyFailure."""
    src = os.path.dirname(os.path.dirname(permfact.__file__))
    code = (
        "import glab.permfact as pf\n"
        "from glab.errors import PropertyFailure\n"
        "pf._sweep = lambda *args: 0\n"
        "pf._inverse = lambda f: f\n"
        "try:\n"
        "    pf.scan_merge(8, shapes=[(1, 3)])\n"
        "except PropertyFailure as e:\n"
        "    print(e.code, e.message)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], text=True,
                         capture_output=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out == "search_exhausted conjugation equivariance violated\n"


def _break_kernel(monkeypatch, *instances, chunk=64):
    """Make the kernel build a wrong left side (its images reversed) for
    the given 0-based instance tuples, in chunks of ``chunk`` instances."""
    monkeypatch.setattr(permfact, "CHUNK", chunk)
    build = permfact._images
    calls = itertools.count()

    def broken(points, moves):
        images = build(points, moves)
        if next(calls) % 2 == 0:  # each chunk builds its left side first
            for t in instances:
                if len(t) == len(points):
                    hit = (points.T == t).all(axis=1)
                    images[:, hit] = images[::-1, hit]
        return images

    monkeypatch.setattr(permfact, "_images", broken)


@pytest.mark.parametrize("gap", [1, 1000])
@pytest.mark.parametrize("n, cap, shape, first", [
    (7, 8, (1, 3), 700),   # la <= lb: the shorter list a comes first
    (7, 8, (3, 1), 1234),  # la > lb: the shorter list b comes first
    (8, 4, (3, 3), 300),   # slice x = 1, y = 2
    (300, 3, (1, 1), 87000),  # uint16 points past 255
])
def test_scan_merge_reports_the_first_violation(monkeypatch, gap, n, cap,
                                                shape, first):
    instances = list(_merge_instances(n, *shape, 2 + sum(shape) > cap))
    t, a, b = instances[first]
    _break_kernel(monkeypatch, instances[(first + gap) % len(instances)][0], t)
    with pytest.raises(PropertyFailure) as e:
        scan_merge(n, full_cap_points=cap, random_samples=0, shapes=[shape])
    assert e.value.code == "search_exhausted"
    assert e.value.message == "merge identity violated"
    assert e.value.details == {"x": t[0] + 1, "y": t[1] + 1,
                               "a": _one_based(a), "b": _one_based(b)}


@pytest.mark.parametrize("gap", [1, 1000])
def test_scan_cycle_quotient_reports_the_first_violation(monkeypatch, gap):
    instances = list(_quotient_instances(7, 2))
    t, a, b = instances[500]
    _break_kernel(monkeypatch, instances[500 + gap][0], t,
                  next(_quotient_instances(7, 3))[0])
    with pytest.raises(PropertyFailure) as e:
        scan_cycle_quotient(7, 3)
    assert e.value.code == "search_exhausted"
    assert e.value.message == "quotient identity violated"
    assert e.value.details == {"x": t[0] + 1, "a": _one_based(a),
                               "b": _one_based(b)}


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


@pytest.mark.parametrize("sigma, mode", [("(1,2)(3,4)", "constructive"),
                                         ("(1,2,3,4,5)", "fallback")])
def test_express_checks_its_product(monkeypatch, sigma, mode):
    """A wrong product q1 * q2 is a typed failure on both routes, not an
    assert that python -O drops."""
    G = build_group(parse_group_spec("Alt(5)"))
    P, s = _alt5_small_support_set(G), parse_element(G, sigma)
    got, mul = express_even(G, P, s), G.mul
    assert got["mode"] == mode
    monkeypatch.setattr(G, "mul", lambda a, b: 0 if (a, b) == (
        got["q1"], got["q2"]) else mul(a, b))
    with pytest.raises(PropertyFailure) as e:
        express_even(G, P, s)
    assert e.value.code == "search_exhausted"
    assert e.value.details == {"q1": got["q1"], "q2": got["q2"], "sigma": s}


def _express_or_error(G, P, sigma):
    try:
        return express_even(G, P, sigma)
    except (InputError, PropertyFailure) as e:
        return e.code


def test_express_budget_flag_matches_the_full_thickness(alt5, monkeypatch):
    """The flag's clique search stops at the bound it needs; over every
    normal set with e and every class of Alt(5) it gives what a clique
    search without that stop, the full thickness, gives."""
    cid, reps = alt5.conjugacy_classes()
    sets = []
    for picks in itertools.product((False, True), repeat=len(reps) - 1):
        P = alt5.class_mask(0).copy()
        for r, pick in zip(reps[1:], picks):
            if pick:
                P |= alt5.class_mask(r)
        sets.append(P)
    capped = [_express_or_error(alt5, P, r) for P in sets for r in reps]
    full_clique = permfact._quotient_clique
    monkeypatch.setattr(permfact, "_quotient_clique",
                        lambda G, M, cap=None: full_clique(G, M))
    full = [_express_or_error(alt5, P, r) for P in sets for r in reps]
    assert capped == full
    flags = Counter(got["budget_guaranteed"] for got in capped
                    if isinstance(got, dict))
    assert flags[True] > 0 and flags[False] > 0


def test_express_budget_flag_above_the_clique_cap(hang_guard):
    """Sym(7) is above the clique cap, and the flag still asks the capped
    search.  P misses the transpositions and the class of (2,4,6)(3,5,7),
    and [0, 11, 92] is a P-free triangle, so P is not 3-thick, while the
    budget of sigma = (1,2,3) on 7 points needs 3-thick.  The greedy
    clique, a lower bound on the thickness, had the flag read true."""
    G = build_group(parse_group_spec("Sym(7)"))
    assert G.order > thickset.EXACT_CLIQUE_CAP
    P = ~(G.class_mask(parse_element(G, "(1,2)"))
          | G.class_mask(parse_element(G, "(2,4,6)(3,5,7)")))
    for a, b in itertools.combinations([0, 11, 92], 2):
        assert not P[G.mul(G.inv(a), b)]
    sigma = parse_element(G, "(1,2,3)")
    got = express_even(G, P, sigma)
    assert got["budget_guaranteed"] is False
    assert P[got["q1"]] and P[got["q2"]]
    assert G.mul(got["q1"], got["q2"]) == sigma


@pytest.mark.parametrize("cls,mode", [("(1,2,3)", "constructive"),
                                      ("(1,2)(3,4)", "fallback")])
def test_express_in_alt6_without_a_full_thickness(hang_guard, cls, mode):
    """A full clique search on e with the 3-cycles of Alt(6) takes about a
    minute, and on e with the double transpositions longer; the flag only
    needs to know whether the thickness is at most 2."""
    G = build_group(parse_group_spec("Alt(6)"))
    three = parse_element(G, "(1,2,3)")
    P = G.class_mask(0) | G.class_mask(parse_element(G, cls))
    got = express_even(G, P, three)
    assert got["mode"] == mode and got["budget_guaranteed"] is False
    assert P[got["q1"]] and P[got["q2"]]
    assert G.mul(got["q1"], got["q2"]) == three


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


def test_express_no_fallback_in_alt6(hang_guard):
    """The error names no thickness: a full clique search on e with the
    double transpositions of Alt(6) runs for minutes."""
    G = build_group(parse_group_spec("Alt(6)"))
    P = G.class_mask(0) | G.class_mask(parse_element(G, "(1,2)(3,4)"))
    with pytest.raises(InputError) as e:
        express_even(G, P, parse_element(G, "(1,2,3)"), allow_fallback=False)
    assert e.value.code == "omega_too_small_and_no_fallback"
    assert e.value.details == {"n": 6}


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
    tau = parse_element(sym4, "(1,2,3)")
    assert class_word_distance(sym4, t, tau, cap=1) == {"k": None}
    assert class_word_distance(sym4, t, tau, cap=2) == {"k": 2}
    for cap in (0, -3):
        with pytest.raises(InputError) as e:
            class_word_distance(sym4, t, tau, cap=cap)
        assert e.value.code == "invalid_parameters"
    with pytest.raises(InputError) as e:
        class_word_distance(sym4, 0, t)
    assert e.value.code == "identity_sigma"
