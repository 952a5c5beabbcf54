"""class-balls: class balls, covering numbers, class distances and class
cubes on six groups of order 168 to 1320, built once per round.

Nearly all of the time goes to ``FiniteGroup.row`` and ``product_mask``;
``gn_set`` on SL(2,11) alone builds all of its 1320 Cayley rows.  The jobs
use each group warm within a round, after the first job has paid for its
rows, but every round starts from freshly built groups because a user pays
for the rows on every run.  The seed picks the sample that the checks
recompute by word enumeration.
"""

from __future__ import annotations

import math
import random

import numpy as np

import glab.chevalley as chevalley
import glab.groupcore as groupcore
import glab.permfact as permfact
import glab.thickset as thickset
import oracle
from common import Failed, Job

# spec text, closed-form order, known number of conjugacy classes, Arith kind
GROUPS = [
    ("Alt(6)", math.factorial(6) // 2, 7, ("perm", 6)),
    ("Sym(6)", math.factorial(6), 11, ("perm", 6)),
    ("SL(2,7)", 7 * (7 ** 2 - 1), 7 + 4, ("sl", 2, 7)),
    ("Quot(SL(2,7),center)", 7 * (7 ** 2 - 1) // 2, 6, ("psl2", 7)),
    ("Prod(Alt(5),Sym(3))", 60 * 6, 5 * 3, ("prod", ("perm", 5), ("perm", 3))),
    ("SL(2,11)", 11 * (11 ** 2 - 1), 11 + 4, ("sl", 2, 11)),
]
SIMPLE = ("Alt(6)", "Quot(SL(2,7),center)")
SL2 = ("SL(2,7)", "SL(2,11)")
RADII = range(1, 5)


def setup(seed: int):
    groups = {spec: groupcore.build_group(groupcore.parse_group_spec(spec))
              for spec, *_ in GROUPS}
    jobs = []
    for N in RADII:
        for spec, G in groups.items():
            jobs.append(Job(f"gn_set {spec} N={N}",
                            lambda G=G, N=N: thickset.gn_set(G, N)))
    for spec, G in groups.items():
        jobs.append(Job(f"bounded_simplicity_degree {spec}",
                        lambda G=G: thickset.bounded_simplicity_degree(G)))
    for spec in SIMPLE:
        jobs.append(Job(f"covering_number {spec}",
                        lambda G=groups[spec]: thickset.covering_number(G)))
    for spec, _, nclasses, _ in GROUPS:
        for i in range(1, nclasses):
            jobs.append(Job(f"class_word_distance {spec} class={i}",
                            lambda G=groups[spec], i=i: _distances(G, i)))
    for spec in SL2:
        G = groups[spec]
        for m in chevalley.regular_diagonals(2, G.spec.p):
            jobs.append(Job(f"class_cube {spec} t={m}",
                            lambda G=G, m=m: chevalley.class_cube(G, G.index[m])))
    return groups, jobs


def _distances(G, i: int) -> dict:
    """Distance from the i-th class to every class, by class representative."""
    reps = G.conjugacy_classes()[1]
    return {int(t): permfact.class_word_distance(G, reps[i], t)["k"] for t in reps}


def check(groups: dict, outputs: dict, seed: int) -> list[str]:
    problems: list[str] = []
    rng = random.Random(seed)
    ars = {}
    for spec, order, nclasses, kind in GROUPS:
        G = groups[spec]
        if G.order != order:
            problems.append(f"{spec}: order {G.order}, expected {order}")
            continue
        cid, reps = G.conjugacy_classes()
        if len(reps) != nclasses:
            problems.append(f"{spec}: {len(reps)} classes, expected {nclasses}")
            continue
        ars[spec] = oracle.Arith(kind, G.elements)
        problems += _check_balls(spec, G, ars[spec], outputs)
        problems += _check_distances(spec, G, ars[spec], outputs)
    for spec in SIMPLE:
        out = outputs[f"covering_number {spec}"]
        if not isinstance(out, Failed) and spec in ars:
            problems += _check_covering(spec, groups[spec], ars[spec], out, rng)
    for spec in SL2:
        if spec in ars:
            problems += _check_cubes(spec, groups[spec], ars[spec], outputs, rng)
    problems += _check_samples(groups, ars, outputs, rng)
    return problems


def _check_balls(spec, G, ar, outputs) -> list[str]:
    problems = []
    cid, reps = G.conjugacy_classes()
    prev = None
    bsd = outputs[f"bounded_simplicity_degree {spec}"]
    for N in RADII:
        gn = outputs[f"gn_set {spec} N={N}"]
        if isinstance(gn, Failed):
            continue
        members = set(np.nonzero(gn)[0].tolist())
        if any(gn[x] != gn[r] for r in reps for x in np.nonzero(cid == cid[r])[0]):
            problems.append(f"gn_set {spec} N={N} is not a union of classes")
        if any(ar.iinv(x) not in members for x in members):
            problems.append(f"gn_set {spec} N={N} is not closed under inverses")
        if prev is not None and not prev <= members:
            problems.append(f"gn_set {spec} N={N} does not contain N={N - 1}")
        prev = members
        if isinstance(bsd, Failed):
            continue
        if bsd["value"] is None:
            if gn[bsd["witness"]]:
                problems.append(f"gn_set {spec} N={N} holds the stuck class "
                                f"{bsd['witness']}")
            continue
        want = set()
        for pc in bsd["per_class"]:
            if pc["radius"] <= N:
                r = pc["rep"]
                want |= set(np.nonzero((cid == cid[r]) | (cid == cid[ar.iinv(r)]))[0].tolist())
        if want != members:
            problems.append(f"gn_set {spec} N={N} disagrees with the radii of "
                            "bounded_simplicity_degree")
    return problems


def _check_distances(spec, G, ar, outputs) -> list[str]:
    problems = []
    reps = G.conjugacy_classes()[1]
    for i in range(1, len(reps)):
        out = outputs[f"class_word_distance {spec} class={i}"]
        if isinstance(out, Failed):
            continue
        if out.get(reps[0]) != 0 or out.get(reps[i]) != 1:
            problems.append(f"class_word_distance {spec} class={i}: "
                            "k(e) != 0 or k(own class) != 1")
        # in Sym(n), n >= 5, an even class generates the simple Alt(n) and an
        # odd class all of Sym(n), and C^k holds only elements of sign s^k
        if not spec.startswith("Sym(") or G.order < 120:
            continue
        s = oracle.perm_sign(G.elements[reps[i]])
        for t in reps[1:]:
            k, st = out[t], oracle.perm_sign(G.elements[t])
            if s == 1:
                ok = (k is None) if st == -1 else (k is not None)
            else:
                ok = k is not None and (-1) ** k == st
            if not ok:
                problems.append(f"class_word_distance {spec} class={i} to {t}: "
                                f"k={k} breaks sign parity")
    return problems


def _check_covering(spec, G, ar, out, rng) -> list[str]:
    problems = []
    reps = G.conjugacy_classes()[1]
    powers = {pc["rep"]: pc["power"] for pc in out["per_class"]}
    if sorted(powers) != sorted(reps[1:]) or out["value"] != max(powers.values()):
        return [f"covering_number {spec}: per-class powers malformed"]
    r = rng.choice(reps[1:])
    cls = ar.class_of(r)
    cur, n = set(cls), 1
    while len(cur) < G.order and n <= G.order:
        cur = oracle.set_power(ar, cur, cls)
        n += 1
    if n != powers[r]:
        problems.append(f"covering_number {spec}: class of {r} covers at "
                        f"power {n} by enumeration, glab says {powers[r]}")
    return problems


def _check_cubes(spec, G, ar, outputs, rng) -> list[str]:
    problems = []
    p = G.spec.p
    mats = chevalley.regular_diagonals(2, p)
    for m in mats:
        out = outputs[f"class_cube {spec} t={m}"]
        if isinstance(out, Failed):
            continue
        if not (out["cube_is_group"] and out["square_covers_complement"]
                and out["class_size"] == p * (p + 1)
                and out["min_power"] in (2, 3)):
            problems.append(f"class_cube {spec} t={m}: {out}")
    m = rng.choice(mats)
    cls = ar.class_of(ar.index[m])
    square = oracle.set_power(ar, cls, cls)
    cube = oracle.set_power(ar, square, cls)
    center = {ar.index[oracle.mat_id(2)], ar.index[tuple((-x) % p for x in oracle.mat_id(2))]}
    if len(cube) != G.order or len(square | center) != G.order:
        problems.append(f"class_cube {spec} t={m}: by enumeration C^3 has "
                        f"{len(cube)} and C^2 u Z {len(square | center)} elements")
    return problems


def _check_samples(groups, ars, outputs, rng) -> list[str]:
    """Radii and distances recomputed by word enumeration on a seeded sample."""
    problems = []
    specs = sorted(ars)
    for _ in range(2):
        spec = rng.choice(specs)
        G, ar = groups[spec], ars[spec]
        bsd = outputs[f"bounded_simplicity_degree {spec}"]
        if isinstance(bsd, Failed):
            continue
        if bsd["value"] is None:
            r = bsd["witness"]
            src = ar.class_of(r) | ar.class_of(ar.iinv(r))
            if oracle.ball_radius(ar, src, G.order) is not None:
                problems.append(f"{spec}: the ball of stuck class {r} covers G")
            continue
        pc = rng.choice(bsd["per_class"])
        r = pc["rep"]
        src = ar.class_of(r) | ar.class_of(ar.iinv(r))
        got = oracle.ball_radius(ar, src, G.order)
        if got != pc["radius"]:
            problems.append(f"{spec}: ball radius of class {r} is {got} by "
                            f"enumeration, glab says {pc['radius']}")
    for _ in range(3):
        spec = rng.choice(specs)
        G, ar = groups[spec], ars[spec]
        reps = G.conjugacy_classes()[1]
        i = rng.randrange(1, len(reps))
        t = rng.choice(reps)
        out = outputs[f"class_word_distance {spec} class={i}"]
        if isinstance(out, Failed):
            continue
        got = oracle.class_power_distance(ar, ar.class_of(reps[i]), t, G.order)
        if got != out[t]:
            problems.append(f"{spec}: distance from class {i} to {t} is {got} "
                            f"by enumeration, glab says {out[t]}")
    return problems
