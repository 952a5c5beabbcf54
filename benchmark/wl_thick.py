"""thick-search: the exact clique and cover searches of ``thickset``.

Each input set P is analysed as ``glab thick analyze`` does: ``thickness``,
``genericity`` and ``generic_subgroup_certificate`` on it.  A job analyses
one of the four sets that take 5-9 s each (in SL(2,5) and PSL(2,7)), or
the batch of all other sets, which take from a millisecond to 1.7 s each
and 4 s together.  Jobs of seconds keep the job quantiles steady on a
machine whose speed drifts by tens of percent from one second to the next;
a job per set would put the median on a set that takes 50 ms.
The inputs are of three kinds:

(a) normal sets, e with one or two symmetrized classes, in Alt(5), Sym(5),
    SL(2,5) and PSL(2,7) = Quot(SL(2,7),center).  Only the sets whose exact
    searches finish today are used: all 10 in Alt(5), 1 of 21 in Sym(5),
    2 of 36 in SL(2,5) and 3 of 10 in PSL(2,7); the slowest single searches
    take 2-4 s.  These do not depend on the seed.
(b) seeded random symmetric sets with e, of density 0.3-0.6 in groups of
    order 24, where a brute-force search checks them, and 0.45-0.6 in
    Alt(5).  Each of these analyses takes a few tens of milliseconds at
    most, below the median job, so the seed moves neither the median nor
    the tail; random sets in groups of order 120, or sparser ones, cost
    anywhere from 0.03 s to minutes and would.
(c) ``genericity(Cyc(1000), {e})`` alone, which is kept although it fails:
    the recursive cover search goes one level deeper per translate and
    raises ``RecursionError`` once about 1000 translates are needed.

The groups are small and their rows cheap, so the time goes to the clique
branch and bound and the cover search.
"""

from __future__ import annotations

import itertools

import numpy as np

import glab.groupcore as groupcore
import glab.thickset as thickset
import oracle
from common import Failed, Job

# spec, Arith kind, and per normal set its class-representative texts and
# whether it is analysed in a job of its own
NORMAL = [
    ("Alt(5)", ("perm", 5), [(c, False) for k in (1, 2) for c in itertools.combinations(
        ["(1,2,3)", "(1,2,3,4,5)", "(1,3,4,5,2)", "(2,4)(3,5)"], k)]),
    ("Sym(5)", ("perm", 5), [(("(2,3,4,5)", "(1,2,4)(3,5)"), False)]),
    ("SL(2,5)", ("sl", 2, 5), [(("1,1,1,2", "0,2,2,1"), True),
                               (("0,2,2,1", "0,2,2,3"), True)]),
    ("Quot(SL(2,7),center)", ("psl2", 7),
     [(("1,0,1,1", "1,2,2,5"), False), (("1,0,1,1", "2,3,3,5"), True),
      (("1,2,2,5", "2,3,3,5"), True)]),
]
LIGHT = "analyze light sets"
# spec, Arith kind, number of sets, density range
RANDOM = [
    ("Sym(4)", ("perm", 4), 2, (0.3, 0.6)),
    ("SL(2,3)", ("sl", 2, 3), 1, (0.3, 0.6)),
    ("Prod(Sym(3),Cyc(4))", ("prod", ("perm", 3), ("cyc", 4)), 1, (0.3, 0.6)),
    ("Alt(5)", ("perm", 5), 4, (0.45, 0.6)),
]
ORACLE_ORDER = 24
FAULT_N = 1000


class Input:
    def __init__(self, job, name, spec, kind, G, P, classes=None):
        self.job, self.name, self.spec, self.kind = job, name, spec, kind
        self.G, self.P, self.classes = G, P, classes


def setup(seed: int):
    rng = np.random.default_rng(seed)
    groups = {}

    def group(spec):
        if spec not in groups:
            groups[spec] = groupcore.build_group(groupcore.parse_group_spec(spec))
        return groups[spec]

    inputs = []
    for spec, kind, sets in NORMAL:
        G = group(spec)
        for reps, own_job in sets:
            P = np.zeros(G.order, dtype=bool)
            P[0] = True
            for text in reps:
                C = G.class_mask(groupcore.parse_element(G, text))
                P |= C | groupcore.inverse_mask(G, C)
            name = f"{spec} e+{'+'.join(reps)}"
            job = f"analyze {name}" if own_job else LIGHT
            inputs.append(Input(job, name, spec, kind, G, P, classes=reps))
    for spec, kind, count, (lo, hi) in RANDOM:
        G = group(spec)
        for i in range(count):
            P = rng.random(G.order) < rng.uniform(lo, hi)
            P |= groupcore.inverse_mask(G, P)
            P[0] = True
            inputs.append(Input(LIGHT, f"{spec} random{i}",
                                spec, kind, G, P))
    batches: dict[str, list] = {}
    for inp in inputs:
        batches.setdefault(inp.job, []).append(inp)
    jobs = [Job(label, lambda b=batch: {inp.name: _analyze(inp.G, inp.P) for inp in b})
            for label, batch in batches.items()]
    cyc = group(f"Cyc({FAULT_N})")
    single = np.zeros(cyc.order, dtype=bool)
    single[0] = True
    fault = Input(f"genericity Cyc({FAULT_N}) e", f"Cyc({FAULT_N}) e",
                  f"Cyc({FAULT_N})", ("cyc", FAULT_N), cyc, single)
    jobs.append(Job(fault.job, lambda: thickset.genericity(cyc, single)))
    return (inputs, fault), jobs


def _analyze(G, P) -> dict:
    return {"thickness": thickset.thickness(G, P),
            "genericity": thickset.genericity(G, P),
            "certificate": thickset.generic_subgroup_certificate(G, P)}


def check(state, outputs: dict, seed: int) -> list[str]:
    inputs, fault = state
    problems = []
    ariths = {}
    for inp in inputs + [fault]:
        if inp.spec not in ariths:
            ariths[inp.spec] = oracle.Arith(inp.kind, inp.G.elements)
    for inp in inputs:
        ar = ariths[inp.spec]
        P = set(np.nonzero(inp.P)[0].tolist())
        if inp.classes is not None:
            own = {ar.e}
            for text in inp.classes:
                form = tuple(int(t) for t in text.split(",")) if inp.kind[0] != "perm" \
                    else oracle.parse_perm(text, inp.kind[1])
                r = ar.index[ar.key(form)]
                own |= ar.class_of(r) | ar.class_of(ar.iinv(r))
            if own != P:
                problems.append(f"{inp.name}: the set differs from its classes")
                continue
        out = outputs[inp.job]
        if isinstance(out, Failed):
            continue
        out = out[inp.name]
        th, gen, cert = out["thickness"], out["genericity"], out["certificate"]
        problems += _check_clique(inp, ar, P, th)
        problems += _check_cover(inp, ar, P, gen)
        problems += _check_certificate(inp, ar, cert, gen)
        if inp.G.order <= ORACLE_ORDER:
            clique = oracle.max_clique_size(ar, P)
            cover = oracle.min_cover_size(ar, P)
            if th["value"] != clique + 1 or gen["m"] != cover:
                problems.append(f"{inp.name}: thickness {th['value']} and m "
                                f"{gen['m']}, brute force {clique + 1} and {cover}")
    out = outputs[fault.job]
    if not isinstance(out, Failed):
        problems += _check_cover(fault, ariths[fault.spec], {0}, out)
        if out["m"] != FAULT_N:
            problems.append(f"{fault.name}: m={out['m']}, expected {FAULT_N}")
    return problems


def _check_clique(inp, ar, P, th) -> list[str]:
    w = th["witness"]
    if th["status"] != "exact" or len(w) != th["value"] - 1:
        return [f"{inp.name}: thickness {th['value']} ({th['status']}) with a "
                f"witness of {len(w)}"]
    for a, b in itertools.combinations(w, 2):
        if ar.imul(ar.iinv(a), b) in P:
            return [f"{inp.name}: witness quotient {a}^-1 {b} lies in P"]
    return []


def _check_cover(inp, ar, P, gen) -> list[str]:
    m, T = gen["m"], gen["translators"]
    n = ar.order()
    if m < -(-n // len(P)) or len(T) != m:
        return [f"{inp.name}: m={m} with {len(T)} translators, |G|/|P| = "
                f"{n}/{len(P)}"]
    covered = {ar.imul(a, g) for g in T for a in P}
    if len(covered) != n:
        return [f"{inp.name}: the {m} translates cover {len(covered)} of {n}"]
    return []


def _check_certificate(inp, ar, cert, gen) -> list[str]:
    n = ar.order()
    if cert["m"] != gen["m"]:
        return [f"{inp.name}: certificate m={cert['m']}, genericity m={gen['m']}"]
    S = set(np.nonzero(cert["mask"])[0].tolist())
    if cert["power_exponent"] != 3 * cert["m"] - 2 or cert["power_order"] != len(S):
        return [f"{inp.name}: certificate power malformed"]
    closed = len(S) == n or all(ar.imul(a, b) in S for a in S for b in S)
    if cert["is_subgroup"] != closed:
        return [f"{inp.name}: is_subgroup={cert['is_subgroup']}, closure says {closed}"]
    if closed and (cert["power_order"] * cert["index"] != n
                   or cert["index_at_most_m"] != (cert["index"] <= cert["m"])):
        return [f"{inp.name}: subgroup order {cert['power_order']} times index "
                f"{cert['index']} is not {n}"]
    return []
