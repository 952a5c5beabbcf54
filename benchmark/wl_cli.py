"""cli-tasks: the cold path through ``glab.cli.main``, one task per job.

Every job calls ``main`` in-process with its standard output captured, so
it parses its arguments, builds its own groups and writes its JSON report,
as a user's command does.  The jobs cover all 12 task kinds of the CLI, in
rank 1-2, p <= 7, bases of order <= 24 and groups of order <= 360.  Each
kind gets a fixed number of jobs, sized so that no kind dominates; the seed
picks the parameters that leave a job's cost about the same (elements,
diagonals, cocycle seeds, sample counts and subsets from pools of cheap
ones).  This is the only workload that runs ``chevalley``, ``extensions``,
``rootsys`` and the report and replay code of ``cli``, and it uses
``groupcore`` cold: every job enumerates fresh groups and touches few rows.

Two jobs are kept although they fail today; each should end in a typed
input error with exit code 2:

* ``perm express`` on ``Cyc(6)`` raises an uncaught ``TypeError``;
* ``chevalley sequence --p 9`` exits 0 with a sequence over Z/9, which is
  not a field.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random

import glab.cli
import glab.groupcore as groupcore
import oracle
from common import Failed, Job


class UnexpectedExit(Exception):
    """A task ended with another exit code than the one it should."""


KNOWN_FAULTS = [
    ("perm", "express", "--group", "Cyc(6)", "--set", "arc(1)", "--sigma", "1"),
    ("chevalley", "sequence", "--rank", "2", "--p", "9", "--m", "3"),
]

# regular_sequence succeeds on these (rank, p, m), m >= 2
SEQUENCES = [(1, 5, 2), (1, 7, 2), (1, 7, 3), (2, 5, 2), (2, 7, 2), (2, 7, 3)]
# thick analyze: (n, k) of Cyc(n) with arc(k), and class-representative
# texts of sets e + classes; all have cheap exact searches
ARCS = [(12, 1), (16, 2), (20, 2), (24, 3), (18, 1), (22, 3)]
CLASS_SETS = [
    ("Sym(4)", [("(1,2)", "(1,2,3)"), ("(1,2,3,4)", "(1,2)(3,4)"),
                ("(1,2)", "(1,2,3,4)"), ("(1,2,3)", "(1,2)(3,4)")]),
    ("Alt(5)", [("(1,2,3)",), ("(1,2)(3,4)",), ("(1,2,3)", "(1,2)(3,4)"),
                ("(1,2,3,4,5)", "(1,2)(3,4)")]),
    ("SL(2,3)", [("1,0,1,1",), ("0,1,2,1",), ("1,0,1,1", "1,1,0,1"),
                 ("0,1,2,1", "2,0,0,2")]),
]
# perm express: unions in Alt(5) of e and two or three of these classes all
# have P*P = Alt(5) (a single 5-cycle class does not)
ALT5_CLASSES = ["(1,2,3)", "(1,2)(3,4)", "(1,2,3,4,5)", "(1,3,4,5,2)"]
# perm distance: (group, class of sigma, class of tau)
DISTANCES = [
    ("Sym(4)", "(1,2)", "(1,2,3,4)"), ("Sym(4)", "(1,2,3)", "(1,2)(3,4)"),
    ("Sym(5)", "(1,2)", "(1,2,3,4,5)"), ("Sym(5)", "(1,2,3)", "(1,2)(3,4)"),
    ("Sym(5)", "(1,2)(3,4)", "(1,2,3)"), ("Sym(5)", "(1,2,3,4)", "(1,2)"),
    ("Alt(5)", "(1,2,3)", "(1,2,3,4,5)"), ("Alt(5)", "(1,2)(3,4)", "(1,2,3)"),
    ("Alt(5)", "(1,2,3,4,5)", "(1,2)(3,4)"), ("Alt(6)", "(1,2,3)", "(1,2,3,4,5)"),
    ("Alt(6)", "(1,2)(3,4)", "(1,2,3)(4,5,6)"), ("Alt(6)", "(1,2,3,4)(5,6)", "(1,2,3)"),
]
# ext build / split / bound: (cocycle base, its order, p) of the coboundary jobs
EXT_BASES = {
    "build": [("Sym(4)", 24, 7), ("SL(2,3)", 24, 5), ("Cyc(12)", 12, 7),
              ("Sym(3)", 6, 5), ("Ab(2,3)", 6, 7)],
    "split": [("Sym(4)", 24, 3), ("SL(2,3)", 24, 3), ("Sym(3)", 6, 7),
              ("Cyc(6)", 6, 5), ("Ab(2,2)", 4, 7)],
    "bound": [("Sym(4)", 24, 7), ("SL(2,3)", 24, 5), ("Sym(3)", 6, 7),
              ("Ab(2,2)", 4, 5)],
}
# ext iwasawa: noncentral classes of SL(2,5), and its Borel subgroup
IWASAWA_CLASSES = ["1,1,1,2", "0,2,2,1"]
SL25_BOREL = "ball(2,0,0,3;1,1,0,1;20)"


# --------------------------------------------------------------------------
# own element lists and text forms


def perms(n: int, even: bool = False) -> list[tuple]:
    out = [p for p in itertools.permutations(range(n))]
    return [p for p in out if oracle.perm_sign(p) == 1] if even else out


def perm_text(p: tuple) -> str:
    seen, parts = set(), []
    for s in range(len(p)):
        if s in seen or p[s] == s:
            continue
        cyc, x = [], s
        while x not in seen:
            seen.add(x)
            cyc.append(x + 1)
            x = p[x]
        parts.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(parts) or "e"


def parse_mat(text: str) -> tuple:
    return tuple(int(t) for t in text.split(","))


def mat_text(m: tuple) -> str:
    return ",".join(map(str, m))


def det(m: tuple, n: int, p: int) -> int:
    if n == 2:
        return (m[0] * m[3] - m[1] * m[2]) % p
    return sum(m[0 * n + a] * m[1 * n + b] * m[2 * n + c] * oracle.perm_sign((a, b, c))
               for a, b, c in itertools.permutations(range(3))) % p


def sl_elements(n: int, p: int) -> list[tuple]:
    return [m for m in itertools.product(range(p), repeat=n * n) if det(m, n, p) == 1]


def own_arith(spec: str) -> oracle.Arith:
    """Arith on this file's own element list of a Sym, Alt or SL group."""
    name, args = spec[:-1].split("(")
    nums = [int(t) for t in args.split(",")]
    if name == "Sym":
        return oracle.Arith(("perm", nums[0]), perms(nums[0]))
    if name == "Alt":
        return oracle.Arith(("perm", nums[0]), perms(nums[0], even=True))
    return oracle.Arith(("sl", nums[0], nums[1]), sl_elements(nums[0], nums[1]))


def parse_elem(spec: str, text: str):
    if spec.startswith(("Sym", "Alt")):
        return oracle.parse_perm(text, int(spec[4:-1]))
    return parse_mat(text)


# --------------------------------------------------------------------------
# the job list


def _task(argv, expect_code: int = 0):
    def fn():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = glab.cli.main(list(argv))
        if code != expect_code:
            raise UnexpectedExit(f"exit {code}, expected {expect_code}")
        return code, buf.getvalue()
    return fn


class Relabel:
    """Seeded conjugation of element texts, which keeps a job's classes and
    so, nearly, its cost: even permutations for Alt, SL(2,p) for matrices."""

    def __init__(self, rng):
        self.rng = rng
        self._pools: dict = {}

    def __call__(self, spec: str, text: str) -> str:
        if spec.startswith(("Sym", "Alt")):
            n = int(spec[4:-1])
            key = ("perm", n, spec.startswith("Alt"))
            if key not in self._pools:
                self._pools[key] = perms(n, even=key[2])
            pi = self.rng.choice(self._pools[key])
            x = oracle.parse_perm(text, n)
            return perm_text(oracle.perm_mul(oracle.perm_mul(pi, x), oracle.perm_inv(pi)))
        p = int(spec.split(",")[1][:-1])
        if p not in self._pools:
            self._pools[p] = sl_elements(2, p)
        h = self.rng.choice(self._pools[p])
        x = parse_mat(text)
        return mat_text(oracle.mat_mul(oracle.mat_mul(h, x, 2, p),
                                       oracle.mat_inv(h, 2, p), 2, p))


def _class_union(spec: str, classes) -> str:
    identity = "1,0,0,1" if spec.startswith("SL") else "e"
    return (f"union(class({identity}),"
            + ",".join(f"sym(class({c}))" for c in classes) + ")")


def plan(seed: int) -> list[tuple[tuple, dict]]:
    """(argv, meta) for every job of one round; meta drives the checks."""
    rng = random.Random(seed)
    relabel = Relabel(rng)
    out = []

    def add(argv, **meta):
        out.append((tuple(str(a) for a in argv), meta))

    for rank in (1, 2):
        for p in (2, 3, 5, 7):
            add(["chevalley", "verify-relations", "--rank", rank, "--p", p],
                kind="relations", n=rank + 1, p=p)
    add(["chevalley", "class-cube", "--rank", 1, "--p", 5], kind="cube", p=5,
        count=5 - 3)
    for p in (5, 7):
        a = rng.choice([a for a in range(2, p - 1) if a * a % p != 1])
        add(["chevalley", "class-cube", "--rank", 1, "--p", p, "--t",
             f"{a},{pow(a, -1, p)}"], kind="cube", p=p, count=1)
    for n, p, reps in ((2, 5, 6), (2, 7, 5), (3, 2, 5)):
        elems = [m for m in sl_elements(n, p)
                 if any(m[i * n + j] for i in range(n) for j in range(n) if i != j)
                 or len({m[i * n + i] for i in range(n)}) > 1]
        for _ in range(reps):
            g = rng.choice(elems)
            d = [rng.randrange(1, p) for _ in range(n - 1)]
            d.append(pow(math.prod(d), -1, p))
            t = tuple(d[i] if i == j else 0 for i in range(n) for j in range(n))
            add(["chevalley", "gauss", "--rank", n - 1, "--p", p,
                 "--g", mat_text(g), "--t", mat_text(t)],
                kind="gauss", n=n, p=p, g=g, t=t)
    for _ in range(12):
        rank, p, m = rng.choice(SEQUENCES)
        add(["chevalley", "sequence", "--rank", rank, "--p", p, "--m", m],
            kind="sequence", n=rank + 1, p=p, m=m)
    add(KNOWN_FAULTS[1], kind="fault")
    slots = [("Cyc", a) for a in ARCS]
    slots += [(spec, c) for spec, sets in CLASS_SETS for c in sets]
    for i, (spec, what) in enumerate(slots):
        if spec == "Cyc":
            n, k = what
            argv = ["thick", "analyze", "--group", f"Cyc({n})", "--set", f"arc({k})"]
            meta = dict(spec=f"Cyc({n})", arith=("cyc", n),
                        members=[v % n for v in range(-k, k + 1)])
        else:
            classes = [relabel(spec, c) for c in what]
            argv = ["thick", "analyze", "--group", spec,
                    "--set", _class_union(spec, classes)]
            arith = ("sl", 2, 3) if spec.startswith("SL") else ("perm", int(spec[4]))
            meta = dict(spec=spec, arith=arith, classes=classes)
        if i % 2:
            argv.append("--probe-normal")
        add(argv, kind="analyze", **meta)
    for n in (6, 6, 7, 7):
        samples = rng.randrange(20, 51)
        add(["perm", "identities", "--n", n, "--m-max", 2, "--half-max", 1,
             "--samples", samples], kind="identities", n=n, samples=samples)
    alt5 = perms(5, even=True)
    combos = [c for k in (2, 3) for c in itertools.combinations(ALT5_CLASSES, k)]
    for combo in combos + combos[:6]:
        classes = [relabel("Alt(5)", c) for c in combo]
        sigma = rng.choice(alt5)
        add(["perm", "express", "--group", "Alt(5)",
             "--set", _class_union("Alt(5)", classes), "--sigma", perm_text(sigma)],
            kind="express", classes=classes, sigma=sigma)
    add(KNOWN_FAULTS[0], kind="fault")
    for spec, sigma, tau in DISTANCES:
        sigma, tau = relabel(spec, sigma), relabel(spec, tau)
        n = int(spec[4])
        add(["perm", "distance", "--group", spec, "--sigma", sigma, "--tau", tau],
            kind="distance", spec=spec, sigma=oracle.parse_perm(sigma, n),
            tau=oracle.parse_perm(tau, n))
    for task, bases in EXT_BASES.items():
        add(["ext", task, "--base", "Cyc(2)", "--p", 2, "--cocycle", "carry"],
            kind="ext-" + task, order=2, p=2, carry=True)
        for base, order, p in bases:
            add(["ext", task, "--base", base, "--p", p, "--cocycle", "coboundary",
                 "--seed", rng.randrange(1000)],
                kind="ext-" + task, order=order, p=p, carry=False)
    for a in IWASAWA_CLASSES:
        a = relabel("SL(2,5)", a)
        add(["ext", "iwasawa", "--group", "SL(2,5)", "--a", f"class({a})",
             "--b", SL25_BOREL], kind="iwasawa", a=parse_mat(a))
    return out


def setup(seed: int):
    jobs, metas = [], {}
    for i, (argv, meta) in enumerate(plan(seed)):
        label = f"{i:03d} " + " ".join(argv)
        expect = 2 if meta["kind"] == "fault" else 0
        jobs.append(Job(label, _task(argv, expect)))
        metas[label] = meta
    return metas, jobs


def comparable(outputs: dict) -> dict:
    """Outputs without the reports' wall-clock ``timings``."""
    out = {}
    for label, o in outputs.items():
        if isinstance(o, Failed):
            out[label] = o
        else:
            report = json.loads(o[1])
            report.pop("timings", None)
            out[label] = [o[0], report]
    return out


def report_bytes(outputs: dict) -> int:
    return sum(len(out[1]) for out in outputs.values()
               if not isinstance(out, Failed))


# --------------------------------------------------------------------------
# checks


def check(metas: dict, outputs: dict, seed: int) -> list[str]:
    problems = []
    cache: dict = {}
    for label, out in outputs.items():
        if isinstance(out, Failed):
            continue
        meta = metas[label]
        report = json.loads(out[1])
        if meta["kind"] == "fault":
            if "error" not in report:
                problems.append(f"{label}: exit 2 without an error payload")
            continue
        res = report["results"]
        try:
            bad = CHECKS[meta["kind"]](meta, res, cache)
        except (KeyError, TypeError, ValueError, IndexError) as e:
            bad = f"malformed report ({type(e).__name__}: {e})"
        if bad:
            problems.append(f"{label}: {bad}")
    return problems


def _check_relations(meta, res, cache):
    n, p = meta["n"], meta["p"]
    torus = (p - 1) ** (n - 1) * n * (n - 1) * p
    weyl = (n * (n - 1)) ** 2 * (p - 1) * p
    uni = res["unipotent_factorization"]
    count = p ** (n * (n - 1) // 2)
    if res["torus_conjugation"] != {"checked": torus, "failures": 0}:
        return f"torus checks {res['torus_conjugation']}, expected {torus}"
    if res["weyl_torus_action"] != {"checked": weyl, "failures": 0}:
        return f"Weyl checks {res['weyl_torus_action']}, expected {weyl}"
    if res["structure_constants"]["failures"] != 0:
        return "structure constants failed"
    if not (uni["count"] == uni["distinct"] == uni["expected"] == count
            and uni["bijective"] is True):
        return f"unipotent factorization {uni}, expected count {count}"
    return None


def _check_cube(meta, res, cache):
    p = meta["p"]
    inst = res["instances"]
    if len(inst) != meta["count"]:
        return f"{len(inst)} instances, expected {meta['count']}"
    for r in inst:
        if not (r["cube_is_group"] and r["square_covers_complement"]
                and r["class_size"] == p * (p + 1) and r["min_power"] in (2, 3)):
            return f"instance {r}"
    return None


def _check_gauss(meta, res, cache):
    n, p = meta["n"], meta["p"]
    x, v, t, u, conj = (parse_mat(res[k]) for k in ("x", "v", "t", "u", "conjugate"))
    mul = lambda a, b: oracle.mat_mul(a, b, n, p)  # noqa: E731
    if mul(mul(v, t), u) != conj:
        return "v*t*u is not the conjugate"
    if conj != mul(mul(oracle.mat_inv(x, n, p), meta["g"]), x):
        return "the conjugate is not x^-1 g x"
    if t != meta["t"]:
        return f"diagonal {t}, asked for {meta['t']}"
    for i in range(n):
        for j in range(n):
            if (i == j and (v[i * n + j], u[i * n + j]) != (1, 1)) \
                    or (i < j and v[i * n + j]) or (i > j and u[i * n + j]):
                return "v or u is not unitriangular"
    return None


def _check_sequence(meta, res, cache):
    n, p, m = meta["n"], meta["p"], meta["m"]
    elems = [parse_mat(e) for e in res["elements"]]
    if len(elems) != m:
        return f"{len(elems)} elements, expected {m}"
    d, x = 1, res["s"] % p
    while x != 1:
        x, d = x * res["s"] % p, d + 1
    if res["order"] != d:
        return f"order {res['order']} of s={res['s']}, expected {d}"
    for a, b in itertools.permutations(elems, 2):
        q = oracle.mat_mul(a, oracle.mat_inv(b, n, p), n, p)
        diag = [q[i * n + i] for i in range(n)]
        if any(q[i * n + j] for i in range(n) for j in range(n) if i != j) \
                or len(set(diag)) != n:
            return "a quotient of two elements is not regular diagonal"
    return None


def _check_analyze(meta, res, cache):
    G = groupcore.build_group(groupcore.parse_group_spec(meta["spec"]))
    ar = oracle.Arith(meta["arith"], G.elements)
    if "members" in meta:
        P = {ar.index[v] for v in meta["members"]}
    else:
        P = {ar.e}
        for c in meta["classes"]:
            r = ar.index[ar.key(parse_elem(meta["spec"], c))]
            P |= ar.class_of(r) | ar.class_of(ar.iinv(r))
    if res["set_size"] != len(P):
        return f"set size {res['set_size']}, expected {len(P)}"
    th, gen, cert = res["thickness"], res["genericity"], res["subgroup_certificate"]
    w = th["witness"]
    if th["status"] != "exact" or len(w) != th["value"] - 1:
        return f"thickness {th['value']} with a witness of {len(w)}"
    if any(ar.imul(ar.iinv(a), b) in P for a, b in itertools.combinations(w, 2)):
        return "clique witness has a quotient inside P"
    m, T = gen["m"], gen["translators"]
    if m < -(-G.order // len(P)) or len(T) != m:
        return f"genericity m={m} with {len(T)} translators"
    if len({ar.imul(a, g) for g in T for a in P}) != G.order:
        return "translates do not cover G"
    if not (res["witness_verified"] and res["cover_verified"]):
        return "the CLI's own replay failed"
    if cert["m"] != m or (cert["is_subgroup"]
                          and cert["power_order"] * cert["index"] != G.order):
        return f"certificate {cert}"
    return None


def _check_identities(meta, res, cache):
    n = meta["n"]
    f = oracle.falling
    q = res["quotient_scan"]
    if {int(k): v for k, v in q["counts"].items()} != {m: f(n, 2 * m + 1) for m in range(3)}:
        return f"quotient counts {q['counts']}"
    ms = res["merge_scan"]
    for la, lb in ((1, 1), (1, 3), (3, 1), (3, 3)):
        pts = 2 + la + lb
        if pts > n:
            continue
        want = ({"mode": "full", "instances": f(n, pts)} if pts <= 8
                else {"mode": "slice", "instances": f(n - 2, la + lb)})
        if ms["shapes"].get(f"{la},{lb}") != want:
            return f"merge shape {la},{lb}: {ms['shapes'].get(f'{la},{lb}')}"
    if ms["equivariance_checks"] != 200 or ms["random_checks"] != meta["samples"]:
        return "wrong number of spot checks"
    return None


def _alt5(cache):
    if "alt5" not in cache:
        cache["alt5"] = own_arith("Alt(5)")
    return cache["alt5"]


def _check_express(meta, res, cache):
    ar = _alt5(cache)
    P = {ar.e}
    for c in meta["classes"]:
        r = ar.index[oracle.parse_perm(c, 5)]
        P |= ar.class_of(r) | ar.class_of(ar.iinv(r))
    q1, q2 = ar.index[oracle.parse_perm(res["q1"], 5)], ar.index[oracle.parse_perm(res["q2"], 5)]
    if ar.imul(q1, q2) != ar.index[meta["sigma"]]:
        return "q1*q2 is not sigma"
    if q1 not in P or q2 not in P:
        return "a factor lies outside P"
    return None


def _check_distance(meta, res, cache):
    spec = meta["spec"]
    if spec not in cache:
        cache[spec] = own_arith(spec)
    ar = cache[spec]
    cls = ar.class_of(ar.index[meta["sigma"]])
    want = oracle.class_power_distance(ar, cls, ar.index[meta["tau"]], ar.order())
    if res["k"] != want:
        return f"k={res['k']}, by enumeration {want}"
    return None


def _check_ext(meta, res, cache, task):
    p, order = meta["p"], meta["order"]
    if task == "build":
        if (res["order"], res["checked"], res["base_order"]) != (p * order, p * order, order):
            return f"extension order {res['order']}, expected {p * order}"
    elif task == "split":
        # a coboundary always splits; the carry cocycle (Z/4) never does
        if res["splits"] == meta["carry"]:
            return f"splits={res['splits']}"
        if res["splits"] and len(res["complement"]) != order:
            return f"complement of {len(res['complement'])} elements"
    elif not (res["holds"] and sorted(int(k) for k in res["levels"]) == [1, 2, 3, 4]):
        return "the sumset bound fails"
    return None


def _check_iwasawa(meta, res, cache):
    if "sl25" not in cache:
        cache["sl25"] = own_arith("SL(2,5)")
    ar = cache["sl25"]
    r = ar.index[meta["a"]]
    A = ar.class_of(r) | ar.class_of(ar.iinv(r)) | {ar.e}
    cur, k = set(A), 1
    while len(cur) < ar.order():
        cur, k = oracle.set_power(ar, cur, A), k + 1
    if (res["N"], res["M"], res["bound"]) != (1, 2, 16) or res["k_min"] != k \
            or not res["holds"]:
        return f"{res}, k_min by enumeration {k}"
    return None


CHECKS = {
    "relations": _check_relations,
    "cube": _check_cube,
    "gauss": _check_gauss,
    "sequence": _check_sequence,
    "analyze": _check_analyze,
    "identities": _check_identities,
    "express": _check_express,
    "distance": _check_distance,
    "ext-build": lambda m, r, c: _check_ext(m, r, c, "build"),
    "ext-split": lambda m, r, c: _check_ext(m, r, c, "split"),
    "ext-bound": lambda m, r, c: _check_ext(m, r, c, "bound"),
    "iwasawa": _check_iwasawa,
}
