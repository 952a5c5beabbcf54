"""Self-test of the benchmark's output checks.

Runs one round of every workload on a tiny input, requires the checks to
pass and the failed jobs to be exactly the known faults, and then hands each
checker a deliberately wrong output that it must reject:

* perm-sweep: an instance count off by one;
* thick-search: a clique witness with one element replaced, and a cover
  with one translator dropped;
* cli-tasks: a Gauss triple with one entry changed;
* class-balls: a gn_set that is not closed under inverses.

The tiny inputs come from overriding the workload modules' input tables
(smaller groups and sweeps, one CLI job per task kind), so the checks
under test are the ones the benchmark runs.  Run it from the root of the
repository:

    python3 benchmark/selftest.py
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import harness  # noqa: E402
import wl_classballs  # noqa: E402
import wl_cli  # noqa: E402
import wl_perm  # noqa: E402
import wl_thick  # noqa: E402
from common import Failed  # noqa: E402

SEED = 7


def shrink():
    wl_perm.QUOTIENT_N, wl_perm.QUOTIENT_M = 7, 2
    wl_perm.MERGE_N, wl_perm.MERGE_HALF, wl_perm.MERGE_FULL_CAP = 7, 1, 5
    wl_classballs.GROUPS = [
        ("Sym(5)", 120, 7, ("perm", 5)),
        ("Alt(5)", 60, 5, ("perm", 5)),
        ("SL(2,5)", 120, 5 + 4, ("sl", 2, 5)),
    ]
    wl_classballs.SIMPLE = ("Alt(5)",)
    wl_classballs.SL2 = ("SL(2,5)",)
    wl_thick.NORMAL = [("Alt(5)", ("perm", 5), [(("(1,2,3)",), True),
                                                (("(1,2,3)", "(2,4)(3,5)"), False)])]
    wl_thick.RANDOM = [("Sym(4)", ("perm", 4), 2, (0.3, 0.6)),
                       ("SL(2,3)", ("sl", 2, 3), 1, (0.3, 0.6))]
    full_setup = wl_cli.setup

    def one_job_per_kind(seed):
        metas, jobs = full_setup(seed)
        seen, kept = set(), []
        for job in jobs:
            kind = metas[job.label]["kind"]
            if kind == "fault" or kind not in seen:
                seen.add(kind)
                kept.append(job)
        return metas, kept

    wl_cli.setup = one_job_per_kind


def first(outputs: dict, prefix: str, pred=lambda out: True) -> str:
    for label, out in outputs.items():
        if label.startswith(prefix) and not isinstance(out, Failed) and pred(out):
            return label
    raise AssertionError(f"no output {prefix!r}")


def off_by_one(outputs):
    label = first(outputs, "scan_merge")
    out = copy.deepcopy(outputs[label])
    shape = next(iter(out["shapes"]))
    out["shapes"][shape]["instances"] += 1
    return {**outputs, label: out}


def analysis(outputs, pred):
    """A copy of the outputs, the label and the set name of the first set
    analysis that satisfies ``pred``."""
    for label, out in outputs.items():
        if label.startswith("analyze") and not isinstance(out, Failed):
            for name, a in out.items():
                if pred(a):
                    return copy.deepcopy(outputs[label]), label, name
    raise AssertionError("no analysis to mutate")


def replace_witness_element(outputs):
    out, label, name = analysis(outputs, lambda a: len(a["thickness"]["witness"]) >= 2)
    w = out[name]["thickness"]["witness"]
    w[0] = w[1]
    return {**outputs, label: out}


def drop_translator(outputs):
    out, label, name = analysis(outputs, lambda a: a["genericity"]["m"] >= 2)
    out[name]["genericity"]["translators"].pop()
    out[name]["genericity"]["m"] -= 1
    out[name]["certificate"]["m"] -= 1
    return {**outputs, label: out}


def change_gauss_entry(outputs):
    label = first(outputs, "", lambda o: '"task": "chevalley.gauss"' in o[1])
    code, text = outputs[label]
    report = json.loads(text)
    u = [int(v) for v in report["results"]["u"].split(",")]
    n = int(len(u) ** 0.5)
    p = json.loads(text)["config"]["p"]
    u[n - 1] = (u[n - 1] + 1) % p
    report["results"]["u"] = ",".join(map(str, u))
    return {**outputs, label: (code, json.dumps(report))}


def break_inverse_closure(outputs, groups):
    for spec, G in groups.items():
        for label, out in outputs.items():
            if not label.startswith(f"gn_set {spec} ") or isinstance(out, Failed):
                continue
            for x in np.nonzero(out)[0]:
                if G.inv(int(x)) != x:
                    bad = out.copy()
                    bad[x] = False
                    return {**outputs, label: bad}
    raise AssertionError("no gn_set with an element that is not an involution")


# workload, wrong output, how to make it, words of the check that must fire
CASES = [
    ("perm-sweep", "instance count off by one", lambda o, s: off_by_one(o),
     "expected"),
    ("thick-search", "clique witness with one element replaced",
     lambda o, s: replace_witness_element(o), "witness quotient"),
    ("thick-search", "cover with one translator dropped",
     lambda o, s: drop_translator(o), "translates cover"),
    ("cli-tasks", "Gauss triple with one entry changed",
     lambda o, s: change_gauss_entry(o), "v*t*u"),
    ("class-balls", "gn_set not closed under inverses",
     lambda o, s: break_inverse_closure(o, s), "not closed under inverses"),
]
KNOWN_FAULTS = {
    "thick-search": {f"genericity Cyc({wl_thick.FAULT_N}) e"},
    "cli-tasks": {"chevalley sequence --rank 2 --p 9 --m 3",
                  "perm express --group Cyc(6) --set arc(1) --sigma 1"},
}


def main() -> int:
    shrink()
    errors = []
    rounds = {}
    for name, wl in harness.WORKLOADS.items():
        r = harness.run_round(wl, SEED)
        rounds[name] = r
        failed = {label.split(" ", 1)[1] if name == "cli-tasks" else label
                  for label, out in r.outputs.items() if isinstance(out, Failed)}
        problems = wl.check(r.state, r.outputs, SEED)
        status = "ok" if not problems else "FAIL"
        print(f"{name}: {len(r.outputs)} jobs in {r.wall_s:.2f} s, "
              f"failed {sorted(failed)}, checks {status}")
        if problems:
            errors.append(f"{name}: correct outputs rejected: {problems}")
        if failed != KNOWN_FAULTS.get(name, set()):
            errors.append(f"{name}: failed jobs {sorted(failed)}")
    for name, what, mutate, words in CASES:
        r = rounds[name]
        wl = harness.WORKLOADS[name]
        problems = wl.check(r.state, mutate(r.outputs, r.state), SEED)
        hits = [p for p in problems if words in p]
        print(f"{name}: {what}: {'rejected' if hits else 'NOT REJECTED'}")
        if hits:
            print(f"    {hits[0]}")
        else:
            errors.append(f"{name}: {what} was not rejected: {problems}")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print("self-test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
