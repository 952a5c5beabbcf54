"""Rounds, timing, output checks and the result line of one benchmark run.

A workload module provides two functions:

* ``setup(seed) -> (state, jobs)`` builds the workload's groups and inputs
  and returns the job list, each job a ``Job(label, fn)``;
* ``check(state, outputs, seed) -> list[str]`` checks the outputs of one
  round, given as a dict from job label to output, and returns the
  problems it finds.  Outputs of jobs that raised are ``Failed`` records,
  which the checks skip: they are counted in ``failed`` instead.

It may also provide ``comparable(outputs)``, the outputs without the parts
that differ between rounds by design (the CLI's wall-clock ``timings``),
and ``report_bytes(outputs)``, the bytes of report the jobs wrote.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
from typing import NamedTuple

import numpy as np

import spans
from common import Failed
import wl_classballs
import wl_cli
import wl_perm
import wl_thick

WORKLOADS = {
    "class-balls": wl_classballs,
    "thick-search": wl_thick,
    "perm-sweep": wl_perm,
    "cli-tasks": wl_cli,
}


class Round(NamedTuple):
    setup_s: float
    wall_s: float
    job_s: list
    outputs: dict
    state: object


def run_round(wl, seed: int, tracer=None) -> Round:
    """Set up afresh and run every job once.

    The jobs run in one fixed order, the same for every seed and run: a
    shuffle with seed 0.  It spreads the jobs of one kind over the round, so
    that a job quantile samples the machine's speed over the whole round and
    not over the few moments in which one kind of job runs.
    """
    clock = time.perf_counter
    if tracer is not None:
        tracer.install()
    try:
        t0 = clock()
        state, jobs = wl.setup(seed)
        random.Random(0).shuffle(jobs)
        t1 = clock()
        job_s, outputs = [], {}
        for job in jobs:
            tj = clock()
            try:
                out = job.fn()
            except Exception as e:  # a failed operation is counted, not fatal
                out = Failed(type(e).__name__, str(e)[:200])
            job_s.append(clock() - tj)
            outputs[job.label] = out
        t2 = clock()
    finally:
        if tracer is not None:
            tracer.remove()
    return Round(t1 - t0, t2 - t1, job_s, outputs, state)


def canon(x):
    """A JSON-able form of an output, for comparing rounds."""
    if isinstance(x, Failed):
        return ["failed", x.error]
    if isinstance(x, dict):
        return [[str(k), canon(v)] for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))]
    if isinstance(x, (list, tuple, set, frozenset)):
        items = sorted(x) if isinstance(x, (set, frozenset)) else x
        return [canon(v) for v in items]
    if isinstance(x, np.ndarray):
        return ["ndarray", list(x.shape), str(x.dtype),
                hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()]
    if isinstance(x, np.generic):
        return canon(x.item())
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def digest(wl, outputs: dict) -> str:
    """Hash of a round's outputs, without what may differ between rounds."""
    if hasattr(wl, "comparable"):
        outputs = wl.comparable(outputs)
    return hashlib.sha256(json.dumps(canon(outputs)).encode()).hexdigest()


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by its continued
    fraction (modified Lentz)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-12:
            break
    return front * f


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with weights from the
    Beta(p(n+1), (1-p)(n+1)) distribution.  Unlike a single order
    statistic it moves smoothly when two jobs of different length trade
    places, which on a few heterogeneous jobs makes it far steadier.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def run(name: str, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    wl = WORKLOADS[name]
    t_begin = time.perf_counter()
    plain: list[Round] = []
    traced: list[tuple[Round, spans.Tracer]] = []
    last = None
    first_digest = None
    problems: list[str] = []
    attempted = failed = 0
    while True:
        for use_tracer in ((False, True) if trace else (False,)):
            tracer = spans.Tracer() if use_tracer else None
            # only the latest round is kept whole, so every round runs on
            # the same heap and peak memory is that of one round
            last = r = None
            r = run_round(wl, seed, tracer)
            attempted += len(r.outputs)
            failed += sum(isinstance(o, Failed) for o in r.outputs.values())
            d = digest(wl, r.outputs)
            if first_digest is None:
                first_digest = d
                for label, out in r.outputs.items():
                    if isinstance(out, Failed):
                        print(f"failed: {label}: {out.error}: {out.message}",
                              file=sys.stderr)
            elif d != first_digest:
                problems.append(f"round {len(plain) + len(traced) + 1} "
                                "outputs differ from the first round's")
            last = r
            kept = r._replace(outputs={}, state=None)
            if use_tracer:
                traced.append((kept, tracer))
            else:
                plain.append(kept)
        if time.perf_counter() - t_begin >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems += wl.check(last.state, last.outputs, seed)

    metrics = {}
    if trace:
        plain_total = statistics.median(r.setup_s + r.wall_s for r in plain)
        ranked = sorted(traced, key=lambda rt: rt[0].setup_s + rt[0].wall_s)
        r, tracer = ranked[(len(ranked) - 1) // 2]
        total = r.setup_s + r.wall_s
        if tracer.self_total() > total:
            problems.append(f"self times {tracer.self_total():.4f} s exceed "
                            f"the traced round's {total:.4f} s")
        if hasattr(wl, "report_bytes"):
            tracer.counts["cli.report_bytes"] = wl.report_bytes(last.outputs)
        for key, (value, unit) in tracer.metrics().items():
            metrics[key] = {"value": value, "unit": unit}
        metrics["trace.wall_s"] = {"value": total, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": total - plain_total, "unit": "s"}
        print(tracer.table(), file=sys.stderr)
        print(f"traced round {total:.4f} s, untraced median {plain_total:.4f} s, "
              f"self times {tracer.self_total():.4f} s", file=sys.stderr)
    else:
        # job quantiles are taken per round, then the median over rounds:
        # pooling the rounds would let the order of two jobs' samples from
        # different rounds decide which job a quantile lands on
        metrics["wall_s"] = {"value": statistics.median(r.wall_s for r in plain),
                             "unit": "s"}
        metrics["job_p50_s"] = {
            "value": statistics.median(quantile(r.job_s, 0.5) for r in plain),
            "unit": "s"}
        metrics["job_p90_s"] = {
            "value": statistics.median(quantile(r.job_s, 0.9) for r in plain),
            "unit": "s"}
        metrics["setup_s"] = {
            "value": import_s + statistics.median(r.setup_s for r in plain),
            "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        print(f"{len(plain)} rounds of {len(last.outputs)} jobs, "
              f"import {import_s:.4f} s", file=sys.stderr)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}
