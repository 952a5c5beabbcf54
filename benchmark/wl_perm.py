"""perm-sweep: the exhaustive numpy sweeps of the two cycle identities.

``scan_cycle_quotient(11, m)`` runs as one job per m, and
``scan_merge(10, half_max=3)`` as one job per shape, passed through
``shapes=``; shapes on at most 8 points are swept over all placements and
larger ones over the x=1, y=2 slice.  No group is built, so this workload
shows the sweeps' own batching and nothing of the group kernel.  The seed
is the sweeps' seed for the equivariance and random spot checks.
"""

from __future__ import annotations

import glab.permfact as permfact
import oracle
from common import Failed, Job

QUOTIENT_N, QUOTIENT_M = 11, 3
MERGE_N, MERGE_HALF, MERGE_FULL_CAP = 10, 3, 8
RANDOM_SAMPLES = 500
EQUIVARIANCE_CHECKS = 200


def merge_shapes() -> list[tuple[int, int]]:
    return [(2 * p + 1, 2 * q + 1)
            for p in range(MERGE_HALF + 1) for q in range(MERGE_HALF + 1)
            if 2 + (2 * p + 1) + (2 * q + 1) <= MERGE_N]


def setup(seed: int):
    jobs = [Job(f"scan_cycle_quotient n={QUOTIENT_N} m={m}",
                lambda m=m: permfact.scan_cycle_quotient(QUOTIENT_N, m))
            for m in range(QUOTIENT_M + 1)]
    for la, lb in merge_shapes():
        jobs.append(Job(f"scan_merge n={MERGE_N} shape={la},{lb}",
                        lambda s=(la, lb): permfact.scan_merge(
                            MERGE_N, half_max=MERGE_HALF,
                            full_cap_points=MERGE_FULL_CAP, seed=seed,
                            random_samples=RANDOM_SAMPLES, shapes=[s])))
    return None, jobs


def check(state, outputs: dict, seed: int) -> list[str]:
    problems = []
    n = QUOTIENT_N
    for m in range(QUOTIENT_M + 1):
        out = outputs[f"scan_cycle_quotient n={n} m={m}"]
        if isinstance(out, Failed):
            continue
        want = {k: oracle.falling(n, 2 * k + 1) for k in range(m + 1)}
        if out["counts"] != want or out["total"] != sum(want.values()):
            problems.append(f"scan_cycle_quotient m={m}: counts {out['counts']}, "
                            f"expected {want}")
    n = MERGE_N
    for la, lb in merge_shapes():
        out = outputs[f"scan_merge n={n} shape={la},{lb}"]
        if isinstance(out, Failed):
            continue
        pts = 2 + la + lb
        if pts <= MERGE_FULL_CAP:
            want = {"mode": "full", "instances": oracle.falling(n, pts)}
        else:
            want = {"mode": "slice", "instances": oracle.falling(n - 2, la + lb)}
        if out["shapes"] != {f"{la},{lb}": want}:
            problems.append(f"scan_merge shape={la},{lb}: {out['shapes']}, "
                            f"expected {want}")
        if (out["equivariance_checks"] != EQUIVARIANCE_CHECKS
                or out["random_checks"] != RANDOM_SAMPLES):
            problems.append(f"scan_merge shape={la},{lb}: "
                            f"{out['equivariance_checks']} equivariance and "
                            f"{out['random_checks']} random checks")
    return problems
