"""Spans and counters around glab's public functions, from outside glab.

``Tracer.install`` replaces each traced function with a wrapper in every
``glab`` module that holds it, since ``thickset``, ``permfact``,
``chevalley``, ``extensions`` and ``cli`` import functions such as
``product_mask`` by name, and on the ``FiniteGroup`` class for methods.
``Tracer.remove`` puts the originals back.

Spans are aggregated as they end instead of being stored one by one,
because a class-ball round makes hundreds of thousands of ``row`` calls.
For each span name the tracer keeps the number of calls, the total time
and the self time: a span's duration minus the durations of the spans
opened directly inside it.  Spans nest strictly within one thread, so the
self times of one round add up to no more than that round's duration.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict

from glab import chevalley, extensions, groupcore, permfact, thickset  # noqa: F401
import glab.cli  # noqa: F401


def _instances(out) -> int:
    """Instances a permutation sweep checked, read from its report."""
    if "counts" in out:
        return int(out["total"])
    return (sum(int(s["instances"]) for s in out["shapes"].values())
            + int(out["equivariance_checks"]) + int(out["random_checks"]))


def _relations(out) -> int:
    """Relation instances a Chevalley check multiplied out."""
    if "checked" in out:
        return int(out["checked"])
    if "count" in out:
        return int(out["count"])
    return 0


class Tracer:
    # (module, attribute, span name): one span name may cover several
    # functions, as the four relation checks make one layer metric
    FUNCTIONS = [
        ("glab.groupcore", "build_group", "groupcore.build_group"),
        ("glab.groupcore", "product_mask", "groupcore.product_mask"),
        ("glab.thickset", "thickness", "thickset.thickness"),
        ("glab.thickset", "genericity", "thickset.genericity"),
        ("glab.thickset", "generic_subgroup_certificate",
         "thickset.generic_subgroup_certificate"),
        ("glab.thickset", "gn_set", "thickset.gn_set"),
        ("glab.thickset", "bounded_simplicity_degree",
         "thickset.bounded_simplicity_degree"),
        ("glab.thickset", "covering_number", "thickset.covering_number"),
        ("glab.permfact", "scan_merge", "permfact.scan_merge"),
        ("glab.permfact", "scan_cycle_quotient", "permfact.scan_cycle_quotient"),
        ("glab.permfact", "class_word_distance", "permfact.class_word_distance"),
        ("glab.permfact", "express_even", "permfact.express_even"),
        ("glab.chevalley", "verify_torus_conjugation", "chevalley.relations"),
        ("glab.chevalley", "verify_weyl_torus_action", "chevalley.relations"),
        ("glab.chevalley", "commutator_structure_constants",
         "chevalley.relations"),
        ("glab.chevalley", "enumerate_unipotent_products",
         "chevalley.relations"),
        ("glab.chevalley", "gauss_prescribed", "chevalley.gauss_prescribed"),
        ("glab.chevalley", "class_cube", "chevalley.class_cube"),
        ("glab.extensions", "validate_cocycle", "extensions.validate_cocycle"),
        ("glab.extensions", "build_extension", "extensions.build_extension"),
        ("glab.extensions", "split_check", "extensions.split_check"),
        ("glab.extensions", "image_bound_check", "extensions.image_bound_check"),
        ("glab.extensions", "iwasawa_certificate",
         "extensions.iwasawa_certificate"),
        ("glab.cli", "main", "cli.main"),
    ]
    METHODS = [
        ("row", "groupcore.row"),
        ("conjugacy_classes", "groupcore.conjugacy_classes"),
    ]
    COUNTERS = [
        "groupcore.elements_enumerated", "groupcore.rows_built",
        "groupcore.row_calls", "groupcore.product_mask_calls",
        "groupcore.mul_calls", "thickset.thickness_calls",
        "thickset.genericity_calls", "permfact.instances_checked",
        "chevalley.relations_checked", "cli.report_bytes",
    ]

    def __init__(self):
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._rows_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._saved: list[tuple] = []

    # -- spans and counters

    def _wrap(self, name: str, fn, on_return=None):
        stack, calls, total_s, self_s = (self.stack, self.calls,
                                         self.total_s, self.self_s)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1
                total_s[name] += dur
                self_s[name] += dur - frame[0]
            if on_return is not None:
                on_return(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _on_build(self, args, out):
        self.counts["groupcore.elements_enumerated"] += out.order

    def _on_row(self, args, out):
        G, a = args[0], int(args[1])
        self.counts["groupcore.row_calls"] += 1
        seen = self._rows_seen.get(G)
        if seen is None:
            seen = self._rows_seen[G] = set()
        if a not in seen:
            seen.add(a)
            self.counts["groupcore.rows_built"] += 1

    def _count(self, name):
        def on_return(args, out):
            self.counts[name] += 1
        return on_return

    def _add(self, name, reader):
        def on_return(args, out):
            self.counts[name] += reader(out)
        return on_return

    def _hooks(self) -> dict:
        return {
            "groupcore.build_group": self._on_build,
            "groupcore.row": self._on_row,
            "groupcore.product_mask": self._count("groupcore.product_mask_calls"),
            "thickset.thickness": self._count("thickset.thickness_calls"),
            "thickset.genericity": self._count("thickset.genericity_calls"),
            "permfact.scan_merge": self._add("permfact.instances_checked",
                                             _instances),
            "permfact.scan_cycle_quotient": self._add(
                "permfact.instances_checked", _instances),
            "chevalley.relations": self._add("chevalley.relations_checked",
                                             _relations),
        }

    # -- installation

    def install(self):
        hooks = self._hooks()
        glab_modules = [m for name, m in list(sys.modules.items())
                        if (name == "glab" or name.startswith("glab."))
                        and m is not None]
        for mod_name, attr, span in self.FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span, orig, hooks.get(span))
            for m in glab_modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        self._saved.append((m, k, orig))
                        setattr(m, k, wrapper)
        FG = groupcore.FiniteGroup
        for attr, span in self.METHODS:
            orig = FG.__dict__[attr]
            self._saved.append((FG, attr, orig))
            setattr(FG, attr, self._wrap(span, orig, hooks.get(span)))
        orig_mul = FG.__dict__["mul"]
        counts = self.counts

        def mul(G, a, b):
            counts["groupcore.mul_calls"] += 1
            return orig_mul(G, a, b)

        self._saved.append((FG, "mul", orig_mul))
        FG.mul = mul

    def remove(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- report

    def metrics(self) -> dict:
        """Every per-layer metric: self seconds per span name, then counts."""
        out = {}
        for _, _, span in self.FUNCTIONS:
            out[span + "_s"] = (self.self_s.get(span, 0.0), "s")
        for _, span in self.METHODS:
            out[span + "_s"] = (self.self_s.get(span, 0.0), "s")
        for name in self.COUNTERS:
            out[name] = (self.counts.get(name, 0), "count")
        return out

    def self_total(self) -> float:
        return sum(self.self_s.values())

    def table(self) -> str:
        rows = [f"{'span':44s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}"]
        for name in sorted(self.total_s, key=lambda k: -self.self_s[k]):
            rows.append(f"{name:44s} {self.calls[name]:9d} "
                        f"{self.total_s[name]:10.4f} {self.self_s[name]:10.4f}")
        return "\n".join(rows)
