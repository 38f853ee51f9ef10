"""Spans around the program's public functions, recorded by the benchmark.

`Tracer.install` replaces every public function of the layer modules with a
wrapper in every namespace that binds it: `search` and `cotype` import
`sup_norm` and `mixed_norm` by name, so patching only `forms` would count
those calls as `search` or `cotype` self time.  `uninstall` restores the
originals.  A wrapper records a span only inside `Tracer.op`, so input
generation and output checks stay out of the trace.

Private helpers are not wrapped: the climb's ratio function calls
`_vertex_values` and `_nested_norm_numpy` directly, and that time shows as
`search` self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import math
import time
from collections import Counter, defaultdict

#: The program's modules, one layer each.
LAYERS = ("cli", "search", "forms", "mixed_norms", "cotype", "constants")

_SQRT2 = math.sqrt(2.0)

#: Best known lower bound of a tuple's constant, attained by littlewood2
#: (the bilinear tuples) and triple221 (2,2,1).  A certificate that reaches
#: it is a hit of the search.
BEST_KNOWN = {(1.0, 2.0): _SQRT2, (4 / 3, 4 / 3): _SQRT2, (2.0, 2.0, 1.0): _SQRT2}


def _count_sup_norm(counts, a, result) -> str:
    if result.exact:
        counts["forms.sup_norm.exact.vertices"] += math.prod(2 ** d for d in a["form"].dims)
        return "forms.sup_norm.exact"
    counts["forms.sup_norm.heuristic.evaluations"] += result.evaluations
    return "forms.sup_norm.heuristic"


def _count_mixed_norm(counts, a, result) -> None:
    counts["mixed_norms.mixed_norm.entries"] += a["form"].coeffs.size


def _count_rademacher(counts, a, result) -> None:
    counts["cotype.rademacher_average.patterns"] += 2 ** len(a["vectors"])


def _count_optimize(counts, a, result) -> None:
    # With restarts unset the whole budget is spent; with restarts set
    # (growth_witness) this is an upper bound.
    counts["search.optimize_ratio.evaluations"] += a["budget"]
    best = BEST_KNOWN.get(result.exponents.exponents)
    if best is not None:
        counts["search.optimize_ratio.attempts"] += 1
        counts["search.optimize_ratio.hits"] += result.ratio >= best * (1 - 1e-12)


_COUNTERS = {
    "forms.sup_norm": _count_sup_norm,
    "mixed_norms.mixed_norm": _count_mixed_norm,
    "cotype.rademacher_average": _count_rademacher,
    "search.optimize_ratio": _count_optimize,
}


class Tracer:
    """In-memory spans (op, id, parent, name, start, end) and counts."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = 0
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(layer, obj))
        # Module attributes, and the values of module-level dicts such as
        # forms.CATALOG, through which the CLI calls the catalog forms.
        targets = [(ns, vars(ns), setattr) for ns in (package, *modules)]
        targets += [(table, table, dict.__setitem__) for ns in modules
                    for name, table in vars(ns).items()
                    if isinstance(table, dict) and not name.startswith("__")]
        for owner, items, assign in targets:
            for key, obj in list(items.items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    assign(owner, key, found[1])
                    self._restore.append((owner, key, obj, assign))

    def uninstall(self) -> None:
        for owner, key, obj, assign in reversed(self._restore):
            assign(owner, key, obj)
        self._restore.clear()

    @contextlib.contextmanager
    def op(self):
        """Root span of one benchmark operation; its spans share its op id."""
        self._op += 1
        sid = next(self._ids)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self._op, sid, 0, "bench.op", start, end))

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        count = _COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            parent = self._stack[-1]
            sid = next(self._ids)
            self._stack.append(sid)
            label = name
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((self._op, sid, parent, label, start, end))
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                relabel = count(self.counts, bound.arguments, result)
                if relabel:
                    self.spans[-1] = (self._op, sid, parent, relabel, start, end)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self times, work counts and rates.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap in this single-threaded
        run.  Layer shares are of the summed self time of all layers.
        """
        covered = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            covered[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for _, sid, _, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += end - start - covered[sid]
        for name in list(calls):
            layer = name.split(".")[0]
            if layer in LAYERS:
                calls[layer] += calls[name]
                self_s[layer] += self_s[name]
        total = sum(self_s[layer] for layer in LAYERS)
        c = self.counts

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = calls[layer]
            m[f"{layer}.self_s"] = self_s[layer]
            m[f"{layer}.self_share"] = self_s[layer] / total if total > 0 else 0.0
        for name in ("search.optimize_ratio", "search.certify", "forms.sup_norm.exact",
                     "forms.sup_norm.heuristic", "mixed_norms.mixed_norm",
                     "cotype.rademacher_average"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
        evals = c["search.optimize_ratio.evaluations"]
        m["search.ratio_eval_us"] = 1e6 * self_s["search.optimize_ratio"] / evals if evals else 0.0
        attempts = c["search.optimize_ratio.attempts"]
        m["search.hit_ratio"] = c["search.optimize_ratio.hits"] / attempts if attempts else 0.0
        vertices = c["forms.sup_norm.exact.vertices"]
        m["forms.sup_norm.exact.vertices"] = vertices
        m["forms.sup_norm.exact.vertices_per_s"] = rate(vertices, self_s["forms.sup_norm.exact"])
        m["forms.sup_norm.exact.grid_bytes"] = 8 * vertices  # computed, not measured
        m["forms.sup_norm.heuristic.evaluations"] = c["forms.sup_norm.heuristic.evaluations"]
        entries = c["mixed_norms.mixed_norm.entries"]
        m["mixed_norms.mixed_norm.entries"] = entries
        m["mixed_norms.mixed_norm.entries_per_s"] = rate(entries, self_s["mixed_norms.mixed_norm"])
        patterns = c["cotype.rademacher_average.patterns"]
        m["cotype.rademacher_average.patterns"] = patterns
        m["cotype.rademacher_average.patterns_per_s"] = rate(
            patterns, self_s["cotype.rademacher_average"])
        m["trace.spans"] = len(self.spans)
        return m
