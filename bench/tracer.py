"""The traced run: times each layer's public functions from outside the package.

`Tracer.install` replaces every public function and public method of the
seven layer modules with a wrapper, at every place the name is looked up:
the defining module, each module that imported the name, and the package
namespace. A wrapper records a span (name, start, end, parent) in memory; the
spans are written out when the run ends. The hottest leaf calls are counted
and timed in aggregate instead of one span per call. A layer's self time is
the duration of its spans minus the time their child calls cover, so the
self times of the layers and of the benchmark's own root span add up to the
traced wall time.

The package itself is not changed: counters are read at the layer
boundaries, and cache statistics come from the original `lru_cache` objects.
"""

from __future__ import annotations

import inspect
import json
import resource
import time
from collections import Counter

import grigorchuk
from grigorchuk import battery, cli, fullgroup, group, omega, schreier, subshift

LAYERS = {
    "omega": omega,
    "group": group,
    "schreier": schreier,
    "subshift": subshift,
    "fullgroup": fullgroup,
    "battery": battery,
    "cli": cli,
}
# Called once per letter or per generator application: counted and timed in
# aggregate, never one span per call.
AGGREGATED = {"omega.OmegaSequence.at", "schreier.ruler_a", "group.apply_generator"}
# Caches read before and after each call through the wrapper; `_trivial_normalized`
# is private and never cleared, so its totals are read once at the end.
WRAPPED_CACHES = {
    "omega.parse_omega": "omega.parse",
    "schreier.gray_code": "schreier.gray",
    "schreier.build_gamma_recursive": "schreier.gamma_recursive",
    "subshift.language": "subshift.language",
    "subshift.double_language": "subshift.double",
}
BATTERY_CHECKS = (
    "gray_code", "graph_oracle", "bfs_order", "complexity_bounds", "doubling_bound",
    "embedding", "schreier_consistency", "relations", "torsion", "commutator",
    "degenerate_witnesses", "recurrence",
)
# Peak RSS is sampled whenever a call enters this layer from outside it.
RSS_LAYER = "subshift"


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent span index)
        # Open frames: [layer, time covered by child calls, span index, name].
        self.stack: list = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.peak_rise_kb = 0

    # --- wrappers ------------------------------------------------------------

    def _span(self, layer: str, name: str, fn):
        stack, spans, self_s, calls, total_s, errors = (
            self.stack, self.spans, self.self_s, self.calls, self.total_s, self.errors,
        )
        clock = time.perf_counter
        aggregated = name in AGGREGATED
        sample_rss = layer == RSS_LAYER

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            entering = parent[0] != layer
            if aggregated:
                index = -1
            else:
                index = len(spans)
                spans.append(None)
            if sample_rss and entering:
                rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            frame = [layer, 0.0, index, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if entering:
                    errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[1]
                parent[1] += duration
                calls[name] += 1
                total_s[name] += duration
                if index >= 0:
                    spans[index] = (name, start, end, parent[2])
                if sample_rss and entering:
                    self.peak_rise_kb += (
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before
                    )

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _cache_counter(self, prefix: str, fn, on_miss=None):
        counts = self.counts

        def counted(*args, **kwargs):
            misses = fn.cache_info().misses
            result = fn(*args, **kwargs)
            # A hit runs nothing nested, so any new miss is this call's own.
            if fn.cache_info().misses > misses:
                counts[f"{prefix}_misses"] += 1
                if on_miss is not None:
                    on_miss(result)
            else:
                counts[f"{prefix}_hits"] += 1
            return result

        for attr in ("cache_info", "cache_clear"):
            setattr(counted, attr, getattr(fn, attr))
        return counted

    def _counted(self, fn, count):
        def counted(*args, **kwargs):
            count(*args, **kwargs)
            return fn(*args, **kwargs)

        return counted

    def _counted_generator(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return counted

    def _instrument(self, name: str, fn):
        """Counting hooks of one public function, applied inside its span."""
        counts = self.counts
        if name in WRAPPED_CACHES:
            on_miss = {
                "schreier.gray_code": lambda t: counts.update({"schreier.gray_strings": len(t.strings)}),
                "schreier.build_gamma_recursive": lambda g: counts.update({"schreier.vertices_built": g.n}),
                "subshift.language": lambda words: counts.update({"subshift.factors_materialized": len(words)}),
            }.get(name)
            return self._cache_counter(WRAPPED_CACHES[name], fn, on_miss)
        if name == "schreier.build_gamma_orbit":

            def built(omega_, vertex_count, with_xi):
                graph = fn(omega_, vertex_count, with_xi)
                counts["schreier.vertices_built"] += graph.n
                return graph

            return built
        stack = self.stack
        hooks = {
            "subshift.gamma_word": lambda omega_, letter_count: counts.update(
                {"subshift.block_letters": letter_count}
            ),
            "group.is_trivial": lambda word, omega_: counts.update({"group.letters_decided": len(word)}),
            "group.normalize_word": lambda word: counts.update(
                # Runs inside normalize_word's own frame; the caller's is below it.
                {"group.ball_candidates": stack[-2][3] == "group.ball_sizes"}
            ),
            "fullgroup.schreier_window": lambda omega_, center, radius: counts.update(
                {"fullgroup.window_letters": center + radius}
            ),
        }
        if name in hooks:
            return self._counted(fn, hooks[name])
        return fn

    # --- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the layers, everywhere it
        is looked up."""
        replacements: dict[int, object] = {}
        for layer, module in LAYERS.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if isinstance(obj, type):
                    self._install_methods(layer, name, obj)
                elif inspect.isgeneratorfunction(obj):
                    replacements[id(obj)] = self._counted_generator(obj, f"{name}_items")
                elif callable(obj):
                    replacements[id(obj)] = self._span(layer, name, self._instrument(name, obj))
        covers = subshift._covers
        subshift._covers = self._counted(
            covers, lambda *a: self.counts.update({"subshift.recurrence_probes": 1})
        )
        element_init = fullgroup.FullGroupElement.__init__
        fullgroup.FullGroupElement.__init__ = self._counted(
            element_init, lambda *a, **k: self.counts.update({"fullgroup.elements_built": 1})
        )
        for module in (grigorchuk, *LAYERS.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    setattr(module, attr, replacements[id(obj)])

    def _install_methods(self, layer: str, prefix: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._span(layer, name, obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self._span(layer, name, obj))

    # --- running and reporting ----------------------------------------------------

    def run(self, body) -> float:
        """Run body() under the benchmark's root span; return its wall time."""
        self.spans.append(None)
        root = ["bench", 0.0, 0, "bench"]
        self.stack.append(root)
        start = time.perf_counter()
        try:
            body()
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.self_s["bench"] += end - start - root[1]
            self.spans[0] = ("bench", start, end, -1)
        return end - start

    def metrics(self, wall: float) -> dict[str, float]:
        c, calls = self.counts, self.calls
        out: dict[str, float] = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out["bench.self_s"] = self.self_s["bench"]
        out["omega.at_calls"] = calls["omega.OmegaSequence.at"]
        out["schreier.ruler_calls"] = calls["schreier.ruler_a"]
        out["group.words_decided"] = calls["group.is_trivial"]
        out["group.apply_calls"] = calls["group.apply_generator"]
        out["fullgroup.identity_tests"] = calls["fullgroup.is_identity"] + calls["fullgroup.elements_equal"]
        out["fullgroup.errors"] = self.errors["fullgroup"]
        out["fullgroup.windows_scanned"] = c["fullgroup.iter_windows_items"]
        for key in (
            "schreier.gray_strings", "schreier.vertices_built", "subshift.block_letters",
            "subshift.factors_materialized", "subshift.recurrence_probes",
            "group.letters_decided", "group.ball_candidates", "fullgroup.elements_built",
            "fullgroup.window_letters",
        ):
            out[key] = c[key]
        trivial = group._trivial_normalized.cache_info()
        c["group.trivial_hits"], c["group.trivial_misses"] = trivial.hits, trivial.misses
        for prefix in (*WRAPPED_CACHES.values(), "group.trivial"):
            hits, misses = c[f"{prefix}_hits"], c[f"{prefix}_misses"]
            out[f"{prefix}_hits"], out[f"{prefix}_misses"] = hits, misses
            out[f"{prefix}_hit_ratio"] = _ratio(hits, misses)
        out["subshift.traced_peak_mb"] = self.peak_rise_kb / 1024
        for check in BATTERY_CHECKS:
            out[f"battery.{check}_s"] = self.total_s[f"battery.check_{check}"]
        out["trace.wall_s"] = wall
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        """One JSON list per line: name, start, end, parent index (-1 for the
        root); a last line gives the aggregated calls and their total time."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({
                "aggregated": {n: [self.calls[n], self.total_s[n]] for n in sorted(AGGREGATED)}
            }) + "\n")
