"""Per-layer tracing for the benchmark's traced mode.

The program's own spans cover only a few layers, so the traced run wraps
each layer's public functions from here: a wrapper times the call,
counts it, and folds in what the return value says (routes, states,
reuse counts).  A function is wrapped *where it is looked up*, not only
where it is defined: ``repro.engine.cache`` binds ``reachable_states``,
``repro.consistency.cons_automata`` binds ``achievable_sets`` and
``is_solution``, ``repro.consistency.cons_nested`` binds ``engine_for``
and the packages re-export most of them at import time, so
:meth:`Recorder.wrap` replaces every binding of the function in every
loaded ``repro`` module.  Lazily imported names (``from m import f``
inside a function) read the module attribute on every call and are
covered by the defining module's binding.  A module first imported
while the wrappers are installed would keep them, so the benchmark
installs them only after a warm-up pass has imported every module its
workload uses.

Install with :meth:`Recorder.install`, remove with
:meth:`Recorder.uninstall`; the benchmark alternates traced and
untraced passes to measure the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable

#: Consistency algorithms (``engine.core.route.<algorithm>`` and
#: ``consistency.<algorithm>_ms``) and the other routes ``solve`` takes
#: on these workloads.
CONSISTENCY_ROUTES = (
    "cons-nested", "cons-automata", "cons-bounded",
    "abscons-sm0", "abscons-ptime", "abscons-expansion", "abscons-bounded",
)
OTHER_ROUTES = ("membership", "membership-skolem", "pattern-sat")
CACHE_KINDS = (
    "classification", "regex-dfa", "dtd-automaton", "bitset-dtd-automaton",
    "closure", "bitset-closure", "achievable",
)
SERVICE_COMMANDS = ("check", "lint", "delta")
KERNELS = tuple(
    f"{surface}.{kernel}"
    for surface in ("automata", "pattern-engine")
    for kernel in ("pure", "bitset")
)

#: Layers that must record calls on each workload: a traced run in
#: which one of them stays at zero fails.
REQUIRED_LAYERS = {
    "cold-check": (
        "mappings.io.parse", "engine.core.solve", "analysis.diagnostics",
        "engine.cache.lookup", "automata.duta.reachable",
        "engine.certify", "kernel.select",
    ),
    "member-docs": (
        "xmlmodel.parse", "engine.core.solve", "mappings.membership",
        "patterns.engine_build", "patterns.find_matches", "kernel.select",
    ),
    "edit-session": (
        "service.handle", "mappings.io.parse", "incremental.update",
        "engine.core.solve", "analysis.diagnostics", "analysis.lint",
        "analysis.redundancy", "engine.cache.lookup", "obs.flight_record",
    ),
}


def bindings_of(function: Callable) -> list[tuple[Any, str]]:
    """Every (module, name) of a loaded ``repro`` module bound to
    *function*."""
    return [
        (module, name)
        for module_name, module in list(sys.modules.items())
        if module is not None
        and (module_name == "repro" or module_name.startswith("repro."))
        for name, value in list(vars(module).items())
        if value is function
    ]


class Recorder:
    """Call counts, busy time and layer-specific counters.

    Thread-safe: edit-session's handlers run on the server thread while
    the client thread times the round trip.  ``covered`` accumulates the
    time of outermost wrapped calls only (nesting depth is per thread),
    so end-to-end time minus ``covered`` is time no wrapped layer saw.
    """

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.covered = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- accounting ---------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _wrap(self, original: Callable, layer: str,
              before: Callable | None, after: Callable | None) -> Callable:
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            local = recorder._local
            depth = getattr(local, "depth", 0)
            state = before(*args, **kwargs) if before is not None else None
            local.depth = depth + 1
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                local.depth = depth
                with recorder._lock:
                    recorder.calls[layer] += 1
                    recorder.seconds[layer] += elapsed
                    if depth == 0:
                        recorder.covered += elapsed
            if after is not None:
                after(result, elapsed, state, *args, **kwargs)
            return result

        return wrapper

    def wrap(self, target: str, layer: str, *,
             before: Callable | None = None,
             after: Callable | None = None) -> None:
        """Replace ``module[:Class].attr`` by a timing wrapper.

        A module-level function is replaced at every binding of it in a
        loaded ``repro`` module, so ``from m import f`` copies are
        covered; a method is replaced on its class.
        """
        path, attr = target.rsplit(".", 1)
        module_name, __, class_name = path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        original = getattr(owner, attr)
        bindings = [(owner, attr)] if class_name else bindings_of(original)
        wrapper = self._wrap(original, layer, before, after)
        for module, name in bindings:
            setattr(module, name, wrapper)
            self._undo.append((module, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- the layer map --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer the benchmark reports on."""
        from repro.engine.cache import cache_kind

        self.wrap("repro.mappings.io.parse_mapping", "mappings.io.parse")
        self.wrap("repro.xmlmodel.xml_io.from_xml", "xmlmodel.parse")

        def solved(verdict, elapsed, state, problem, *args, **kwargs):
            report = verdict.report
            self.count(f"engine.core.route.{report.algorithm}")
            if report.algorithm in CONSISTENCY_ROUTES:
                self.count(f"consistency.{report.algorithm}.seconds", elapsed)
                self.count("consistency.expansions", report.expansions)
                if verdict.is_unknown:
                    self.count("consistency.unknown")

        self.wrap("repro.engine.core.solve", "engine.core.solve", after=solved)
        self.wrap("repro.analysis.passes.diagnostics_for_problem",
                  "analysis.diagnostics")

        def lookup_before(cache, key, *args, **kwargs):
            return cache.misses

        def looked_up(result, elapsed, misses, cache, key, *args, **kwargs):
            kind = cache_kind(key)
            if cache.misses != misses:
                self.count("engine.cache.misses")
                self.count(f"engine.cache.compile.{kind}.seconds", elapsed)
            else:
                self.count("engine.cache.hits")

        self.wrap("repro.engine.cache:CompilationCache.lookup",
                  "engine.cache.lookup", before=lookup_before, after=looked_up)

        def reached(states, elapsed, state, *args, **kwargs):
            self.count("automata.duta.states", len(states))

        self.wrap("repro.automata.duta.reachable_states",
                  "automata.duta.reachable", after=reached)
        self.wrap("repro.automata.duta.find_accepted",
                  "automata.duta.find_accepted")
        self.wrap("repro.engine.cache.achievable_sets",
                  "engine.cache.achievable_sets")
        # the package attribute ``repro.engine.certify`` is the function
        # (it shadows the submodule); bindings_of finds it
        self.wrap("repro.engine.certify.certify", "engine.certify")

        def built(result, elapsed, state, engine, *args, **kwargs):
            if type(engine).__name__ == "CompactPatternEngine":
                self.count("patterns.compact_builds")

        self.wrap("repro.patterns.matching:PatternEngine.__init__",
                  "patterns.engine_build", after=built)
        self.wrap("repro.patterns.compact:CompactPatternEngine.__init__",
                  "patterns.engine_build", after=built)
        self.wrap("repro.patterns.matching.engine_for", "patterns.engine_for")
        self.wrap("repro.patterns.matching.find_matches",
                  "patterns.find_matches")
        self.wrap("repro.patterns.matching.matches_at_root",
                  "patterns.matches_at_root")
        self.wrap("repro.mappings.membership.is_solution",
                  "mappings.membership")

        self.wrap("repro.analysis.lint.lint_mapping", "analysis.lint")
        self.wrap("repro.analysis.redundancy.find_redundancies",
                  "analysis.redundancy")

        def updated(result, elapsed, state, *args, **kwargs):
            self.count("incremental.reused", result.reused)
            self.count("incremental.recompiled", result.recompiled)
            self.count(
                "incremental.invalidated",
                result.invalidated["artifacts"] + result.invalidated["results"],
            )

        self.wrap("repro.incremental:IncrementalEngine.update",
                  "incremental.update", after=updated)

        def handled(response, elapsed, state, session, command, *args, **kwargs):
            self.count(f"service.handle.{command}.seconds", elapsed)
            self.count(f"service.handle.{command}.calls")

        self.wrap("repro.service.session:EngineSession.handle",
                  "service.handle", after=handled)
        self.wrap("repro.obs.flight:FlightRecorder.record", "obs.flight_record")

        def selected(kernel, elapsed, state, surface, size, *args, **kwargs):
            self.count(f"kernel.selected.{surface}.{kernel}")

        self.wrap("repro.kernel.select_kernel", "kernel.select", after=selected)

    # -- reporting ------------------------------------------------------------

    def metrics(self, workload: str, ops: int, passes: int, scale: float,
                op_seconds: float, untraced_op_seconds: float,
                round_trip_seconds: float) -> tuple[dict, list[str]]:
        """Per-layer metrics plus the required layers that saw no call.

        Times are milliseconds per operation, counts are per pass.
        Recorded seconds are wall time; *scale* converts them to
        normalised time like the end-to-end metrics (the traced passes'
        normalised-to-wall ratio).  *op_seconds* and
        *untraced_op_seconds* are already normalised.
        """
        ops = max(ops, 1)
        passes = max(passes, 1)
        calls = self.calls
        seconds = Counter({
            layer: value * scale for layer, value in self.seconds.items()
        })
        counts = Counter({
            name: value * scale if name.endswith(".seconds") else value
            for name, value in self.counts.items()
        })
        round_trip_seconds *= scale

        def ms(value: float) -> float:
            return 1000.0 * value / ops

        def per_pass(value: float) -> float:
            return value / passes

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        metrics: dict[str, tuple[float, str]] = {
            "mappings.io.parse_ms": (ms(seconds["mappings.io.parse"]), "ms/op"),
            "xmlmodel.parse_ms": (ms(seconds["xmlmodel.parse"]), "ms/op"),
            "xmlmodel.nodes_per_s": (
                ratio(counts["xmlmodel.nodes"], seconds["xmlmodel.parse"]),
                "nodes/s",
            ),
            "engine.core.solve_calls": (
                per_pass(calls["engine.core.solve"]), "count/pass"),
            "engine.core.solve_ms": (ms(seconds["engine.core.solve"]), "ms/op"),
        }
        for route in CONSISTENCY_ROUTES + OTHER_ROUTES:
            metrics[f"engine.core.route.{route}"] = (
                per_pass(counts[f"engine.core.route.{route}"]), "count/pass")
        metrics["analysis.diagnostics_ms"] = (
            ms(seconds["analysis.diagnostics"]), "ms/op")
        hits, misses = counts["engine.cache.hits"], counts["engine.cache.misses"]
        metrics["engine.cache.hits"] = (per_pass(hits), "count/pass")
        metrics["engine.cache.misses"] = (per_pass(misses), "count/pass")
        metrics["engine.cache.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
        for kind in CACHE_KINDS:
            metrics[f"engine.cache.compile_ms.{kind}"] = (
                ms(counts[f"engine.cache.compile.{kind}.seconds"]), "ms/op")
        metrics.update({
            "automata.duta.reachable_calls": (
                per_pass(calls["automata.duta.reachable"]), "count/pass"),
            "automata.duta.reachable_ms": (
                ms(seconds["automata.duta.reachable"]), "ms/op"),
            "automata.duta.states": (
                per_pass(counts["automata.duta.states"]), "count/pass"),
            "engine.cache.achievable_ms": (
                ms(seconds["engine.cache.achievable_sets"]), "ms/op"),
            "automata.duta.find_accepted_calls": (
                per_pass(calls["automata.duta.find_accepted"]), "count/pass"),
            "automata.duta.find_accepted_ms": (
                ms(seconds["automata.duta.find_accepted"]), "ms/op"),
        })
        for route in CONSISTENCY_ROUTES:
            metrics[f"consistency.{route}_ms"] = (
                ms(counts[f"consistency.{route}.seconds"]), "ms/op")
        metrics.update({
            "consistency.expansions": (
                per_pass(counts["consistency.expansions"]), "count/pass"),
            "consistency.unknown": (
                per_pass(counts["consistency.unknown"]), "count/pass"),
            "engine.certify.calls": (
                per_pass(calls["engine.certify"]), "count/pass"),
            "engine.certify.ms": (ms(seconds["engine.certify"]), "ms/op"),
            "patterns.engine_builds": (
                per_pass(calls["patterns.engine_build"]), "count/pass"),
            "patterns.engine_for_calls": (
                per_pass(calls["patterns.engine_for"]), "count/pass"),
            "patterns.engine_build_ms": (
                ms(seconds["patterns.engine_build"]), "ms/op"),
            "patterns.compact_share": (
                ratio(counts["patterns.compact_builds"],
                      calls["patterns.engine_build"]), "ratio"),
            "patterns.find_matches_calls": (
                per_pass(calls["patterns.find_matches"]), "count/pass"),
            "patterns.find_matches_ms": (
                ms(seconds["patterns.find_matches"]), "ms/op"),
            "patterns.matches_at_root_calls": (
                per_pass(calls["patterns.matches_at_root"]), "count/pass"),
            "patterns.matches_at_root_ms": (
                ms(seconds["patterns.matches_at_root"]), "ms/op"),
            "mappings.membership.calls": (
                per_pass(calls["mappings.membership"]), "count/pass"),
            "mappings.membership.ms": (
                ms(seconds["mappings.membership"]), "ms/op"),
            "analysis.lint_ms": (ms(seconds["analysis.lint"]), "ms/op"),
            "analysis.redundancy_ms": (
                ms(seconds["analysis.redundancy"]), "ms/op"),
            "incremental.update_ms": (
                ms(seconds["incremental.update"]), "ms/op"),
            "incremental.reused": (
                per_pass(counts["incremental.reused"]), "count/pass"),
            "incremental.invalidated": (
                per_pass(counts["incremental.invalidated"]), "count/pass"),
            "incremental.recompiled": (
                per_pass(counts["incremental.recompiled"]), "count/pass"),
            "incremental.reuse_ratio": (
                ratio(counts["incremental.reused"],
                      counts["incremental.reused"]
                      + counts["incremental.recompiled"]), "ratio"),
        })
        for command in SERVICE_COMMANDS:
            handled = counts[f"service.handle.{command}.calls"]
            metrics[f"service.handle_ms.{command}"] = (
                1000.0 * ratio(counts[f"service.handle.{command}.seconds"],
                               handled), "ms/call")
        metrics["service.http_overhead_ms"] = (
            ms(round_trip_seconds - seconds["service.handle"])
            if round_trip_seconds else 0.0, "ms/op")
        metrics["service.rejected"] = (
            per_pass(counts["service.rejected"]), "count/pass")
        metrics["obs.flight_record_ms"] = (
            ms(seconds["obs.flight_record"]), "ms/op")
        for kernel in KERNELS:
            metrics[f"kernel.selected.{kernel}"] = (
                per_pass(counts[f"kernel.selected.{kernel}"]), "count/pass")
        metrics["trace.overhead_frac"] = (
            ratio(op_seconds, untraced_op_seconds) - 1.0
            if untraced_op_seconds else 0.0, "ratio")
        metrics["trace.unattributed_ms"] = (
            1000.0 * (op_seconds - self.covered * scale / ops), "ms/op")
        missing = [
            layer for layer in REQUIRED_LAYERS[workload] if not calls[layer]
        ]
        return metrics, missing
