"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

validate   check that an XML document conforms to a DTD
match      evaluate a tree pattern against an XML document
check      static analysis of a mapping file (consistency, absolute consistency)
lint       zero-solver diagnostics: fragment, predicted complexity cells,
           DTD class, pattern hygiene, composition closure
member     is (source.xml, target.xml) in [[M]]?
solve      build the canonical solution for a source document
compose    compose two mapping files (Theorem 8.2) and print the result
stats      self-checking metrics-exporter smoke test (the CI gate); with
           --url, pull /stats + /metrics from a running daemon instead
serve      run the JSON-over-HTTP daemon over one warm engine session
top        live terminal view of a running daemon (latency quantiles,
           saturation, cache hit rates, latest slow requests)

Documents are plain XML (see :mod:`repro.xmlmodel.xml_io`), DTDs use the
textual production syntax, mappings the ``.xsm`` format of
:mod:`repro.mappings.io`.

The analysis commands are thin adapters over the service layer
(:mod:`repro.service`): each invocation builds an
:class:`~repro.service.EngineSession`, runs the matching request handler
and renders the response dict — the *same* handler the ``repro serve``
daemon exposes over HTTP, so CLI and service behaviour cannot drift.
With ``--url http://host:port`` the request is POSTed to a running
daemon instead (warm caches, no interpreter startup) and the response
renders identically.

``check`` exits 0 when the mapping is consistent, 1 when it is
inconsistent and 2 when every applicable procedure came back ``Unknown``
(bound exhausted); other commands keep 0 = yes / 1 = no.  Errors (parse
failures, missing labels, unreachable daemon, ...) exit 3.  ``--stats``
prints the engine's per-solve accounting: selected algorithm, routing
reason, wall clock, charged expansions and compilation-cache hits/misses.

``lint`` runs the static analyser only (`repro.analysis`): exit 0 when
clean, 1 on errors (``SM1xx``/``SM2xx`` severities), 2 with ``--strict``
when there are warnings, 3 on operational failures; ``--json`` emits the
machine-readable envelope, ``--quiet`` hides info-level diagnostics.

``check`` and ``member`` accept *batches* — several mapping files, or
several target documents — and the exit code is the maximum over the
inputs.  ``--jobs N`` fans the batch out over N worker processes through
:func:`repro.engine.solve_many`; ``--cache-dir`` attaches a persistent
on-disk compilation cache shared by the workers and by repeat
invocations, and ``--cache-size`` bounds the in-memory LRU (both also
honour the ``REPRO_CACHE_DIR`` / ``REPRO_CACHE_SIZE`` environment
variables).

Observability (see DESIGN.md §Observability): ``--trace[=FILE]`` writes
a JSONL span log of the whole invocation — with ``--jobs`` the workers'
spans are merged into one cross-process tree; ``--metrics[=FILE]``
exports the metrics registry (Prometheus text, or JSON for ``.json``
destinations); ``--stats`` additionally prints a registry-derived
``registry:`` section of every series the command moved.  ``repro
stats`` runs a built-in self-test batch and fails (exit 1) when the
exporters regress.  ``REPRO_PROFILE=1`` dumps per-solve cProfile data.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

from repro.engine import CompilationCache, DiskCacheTier, ExecutionContext
from repro.errors import XsmError
from repro.exchange import canonical_solution
from repro.mappings.io import parse_mapping
from repro.obs import REGISTRY, collecting, diff_snapshots, estimate_quantile
from repro.patterns.matching import find_matches
from repro.patterns.parser import parse_pattern
from repro.service import EngineSession, call_service
from repro.xmlmodel.dtd import parse_dtd
from repro.xmlmodel.xml_io import from_xml, to_xml


def _read(path: str) -> str:
    return Path(path).read_text()


# ---------------------------------------------------------------------------
# observability plumbing: --trace / --metrics / registry-derived --stats
# ---------------------------------------------------------------------------


def _write_obs(dest: str, text: str) -> None:
    """``-`` goes to stdout, anything else is a file path."""
    if dest == "-":
        sys.stdout.write(text)
    else:
        Path(dest).write_text(text)


def _render_metrics(dest: str) -> str:
    """Registry export: ``.json`` destinations get JSON, else Prometheus."""
    if dest.endswith(".json"):
        return REGISTRY.render_json()
    return REGISTRY.render_prometheus()


class _Observer:
    """Per-invocation --trace/--metrics/--stats wiring around a handler.

    Installs a trace collector when ``--trace`` asked for one (so every
    engine span of the command lands in one tree, including the merged
    cross-process spans of ``--jobs`` batches), snapshots the registry
    around the handler for the ``--stats`` registry section, and flushes
    the requested exports even when the handler raises.
    """

    def __init__(self, args):
        self.trace_dest = getattr(args, "trace", None)
        self.metrics_dest = getattr(args, "metrics", None)
        self.stats = bool(getattr(args, "stats", False))
        self.command = getattr(args, "command", "repro")
        self.tree = None
        self._before = None
        self._collector = None

    def __enter__(self):
        self._before = REGISTRY.snapshot()
        if self.trace_dest is not None:
            self._collector = collecting("repro", command=self.command)
            self.tree = self._collector.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._collector is not None:
            self._collector.__exit__(exc_type, exc, tb)
        if self.trace_dest is not None and self.tree is not None:
            _write_obs(self.trace_dest, self.tree.jsonl())
        if self.metrics_dest is not None:
            _write_obs(self.metrics_dest, _render_metrics(self.metrics_dest))
        if self.stats and exc_type is None:
            self._print_registry_section()
        return False

    def _print_registry_section(self) -> None:
        delta = diff_snapshots(self._before, REGISTRY.snapshot())
        lines = _registry_lines(delta)
        if lines:
            print("registry:")
            for line in lines:
                print(f"  {line}")


def _registry_lines(delta: dict) -> list[str]:
    """Render a snapshot delta for ``--stats``: one line per moved series."""
    lines: list[str] = []
    for name in sorted(delta):
        data = delta[name]
        labelnames = data.get("labelnames", [])
        for key in sorted(data.get("series", {})):
            value = data["series"][key]
            labels = ",".join(f"{k}={v}" for k, v in zip(labelnames, key))
            suffix = f"{{{labels}}}" if labels else ""
            if data["kind"] == "histogram":
                count, total = value.get("count", 0), value.get("sum", 0.0)
                lines.append(f"{name}{suffix} count={count} sum={total:.6f}s")
            else:
                rendered = int(value) if float(value).is_integer() else value
                lines.append(f"{name}{suffix} {rendered}")
    return lines


# ---------------------------------------------------------------------------
# the service adapter: one code path for CLI and daemon
# ---------------------------------------------------------------------------


def _resolved_cache_dir(args) -> str | None:
    return getattr(args, "cache_dir", None) or os.environ.get("REPRO_CACHE_DIR")


def _batch_context(args) -> ExecutionContext:
    """An execution context honouring ``--cache-size`` / ``--cache-dir``."""
    cache_dir = _resolved_cache_dir(args)
    disk = DiskCacheTier(cache_dir) if cache_dir else None
    cache = CompilationCache(max_entries=getattr(args, "cache_size", None), disk=disk)
    return ExecutionContext(cache=cache)


def _session_from_args(args) -> EngineSession:
    return EngineSession(
        jobs=getattr(args, "jobs", 1) or 1,
        cache_size=getattr(args, "cache_size", None),
        cache_dir=_resolved_cache_dir(args),
    )


def _dispatch(args, command: str, request: dict) -> dict:
    """Run *request* locally or, with ``--url``, against a daemon.

    A response carrying an ``error`` envelope (parse failure on the
    mapping, a rejected request, a saturated daemon) is re-raised as
    :class:`XsmError`, so :func:`main` reports it exactly like the
    pre-service-layer CLI did: ``error: <message>`` on stderr, exit 3.
    """
    url = getattr(args, "url", None)
    if url:
        response = call_service(url, command, request)
    else:
        response = _session_from_args(args).handle(command, request)
    error = response.get("error")
    if error:
        raise XsmError(error.get("message", str(error)))
    return response


def _describe(payload: dict) -> str:
    if payload["verdict"] == "unknown":
        return f"unknown ({payload['reason']})"
    return str(payload["decision"])


def _print_report_lines(payload: dict) -> None:
    for line in payload.get("report", {}).get("lines", ()):
        print(f"  {line}")


def cmd_validate(args) -> int:
    dtd = parse_dtd(_read(args.dtd))
    document = from_xml(_read(args.document), dtd)
    try:
        dtd.check_conformance(document)
    except XsmError as error:
        print(f"INVALID: {error}")
        return 1
    print("VALID")
    return 0


def cmd_match(args) -> int:
    pattern = parse_pattern(args.pattern)
    document = from_xml(_read(args.document))
    matches = find_matches(pattern, document)
    variables = pattern.variables()
    if not matches:
        print("no matches")
        return 1
    for match in matches:
        rendered = ", ".join(f"{v.name}={match[v]!r}" for v in variables)
        print(rendered or "(match)")
    return 0


def _render_check_entry(args, entry: dict) -> None:
    """One mapping's section of ``repro check`` output, from the response."""
    print(f"class: {entry['class']}")
    print(f"consistent: {_describe(entry['consistent'])}")
    if args.stats:
        _print_report_lines(entry["consistent"])
    witness = entry.get("witness")
    if witness:
        print(f"  witness source: {witness['source']}")
        print(f"  witness target: {witness['target']}")
    print(f"absolutely consistent: {_describe(entry['absolutely_consistent'])}")
    for why in entry.get("why", ()):
        print(f"  why: {why}")
    if "counterexample" in entry:
        print("  unmappable document:")
        print("  " + entry["counterexample"].replace("\n", "\n  "))
    if args.stats:
        _print_report_lines(entry["absolutely_consistent"])


def cmd_check(args) -> int:
    request = {
        "mappings": [{"name": path, "text": _read(path)} for path in args.mappings],
        "jobs": args.jobs,
        "witness": args.witness,
    }
    response = _dispatch(args, "check", request)
    for position, entry in enumerate(response["results"]):
        if len(args.mappings) > 1:
            if position:
                print()
            print(f"== {entry['name']}")
        _render_check_entry(args, entry)
    if args.stats and len(args.mappings) > 1:
        for line in response["batch"]["lines"]:
            print(f"  {line}")
    return response["exit_code"]


def cmd_member(args) -> int:
    request = {
        "mapping": _read(args.mapping),
        "source": _read(args.source),
        "targets": [{"name": path, "text": _read(path)} for path in args.targets],
        "jobs": args.jobs,
        "explain": args.explain,
    }
    response = _dispatch(args, "member", request)
    for entry in response["results"]:
        answer = entry["answer"]
        print(answer if len(args.targets) == 1 else f"{entry['name']}: {answer}")
        if args.stats:
            _print_report_lines(entry["result"])
        for violation in entry.get("violations", ()):
            print(f"  violated: {violation['std']}")
            print(f"    with {violation['values']}")
    return response["exit_code"]


def cmd_solve(args) -> int:
    mapping = parse_mapping(_read(args.mapping))
    source = from_xml(_read(args.source), mapping.source_dtd)
    solution = canonical_solution(mapping, source)
    if solution is None:
        print("NO SOLUTION", file=sys.stderr)
        return 1
    output = to_xml(solution, mapping.target_dtd)
    if args.output:
        Path(args.output).write_text(output)
    else:
        print(output, end="")
    return 0


def cmd_stats(args) -> int:
    """Self-checking exporter smoke: solve a built-in batch, validate the
    Prometheus export and the merged trace; exit 1 on any regression.

    With ``--url`` the subcommand *pulls* instead: it fetches ``/stats``
    and ``/metrics`` from the running daemon, validates the Prometheus
    text with the strict parser, and prints the daemon's accounting — no
    self-test batch is pushed into a production session.
    """
    if getattr(args, "url", None):
        return _stats_pull(args.url)
    response = _dispatch(args, "selftest", {"jobs": args.jobs})
    for line in response["lines"]:
        print(line)
    if response["failures"]:
        for failure in response["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return response["exit_code"]
    print("stats: OK")
    return 0


def _stats_pull(url: str) -> int:
    """``repro stats --url``: report a running daemon's accounting."""
    from repro.obs import parse_prometheus
    from repro.service import fetch_json, fetch_text

    stats = fetch_json(url, "stats")
    text = fetch_text(url, "metrics")
    failures: list[str] = []
    try:
        series = parse_prometheus(text)
    except ValueError as error:
        series = {}
        failures.append(f"/metrics does not parse: {error}")
    session = stats.get("session", {})
    print(f"daemon at {url}: up {session.get('uptime_seconds', 0.0):.1f}s, "
          f"jobs={session.get('jobs')}")
    requests = session.get("requests") or {}
    total = sum(requests.values())
    print(f"requests: {total} "
          f"({', '.join(f'{op}={n}' for op, n in sorted(requests.items()))})")
    cache = stats.get("cache") or {}
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    if hits + misses:
        print(f"cache: {hits} hits / {misses} misses "
              f"({100.0 * hits / (hits + misses):.1f}% hit rate), "
              f"{cache.get('entries', 0)} entries")
    flight = stats.get("flight") or {}
    if flight:
        print(f"flight: {flight.get('recorded', 0)} recorded, "
              f"{flight.get('buffered', 0)}/{flight.get('capacity', 0)} "
              f"buffered, {flight.get('slow_seen', 0)} slow "
              f"(threshold {flight.get('slow_threshold_ms', 0):.0f}ms)")
    server = stats.get("server") or {}
    if server:
        print(f"server: {server.get('inflight', 0)}/"
              f"{server.get('max_inflight', 0)} inflight, "
              f"{server.get('queued', 0)}/{server.get('queue_depth', 0)} queued")
    print(f"prometheus export: {len(series)} series")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("stats: OK")
    return 0


def _watch_report(path: str, response: dict) -> int:
    """Render one delta response as a watch-mode line (plus lint text)."""
    import time as time_module

    stamp = time_module.strftime("%H:%M:%S")
    error = response.get("error")
    if error:
        print(f"[{stamp}] {path}: error: {error.get('message', error)}",
              flush=True)
        return int(response.get("exit_code", 3))
    incremental = response["incremental"]
    verdicts = response["verdicts"]
    invalidated = incremental["invalidated"]
    kind = "cold" if response["cold"] else f"delta ({incremental['dirty']} dirty)"
    print(
        f"[{stamp}] {path}: {kind} in {incremental['elapsed'] * 1000:.1f}ms"
        f" — consistent={verdicts['consistency']['verdict']}"
        f" abscons={verdicts['absolutely_consistent']['verdict']}"
        f" reused={incremental['reused']}"
        f" recompiled={incremental['recompiled']}"
        f" invalidated={invalidated['artifacts'] + invalidated['results']}",
        flush=True,
    )
    lint_text = response["lint"]["text"]
    if lint_text.strip():
        for line in lint_text.splitlines():
            print(f"    {line}", flush=True)
    return max(int(response["exit_code"]), int(response["lint"]["exit_code"]))


def _lint_watch(args) -> int:
    """``repro lint --watch``: re-lint and re-solve mapping files on change.

    One warm :class:`EngineSession` (or a daemon via ``--url``) serves a
    ``delta`` request per changed file, so only the parts the edit
    changed are recompiled; the per-delta line prints the latency and
    the reuse accounting.  A file that fails to parse mid-save reports an
    error and keeps being watched.  ``--watch-count N`` exits after N
    change events (CI smoke); otherwise the loop runs until Ctrl-C.
    """
    import time as time_module

    from repro.incremental import FileWatcher

    url = getattr(args, "url", None)
    session = None if url else _session_from_args(args)

    def dispatch(path: str) -> dict:
        request = {
            "name": path,
            "mapping": _read(path),
            "strict": args.strict,
            "quiet": args.quiet,
        }
        if url:
            return call_service(url, "delta", request)
        return session.delta(request)

    watcher = FileWatcher(args.mappings)
    exit_code = 0
    for path in args.mappings:
        exit_code = max(exit_code, _watch_report(path, dispatch(path)))
    print(f"watching {len(args.mappings)} file(s), polling every "
          f"{args.interval}s; Ctrl-C to stop", flush=True)
    remaining = args.watch_count
    try:
        while remaining is None or remaining > 0:
            time_module.sleep(args.interval)
            for changed in watcher.poll():
                exit_code = max(
                    exit_code, _watch_report(str(changed), dispatch(str(changed)))
                )
                if remaining is not None:
                    remaining -= 1
                    if remaining <= 0:
                        break
    except KeyboardInterrupt:
        pass
    return exit_code


def _write_or_print(target: str | None, payload: str) -> None:
    """Write *payload* to a file, or stdout for ``-``/None."""
    if target and target != "-":
        Path(target).write_text(payload)
    else:
        print(payload, end="" if payload.endswith("\n") else "\n")


def cmd_lint(args) -> int:
    """Static diagnostics for one or more mapping files (no solver runs
    unless ``--sarif`` asks for verified fixes too)."""
    if args.watch:
        return _lint_watch(args)
    import json as json_module

    from repro.analysis import (
        apply_baseline,
        baseline_from_envelope,
        envelope_exit_code,
        load_baseline,
        render_baseline,
        sarif_log,
    )

    texts = {path: _read(path) for path in args.mappings}
    request = {
        "mappings": [{"name": path, "text": texts[path]} for path in args.mappings],
        "strict": args.strict,
        "quiet": args.quiet,
    }
    if args.sarif is not None:
        # the SARIF export carries verified quick-fixes, so the daemon
        # (or local session) runs the fix engine's certification gate
        request["fixes"] = True
    response = _dispatch(args, "lint", request)
    envelope = response["report"]
    exit_code = response["exit_code"]

    suppressed_only: dict[str, object] | None = None
    if args.baseline:
        baseline_path = Path(args.baseline)
        if args.update_baseline or not baseline_path.exists():
            baseline = baseline_from_envelope(envelope)
            baseline_path.write_text(render_baseline(baseline))
            entries = baseline["entries"]
            assert isinstance(entries, dict)
            print(
                f"baseline written: {baseline_path} ({len(entries)} entr"
                f"{'y' if len(entries) == 1 else 'ies'})",
                file=sys.stderr,
            )
            return 0
        baseline = load_baseline(baseline_path.read_text())
        result = apply_baseline(envelope, baseline)
        envelope = result.envelope
        suppressed_only = envelope
        print(result.summary(), file=sys.stderr)
        for entry in result.stale:
            print(
                f"stale baseline entry {entry.get('fingerprint')}: "
                f"{entry.get('code')} in {entry.get('name')}",
                file=sys.stderr,
            )
        exit_code = envelope_exit_code(envelope, strict=args.strict)

    if args.sarif is not None:
        fixes_by_name = {
            entry["name"]: entry["fixes"]
            for entry in response.get("fixes", [])
        }
        log = sarif_log(envelope, fixes=fixes_by_name, texts=texts)
        _write_or_print(
            args.sarif, json_module.dumps(log, indent=2, sort_keys=True)
        )
        if args.sarif != "-":
            print(f"SARIF written: {args.sarif}", file=sys.stderr)
    if args.json:
        print(json_module.dumps(envelope, indent=2, sort_keys=True))
    elif args.sarif is None or args.sarif != "-":
        if suppressed_only is None:
            for position, entry in enumerate(response["rendered"]):
                if len(args.mappings) > 1:
                    if position:
                        print()
                    print(f"== {entry['name']}")
                print(entry["text"])
        else:
            # baselined run: the pre-rendered text would show suppressed
            # diagnostics, so re-render the surviving ones per report
            for row in envelope["reports"]:
                for diagnostic in row["diagnostics"]:
                    print(
                        f"{diagnostic['severity']} {diagnostic['code']} "
                        f"[{row['name']}]: {diagnostic['message']}"
                    )
    return exit_code


def _fix_round(args, name: str, text: str, only_codes: list[str] | None) -> dict:
    request: dict[str, object] = {
        "mappings": [{"name": name, "text": text}],
        "strict": getattr(args, "strict", False),
        "quiet": True,
        "fixes": True,
    }
    if only_codes:
        request["only_codes"] = only_codes
    return _dispatch(args, "lint", request)


def _atomic_write(path: str, payload: str) -> None:
    import tempfile

    directory = str(Path(path).parent or Path("."))
    handle = tempfile.NamedTemporaryFile(
        "w", dir=directory, prefix=f".{Path(path).name}.", suffix=".tmp",
        delete=False,
    )
    try:
        with handle as stream:
            stream.write(payload)
        os.replace(handle.name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(handle.name)
        raise


def cmd_fix(args) -> int:
    """Apply certified quick-fixes: lint, repair, repeat until stable.

    Every fix was verified in-memory (apply → re-lint clean for its code
    → solve() non-regression) before being offered; ``--diff`` previews,
    ``--apply`` writes atomically, and the exit code mirrors ``repro
    lint`` over the final state of each file.
    """
    import difflib

    from repro.analysis import apply_edits_to_text, fix_from_dict, select_compatible

    only_codes = None
    if args.only:
        only_codes = sorted(
            {code.strip() for entry in args.only for code in entry.split(",") if code.strip()}
        )
    exit_code = 0
    for path in args.mappings:
        original = _read(path)
        text = original
        applied: list[str] = []
        response = _fix_round(args, path, text, only_codes)
        for __ in range(args.max_rounds):
            fixes = [
                fix_from_dict(payload)
                for payload in response["fixes"][0]["fixes"]
            ]
            selected = select_compatible(fixes)
            if not selected:
                break
            edits = [edit for fix in selected for edit in fix.edits]
            text = apply_edits_to_text(text, edits)
            applied.extend(fix.render() for fix in selected)
            response = _fix_round(args, path, text, only_codes)
        exit_code = max(exit_code, response["exit_code"])
        if len(args.mappings) > 1:
            print(f"== {path}")
        for line in applied:
            print(f"fixed: {line}")
        if not applied:
            print("no applicable fixes")
        if args.diff and text != original:
            sys.stdout.writelines(
                difflib.unified_diff(
                    original.splitlines(keepends=True),
                    text.splitlines(keepends=True),
                    fromfile=f"a/{path}",
                    tofile=f"b/{path}",
                )
            )
        if args.apply and text != original:
            _atomic_write(path, text)
            print(f"wrote {path}")
    return exit_code


def cmd_compose(args) -> int:
    request = {"first": _read(args.first), "second": _read(args.second)}
    response = _dispatch(args, "compose", request)
    output = response["mapping"]
    if args.output:
        Path(args.output).write_text(output)
    else:
        print(output, end="")
    return 0


def cmd_serve(args) -> int:
    """Run the JSON-over-HTTP daemon over one warm engine session."""
    from repro.obs import FlightRecorder
    from repro.service import ServiceServer

    session = _session_from_args(args)
    if args.slow_log:
        session.flight = FlightRecorder(slow_log=args.slow_log)
    server = ServiceServer(
        session,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        request_timeout=args.timeout,
        verbose=args.verbose,
    )
    print(f"serving on {server.url} "
          f"(jobs={session.jobs}, max_inflight={server.admission.max_inflight}, "
          f"queue_depth={server.admission.queue_depth})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _quantile_rows(metrics: dict) -> list[str]:
    """Per-op p50/p95/p99 lines from a ``/metrics.json`` export.

    Quantiles are Prometheus-style estimates interpolated from histogram
    bucket counts (see :func:`repro.obs.estimate_quantile`), so they are
    as coarse as the bucket grid — good enough to spot a regressing op.
    """
    family = metrics.get("repro_request_latency_seconds")
    if not family:
        return []
    bounds = tuple(
        float("inf") if b == "+Inf" else float(b)
        for b in family.get("buckets", ())
    )
    rows = []
    for series in family.get("series", ()):
        counts = series["value"]["buckets"]
        count = series["value"]["count"]
        if not count:
            continue
        quantiles = [estimate_quantile(bounds, counts, q)
                     for q in (0.5, 0.95, 0.99)]
        p50, p95, p99 = (
            "-" if q is None else f"{q * 1000:8.1f}" for q in quantiles
        )
        op = series["labels"].get("command", "?")
        rows.append(f"  {op:<10} {count:>6} {p50} {p95} {p99}")
    return rows


def _top_frame(url: str, stats: dict, metrics: dict, slow: dict) -> str:
    """One rendered ``repro top`` frame (plain text, no escape codes)."""
    import time as time_module

    lines = [f"repro top — {url} — {time_module.strftime('%H:%M:%S')}"]
    session = stats.get("session", {})
    server = stats.get("server", {})
    lines.append(
        f"up {session.get('uptime_seconds', 0.0):8.1f}s   jobs={session.get('jobs')}"
        f"   inflight {server.get('inflight', 0)}/{server.get('max_inflight', '?')}"
        f"   queued {server.get('queued', 0)}/{server.get('queue_depth', '?')}"
    )
    requests = session.get("requests") or {}
    lines.append("requests: " + (", ".join(
        f"{op}={count}" for op, count in sorted(requests.items())
    ) or "none yet"))

    rows = _quantile_rows(metrics)
    if rows:
        lines.append("latency (ms):")
        lines.append(f"  {'op':<10} {'count':>6} {'p50':>8} {'p95':>8} {'p99':>8}")
        lines.extend(rows)

    cache = stats.get("cache") or {}
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    if hits + misses:
        lines.append(
            f"cache: {100.0 * hits / (hits + misses):5.1f}% hit rate "
            f"({hits} hits, {misses} misses, {cache.get('entries', 0)} entries)"
        )
    incremental = stats.get("incremental") or {}
    if incremental.get("revisions"):
        lines.append(
            f"incremental: {incremental.get('revisions', 0)} revisions, "
            f"{incremental.get('deltas', 0)} deltas, "
            f"{incremental.get('memoized_verdicts', 0)} memoized verdicts"
        )
    flight = stats.get("flight") or {}
    lines.append(
        f"flight: {flight.get('recorded', 0)} recorded "
        f"({flight.get('buffered', 0)}/{flight.get('capacity', 0)} buffered), "
        f"{flight.get('slow_seen', 0)} slow over "
        f"{flight.get('slow_threshold_ms', 0):.0f}ms"
    )
    slow_entries = (slow.get("slow") or [])[:5]
    if slow_entries:
        lines.append("slow requests:")
        for entry in slow_entries:
            lines.append(
                f"  {entry.get('trace_id', '?'):<18} {entry.get('op', '?'):<8}"
                f" {entry.get('duration_ms', 0.0):8.1f}ms"
                f" {entry.get('status', '?')}"
            )
    return "\n".join(lines)


def cmd_top(args) -> int:
    """``repro top --url``: a live, stdlib-only view of a running daemon.

    Polls ``/stats``, ``/metrics.json`` and ``/debug/slow`` every
    ``--interval`` seconds and redraws one screen: saturation, per-op
    latency quantiles, cache/memo hit rates and the latest slow
    requests.  ``--count N`` renders N frames then exits (CI smoke);
    ``--plain`` never clears the screen (or pipe the output — clearing
    only happens on a TTY).
    """
    import json as json_module
    import time as time_module

    from repro.service import fetch_json, fetch_text

    remaining = args.count
    clear = not args.plain and sys.stdout.isatty()
    while True:
        stats = fetch_json(args.url, "stats")
        metrics = json_module.loads(fetch_text(args.url, "metrics.json"))
        slow = fetch_json(args.url, "debug/slow?limit=5")
        frame = _top_frame(args.url, stats, metrics, slow)
        if clear:
            print("\x1b[2J\x1b[H", end="")
        print(frame, flush=True)
        if remaining is not None:
            remaining -= 1
            if remaining <= 0:
                return 0
        try:
            time_module.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XML schema mappings (PODS 2009 reproduction) — "
        "validation, matching, static analysis, exchange, composition",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate", help="conformance of a document")
    validate.add_argument("--dtd", required=True)
    validate.add_argument("document")
    validate.set_defaults(handler=cmd_validate)

    match = commands.add_parser("match", help="evaluate a pattern on a document")
    match.add_argument("--pattern", required=True)
    match.add_argument("document")
    match.set_defaults(handler=cmd_match)

    def add_batch_options(command) -> None:
        command.add_argument("--jobs", type=int, default=1, metavar="N",
                             help="solve the batch over N worker processes")
        command.add_argument("--cache-dir", metavar="DIR",
                             default=None,
                             help="persistent on-disk compilation cache "
                             "(default: $REPRO_CACHE_DIR)")
        command.add_argument("--cache-size", type=int, default=None, metavar="N",
                             help="in-memory compilation-cache capacity "
                             "(default: $REPRO_CACHE_SIZE or 256)")

    def add_obs_options(command) -> None:
        command.add_argument("--trace", nargs="?", const="-", default=None,
                             metavar="FILE",
                             help="write a JSONL span log of the run "
                             "(merged across --jobs workers; default stdout)")
        command.add_argument("--metrics", nargs="?", const="-", default=None,
                             metavar="FILE",
                             help="write a metrics-registry export: .json "
                             "files get JSON, everything else Prometheus "
                             "text (default stdout)")

    def add_url_option(command) -> None:
        command.add_argument("--url", default=None, metavar="URL",
                             help="send the request to a running `repro "
                             "serve` daemon instead of solving in-process")

    check = commands.add_parser("check", help="static analysis of mappings")
    check.add_argument("mappings", nargs="+",
                       help="one or more mapping files; the exit code is the "
                       "maximum over the files")
    check.add_argument("--witness", action="store_true")
    check.add_argument("--stats", action="store_true",
                       help="print the engine's algorithm/cost accounting")
    add_batch_options(check)
    add_obs_options(check)
    add_url_option(check)
    check.set_defaults(handler=cmd_check)

    member = commands.add_parser("member", help="is (source, target) in [[M]]?")
    member.add_argument("mapping")
    member.add_argument("source")
    member.add_argument("targets", nargs="+", metavar="target",
                        help="one or more target documents; the exit code is "
                        "the maximum over the targets")
    member.add_argument("--explain", action="store_true")
    member.add_argument("--stats", action="store_true",
                        help="print the engine's algorithm/cost accounting")
    add_batch_options(member)
    add_obs_options(member)
    add_url_option(member)
    member.set_defaults(handler=cmd_member)

    solve_cmd = commands.add_parser("solve", help="canonical solution for a source")
    solve_cmd.add_argument("mapping")
    solve_cmd.add_argument("source")
    solve_cmd.add_argument("--output")
    add_obs_options(solve_cmd)
    solve_cmd.set_defaults(handler=cmd_solve)

    stats = commands.add_parser(
        "stats", help="self-checking exporter smoke test (CI gate)"
    )
    stats.add_argument("--jobs", type=int, default=2, metavar="N",
                       help="fan the self-test batch over N workers "
                       "(default 2, so the cross-process plumbing is checked)")
    stats.add_argument("--cache-dir", default=None, metavar="DIR")
    stats.add_argument("--cache-size", type=int, default=None, metavar="N")
    add_obs_options(stats)
    add_url_option(stats)
    stats.set_defaults(handler=cmd_stats)

    lint = commands.add_parser(
        "lint", help="static diagnostics for mappings (no solver runs)"
    )
    lint.add_argument("mappings", nargs="+",
                      help="one or more mapping files; the exit code is the "
                      "maximum over the files")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable report (one envelope for all files)")
    lint.add_argument("--strict", action="store_true",
                      help="exit 2 when there are warnings (errors still exit 1)")
    lint.add_argument("--quiet", action="store_true",
                      help="hide info-level diagnostics in text output")
    lint.add_argument("--sarif", nargs="?", const="-", default=None,
                      metavar="FILE",
                      help="write a SARIF 2.1.0 log (rules, results, "
                      "verified fixes, suppressions) to FILE, or stdout "
                      "when no FILE is given; implies computing fixes")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="suppress diagnostics recorded in FILE (created "
                      "on first use); new findings still fail, stale "
                      "entries are reported")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite --baseline FILE from this run's "
                      "diagnostics and exit 0")
    lint.add_argument("--watch", action="store_true",
                      help="keep running: poll the files for edits and "
                      "incrementally re-lint/re-solve only what changed")
    lint.add_argument("--interval", type=float, default=0.5, metavar="SECONDS",
                      help="watch-mode polling interval (default 0.5)")
    lint.add_argument("--watch-count", type=int, default=None, metavar="N",
                      help="watch mode: exit after N change events "
                      "(default: run until Ctrl-C)")
    lint.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="persistent on-disk compilation cache "
                      "(default: $REPRO_CACHE_DIR)")
    lint.add_argument("--cache-size", type=int, default=None, metavar="N",
                      help="in-memory compilation-cache capacity "
                      "(default: $REPRO_CACHE_SIZE or 256)")
    add_obs_options(lint)
    add_url_option(lint)
    lint.set_defaults(handler=cmd_lint)

    fix = commands.add_parser(
        "fix", help="apply certified quick-fixes proposed by lint"
    )
    fix.add_argument("mappings", nargs="+",
                     help="one or more mapping files; the exit code mirrors "
                     "`repro lint` over each file's final state")
    fix.add_argument("--diff", action="store_true",
                     help="print a unified diff of the repairs")
    fix.add_argument("--apply", action="store_true",
                     help="write the repaired file in place (atomic rename)")
    fix.add_argument("--only", action="append", default=None, metavar="SMxxx",
                     help="restrict to these diagnostic codes "
                     "(repeatable, comma-separable)")
    fix.add_argument("--strict", action="store_true",
                     help="exit 2 when warnings remain after fixing")
    fix.add_argument("--max-rounds", type=int, default=8, metavar="N",
                     help="cap on lint→fix→re-lint rounds per file "
                     "(default 8)")
    fix.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="persistent on-disk compilation cache "
                     "(default: $REPRO_CACHE_DIR)")
    fix.add_argument("--cache-size", type=int, default=None, metavar="N",
                     help="in-memory compilation-cache capacity "
                     "(default: $REPRO_CACHE_SIZE or 256)")
    add_obs_options(fix)
    add_url_option(fix)
    fix.set_defaults(handler=cmd_fix, stats=False)

    compose = commands.add_parser("compose", help="compose two mappings (Thm 8.2)")
    compose.add_argument("first")
    compose.add_argument("second")
    compose.add_argument("--output")
    add_url_option(compose)
    compose.set_defaults(handler=cmd_compose)

    serve = commands.add_parser(
        "serve", help="JSON-over-HTTP daemon over one warm engine session"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8425,
                       help="listening port (0 binds an ephemeral port)")
    serve.add_argument("--max-inflight", type=int, default=4, metavar="N",
                       help="requests executing concurrently (default 4)")
    serve.add_argument("--queue-depth", type=int, default=8, metavar="N",
                       help="admitted requests waiting beyond the in-flight "
                       "limit; anything more is rejected with 429 (default 8)")
    serve.add_argument("--timeout", type=float, default=30.0, metavar="SECONDS",
                       help="per-request wall-clock cap; a slow solve comes "
                       "back as an Unknown verdict (default 30)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    serve.add_argument("--slow-log", default=None, metavar="FILE",
                       help="append slow requests (over $REPRO_SLOW_MS, "
                       "default 1000ms) as JSONL to FILE for post-mortems")
    add_batch_options(serve)
    serve.set_defaults(handler=cmd_serve, stats=False)

    top = commands.add_parser(
        "top", help="live terminal view of a running daemon"
    )
    top.add_argument("--url", required=True, metavar="URL",
                     help="the `repro serve` daemon to watch")
    top.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                     help="refresh period (default 2)")
    top.add_argument("--count", type=int, default=None, metavar="N",
                     help="render N frames then exit (default: until Ctrl-C)")
    top.add_argument("--plain", action="store_true",
                     help="never clear the screen between frames")
    top.set_defaults(handler=cmd_top, stats=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _Observer(args):
            return args.handler(args)
    except (XsmError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
