"""The service layer: every frontend goes through one warm engine session.

Before this package, the engine's entry points were one-shot: each CLI
invocation built its own caches, paid interpreter startup and compiled
every artifact from scratch.  :class:`EngineSession` extracts the
reusable core — one warm :class:`~repro.engine.cache.CompilationCache`
(optionally over a :class:`~repro.engine.diskcache.DiskCacheTier`), the
``solve_many`` worker-pool plumbing, the metrics registry — behind
plain-dict request/response handlers (``check`` / ``member`` /
``compose`` / ``lint`` / ``stats``) with per-request
:class:`~repro.engine.budget.Budget` limits and trace IDs.

Two frontends share that one code path:

* the CLI (:mod:`repro.cli`): every ``repro check/member/lint/compose/
  stats`` invocation builds a session, runs the handler, renders the
  response dict as text;
* the daemon (:mod:`repro.service.server`): ``repro serve`` keeps a
  session alive behind a stdlib JSON-over-HTTP frontend with admission
  control, so repeated requests hit warm caches instead of paying cold
  start — and the same CLI commands target it with ``--url``.

See DESIGN.md §8 ("Service layer").
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".client": ("ServiceUnavailable", "call_service", "fetch_json", "fetch_text"),
    ".server": ("ServiceServer",),
    ".session": ("EngineSession", "RequestError"),
})
