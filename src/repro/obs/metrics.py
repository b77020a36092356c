"""Named counters and gauges: the metrics registry.

The verification engine accumulates ad-hoc counters in several places
— :class:`~repro.algebraic.rewriting.RewriteEngine` attributes
(``cache_hits``/``cache_misses``/``rewrite_steps``/``dispatch_hits``),
the process-wide term-intern tables, and the
:class:`~repro.parallel.stats.VerificationStats` parts folded from each
check's spans.  The
:class:`MetricsRegistry` subsumes them behind one namespace of *named*
counters (monotone integers) and gauges (point-in-time floats), so
exporters and the ``--metrics-json`` CLI flag have a single flat,
stable schema to emit:

========================== =========================================
``verify.items``           total work items over every check
``verify.wall_time``       summed per-check wall seconds (gauge)
``rewrite.cache.hits``     rewrite-engine memo hits
``rewrite.cache.misses``   rewrite-engine memo misses
``rewrite.steps``          conditional-equation firings
``rewrite.dispatch.hits``  compiled dispatch-table reuses
``kernel.interned_terms``  terms hash-consed during the run
``kernel.intern_table.*``  live intern-table sizes (gauges)
``kernel.arena.*``         packed term-arena sizes (gauges)
``kernel.delta.*``         delta-exploration totals (gauges)
``check.<label>.*``        the same counters, per check
========================== =========================================

Span counters recorded through the tracer (``rewrite.evaluate.calls``,
``wgrammar.steps``, ...) merge into the same namespace via
:meth:`MetricsRegistry.merge_tracer`.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer
    from repro.parallel.stats import VerificationStats

__all__ = ["MetricsRegistry"]

#: VerificationStats counter fields and their registry names.
_STATS_COUNTERS = (
    ("states_checked", "items"),
    ("cache_hits", "rewrite.cache.hits"),
    ("cache_misses", "rewrite.cache.misses"),
    ("rewrite_steps", "rewrite.steps"),
    ("dispatch_hits", "rewrite.dispatch.hits"),
    ("interned_terms", "kernel.interned_terms"),
)


class MetricsRegistry:
    """A flat namespace of named counters and gauges.

    Counters are monotone integers (:meth:`inc`); gauges are
    point-in-time floats (:meth:`set_gauge`).  Registries merge
    (:meth:`merge`) by summing counters and keeping the latest gauge,
    so per-application registries fold into one run-level record.
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        self.gauges[name] = value

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters add, gauges overwrite."""
        for name, value in other.counters.items():
            self.inc(name, value)
        self.gauges.update(other.gauges)

    def merge_counters(
        self, counters: Mapping[str, int], prefix: str = ""
    ) -> None:
        """Fold a plain counter mapping in, optionally prefixed."""
        for name, value in counters.items():
            self.inc(prefix + name, value)

    def merge_tracer(self, tracer: "Tracer") -> None:
        """Fold a tracer's span-counter totals into the registry."""
        self.merge_counters(tracer.counter_totals())

    # ------------------------------------------------------------------
    def record_verification(self, stats: "VerificationStats") -> None:
        """Subsume a :class:`VerificationStats` bundle.

        The combined record lands under the flat names of the module
        docstring; each per-check part additionally lands under
        ``check.<label>.<counter>`` with a ``check.<label>.wall_time``
        gauge, so a trace viewer and the JSON consumer see the same
        decomposition the ``--stats`` tree prints.
        """
        for field, name in _STATS_COUNTERS:
            target = "verify.items" if name == "items" else name
            self.inc(target, getattr(stats, field))
        self.set_gauge("verify.wall_time", stats.wall_time)
        self.set_gauge("verify.workers", stats.workers)
        for part in stats.parts:
            prefix = f"check.{part.label}."
            for field, name in _STATS_COUNTERS:
                self.inc(prefix + name, getattr(part, field))
            self.set_gauge(prefix + "wall_time", part.wall_time)

    def record_runtime(self, stats: Mapping) -> None:
        """Subsume a :attr:`~repro.runtime.service.SpecRuntime.stats`
        dict under the ``runtime.*`` namespace.

        Counters: ``runtime.updates.accepted`` / ``.rejected``,
        ``runtime.queries``, and ``runtime.journal.*`` when the
        runtime journals.  Gauges: ``runtime.seq``, ``runtime.cells``,
        ``runtime.uptime_seconds`` — the one schema shared by
        ``--metrics-json`` files and the server's ``stats`` op.
        """
        self.inc("runtime.updates.accepted", stats.get("accepted", 0))
        self.inc("runtime.updates.rejected", stats.get("rejected", 0))
        self.inc("runtime.queries", stats.get("queries", 0))
        journal = stats.get("journal")
        if journal:
            self.inc("runtime.journal.appends", journal["appends"])
            self.inc("runtime.journal.syncs", journal["syncs"])
            self.inc(
                "runtime.journal.compactions", journal["compactions"]
            )
        self.set_gauge("runtime.seq", stats.get("seq", 0))
        self.set_gauge("runtime.cells", stats.get("cells", 0))
        self.set_gauge(
            "runtime.uptime_seconds", stats.get("uptime_seconds", 0.0)
        )

    def record_kernel(self) -> None:
        """Gauge the live term-kernel intern tables, the packed term
        arenas, and the delta-exploration totals."""
        from repro.algebraic.exploration import delta_counters
        from repro.logic.arena import arena_stats
        from repro.logic.terms import intern_stats, intern_table_size

        detail = intern_stats()
        self.set_gauge("kernel.intern_table.size", intern_table_size())
        self.set_gauge("kernel.intern_table.vars", detail["vars"])
        self.set_gauge("kernel.intern_table.apps", detail["apps"])
        arena = arena_stats()
        self.set_gauge("kernel.arena.terms", arena["terms"])
        self.set_gauge("kernel.arena.bytes", arena["bytes"])
        delta = delta_counters()
        self.set_gauge(
            "kernel.delta.reexplored_states",
            delta["reexplored_states"],
        )
        self.set_gauge(
            "kernel.delta.cached_transitions",
            delta["cached_transitions"],
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The JSON-serializable view: sorted counters and gauges."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The registry as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def __str__(self) -> str:
        lines = ["[metrics]"]
        for name, value in sorted(self.counters.items()):
            lines.append(f"  {name} = {value}")
        for name, value in sorted(self.gauges.items()):
            lines.append(f"  {name} = {value:g} (gauge)")
        return "\n".join(lines)
