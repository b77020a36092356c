"""Verification statistics: a per-check view of the span tree.

Every check records its work on spans (:mod:`repro.obs.tracer`): a
serial pass records its counters — work items processed, rewrite-cache
hits and misses, rewrite (equation-firing) steps, compiled-dispatch
reuses, intern-table growth — on its own span, and a parallel pass's
chunks each record theirs on the ``chunk`` span the executor grafts
under it.  :func:`parts_of` folds such a span tree into one
:class:`VerificationStats` record per pass, :class:`stats_scope`
collects the parts of whatever runs inside a block, and
:meth:`repro.core.framework.DesignFramework.verify` combines the
per-check parts into the machine-readable bundle ``--stats`` and
``--stats-json`` print — the observable perf trajectory of the
verifier.  The span tree is the only place the counts live.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.logic.terms import intern_table_size
from repro.obs.tracer import OBS_STATE, Span, Tracer, activate

__all__ = [
    "VerificationStats",
    "PART_SPANS",
    "parts_of",
    "stats_scope",
    "engine_counters",
    "counter_delta",
]

#: The counter keys every chunk function reports, in the order a
#: per-worker entry lists them.
COUNTER_KEYS = (
    "items",
    "cache_hits",
    "cache_misses",
    "rewrite_steps",
    "dispatch_hits",
    "interned_terms",
)

_STANDARD = {key: key for key in COUNTER_KEYS}

#: The spans that are stats parts: span name -> (part label, the span
#: counter each of :data:`COUNTER_KEYS` is read from).  The grammar
#: recognizer counts under its own names; every other pass records a
#: :func:`counter_delta` on its span (serial) or on its chunks
#: (parallel).
PART_SPANS: dict[str, tuple[str, dict[str, str]]] = {
    "explore": ("explore", _STANDARD),
    "completeness.coverage": ("coverage", _STANDARD),
    "static": ("static", _STANDARD),
    "inclusion.reachable": ("reachable", _STANDARD),
    "inclusion.valid-enumeration": ("valid-enumeration", _STANDARD),
    "transitions": ("transitions", _STANDARD),
    "wgrammar.recognize": (
        "grammar",
        {
            "items": "wgrammar.steps",
            "cache_hits": "wgrammar.memo_hits",
            "cache_misses": "wgrammar.memo_entries",
        },
    ),
    "second-third.pairs": ("second-third", _STANDARD),
}


def engine_counters(*engines) -> dict[str, int]:
    """Snapshot the cache/rewrite counters of rewrite-engine-like
    objects (anything exposing ``cache_hits``/``cache_misses``/
    ``rewrite_steps``/``dispatch_hits``), summed.  ``None`` entries are
    skipped.  ``interned_terms`` is the size of the process-wide term
    intern table (a gauge, recorded once per snapshot, not per
    engine); :func:`counter_delta` turns a pair of snapshots into the
    table's growth over a chunk."""
    out = {
        "cache_hits": 0,
        "cache_misses": 0,
        "rewrite_steps": 0,
        "dispatch_hits": 0,
        "interned_terms": intern_table_size(),
    }
    for engine in engines:
        if engine is None:
            continue
        out["cache_hits"] += getattr(engine, "cache_hits", 0)
        out["cache_misses"] += getattr(engine, "cache_misses", 0)
        out["rewrite_steps"] += getattr(engine, "rewrite_steps", 0)
        out["dispatch_hits"] += getattr(engine, "dispatch_hits", 0)
    return out


def counter_delta(
    before: dict[str, int], after: dict[str, int], items: int = 0
) -> dict[str, int]:
    """The per-chunk counter report: ``after - before`` plus the item
    count.  For the ``interned_terms`` gauge the delta is the number of
    terms interned during the chunk (clamped at zero: weakly referenced
    terms may have been collected in the meantime)."""
    delta = {
        key: after.get(key, 0) - before.get(key, 0)
        for key in ("cache_hits", "cache_misses", "rewrite_steps", "dispatch_hits")
    }
    delta["interned_terms"] = max(
        0, after.get("interned_terms", 0) - before.get("interned_terms", 0)
    )
    delta["items"] = items
    return delta


@dataclass(frozen=True)
class VerificationStats:
    """Aggregated statistics of one verification pass.

    Attributes:
        label: which check the record describes (e.g. ``"explore"``,
            ``"coverage"``, ``"second-third"``, or the combined
            ``"verify"``).
        workers: worker count the pass was requested with.
        states_checked: total work items examined (the sum of the
            per-worker ``items``).
        cache_hits: total rewrite-cache hits.
        cache_misses: total rewrite-cache misses.
        rewrite_steps: total conditional-equation firings.
        dispatch_hits: total compiled-dispatch-table reuses.
        interned_terms: total intern-table growth (unique terms
            hash-consed during the pass, summed over workers).
        wall_time: elapsed seconds of the whole pass (not the sum of
            worker times — workers overlap).
        per_worker: one counter dict per worker chunk (``worker``,
            the :data:`COUNTER_KEYS`, ``wall_time``), in chunk
            submission order; a serial pass has the single entry
            ``worker=0``.
        parts: sub-records when this record combines several passes
            (the framework-level bundle keeps one part per check).
    """

    label: str
    workers: int = 1
    states_checked: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    rewrite_steps: int = 0
    dispatch_hits: int = 0
    interned_terms: int = 0
    wall_time: float = 0.0
    per_worker: tuple[dict, ...] = ()
    parts: tuple["VerificationStats", ...] = ()

    @property
    def cache_hit_rate(self) -> float:
        """Hits / (hits + misses), 0.0 when the cache was untouched."""
        touched = self.cache_hits + self.cache_misses
        return self.cache_hits / touched if touched else 0.0

    @classmethod
    def combine(
        cls, label: str, parts: list["VerificationStats"]
    ) -> "VerificationStats":
        """Combine several pass records (e.g. every check of a full
        framework verification) into one bundle."""
        return cls(
            label=label,
            workers=max((p.workers for p in parts), default=1),
            states_checked=sum(p.states_checked for p in parts),
            cache_hits=sum(p.cache_hits for p in parts),
            cache_misses=sum(p.cache_misses for p in parts),
            rewrite_steps=sum(p.rewrite_steps for p in parts),
            dispatch_hits=sum(p.dispatch_hits for p in parts),
            interned_terms=sum(p.interned_terms for p in parts),
            wall_time=sum(p.wall_time for p in parts),
            parts=tuple(parts),
        )

    def to_dict(self) -> dict:
        """A JSON-serializable view (the machine-readable emission)."""
        out = {
            "label": self.label,
            "workers": self.workers,
            "states_checked": self.states_checked,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 6),
            "rewrite_steps": self.rewrite_steps,
            "dispatch_hits": self.dispatch_hits,
            "interned_terms": self.interned_terms,
            "wall_time": self.wall_time,
        }
        if self.per_worker:
            out["per_worker"] = [dict(w) for w in self.per_worker]
        if self.parts:
            out["parts"] = [p.to_dict() for p in self.parts]
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "VerificationStats":
        """Rebuild a pass record serialized by :meth:`to_dict`.

        The inverse the result cache relies on: a cached check replays
        its stats record so warm and cold ``--stats-json`` emissions
        are byte-identical (``cache_hit_rate`` is derived, not
        stored).
        """
        return cls(
            label=payload.get("label", ""),
            workers=payload.get("workers", 1),
            states_checked=payload.get("states_checked", 0),
            cache_hits=payload.get("cache_hits", 0),
            cache_misses=payload.get("cache_misses", 0),
            rewrite_steps=payload.get("rewrite_steps", 0),
            dispatch_hits=payload.get("dispatch_hits", 0),
            interned_terms=payload.get("interned_terms", 0),
            wall_time=payload.get("wall_time", 0.0),
            per_worker=tuple(
                dict(worker) for worker in payload.get("per_worker", ())
            ),
            parts=tuple(
                cls.from_dict(part) for part in payload.get("parts", ())
            ),
        )

    def to_json(self, indent: int | None = None) -> str:
        """The record as a JSON document (:meth:`to_dict` serialized)."""
        return json.dumps(self.to_dict(), indent=indent)

    def __str__(self) -> str:
        return (
            f"[{self.label}] workers={self.workers} "
            f"states={self.states_checked} "
            f"cache={self.cache_hits}h/{self.cache_misses}m "
            f"({self.cache_hit_rate:.1%}) "
            f"rewrites={self.rewrite_steps} "
            f"dispatch={self.dispatch_hits} "
            f"interned={self.interned_terms} "
            f"wall={self.wall_time:.3f}s"
        )


# ---------------------------------------------------------------------
# the span-tree view
# ---------------------------------------------------------------------
def _entry(worker: int, span: Span, keys: dict[str, str]) -> dict:
    """One per-worker entry: ``span``'s counters under ``keys``."""
    entry = {"worker": worker}
    for key in COUNTER_KEYS:
        entry[key] = span.counters.get(keys.get(key), 0)
    entry["wall_time"] = span.duration
    return entry


def _chunks(span: Span):
    """The ``chunk`` spans of one parallel pass, in graft (= chunk
    submission) order, not descending into nested passes."""
    for child in span.children:
        if child.name == "chunk":
            yield child
        elif child.name not in PART_SPANS:
            yield from _chunks(child)


def _part(span: Span, label: str, keys: dict[str, str]) -> VerificationStats:
    workers = max(1, span.attrs.get("workers", 1))
    if workers > 1:
        per_worker = [
            _entry(chunk.attrs.get("worker", 0), chunk, _STANDARD)
            for chunk in _chunks(span)
        ]
    else:
        per_worker = [_entry(0, span, keys)]
    return VerificationStats(
        label=label,
        workers=workers,
        states_checked=sum(w["items"] for w in per_worker),
        cache_hits=sum(w["cache_hits"] for w in per_worker),
        cache_misses=sum(w["cache_misses"] for w in per_worker),
        rewrite_steps=sum(w["rewrite_steps"] for w in per_worker),
        dispatch_hits=sum(w["dispatch_hits"] for w in per_worker),
        interned_terms=sum(w["interned_terms"] for w in per_worker),
        wall_time=span.duration,
        per_worker=tuple(per_worker),
    )


def parts_of(spans) -> tuple[VerificationStats, ...]:
    """Fold span trees into one :class:`VerificationStats` per pass.

    Every span named in :data:`PART_SPANS` is one pass.  Its
    ``workers`` attribute decides where its counters are: on the span
    itself (serial, one ``worker=0`` entry) or on the grafted
    ``chunk`` spans below it (one entry each).  Passes are listed in
    completion order (post-order), so an exploration a check runs
    before its own sweep comes first.
    """
    parts: list[VerificationStats] = []

    def visit(span: Span) -> None:
        for child in span.children:
            visit(child)
        known = PART_SPANS.get(span.name)
        if known is not None:
            parts.append(_part(span, *known))

    for root in spans:
        visit(root)
    return tuple(parts)


class stats_scope:
    """Collect the stats parts of the work a block does::

        with stats_scope() as scope:
            graph = algebra.explore(workers=4)
        scope.parts   # (VerificationStats("explore", ...),)

    The block records into the active tracer when tracing is on, and
    under a throwaway activated one otherwise (worker processes opened
    inside the block then trace their chunks too).  On exit
    :attr:`parts` holds :func:`parts_of` the spans the block opened;
    :attr:`tracer` is the tracer they went to.
    """

    __slots__ = ("tracer", "parts", "_activation", "_siblings", "_mark")

    def __enter__(self) -> "stats_scope":
        self._activation = None
        if OBS_STATE.enabled:
            self.tracer = OBS_STATE.tracer
        else:
            self._activation = activate(Tracer())
            self.tracer = self._activation.__enter__()
        current = self.tracer.current
        self._siblings = (
            self.tracer.roots if current is None else current.children
        )
        self._mark = len(self._siblings)
        self.parts: tuple[VerificationStats, ...] = ()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._activation is not None:
            self._activation.__exit__(exc_type, exc, tb)
        self.parts = parts_of(self._siblings[self._mark:])
        return False
