"""Chunk executor with a deterministic merge order over pluggable
backends.

The executor runs a *chunk function* over a list of chunk arguments
and returns the per-chunk results **in argument order**, so callers
can merge by concatenation and reproduce their serial iteration
exactly.

*Where* the chunks run is delegated to an
:class:`~repro.parallel.backends.ExecutorBackend` — in-process
(``inline``), forked worker processes (``fork``, the default), or
remote ``repro worker`` processes over TCP (``socket``).  All
backends follow the same virtual-worker model: chunk ``i`` goes to
virtual worker ``i mod workers`` and each virtual worker starts from
its own unpickled copy of the shared *context* (specs, algebras,
state graphs), so both results **and** the per-chunk counter stats
are identical across backends for a given worker count.  See
:mod:`repro.parallel.backends` for the model and its two ambient
exceptions (``wall_time``, ``interned_terms``).

Where no pool can be opened (``fork`` unavailable on the platform,
process creation failed, or an unpicklable context under ``inline``)
the executor degrades to an in-process loop over the same chunks
against the live context — identical results, no parallelism — so
``workers=N`` is always safe to request.

Chunk functions must be module-level (they are sent to workers by
reference) and have the signature::

    def _my_chunk(context, arg) -> tuple[result, dict]:
        ...
        return result, {"items": n, "cache_hits": h,
                        "cache_misses": m, "rewrite_steps": r}

The counter dict may omit keys; missing counters default to zero.
When tracing is on, the counters land on the chunk's ``chunk`` span,
which :func:`repro.parallel.stats.parts_of` reads back as the chunk's
per-worker stats entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.obs.coverage import COV_STATE, capture_coverage
from repro.obs.tracer import OBS_STATE, Span, capture
from repro.parallel.backends import ExecutorBackend, resolve_backend

__all__ = ["ParallelExecutor", "ChunkOutcome", "run_chunked"]

#: The shared context slot worker processes inherit through fork.
_CONTEXT: Any = None

#: Sentinel: "read the module slot" (the fork/in-process paths).
_INHERITED = object()


def _get_context() -> Any:
    return _CONTEXT


@dataclass(frozen=True)
class ChunkOutcome:
    """What one chunk sends back besides its result.

    Attributes:
        worker: chunk index (0-based, in submission order).
        spans: serialized :class:`repro.obs.tracer.Span` trees the
            chunk recorded (empty unless tracing was enabled); the
            executor grafts them back into the parent's trace in
            chunk submission order.
        coverage: the chunk's serialized
            :class:`repro.obs.coverage.CoverageRecorder` payload
            (``None`` unless coverage recording was enabled); the
            executor folds it into the parent's recorder — coverage
            merging is commutative, so any merge order yields the
            same facts.
    """

    worker: int
    spans: tuple = ()
    coverage: dict | None = None


def _run_chunk(payload, context: Any = _INHERITED):
    """Worker-side trampoline: run the chunk under its capture scopes.

    ``context`` defaults to the module slot (inherited through fork or
    set by the executor's context manager); backends running several
    virtual workers in one process pass each worker's own context
    explicitly instead.

    When tracing is enabled (the flag is inherited through fork, or
    activated per request by the socket worker) the chunk runs under
    its own span buffer rooted at a ``chunk`` span carrying the chunk
    index as the ``worker`` attribute; the buffer travels back
    serialized on :attr:`ChunkOutcome.spans` and the chunk's counters
    are recorded on the chunk span — the only place they are kept.
    """
    fn, index, arg = payload
    chunk_context = _CONTEXT if context is _INHERITED else context
    spans: tuple = ()
    coverage_payload: dict | None = None
    # merge=False: the chunk's facts travel back on the outcome
    # and the parent merges them exactly once in _absorb — merging
    # here too would double-count under the in-process fallback,
    # where this trampoline runs in the parent process.
    with capture_coverage(merge=False) as chunk_cov:
        if OBS_STATE.enabled:
            with capture("chunk", worker=index) as chunk_tracer:
                result, counters = fn(chunk_context, arg)
            for root in chunk_tracer.roots:
                root.record(
                    {k: v for k, v in counters.items() if isinstance(v, int)}
                )
            spans = tuple(root.to_dict() for root in chunk_tracer.roots)
        else:
            result, counters = fn(chunk_context, arg)
    if COV_STATE.enabled:
        coverage_payload = chunk_cov.to_payload()
    return result, ChunkOutcome(index, spans, coverage_payload)


class ParallelExecutor:
    """A pool of virtual workers sharing one context.

    Args:
        workers: requested degree of parallelism; ``1`` (or less)
            means in-process execution with no pool.
        context: the shared read-only context chunk functions receive
            as their first argument.  Backends ship it to workers as a
            pickle bundle (one cold copy per virtual worker); the fork
            backend falls back to copy-on-write inheritance when it
            does not pickle.
        backend: an :class:`~repro.parallel.backends.ExecutorBackend`,
            a backend name, or ``None`` for the scope-active backend
            (see :func:`~repro.parallel.backends.use_backend`; the
            default is ``fork``).

    Use as a context manager::

        with ParallelExecutor(workers, context=algebra) as executor:
            results = executor.map(_snapshot_chunk, chunk_args)
        outcomes = executor.outcomes

    :meth:`map` may be called repeatedly (e.g. once per BFS level);
    the pool and the workers' warm caches persist across calls.  On
    exit the executor drops its context reference — a sweep must not
    pin a large spec or state graph in memory for the executor's
    lifetime.
    """

    def __init__(
        self,
        workers: int = 1,
        context: Any = None,
        backend: "ExecutorBackend | str | None" = None,
    ):
        self.workers = max(1, int(workers))
        self.context = context
        self.backend = backend
        #: Per-chunk :class:`ChunkOutcome`, in submission order across
        #: all :meth:`map` calls.
        self.outcomes: list[ChunkOutcome] = []
        self._pool = None
        self._saved_context: Any = None
        self._entered = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "ParallelExecutor":
        global _CONTEXT
        self._saved_context = _CONTEXT
        _CONTEXT = self.context
        self._entered = True
        if self.workers > 1:
            # The backend resolves at entry so a surrounding
            # use_backend() scope (the scheduler's) takes effect.
            self._pool = resolve_backend(self.backend).open_pool(
                self.workers, self.context
            )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _CONTEXT
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        _CONTEXT = self._saved_context
        self._saved_context = None
        # Drop the context reference: the executor object routinely
        # outlives its with-block (callers read outcomes off it),
        # and holding on would pin large specs/state graphs in parent
        # memory after the sweep.
        self.context = None
        self._entered = False

    # ------------------------------------------------------------------
    def map(self, fn: Callable, args: Sequence[Any]) -> list[Any]:
        """Run ``fn(context, arg)`` for every chunk argument.

        Returns the chunk results in ``args`` order (the property the
        deterministic mergers rely on) and appends one
        :class:`ChunkOutcome` per chunk to :attr:`outcomes`.
        """
        return self.map_async(fn, args).collect()

    def map_async(self, fn: Callable, args: Sequence[Any]) -> "PendingMap":
        """Submit chunks without blocking on their completion.

        The pipeline scheduler uses this to overlap a batch of
        independent serial checks with work the parent keeps running
        inline; call :meth:`PendingMap.collect` to block, absorb the
        per-chunk outcomes, and graft worker span buffers (still in
        submission order) under the *then-active* span.  With no pool
        (``workers=1`` or no backend pool available) the chunks run
        in-process at collect time instead — identical results, no
        overlap.
        """
        if not self._entered:
            raise RuntimeError(
                "ParallelExecutor.map used outside its context manager"
            )
        payloads = [(fn, index, arg) for index, arg in enumerate(args)]
        handle = None
        if self._pool is not None:
            handle = self._pool.submit(payloads)
        return PendingMap(self, payloads, handle)

    def _absorb(self, outcomes: list[tuple]) -> list[Any]:
        """Record chunk outcomes and graft span buffers, in chunk
        submission order (the deterministic-merge invariant)."""
        results = []
        graft = (
            OBS_STATE.tracer.graft
            if OBS_STATE.enabled and OBS_STATE.tracer is not None
            else None
        )
        recorder = (
            COV_STATE.recorder if COV_STATE.enabled else None
        )
        for result, outcome in outcomes:
            self.outcomes.append(outcome)
            results.append(result)
            if graft is not None:
                # Outcomes arrive in submission (chunk) order, so the
                # grafted trace is deterministic for any worker count.
                for span_dict in outcome.spans:
                    graft(Span.from_dict(span_dict))
            if recorder is not None and outcome.coverage is not None:
                recorder.merge_payload(outcome.coverage)
        return results


class PendingMap:
    """A submitted-but-not-collected :meth:`ParallelExecutor.map_async`
    batch.  :meth:`collect` must be called exactly once, before the
    executor's context manager exits."""

    __slots__ = ("_executor", "_payloads", "_handle", "_collected")

    def __init__(self, executor, payloads, handle):
        self._executor = executor
        self._payloads = payloads
        self._handle = handle
        self._collected = False

    def collect(self) -> list[Any]:
        """Block until every chunk finished; return results in
        submission order and absorb their outcomes."""
        if self._collected:
            raise RuntimeError("PendingMap.collect called twice")
        self._collected = True
        if self._handle is not None:
            outcomes = self._handle.wait()
        else:
            outcomes = [
                _run_chunk(payload) for payload in self._payloads
            ]
        return self._executor._absorb(outcomes)


def run_chunked(
    fn: Callable,
    context: Any,
    args: Sequence[Any],
    workers: int,
    backend: "ExecutorBackend | str | None" = None,
) -> tuple[list[Any], list[ChunkOutcome]]:
    """One-shot convenience: execute ``fn`` over ``args`` chunks.

    Returns ``(results in args order, per-chunk ChunkOutcome)``.
    ``backend=None`` dispatches through the scope-active backend, so
    deep callers (the bounded sweeps) need no signature changes when
    the scheduler selects one.
    """
    with ParallelExecutor(
        workers, context=context, backend=backend
    ) as executor:
        results = executor.map(fn, args)
    return results, executor.outcomes
