"""Parallel verification engine.

Every "result" of the paper is a bounded exhaustive sweep over
finitely generated state terms — sufficient completeness (Section
4.4a), static/transition consistency (Sections 4.4b/d), update
repertoire completeness (Section 4.4c), and the two refinement checks
(Sections 4.3 and 5.4).  All of them are embarrassingly parallel: the
term/state space partitions into independent chunks whose verdicts
merge deterministically.

This package provides the pieces the verification layers share:

* :mod:`repro.parallel.partition` — deterministic contiguous chunking
  of an index space across workers;
* :mod:`repro.parallel.executor` — the chunk executor with the
  deterministic submission-order merge (and a transparent in-process
  fallback);
* :mod:`repro.parallel.backends` — where chunks run: ``inline``
  (in-process virtual workers), ``fork`` (one forked process per
  virtual worker, the default), or ``socket`` (remote ``repro
  worker`` processes over TCP);
* :mod:`repro.parallel.wire` — the length-prefixed JSON frame
  protocol the socket backend and the worker speak;
* :mod:`repro.parallel.worker` — the ``repro worker`` TCP server;
* :mod:`repro.parallel.stats` — the :class:`VerificationStats` record
  (states checked, rewrite-cache hits/misses, rewrite steps, wall
  time, per-worker breakdown), folded from each check's span tree by
  :func:`~repro.parallel.stats.parts_of` and surfaced by
  :meth:`repro.core.framework.DesignFramework.verify`.

The contract every parallelized check honors: ``workers=1`` runs the
original serial code path, and ``workers=N`` produces a report equal
to the serial one — partitioning and merging never change a verdict,
a witness, or their order — on every backend.
"""

from repro.parallel.backends import (
    BACKEND_NAMES,
    ExecutorBackend,
    ExecutorBackendError,
    ForkBackend,
    InlineBackend,
    SocketBackend,
    make_backend,
    resolve_backend,
    use_backend,
)
from repro.parallel.executor import (
    ChunkOutcome,
    ParallelExecutor,
    run_chunked,
)
from repro.parallel.partition import chunk_ranges, chunk_sizes
from repro.parallel.stats import VerificationStats, parts_of, stats_scope

__all__ = [
    "ParallelExecutor",
    "run_chunked",
    "chunk_ranges",
    "chunk_sizes",
    "ChunkOutcome",
    "VerificationStats",
    "parts_of",
    "stats_scope",
    "ExecutorBackend",
    "ExecutorBackendError",
    "InlineBackend",
    "ForkBackend",
    "SocketBackend",
    "BACKEND_NAMES",
    "make_backend",
    "resolve_backend",
    "use_backend",
]
