"""Tests for the process-backed chunk executor.

The chunk functions live at module level: the executor sends them to
workers by reference, like the verification layers' own chunk
functions.
"""

import os

import pytest

from repro.obs.tracer import Tracer, activate
from repro.parallel import ParallelExecutor, run_chunked


def _square_chunk(context, arg):
    return arg * arg, {"items": 1}


def _context_chunk(context, arg):
    return (context["base"] + arg, os.getpid()), {"items": 1}


def _counting_chunk(context, indices):
    total = sum(indices)
    return total, {
        "items": len(indices),
        "cache_hits": total,
        "rewrite_steps": 2 * len(indices),
    }


class TestInline:
    def test_workers_1_runs_in_process(self):
        with ParallelExecutor(1, context=None) as executor:
            results = executor.map(_square_chunk, [3, 1, 2])
        assert results == [9, 1, 4]
        assert [w.worker for w in executor.outcomes] == [0, 1, 2]

    def test_map_outside_context_manager_rejected(self):
        executor = ParallelExecutor(1)
        with pytest.raises(RuntimeError):
            executor.map(_square_chunk, [1])


class TestForked:
    def test_results_preserve_argument_order(self):
        results, stats = run_chunked(
            _square_chunk, None, list(range(16)), workers=4
        )
        assert results == [i * i for i in range(16)]
        assert [w.worker for w in stats] == list(range(16))

    def test_context_inherited_without_pickling(self):
        # The context holds a lambda — unpicklable, so reaching the
        # workers proves fork inheritance, not argument pickling.
        context = {"base": 100, "unpicklable": lambda: None}
        results, _ = run_chunked(
            _context_chunk, context, [1, 2, 3], workers=2
        )
        values = [value for value, _pid in results]
        assert values == [101, 102, 103]

    def test_worker_stats_carry_chunk_counters(self):
        # The chunk counters travel on each chunk's span and are
        # grafted, in chunk order, under the parent's trace.
        chunks = [range(0, 3), range(3, 5)]
        with activate(Tracer()) as tracer:
            results, outcomes = run_chunked(
                _counting_chunk, None, chunks, workers=2
            )
        assert results == [3, 7]
        assert [o.worker for o in outcomes] == [0, 1]
        spans = [s for s in tracer.walk() if s.name == "chunk"]
        assert [s.attrs["worker"] for s in spans] == [0, 1]
        assert [s.counters["items"] for s in spans] == [3, 2]
        assert [s.counters["cache_hits"] for s in spans] == [3, 7]
        assert [s.counters["rewrite_steps"] for s in spans] == [6, 4]
        assert all(s.duration >= 0 for s in spans)

    def test_map_reusable_across_calls(self):
        with ParallelExecutor(2, context=None) as executor:
            first = executor.map(_square_chunk, [1, 2])
            second = executor.map(_square_chunk, [3])
        assert first == [1, 4]
        assert second == [9]
        assert len(executor.outcomes) == 3
