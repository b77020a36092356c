"""Trace behaviour across the fork executor: buffers survive the
process boundary, merge deterministically, and cost nothing when off."""

import timeit

from repro.algebraic.algebra import TraceAlgebra
from repro.obs.tracer import OBS_STATE, activate, count, span
from repro.parallel.executor import run_chunked
from repro.parallel.partition import chunk_ranges


def _square_chunk(context, index_range):
    """Module-level chunk fn (workers receive it by reference)."""
    with span("square", n=len(index_range)):
        total = 0
        for index in index_range:
            total += context[index] ** 2
            count("squares")
    return total, {"items": len(index_range)}


def _run(workers, chunks=3, n=12):
    values = list(range(n))
    args = chunk_ranges(n, chunks)
    with activate() as tracer:
        results, stats = run_chunked(_square_chunk, values, args, workers)
    return tracer, results, stats


def _skeleton(tracer):
    """The trace without timings: (name, attrs, counters) preorder."""
    return [
        (recorded.name, tuple(sorted(recorded.attrs.items())),
         tuple(sorted(recorded.counters.items())))
        for recorded in tracer.walk()
    ]


class TestForkSurvival:
    def test_worker_buffers_come_back_across_fork(self):
        tracer, results, stats = _run(workers=3)
        assert results == [
            sum(i ** 2 for i in r) for r in chunk_ranges(12, 3)
        ]
        chunks = [s for s in tracer.walk() if s.name == "chunk"]
        assert [c.attrs["worker"] for c in chunks] == [0, 1, 2]
        for chunk in chunks:
            assert chunk.end is not None
            assert [child.name for child in chunk.children] == ["square"]
            assert chunk.children[0].counters["squares"] == 4
            # The chunk fn's counter dict is folded onto the chunk span.
            assert chunk.counters["items"] == 4

    def test_worker_stats_carry_serialized_spans(self):
        _, _, stats = _run(workers=2)
        for record in stats:
            assert record.spans, "chunk should ship its span buffer"
            assert record.spans[0]["name"] == "chunk"
            # the chunk's counters travel on its span, nowhere else
            assert record.spans[0]["counters"]["items"] == 4

    def test_no_spans_shipped_when_tracing_is_off(self):
        values = list(range(12))
        _, stats = run_chunked(
            _square_chunk, values, chunk_ranges(12, 3), 2
        )
        assert all(record.spans == () for record in stats)


class TestDeterministicMerge:
    def test_trace_skeleton_is_identical_for_any_worker_count(self):
        args = chunk_ranges(12, 3)
        skeletons = []
        for workers in (1, 2, 3):
            with activate() as tracer:
                run_chunked(
                    _square_chunk, list(range(12)), args, workers
                )
            skeletons.append(_skeleton(tracer))
        assert skeletons[0] == skeletons[1] == skeletons[2]

    def test_chunks_graft_under_the_parents_open_span(self):
        with activate() as tracer:
            with span("level", depth=1):
                run_chunked(
                    _square_chunk,
                    list(range(6)),
                    chunk_ranges(6, 2),
                    2,
                )
        (level,) = tracer.roots
        assert level.name == "level"
        assert [c.name for c in level.children] == ["chunk", "chunk"]
        assert [c.attrs["worker"] for c in level.children] == [0, 1]


class TestEngineIntegration:
    def test_parallel_explore_traces_levels_and_chunks(
        self, courses_algebra
    ):
        with activate() as tracer:
            graph = TraceAlgebra(courses_algebra.spec).explore(workers=2)
        assert len(graph.states) == 25
        names = [recorded.name for recorded in tracer.walk()]
        assert "explore" in names
        assert "explore.level" in names
        assert "chunk" in names
        (explore,) = tracer.roots
        totals = tracer.counter_totals()
        assert totals["explore.states"] == 25
        assert explore.name == "explore"

    def test_serial_and_parallel_explore_agree_on_counters(self):
        from repro.applications.courses import courses_algebraic

        spec = courses_algebraic()
        with activate() as serial_tracer:
            TraceAlgebra(spec).explore(workers=1)
        with activate() as parallel_tracer:
            TraceAlgebra(spec).explore(workers=2)
        serial = serial_tracer.counter_totals()
        parallel = parallel_tracer.counter_totals()
        assert serial["explore.states"] == parallel["explore.states"]
        assert (
            serial["explore.transitions"]
            == parallel["explore.transitions"]
        )


class TestDisabledOverheadSmoke:
    """Loose sanity bounds; the enforced <=5% gate lives in
    benchmarks/check_obs_overhead.py."""

    def test_disabled_span_call_is_cheap(self):
        assert not OBS_STATE.enabled
        per_call = min(
            timeit.repeat(
                "span('hot')",
                globals={"span": span},
                number=10_000,
                repeat=5,
            )
        ) / 10_000
        assert per_call < 5e-6  # five microseconds, very loose

    def test_disabled_guard_adds_little_to_a_tight_loop(self):
        state = OBS_STATE
        assert not state.enabled

        def plain(work=2_000):
            total = 0
            for index in range(work):
                total += index
            return total

        def guarded(work=2_000):
            total = 0
            for index in range(work):
                if state.enabled:
                    state.tracer.count("tick")
                total += index
            return total

        base = min(timeit.repeat(plain, number=50, repeat=5))
        with_guard = min(timeit.repeat(guarded, number=50, repeat=5))
        # The guard is one attribute load and branch per iteration of
        # a loop that does almost nothing else; on real workloads the
        # gate is 5%, here we only smoke-test the order of magnitude.
        assert with_guard < base * 3.0
