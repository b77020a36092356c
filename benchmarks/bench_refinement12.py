"""E5/E6/E7 — the 1st->2nd refinement checks (Sections 4.4b-d),
scaled over carrier sizes.

Expected shape: dominated by |V| (exponential in carrier product: the
all-structures enumeration) and |G| x update instances for the
transition check — the practical reason bounded-domain verification
uses small carriers.
"""

import pytest

from repro.algebraic.algebra import TraceAlgebra
from repro.applications.courses import (
    courses_algebraic,
    courses_information,
    courses_information_carriers,
    default_courses,
    default_students,
)
from repro.parallel import VerificationStats, stats_scope
from repro.refinement.first_second import (
    check_refinement,
    check_static_consistency,
    check_transition_consistency,
)
from repro.refinement.interpretation import Interpretation
from repro.refinement.reachability import compare_valid_reachable


def _setting(students, cs):
    info = courses_information()
    carriers = courses_information_carriers(
        default_students(students), default_courses(cs)
    )
    algebra = TraceAlgebra(
        courses_algebraic(default_students(students), default_courses(cs))
    )
    interpretation = Interpretation.homonym(info, algebra.signature)
    return info, carriers, algebra, interpretation


@pytest.mark.parametrize("students,cs", [(2, 2), (2, 3)])
def bench_state_space_exploration(benchmark, students, cs):
    """BFS over the observational state space (the G construction)."""
    _, _, algebra, _ = _setting(students, cs)
    graph = benchmark(algebra.explore)
    assert not graph.truncated


@pytest.mark.parametrize("students,cs", [(2, 2), (2, 3)])
def bench_e5_reachable_subset_valid(benchmark, students, cs):
    info, carriers, algebra, interpretation = _setting(students, cs)
    graph = algebra.explore()
    result = benchmark(
        check_static_consistency,
        info,
        carriers,
        algebra,
        interpretation,
        graph,
    )
    assert result.ok


@pytest.mark.parametrize("students,cs", [(2, 2), (2, 3)])
def bench_e6_valid_vs_reachable(benchmark, students, cs):
    """Includes the exponential all-structures enumeration of V."""
    info, carriers, algebra, interpretation = _setting(students, cs)
    graph = algebra.explore()
    result = benchmark(
        compare_valid_reachable,
        info,
        carriers,
        algebra,
        interpretation,
        graph,
    )
    assert result.ok


@pytest.mark.parametrize("students,cs", [(2, 2), (2, 3)])
def bench_e7_transition_consistency(benchmark, students, cs):
    info, carriers, algebra, interpretation = _setting(students, cs)
    graph = algebra.explore()
    result = benchmark(
        check_transition_consistency,
        info,
        carriers,
        algebra,
        interpretation,
        graph,
    )
    assert result.ok


def bench_full_section_44_bundle(benchmark):
    """The whole (a)-(d) plan on the paper's 2x2 example."""
    info, carriers, algebra, _ = _setting(2, 2)
    result = benchmark(check_refinement, info, carriers, algebra)
    assert result.ok


# ---------------------------------------------------------------------
# parallel scaling: the tentpole measurement
# ---------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2, 4])
def bench_parallel_exploration_2x3(benchmark, workers):
    """State-space exploration at the largest parameter point (2, 3),
    scaled over worker count.

    Each round starts from a fresh algebra (cold rewrite cache) so the
    worker counts compare like for like; the aggregated
    ``VerificationStats`` of the last round land in the benchmark's
    ``extra_info`` (machine-readable via ``--benchmark-json``).
    """
    students, cs = 2, 3
    collected = {}

    def setup():
        _, _, algebra, _ = _setting(students, cs)
        return (algebra,), {}

    def run(algebra):
        with stats_scope() as scope:
            graph = algebra.explore(workers=workers)
        collected["stats"] = VerificationStats.combine(
            "explore", scope.parts
        )
        return graph

    graph = benchmark.pedantic(run, setup=setup, rounds=2, iterations=1)
    assert not graph.truncated
    assert len(graph.states) == 125
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["verification_stats"] = (
        collected["stats"].to_dict()
    )


@pytest.mark.parametrize("workers", [1, 4])
def bench_parallel_section_44_bundle(benchmark, workers):
    """The whole (a)-(d) plan on the 2x2 example, serial vs 4 workers;
    the reports are asserted identical to the serial path."""
    collected = {}

    def setup():
        info, carriers, algebra, _ = _setting(2, 2)
        return (info, carriers, algebra), {}

    def run(info, carriers, algebra):
        with stats_scope() as scope:
            report = check_refinement(
                info, carriers, algebra, workers=workers
            )
        collected["stats"] = VerificationStats.combine(
            "first-second", scope.parts
        )
        return report

    result = benchmark.pedantic(run, setup=setup, rounds=2, iterations=1)
    assert result.ok
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["verification_stats"] = (
        collected["stats"].to_dict()
    )
