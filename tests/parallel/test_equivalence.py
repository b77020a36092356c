"""Serial-vs-parallel equivalence: every check must produce a
bit-identical report for any worker count (the contract the parallel
subsystem is built around), on both passing and failing inputs."""

import dataclasses

import pytest

from repro.algebraic.algebra import TraceAlgebra
from repro.algebraic.completeness import (
    check_coverage,
    check_sufficient_completeness,
)
from repro.algebraic.equations import ConditionalEquation
from repro.algebraic.signature import AlgebraicSignature
from repro.algebraic.spec import AlgebraicSpec
from repro.applications import courses
from repro.core.framework import DesignFramework
from repro.logic import formulas as fm
from repro.logic.sorts import STATE
from repro.logic.terms import Var
from repro.parallel import stats_scope
from repro.refinement.first_second import (
    check_refinement as check_first_second,
)
from repro.refinement.interpretation import Interpretation
from repro.refinement.second_third import (
    check_refinement as check_second_third,
)
from repro.rpr.parser import parse_schema

WORKERS = 4


def _algebra() -> TraceAlgebra:
    return TraceAlgebra(courses.courses_algebraic())


def _uncovered_spec() -> AlgebraicSpec:
    """A spec whose coverage check fails with many gaps (exercises the
    mid-stream uncovered cap in the parallel merger)."""
    signature = AlgebraicSignature()
    course = signature.add_parameter_sort("course")
    signature.add_parameter_values(course, ["c1", "c2"])
    signature.add_query("q", [course])
    signature.add_query("r", [course])
    signature.add_initial()
    signature.add_update("touch", [course])
    c = Var("c", course)
    u = Var("U", STATE)
    touched = signature.apply_update("touch", c, u)
    only_c1 = fm.Equals(c, signature.value(course, "c1"))
    equations = (
        ConditionalEquation(
            signature.apply_query("q", c, signature.initial_term()),
            signature.false(),
        ),
        ConditionalEquation(
            signature.apply_query("r", c, signature.initial_term()),
            signature.false(),
        ),
        ConditionalEquation(
            signature.apply_query("q", c, touched),
            signature.true(),
            only_c1,
        ),
        ConditionalEquation(
            signature.apply_query("r", c, touched),
            signature.false(),
        ),
    )
    return AlgebraicSpec(signature, equations)


class TestExploreEquivalence:
    def test_graph_identical_at_workers_4(self):
        serial = _algebra().explore()
        with stats_scope() as scope:
            parallel = _algebra().explore(workers=WORKERS)
        # Same snapshots in the same (BFS discovery) order, same
        # witness traces, same edges, same truncation verdict.
        assert list(parallel.states) == list(serial.states)
        assert parallel.states == serial.states
        assert parallel.transitions == serial.transitions
        assert parallel.initial == serial.initial
        assert parallel.truncated is serial.truncated
        [record] = scope.parts
        assert record.label == "explore"
        assert record.workers == WORKERS
        assert record.states_checked > 0

    def test_truncation_identical(self):
        serial = _algebra().explore(max_states=7)
        parallel = _algebra().explore(max_states=7, workers=WORKERS)
        assert serial.truncated and parallel.truncated
        assert list(parallel.states) == list(serial.states)
        assert parallel.transitions == serial.transitions

    def test_max_depth_identical(self):
        serial = _algebra().explore(max_depth=1)
        parallel = _algebra().explore(max_depth=1, workers=WORKERS)
        assert list(parallel.states) == list(serial.states)
        assert parallel.transitions == serial.transitions


class TestCompletenessEquivalence:
    def test_passing_spec(self):
        spec = courses.courses_algebraic()
        serial = check_sufficient_completeness(spec, depth=2)
        parallel = check_sufficient_completeness(
            spec, depth=2, workers=WORKERS
        )
        assert parallel == serial
        assert parallel.ok

    @pytest.mark.parametrize("depth", [1, 2])
    def test_failing_spec_hits_same_cap(self, depth):
        spec = _uncovered_spec()
        serial = check_coverage(spec, depth=depth)
        parallel = check_coverage(spec, depth=depth, workers=WORKERS)
        assert parallel == serial
        assert not parallel.ok
        assert parallel.uncovered == serial.uncovered
        assert parallel.traces_checked == serial.traces_checked


class TestRefinementEquivalence:
    @pytest.mark.slow
    def test_first_second_bundle_identical(self):
        info = courses.courses_information()
        carriers = courses.courses_information_carriers()
        serial = check_first_second(info, carriers, _algebra())
        with stats_scope() as scope:
            parallel = check_first_second(
                info, carriers, _algebra(), workers=WORKERS
            )
        assert parallel == serial
        assert parallel.ok
        labels = [record.label for record in scope.parts]
        assert "static" in labels
        assert "reachable" in labels
        assert "transitions" in labels

    def test_second_third_identical(self):
        spec = courses.courses_algebraic()
        schema = parse_schema(courses.courses_schema_source())
        serial = check_second_third(spec, schema)
        parallel = check_second_third(spec, schema, workers=WORKERS)
        assert parallel == serial
        assert parallel.ok
        assert parallel.states_checked == 25


class TestFrameworkEquivalence:
    @pytest.mark.slow
    def test_verify_report_identical_and_stats_attached(self):
        framework = DesignFramework.from_sources(
            information=courses.courses_information(),
            algebraic=courses.courses_algebraic(),
            schema_source=courses.courses_schema_source(),
            carriers=courses.courses_information_carriers(),
        )
        serial = framework.verify()
        parallel = framework.verify(workers=WORKERS)
        assert serial.stats is None  # stats are opt-in for serial runs
        assert parallel.stats is not None
        assert dataclasses.replace(parallel, stats=None) == serial
        labels = [part.label for part in parallel.stats.parts]
        assert labels == [
            "explore",
            "coverage",
            "static",
            "reachable",
            "valid-enumeration",
            "transitions",
            "grammar",
            "second-third",
        ]
        assert parallel.stats.workers == WORKERS

    def test_collect_stats_without_workers(self):
        framework = DesignFramework.from_sources(
            information=courses.courses_information(),
            algebraic=courses.courses_algebraic(),
            schema_source=courses.courses_schema_source(),
            carriers=courses.courses_information_carriers(),
        )
        report = framework.verify(collect_stats=True)
        assert report.stats is not None
        assert report.stats.workers == 1
        assert report.stats.states_checked > 0
