"""Tests for the 2nd->3rd refinement (Sections 5.3-5.4), including a
faulty schema that must be caught."""

import pytest

from repro.errors import RefinementError
from repro.applications.courses import (
    courses_algebraic,
    courses_schema_source,
)
from repro.refinement.second_third import (
    InducedStructure,
    RepresentationMap,
    check_agreement,
    check_refinement,
)
from repro.rpr.parser import parse_schema


@pytest.fixture(scope="module")
def spec():
    return courses_algebraic()


@pytest.fixture(scope="module")
def schema():
    return parse_schema(courses_schema_source())


BROKEN_CANCEL = courses_schema_source().replace(
    "if ~exists s: Students. TAKES(s, c)\n    then delete OFFERED(c)",
    "delete OFFERED(c)",
)

NONDETERMINISTIC = courses_schema_source().replace(
    "proc offer(c) =\n    insert OFFERED(c)",
    "proc offer(c) =\n    (insert OFFERED(c) | skip)",
)


class TestRepresentationMap:
    def test_homonym_builds(self, spec, schema):
        rep_map = RepresentationMap.homonym(spec.signature, schema)
        assert set(rep_map.query_map) == {"offered", "takes"}
        assert rep_map.proc_for("enroll") == "enroll"
        assert rep_map.initial_proc == "initiate"

    def test_missing_relation_rejected(self, spec):
        other = parse_schema(
            "schema OFFERED(Courses);"
            " proc initiate() = OFFERED := {} end-schema"
        )
        with pytest.raises(RefinementError):
            RepresentationMap.homonym(spec.signature, other)

    def test_uncovered_query_lookup(self, spec, schema):
        rep_map = RepresentationMap.homonym(spec.signature, schema)
        with pytest.raises(RefinementError):
            rep_map.realization("ghost")


class TestInducedStructure:
    def test_initial_state_is_empty(self, spec, schema):
        induced = InducedStructure(
            spec.signature,
            schema,
            RepresentationMap.homonym(spec.signature, schema),
        )
        state = induced.initial()
        assert state.relation("OFFERED") == frozenset()
        assert state.relation("TAKES") == frozenset()

    def test_state_of_trace_runs_procs(self, spec, schema):
        from repro.algebraic.algebra import TraceAlgebra

        algebra = TraceAlgebra(spec)
        induced = InducedStructure(
            spec.signature,
            schema,
            RepresentationMap.homonym(spec.signature, schema),
        )
        trace = algebra.apply(
            "enroll",
            "s1",
            "c1",
            trace=algebra.apply(
                "offer", "c1", trace=algebra.initial_trace()
            ),
        )
        state = induced.state_of_trace(trace)
        assert state.relation("TAKES") == {("s1", "c1")}

    def test_eval_query_via_k(self, spec, schema):
        induced = InducedStructure(
            spec.signature,
            schema,
            RepresentationMap.homonym(spec.signature, schema),
        )
        state = induced.initial()
        opened = induced.apply_update("offer", ("c1",), state)
        assert induced.eval_query("offered", ("c1",), opened) is True
        assert induced.eval_query("offered", ("c2",), opened) is False

    def test_reachable_states_count(self, spec, schema):
        induced = InducedStructure(
            spec.signature,
            schema,
            RepresentationMap.homonym(spec.signature, schema),
        )
        assert len(induced.reachable_states()) == 25

    def test_nondeterministic_schema_rejected(self, spec):
        bad = parse_schema(NONDETERMINISTIC)
        with pytest.raises(RefinementError, match="deterministic"):
            InducedStructure(
                spec.signature,
                bad,
                RepresentationMap.homonym(spec.signature, bad),
            )


class TestRefinementCheck:
    def test_paper_schema_refines(self, spec, schema):
        report = check_refinement(spec, schema)
        assert report.ok
        assert report.states_checked == 25
        assert "correctly refines" in str(report)

    def test_broken_cancel_schema_caught(self, spec):
        bad = parse_schema(BROKEN_CANCEL)
        report = check_refinement(spec, bad)
        assert not report.ok
        assert report.failures
        labels = {f.equation.label for f in report.failures}
        # The violated equations are cancel's (6a in the paper).
        assert any("eq6" in label for label in labels)
        assert "does NOT refine" in str(report)

    def test_agreement_on_paper_schema(self, spec, schema):
        from repro.algebraic.algebra import TraceAlgebra

        report = check_agreement(TraceAlgebra(spec), schema, depth=2)
        assert report.ok

    @pytest.mark.slow
    def test_agreement_catches_broken_schema(self, spec):
        from repro.algebraic.algebra import TraceAlgebra

        bad = parse_schema(BROKEN_CANCEL)
        # Exposing the fault needs offer -> enroll -> cancel: depth 3.
        report = check_agreement(
            TraceAlgebra(spec), bad, depth=3, max_traces=6_000
        )
        assert not report.ok


def _interpretive_check(spec, schema, rep_map=None):
    """The equation check on the interpreters — every instance walks
    its terms through ``holds``/``eval_term`` and every update runs the
    RPR procedure — the oracle of the compiled check."""
    import itertools

    from repro.logic.sorts import STATE
    from repro.refinement.second_third import (
        EquationFailure,
        SecondToThirdReport,
    )
    from repro.rpr.semantics import run_proc

    rep_map = rep_map or RepresentationMap.homonym(spec.signature, schema)
    induced = InducedStructure(spec.signature, schema, rep_map)
    states = induced.reachable_states()

    def apply_update(update, params, state):
        (successor,) = run_proc(
            schema, rep_map.proc_for(update), params, state,
            induced.domains,
        )
        return successor

    induced.apply_update = apply_update
    failures, instances = [], 0
    for equation in spec.equations:
        variables = sorted(
            equation.lhs.free_vars()
            | (equation.condition.free_vars() if equation.condition
               else frozenset()),
            key=lambda v: v.name,
        )
        state_vars = [v for v in variables if v.sort == STATE]
        params = [v for v in variables if v.sort != STATE]
        spaces = [spec.signature.domain(v.sort) for v in params]
        for state in states:
            for values in itertools.product(*spaces):
                valuation = dict(zip(params, values))
                if state_vars:
                    valuation[state_vars[0]] = state
                if equation.condition is not None and not induced.holds(
                    equation.condition, valuation
                ):
                    continue
                instances += 1
                lhs = induced.eval_term(equation.lhs, valuation)
                rhs = induced.eval_term(equation.rhs, valuation)
                if lhs != rhs:
                    failures.append(EquationFailure(
                        equation, state,
                        tuple((v.name, x) for v, x in zip(params, values)),
                        lhs, rhs,
                    ))
                    if len(failures) == 20:
                        return SecondToThirdReport(
                            False, len(states), instances, tuple(failures)
                        )
    return SecondToThirdReport(
        not failures, len(states), instances, tuple(failures)
    )


class TestCompiledAgainstInterpreters:
    """The compiled equation check equals the interpretive one."""

    @pytest.mark.parametrize(
        "name",
        [
            "courses",
            "library",
            "bank",
            pytest.param("projects", marks=pytest.mark.slow),
        ],
    )
    def test_shipped_applications(self, name):
        from repro.cli import APPLICATIONS

        framework = APPLICATIONS[name]()
        args = (
            framework.algebraic,
            framework.schema,
            framework.representation,
        )
        compiled = check_refinement(*args)
        oracle = _interpretive_check(*args)
        assert compiled == oracle and str(compiled) == str(oracle)

    def test_broken_schema(self, spec):
        bad = parse_schema(BROKEN_CANCEL)
        compiled = check_refinement(spec, bad)
        assert not compiled.ok
        assert compiled == _interpretive_check(spec, bad)

    def test_successor_table_holds_the_procedure_results(
        self, spec, schema
    ):
        from repro.rpr.semantics import run_proc

        induced = InducedStructure(
            spec.signature,
            schema,
            RepresentationMap.homonym(spec.signature, schema),
        )
        states = induced.reachable_states()
        # initiate plus each of the 16 update instances (2 offer, 2
        # cancel, 4 enroll, 8 transfer) at every reachable state.
        assert len(induced._successors) == 1 + 16 * len(states)
        for (proc, params, state), successor in induced._successors.items():
            assert run_proc(
                schema, proc, params, state, induced.domains
            ) == {successor}

    def test_successor_table_reaches_worker_chunks(
        self, spec, schema, monkeypatch
    ):
        import pickle

        from repro.parallel.backends import use_backend
        from repro.refinement import second_third

        induced = InducedStructure(
            spec.signature,
            schema,
            RepresentationMap.homonym(spec.signature, schema),
        )
        induced.reachable_states()
        induced.compile_equation(spec.equations[0])
        copy = pickle.loads(pickle.dumps(induced))
        assert copy._successors == induced._successors
        assert copy._compiled == {}

        calls = []
        real = second_third.run_proc

        def counting(*args):
            calls.append(args[1:3])
            return real(*args)

        monkeypatch.setattr(second_third, "run_proc", counting)
        with use_backend("inline"):
            report = check_refinement(spec, schema, workers=2)
        assert report.ok
        # Only the reachability BFS ran procedures; the chunks, on
        # their unpickled copies, read every update from the table.
        assert len(calls) == 1 + 16 * report.states_checked
