"""Tests for structural induction over abstract states — the paper's
Section 4.4b proof rule, mechanized."""

import pytest

from repro.errors import SpecificationError
from repro.algebraic.algebra import Snapshot, TraceAlgebra
from repro.algebraic.induction import (
    AbstractState,
    abstract_successor,
    all_snapshots,
    make_abstract_engine,
    prove_invariant,
)
from repro.applications.bank import bank_algebraic
from repro.applications.courses import courses_algebraic


@pytest.fixture(scope="module")
def spec():
    return courses_algebraic()


def _static_ok(snapshot: Snapshot) -> bool:
    offered = snapshot.relation("offered")
    return all(
        (course,) in offered
        for _, course in snapshot.relation("takes")
    )


class TestAbstractStates:
    def test_abstract_space_size(self, spec):
        # 6 Boolean observations -> 2^6 abstract snapshots.
        assert sum(1 for _ in all_snapshots(spec)) == 64

    def test_abstract_space_with_valued_queries(self):
        # bank: 2 Boolean (open) x 2 money-valued (balance, |money|=4).
        assert sum(1 for _ in all_snapshots(bank_algebraic())) == 64

    def test_oracle_engine_answers_from_snapshot(self, spec):
        algebra = TraceAlgebra(spec)
        trace = algebra.apply(
            "offer", "c1", trace=algebra.initial_trace()
        )
        snapshot = algebra.snapshot(trace)
        engine = make_abstract_engine(spec)
        signature = spec.signature
        course = signature.logic.sort("course")
        term = signature.apply_query(
            "offered",
            signature.value(course, "c1"),
            AbstractState(snapshot),
        )
        assert engine.evaluate(term) is True


class TestAbstractSuccessor:
    def test_matches_concrete_successor_on_reachable_states(self, spec):
        algebra = TraceAlgebra(spec)
        graph = algebra.explore()
        for snapshot, witness in list(graph.states.items())[:8]:
            for update, params in list(algebra.update_instances())[:6]:
                abstract = abstract_successor(
                    spec, snapshot, update, params
                )
                concrete = algebra.snapshot(
                    algebra.apply(update, *params, trace=witness)
                )
                assert abstract == concrete

    def test_works_on_unreachable_states(self, spec):
        # takes(s1,c1) without offered(c1): unreachable, but the
        # abstract successor is still defined by the equations.
        base = {key: False for key, _ in next(
            iter(all_snapshots(spec))
        ).entries}
        base[("takes", ("s1", "c1"))] = True
        snapshot = Snapshot(tuple(sorted(base.items())))
        successor = abstract_successor(spec, snapshot, "offer", ("c1",))
        assert successor.value("offered", ("c1",)) is True
        assert successor.value("takes", ("s1", "c1")) is True


class TestProveInvariant:
    def test_static_constraint_proved(self, spec):
        report = prove_invariant(spec, _static_ok)
        assert report.ok
        assert report.base_ok and report.step_ok
        # The step quantified over exactly the 25 V-states.
        assert report.states_examined == 25
        assert "PROVED" in str(report)

    def test_false_invariant_fails_with_witnesses(self, spec):
        report = prove_invariant(
            spec,
            lambda s: ("c1",) not in s.relation("offered"),
        )
        assert not report.ok
        assert report.base_ok  # initially nothing is offered
        assert report.counterexamples
        snapshot, update, params, successor = report.counterexamples[0]
        assert update == "offer" and params == ("c1",)
        assert "FAILED" in str(report)

    def test_base_violation_detected(self, spec):
        report = prove_invariant(
            spec, lambda s: bool(s.relation("offered"))
        )
        assert not report.base_ok
        assert not report.ok

    def test_state_bound_enforced(self, spec):
        with pytest.raises(SpecificationError):
            prove_invariant(spec, _static_ok, max_abstract_states=3)


class TestProveStaticConsistency:
    def test_courses(self):
        from repro.applications.courses import (
            courses_information,
            courses_information_carriers,
        )
        from repro.refinement.first_second import (
            prove_static_consistency,
        )

        report = prove_static_consistency(
            courses_information(),
            courses_information_carriers(),
            courses_algebraic(),
        )
        assert report.ok
        assert report.states_examined == 25

    def test_faulty_cancel_caught_inductively(self):
        from repro.applications.courses import (
            courses_information,
            courses_information_carriers,
        )
        from repro.refinement.first_second import (
            prove_static_consistency,
        )

        report = prove_static_consistency(
            courses_information(),
            courses_information_carriers(),
            _faulty_cancel_spec(),
        )
        assert not report.ok
        assert report.counterexamples


def _faulty_cancel_spec():
    """The registrar with ``cancel``'s precondition dropped: cancelling
    a course with enrolled students breaks the static constraint."""
    from repro.applications.courses import (
        courses_descriptions,
        courses_signature,
    )
    from repro.algebraic.description import (
        StructuredDescription,
        initial_equations,
        synthesize_equations,
    )
    from repro.algebraic.spec import AlgebraicSpec

    signature = courses_signature()
    descriptions = []
    for description in courses_descriptions(signature):
        if description.update == "cancel":
            description = StructuredDescription(
                update="cancel",
                params=description.params,
                precondition=None,
                effects=description.effects,
            )
        descriptions.append(description)
    equations = initial_equations(signature) + synthesize_equations(
        signature, descriptions
    )
    return AlgebraicSpec(signature, tuple(equations))

def _oracle_static_consistency(information, carriers, spec, interpretation):
    """Today's interpretive proof: the invariant decided by
    ``satisfies`` over the structure of each snapshot, every abstract
    successor rewritten."""
    from repro.algebraic.induction import prove_invariant_by_rewriting
    from repro.refinement.first_second import satisfaction_invariant
    from repro.refinement.interpretation import Interpretation

    interpretation = interpretation or Interpretation.homonym(
        information, spec.signature
    )
    return prove_invariant_by_rewriting(
        spec,
        satisfaction_invariant(information, carriers, spec, interpretation),
    )


def _assert_compiled_matches_oracle(
    monkeypatch, information, carriers, spec, interpretation=None
):
    from repro.algebraic import induction
    from repro.refinement.first_second import prove_static_consistency

    oracle = _oracle_static_consistency(
        information, carriers, spec, interpretation
    )

    def rewriting_is_oracle_only(*args, **kwargs):
        raise AssertionError("the compiled proof rewrote a successor")

    with monkeypatch.context() as patch:
        patch.setattr(
            induction, "abstract_successor", rewriting_is_oracle_only
        )
        compiled = prove_static_consistency(
            information, carriers, spec, interpretation
        )
    assert compiled == oracle
    assert str(compiled) == str(oracle)
    return compiled


class TestCompiledAgainstOracle:
    """The value-row proof with the guard-compiled invariant equals
    the interpretive proof: same verdict, same counterexamples, same
    order."""

    @pytest.mark.parametrize(
        "name",
        [
            "courses",
            "library",
            "bank",
            pytest.param("projects", marks=pytest.mark.slow),
        ],
    )
    def test_shipped_applications(self, name, monkeypatch):
        from repro.cli import APPLICATIONS

        framework = APPLICATIONS[name]()
        report = _assert_compiled_matches_oracle(
            monkeypatch,
            framework.information,
            framework.carriers,
            framework.algebraic,
            framework.interpretation,
        )
        assert report.ok

    def test_every_update_instance_is_checked(self):
        # With P = "the state is X" the step fails exactly on the
        # instances that move X; the bank has 8 instances, under the
        # cap of 10, so each report lists all of them.
        from repro.algebraic.induction import prove_invariant_by_rewriting

        spec = bank_algebraic()
        for target in all_snapshots(spec):

            def invariant(snapshot, target=target):
                return snapshot == target

            assert prove_invariant(
                spec, invariant
            ) == prove_invariant_by_rewriting(spec, invariant)

    def test_faulty_cancel(self, monkeypatch):
        from repro.applications.courses import (
            courses_information,
            courses_information_carriers,
        )

        report = _assert_compiled_matches_oracle(
            monkeypatch,
            courses_information(),
            courses_information_carriers(),
            _faulty_cancel_spec(),
        )
        assert not report.ok and report.counterexamples

    @pytest.mark.parametrize(
        "app,static",
        [
            ("courses", "forall s:student, c:course. ~takes(s, c)"),
            (
                "courses",
                "forall c:course. offered(c) ->"
                " exists s:student. takes(s, c)",
            ),
            (
                "courses",
                "~exists s:student, c:course. takes(s, c) & offered(c)",
            ),
            ("bank", "forall a:account. open(a) -> balance(a, m0)"),
            ("bank", "forall a:account. ~open(a)"),
        ],
    )
    def test_seeded_static_constraint_mutants(
        self, app, static, monkeypatch
    ):
        from repro.cli import APPLICATIONS
        from repro.information.spec import InformationSpec
        from repro.logic.parser import parse_formula

        framework = APPLICATIONS[app]()
        information = framework.information
        mutant = InformationSpec(
            information.signature,
            (
                parse_formula(static, information.signature),
                *information.transition_constraints,
            ),
            name=f"{information.name} (mutant)",
        )
        report = _assert_compiled_matches_oracle(
            monkeypatch,
            mutant,
            framework.carriers,
            framework.algebraic,
            framework.interpretation,
        )
        assert not report.ok and report.counterexamples
