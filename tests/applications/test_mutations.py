"""Mutation testing of the methodology itself.

A verification framework is only as good as the faults it cannot miss.
Here every one of the registrar's sixteen Q-equations is mutated by
negating its right-hand side, and the 2nd->3rd refinement check must
refute *every* mutant against the (correct) RPR schema — i.e. the
check's equation coverage has no blind spots at the granularity of
whole equations.
"""

import pytest

from repro.algebraic.spec import AlgebraicSpec
from repro.algebraic.equations import ConditionalEquation
from repro.applications.courses import (
    courses_algebraic,
    courses_schema_source,
)
from repro.refinement.second_third import check_refinement
from repro.rpr.parser import parse_schema


@pytest.fixture(scope="module")
def schema():
    return parse_schema(courses_schema_source())


def _mutants():
    spec = courses_algebraic()
    signature = spec.signature
    for index, victim in enumerate(spec.equations):
        mutated = ConditionalEquation(
            victim.lhs,
            signature.not_(victim.rhs),
            victim.condition,
            f"{victim.label}-negated",
        )
        equations = list(spec.equations)
        equations[index] = mutated
        yield victim.label, AlgebraicSpec(
            signature, tuple(equations), name=f"mutant {victim.label}"
        )


MUTANTS = list(_mutants())


@pytest.mark.parametrize(
    "label,mutant", MUTANTS, ids=[label for label, _ in MUTANTS]
)
def test_every_rhs_negation_is_refuted(label, mutant, schema):
    report = check_refinement(mutant, schema)
    assert not report.ok, (
        f"mutant {label} survived the refinement check"
    )
    # The falsified equation is the mutated one (or an equation whose
    # evaluation it feeds; at minimum something failed).
    assert report.failures


def test_unmutated_baseline_passes(schema):
    report = check_refinement(courses_algebraic(), schema)
    assert report.ok


@pytest.mark.parametrize(
    "label,mutant", MUTANTS, ids=[label for label, _ in MUTANTS]
)
def test_reports_identical_across_worker_counts(label, mutant, schema):
    """Two workers replay the serial failure order, the early exit
    after twenty failures and its instance count exactly; the
    compiled check also agrees with the interpreters."""
    from tests.refinement.test_second_third import _interpretive_check

    serial = check_refinement(mutant, schema)
    assert check_refinement(mutant, schema, workers=2) == serial
    assert _interpretive_check(mutant, schema) == serial


def test_some_mutant_reaches_the_failure_cap(schema):
    capped = [
        label
        for label, mutant in MUTANTS
        if len(check_refinement(mutant, schema).failures) == 20
    ]
    assert capped
