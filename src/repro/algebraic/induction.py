"""Structural induction over abstract states.

Paper, Section 4.1: finitely generated algebras let us "employ the
principle of structural induction (on terms) as a proof rule", and the
Section 4.4b proof applies it in a particular shape: to show every
reachable state is valid, "it suffices to show that V contains
initiate and is closed under all other update functions" — closure of
the *predicate*, quantified over arbitrary states satisfying it, not
merely over states already reached.

This module mechanizes exactly that proof rule.  Because every
Q-equation's right-hand side and condition refer to queries **at the
predecessor state only**, the successor snapshot is a function of the
current snapshot alone — so updates act on *abstract* states (snapshot
vectors), whether or not any trace realizes them.  An invariant
``P`` is proved by:

* **base**: the initial snapshot satisfies P;
* **step**: for every abstract snapshot satisfying P (enumerated over
  the full observation-value space) and every update instance, the
  abstract successor satisfies P.

A successful check is a genuine induction proof of "P holds in every
reachable state" — stronger evidence than reachability enumeration,
because the step is verified on all P-states, including unreachable
ones (if the step fails only on unreachable states, the invariant is
simply not inductive and must be strengthened, the classic
invariant-strengthening situation).

The step runs on packed value rows: each update instance is applied
through the packed explorer's compiled plans (the same O(delta)
programs exploration and the serving runtime use) and the invariant
is memoised per row, so a :class:`Snapshot` is built only to ask the
invariant about a row it has not seen and to report a counterexample.
:func:`prove_invariant_by_rewriting` — every successor cell rewritten
from an :class:`AbstractState` term — is the oracle: the differential
tests hold the two to identical reports, and :func:`prove_invariant`
falls back to it outside the packed fragment and while proof coverage
is recorded (coverage counts the rewrite engine's dispatches)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import SpecificationError
from repro.algebraic.algebra import Snapshot, TraceAlgebra
from repro.algebraic.rewriting import RewriteEngine
from repro.algebraic.spec import AlgebraicSpec
from repro.logic.sorts import BOOLEAN, STATE
from repro.logic.terms import App, Term, Var

__all__ = [
    "AbstractState",
    "abstract_successor",
    "all_snapshots",
    "make_abstract_engine",
    "InductionReport",
    "prove_invariant",
    "prove_invariant_by_rewriting",
]


@dataclass(frozen=True)
class AbstractState(Term):
    """A state-sorted term standing for "any state with this
    snapshot"; resolved by the rewrite engine's state oracle."""

    snapshot: Snapshot

    @property
    def sort(self):
        """The sort of the term."""
        return STATE

    def free_vars(self) -> frozenset[Var]:
        """The set of variables occurring in the term."""
        return frozenset()

    def subterms(self) -> Iterator[Term]:
        """Yield the term itself and every subterm, pre-order."""
        yield self

    def depth(self) -> int:
        """Height of the term tree."""
        return 1

    def size(self) -> int:
        """Total number of nodes in the term tree."""
        return 1

    def __str__(self) -> str:
        return f"<abstract {self.snapshot}>"


def _oracle(query: str, params: tuple, state_term: Term):
    if isinstance(state_term, AbstractState):
        return state_term.snapshot.value(query, tuple(params))
    return None


def make_abstract_engine(spec: AlgebraicSpec) -> RewriteEngine:
    """A rewrite engine that can evaluate queries on
    :class:`AbstractState` terms (snapshot-valued states)."""
    return RewriteEngine(spec, state_oracle=_oracle)


_engine = make_abstract_engine


def abstract_successor(
    spec: AlgebraicSpec,
    snapshot: Snapshot,
    update: str,
    params: tuple[str, ...],
    engine: RewriteEngine | None = None,
) -> Snapshot:
    """The snapshot after applying ``update(params)`` to *any* state
    whose snapshot is ``snapshot``.

    Well-defined because Q-equation right-hand sides and conditions
    only query the predecessor state (the structural-decrease property
    checked by :func:`repro.algebraic.completeness.check_termination`).
    """
    engine = engine or _engine(spec)
    signature = spec.signature
    symbol = signature.update(update)
    args = [
        signature.value(sort, value)
        for sort, value in zip(symbol.arg_sorts[:-1], params)
    ]
    successor_term = App(symbol, (*args, AbstractState(snapshot)))
    entries = []
    for query_symbol in signature.queries:
        domains = [
            signature.domain(sort)
            for sort in query_symbol.arg_sorts[:-1]
        ]
        for values in itertools.product(*domains):
            value_terms = [
                signature.value(sort, value)
                for sort, value in zip(
                    query_symbol.arg_sorts[:-1], values
                )
            ]
            observation = App(
                query_symbol, (*value_terms, successor_term)
            )
            entries.append(
                (
                    (query_symbol.name, values),
                    engine.evaluate(observation),
                )
            )
    return Snapshot(tuple(sorted(entries)))


def all_snapshots(spec: AlgebraicSpec) -> Iterator[Snapshot]:
    """Every abstract snapshot over the observation-value space.

    Boolean observations range over {False, True}; observations of a
    parameter result sort range over that sort's domain.  The count is
    exponential in the number of observations — intended for the small
    carriers of bounded verification.
    """
    keys, spaces = _observation_space(spec)
    for combination in itertools.product(*spaces):
        yield Snapshot(tuple(sorted(zip(keys, combination))))


def _observation_space(spec: AlgebraicSpec):
    """The observation keys, in signature order, and the value space
    of each — :func:`all_snapshots` enumerates their product."""
    signature = spec.signature
    keys: list[tuple[str, tuple[str, ...]]] = []
    spaces: list[tuple] = []
    for query_symbol in signature.queries:
        domains = [
            signature.domain(sort)
            for sort in query_symbol.arg_sorts[:-1]
        ]
        for values in itertools.product(*domains):
            keys.append((query_symbol.name, values))
            if query_symbol.result_sort == BOOLEAN:
                spaces.append((False, True))
            else:
                spaces.append(
                    tuple(signature.domain(query_symbol.result_sort))
                )
    return keys, spaces


@dataclass(frozen=True)
class InductionReport:
    """Outcome of an inductive invariant proof attempt.

    Attributes:
        ok: True iff base and step both hold — the invariant is
            *proved* for all reachable states.
        base_ok: the initial snapshot satisfies the invariant.
        step_ok: the invariant is closed under every update on every
            abstract P-state.
        states_examined: number of abstract P-states the step checked.
        counterexamples: (snapshot, update, params, successor) step
            failures (the snapshot may be unreachable; then the
            invariant is not inductive and needs strengthening).
    """

    ok: bool
    base_ok: bool
    step_ok: bool
    states_examined: int
    counterexamples: tuple[
        tuple[Snapshot, str, tuple[str, ...], Snapshot], ...
    ] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return (
                "invariant PROVED by structural induction "
                f"(step checked on {self.states_examined} abstract "
                "states)"
            )
        lines = ["induction FAILED:"]
        if not self.base_ok:
            lines.append("  base: the initial state violates the invariant")
        for snapshot, update, params, successor in (
            self.counterexamples[:5]
        ):
            lines.append(
                f"  step: {update}({', '.join(params)}) maps P-state "
                f"{snapshot} to non-P-state {successor}"
            )
        return "\n".join(lines)


def prove_invariant(
    spec: AlgebraicSpec,
    invariant: Callable[[Snapshot], bool],
    max_abstract_states: int = 1_000_000,
) -> InductionReport:
    """Prove ``invariant`` for all reachable states by structural
    induction on traces (the Section 4.4b proof rule).

    Args:
        spec: the algebraic specification (must be structurally
            terminating, so successors are snapshot-determined).
        invariant: predicate on snapshots.
        max_abstract_states: safety bound on the abstract state space.

    Raises:
        SpecificationError: if the abstract space exceeds the bound.
    """
    # Imported here: exploration imports the pipeline package, which
    # imports this module.
    from repro.algebraic.exploration import (
        PackedExplorer,
        PackedUnsupported,
    )
    from repro.obs.coverage import COV_STATE

    if not COV_STATE.enabled:
        try:
            return _prove_on_rows(
                PackedExplorer(TraceAlgebra(spec)),
                invariant,
                max_abstract_states,
            )
        except PackedUnsupported:
            pass
    return prove_invariant_by_rewriting(
        spec, invariant, max_abstract_states
    )


def _prove_on_rows(
    explorer,
    invariant: Callable[[Snapshot], bool],
    max_abstract_states: int,
) -> InductionReport:
    """The induction step over value rows, through compiled plans;
    visits states and instances in the oracle's order, so reports
    (counterexample order included) are identical.

    Raises:
        PackedUnsupported: when a plan finds no firing equation — the
            oracle then reports the specification error itself.
    """
    cells = explorer.cells
    # ``keys`` are the algebra's observations in signature order and
    # ``cells`` the same observations sorted: ``order`` maps one onto
    # the other.
    keys, spaces = _observation_space(explorer.algebra.spec)
    order = sorted(range(len(keys)), key=keys.__getitem__)

    def snapshot(row: tuple) -> Snapshot:
        return Snapshot(tuple(zip(cells, row)))

    verdicts: dict[tuple, bool] = {}

    def holds(row: tuple) -> bool:
        verdict = verdicts.get(row)
        if verdict is None:
            verdict = verdicts[row] = bool(invariant(snapshot(row)))
        return verdict

    base_ok = holds(explorer._initial_row())
    counterexamples = []
    examined = 0
    for index, combination in enumerate(itertools.product(*spaces)):
        if index >= max_abstract_states:
            raise SpecificationError(
                "abstract state space exceeds max_abstract_states; "
                "shrink the domains"
            )
        row = tuple(combination[i] for i in order)
        if not holds(row):
            continue
        examined += 1
        get = dict(zip(cells, row)).__getitem__
        for instance in explorer.instances:
            successor = explorer._apply(instance, row, get)
            if not holds(successor):
                update, params = instance[0], instance[1]
                counterexamples.append(
                    (snapshot(row), update, params, snapshot(successor))
                )
                if len(counterexamples) >= 10:
                    return InductionReport(
                        False,
                        base_ok,
                        False,
                        examined,
                        tuple(counterexamples),
                    )
    step_ok = not counterexamples
    return InductionReport(
        ok=base_ok and step_ok,
        base_ok=base_ok,
        step_ok=step_ok,
        states_examined=examined,
        counterexamples=tuple(counterexamples),
    )


def prove_invariant_by_rewriting(
    spec: AlgebraicSpec,
    invariant: Callable[[Snapshot], bool],
    max_abstract_states: int = 1_000_000,
) -> InductionReport:
    """:func:`prove_invariant` with every abstract successor rewritten
    by :func:`abstract_successor` — the oracle of the compiled step."""
    algebra = TraceAlgebra(spec)
    engine = _engine(spec)
    base_snapshot = algebra.snapshot(algebra.initial_trace())
    base_ok = bool(invariant(base_snapshot))

    counterexamples = []
    examined = 0
    updates = list(algebra.update_instances())
    for index, snapshot in enumerate(all_snapshots(spec)):
        if index >= max_abstract_states:
            raise SpecificationError(
                "abstract state space exceeds max_abstract_states; "
                "shrink the domains"
            )
        if not invariant(snapshot):
            continue
        examined += 1
        for update, params in updates:
            successor = abstract_successor(
                spec, snapshot, update, params, engine
            )
            if not invariant(successor):
                counterexamples.append(
                    (snapshot, update, params, successor)
                )
                if len(counterexamples) >= 10:
                    return InductionReport(
                        False,
                        base_ok,
                        False,
                        examined,
                        tuple(counterexamples),
                    )
    step_ok = not counterexamples
    return InductionReport(
        ok=base_ok and step_ok,
        base_ok=base_ok,
        step_ok=step_ok,
        states_examined=examined,
        counterexamples=tuple(counterexamples),
    )
