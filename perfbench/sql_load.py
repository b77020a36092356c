"""The ``sql`` workload: the seeded stream of the ``serve`` workload run
in process and single-threaded through the level-3 realization,
:class:`~repro.relational.backend.RelationalDatabase` over the
64-account bank on in-memory SQLite with the admission guards stored.

It loads lowering, the precondition guard queries and the two-phase
transaction programs, and bypasses the server and the journal.  Every
result, the final state, the stored-guard audit and ``db.stats`` are
compared with the in-process :class:`~stream.Reference` replay.
"""

from __future__ import annotations

import json
import os
import time

from common import OUT, HostSpeed, latency_metrics, median, print_ledger
from stream import Generator, Reference, bank_design, warmup

SETUP_SAMPLES = 5
SLICES = 80
OPS_PER_SECOND = 20000
TRACED_SHARE = 4


def build_database():
    """Lower the bank onto a fresh in-memory SQLite database, with the
    guard's decision tables stored, and lower every update instance."""
    from repro.algebraic.algebra import TraceAlgebra
    from repro.relational import RelationalDatabase, SQLiteBackend
    from repro.runtime.guards import AdmissionGuard

    framework, descriptions = bank_design()
    guard = AdmissionGuard(
        framework.information,
        framework.algebraic,
        framework.carriers,
        framework.interpretation,
    )
    db = RelationalDatabase(
        framework.algebraic,
        SQLiteBackend(),
        descriptions=descriptions,
        guard=guard,
    )
    for update, params in TraceAlgebra(framework.algebraic).update_instances():
        db.program(update, params)
    return db


def _setup_sample() -> float:
    started = time.perf_counter()
    db = build_database()
    elapsed = time.perf_counter() - started
    db.close()
    return elapsed


def drive(db, ops):
    """Run ``ops``; returns (results, per-op ns, wall ns)."""
    apply = db.apply
    query = db.query
    clock = time.perf_counter_ns
    results = [None] * len(ops)
    times = [0] * len(ops)
    began = clock()
    for index, (is_update, name, account) in enumerate(ops):
        started = clock()
        if is_update:
            results[index] = apply(name, account)
        else:
            results[index] = query(name, account)
        times[index] = clock() - started
    return results, times, clock() - began


def expected_statements(db, ops, expected) -> int:
    """SQL statements the lowered programs issue for the updates of
    ``ops``: the precondition query, then for a commit BEGIN, stages,
    checks, applies, cleanups and COMMIT."""
    total = 0
    for (is_update, name, account), want in zip(ops, expected):
        if not is_update:
            continue
        program = db.program(name, (account,))
        total += program.precondition_sql is not None
        if want[0]:
            total += 2 + sum(
                map(len, (program.stages, program.checks,
                          program.applies, program.cleanups))
            )
    return total


class _Run:
    def __init__(self, seed: int, seconds: int, tally, share: int = 1):
        self.tally = tally
        self.warm = warmup()
        self.ops = Generator(seed).ops(OPS_PER_SECOND * seconds // share)
        reference = Reference()
        self.expected_warm = reference.replay(self.warm)
        self.expected = reference.replay(self.ops)
        self.cells = reference.cells()
        self.counts = reference.counts()
        self.seq = reference.seq

    def check(self, phase, ops, results, expected) -> None:
        for op, got, want in zip(ops, results, expected):
            if op[0]:
                want = want[0]
            self.tally.check(got == want, f"{phase} {op}: {got!r} != {want!r}")

    def warm_up(self, db) -> None:
        results, _, _ = drive(db, self.warm)
        self.check("warm-up", self.warm, results, self.expected_warm)

    def verify(self, db, results) -> None:
        """Check the stream's results, the final state, the stored
        guard audit and the exact ``db.stats`` counts."""
        self.check("stream", self.ops, results, self.expected)
        tally = self.tally
        tally.check(
            dict(db.snapshot().entries) == self.cells,
            "final SQL state differs from the reference replay",
        )
        audit = db.check_constraints()
        tally.check(not audit, f"stored guard audit failed: {audit[:3]}")
        stats = dict(db.stats)
        tally.expect_equal("db.stats", stats, {
            "programs_compiled": 256,
            "transactions": self.seq,
            "noops_precondition": self.counts["rejected"],
            "queries": self.counts["queries"],
        })
        print(f"sql: {len(self.ops)} requests after the warm-up")
        print("counts sql:", json.dumps(stats, sort_keys=True))


def run(seed: int, seconds: int, trace: bool, tally) -> dict:
    if trace:
        return _run_traced(seed, seconds, tally)
    work = _Run(seed, seconds, tally)
    host = HostSpeed(sqlite=True)
    host.sample()
    started = time.perf_counter()
    db = build_database()
    setups = [(time.perf_counter() - started) * host.slice_done()]
    results, times, wall = [], [], 0.0
    try:
        work.warm_up(db)
        host.sample()
        # The stream runs in slices between calibration batches, with
        # a set-up sample every few slices, so every kind of sample
        # spreads over the whole run; each slice is scaled to the
        # reference host speed (see common.HostSpeed).
        size = -(-len(work.ops) // SLICES)
        for index, first in enumerate(range(0, len(work.ops), size)):
            if index and index % (SLICES // SETUP_SAMPLES) == 0:
                setups.append(_setup_sample() * host.slice_done())
            got, took, elapsed = drive(db, work.ops[first:first + size])
            scale = host.slice_done()
            results += got
            times += [ns * scale for ns in took]
            wall += elapsed * scale
        work.verify(db, results)
    finally:
        db.close()
        host.close()
    print(host.describe())
    return {
        "setup_s": (median(setups), "s"),
        **latency_metrics(times, work.ops),
        "throughput_ops_s": (len(work.ops) / (wall / 1e9), "1/s"),
    }


def _run_traced(seed: int, seconds: int, tally) -> dict:
    from repro.relational import RelationalDatabase, SQLiteBackend
    from repro.relational.lowering import TransactionLowerer
    from repro.runtime.guards import AdmissionGuard
    import spans

    # The overhead compares the traced stream with an untraced one,
    # each scaled to the reference host speed by the batches around it.
    host = HostSpeed(sqlite=True)
    work = _Run(seed, seconds, tally, TRACED_SHARE)
    db = build_database()
    work.warm_up(db)
    host.sample()
    results, _, untraced_wall = drive(db, work.ops)
    untraced_wall *= host.slice_done()
    work.verify(db, results)
    db.close()

    wrappers = spans.Wrappers()
    wrap = wrappers.wrap
    wrap(RelationalDatabase, "apply", "relational.backend.apply")
    wrap(RelationalDatabase, "query", "relational.backend.query")
    for attr in ("execute", "query_value", "query_rows", "begin",
                 "commit", "rollback"):
        wrap(SQLiteBackend, attr, "relational.sqlite")
    wrap(TransactionLowerer, "lower", "relational.lowering")
    wrap(AdmissionGuard, "__init__", "runtime.guards.build")
    roots = wrappers.roots
    try:
        db = build_database()
        work.warm_up(db)
        lo = len(roots)
        host.sample()
        results, _, wall = drive(db, work.ops)
        traced_scale = host.slice_done()
        stream = roots[lo:]
        work.verify(db, results)
        expected = expected_statements(db, work.ops, work.expected)
        transactions = db.stats["transactions"]
        noops = db.stats["noops_precondition"]
        db.close()
    finally:
        wrappers.restore()
        host.close()
    os.makedirs(OUT, exist_ok=True)
    spans.dump(roots, os.path.join(OUT, "sql-spans.jsonl"))

    count = len(work.ops)
    wall /= 1e9
    untraced_wall /= 1e9
    busy = spans.busy(stream)
    rows = [
        ("relational.backend",
         busy.get("relational.backend.apply", 0.0)
         + busy.get("relational.backend.query", 0.0)),
        ("relational.sqlite", busy.get("relational.sqlite", 0.0)),
        ("relational.lowering", busy.get("relational.lowering", 0.0)),
    ]
    unattributed = print_ledger(
        f"sql (stream, {count} requests)", wall, rows
    )
    applies = [
        root for root in stream if root.name == "relational.backend.apply"
    ]
    statements = sum(
        child.name == "relational.sqlite"
        for root in applies for child in root.children
    )
    tally.expect_equal("SQL statements of the updates", statements, expected)
    lowerings = spans.durations(roots, "relational.lowering")
    return {
        "relational.backend.self_us": (1e6 * rows[0][1] / count, "us"),
        "relational.backend.transactions": (transactions, "count"),
        "relational.backend.noops": (noops, "count"),
        "relational.sqlite.busy_us": (1e6 * rows[1][1] / count, "us"),
        "relational.sqlite.statements_per_update": (
            statements / len(applies), "count"
        ),
        "relational.lowering.lower_us": (
            1e6 * sum(lowerings) / len(lowerings), "us"
        ),
        "runtime.guards.build_s": (
            spans.durations(roots, "runtime.guards.build")[0], "s"
        ),
        "trace.total_s": (wall, "s"),
        "trace.unattributed_frac": (unattributed, "fraction"),
        "trace.overhead_frac": (
            (wall * traced_scale - untraced_wall) / untraced_wall,
            "fraction",
        ),
    }
