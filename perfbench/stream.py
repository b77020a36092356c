"""The seeded request stream of the ``serve`` and ``sql`` workloads and
its in-process reference replay.

The generator is the only source of inputs: the bank application with
64 accounts and 4 money levels, a warm-up that touches every
(update, account) plan once, then a stream of 40% ``balance`` queries
and 60% ``deposit``/``withdraw`` updates over Zipf-skewed accounts.
Hot accounts random-walk into the ends of the money chain, so the
stream contains precondition rejections as well as commits.
"""

from __future__ import annotations

import itertools
import json
import random

ACCOUNTS = 64
LEVELS = 4
ZIPF_S = 1.1
QUERY_SHARE = 0.4
UPDATES = ("close_account", "open_account", "deposit", "withdraw")

#: One operation: (is_update, name, account).
Op = tuple[bool, str, str]


def accounts() -> list[str]:
    return [f"a{i}" for i in range(1, ACCOUNTS + 1)]


def warmup() -> list[Op]:
    """Touch every (update, account) plan once, then read each
    balance: close (rejected, not open), open, deposit, withdraw."""
    ops: list[Op] = []
    for account in accounts():
        ops.extend((True, update, account) for update in UPDATES)
        ops.append((False, "balance", account))
    return ops


class Generator:
    """Seeded Zipf-skewed request stream over the bank accounts."""

    def __init__(self, seed: int, label: str = "stream"):
        self._rng = random.Random(f"{seed}-{label}")
        ranked = accounts()
        self._rng.shuffle(ranked)
        self._ranked = ranked
        self._cum = list(
            itertools.accumulate(
                1.0 / rank**ZIPF_S for rank in range(1, ACCOUNTS + 1)
            )
        )

    def ops(self, count: int, query_share: float = QUERY_SHARE):
        """The next ``count`` operations of the stream."""
        rng = self._rng
        targets = rng.choices(self._ranked, cum_weights=self._cum, k=count)
        out: list[Op] = []
        for account in targets:
            draw = rng.random()
            if draw < query_share:
                out.append((False, "balance", account))
            elif draw < query_share + (1 - query_share) / 2:
                out.append((True, "deposit", account))
            else:
                out.append((True, "withdraw", account))
        return out


def encode(op: Op) -> bytes:
    """The JSON-lines request of one operation."""
    is_update, name, account = op
    if is_update:
        body = {"op": "update", "update": name, "params": [account]}
    else:
        body = {"op": "query", "query": name, "params": [account]}
    return (json.dumps(body) + "\n").encode("utf-8")


def bank_design():
    """The benchmark's application: the bank framework with 64
    accounts and its structured descriptions."""
    from repro.applications.bank import bank_descriptions, bank_framework

    framework = bank_framework(accounts=ACCOUNTS, levels=LEVELS)
    return framework, bank_descriptions(framework.algebraic.signature)


class Reference:
    """An in-process :class:`~repro.runtime.service.SpecRuntime`
    replay (no journal, no telemetry): the expected reply of every
    operation and the expected final state."""

    def __init__(self):
        from repro.runtime.service import SpecRuntime

        framework, descriptions = bank_design()
        self.runtime = SpecRuntime(framework, descriptions)

    def replay(self, ops):
        """Expected replies: ``(accepted, seq)`` for an update, the
        value for a query."""
        runtime = self.runtime
        out = []
        for is_update, name, account in ops:
            if is_update:
                result = runtime.execute(name, (account,))
                out.append((result.accepted, result.seq))
            else:
                out.append(runtime.query(name, (account,)))
        return out

    @property
    def seq(self) -> int:
        return self.runtime.seq

    def cells(self) -> dict:
        return self.runtime.store.cells

    def counts(self) -> dict:
        stats = self.runtime.stats
        return {key: stats[key] for key in ("accepted", "rejected", "queries")}
