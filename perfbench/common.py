"""Shared plumbing of the benchmark: paths, summary statistics, the
host-speed calibration, the per-run tally and the layer ledger.

The benchmark lives beside the package it measures and imports it
from ``src/`` of the same checkout; every file it writes goes under
``.perfbench_work/`` (scratch, emptied per run) or
``.perfbench_out/`` (span dumps) at the checkout root.
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nothing else.

    Raises:
        SystemExit: when the checkout has no package to measure.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no repro package under {SRC}; run from a "
            "checkout of the repository"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def fresh_dir(path: str) -> str:
    """Empty (or create) a directory and return it."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    """The 90th percentile (``statistics.quantiles``, exclusive)."""
    return float(statistics.quantiles(values, n=10)[8])


def latency_metrics(times_ns, ops) -> dict:
    """The request latencies of ``serve`` and ``sql`` as end-to-end
    metrics, from per-op ns and ``ops`` (``(is_update, ...)``
    tuples): ``write_ms`` is the median update, ``read_ms`` and
    ``read_p90_ms`` the median and p90 ``balance`` query.  The p90 of
    the updates is printed, not reported: ``verify`` has too few
    cold passes for one."""
    updates = [t / 1e6 for t, op in zip(times_ns, ops) if op[0]]
    queries = [t / 1e6 for t, op in zip(times_ns, ops) if not op[0]]
    print(
        f"latency: {len(updates)} updates, p90 {p90(updates):.4f} ms; "
        f"{len(queries)} queries"
    )
    return {
        "write_ms": (median(updates), "ms"),
        "read_ms": (median(queries), "ms"),
        "read_p90_ms": (p90(queries), "ms"),
    }


class HostSpeed:
    """How fast the host ran while a run measured.

    On a shared machine the host's speed moves by more than half, over
    seconds to minutes, and every timing of the program moves with it:
    on a shared two-vCPU x86 VM one calibration sample took 0.6 ms in
    one state and 1.1 ms in the other.  So a run times a batch of
    calibration samples before and after each measured slice, and
    reports the slice's timings at the reference speed, at which one
    sample takes :attr:`reference_ns`: a time is multiplied by the
    slice's scale (:meth:`slice_done`).  A slice of several seconds
    is also sampled while it runs (:meth:`sampling`).

    A sample is work of the benchmark's own, so no change to the
    program moves it.  It has up to three parts, each taking a fixed
    time at the reference speed: Python dicts, tuples and JSON
    (0.5 ms); with ``sqlite``, statements on an in-memory SQLite
    database (0.5 ms); with ``echo``, JSON-lines round trips over
    loopback TCP to ``child.py echo`` (1 ms).
    """

    #: Samples per batch.
    BATCH = 5
    #: Round trips per sample with ``echo``.
    ROUND_TRIPS = 16
    #: Seconds between two samples taken by :meth:`sampling`.
    INTERVAL = 0.1

    def __init__(self, sqlite: bool = False, echo: bool = False):
        self.reference_ns = 500_000 * (1 + sqlite + 2 * echo)
        self.batches: list[list[int]] = []
        self.scales: list[float] = []
        self._db = self._peer = self._sock = None
        if sqlite:
            self._db = sqlite3.connect(":memory:")
            self._db.execute("CREATE TABLE cal (k INTEGER PRIMARY KEY, v)")
            self._db.executemany(
                "INSERT INTO cal VALUES (?, ?)", [(k, 0) for k in range(64)]
            )
        if echo:
            self._connect_echo()

    def _connect_echo(self) -> None:
        import socket
        import subprocess

        self._peer = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), "echo"],
            stdout=subprocess.PIPE, text=True,
        )
        line = self._peer.stdout.readline()
        if not line.startswith("ready "):
            self.close()
            raise RuntimeError("calibration echo peer did not start")
        sock = socket.create_connection(
            ("127.0.0.1", int(line.split()[1])), timeout=60
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._reader = sock, sock.makefile("rb")

    def _work(self) -> int:
        table: dict = {}
        total = 0
        for i in range(1500):
            key = ("account", i & 63)
            table[key] = table.get(key, 0) + i
            total += len(key)
        for i in range(40):
            total += len(json.loads(json.dumps({"op": "q", "params": [i]})))
        if self._db is not None:
            execute = self._db.execute
            for i in range(40):
                execute("UPDATE cal SET v = v + 1 WHERE k = ?", (i & 63,))
                row = execute("SELECT v FROM cal WHERE k = ?", (i & 63,))
                total += row.fetchone()[0]
        if self._sock is not None:
            send, readline = self._sock.sendall, self._reader.readline
            for i in range(self.ROUND_TRIPS):
                send(b'{"op": "query", "params": ["a1"]}\n')
                total += len(readline())
        return total

    def _time(self) -> int:
        clock = time.perf_counter_ns
        started = clock()
        self._work()
        return clock() - started

    def sample(self) -> None:
        """Time one batch of calibration samples."""
        self.batches.append([self._time() for _ in range(self.BATCH)])

    def slice_done(self, during=()) -> float:
        """Close a measured slice: time a batch and return the scale of
        the slice, the reference time over the median of the samples
        of the batches just before and just after it and of the
        samples ``during`` it."""
        self.sample()
        scale = self.reference_ns / median(
            self.batches[-2] + list(during) + self.batches[-1]
        )
        self.scales.append(scale)
        return scale

    def sampling(self) -> "_Sampler":
        """A context that takes a sample every :data:`INTERVAL` seconds
        on a thread while the measured code runs.  The samples hold
        the GIL, so the measured code waits while they run: subtract
        the sampler's ``busy_s`` from its time, and pass its
        ``samples`` to :meth:`slice_done`.  Only the pure-Python part
        can be sampled so: the other parts release the GIL."""
        if self._db is not None or self._sock is not None:
            raise ValueError("only a Python-only calibration can sample")
        return _Sampler(self._time, self.INTERVAL)

    def describe(self) -> str:
        samples = [ns for batch in self.batches for ns in batch]
        return (
            f"host speed: {len(samples)} calibration samples in batches, "
            f"median {median(samples) / 1e3:.1f} us (reference "
            f"{self.reference_ns / 1e3:.0f} us); {len(self.scales)} "
            f"slices scaled by {min(self.scales):.3f} to "
            f"{max(self.scales):.3f}, median {median(self.scales):.3f}"
        )

    def close(self) -> None:
        if self._db is not None:
            self._db.close()
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = None
        if self._peer is not None:
            try:
                self._peer.wait(timeout=10)
            except Exception:
                self._peer.kill()
                self._peer.wait()
            self._peer.stdout.close()
            self._peer = None


class _Sampler:
    """The thread of :meth:`HostSpeed.sampling`.  Each time it wakes it
    times two samples and keeps the second: the first finds its data
    evicted by the measured code, so its time would depend on the
    program."""

    def __init__(self, sample, interval: float):
        import threading

        self.samples: list[int] = []
        self._busy_ns = 0
        self._sample = sample
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @property
    def busy_s(self) -> float:
        return self._busy_ns / 1e9

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            warm_up = self._sample()
            taken = self._sample()
            self.samples.append(taken)
            self._busy_ns += warm_up + taken

    def __enter__(self) -> "_Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join()
        return False


class Tally:
    """Operations attempted and failed in one run, plus the reasons.

    A failed or mismatched operation counts against the number
    attempted; :attr:`problems` keeps the first few descriptions for
    the run's report.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; record ``what`` when it failed."""
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        """Count a failure of an operation already attempted."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def expect_equal(self, name: str, got, want) -> None:
        """An exact-count guard: ``got`` must equal ``want``."""
        self.check(got == want, f"{name}: got {got!r}, expected {want!r}")


def print_ledger(title: str, total_s: float, rows) -> float:
    """Print the layer ledger of a traced run and return the
    unattributed fraction.

    ``rows`` are ``(layer, self seconds)`` pairs that partition the
    traced end-to-end time ``total_s``; what they leave over is the
    unattributed remainder, printed as its own row so the column adds
    up to the total.
    """
    attributed = sum(seconds for _layer, seconds in rows)
    remainder = total_s - attributed
    print(f"ledger {title}: traced end-to-end {total_s:.6f} s")
    for layer, seconds in rows:
        print(
            f"  {layer:34s} {seconds:12.6f} s "
            f"{100 * seconds / total_s:6.2f}%"
        )
    print(
        f"  {'(unattributed)':34s} {remainder:12.6f} s "
        f"{100 * remainder / total_s:6.2f}%"
    )
    return remainder / total_s
