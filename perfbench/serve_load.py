"""The ``serve`` workload: the bank served over TCP by a launcher in
its own process (``child.py serve``), driven by one closed-loop client.

Phases, all on one connection and all from the seeded stream:

1. set-up: spawn the server and run the warm-up, which touches every
   (update, account) plan once; repeated :data:`SETUP_SAMPLES` times
   on fresh journals, the last server is kept;
2. latency: one request in flight;
3. throughput: a fixed pipelined window of :data:`WINDOW` requests,
   so replies come back in stream order and stay checkable;
4. durability probe: ``compact`` (a durable point), then updates until
   :data:`PROBE_ACKED` more are acknowledged, SIGKILL, restart on the
   same journal and compare the recovered sequence number.

Requests are encoded before timing and replies decoded after it; every
reply and the final state are compared with an in-process
:class:`~stream.Reference` replay of the same stream.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time

from common import (
    HERE, OUT, WORK, HostSpeed, latency_metrics, median, print_ledger,
)
from stream import Generator, Reference, encode, warmup

SETUP_SAMPLES = 5
WINDOW = 16
LATENCY_PER_SECOND = 4000
THROUGHPUT_PER_SECOND = 8000
ROUNDS = 48
TRACED_SHARE = 4
PROBE_ACKED = 101
READY_TIMEOUT = 120.0


class Server:
    """One launcher process plus a blocking client connection."""

    def __init__(self, data_dir: str, trace_path: str | None = None):
        self.started = time.perf_counter()
        self.sock = None
        command = [
            sys.executable, os.path.join(HERE, "child.py"), "serve",
            data_dir,
        ]
        if trace_path is not None:
            command += ["--trace", trace_path]
        self._log = open(data_dir + ".log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, text=True
        )
        try:
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], READY_TIMEOUT
            )
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("ready "):
                raise RuntimeError(
                    f"server did not start (see {self._log.name})"
                )
            _, port, fsync, batch = line.split()
            self.policy = (fsync == "True", int(batch))
            sock = socket.create_connection(
                ("127.0.0.1", int(port)), timeout=READY_TIMEOUT
            )
        except BaseException:
            self.stop(kill=True)
            raise
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock, self.reader = sock, sock.makefile("rb")

    def call(self, payload: bytes) -> bytes:
        self.sock.sendall(payload)
        return self.reader.readline()

    def request(self, body: dict) -> dict:
        return json.loads(self.call((json.dumps(body) + "\n").encode()))

    def stop(self, kill: bool = False) -> None:
        """Stop and reap the server: SIGKILL when ``kill`` is set,
        otherwise the ``shutdown`` op (and SIGKILL if that fails)."""
        try:
            if not kill:
                self.request({"op": "shutdown"})
                self.proc.wait(timeout=READY_TIMEOUT)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            if self.sock is not None:
                self.reader.close()
                self.sock.close()
                self.sock = None
            self.proc.stdout.close()
            self._log.close()


def latency_phase(server: Server, payloads):
    """One request in flight; returns (per-request ns, replies, wall ns)."""
    send = server.sock.sendall
    readline = server.reader.readline
    clock = time.perf_counter_ns
    times = [0] * len(payloads)
    replies = [b""] * len(payloads)
    began = clock()
    for index, payload in enumerate(payloads):
        started = clock()
        send(payload)
        replies[index] = readline()
        times[index] = clock() - started
    return times, replies, clock() - began


def throughput_phase(server: Server, payloads):
    """A pipelined window of :data:`WINDOW` requests; returns
    (replies, wall ns)."""
    send = server.sock.sendall
    readline = server.reader.readline
    clock = time.perf_counter_ns
    total = len(payloads)
    replies = [b""] * total
    began = clock()
    send(b"".join(payloads[:WINDOW]))
    for index in range(total):
        replies[index] = readline()
        ahead = index + WINDOW
        if ahead < total:
            send(payloads[ahead])
    return replies, clock() - began


def check_replies(tally, phase, ops, replies, expected) -> None:
    for op, line, want in zip(ops, replies, expected):
        body = json.loads(line)
        if op[0]:
            got = (body.get("accepted"), body.get("seq"))
        else:
            got = body.get("value")
        tally.check(
            body.get("ok") is True and got == want,
            f"{phase} {op}: reply {line[:120]!r}, expected {want!r}",
        )


def _cells(state: dict) -> dict:
    return {
        (query, tuple(params)): value
        for query, params, value in state["cells"]
    }


class _Run:
    """The stream, its reference replay and the checks of one run."""

    def __init__(self, seed: int, seconds: int, tally, share: int = 1):
        self.tally = tally
        generator = Generator(seed)
        self.warm = warmup()
        latency = LATENCY_PER_SECOND * seconds // share // ROUNDS
        throughput = THROUGHPUT_PER_SECOND * seconds // share // ROUNDS
        self.rounds = [
            (generator.ops(latency), generator.ops(throughput))
            for _ in range(ROUNDS)
        ]
        self.latency = [op for ops, _ in self.rounds for op in ops]
        self.probe = Generator(seed, "probe")
        self.reference = Reference()
        replay = self.reference.replay
        self.expected_warm = replay(self.warm)
        self.expected_rounds = [
            (replay(lat), replay(thr)) for lat, thr in self.rounds
        ]
        self.expected_cells = self.reference.cells()
        self.expected_seq = self.reference.seq
        self.expected_counts = self.reference.counts()

    def latency_slices(self):
        """``[first, end)`` request positions (counted from the
        warm-up's first request) of each latency slice."""
        position = len(self.warm)
        for lat, thr in self.rounds:
            yield position, position + len(lat)
            position += len(lat) + len(thr)

    def start(self, data_dir: str, trace_path: str | None = None):
        """Spawn a server and run the warm-up; returns (server,
        set-up seconds)."""
        server = Server(data_dir, trace_path)
        try:
            replies = [server.call(encode(op)) for op in self.warm]
        except BaseException:
            server.stop(kill=True)
            raise
        setup = time.perf_counter() - server.started
        check_replies(
            self.tally, "warm-up", self.warm, replies, self.expected_warm
        )
        return server, setup

    def measure(self, server: Server, host: HostSpeed | None = None):
        """The rounds of latency and throughput phases, then the exact
        checks; returns (latency ns per request, latency phase walls,
        throughput phase walls, journal counters).  With ``host`` each
        phase runs between calibration batches and its times are
        scaled to the reference host speed."""
        tally = self.tally
        encoded = [
            ([encode(op) for op in lat], [encode(op) for op in thr])
            for lat, thr in self.rounds
        ]
        times, latency_walls, throughput_walls, replies = [], [], [], []
        if host is not None:
            host.sample()
        for lat, thr in encoded:
            lat_times, lat_replies, lat_wall = latency_phase(server, lat)
            scale = 1.0 if host is None else host.slice_done()
            thr_replies, thr_wall = throughput_phase(server, thr)
            times += [ns * scale for ns in lat_times]
            latency_walls.append(lat_wall * scale)
            if host is not None:
                scale = host.slice_done()
            throughput_walls.append(thr_wall * scale)
            replies.append((lat_replies, thr_replies))
        for (lat, thr), (want_lat, want_thr), (got_lat, got_thr) in zip(
            self.rounds, self.expected_rounds, replies
        ):
            check_replies(tally, "latency", lat, got_lat, want_lat)
            check_replies(tally, "throughput", thr, got_thr, want_thr)
        state = server.request({"op": "state"})
        tally.check(
            state["seq"] == self.expected_seq
            and _cells(state) == self.expected_cells,
            "final state differs from the reference replay",
        )
        stats = server.request({"op": "stats"})["stats"]
        counts = {key: stats[key] for key in self.expected_counts}
        tally.expect_equal("serve stats counts", counts, self.expected_counts)
        journal = stats["journal"]
        fsync, batch = server.policy
        tally.expect_equal(
            "journal syncs under group commit",
            journal["syncs"], journal["appends"] // batch,
        )
        print(
            f"serve: flush policy fsync={fsync} group commit every "
            f"{batch} appends (shipped SpecRuntime defaults); "
            f"{ROUNDS} rounds of {len(self.rounds[0][0])} latency + "
            f"{len(self.rounds[0][1])} pipelined requests (window {WINDOW})"
        )
        print(
            "counts serve:",
            json.dumps({**counts, "seq": state["seq"], **journal},
                       sort_keys=True),
        )
        return times, latency_walls, throughput_walls, journal

    def probe_durability(self, server: Server, data_dir: str,
                         trace_path: str | None = None):
        """Compact, acknowledge :data:`PROBE_ACKED` updates, SIGKILL,
        restart; returns (lost acknowledged updates, restarted server)."""
        tally = self.tally
        durable = server.request({"op": "compact"})["seq"]
        tally.expect_equal("seq at compaction", durable, self.expected_seq)
        states = {durable: self.reference.cells()}
        acked = durable
        while acked < durable + PROBE_ACKED:
            op = self.probe.ops(1, query_share=0.0)[0]
            [want] = self.reference.replay([op])
            line = server.call(encode(op))
            check_replies(tally, "probe", [op], [line], [want])
            if want[0]:
                acked = want[1]
                states[acked] = self.reference.cells()
        server.stop(kill=True)
        restarted = Server(data_dir, trace_path)
        try:
            state = restarted.request({"op": "state"})
        except BaseException:
            restarted.stop(kill=True)
            raise
        recovered = state["seq"]
        tally.check(
            states.get(recovered) == _cells(state),
            f"recovered state at seq {recovered} differs from the "
            "reference",
        )
        lost = acked - recovered
        print(
            f"serve: durability probe acknowledged {PROBE_ACKED} updates "
            f"after a compaction; {lost} lost after SIGKILL "
            f"(acked seq {acked}, recovered seq {recovered})"
        )
        return lost, restarted


def server_dir(sample: int) -> str:
    return os.path.join(WORK, f"journal-{sample}")


def run(seed: int, seconds: int, trace: bool, tally) -> dict:
    if trace:
        return _run_traced(seed, seconds, tally)
    work = _Run(seed, seconds, tally)
    host = HostSpeed(sqlite=True, echo=True)
    setups = []
    try:
        for sample in range(SETUP_SAMPLES):
            host.sample()
            server, setup = work.start(server_dir(sample))
            setups.append(setup * host.slice_done())
            if sample < SETUP_SAMPLES - 1:
                server.stop()
        try:
            times, _, thr_walls, _ = work.measure(server, host)
            _, restarted = work.probe_durability(
                server, server_dir(sample)
            )
        except BaseException:
            server.stop(kill=True)
            raise
        restarted.stop()
    finally:
        host.close()
    print(host.describe())
    return {
        "setup_s": (median(setups), "s"),
        **latency_metrics(times, work.latency),
        "throughput_ops_s": (
            sum(len(thr) for _, thr in work.rounds) / (sum(thr_walls) / 1e9),
            "1/s",
        ),
    }


def _run_traced(seed: int, seconds: int, tally) -> dict:
    import spans

    # Untraced baseline of the same (shortened) stream, for the
    # tracing overhead; both are scaled to the reference host speed by
    # the batches around them.
    host = HostSpeed(sqlite=True, echo=True)
    try:
        work = _Run(seed, seconds, tally, TRACED_SHARE)
        server, _ = work.start(server_dir(0))
        try:
            host.sample()
            _, untraced_walls, _, _ = work.measure(server)
            untraced_scale = host.slice_done()
        finally:
            server.stop()

        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, "serve-spans.jsonl")
        restart_path = os.path.join(OUT, "serve-restart-spans.jsonl")
        for path in (spans_path, restart_path):
            if os.path.exists(path):
                os.remove(path)
        work = _Run(seed, seconds, tally, TRACED_SHARE)
        server, _ = work.start(server_dir(1), spans_path)
        try:
            host.sample()
            times, walls, _, journal = work.measure(server)
            traced_scale = host.slice_done()
            server.proc.send_signal(signal.SIGUSR1)
            deadline = time.monotonic() + READY_TIMEOUT
            while not os.path.exists(spans_path):
                if time.monotonic() > deadline:
                    raise RuntimeError("server wrote no spans")
                time.sleep(0.05)
            lost, restarted = work.probe_durability(
                server, server_dir(1), restart_path
            )
        except BaseException:
            server.stop(kill=True)
            raise
        restarted.stop()
    finally:
        host.close()

    everything = spans.load(spans_path)
    requests = [root for root in everything if root.name == "runtime.server"]
    latency = [
        root for first, end in work.latency_slices()
        for root in requests[first:end]
    ]
    busy = spans.busy(latency)
    server_total = sum(root.duration for root in latency)
    appends = spans.named(latency, "runtime.journal.append")
    flushes = spans.durations(latency, "runtime.journal.flush")
    count = len(work.latency)
    wall = sum(walls) / 1e9
    untraced_wall = untraced_scale * sum(untraced_walls) / 1e9
    rows = [
        ("runtime.wire", sum(times) / 1e9 - server_total),
        ("runtime.server", busy.get("runtime.server", 0.0)),
        ("runtime.service", busy.get("runtime.service", 0.0)),
        ("runtime.state", busy.get("runtime.state", 0.0)),
        ("runtime.state.compile", busy.get("runtime.state.compile", 0.0)),
        ("runtime.journal",
         busy.get("runtime.journal.append", 0.0)
         + busy.get("runtime.journal.flush", 0.0)),
    ]
    unattributed = print_ledger(
        f"serve (latency phases, {count} requests)", wall, rows
    )
    metrics = {
        f"{layer}.self_us": (1e6 * seconds_ / count, "us")
        for layer, seconds_ in rows[:4]
    }
    compiles = spans.durations(everything, "runtime.state.compile")
    tally.expect_equal("plans compiled", len(compiles), 256)
    restart = spans.load(restart_path)
    metrics.update({
        "runtime.state.plan_compile_us": (
            1e6 * sum(compiles) / len(compiles), "us"
        ),
        "runtime.state.plans_compiled": (len(compiles), "count"),
        "runtime.guards.build_s": (
            spans.durations(everything, "runtime.guards.build")[0], "s"
        ),
        "runtime.journal.append_us": (
            1e6 * sum(map(spans.self_time, appends)) / len(appends), "us"
        ),
        "runtime.journal.flush_us": (
            1e6 * sum(flushes) / len(flushes), "us"
        ),
        "runtime.journal.syncs": (journal["syncs"], "count"),
        "runtime.journal.lost_acked_updates": (lost, "count"),
        "runtime.journal.recover_s": (
            spans.durations(restart, "runtime.journal.recover")[0], "s"
        ),
        "trace.total_s": (wall, "s"),
        "trace.unattributed_frac": (unattributed, "fraction"),
        "trace.overhead_frac": (
            (wall * traced_scale - untraced_wall) / untraced_wall,
            "fraction",
        ),
    })
    return metrics
