"""Child processes of the benchmark.

``python3 perfbench/child.py verify-setup``
    Import the package and build the four shipped frameworks; print
    the seconds that took at the reference host speed (one ``verify``
    set-up sample).

``python3 perfbench/child.py verify-cold CACHE_DIR``
    One cold pass of the ``verify`` workload (``verify_load.cold_pass``)
    in this fresh process; prints ``[seconds, summaries]`` as JSON.

``python3 perfbench/child.py echo``
    Answer JSON lines over loopback TCP: the calibration peer of
    ``common.HostSpeed``.  Prints ``ready PORT`` once bound.

``python3 perfbench/child.py serve DATA_DIR [--trace PATH]``
    Serve the 64-account bank over TCP the way ``repro serve`` does
    (``_cmd_serve``): a :class:`~repro.runtime.service.SpecRuntime`
    with a journal in ``DATA_DIR`` at the shipped flush policy, under
    ``activate_telemetry()``, through ``repro.runtime.server.serve``.
    Prints ``ready PORT FSYNC FSYNC_BATCH`` once bound.  With
    ``--trace`` the server-side layers are wrapped before the runtime
    is built, and the spans are written to ``PATH`` on SIGUSR1 and on
    exit.
"""

from __future__ import annotations

import os
import sys
import time

if __name__ == "__main__":
    started = time.perf_counter()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import common

    common.use_source_tree()


def verify_setup() -> None:
    from common import HostSpeed
    from verify_load import build_frameworks

    build_frameworks()
    took = time.perf_counter() - started
    # Both calibration batches follow the set-up, which starts with
    # this process; they run on the CPU the set-up ran on.
    host = HostSpeed()
    host.sample()
    print(took * host.slice_done(), flush=True)


def verify_cold(cache_dir: str) -> None:
    import json

    from common import HostSpeed
    from verify_load import cold_pass

    print(json.dumps(cold_pass(cache_dir, HostSpeed())))


def echo() -> None:
    """Answer JSON lines over loopback TCP until the one client hangs
    up: the calibration peer of ``common.HostSpeed(echo=True)``."""
    import asyncio
    import json

    async def main() -> None:
        done = asyncio.Event()

        async def handle(reader, writer) -> None:
            while line := await reader.readline():
                body = json.loads(line)
                writer.write(
                    (json.dumps({"ok": True, "value": body["params"]})
                     + "\n").encode()
                )
                await writer.drain()
            writer.close()
            done.set()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        print(f"ready {server.sockets[0].getsockname()[1]}", flush=True)
        await done.wait()
        server.close()

    asyncio.run(main())


def install_server_spans(wrappers) -> None:
    """Wrap the serving layers' public functions (see README)."""
    from repro.algebraic.plans import UpdatePlanner
    from repro.runtime.guards import AdmissionGuard
    from repro.runtime.journal import Journal
    from repro.runtime.server import RuntimeServer
    from repro.runtime.service import SpecRuntime
    from repro.runtime.state import MaterializedState

    wrap = wrappers.wrap
    wrap(RuntimeServer, "handle_request", "runtime.server")
    wrap(SpecRuntime, "execute", "runtime.service")
    wrap(SpecRuntime, "query", "runtime.service")
    wrap(MaterializedState, "plan", "runtime.state")
    wrap(MaterializedState, "compute_writes", "runtime.state")
    wrap(MaterializedState, "commit", "runtime.state")
    wrap(UpdatePlanner, "compile", "runtime.state.compile")
    wrap(AdmissionGuard, "__init__", "runtime.guards.build")
    wrap(Journal, "append", "runtime.journal.append")
    wrap(Journal, "flush", "runtime.journal.flush")
    wrap(Journal, "recover", "runtime.journal.recover")


def serve_bank(data_dir: str, trace_path: str | None) -> int:
    import inspect
    import signal

    wrappers = None
    if trace_path is not None:
        import spans

        wrappers = spans.Wrappers()
        install_server_spans(wrappers)

    from repro.obs.telemetry import activate_telemetry
    from repro.runtime.server import serve
    from repro.runtime.service import SpecRuntime
    from stream import bank_design

    framework, descriptions = bank_design()
    runtime = SpecRuntime(framework, descriptions, data_dir=data_dir)
    defaults = inspect.signature(SpecRuntime).parameters

    def dump() -> None:
        spans.dump(wrappers.roots, trace_path)

    def ready(server) -> None:
        if wrappers is not None:
            import asyncio

            asyncio.get_running_loop().add_signal_handler(
                signal.SIGUSR1, dump
            )
        print(
            f"ready {server.port} {defaults['fsync'].default} "
            f"{defaults['fsync_batch'].default}",
            flush=True,
        )

    with activate_telemetry():
        code = serve(runtime, allow_shutdown=True, ready=ready)
    if wrappers is not None:
        dump()
    return code


if __name__ == "__main__":
    role = sys.argv[1]
    if role == "verify-setup":
        verify_setup()
    elif role == "verify-cold":
        verify_cold(sys.argv[2])
    elif role == "echo":
        echo()
    elif role == "serve":
        trace = sys.argv[4] if sys.argv[3:4] == ["--trace"] else None
        sys.exit(serve_bank(sys.argv[2], trace))
    else:
        sys.exit(f"unknown role {role!r}")
