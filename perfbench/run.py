"""The repository's benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload {verify,serve,sql} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` measures the workload's end-to-end metrics with tracing
off; ``--trace 1`` runs it once untraced and once with the layer
wrappers of :mod:`spans` installed, prints the layer ledger and
reports the per-layer metrics.  Every operation's output is checked;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("verify", "serve", "sql")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    common.use_source_tree()
    common.fresh_dir(common.WORK)
    tally = common.Tally()
    trace = bool(args.trace)
    try:
        if args.workload == "verify":
            import verify_load

            metrics = verify_load.run(args.seconds, trace, tally)
        elif args.workload == "serve":
            import serve_load

            metrics = serve_load.run(args.seed, args.seconds, trace, tally)
        else:
            import sql_load

            metrics = sql_load.run(args.seed, args.seconds, trace, tally)
    finally:
        import shutil

        shutil.rmtree(common.WORK, ignore_errors=True)
    metrics = declared(metrics, "per_layer" if trace else "end_to_end")
    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


def declared(measured: dict, kind: str) -> dict:
    """The metrics of ``kind`` in ``BENCHMARK.json``, in its order and
    units, from a workload's ``measured`` ``{name: (value, unit)}``.

    Every workload measures every end-to-end metric.  A traced run
    measures the layers its workload calls; a layer it does not call
    (the serving runtime under ``verify``, the checks under ``serve``)
    reads 0.

    Raises:
        ValueError: when ``measured`` lacks an end-to-end metric, or
            holds a metric or unit the manifest does not declare.
    """
    with open(os.path.join(common.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        manifest = json.load(handle)[kind]
    units = {metric["name"]: metric["unit"] for metric in manifest}
    for name, (_value, unit) in measured.items():
        if units.get(name) != unit:
            raise ValueError(f"{name} ({unit}) is not a {kind} metric")
    missing = units.keys() - measured.keys()
    if kind == "end_to_end" and missing:
        raise ValueError(f"end-to-end metrics not measured: {missing}")
    return {
        name: measured.get(name, (0, unit)) for name, unit in units.items()
    }


if __name__ == "__main__":
    sys.exit(main())
