"""The ``verify`` workload: the refinement proofs of the four shipped
applications, run cold, then replayed warm.

Each cold pass runs in a fresh process (``child.py verify-cold``),
builds the four frameworks and runs ``DesignFramework.verify()``
serially and in that process (``workers=1``) against a new, empty
:class:`~repro.pipeline.cache.ResultCache` directory, so every check
runs; the first pass's directory then serves the warm replays in the
benchmark's process, each through a fresh ``ResultCache`` object on
that directory.  The workload bypasses the serving runtime and the SQL
realization.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time

from common import (
    HERE, OUT, WORK, HostSpeed, fresh_dir, median, p90, print_ledger,
)

APPS = ("courses", "library", "projects", "bank")
MIN_COLD_PASSES = 3
#: Set-up samples after each cold pass, each followed by
#: ``WARM_SLICES`` slices of ``WARM_SLICE`` warm replays.
SAMPLES_PER_PASS = 4
WARM_SLICES = 6
#: A warm replay reads 40 files; bursts of slow file reads on a shared
#: host last a fraction of a second, so a short slice lets the
#: calibration batches around it see the same host state.
WARM_SLICE = 6
TRACED_WARM = 5
EXPECTED = os.path.join(HERE, "expected_reports.json")

#: Check functions the pipeline nodes call, by the layer they belong
#: to (``repro.pipeline.nodes`` looks each name up at call time).
NODE_LAYERS = {
    "prove_static_consistency": "algebraic.induction",
    "check_second_third": "refinement.second_third",
    "check_agreement": "refinement.second_third",
    "check_static_consistency": "refinement.first_second",
    "check_transition_consistency": "refinement.first_second",
    "compare_valid_reachable": "refinement.reachability",
    "check_sufficient_completeness": "algebraic.completeness",
    "check_congruence": "algebraic.observation",
    "check_schema_source": "wgrammar",
}
LAYERS = tuple(dict.fromkeys(NODE_LAYERS.values())) + (
    "algebraic.exploration",
)

_TIMING = re.compile(r"\d+(?:\.\d+)?\s*(?:ms|s)\b")


def build_frameworks() -> dict:
    """The four shipped frameworks, from the CLI's registry."""
    from repro.cli import APPLICATIONS

    return {name: APPLICATIONS[name]() for name in APPS}


def report_digest(report) -> str:
    """SHA-256 of the report text with any timing stripped."""
    text = _TIMING.sub("", str(report))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summarize(report) -> dict:
    """What the checks need of one report: whether it is ``ok``, its
    :func:`report_digest` and its exact :class:`VerificationStats`
    counters per check (wall time and the intern-table gauge
    excluded: both depend on the process, not the proof)."""
    return {
        "ok": report.ok,
        "digest": report_digest(report),
        "counters": [
            [
                part.label,
                part.states_checked,
                part.cache_hits,
                part.cache_misses,
                part.rewrite_steps,
                part.dispatch_hits,
            ]
            for part in report.stats.parts
        ],
    }


def cold_pass(cache_dir: str, host) -> tuple[float, dict]:
    """Build the four frameworks and verify each against a new, empty
    result cache in ``cache_dir``; returns the summed ``verify()``
    wall time, each application's scaled to the reference host speed
    by ``host``, and each report's :func:`summarize`.  The calibration
    samples taken while an application runs hold the GIL, so their
    time is taken out of the application's."""
    from repro.pipeline.cache import ResultCache

    frameworks = build_frameworks()
    cache = ResultCache(fresh_dir(cache_dir))
    elapsed, summaries = 0.0, {}
    host.sample()
    for name in APPS:
        with host.sampling() as sampler:
            started = time.perf_counter()
            report = frameworks[name].verify(collect_stats=True, cache=cache)
            took = time.perf_counter() - started
        elapsed += (took - sampler.busy_s) * host.slice_done(sampler.samples)
        summaries[name] = summarize(report)
    return elapsed, summaries


def _child(*args: str) -> str:
    """The last line a ``child.py`` role prints."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return done.stdout.splitlines()[-1]


def _setup_sample() -> float:
    return float(_child("verify-setup"))


class _Pass:
    """Checks every report of a run against the stored digests and
    against the counters of the run's first cold pass."""

    def __init__(self, tally):
        self.tally = tally
        with open(EXPECTED, encoding="utf-8") as handle:
            self.expected = json.load(handle)
        self.counters: dict[str, list] = {}

    def check(self, name: str, summary: dict, kind: str) -> None:
        tally = self.tally
        if not tally.check(
            summary["ok"], f"{kind} verify {name}: report not ok"
        ):
            return
        digest = summary["digest"]
        if digest != self.expected[name]:
            tally.fail(f"{kind} verify {name}: report digest {digest}")
            return
        first = self.counters.setdefault(name, summary["counters"])
        if summary["counters"] != first:
            tally.fail(f"{kind} verify {name}: stats counters drifted")

    def cold(self, cache_dir: str) -> float:
        """One cold pass in a fresh process; returns its time at the
        reference host speed."""
        elapsed, summaries = json.loads(_child("verify-cold", cache_dir))
        for name in APPS:
            self.check(name, summaries[name], "cold")
        return elapsed

    def warm(self, frameworks, cache_dir: str) -> tuple[float, int, int]:
        """One timed warm replay; returns (seconds, hits, misses)."""
        from repro.pipeline.cache import ResultCache

        cache = ResultCache(cache_dir)
        started = time.perf_counter()
        reports = {
            name: frameworks[name].verify(collect_stats=True, cache=cache)
            for name in APPS
        }
        elapsed = time.perf_counter() - started
        for name, report in reports.items():
            self.check(name, summarize(report), "warm")
        return elapsed, cache.hits, cache.misses


def run(seconds: int, trace: bool, tally) -> dict:
    if trace:
        return _run_traced(tally)
    passes = _Pass(tally)
    frameworks = build_frameworks()
    warm_dir = os.path.join(WORK, "cache-0")
    cold, warm, setup, hits = [], [], [], set()
    host = HostSpeed()

    def after_pass() -> None:
        # Set-up samples and warm replays run after every cold pass, so
        # that all three kinds of sample spread over the whole run
        # rather than one stretch of it.  Each is scaled to the
        # reference host speed (see common.HostSpeed).
        for _ in range(SAMPLES_PER_PASS):
            setup.append(_setup_sample())
            host.sample()
            for _ in range(WARM_SLICES):
                batch = []
                for _ in range(WARM_SLICE):
                    elapsed, hit, miss = passes.warm(frameworks, warm_dir)
                    batch.append(elapsed)
                    hits.add(hit)
                    tally.expect_equal("warm replay cache misses", miss, 0)
                scale = host.slice_done()
                warm.extend(elapsed * scale for elapsed in batch)

    started = time.perf_counter()
    try:
        while (
            len(cold) < MIN_COLD_PASSES
            or time.perf_counter() - started < seconds
        ):
            cold.append(passes.cold(
                os.path.join(WORK, f"cache-{len(cold)}")
            ))
            after_pass()
    finally:
        host.close()
    tally.expect_equal("distinct warm cache-hit counts", len(hits), 1)
    print(
        f"verify: cold passes {' '.join(f'{t:.3f}' for t in cold)} s; "
        f"{len(warm)} warm replays, cache hits {sorted(hits)}; "
        f"setup samples {' '.join(f'{t:.3f}' for t in setup)} s "
        "(all at the reference host speed)"
    )
    print(host.describe())
    print("counts verify:", json.dumps(passes.counters, sort_keys=True))
    states = sum(
        part[1] for name in APPS for part in passes.counters.get(name, ())
    )
    return {
        "setup_s": (median(setup), "s"),
        "write_ms": (1e3 * median(cold), "ms"),
        "read_ms": (1e3 * median(warm), "ms"),
        "read_p90_ms": (1e3 * p90(warm), "ms"),
        "throughput_ops_s": (states / median(cold), "1/s"),
    }


def _run_traced(tally) -> dict:
    import repro.pipeline.nodes as nodes
    from repro.algebraic.algebra import TraceAlgebra
    from repro.core.framework import DesignFramework
    import spans

    passes = _Pass(tally)
    host = HostSpeed()
    untraced, summaries = cold_pass(
        os.path.join(WORK, "cache-untraced"), host
    )
    for name in APPS:
        passes.check(name, summaries[name], "cold")

    wrappers = spans.Wrappers()
    for attr, layer in NODE_LAYERS.items():
        wrappers.wrap(nodes, attr, layer)
    wrappers.wrap(TraceAlgebra, "explore", "algebraic.exploration")
    wrappers.wrap(DesignFramework, "verify", "pipeline")
    results = []
    original = DesignFramework.verify_pipeline

    def capture(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        results.append(result)
        return result

    DesignFramework.verify_pipeline = capture
    try:
        cache_dir = os.path.join(WORK, "cache-traced")
        traced_scaled, summaries = cold_pass(cache_dir, host)
        for name in APPS:
            passes.check(name, summaries[name], "cold")
        cold = [root for root in wrappers.roots if root.name == "pipeline"]
        frameworks = build_frameworks()
        for _ in range(TRACED_WARM):
            del results[:]
            passes.warm(frameworks, cache_dir)
    finally:
        DesignFramework.verify_pipeline = original
        wrappers.restore()
        host.close()
    os.makedirs(OUT, exist_ok=True)
    spans.dump(wrappers.roots, os.path.join(OUT, "verify-spans.jsonl"))

    # The traced end-to-end time is the pipeline spans' own, which
    # include the calibration samples' GIL holds, as the layers do.
    traced = sum(root.duration for root in cold)
    busy = spans.busy(cold)
    rows = [(layer, busy.get(layer, 0.0)) for layer in LAYERS]
    rows.append(("pipeline", busy.get("pipeline", 0.0)))
    unattributed = print_ledger("verify (one cold pass)", traced, rows)

    metrics = {
        f"{layer}.busy_s": (seconds, "s") for layer, seconds in rows[:-1]
    }
    metrics["pipeline.self_s"] = (rows[-1][1], "s")
    for name, root in zip(APPS, cold):
        metrics[f"app.{name}_s"] = (root.duration, "s")
    metrics["pipeline.cache.hits"] = (
        sum(result.cache_hits for result in results), "count"
    )
    metrics["pipeline.cache.misses"] = (
        sum(result.cache_misses for result in results), "count"
    )
    parts = [
        part for name in APPS for part in passes.counters.get(name, ())
    ]
    hits = sum(part[2] for part in parts)
    misses = sum(part[3] for part in parts)
    metrics["algebraic.rewriting.rewrite_steps"] = (
        sum(part[4] for part in parts), "count"
    )
    metrics["algebraic.rewriting.hit_rate"] = (
        hits / (hits + misses), "fraction"
    )
    metrics["trace.total_s"] = (traced, "s")
    metrics["trace.unattributed_frac"] = (unattributed, "fraction")
    metrics["trace.overhead_frac"] = (
        (traced_scaled - untraced) / untraced, "fraction"
    )
    return metrics

