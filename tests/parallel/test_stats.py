"""Unit tests for the verification-statistics records, their
span-tree view, and the ``--stats-json`` output it produces."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.tracer import Span, Tracer, activate, span
from repro.parallel import VerificationStats, parts_of, stats_scope
from repro.parallel.stats import counter_delta, engine_counters

DATA = Path(__file__).resolve().parent / "data"


class _FakeEngine:
    def __init__(self, hits, misses, steps, dispatch=0):
        self.cache_hits = hits
        self.cache_misses = misses
        self.rewrite_steps = steps
        self.dispatch_hits = dispatch


class TestCounters:
    def test_engine_counters_sums_and_skips_none(self):
        counters = engine_counters(
            _FakeEngine(3, 1, 7, dispatch=4), None, _FakeEngine(2, 2, 0)
        )
        # interned_terms is a process-wide gauge, not a per-engine sum.
        assert counters.pop("interned_terms") >= 0
        assert counters == {
            "cache_hits": 5,
            "cache_misses": 3,
            "rewrite_steps": 7,
            "dispatch_hits": 4,
        }

    def test_counter_delta(self):
        before = engine_counters(_FakeEngine(3, 1, 7, dispatch=2))
        after = engine_counters(_FakeEngine(10, 4, 9, dispatch=5))
        delta = counter_delta(before, after, items=6)
        # No terms were built between the two snapshots.
        assert delta.pop("interned_terms") == 0
        assert delta == {
            "cache_hits": 7,
            "cache_misses": 3,
            "rewrite_steps": 2,
            "dispatch_hits": 3,
            "items": 6,
        }

    def test_counter_delta_clamps_interned_shrinkage(self):
        # A garbage collection between snapshots can shrink the intern
        # table; the reported growth never goes negative.
        before = {"interned_terms": 10}
        after = {"interned_terms": 4}
        assert counter_delta(before, after)["interned_terms"] == 0


class TestMerge:
    def test_combine_keeps_parts(self):
        a = VerificationStats("explore", workers=4, states_checked=125,
                              cache_hits=10, wall_time=1.0)
        b = VerificationStats("coverage", workers=1, states_checked=50,
                              cache_misses=5, wall_time=0.5)
        bundle = VerificationStats.combine("verify", [a, b])
        assert bundle.workers == 4
        assert bundle.states_checked == 175
        assert bundle.cache_hits == 10
        assert bundle.cache_misses == 5
        assert bundle.wall_time == 1.5
        assert [p.label for p in bundle.parts] == ["explore", "coverage"]

    def test_hit_rate_zero_when_untouched(self):
        assert VerificationStats("x").cache_hit_rate == 0.0


class TestSerialization:
    def test_to_dict_round_trips_through_json(self):
        (record,) = parts_of([_pass("inclusion.reachable", items=3)])
        loaded = json.loads(record.to_json())
        assert loaded["label"] == "reachable"
        assert loaded["states_checked"] == 3
        assert loaded["per_worker"][0]["worker"] == 0
        assert VerificationStats.from_dict(loaded) == record

    def test_str_is_informative(self):
        text = str(VerificationStats("explore", workers=4,
                                     states_checked=125))
        assert "explore" in text
        assert "workers=4" in text
        assert "125" in text


def _pass(name, workers=1, children=(), **counters):
    """A closed span as a pass records it."""
    built = Span(name, {"workers": workers}, start=1.0)
    built.end = 1.5
    built.counters = dict(counters)
    built.children = list(children)
    return built


def _chunk(worker, **counters):
    built = _pass("chunk", **counters)
    built.attrs = {"worker": worker}
    return built


class TestSpanView:
    def test_serial_pass_is_one_worker_entry(self):
        (part,) = parts_of(
            [_pass("static", items=25, cache_hits=318, cache_misses=156,
                   rewrite_steps=150, dispatch_hits=292,
                   interned_terms=7, **{"static.violations": 0})]
        )
        assert part.label == "static"
        assert part.workers == 1
        assert (part.states_checked, part.cache_hits, part.cache_misses,
                part.rewrite_steps, part.dispatch_hits,
                part.interned_terms) == (25, 318, 156, 150, 292, 7)
        assert part.wall_time == 0.5
        assert part.per_worker == ({
            "worker": 0, "items": 25, "cache_hits": 318,
            "cache_misses": 156, "rewrite_steps": 150,
            "dispatch_hits": 292, "interned_terms": 7, "wall_time": 0.5,
        },)

    def test_parallel_pass_reads_its_grafted_chunks_in_order(self):
        level = Span("explore.level", {"depth": 0})
        level.children = [
            _chunk(0, items=3, cache_hits=1),
            _chunk(1, items=2, rewrite_steps=4),
        ]
        # The pass span's own counters are not chunk work.
        tree = _pass("explore", workers=2, children=[level],
                     **{"explore.states": 5})
        (part,) = parts_of([tree])
        assert part.workers == 2
        assert [w["worker"] for w in part.per_worker] == [0, 1]
        assert [w["items"] for w in part.per_worker] == [3, 2]
        assert part.states_checked == 5
        assert part.cache_hits == 1
        assert part.rewrite_steps == 4

    def test_grammar_counters_map_onto_the_standard_fields(self):
        (part,) = parts_of([_pass("wgrammar.recognize", **{
            "wgrammar.steps": 10, "wgrammar.memo_hits": 2,
            "wgrammar.memo_entries": 5,
        })])
        assert part.label == "grammar"
        assert (part.states_checked, part.cache_hits,
                part.cache_misses) == (10, 2, 5)

    def test_nested_pass_is_listed_first(self):
        inner = _pass("explore", items=4)
        outer = _pass("inclusion.reachable", children=[inner], items=2)
        labels = [p.label for p in parts_of([outer])]
        assert labels == ["explore", "reachable"]

    def test_static_without_a_graph_explores_first(self, courses_algebra):
        from repro.applications.courses import (
            courses_information,
            courses_information_carriers,
        )
        from repro.refinement.first_second import check_static_consistency
        from repro.refinement.interpretation import Interpretation

        information = courses_information()
        with stats_scope() as scope:
            report = check_static_consistency(
                information,
                courses_information_carriers(),
                courses_algebra,
                Interpretation.homonym(
                    information, courses_algebra.signature
                ),
            )
        assert report.ok
        explore, static = scope.parts
        assert (explore.label, static.label) == ("explore", "static")
        assert static.states_checked == report.states_checked

    def test_scope_reads_only_its_own_spans_of_an_active_tracer(self):
        with activate(Tracer()) as tracer:
            with span("static", workers=1) as before:
                before.record({"items": 1})
            with span("first-second"):
                with stats_scope() as scope:
                    with span("transitions", workers=1) as mine:
                        mine.record({"items": 7})
        assert [p.label for p in scope.parts] == ["transitions"]
        assert scope.parts[0].states_checked == 7
        assert scope.tracer is tracer


def _scrub(node):
    """Zero the ambient fields, as the CI stats comparisons do."""
    if isinstance(node, dict):
        return {
            key: (0 if key in ("wall_time", "interned_terms")
                  else _scrub(value))
            for key, value in node.items()
        }
    if isinstance(node, list):
        return [_scrub(item) for item in node]
    return node


@pytest.mark.slow
@pytest.mark.parametrize(
    "flags, fixture",
    [
        (["--workers", "1"], "stats_all_w1.json"),
        (["--workers", "4", "--backend", "inline"],
         "stats_all_w4_inline.json"),
    ],
)
def test_stats_json_matches_the_golden_bundle(tmp_path, flags, fixture):
    """``verify all --stats-json`` equals the committed bundle, ambient
    fields scrubbed: same parts, labels, order, counters and per-worker
    entries.  Run in a fresh process so no earlier test warms a memo."""
    out = tmp_path / "stats.json"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-m", "repro", "verify", "all", "--quiet",
         *flags, "--stats-json", str(out)],
        env=env, check=True, capture_output=True, timeout=600,
    )
    golden = json.loads((DATA / fixture).read_text())
    assert _scrub(json.loads(out.read_text())) == golden
