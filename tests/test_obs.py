"""Tests for the observability plane (PR 8, :mod:`repro.obs`).

Covers the metrics registry and its JSON/Prometheus exports, the
engine/sweep harvests, structured span tracing (writer, JSONL journal,
summary), the live progress renderer, per-cell cProfile capture, the
zero-cost-when-disabled structural guarantees, the declared-metrics
schema fallback for all-failed grids, the CLI surfaces (``run -v``,
``--progress``, ``--trace-summary``, ``--profile``, the ``metrics``
subcommand), and the acceptance reconciliation: a chaos sweep's span
stream — its ledger — agrees exactly with ``ResultSet.failures()``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import Experiment
from repro.harness.registry import register
from repro.harness.result import ScenarioResult
from repro.harness.runner import (
    run_matrix,
    shutdown_warm_pool,
    spans_path,
    warm_pool_stats,
)
from repro.obs import (
    MetricsRegistry,
    ProgressRenderer,
    SpanWriter,
    disable_metrics,
    enable_metrics,
    format_span_summary,
    harvest_simulator,
    hotspot_table,
    merge_profiles,
    metrics_enabled,
    profile_call,
    profiling_requested,
    read_spans,
    registry,
    reset_metrics,
    span_summary,
)


@dataclasses.dataclass
class ObsProbeResult(ScenarioResult):
    value: float
    doubled: float


@register("obs_probe", grid={"seed": (0, 1, 2, 3)})
def obs_probe(seed: int = 0, scale: float = 2.0) -> ObsProbeResult:
    """A cheap deterministic scenario for observability tests."""
    value = random.Random(seed).random() * scale
    return ObsProbeResult(value=value, doubled=value * 2)


@pytest.fixture(autouse=True)
def _clean_obs_state(monkeypatch):
    """Every test starts and ends with the obs plane off and empty."""
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
    disable_metrics()
    reset_metrics()
    yield
    disable_metrics()
    reset_metrics()


# ----------------------------------------------------------------------
# the metrics registry itself
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", "help text")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labeled_series_are_independent_and_sorted(self):
        reg = MetricsRegistry()
        c = reg.counter("drops")
        c.inc(2, color="RED", link="b")
        c.inc(1, link="a", color="GREEN")
        c.inc(1, color="RED", link="b")
        assert c.value(link="b", color="RED") == 3
        labels = [labels for labels, _ in c.series()]
        # deterministic order: sorted by canonical label key
        assert labels == [
            {"color": "GREEN", "link": "a"},
            {"color": "RED", "link": "b"},
        ]

    def test_gauge_holds_last_set(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5)
        g.set(2)
        assert g.value() == 2.0

    def test_histogram_buckets_and_sum(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        raw = h.value()
        assert raw["count"] == 4
        assert raw["sum"] == pytest.approx(55.55)
        # bucket counts are cumulative (le semantics)
        assert raw["buckets"] == [1, 2, 3]

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.counter("x").set(1)

    def test_create_or_return_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("n") is reg.counter("n")

    def test_unwritten_series_raises_keyerror(self):
        reg = MetricsRegistry()
        with pytest.raises(KeyError):
            reg.counter("n").value()

    def test_to_json_shape(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "things").inc(3, kind="x")
        snapshot = reg.to_json()
        assert snapshot == {
            "a_total": {
                "kind": "counter",
                "help": "things",
                "series": [{"labels": {"kind": "x"}, "value": 3.0}],
            }
        }
        # the snapshot round-trips through json
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_to_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests").inc(7, code="200")
        reg.gauge("depth").set(3)
        text = reg.to_prometheus()
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{code="200"} 7' in text
        assert "depth 3" in text
        assert text.endswith("\n")

    def test_to_prometheus_histogram_is_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        h.observe(50.0)
        text = reg.to_prometheus()
        assert 'lat_bucket{le="1.0"} 1' in text
        assert 'lat_bucket{le="10.0"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text
        assert "lat_sum 55.5" in text

    def test_clear_empties_registry(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.clear()
        assert reg.to_json() == {}


# ----------------------------------------------------------------------
# the enable gate and zero-cost structure
# ----------------------------------------------------------------------
class TestMetricsGate:
    def test_disabled_by_default(self):
        from repro.sim import engine

        assert not metrics_enabled()
        assert engine._obs_run_hook is None

    def test_enable_disable_toggle_engine_hook(self):
        from repro.sim import engine

        enable_metrics()
        assert metrics_enabled()
        assert engine._obs_run_hook is not None
        disable_metrics()
        assert not metrics_enabled()
        assert engine._obs_run_hook is None

    def test_disabled_simulator_tracks_no_links(self):
        from repro.sim.engine import Simulator
        from repro.sim.topology import Network

        sim = Simulator()
        assert sim._obs_links is None  # structurally absent, not empty
        net = Network(sim)
        net.add_simplex_link("a", "b", rate_bps=8e6, delay=0.01)
        assert sim._obs_links is None

    def test_enabled_simulator_tracks_links(self):
        from repro.sim.engine import Simulator
        from repro.sim.topology import Network

        enable_metrics()
        sim = Simulator()
        net = Network(sim)
        net.add_simplex_link("a", "b", rate_bps=8e6, delay=0.01)
        net.add_simplex_link("b", "a", rate_bps=8e6, delay=0.01)
        assert [link.name for link in sim._obs_links] == ["a->b", "b->a"]

    def test_env_enables_at_import(self):
        code = (
            "from repro.obs.metrics import metrics_enabled; "
            "from repro.sim import engine; "
            "print(metrics_enabled() and engine._obs_run_hook is not None)"
        )
        env = {**os.environ, "REPRO_METRICS": "1",
               "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == "True"

    def test_env_zero_means_disabled(self):
        code = "from repro.obs.metrics import metrics_enabled; print(metrics_enabled())"
        env = {**os.environ, "REPRO_METRICS": "0",
               "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == "False"


class TestEngineHarvest:
    def _run_small_sim(self):
        from repro.sim.engine import Simulator
        from repro.sim.node import Agent
        from repro.sim.packet import Packet
        from repro.sim.topology import Network

        sim = Simulator()
        net = Network(sim)
        net.add_simplex_link("a", "b", rate_bps=8e6, delay=0.01)
        net.compute_routes()

        class Sink(Agent):
            def receive(self, packet):
                pass

        Sink(sim).attach(net.node("b"), "f")
        for _ in range(10):
            net.node("a").send(Packet(src="a", dst="b", flow_id="f", size=1000))
        sim.run()
        return sim

    def test_run_exit_hook_publishes_engine_series(self):
        enable_metrics()
        self._run_small_sim()
        snapshot = registry().to_json()
        events = snapshot["repro_engine_events_total"]["series"][0]["value"]
        assert events > 0
        assert "repro_engine_heap_depth" in snapshot
        assert "repro_engine_events_per_second" in snapshot

    def test_queue_counters_labeled_by_link_and_color(self):
        enable_metrics()
        self._run_small_sim()
        accepts = registry().gauge("repro_queue_accepts")
        # untagged packets default to RED (out-of-profile best effort)
        assert accepts.value(link="a->b", color="RED") == 10

    def test_manual_harvest_with_metrics_off(self):
        # harvest_simulator is callable explicitly on any live simulator
        sim = self._run_small_sim()
        harvest_simulator(sim)
        events = registry().counter("repro_engine_events_total").value()
        assert events == sim.events_processed

    def test_disabled_run_publishes_nothing(self):
        self._run_small_sim()
        assert registry().to_json() == {}


# ----------------------------------------------------------------------
# span tracing
# ----------------------------------------------------------------------
class TestSpanWriter:
    def test_events_collect_with_timestamps(self):
        writer = SpanWriter()
        writer({"event": "queued", "i": 0})
        writer({"event": "done", "i": 0, "wall": 0.5})
        assert [e["event"] for e in writer.events] == ["queued", "done"]
        assert all(e["t"] >= 0 for e in writer.events)
        # monotone non-decreasing timestamps
        assert writer.events[0]["t"] <= writer.events[1]["t"]

    def test_header_event_emitted_first(self):
        writer = SpanWriter(header={"scenario": "s", "cells": 4})
        assert writer.events[0]["event"] == "sweep"
        assert writer.events[0]["cells"] == 4

    def test_jsonl_journal_round_trips(self, tmp_path):
        path = tmp_path / "deep" / "s.spans.jsonl"  # parent dir is created
        with SpanWriter(str(path), header={"scenario": "s", "cells": 1}) as w:
            w({"event": "queued", "i": 0})
            w({"event": "done", "i": 0, "wall": 0.1})
        events = read_spans(str(path))
        assert [e["event"] for e in events] == ["sweep", "queued", "done"]
        # every persisted line is valid standalone JSON
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_read_spans_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "s.spans.jsonl"
        path.write_text('{"event": "queued", "i": 0}\n{"event": "do')
        events = read_spans(str(path))
        assert len(events) == 1 and events[0]["event"] == "queued"

    def test_append_after_torn_tail_keeps_the_new_event(self, tmp_path):
        # a kill mid-write left a torn last line; the resumed writer must
        # not glue its first event onto the garbage
        path = tmp_path / "s.spans.jsonl"
        path.write_text('{"event": "done", "i": 0}\n{"event": "done", "i": 1, "wa')
        with SpanWriter(str(path), append=True) as w:
            w({"event": "done", "i": 2})
        events = read_spans(str(path))
        assert [e["i"] for e in events] == [0, 2]

    def test_no_path_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with SpanWriter() as w:
            w({"event": "queued", "i": 0})
        assert list(tmp_path.iterdir()) == []


SYNTHETIC_SPANS = [
    {"event": "sweep", "scenario": "s", "cells": 4, "t": 0.0},
    {"event": "queued", "i": 0, "t": 0.01},
    {"event": "dispatched", "i": 0, "attempt": 1, "worker": 11, "t": 0.02},
    {"event": "retry", "i": 0, "attempt": 1, "kind": "error", "delay": 0.1,
     "t": 0.3},
    {"event": "done", "i": 0, "wall": 0.6, "cpu": 0.5, "worker": 11,
     "attempts": 2, "cached": False, "t": 1.0},
    {"event": "done", "i": 1, "wall": 0.4, "cpu": 0.3, "worker": 12,
     "attempts": 1, "cached": False, "t": 1.2},
    {"event": "done", "i": 2, "wall": 0.0, "cpu": 0.0, "worker": None,
     "attempts": 1, "cached": True, "t": 1.3},
    {"event": "failed", "i": 3, "kind": "timeout", "error": "TimeoutError",
     "attempts": 2, "wall": 2.0, "t": 2.0},
]


class TestSpanSummary:
    def test_aggregates(self):
        s = span_summary(SYNTHETIC_SPANS)
        assert s["scenario"] == "s"
        assert s["cells"] == 4
        assert s["done"] == 3 and s["failed"] == 1 and s["cached"] == 1
        assert s["retries"] == 1
        assert s["wall_total"] == pytest.approx(1.0)
        assert s["wall_mean"] == pytest.approx(0.5)
        assert s["wall_max"] == pytest.approx(0.6)
        assert s["cpu_total"] == pytest.approx(0.8)
        assert s["duration"] == pytest.approx(2.0)
        assert s["workers"][11]["cells"] == 1
        assert s["workers"][11]["busy"] == pytest.approx(0.6)
        assert s["workers"][11]["utilization"] == pytest.approx(0.3)

    def test_format_renders_counts_and_workers(self):
        text = format_span_summary(SYNTHETIC_SPANS)
        assert "trace summary: s (4 cells" in text
        assert "done=3 failed=1 cached=1 retries=1" in text
        assert "worker" in text and "11" in text

    def test_empty_stream(self):
        s = span_summary([])
        assert s["cells"] == 0 and s["workers"] == {}
        assert "0 cells" in format_span_summary([])


class TestProgressRenderer:
    def test_non_tty_prints_line_per_completion(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream=stream)
        for event in SYNTHETIC_SPANS:
            renderer(event)
        renderer.close()
        out = stream.getvalue()
        lines = out.strip().splitlines()
        # 3 done + 1 failed completions -> 4 progress lines, then workers
        assert lines[0].startswith("[1/4] ok=1 failed=0 retried=1 cached=0")
        assert "[4/4] ok=3 failed=1 retried=1 cached=1" in out
        assert "worker 11: 1 cells" in out
        assert "worker 12: 1 cells" in out

    def test_eta_appears_while_cells_remain(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(total=4, stream=stream)
        renderer({"event": "done", "i": 0, "wall": 0.1, "worker": 1,
                  "attempts": 1, "cached": False})
        assert "eta=" in stream.getvalue()

    def test_total_adopted_from_sweep_header(self):
        renderer = ProgressRenderer(stream=io.StringIO())
        renderer({"event": "sweep", "scenario": "s", "cells": 7})
        assert renderer.total == 7


# ----------------------------------------------------------------------
# profiling
# ----------------------------------------------------------------------
class TestProfiling:
    def test_profile_call_returns_result_and_stats(self):
        def work(n):
            return sum(range(n))

        result, stats = profile_call(work, 1000)
        assert result == sum(range(1000))
        assert stats  # captured at least the profiled call itself
        key = next(iter(stats))
        assert len(key) == 3 and len(stats[key]) == 4

    def test_merge_sums_and_skips_none(self):
        a = {("f.py", 1, "f"): (1, 1, 0.5, 0.6)}
        b = {("f.py", 1, "f"): (2, 2, 0.25, 0.3),
             ("g.py", 2, "g"): (1, 1, 0.1, 0.1)}
        merged = merge_profiles([a, None, b])
        assert merged[("f.py", 1, "f")] == pytest.approx((3, 3, 0.75, 0.9))
        assert merged[("g.py", 2, "g")] == (1, 1, 0.1, 0.1)

    def test_hotspot_table_sorted_by_self_time(self):
        merged = {
            ("cold.py", 1, "cold"): (1, 1, 0.1, 0.1),
            ("hot.py", 2, "hot"): (5, 5, 2.0, 2.5),
        }
        text = hotspot_table(merged, top=1)
        assert "hot.py:2:hot" in text and "cold" not in text

    def test_hotspot_table_empty(self):
        assert hotspot_table({}) == "profile: no samples captured"

    def test_env_gate(self, monkeypatch):
        assert not profiling_requested()
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert profiling_requested()
        monkeypatch.setenv("REPRO_PROFILE", "0")
        assert not profiling_requested()


# ----------------------------------------------------------------------
# observer events through the runner (serial and pool paths)
# ----------------------------------------------------------------------
class TestObserverEvents:
    def test_serial_sweep_emits_full_lifecycle(self):
        events = []
        records = run_matrix(
            "obs_probe", {"seed": (0, 1)}, cache_dir=None,
            observer=events.append,
        )
        kinds = [e["event"] for e in events]
        assert kinds == ["queued", "queued", "dispatched", "done",
                         "dispatched", "done"]
        done = [e for e in events if e["event"] == "done"]
        assert [e["i"] for e in done] == [0, 1]
        assert all(e["worker"] == os.getpid() for e in done)
        assert all(e["wall"] >= 0 and e["attempts"] == 1 for e in done)
        assert len(records) == 2

    def test_pool_sweep_emits_worker_pids(self):
        events = []
        run_matrix(
            "obs_probe", {"seed": (0, 1, 2, 3)}, cache_dir=None,
            workers=2, observer=events.append,
        )
        done = [e for e in events if e["event"] == "done"]
        assert len(done) == 4
        workers = {e["worker"] for e in done}
        assert workers and os.getpid() not in workers
        dispatched = [e for e in events if e["event"] == "dispatched"]
        assert {e["i"] for e in dispatched} == {0, 1, 2, 3}

    def test_cache_hits_emit_done_cached(self, tmp_path):
        run_matrix("obs_probe", {"seed": (0,)}, cache_dir=tmp_path)
        events = []
        run_matrix(
            "obs_probe", {"seed": (0,)}, cache_dir=tmp_path,
            observer=events.append,
        )
        assert [e["event"] for e in events] == ["done"]
        assert events[0]["cached"] is True

    def test_serial_retry_emits_retry_events(self, monkeypatch):
        from repro.harness.faults import parse_fault_plan

        plan = parse_fault_plan(
            '[{"kind": "raise", "match": {"seed": 0}, "times": 1}]'
        )
        events = []
        records = run_matrix(
            "obs_probe", {"seed": (0,)}, cache_dir=None,
            max_retries=2, strict=False, faults=plan,
            observer=events.append,
        )
        retries = [e for e in events if e["event"] == "retry"]
        assert len(retries) == 1
        assert retries[0]["i"] == 0 and retries[0]["attempt"] == 1
        assert retries[0]["kind"] == "error" and retries[0]["delay"] >= 0
        assert events[-1]["event"] == "done"
        assert events[-1]["attempts"] == 2
        assert records[0].ok and records[0].attempts == 2

    def test_terminal_failure_emits_failed(self, monkeypatch):
        from repro.harness.faults import parse_fault_plan

        plan = parse_fault_plan('[{"kind": "raise", "match": {"seed": 1}}]')
        events = []
        records = run_matrix(
            "obs_probe", {"seed": (0, 1)}, cache_dir=None,
            strict=False, faults=plan, observer=events.append,
        )
        failed = [e for e in events if e["event"] == "failed"]
        assert len(failed) == 1
        assert failed[0]["i"] == 1 and failed[0]["kind"] == "error"
        assert not records[1].ok


# ----------------------------------------------------------------------
# Experiment integration: trace / profile / metrics surfaces
# ----------------------------------------------------------------------
class TestExperimentObs:
    def test_trace_collects_spans_and_journals(self, tmp_path):
        results = (
            Experiment("obs_probe")
            .sweep(seed=(0, 1))
            .cache(tmp_path)
            .trace(True)
            .run()
        )
        assert results.spans is not None
        assert results.spans[0]["event"] == "sweep"
        assert results.spans[0]["scenario"] == "obs_probe"
        assert results.spans[0]["cells"] == 2
        path = tmp_path / "obs_probe.spans.jsonl"
        assert path.exists()
        persisted = read_spans(str(path))
        assert [e["event"] for e in persisted] == \
            [e["event"] for e in results.spans]

    def test_untraced_run_has_no_spans(self):
        results = Experiment("obs_probe").sweep(seed=(0,)).cache(None).run()
        assert results.spans is None

    def test_trace_without_cache_stays_in_memory(self):
        results = (
            Experiment("obs_probe").sweep(seed=(0,)).cache(None)
            .trace(True).run()
        )
        assert results.spans is not None
        assert sum(1 for e in results.spans if e["event"] == "done") == 1

    def test_profile_attaches_compact_stats(self):
        results = (
            Experiment("obs_probe").sweep(seed=(0,)).cache(None)
            .profile(True).run()
        )
        (record,) = list(results)
        assert record.profile
        merged = merge_profiles(r.profile for r in results)
        assert "hotspots" in hotspot_table(merged)

    def test_profile_stripped_from_cache(self, tmp_path):
        (
            Experiment("obs_probe").sweep(seed=(0,)).cache(tmp_path)
            .profile(True).run()
        )
        results = (
            Experiment("obs_probe").sweep(seed=(0,)).cache(tmp_path)
            .profile(True).run()
        )
        (record,) = list(results)
        assert record.cached and record.profile is None

    def test_profile_env_twin(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        records = run_matrix("obs_probe", {"seed": (0,)}, cache_dir=None)
        assert records[0].profile

    def test_profile_survives_pool_pickling(self):
        results = (
            Experiment("obs_probe").sweep(seed=(0, 1)).workers(2).cache(None)
            .profile(True).run()
        )
        assert all(r.profile for r in results)

    def test_metrics_harvested_when_enabled(self):
        enable_metrics()
        results = Experiment("obs_probe").sweep(seed=(0, 1)).cache(None).run()
        snapshot = results.metrics()
        assert snapshot is not None
        cells = snapshot["repro_sweep_cells_total"]["series"]
        assert {"labels": {"status": "ok"}, "value": 2.0} in cells
        assert "repro_sweep_cell_seconds" in snapshot
        assert "repro_warm_pool" in snapshot

    def test_metrics_none_when_disabled(self):
        results = Experiment("obs_probe").sweep(seed=(0,)).cache(None).run()
        assert results.metrics() is None

    def test_progress_callback_and_observer_compose(self):
        events, records_seen = [], []
        results = (
            Experiment("obs_probe").sweep(seed=(0, 1)).cache(None)
            .trace(True)
            .run(progress=records_seen.append, observer=events.append)
        )
        # external observer sees the same stream the writer journals
        assert [e["event"] for e in events] == \
            [e["event"] for e in results.spans]
        assert len(records_seen) == 2

    def test_n_cells(self):
        exp = Experiment("obs_probe").sweep(seed=(0, 1, 2)).configure(scale=1.0)
        assert exp.n_cells() == 3
        assert Experiment("obs_probe").n_cells() == 4  # default grid


# ----------------------------------------------------------------------
# S2: all-failed grids still export an explicit schema
# ----------------------------------------------------------------------
class TestDeclaredSchemaFallback:
    def test_resultset_metric_names_fall_back_to_declared(self):
        from repro.api.resultset import ResultSet
        from repro.harness.faults import parse_fault_plan

        plan = parse_fault_plan('[{"kind": "raise"}]')
        records = run_matrix(
            "obs_probe", {"seed": (0, 1)}, cache_dir=None,
            strict=False, faults=plan,
        )
        rs = ResultSet(records, declared_metrics=["value", "doubled"])
        assert rs.metric_names == ["value", "doubled"]

    def test_experiment_threads_declared_schema(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", '[{"kind": "raise"}]')
        results = (
            Experiment("obs_probe").sweep(seed=(0, 1)).cache(None)
            .run(on_failure="keep")
        )
        assert results.coverage() == 0.0
        assert "value" in results.metric_names
        assert "doubled" in results.metric_names
        header = results.to_csv().splitlines()[0].split(",")
        assert "value" in header and "doubled" in header
        payload = json.loads(results.to_json())
        assert payload[0]["failure"]["kind"] == "error"

    def test_failures_slice_keeps_failure_kind_column(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", '[{"kind": "raise"}]')
        results = (
            Experiment("obs_probe").sweep(seed=(0, 1)).cache(None)
            .run(on_failure="keep")
        )
        # the pinned chaos contract: failure slices expose failure_kind
        assert "failure_kind" in results.failures().metric_names


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
class TestCliObs:
    def _run(self, argv, capsys):
        from repro.harness.cli import main

        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_verbose_prints_cache_and_pool_stats(self, tmp_path, capsys):
        argv = ["run", "obs_probe", "--sweep", "seed=0,1",
                "--cache-dir", str(tmp_path), "--quiet", "-v"]
        code, _, err = self._run(argv, capsys)
        assert code == 0
        assert "cache: 0 hits, 2 misses" in err
        assert "warm pool: " in err
        for key in ("created=", "repaired=", "reused=", "transient="):
            assert key in err
        # second invocation is all cache hits
        code, _, err = self._run(argv, capsys)
        assert code == 0
        assert "cache: 2 hits, 0 misses" in err

    def test_progress_renders_on_stderr_stdout_stays_pure(self, capsys):
        code, out, err = self._run(
            ["run", "obs_probe", "--sweep", "seed=0,1", "--no-cache",
             "--quiet", "--progress", "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert "[2/2] ok=2" in err
        assert f"worker {os.getpid()}:" in err
        # stdout parses as pure csv
        header = out.splitlines()[0]
        assert "seed" in header and "[" not in out

    def test_trace_summary_on_stderr(self, tmp_path, capsys):
        code, _, err = self._run(
            ["run", "obs_probe", "--sweep", "seed=0,1",
             "--cache-dir", str(tmp_path), "--quiet", "--trace-summary"],
            capsys,
        )
        assert code == 0
        assert "trace summary: obs_probe (2 cells" in err
        assert "done=2 failed=0" in err
        assert (tmp_path / "obs_probe.spans.jsonl").exists()

    def test_profile_flag_prints_hotspots(self, capsys):
        code, _, err = self._run(
            ["run", "obs_probe", "--sweep", "seed=0", "--no-cache",
             "--quiet", "--profile"],
            capsys,
        )
        assert code == 0
        assert "profile hotspots" in err

    def test_sweep_workers_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        code, _, err = self._run(
            ["run", "obs_probe", "--sweep", "seed=0,1", "--no-cache",
             "--quiet", "--progress"],
            capsys,
        )
        assert code == 0
        # pool path engaged: completions ran in child processes
        assert f"worker {os.getpid()}:" not in err
        assert "worker " in err

    def test_sweep_workers_env_invalid_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "lots")
        code, _, err = self._run(
            ["run", "obs_probe", "--sweep", "seed=0", "--no-cache"],
            capsys,
        )
        assert code == 2
        assert "REPRO_SWEEP_WORKERS must be an integer" in err

    def test_metrics_subcommand_json(self, capsys):
        code, out, err = self._run(
            ["metrics", "obs_probe", "--sweep", "seed=0,1", "--no-cache"],
            capsys,
        )
        assert code == 0
        snapshot = json.loads(out)
        cells = snapshot["repro_sweep_cells_total"]["series"]
        assert {"labels": {"status": "ok"}, "value": 2.0} in cells

    def test_metrics_subcommand_prometheus(self, capsys):
        code, out, _ = self._run(
            ["metrics", "obs_probe", "--sweep", "seed=0,1", "--no-cache",
             "--format", "prometheus"],
            capsys,
        )
        assert code == 0
        assert "# TYPE repro_sweep_cells_total counter" in out
        assert 'repro_sweep_cells_total{status="ok"} 2' in out

    def test_metrics_subcommand_reports_failures(self, capsys, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", '[{"kind": "raise", "match": {"seed": 1}}]'
        )
        code, out, err = self._run(
            ["metrics", "obs_probe", "--sweep", "seed=0,1", "--no-cache"],
            capsys,
        )
        assert code == 1
        snapshot = json.loads(out)  # stdout still pure data
        statuses = {
            tuple(s["labels"].items()): s["value"]
            for s in snapshot["repro_sweep_cells_total"]["series"]
        }
        assert statuses[(("status", "failed"),)] == 1.0
        assert "1 of 2 runs failed terminally" in err


# ----------------------------------------------------------------------
# acceptance: chaos sweep spans reconcile with failures and the ledger
# ----------------------------------------------------------------------
class TestChaosSpanReconciliation:
    def test_spans_match_resultset_and_ledger_fold(self, tmp_path,
                                                   monkeypatch):
        # seed 0: transient fault (one retry then success);
        # seed 2: terminal failure (every attempt faulted)
        monkeypatch.setenv("REPRO_FAULTS", json.dumps([
            {"kind": "raise", "match": {"seed": 0}, "times": 1},
            {"kind": "raise", "match": {"seed": 2}, "times": None},
        ]))
        results = (
            Experiment("obs_probe")
            .sweep(seed=(0, 1, 2, 3))
            .cache(tmp_path)
            .retries(1)
            .trace(True)
            .run(on_failure="keep")
        )
        records = list(results)
        spans = read_spans(str(tmp_path / "obs_probe.spans.jsonl"))

        # --- spans vs ResultSet.failures() -------------------------------
        failed_spans = [e for e in spans if e["event"] == "failed"]
        failures = list(results.failures())
        assert len(failed_spans) == len(failures) == 1
        assert records[failed_spans[0]["i"]].params["seed"] == 2
        assert failed_spans[0]["kind"] == failures[0].result.failure_kind
        assert failed_spans[0]["attempts"] == failures[0].attempts == 2

        # --- spans vs per-record attempt counts --------------------------
        retry_spans = [e for e in spans if e["event"] == "retry"]
        assert sum(1 for e in retry_spans) == \
            sum(r.attempts - 1 for r in records)
        assert {e["i"] for e in retry_spans} == {0, 2}

        # --- the ledger's fold vs ResultSet.failures() -------------------
        outcomes = {
            e["i"]: e["event"] for e in spans
            if e["event"] in ("done", "failed")
        }
        assert outcomes == {0: "done", 1: "done", 2: "failed", 3: "done"}
        assert {i for i, o in outcomes.items() if o == "failed"} == \
            {records.index(r) for r in failures}

        # --- every fresh cell has a complete lifecycle -------------------
        done_spans = [e for e in spans if e["event"] == "done"]
        assert len(done_spans) + len(failed_spans) == len(records)
        queued = {e["i"] for e in spans if e["event"] == "queued"}
        dispatched = {e["i"] for e in spans if e["event"] == "dispatched"}
        assert queued == dispatched == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# zero-cost-when-disabled: the structural proof (fast, deterministic)
# ----------------------------------------------------------------------
class TestObsStructurallyAbsent:
    def test_disabled_sweep_never_enters_obs_code(self):
        """With everything off, a sweep executes zero repro.obs frames.

        Stronger than any timing bound: sys.setprofile sees every
        Python call, so a hook accidentally left on a hot path shows up
        deterministically regardless of host noise.
        """
        obs_dir = os.sep + os.path.join("repro", "obs") + os.sep
        offenders = []

        def tracer(frame, event, arg):
            if event == "call" and obs_dir in frame.f_code.co_filename:
                offenders.append(
                    (frame.f_code.co_filename, frame.f_code.co_name)
                )

        sys.setprofile(tracer)
        try:
            run_matrix("obs_probe", {"seed": (0, 1)}, cache_dir=None)
        finally:
            sys.setprofile(None)
        # the single permitted entry: the once-per-sweep setup gate that
        # resolves the REPRO_PROFILE flag at run_matrix entry
        assert [name for _, name in offenders] == ["profiling_requested"]

    def test_disabled_engine_loop_carries_no_hook(self):
        from repro.sim import engine

        assert engine._obs_run_hook is None
        # and the per-simulator link list is absent, not merely empty
        assert engine.Simulator()._obs_links is None


# ----------------------------------------------------------------------
# the pinned overhead guards (slow tier)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestObsOverhead:
    """Wall-clock bounds on the obs plane, paired-sample design.

    Single measurements on this workload are noisy (pool scheduling,
    host drift), so each guard times the two variants back to back and
    takes the MINIMUM ratio over many pairs: adjacent runs share the
    ambient drift, and a genuine structural regression (a hook on a
    per-event path costs multiples, not percents) shifts every pair,
    while one noisy sample cannot fail the guard.
    """

    BASE = dict(
        target_bps=4e6, n_cross=1, duration=0.5, warmup=0.1,
        bottleneck_bps=4e6,
    )

    @classmethod
    def _serial_plain(cls):
        run_matrix(
            "af_assurance", {"protocol": ("qtpaf",)}, base=cls.BASE,
            seeds=range(4), workers=1, cache_dir=None,
        )

    @staticmethod
    def _min_ratio(variant, plain, pairs=12):
        def timed(fn):
            start = time.perf_counter()
            fn()
            return time.perf_counter() - start

        plain()
        variant()  # both warm before any pair is timed
        return min(timed(variant) / timed(plain) for _ in range(pairs))

    def test_disabled_overhead_under_two_percent(self):
        """The disabled obs plumbing costs <2% on a serial sweep."""

        def facade_disabled():
            (
                Experiment("af_assurance")
                .sweep(protocol=("qtpaf",))
                .configure(**self.BASE)
                .seeds(range(4))
                .workers(1)
                .cache(None)
                .run()
            )

        ratio = self._min_ratio(facade_disabled, self._serial_plain)
        assert ratio < 1.02, (
            f"disabled observability costs {ratio - 1.0:.1%} on every "
            f"paired sample of the serial sweep"
        )

    def test_enabled_overhead_under_ten_percent(self):
        """Metrics + tracing + observer armed cost <10% on the sweep."""
        from repro.obs.metrics import (
            disable_metrics,
            enable_metrics,
            reset_metrics,
        )

        def fully_armed():
            enable_metrics()
            try:
                reset_metrics()
                events = []
                (
                    Experiment("af_assurance")
                    .sweep(protocol=("qtpaf",))
                    .configure(**self.BASE)
                    .seeds(range(4))
                    .workers(1)
                    .cache(None)
                    .trace(True)
                    .run(observer=events.append)
                )
            finally:
                disable_metrics()

        ratio = self._min_ratio(fully_armed, self._serial_plain)
        assert ratio < 1.10, (
            f"enabled observability costs {ratio - 1.0:.1%} on every "
            f"paired sample of the serial sweep"
        )

    def test_pool_obs_bench_overhead_under_ten_percent(self):
        """The pinned pool-path bench vs the warm sweep (nightly twin)."""
        from repro.harness.bench import _bench_obs_overhead, _bench_sweep_warm

        shutdown_warm_pool()
        _bench_sweep_warm()  # pay the pool spawn outside the timings
        ratio = self._min_ratio(_bench_obs_overhead, _bench_sweep_warm)
        assert ratio < 1.10, (
            f"armed obs bench costs {ratio - 1.0:.1%} on every paired "
            f"sample of the warm pool sweep"
        )
