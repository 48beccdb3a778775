"""Run one workload in this process and print its metrics as JSON.

Started by ``run.py`` in a fresh interpreter whose ``PYTHONPATH`` names
the source tree under test and whose ``REPRO_*`` switches are cleared.
Units cycle through the workload's scenario seeds, and a run measures
whole cycles only.  Untraced (``--trace 0``): one warm-up unit, then
as many cycles as fit in ``--seconds``; every end-to-end metric is a
median over the measured units.  The time metrics are CPU time
(``workloads.cpu_s``) rescaled by calibration-kernel samples taken
between the units (``calibrate.py``); the wall-clock figures are
printed beside them.  Traced (``--trace 1``): two untraced
units of the first seed (warm-up, then the reference for
``trace.overhead``), then traced cycles until ``--seconds`` have
passed; per-layer metrics are means per traced unit.

Every unit's outputs are checked: simulation units against the
fingerprint pinned for their workload and seed in ``pinned.json``,
campaign units by comparing warm with cold records and verifying the
campaign directory.  ``--pin`` recomputes ``pinned.json`` instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import calibrate
import layertrace
import workloads

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"


def scenario_seeds(seed: int, held_out: bool) -> List[int]:
    """The pinned scenario seeds, in the order ``--seed`` picks."""
    if held_out:
        return [workloads.HELD_OUT_SEED]
    pool = list(workloads.SCENARIO_SEEDS)
    return random.Random(seed).sample(pool, len(pool))


class Runner:
    """Runs units of one workload, checking each one's outputs."""

    def __init__(self, workload: str, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.pinned = json.loads(PINNED.read_text())
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.setup_split: Optional[Tuple[Dict[str, float], float]] = None
        self._n = 0

    def unit(self, seed: int, trace: Optional[layertrace.LayerTrace] = None
             ) -> Optional[workloads.UnitResult]:
        """One unit after a full collection; None (and counted) on failure.

        With ``trace``, the unit runs inside the trace's wall clock, and
        ``self.setup_split`` receives the layer self-times and the traced
        wall clock at the end of a simulation unit's setup.
        """
        gc.collect()
        self.attempted += 1
        self._n += 1
        if trace is not None:
            trace.start()
        try:
            if self.workload == "campaign_sweep":
                result = workloads.run_campaign_unit(
                    seed, self.workdir / f"unit{self._n}")
            else:
                on_setup = None
                if trace is not None:
                    def on_setup():
                        self.setup_split = (trace.layer_self(),
                                            trace.elapsed())
                result = workloads.run_sim_unit(self.workload, seed, on_setup)
                expected = self.pinned[self.workload].get(str(seed))
                if result.fingerprint != expected:
                    result.check_error = (
                        f"seed {seed}: fingerprint {result.fingerprint} "
                        f"!= pinned {expected}")
        except Exception as exc:  # a failed unit is counted, not fatal
            self.fail(f"seed {seed}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if trace is not None:
                trace.stop()
        if result.check_error is not None:
            self.fail(result.check_error)
            return None
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"perfbench: unit failed: {message}", file=sys.stderr)


# ----------------------------------------------------------------------
# untraced run: end-to-end metrics
# ----------------------------------------------------------------------
#: Fewest cycles a measured run makes: a median over one cycle of the
#: slowest workload (four units) moved with the machine's load.
MIN_CYCLES = 2
#: CPU seconds the calibration kernel takes on the reference machine.
#: Gated times are CPU times rescaled to that machine's speed.
REFERENCE_KERNEL_S = 0.040
#: Share of a run's time spent in the calibration kernel, about.
KERNEL_SHARE = 0.1


def kernel_samples(kernel: List[float], times: int) -> None:
    """Time the calibration kernel ``times`` times, appending to ``kernel``."""
    for _ in range(times):
        kernel.append(calibrate.sample(workloads.cpu_s))


def measure(runner: Runner, seeds: List[int], seconds: float
            ) -> Tuple[Dict[str, Dict], Dict[str, Dict]]:
    """Whole cycles over ``seeds``, as many as fit in ``seconds``.

    Every run then measures the same inputs, only in another order, so
    medians from different ``--seed`` values are comparable.  Kernel
    samples before the first unit and after every unit measure how fast
    the machine ran; their mean rescales the units' CPU times (see
    DESIGN.md, "Steadiness").
    """
    warmup = runner.unit(seeds[0])  # first-use imports and allocations
    kernel: List[float] = []
    kernel_samples(kernel, 1)
    per_unit = warmup.wall_s if warmup is not None else 1.0
    # as many samples after each unit as keep the kernel's share of the run
    times = max(1, round(KERNEL_SHARE * per_unit / kernel[0]))
    kernel_samples(kernel, times - 1)
    per_cycle = (per_unit + times * kernel[0]) * len(seeds)
    cycles = max(MIN_CYCLES, round(seconds / per_cycle))
    units: List[workloads.UnitResult] = []
    for i in range(cycles * len(seeds)):
        result = runner.unit(seeds[i % len(seeds)])
        kernel_samples(kernel, times)
        if result is not None:
            units.append(result)
        elif runner.failed > 3:
            break
    mean = statistics.mean(kernel)
    detail = workload_detail(runner.workload, units, runner)
    detail["kernel_s"] = _metric(mean, "s", len(kernel))
    detail["unit_cpu_s"] = _metric(_median([u.cpu_s for u in units]), "s",
                                   len(units))
    return end_to_end(units, REFERENCE_KERNEL_S / mean), detail


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _metric(value: float, unit: str, n: int) -> Dict:
    return {"value": value, "unit": unit, "n": n}


def end_to_end(units: List[workloads.UnitResult],
               scale: float) -> Dict[str, Dict]:
    """The gated metrics: medians over the units of CPU times, and of
    work per CPU second, rescaled by ``scale`` to the reference machine."""
    n = len(units)
    rates = [(u.hops or u.cells) / u.run_cpu_s
             for u in units if u.run_cpu_s > 0]
    return {
        "setup_s": _metric(
            scale * _median([u.setup_cpu_s for u in units]), "s", n),
        "unit_s": _metric(scale * _median([u.cpu_s for u in units]), "s", n),
        "work_per_s": _metric(_median(rates) / scale, "1/s", len(rates)),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB", 1),
    }


def workload_detail(workload: str, units: List[workloads.UnitResult],
                    runner: Runner) -> Dict[str, Dict]:
    """The workload's own names for its metrics, and wall-clock times
    (printed, not gated)."""
    n = len(units)
    detail = {
        "fail_share": _metric(
            runner.failed / runner.attempted if runner.attempted else 1.0,
            "ratio", runner.attempted),
        "wall_s": _metric(_median([u.wall_s for u in units]), "s", n),
        "setup_wall_s": _metric(_median([u.setup_s for u in units]), "s", n),
    }
    if workload != "campaign_sweep":
        detail["hops_per_s"] = _metric(
            _median([u.hops / u.run_s for u in units]), "1/s", n)
        return detail
    latencies = sorted(x for u in units for x in u.cell_latencies)
    detail["cells_per_s"] = _metric(
        _median([u.cells / u.run_s for u in units]), "1/s", n)
    detail["cached_cells_per_s"] = _metric(
        _median([u.cells / u.warm_s for u in units if u.warm_s > 0]),
        "1/s", n)
    if latencies:
        detail["cell_p50_s"] = _metric(_median(latencies), "s", len(latencies))
        # the highest decile with at least ten cells beyond it
        for pct in (99, 95, 90, 75):
            if len(latencies) * (100 - pct) / 100 >= 10:
                k = min(len(latencies) - 1, int(len(latencies) * pct / 100))
                detail[f"cell_p{pct}_s"] = _metric(
                    latencies[k], "s", len(latencies))
                break
    return detail


# ----------------------------------------------------------------------
# traced run: per-layer metrics
# ----------------------------------------------------------------------
def measure_traced(runner: Runner, seeds: List[int],
                   seconds: float) -> Dict[str, Dict]:
    runner.unit(seeds[0])
    reference = runner.unit(seeds[0])
    trace = layertrace.LayerTrace()
    trace.install()
    totals: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    traced_walls: List[float] = []
    n = 0
    start = time.perf_counter()
    try:
        while n % len(seeds) or time.perf_counter() - start < seconds:
            seed = seeds[n % len(seeds)]
            runner.setup_split = None
            result = runner.unit(seed, trace)
            n += 1
            if result is None:
                if runner.failed > 3:
                    break
                continue
            problem = trace.check() or _hop_check(trace, result)
            if problem is not None:
                runner.fail(problem)
                continue
            if seed == seeds[0]:
                traced_walls.append(trace.wall_s)
            values = layer_values(trace, result)
            if runner.setup_split is not None:
                layers, setup_wall = runner.setup_split
                values["setup.wall_s"] = setup_wall
                values["setup.traffic_fluid_topo_s"] = sum(
                    layers[name] for name in ("traffic", "fluid", "topo"))
            for key, value in values.items():
                totals[key] = totals.get(key, 0.0) + value
            for key, value in result.counters.items():
                counters[key] = counters.get(key, 0.0) + value
            counters["units"] = counters.get("units", 0) + 1
            counters["hops"] = counters.get("hops", 0) + result.hops
            counters["events"] = counters.get("events", 0) + result.events
            counters["retries"] = counters.get("retries", 0) + result.retries
    finally:
        trace.uninstall()
    overhead = (_median(traced_walls) / reference.wall_s
                if reference is not None and traced_walls else 0.0)
    return per_layer(totals, counters, overhead)


def _hop_check(trace: layertrace.LayerTrace,
               result: workloads.UnitResult) -> Optional[str]:
    delivered = trace.select("repro.sim.link:Link._deliver")
    if delivered != result.hops:
        return (f"traced deliveries {delivered} != link.hops {result.hops} "
                "from LinkStats")
    return None


#: per-layer name -> [(what, callable-name prefix, suffix)], summed over
#: the traced callables whose "module:qualname" matches
SELECTIONS = {
    "sack.feedback_calls": [
        ("calls", "repro.sack.scoreboard:SenderScoreboard.on_feedback", "")],
    "tfrc.feedback_calls": [("calls", "repro.tfrc.", ".on_feedback")],
    "tfrc.loss_history_self_s": [("self_s", "repro.tfrc.loss_history:", "")],
    "qos.mark_calls": [("calls", "repro.qos.marking:", ".mark")],
    "metrics.record_calls": [
        ("calls", "repro.metrics.recorder:FlowRecorder.record", "")],
    "metrics.summary_s": [
        ("incl_s", "repro.metrics.fct:fct_summary", ""),
        ("incl_s", "repro.metrics.fluid:background_summary", ""),
        ("incl_s", "repro.metrics.recorder:FlowRecorder.mean_rate_bps", "")],
    "traffic.expand_s": [
        ("incl_s", "repro.traffic.population:expand_population", "")],
    "fluid.hybridize_s": [("incl_s", "repro.fluid.derive:hybridize", "")],
    "topo.build_s": [("incl_s", "repro.topo.build:build", "")],
    "harness.pool_spawn_s": [("incl_s", "repro.harness.runner:_lease_pool", "")],
    "harness.dispatch_self_s": [("self_s", "repro.harness.pool:", "")],
    "harness.cache_load_s": [("incl_s", "repro.harness.runner:", "Cache.load")],
    "harness.cache_store_s": [
        ("incl_s", "repro.harness.runner:", "Cache.store")],
    "harness.manifest_s": [
        ("self_s", "repro.harness.runner:SweepManifest.", "")],
    "campaign.journal_s": [
        ("self_s", "repro.campaign.store:CampaignJournal.", "")],
    "campaign.artifacts_s": [
        ("self_s", "repro.campaign.store:CampaignStore.", ""),
        ("self_s", "repro.campaign.report:", "")],
    "obs.spans": [("calls", "repro.obs.spans:SpanWriter.emit", "")],
    "obs.span_emit_s": [("incl_s", "repro.obs.spans:SpanWriter.emit", "")],
    "packet.allocs": [("calls", "repro.sim.packet:Packet.__init__", "")],
}

#: metric prefix used for each layer's calls/self_s
PREFIX = {"sim.engine": "engine", "sim.link": "link", "sim.queues": "queue",
          "sim.node": "node", "sim.packet": "packet"}


def layer_values(trace: layertrace.LayerTrace,
                 result: workloads.UnitResult) -> Dict[str, float]:
    values: Dict[str, float] = {"trace.wall_s": trace.wall_s}
    entries = trace.layer_entries()
    for layer, self_s in trace.layer_self().items():
        prefix = PREFIX.get(layer, layer)
        values[f"{prefix}.self_s"] = self_s
        if layer != layertrace.OTHER:
            values[f"{prefix}.calls"] = entries[layer]
    for name, patterns in SELECTIONS.items():
        values[name] = sum(trace.select(prefix, what, suffix)
                           for what, prefix, suffix in patterns)
    return values


def per_layer(totals: Dict[str, float], counters: Dict[str, float],
              overhead: float) -> Dict[str, Dict]:
    units = counters.get("units", 0)
    per_unit = {k: v / units for k, v in totals.items()} if units else {}
    hops = counters.get("hops", 0)
    out: Dict[str, Dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = _metric(value, unit, int(units))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for name in PER_LAYER_NAMES:
        put(name, per_unit.get(name, 0.0),
            "s" if name.endswith("_s") else "count")
    put("engine.events", ratio(counters.get("events", 0), units), "count")
    put("engine.events_per_hop", ratio(counters.get("events", 0), hops),
        "ratio")
    put("link.hops", ratio(hops, units), "count")
    put("queue.green_drop_share", ratio(counters.get("green_drops", 0),
                                        counters.get("green_offered", 0)),
        "ratio")
    put("queue.out_drop_share", ratio(counters.get("out_drops", 0),
                                      counters.get("out_offered", 0)), "ratio")
    hits, misses = counters.get("pool_hits", 0), counters.get("pool_misses", 0)
    put("packet.pool_hit_ratio", ratio(hits, hits + misses), "ratio")
    put("packet.allocs_per_hop", ratio(totals.get("packet.allocs", 0), hops),
        "ratio")
    put("sack.us_per_feedback", 1e6 * ratio(totals.get("sack.self_s", 0.0),
                                            totals.get("sack.feedback_calls", 0)),
        "us")
    put("traffic.flows", ratio(counters.get("flows", 0), units), "count")
    put("fluid.epochs", ratio(counters.get("fluid_epochs", 0), units), "count")
    put("topo.agents", ratio(counters.get("agents", 0), units), "count")
    put("harness.cache_hit_ratio", ratio(counters.get("cache_hits", 0),
                                         counters.get("cache_lookups", 0)),
        "ratio")
    put("harness.retries", ratio(counters.get("retries", 0), units), "count")
    put("setup.traffic_fluid_topo_share",
        ratio(totals.get("setup.traffic_fluid_topo_s", 0.0),
              totals.get("setup.wall_s", 0.0)), "ratio")
    put("trace.overhead", overhead, "ratio")
    return {name: out[name] for name in PER_LAYER_NAMES}


def _per_layer_names() -> Tuple[str, ...]:
    names = []
    for layer in layertrace.LAYER_NAMES:
        prefix = PREFIX.get(layer, layer)
        if layer != layertrace.OTHER:
            names.append(f"{prefix}.calls")
        names.append(f"{prefix}.self_s")
    names += [k for k in SELECTIONS if k != "packet.allocs"]
    names += ["engine.events", "engine.events_per_hop", "link.hops",
              "queue.green_drop_share", "queue.out_drop_share",
              "packet.pool_hit_ratio", "packet.allocs_per_hop",
              "sack.us_per_feedback", "traffic.flows", "fluid.epochs",
              "topo.agents", "harness.cache_hit_ratio", "harness.retries",
              "setup.traffic_fluid_topo_share", "trace.wall_s",
              "trace.overhead"]
    return tuple(names)


#: Every per-layer metric, in report order (BENCHMARK.json lists these).
PER_LAYER_NAMES = _per_layer_names()


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def pin() -> None:
    """Recompute pinned.json: fingerprints for every seed of every workload."""
    pinned: Dict[str, Dict[str, str]] = {}
    for workload in workloads.SIM_UNITS:
        seeds = workloads.SCENARIO_SEEDS + (workloads.HELD_OUT_SEED,)
        pinned[workload] = {
            str(s): workloads.run_sim_unit(workload, s).fingerprint
            for s in seeds
        }
        print(workload, pinned[workload], file=sys.stderr)
    PINNED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--workdir", type=Path, default=Path("."))
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    if args.pin:
        pin()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    runner = Runner(args.workload, args.workdir)
    seeds = scenario_seeds(args.seed, args.held_out)
    if args.trace:
        metrics, detail = measure_traced(runner, seeds, args.seconds), {}
    else:
        metrics, detail = measure(runner, seeds, args.seconds)
    import repro

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "detail": detail,
        "errors": runner.errors[:5],
        "scenario_seeds": seeds,
        "program": str(Path(repro.__file__).resolve().parent),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
