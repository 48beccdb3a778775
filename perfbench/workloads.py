"""The four benchmark workloads, each a repeatable *unit* of user work.

A unit is what a user of the simulator waits for: build the scenario,
run it, summarize the result.  Every unit returns a :class:`UnitResult`
with its phase timings, the work it did (packet-hops, cells), the
layer counters the traced run reports, and a fingerprint of its model
outputs that :mod:`measure` compares against ``pinned.json``.

Each phase is timed twice: by the wall clock, and by the CPU time of
this process and of the worker processes it has reaped (see
:func:`cpu_s`).  The gated metrics use CPU time, which leaves out the
time the machine ran something else instead of the benchmark.

The units drive the program only through its public entry points
(spec builders, ``expand_population``, ``hybridize``, ``topo.build``,
``Simulator.run``, ``Experiment.run`` and ``Campaign.run``); the
scenario seed is the only input a unit receives.

Imports of ``repro`` happen inside the functions so that this module
can be imported (and its seed tables read) without the program on
``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

WORKLOADS = ("t1_af", "mice_churn", "hybrid_crowd", "campaign_sweep")

#: Scenario seeds every workload cycles through (pinned in pinned.json);
#: ``--seed`` only chooses their order.
SCENARIO_SEEDS = (1, 2, 3, 4)

#: A scenario seed no tuning looked at.  A later claim must also hold
#: with ``--held-out`` (choosing-metrics section 6.3).
HELD_OUT_SEED = 97

# ----------------------------------------------------------------------
# pinned configurations
# ----------------------------------------------------------------------
#: The paper's section 4 T1 unit (the af_assurance configuration).
T1 = dict(protocol="qtpaf", target_bps=4e6, n_cross=4, duration=10.0,
          warmup=2.0)
#: The population_1000 unit (mice_elephants at population scale).
MICE = dict(protocol="gtfrc", target_bps=2e6, n_hosts=64, n_flows=1000,
            arrival_rate_per_s=250.0, elephant_share=0.02, duration=6.0)
#: The population_100k_hybrid unit (flash crowd, fluidized) at a
#: quarter of its population, so a run measures about 13 units.
CROWD = dict(protocol="gtfrc", target_bps=40e6, n_hosts=64,
             n_flows=25_000, base_rate_per_s=2000.0,
             peak_rate_per_s=30000.0, ramp_start=1.0, ramp_duration=2.0,
             bottleneck_bps=2e9, duration=6.0, warmup=2.0, epoch=0.05,
             bg_flow_rate_bps=500e3)
#: One campaign job of short af_assurance cells: 4 protocols x 2 targets
#: x CAMPAIGN_SEEDS seeds = 40 cells per pass, on CAMPAIGN_WORKERS.
CAMPAIGN_GRID = dict(protocol=("tcp", "tfrc", "gtfrc", "qtpaf"),
                     target_bps=(2e6, 4e6))
CAMPAIGN_BASE = dict(n_cross=1, duration=0.5, warmup=0.1,
                     bottleneck_bps=4e6)
CAMPAIGN_SEEDS = 5
CAMPAIGN_WORKERS = 2


def cpu_s() -> float:
    """CPU seconds used so far by this process and its reaped children.

    Campaign workers count once they have been joined, which
    ``shutdown_warm_pool`` does.  Time the machine gave to other
    programs (or, in a virtual machine, to other guests) is left out.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class UnitResult:
    """Timings, work and counters of one unit (``*_cpu_s``: CPU time)."""

    setup_s: float
    wall_s: float
    setup_cpu_s: float
    cpu_s: float
    run_s: float = 0.0  # Simulator.run, or the cold pass after setup
    run_cpu_s: float = 0.0
    hops: int = 0
    events: int = 0
    cells: int = 0
    warm_s: float = 0.0
    cell_latencies: List[float] = field(default_factory=list)
    retries: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    fingerprint: Optional[str] = None
    check_error: Optional[str] = None


# ----------------------------------------------------------------------
# simulation units
# ----------------------------------------------------------------------
def _t1_spec(seed: int):
    from repro.topo import t1_dumbbell_spec

    del seed  # the T1 spec is fixed; the seed only drives the simulator
    spec = t1_dumbbell_spec(T1["protocol"], T1["target_bps"],
                            n_cross=T1["n_cross"], cross_record=True)
    return spec, len(spec.flows)


def _mice_spec(seed: int):
    from repro.harness.experiments.mice_elephants import mice_elephants_spec

    keys = ("n_hosts", "n_flows", "arrival_rate_per_s", "elephant_share",
            "duration")
    spec = mice_elephants_spec(MICE["protocol"], MICE["target_bps"],
                               seed=seed, **{k: MICE[k] for k in keys})
    return spec, len(spec.flows)


def _crowd_spec(seed: int):
    from repro.fluid import hybridize
    from repro.harness.experiments.flash_crowd import (
        flash_crowd_population,
        flash_crowd_spec,
    )

    shape = {k: CROWD[k] for k in ("n_hosts", "n_flows", "base_rate_per_s",
                                   "peak_rate_per_s", "ramp_start",
                                   "ramp_duration", "duration")}
    spec = flash_crowd_spec(CROWD["protocol"], CROWD["target_bps"],
                            bottleneck_bps=CROWD["bottleneck_bps"],
                            seed=seed, **shape)
    population = flash_crowd_population(**shape)
    hybrid = hybridize(spec, population, seed=seed, epoch=CROWD["epoch"],
                       per_flow_rate_bps=CROWD["bg_flow_rate_bps"])
    return hybrid, len(spec.flows)


def _t1_summary(built) -> Dict[str, Any]:
    """The af_assurance result: assured rate and bottleneck drop ratios."""
    from repro.sim.packet import Color

    stats = built.queue("left", "right").stats
    duration, warmup = T1["duration"], T1["warmup"]
    return {
        "achieved_bps": built.recorder("assured").mean_rate_bps(warmup,
                                                                duration),
        "green_drop_ratio": stats.color_drop_ratio(Color.GREEN),
        "cross_total_bps": sum(
            built.recorder(f"x{i}").mean_rate_bps(warmup, duration)
            for i in range(1, 1 + T1["n_cross"])
        ),
    }


def _mice_summary(built) -> Dict[str, Any]:
    """The mice_elephants result: per-class completion statistics."""
    from repro.metrics.fct import fct_summary

    done = built.completions()
    mice = fct_summary([c for c in done if c.flow_id.startswith("mice")])
    elephants = fct_summary(
        [c for c in done if c.flow_id.startswith("elephant")])
    return {
        "mice_completed": mice.completed,
        "mice_fct_p95_s": mice.p95,
        "elephants_completed": elephants.completed,
        "elephant_fct_mean_s": elephants.mean,
        "bottleneck_drops": built.queue("gw", "srv").stats.dropped,
    }


def _crowd_summary(built) -> Dict[str, Any]:
    """The hybrid_flash_crowd result: assured rate and fluid ledger."""
    from repro.metrics.fluid import background_summary

    bg = background_summary(built.fluid_sources.values())
    return {
        "achieved_bps": built.recorder("assured").mean_rate_bps(
            CROWD["warmup"], CROWD["duration"]),
        "bg_served_bytes": bg.served_bytes,
        "bg_loss_ratio": bg.loss_ratio,
    }


#: workload -> (spec builder, simulated seconds, result summary); a
#: builder returns the spec and the number of flows the scenario holds,
#: fluidized ones included
SIM_UNITS: Dict[str, Tuple[Callable, float, Callable]] = {
    "t1_af": (_t1_spec, T1["duration"], _t1_summary),
    "mice_churn": (_mice_spec, MICE["duration"], _mice_summary),
    "hybrid_crowd": (_crowd_spec, CROWD["duration"], _crowd_summary),
}


def run_sim_unit(workload: str, seed: int,
                 on_setup: Optional[Callable[[], None]] = None) -> UnitResult:
    """setup (spec, expansion, hybridize, build) -> Simulator.run -> summary.

    ``on_setup`` is called when setup ends, before the clock reads it.
    """
    from repro.sim.engine import Simulator
    from repro.topo import build

    make_spec, duration, summarize = SIM_UNITS[workload]
    clock = time.perf_counter
    t0, c0 = clock(), cpu_s()
    spec, flows = make_spec(seed)
    sim = Simulator(seed=seed)
    built = build(sim, spec)
    if on_setup is not None:
        on_setup()
    t1, c1 = clock(), cpu_s()
    sim.run(until=duration)
    t2, c2 = clock(), cpu_s()
    summary = summarize(built)
    t3, c3 = clock(), cpu_s()
    unit = UnitResult(setup_s=t1 - t0, wall_s=t3 - t0, run_s=t2 - t1,
                      setup_cpu_s=c1 - c0, cpu_s=c3 - c0, run_cpu_s=c2 - c1,
                      hops=_hops(built), events=sim.events_processed)
    unit.counters = _sim_counters(sim, built)
    unit.counters["flows"] = flows
    unit.fingerprint = _fingerprint(built, summary)
    return unit


def _hops(built) -> int:
    """Packet-hops: LinkStats.delivered_packets summed over all links."""
    return sum(link.stats.delivered_packets for link in built.net.links)


def _sim_counters(sim, built) -> Dict[str, float]:
    """Layer counters read from the model's own statistics."""
    from repro.sim.packet import Color

    green_offered = green_drops = out_offered = out_drops = 0
    for link in built.net.links:
        stats = link.queue.stats
        drops = stats.drops_by_color
        green_offered += stats.accepts_by_color[Color.GREEN] + drops[Color.GREEN]
        green_drops += drops[Color.GREEN]
        out_offered += stats.offered
        out_drops += stats.dropped
    out_offered -= green_offered
    out_drops -= green_drops
    pool = getattr(sim, "_packet_pool", None)
    return {
        "pool_hits": pool.hits if pool else 0,
        "pool_misses": pool.misses if pool else 0,
        "green_offered": green_offered,
        "green_drops": green_drops,
        "out_offered": out_offered,
        "out_drops": out_drops,
        "agents": len(built.senders) + len(built.receivers),
        "fluid_epochs": sum(s.epochs for s in built.fluid_sources.values()),
    }


def _fingerprint(built, summary: Dict[str, Any]) -> str:
    """Digest of the model outputs a correct change must not move.

    Covers per-flow delivered bytes and packets, per-queue accepts and
    drops by colour, the assured flow's achieved rate, completion count
    and FCT sum, fluid served/dropped bytes and the unit's result
    summary.  Engine event counts are left out: a link fast path is
    expected to lower them without changing any result.
    """
    from repro.sim.packet import Color

    done = built.completions()
    doc = {
        "flows": {fid: [rec.delivered_bytes, rec.delivered_packets]
                  for fid, rec in sorted(built.recorders.items())},
        "queues": {link.name: [
            [link.queue.stats.accepts_by_color[c] for c in Color],
            [link.queue.stats.drops_by_color[c] for c in Color]]
            for link in built.net.links},
        "assured_bps": (repr(built.recorder("assured").mean_rate_bps())
                        if "assured" in built.recorders else None),
        "completions": [len(done),
                        repr(sum(c.completed_at - c.start for c in done))],
        "fluid": {name: [repr(src.served_bytes), repr(src.dropped_bytes)]
                  for name, src in sorted(built.fluid_sources.items())},
        "summary": {k: repr(v) for k, v in sorted(summary.items())},
    }
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


# ----------------------------------------------------------------------
# campaign unit
# ----------------------------------------------------------------------
def _campaign_experiment(seed: int):
    from repro.api import Experiment

    first = seed * CAMPAIGN_SEEDS
    return (Experiment("af_assurance")
            .sweep(**CAMPAIGN_GRID)
            .configure(**CAMPAIGN_BASE)
            .seeds(range(first, first + CAMPAIGN_SEEDS))
            .workers(CAMPAIGN_WORKERS))


@contextmanager
def _cpu_at_first_dispatch(marks: List[float]):
    """Append :func:`cpu_s` to ``marks`` when a sweep first dispatches.

    Every sweep observer the campaign installs is a ``SpanWriter``, so
    its ``__call__`` sees the first ``dispatched`` event in this process.
    """
    from repro.obs.spans import SpanWriter

    call = SpanWriter.__call__

    def observe(writer, event):
        if not marks and event.get("event") == "dispatched":
            marks.append(cpu_s())
        return call(writer, event)

    SpanWriter.__call__ = observe
    try:
        yield
    finally:
        SpanWriter.__call__ = call


def run_campaign_unit(seed: int, workdir: Path) -> UnitResult:
    """Cold campaign pass, warm re-run from its cache, then verify.

    ``workdir`` must not exist: every unit gets a fresh cache, journal,
    manifest and span stream.  The warm pool is torn down after the cold
    pass, which joins its workers, so their CPU time counts in the cold
    pass and the next unit's ``setup_s`` includes the spawn again.  The
    warm pass finds every cell cached and starts no pool.
    """
    from repro.campaign import Campaign, CampaignStore, verify_campaign
    from repro.harness.runner import shutdown_warm_pool
    from repro.obs.spans import SpanWriter, read_spans

    directory = workdir / "campaign"
    dispatched: List[float] = []
    try:
        t0, c0 = time.time(), cpu_s()
        with _cpu_at_first_dispatch(dispatched):
            run = Campaign("perfbench").add(
                "af", _campaign_experiment(seed)).run(directory)
        shutdown_warm_pool()
        t1, c1 = time.time(), cpu_s()
        warm_spans = SpanWriter()
        store = CampaignStore(directory)
        warm = (_campaign_experiment(seed).cache(store.cache_dir)
                .run(on_failure="keep", observer=warm_spans))
        t2 = time.time()
        report = verify_campaign(directory, quarantine=False)
        t3, c3 = time.time(), cpu_s()
        cold_spans = read_spans(str(store.scenario_dir("af") / "spans.jsonl"))
    finally:
        shutdown_warm_pool()
    outcome = run.outcomes["af"]
    started = cold_spans[0]["started"]
    dispatch: Dict[int, float] = {}
    latencies: List[float] = []
    first_dispatch = None
    for ev in cold_spans:
        if ev.get("event") == "dispatched":
            dispatch[ev["i"]] = ev["t"]
            if first_dispatch is None:
                first_dispatch = ev["t"]
        elif ev.get("event") == "done" and ev["i"] in dispatch:
            latencies.append(ev["t"] - dispatch[ev["i"]])
    setup = started + (first_dispatch or 0.0) - t0
    setup_cpu = (dispatched[0] if dispatched else c1) - c0
    cold = list(outcome.results) if outcome.results is not None else []
    unit = UnitResult(
        setup_s=setup,
        wall_s=t3 - t0,
        setup_cpu_s=setup_cpu,
        cpu_s=c3 - c0,
        run_s=t1 - t0 - setup,
        run_cpu_s=c1 - c0 - setup_cpu,
        cells=outcome.cells,
        warm_s=t2 - t1,
        cell_latencies=latencies,
        retries=sum(1 for ev in cold_spans if ev.get("event") == "retry"),
    )
    warm_cached = sum(1 for ev in warm_spans.events
                      if ev.get("event") == "done" and ev.get("cached"))
    unit.counters = {"cache_hits": warm_cached,
                     "cache_lookups": 2 * outcome.cells}
    if (first_dispatch is None or not dispatched
            or len(latencies) != outcome.cells):
        unit.check_error = "cold pass did not dispatch every cell"
    elif outcome.status != "ok" or warm.has_failures:
        unit.check_error = f"campaign status {outcome.status}"
    elif list(warm) != cold:
        unit.check_error = "warm records differ from cold records"
    elif warm_cached != outcome.cells:
        unit.check_error = f"warm pass served {warm_cached} of " \
                           f"{outcome.cells} cells from the cache"
    elif not report.ok:
        unit.check_error = f"verify reported {report}"
    shutil.rmtree(workdir, ignore_errors=True)
    return unit
