#!/usr/bin/env python
"""Walkthrough of the fault-tolerant sweep fabric (PR 7).

A production-sized sweep *will* see failures: a scenario bug on one
parameter combination, a worker OOM-killed mid-run, a run that wedges,
a cache file truncated by a power loss.  The seed runner aborted the
whole sweep on the first of these and threw away the warm worker pool;
the fabric now recovers what it can and reports the rest:

1. **Inject faults deterministically** — a seeded
   :class:`~repro.harness.faults.FaultPlan` makes chosen cells raise,
   hang, die hard or return garbage, so resilience is demonstrable
   (the same plan always breaks the same cells).
2. **Retry with backoff, reap hangs** — ``.retries(n)`` and
   ``.timeout(seconds)`` on the :class:`~repro.api.Experiment`
   (or ``--max-retries`` / ``--run-timeout`` on the CLI).
3. **Keep partial results** — ``run(on_failure="keep")`` returns every
   cell: ``results.ok()`` / ``results.failures()`` /
   ``results.coverage()``; tables grow a ``status`` column and
   aggregates skip failed cells while counting them.
4. **Resume** — every cached sweep journals its span events to a
   ledger next to the memo (``<scenario>.spans.jsonl``; a cell's
   outcome is its last ``done``/``failed`` event); ``run(resume=True)``
   (CLI ``--resume``) re-runs only the missing/failed cells.

Run:  python examples/fault_tolerant_sweep.py
The same flow from the command line:

    REPRO_FAULTS='[{"kind": "raise", "match": {"seed": 1}}]' \
        python -m repro.harness run lossy_path --seeds 0,1,2 \
        --max-retries 2 --run-timeout 120
"""

import shutil
from pathlib import Path

from repro.api import Experiment
from repro.harness.faults import FaultPlan, FaultSpec

CACHE_DIR = Path(".sweep-cache-demo")


def main() -> None:
    shutil.rmtree(CACHE_DIR, ignore_errors=True)  # a clean demo slate

    experiment = (
        Experiment("lossy_path")
        .sweep(protocol=("tcp", "tfrc"))
        .configure(duration=10.0, warmup=2.0, loss_rate=0.02)
        .seeds(range(3))
        .workers(2)
        .cache(CACHE_DIR)
        .timeout(300.0)  # no run may wedge the sweep forever
    )

    # --- 1. a chaos plan: one cell is broken beyond retry, and 30% of
    # first attempts crash the worker outright (recoverable).  The env
    # hook (REPRO_FAULTS carries the same plan as JSON) is how chaos
    # reaches a sweep from the outside, e.g. the CI smoke step.
    plan = FaultPlan(seed=7, faults=(
        FaultSpec(kind="raise", scenario="lossy_path",
                  match={"protocol": "tfrc", "seed": 1}, times=None),
        FaultSpec(kind="exit", rate=0.3, times=1),
    ))

    # --- 2+3. run with retries; keep partial results
    from repro.harness.runner import run_matrix

    from repro.api import ResultSet

    results = ResultSet(run_matrix(
        "lossy_path", {"protocol": ("tcp", "tfrc")},
        base=dict(duration=10.0, warmup=2.0, loss_rate=0.02),
        seeds=range(3), workers=2, cache_dir=CACHE_DIR,
        run_timeout=300.0, max_retries=2, strict=False, faults=plan,
    ))

    print(results.table(title="partial sweep (note the status column)"))
    print(f"\ncoverage: {results.coverage():.0%} "
          f"({len(results.ok())} ok, {len(results.failures())} failed)")
    for record in results.failures():
        failure = record.result
        print(f"  {record.params} -> {failure.failure_kind} "
              f"({failure.error}) after {failure.attempts} attempts")

    # aggregates skip the failed cells and report per-group coverage
    print(results.aggregate("goodput_bps", over="seed")
          .table(title="goodput (failed cells skipped, counted)"))

    # the ledger next to the memo recorded each cell's outcome
    from repro.harness.runner import make_cache, spans_path
    from repro.obs.spans import read_spans

    ledger = read_spans(spans_path(make_cache(CACHE_DIR), "lossy_path"))
    outcomes = {e["i"]: e["event"] for e in ledger
                if e["event"] in ("done", "failed")}
    print(f"ledger: {sorted(outcomes.items())}")

    # --- 4. the broken cell is fixed (here: the fault plan is gone);
    # resume re-runs ONLY the missing/failed cells — everything else
    # replays from the memo cache
    resumed = experiment.run(on_failure="keep", resume=True)
    cached = sum(1 for r in resumed if r.cached)
    print(f"\nresumed: {len(resumed)} cells, {cached} from cache, "
          f"{len(resumed) - cached} re-run, "
          f"coverage now {resumed.coverage():.0%}")
    assert resumed.coverage() == 1.0

    shutil.rmtree(CACHE_DIR, ignore_errors=True)


if __name__ == "__main__":
    main()
