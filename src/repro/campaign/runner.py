"""The crash-safe campaign orchestrator.

A :class:`Campaign` runs many named :class:`~repro.api.Experiment`
sweeps as one unit into one durable directory (see
:mod:`repro.campaign.store` for the layout).  The execution contract:

* **Kill-anywhere resume.**  Every scenario is checkpointed to the
  fsync'd journal only *after* its artifacts are atomically published
  and hashed into the integrity manifest, so SIGKILLing the
  orchestrator at any instant and re-running with ``resume=True`` (or
  ``campaign resume <dir>``) completes exactly the missing work and
  produces byte-identical tracked artifacts — the memo cache makes the
  replayed cells free, and determinism makes them identical.
* **Graceful degradation.**  A job whose sweep fails terminally
  (crashed workers past retries in strict-ish conditions, a bad spec,
  an unregistered scenario) is recorded as ``failed`` with its
  :class:`~repro.harness.result.RunFailure`-style detail in
  ``failure.json`` and the journal; the campaign proceeds and the
  report carries an explicit coverage section.  Jobs default to
  ``on_failure="keep"`` so individual bad *cells* degrade to
  ``partial`` coverage instead of failing the job.
* **Chaos hooks.**  Before every journal append the runner consults
  the ambient fault plan under the
  :data:`~repro.harness.faults.CAMPAIGN_CHECKPOINT_SCOPE`
  pseudo-scenario, so ``REPRO_FAULTS`` plans can kill/hang/corrupt the
  orchestrator at exact checkpoints — that is how the chaos suite
  proves the resume contract at every injection point.

Campaign-level observability reuses the PR 8 plane: span events
(``campaign`` / ``job`` / ``report``) append to ``campaign.spans.jsonl``
across resumes, and — when the metrics plane is enabled — job outcomes
land on the ``repro_campaign_jobs_total`` counter.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.api.experiment import Experiment
from repro.api.resultset import ResultSet
from repro.campaign.report import build_report
from repro.campaign.spec import CampaignError, CampaignSpec, JobSpec
from repro.campaign.store import (
    CampaignJournal,
    CampaignStore,
    REPORT_FILE,
    SCENARIOS_DIR,
    SPEC_FILE,
    VerifyReport,
)
from repro.harness.faults import CAMPAIGN_CHECKPOINT_SCOPE, FaultPlan, plan_from_env
from repro.harness.runner import code_version
from repro.ioutil import JsonlJournal, atomic_write_json, atomic_write_text
from repro.obs.spans import SpanWriter

__all__ = [
    "Campaign",
    "CampaignRun",
    "JobOutcome",
    "resume_campaign",
    "verify_campaign",
    "write_report",
]

TableRenderer = Callable[[ResultSet], str]


def _provenance() -> Dict[str, Any]:
    """The environment snapshot stored in ``campaign.json``.

    Only deterministic-per-setup facts: interpreter/platform and the
    ``REPRO_*`` knobs that change results or backends.  ``REPRO_FAULTS``
    is excluded on purpose — fault plans are chaos *tooling*, and
    including one would make a chaos run's ``campaign.json`` differ
    from the fault-free run it must be byte-identical to.
    """
    from repro.harness.faults import FAULTS_ENV

    env = {
        key: value
        for key, value in sorted(os.environ.items())
        if key.startswith("REPRO_") and key != FAULTS_ENV
    }
    return {
        "code_version": code_version(),
        "python": platform.python_version(),
        "platform": sys.platform,
        "env": env,
    }


@dataclass
class JobOutcome:
    """What happened to one job in one ``Campaign.run`` invocation."""

    name: str
    scenario: str
    status: str  # "ok" | "partial" | "failed"
    cells: int = 0
    ok_cells: int = 0
    restored: bool = False  # satisfied from a previous run's checkpoint
    failure: Optional[Dict[str, Any]] = None
    results: Optional[ResultSet] = None  # None when failed or restored

    @property
    def coverage(self) -> float:
        return self.ok_cells / self.cells if self.cells else 0.0


@dataclass
class CampaignRun:
    """The return value of :meth:`Campaign.run`."""

    directory: Path
    campaign: str
    outcomes: Dict[str, JobOutcome] = field(default_factory=dict)

    @property
    def report_path(self) -> Path:
        return self.directory / REPORT_FILE

    @property
    def ok(self) -> bool:
        """True when every job completed with full coverage."""
        return all(o.status == "ok" for o in self.outcomes.values())

    def summary(self) -> str:
        parts = []
        for outcome in self.outcomes.values():
            tag = outcome.status + ("/restored" if outcome.restored else "")
            parts.append(f"{outcome.name}={tag}")
        return f"campaign {self.campaign}: " + " ".join(parts)


class Campaign:
    """A named, ordered collection of experiments run as one unit."""

    def __init__(self, name: str):
        self._name = name
        self._jobs: List[JobSpec] = []
        self._renderers: Dict[str, TableRenderer] = {}

    @property
    def name(self) -> str:
        return self._name

    @property
    def spec(self) -> CampaignSpec:
        return CampaignSpec(name=self._name, jobs=tuple(self._jobs))

    def add(
        self,
        name: str,
        experiment: Experiment,
        *,
        on_failure: str = "keep",
        table: Optional[TableRenderer] = None,
    ) -> "Campaign":
        """Add one named job; returns ``self`` for chaining.

        ``table`` customizes the job's ``table.txt`` (a callable from
        :class:`ResultSet` to the table text); campaigns with custom
        tables can only be resumed through the same script, because a
        Python callable cannot be rebuilt from ``campaign.json``.
        """
        job = JobSpec.from_experiment(
            name, experiment, on_failure=on_failure,
            custom_table=table is not None,
        )
        if any(existing.name == name for existing in self._jobs):
            raise CampaignError(f"duplicate job name {name!r}")
        self._jobs.append(job)
        if table is not None:
            self._renderers[name] = table
        return self

    @classmethod
    def from_spec(cls, spec: CampaignSpec) -> "Campaign":
        campaign = cls(spec.name)
        campaign._jobs = list(spec.jobs)
        return campaign

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        directory: Union[str, Path],
        *,
        resume: bool = False,
        faults: Optional[FaultPlan] = None,
        workers: Optional[int] = None,
    ) -> CampaignRun:
        """Execute (or resume) the campaign into ``directory``.

        ``workers`` overrides every job's worker count for this
        invocation only (execution tuning is not campaign identity).
        ``faults`` defaults to the ambient ``REPRO_FAULTS`` plan.
        """
        if not self._jobs:
            raise CampaignError(f"campaign {self._name!r} has no jobs")
        spec = self.spec
        store = CampaignStore(directory)
        plan = faults if faults is not None else plan_from_env()

        if store.spec_path.exists():
            existing = store.read_spec_document()
            if existing.get("spec_hash") != spec.spec_hash():
                raise CampaignError(
                    f"directory {store.directory} holds campaign "
                    f"{existing.get('name')!r} with spec hash "
                    f"{existing.get('spec_hash')!r}, but this definition "
                    f"hashes to {spec.spec_hash()!r} — use a fresh "
                    "directory (or fix the spec) instead of mixing results"
                )
        else:
            if resume:
                raise CampaignError(
                    f"nothing to resume: {store.directory} has no {SPEC_FILE}"
                )
            store.write_spec(spec, _provenance())
        # idempotent re-record: self-heals a kill between spec write and
        # manifest update, and is a no-op otherwise
        store.record_artifacts([SPEC_FILE])

        journal = CampaignJournal(
            store.journal_path,
            spec.name,
            spec.spec_hash(),
            code_version(),
            resume=resume,
        )
        spans = SpanWriter(str(store.spans_path), append=journal.resumed)
        spans.emit({
            "event": "campaign",
            "campaign": spec.name,
            "jobs": len(spec.jobs),
            "resumed": journal.resumed,
            "started": time.time(),
        })
        run = CampaignRun(directory=store.directory, campaign=spec.name)
        try:
            for job in spec.jobs:
                outcome = self._run_job(store, journal, spans, plan, job, workers)
                run.outcomes[job.name] = outcome
                self._publish_metrics(outcome)
            self._write_report(store, journal, spans, plan)
        finally:
            spans.close()
            journal.close()
        return run

    # ------------------------------------------------------------------
    def _checkpoint(self, journal: CampaignJournal,
                    plan: Optional[FaultPlan], name: str) -> None:
        """The chaos hook guarding every journal append.

        ``exit`` faults kill the process *here* — after the artifacts
        are durable but before the checkpoint records them — which is
        the adversarial instant the resume contract must survive.  A
        ``corrupt`` fault writes a torn garbage line first, which the
        journal loader must skip.
        """
        if plan is None:
            return
        outcome = plan.apply(
            CAMPAIGN_CHECKPOINT_SCOPE,
            {"name": name, "seq": journal.next_seq},
            1,
        )
        if outcome is not None:
            journal.write_garbage_line()

    def _run_job(
        self,
        store: CampaignStore,
        journal: CampaignJournal,
        spans: SpanWriter,
        plan: Optional[FaultPlan],
        job: JobSpec,
        workers: Optional[int],
    ) -> JobOutcome:
        prefix = f"{SCENARIOS_DIR}/{job.name}/"
        prior = journal.scenario_status(job.name)
        if prior in ("ok", "partial") and store.artifacts_intact(prefix):
            entry = journal.scenarios[job.name]
            spans.emit({"event": "job", "name": job.name, "status": prior,
                        "restored": True})
            return JobOutcome(
                name=job.name,
                scenario=job.scenario,
                status=prior,
                cells=int(entry.get("cells", 0) or 0),
                ok_cells=int(entry.get("ok", 0) or 0),
                restored=True,
            )

        spans.emit({"event": "job", "name": job.name, "status": "started"})
        job_dir = store.scenario_dir(job.name)
        try:
            experiment = job.experiment().cache(store.cache_dir)
            if workers is not None:
                experiment.workers(workers)
            sweep_spans = SpanWriter(header={
                "scenario": job.scenario,
                "campaign": self._name,
                "job": job.name,
                "cells": experiment.n_cells(),
                "started": time.time(),
            })
            try:
                results = experiment.run(
                    on_failure=job.on_failure, observer=sweep_spans,
                )
            finally:
                # the sweep's ledger under cache/ is the durable record
                # while it runs; this per-job copy is written once
                job_spans = JsonlJournal(job_dir / "spans.jsonl")
                job_spans.append(*sweep_spans.events)
                job_spans.close()
        except Exception as exc:  # terminal: record and move on
            failure = _failure_detail(exc)
            atomic_write_json(job_dir / "failure.json", failure)
            store.record_artifacts([f"{prefix}failure.json"])
            self._checkpoint(journal, plan, job.name)
            journal.record_scenario(job.name, "failed", failure=failure)
            spans.emit({"event": "job", "name": job.name, "status": "failed",
                        "error": failure["error"]})
            return JobOutcome(
                name=job.name,
                scenario=job.scenario,
                status="failed",
                failure=failure,
            )

        renderer = self._renderers.get(job.name)
        table_text = (
            renderer(results) if renderer is not None
            else results.table(title=f"{job.name} — {job.scenario}")
        )
        if not table_text.endswith("\n"):
            table_text += "\n"
        results.to_csv(job_dir / "results.csv")
        results.to_json(job_dir / "results.json")
        atomic_write_text(job_dir / "table.txt", table_text)
        store.record_artifacts([
            f"{prefix}results.csv",
            f"{prefix}results.json",
            f"{prefix}table.txt",
        ])

        status = "partial" if results.has_failures else "ok"
        cells, ok_cells = len(results), len(results.ok())
        self._checkpoint(journal, plan, job.name)
        journal.record_scenario(
            job.name, status, cells=cells, ok=ok_cells,
            failed=cells - ok_cells,
        )
        spans.emit({"event": "job", "name": job.name, "status": status,
                    "cells": cells, "ok": ok_cells})
        return JobOutcome(
            name=job.name,
            scenario=job.scenario,
            status=status,
            cells=cells,
            ok_cells=ok_cells,
            results=results,
        )

    def _write_report(
        self,
        store: CampaignStore,
        journal: CampaignJournal,
        spans: SpanWriter,
        plan: Optional[FaultPlan],
    ) -> None:
        # always regenerated: build_report is deterministic over the
        # on-disk state, so a resume rewrites byte-identical text (and
        # a degraded campaign gets its coverage section refreshed)
        text = build_report(store)
        atomic_write_text(store.report_path, text)
        store.record_artifacts([REPORT_FILE])
        self._checkpoint(journal, plan, "report")
        journal.record_report()
        spans.emit({"event": "report"})

    @staticmethod
    def _publish_metrics(outcome: JobOutcome) -> None:
        from repro.obs.metrics import metrics_enabled, registry

        if not metrics_enabled():
            return
        registry().counter(
            "repro_campaign_jobs_total",
            "campaign jobs by terminal status",
        ).inc(status=outcome.status)


def _failure_detail(exc: BaseException) -> Dict[str, Any]:
    """A JSON-able, deterministic-where-possible failure record."""
    return {
        "kind": getattr(exc, "failure_kind", "error"),
        "error": getattr(exc, "error", None) or type(exc).__name__,
        "message": str(exc),
        "attempts": int(getattr(exc, "attempts", 1)),
    }


# ----------------------------------------------------------------------
# directory-level entry points (what the CLI wraps)
# ----------------------------------------------------------------------
def resume_campaign(
    directory: Union[str, Path],
    *,
    workers: Optional[int] = None,
) -> CampaignRun:
    """Resume the campaign recorded in ``directory`` from its spec.

    Rebuilds every job from ``campaign.json``; refuses when any job was
    defined with a custom table renderer (a Python callable cannot be
    rebuilt from JSON — resume through the original script instead).
    """
    store = CampaignStore(directory)
    spec = store.read_spec()
    blocked = [job.name for job in spec.jobs if job.custom_table]
    if blocked:
        raise CampaignError(
            f"cannot resume from {SPEC_FILE} alone: job(s) "
            f"{blocked} use custom table renderers — re-run the script "
            "that defined this campaign with resume=True"
        )
    return Campaign.from_spec(spec).run(directory, resume=True, workers=workers)


def verify_campaign(
    directory: Union[str, Path],
    *,
    quarantine: bool = True,
) -> VerifyReport:
    """Re-check every tracked artifact's content hash (see store docs)."""
    store = CampaignStore(directory)
    store.read_spec_document()  # fail loudly on a non-campaign directory
    return store.verify(quarantine=quarantine)


def write_report(directory: Union[str, Path]) -> str:
    """Regenerate ``report.md`` from the on-disk state; return the text."""
    store = CampaignStore(directory)
    store.read_spec_document()
    text = build_report(store)
    atomic_write_text(store.report_path, text)
    store.record_artifacts([REPORT_FILE])
    return text
