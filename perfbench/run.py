"""Benchmark entry point: one workload, one measured run, one JSON line.

    python3 perfbench/run.py --workload t1_af --seed 0 --seconds 25 --trace 0

Runs ``measure.py`` in a fresh interpreter against the source tree at
``--tree`` (default: the checkout holding this directory), with every
``REPRO_*`` switch cleared so an ambient fault plan, cache backend,
metrics plane or kill switch cannot change the program being measured.
Prints a table of every metric (name, value, unit, sample count) and,
as the last line, ``{"correct", "attempted", "failed", "metrics"}``.

Paired mode compares two source trees with identical benchmark code::

    git worktree add /tmp/base <ref>
    python3 perfbench/run.py --workload t1_af --against /tmp/base --pairs 10

It alternates which side runs first, and reports each side's median
and quartiles and the share of pairs the tree under test won.
``--against .`` runs A/A, the benchmark's own steadiness check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
#: Scratch space for campaign directories, inside the checkout.
WORK_ROOT = CHECKOUT / ".perfbench-work"
#: A benchmark run must end within 180 s; the child gets a little less.
CHILD_TIMEOUT_S = 170


def program_env(tree: Path) -> Tuple[Dict[str, str], Dict[str, str]]:
    """The child environment, and the ``REPRO_*`` switches it dropped."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    cleared = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONHASHSEED"] = "0"
    return env, cleared


def check_tree(tree: Path) -> Optional[str]:
    if not (tree / "src" / "repro" / "__init__.py").is_file():
        return f"no program at {tree}: {tree / 'src/repro'} is missing"
    return None


def run_once(tree: Path, args: argparse.Namespace) -> dict:
    """One measured run of ``args.workload`` in a fresh interpreter."""
    env, _ = program_env(tree)
    workdir = WORK_ROOT / str(os.getpid())
    command = [sys.executable, str(HERE / "measure.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir)]
    if args.held_out:
        command.append("--held-out")
    try:
        proc = subprocess.run(command, env=env, cwd=str(CHECKOUT),
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"measure.py exited {proc.returncode}")
    return json.loads(lines[-1])


def print_table(result: dict, trace: bool) -> None:
    rows = list(result["metrics"].items()) + list(result["detail"].items())
    print(f"{'metric':<28} {'value':>14} {'unit':<6} {'n':>5}")
    for name, m in rows:
        print(f"{name:<28} {m['value']:>14.6g} {m['unit']:<6} {m['n']:>5}")
    if trace:
        print_layer_table(result["metrics"])
    print(f"attempted={result['attempted']} failed={result['failed']} "
          f"scenario_seeds={result['scenario_seeds']} "
          f"program={result['program']}")
    for error in result["errors"]:
        print(f"error: {error}")


def print_layer_table(metrics: Dict[str, dict]) -> None:
    """Self time per layer and its share of the traced wall clock."""
    wall = metrics["trace.wall_s"]["value"]
    print(f"\n{'layer':<14} {'entries':>10} {'self_s':>10} {'share':>7}")
    total = 0.0
    for name, m in metrics.items():
        if not name.endswith(".self_s") or name.count(".") != 1:
            continue
        layer = name[: -len(".self_s")]
        calls = metrics.get(f"{layer}.calls", {}).get("value", 0)
        total += m["value"]
        share = m["value"] / wall if wall else 0.0
        print(f"{layer:<14} {calls:>10.0f} {m['value']:>10.4f} {share:>7.1%}")
    print(f"{'sum':<14} {'':>10} {total:>10.4f} "
          f"{(total / wall if wall else 0.0):>7.1%}  (traced wall {wall:.4f}s)")


def declared_metrics(trace: bool) -> Optional[Dict[str, dict]]:
    """The metrics BENCHMARK.json declares, by name (None without the file)."""
    path = CHECKOUT / "BENCHMARK.json"
    if not path.is_file():
        return None
    declared = json.loads(path.read_text())
    return {m["name"]: m
            for m in declared["per_layer" if trace else "end_to_end"]}


def check_declared(result: dict, trace: bool) -> Optional[str]:
    """The metrics must be exactly those BENCHMARK.json declares."""
    declared = declared_metrics(trace)
    if declared is None or sorted(declared) == sorted(result["metrics"]):
        return None
    missing = sorted(set(declared) - set(result["metrics"]))
    extra = sorted(set(result["metrics"]) - set(declared))
    return (f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}")


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    })


def paired(args: argparse.Namespace) -> int:
    """A/B alternating runs of the tree under test (A) and ``--against`` (B)."""
    trees = {"A": args.tree, "B": args.against}
    values: Dict[str, Dict[str, List[float]]] = {"A": {}, "B": {}}
    declared = declared_metrics(bool(args.trace)) or {}
    correct, attempted, failed = True, 0, 0
    wins: Dict[str, int] = {}
    for i in range(args.pairs):
        args.seed = args.base_seed + i
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        pair: Dict[str, dict] = {}
        for side in order:
            pair[side] = run_once(trees[side], args)
            correct &= bool(pair[side]["correct"])
            attempted += pair[side]["attempted"]
            failed += pair[side]["failed"]
        for name, m in pair["A"]["metrics"].items():
            a, b = m["value"], pair["B"]["metrics"][name]["value"]
            values["A"].setdefault(name, []).append(a)
            values["B"].setdefault(name, []).append(b)
            lower = declared.get(name, {}).get("better") != "higher"
            if a != b and (a < b) == lower:
                wins[name] = wins.get(name, 0) + 1
        print(f"pair {i + 1}/{args.pairs} done (order {''.join(order)})",
              file=sys.stderr)
    print(f"A = {trees['A']}\nB = {trees['B']}")
    print(f"{'metric':<16} {'A q1':>11} {'A median':>11} {'A q3':>11} "
          f"{'B q1':>11} {'B median':>11} {'B q3':>11} {'A/B':>7} {'A wins':>7}")
    summary = {}
    for name in values["A"]:
        qa, qb = _quartiles(values["A"][name]), _quartiles(values["B"][name])
        ratio = qa[1] / qb[1] if qb[1] else float("nan")
        summary[name] = {"A": qa, "B": qb, "ratio": ratio,
                         "a_wins": wins.get(name, 0), "pairs": args.pairs}
        print(f"{name:<16} {qa[0]:>11.5g} {qa[1]:>11.5g} {qa[2]:>11.5g} "
              f"{qb[0]:>11.5g} {qb[1]:>11.5g} {qb[2]:>11.5g} {ratio:>7.3f} "
              f"{wins.get(name, 0):>3}/{args.pairs}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "paired": summary}))
    return 0


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="run the held-out scenario seed only")
    parser.add_argument("--tree", type=Path, default=CHECKOUT,
                        help="source tree to measure (holds src/repro)")
    parser.add_argument("--against", type=Path,
                        help="second source tree: paired A/B mode")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    args.tree = args.tree.resolve()
    for tree in (args.tree, args.against):
        problem = check_tree(tree) if tree is not None else None
        if problem is not None:
            print(f"perfbench: {problem}", file=sys.stderr)
            return 2
    _, cleared = program_env(args.tree)
    if cleared:
        print(f"perfbench: cleared for the program: {cleared}",
              file=sys.stderr)
    try:
        if args.against is not None:
            args.against = args.against.resolve()
            args.base_seed = args.seed
            return paired(args)
        result = run_once(args.tree, args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    print_table(result, bool(args.trace))
    problem = check_declared(result, bool(args.trace))
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
