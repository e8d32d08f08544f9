#!/usr/bin/env python3
"""Record the benchmark's reference data from the current source tree.

    python3 perfbench/record.py golden     # rewrite perfbench/golden.json
    python3 perfbench/record.py baseline   # rewrite perfbench/baseline.json

``golden`` runs every instance once for each of several seeds, requires each
report to pass its oracle check and its seed-normalized hash to agree across
the seeds, and stores that hash.  ``baseline`` runs the benchmark on every
workload, untraced and traced, and stores the results beside the
environment they were measured in.  Run from the root of a git checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import run
import workloads

SEEDS = (1, 2, 3)
BASELINE_SEED = 1
BASELINE_SECONDS = 40


def record_golden() -> dict:
    reports: dict[str, dict[str, str]] = {}
    for workload in workloads.WORKLOADS:
        hashes: dict[str, set[str]] = {}
        for seed in SEEDS:
            dk, instances, _ = run.set_up(workload, seed)
            result = run.run_pass(workload, seed)
            for inst in instances:
                if inst.label in result.errors:
                    raise SystemExit(f"{workload}/{inst.label}: {result.errors[inst.label]}")
                report = result.reports[inst.label]
                problems = inst.check(dk, report)
                if problems:
                    raise SystemExit(f"{workload}/{inst.label} seed {seed}: {problems}")
                digest = hashlib.sha256(inst.normalize(report)).hexdigest()
                hashes.setdefault(inst.label, set()).add(digest)
                print(f"{workload} seed={seed} {inst.label} {digest}", flush=True)
        for label, found in hashes.items():
            if len(found) != 1:
                raise SystemExit(f"{workload}/{label}: hash depends on the seed: {found}")
        reports[workload] = {label: found.pop() for label, found in hashes.items()}
    return {"program_commit": _git_commit(), "seeds_checked": list(SEEDS), "reports": reports}


def record_baseline() -> dict:
    results = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(BASELINE_SEED), "--seconds", str(BASELINE_SECONDS),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            results[f"{workload} trace={trace}"] = json.loads(out.splitlines()[-1])
            print(out, flush=True)
    return {"environment": _environment(), "seed": BASELINE_SEED,
            "seconds": BASELINE_SECONDS, "results": results}


def _git_commit() -> str:
    return subprocess.run(["git", "rev-parse", "HEAD"], check=True, capture_output=True,
                          text=True).stdout.strip()


def _environment() -> dict:
    cpu = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "program_commit": _git_commit(),
    }


def main(argv: list[str]) -> int:
    if argv not in (["golden"], ["baseline"]):
        print(__doc__, file=sys.stderr)
        return 1
    os.chdir(run.ROOT)
    data = record_golden() if argv == ["golden"] else record_baseline()
    target = Path(__file__).resolve().parent / f"{argv[0]}.json"
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
