#!/usr/bin/env python3
"""Benchmark of defectk: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid-certify --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The run sets up the workload (import plus input generation) three
times, then repeats passes over the workload's instances for about
``--seconds`` seconds, each pass set up afresh, and checks every report.
``setup_s`` is the median of all the set-ups.  With ``--trace 1`` the
passes alternate between untraced and traced, the per-layer metrics come
from the traced ones and the spans go to ``perfbench/_work/``.

A shared machine changes speed: the 2-vCPU machine of ``baseline.json``
by 2x or more within minutes.  So a fixed piece of reference work, which
uses no code of the program, is timed after every set-up and after every
instance, and the end-to-end times are reported at the reference speed:
each measured time is scaled by ``REFERENCE_S`` over the reference time
taken around it.  The measured seconds are printed beside them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path("perfbench/_work")  # relative to ROOT, so reports name the same path
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SETUP_REPEATS = 3
# Nominal seconds of reference_work(): end-to-end times are scaled to the
# speed at which it takes this long (about its median on the baseline machine).
REFERENCE_S = 0.15

END_TO_END = {"wall_s": "s", "slowest_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def reference_work() -> int:
    """A fixed mix of the program's kinds of arithmetic, written without
    the program: elimination over the rationals (big-integer growth) and
    modulo 2^31-1 (small integers)."""
    rng = random.Random(0)
    rows = [[Fraction(rng.randint(-997**2, 997**2)) for _ in range(24)] for _ in range(24)]
    for c in range(24):
        inverse = 1 / rows[c][c]
        for r in range(c + 1, 24):
            f = rows[r][c] * inverse
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    p = workloads.P31
    rows = [[rng.randrange(p) for _ in range(90)] for _ in range(90)]
    for c in range(90):
        inverse = pow(rows[c][c], -1, p)
        for r in range(c + 1, 90):
            f = rows[r][c] * inverse % p
            rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[c])]
    return rows[-1][-1]


def reference_seconds() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


@dataclass
class Pass:
    traced: bool
    setup_s: float = 0.0  # import plus input generation before the pass
    setup_ref: float = 0.0  # reference seconds right after the set-up
    seconds: dict[str, float] = field(default_factory=dict)  # per instance
    ref: dict[str, float] = field(default_factory=dict)  # reference seconds around each
    reports: dict[str, bytes | None] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)


def set_up(workload: str, seed: int):
    """Import a fresh program and make the inputs; returns the program, the
    instances and the seconds taken."""
    start = perf_counter()
    dk = workloads.import_program(SRC)
    instances = workloads.build(workload, seed, WORKDIR)
    return dk, instances, perf_counter() - start


def run_pass(workload: str, seed: int, tracer: tracing.Tracer | None = None) -> Pass:
    """One pass over the instances, set up afresh as a new process would."""
    dk, instances, setup_s = set_up(workload, seed)
    gc.collect()
    before = reference_seconds()
    result = Pass(traced=tracer is not None, setup_s=setup_s, setup_ref=before)
    if tracer is not None:
        tracer.install()
    try:
        for inst in instances:
            if tracer is not None:
                tracer.instance = inst.label
            start = perf_counter()
            try:
                report = inst.run(dk)
            except Exception as exc:  # an instance failure is counted, not fatal
                report = None
                result.errors[inst.label] = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            result.seconds[inst.label] = perf_counter() - start
            result.reports[inst.label] = report
            after = reference_seconds()
            result.ref[inst.label] = (before + after) / 2
            before = after
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result


def measure(workload: str, seed: int, seconds: float, traced: bool):
    """Rounds of passes (one untraced, plus one traced when asked) until the
    next round would end after ``seconds``; always at least one round."""
    plain, traced_passes, tracers = [], [], []
    start = perf_counter()
    while True:
        plain.append(run_pass(workload, seed))
        if traced:
            tracers.append(tracing.Tracer())
            traced_passes.append(run_pass(workload, seed, tracers[-1]))
        elapsed = perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, traced_passes, tracers


def at_reference_speed(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_S / reference


def instance_medians(passes: list[Pass], scaled: bool = True) -> dict[str, float]:
    """Each instance's median seconds over the passes, at the reference
    speed unless ``scaled`` is false."""
    return {label: statistics.median(
                at_reference_speed(p.seconds[label], p.ref[label]) if scaled
                else p.seconds[label] for p in passes)
            for label in passes[0].seconds}


def wall_seconds(passes: list[Pass]) -> float:
    """Seconds per pass at the reference speed: the sum over instances of
    each one's median."""
    return sum(instance_medians(passes).values())


def check_reports(instances, passes: list[Pass], golden: dict, dk) -> tuple[int, list[str]]:
    """Failed instance runs over all passes, and one line per distinct problem.

    A run fails on an exception or nonzero exit, a golden-hash mismatch, an
    oracle mismatch, or, in a traced pass, a report whose bytes differ from
    the untraced one."""
    reference = {inst.label: passes[0].reports[inst.label] for inst in instances}
    verdicts: dict[tuple[str, bytes], list[str]] = {}
    failed, problems = 0, []
    for p in passes:
        for inst in instances:
            found = [p.errors[inst.label]] if inst.label in p.errors else []
            report = p.reports[inst.label]
            if report is not None:
                key = (inst.label, report)
                if key not in verdicts:
                    digest = hashlib.sha256(inst.normalize(report)).hexdigest()
                    verdicts[key] = ([] if digest == golden.get(inst.label)
                                     else [f"sha256 {digest} is not the golden hash"])
                    verdicts[key] += inst.check(dk, report)
                found += verdicts[key]
                if p.traced and report != reference[inst.label]:
                    found.append("traced report differs from the untraced one")
            if found:
                failed += 1
                problems += [f"{inst.label}: {line}" for line in found
                             if f"{inst.label}: {line}" not in problems]
    return failed, problems


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["reports"][args.workload]
        setups = []
        for _ in range(SETUP_REPEATS):
            _, instances, seconds = set_up(args.workload, args.seed)
            setups.append((seconds, reference_seconds()))
    except (ImportError, OSError, KeyError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    plain, traced, tracers = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    dk = workloads.import_program(SRC)
    failed, problems = check_reports(instances, plain + traced, golden, dk)
    attempted = len(instances) * (len(plain) + len(traced))
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)

    if args.trace:
        per_pass = [t.metrics() for t in tracers]
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name in tracing.LAYER_METRICS}
        values["trace.overhead_s"] = wall_seconds(traced) - wall_seconds(plain)
        units = {**tracing.LAYER_METRICS, "trace.overhead_s": "s"}
        WORKDIR.mkdir(parents=True, exist_ok=True)
        sidecar = WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
        sidecar.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "passes": [t.sidecar() for t in tracers],
        }), encoding="utf-8")
        print(f"spans and rank calls written to {sidecar}")
    else:
        medians, measured = instance_medians(plain), instance_medians(plain, scaled=False)
        setups += [(p.setup_s, p.setup_ref) for p in plain]
        values = {
            "wall_s": sum(medians.values()),
            "slowest_s": max(medians.values()),
            "setup_s": statistics.median(at_reference_speed(*s) for s in setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        references = [r for p in plain for r in p.ref.values()]
        print(f"  reference work: median {statistics.median(references):.4f} s, "
              f"range {min(references):.4f}-{max(references):.4f} s, "
              f"nominal {REFERENCE_S} s")
        for label, seconds in medians.items():
            print(f"  {label:<24} {seconds:.4f} s at reference speed, "
                  f"{measured[label]:.4f} s measured (medians of {len(plain)})")
        print(f"  measured wall {sum(measured.values()):.4f} s, slowest "
              f"{max(measured.values()):.4f} s, setup "
              f"{statistics.median(s[0] for s in setups):.4f} s")

    print(f"{args.workload} seed={args.seed}: {len(plain)} untraced and {len(traced)} "
          f"traced passes of {len(instances)} instances")
    for name, value in values.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    print(f"  {'failed_frac':<40} {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
