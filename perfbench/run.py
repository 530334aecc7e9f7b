"""chardeg benchmark: one workload per invocation, closed loop, one thread.

    python3 perfbench/run.py --workload catalog-150 --seed 1 --seconds 50 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  Set-up
(importing chardeg and making the inputs from the seed) is timed thirteen
times: once in this process and twelve times in fresh interpreters, half of
them before the passes and half after, and ``setup_s`` is the median.
Passes repeat while another pass of median length still fits in
``--seconds`` (at least one pass).  A pass is split into groups (see
spans.py; only ``build`` and ``prime_coverage_check`` are wrapped for
this).  Between groups, at most every 50 ms, a short fixed loop times the
CPU's current speed (speed.py), and each group's time is scaled by the
loop's reference time over its mean time just before and after the group.
``wall_s`` is the sum over the groups of each group's median scaled time:
the pass time at the reference speed.  On a shared host whose vCPUs run at
full or about half speed for seconds to minutes at a time, this repeats
where raw pass times do not (the raw ones are in the record).  Every pass
is checked against ``reference.json``.

With ``--trace 1`` half of ``--seconds`` goes to untraced passes and half to
traced ones (spans recorded by wrapping the package's public functions from
outside, see spans.py).  The run then reports the per-layer metrics instead
of the end-to-end ones, checks that traced and untraced outputs are
identical, and prints the slowest groups and per-family times.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are a
readable summary and one JSON record with versions, commit, seed and details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import GROUP_TARGETS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_RUNS = 12  # plus the in-process sample
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up as timed in a fresh interpreter: import chardeg, make the inputs.
SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.make_inputs(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]))
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("catalog-150", "solver-wide", "structure-large"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--max-order",
        type=int,
        default=150,
        help="order bound of the catalog workload (for one-off sweeps such as 2000)",
    )
    ap.add_argument(
        "--record",
        action="store_true",
        help="store this run's outputs in reference.json instead of only checking them",
    )
    return ap.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_sample(args) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, str(BENCH_DIR), str(SRC),
         args.workload, str(args.seed), str(args.max_order)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.split()[-1])


def check(workloads, args, outcomes) -> tuple[int, int, list[str]]:
    """Operations attempted and failed over all passes, and what went wrong.
    Errors, violations and differences from the reference each count as a
    failed operation; so do passes (traced or not) whose outputs disagree."""
    key = workloads.reference_key(args.workload, args.max_order)
    reference = load_references().get(key)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = []
    if reference is None:
        problems.append(f"no reference recorded for {key}; outputs not compared")
    for i, outcome in enumerate(outcomes):
        bad = workloads.mismatches(args.workload, outcome, reference, args.seed)
        failed += len(bad)
        problems += [f"pass {i}: {b} differs from the reference" for b in bad]
    if len({o.digest for o in outcomes}) > 1:
        failed += 1
        problems.append("passes of this run (traced and untraced) produced different outputs")
    return attempted, failed, problems


def load_references() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def record_reference(workloads, args, outcome) -> None:
    """Store ``outcome`` in reference.json, one line per group or field."""
    references = load_references()
    key = workloads.reference_key(args.workload, args.max_order)
    references[key] = workloads.as_reference(args.workload, outcome, args.seed, references.get(key))
    blocks = []
    for name, entry in sorted(references.items()):
        lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in entry.items()]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def timed_passes(workloads, args, inputs, seconds: float, tracer, probe):
    """Closed loop: passes back to back while another one fits in ``seconds``.

    Returns each pass's time as measured (probes taken out), its outputs,
    and ``wall``: the pass time at the probe loop's reference speed, the sum
    over the groups of each group's median scaled time.
    """
    times, outcomes, durations = [], [], []
    first = len(probe.groups)
    start = time.perf_counter()
    while not durations or time.perf_counter() - start + statistics.median(durations) <= seconds:
        t0 = time.perf_counter()
        probe.run()
        spent = probe.spent
        t1 = time.perf_counter()
        outcome = workloads.run_pass(args.workload, inputs, args.seed, tracer.mark_group)
        tracer.mark_group(None)
        t2 = time.perf_counter()
        durations.append(t2 - t0)
        times.append(t2 - t1 - (probe.spent - spent))
        outcomes.append(outcome)
    probe.run()  # brackets the last group
    groups = probe.scaled_groups(first)
    wall = sum(statistics.median(v) for v in groups.values())
    return times, outcomes, wall


def layer_metrics(tracer, passes: int, evidence: dict, overhead: float) -> dict:
    """Per-pass averages of every span and counter of the traced run."""
    metrics = {}
    for name, (calls, incl, self_s) in tracer.stats.items():
        metrics[f"{name}.calls"] = {"value": calls / passes, "unit": "count"}
        metrics[f"{name}.s"] = {"value": incl / passes, "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": self_s / passes, "unit": "s"}
    for name, count in tracer.counters.items():
        metrics[name] = {"value": count / passes, "unit": "count"}
    rows = evidence.get("rows", 0)
    for key in ("rows", "confirmed", "vacuous", "boundary", "informative_rows"):
        metrics[f"verify.{key}"] = {"value": evidence.get(key, 0), "unit": "count"}
    metrics["verify.informative_ratio"] = {
        "value": evidence.get("informative_rows", 0) / rows if rows else 0.0,
        "unit": "ratio",
    }
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


def group_report(workloads, tracer) -> dict:
    per_group = {k: statistics.fmean(v) for k, v in tracer.group_times.items()}
    families: dict[str, dict] = {}
    for spec, seconds in per_group.items():
        fam = families.setdefault(workloads.family(spec), {"groups": 0, "s": 0.0})
        fam["groups"] += 1
        fam["s"] += seconds
    top = sorted(per_group.items(), key=lambda kv: -kv[1])[:10]
    return {
        "top_groups": [{"group": g, "s": s} for g, s in top],
        "families": dict(sorted(families.items(), key=lambda kv: -kv[1]["s"])),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chardeg" / "__init__.py").is_file():
        print(f"error: no chardeg sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.max_order)
    setup_times = [time.perf_counter() - t0]
    import chardeg
    import numpy
    from speed import REFERENCE_S, SpeedProbe

    if Path(chardeg.__file__).resolve().parent != (SRC / "chardeg").resolve():
        print(f"error: imported chardeg from {chardeg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    probe = SpeedProbe()
    setup_runs = 0 if args.trace else SETUP_RUNS // 2
    setup_times += [setup_sample(args) for _ in range(setup_runs)]
    phase = args.seconds / 2 if args.trace else args.seconds
    with Tracer(GROUP_TARGETS, between=probe.between) as clock:
        times, outcomes, wall = timed_passes(workloads, args, inputs, phase, clock, probe)
    traced_times, tracer = [], None
    if args.trace:
        with Tracer(between=probe.between) as tracer:
            traced_times, traced, traced_wall = timed_passes(workloads, args, inputs, phase, tracer, probe)
        outcomes += traced
    setup_times += [setup_sample(args) for _ in range(setup_runs)]

    attempted, failed, problems = check(workloads, args, outcomes)
    if args.record:
        if failed:
            print("error: refusing to record a run with failures", file=sys.stderr)
            return 1
        record_reference(workloads, args, outcomes[0])

    evidence = outcomes[0].evidence
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "max_order": args.max_order if args.workload == workloads.CATALOG else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "reference_s": REFERENCE_S,
        "speed_probes": len(probe.times),
        "speed_probe_median_s": statistics.median(probe.times),
        "cpu_moves": probe.moves,
        "probe_share": probe.spent / (time.perf_counter() - t0),
        "pass_raw_s": times,
        "wall_s": wall,
        "setup_samples_s": setup_times,
        "digest": outcomes[0].digest,
        "evidence": evidence,
        "failed_ops_frac": failed / attempted,
    }
    if args.trace:
        overhead = traced_wall / wall - 1
        metrics = layer_metrics(tracer, len(traced_times), evidence, overhead)
        record["traced_pass_s"] = traced_times
        record.update(group_report(workloads, tracer))
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }

    for problem in problems:
        print("check:", problem)
    print(f"{args.workload}: {len(times)} pass(es), seed {args.seed}, "
          f"{attempted} ops attempted, {failed} failed")
    print(f"  failed_ops_frac = {failed / attempted} ratio")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    if evidence:
        print("  evidence:", ", ".join(f"{k}={v}" for k, v in evidence.items()))
    if args.trace:
        print("  slowest groups (s per pass):")
        for row in record["top_groups"]:
            print(f"    {row['group']:<28} {row['s']:.3f}")
        print("  families (s per pass):")
        for fam, row in record["families"].items():
            print(f"    {fam:<14} {row['groups']:>5} groups {row['s']:.3f}")
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
