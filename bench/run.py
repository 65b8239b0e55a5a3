"""qiepulse benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload report --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src, unmodified.  Workloads (see workloads.py and BENCHMARK.json):
report, design_sweep, pulse_files.  Each is a single-process, single-client
closed loop: the next op starts when the previous one has finished and been
checked.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones.

Timings are seconds at a reference host speed (see hostspeed.py): on a
shared VM the host's speed drifts by tens of percent within seconds, so raw
wall time does not compare runs made minutes apart.  Raw wall and CPU
seconds of every op are kept in the run record under .bench_run/.

Set-up (setup_s) is the import of qiepulse, timed inside a fresh
interpreter started for that purpose and ended before the next step, plus
the workload's input generation; it is repeated SETUP_REPS times and the
median reported.

In a traced run (--trace 1) odd ops run with every layer wrapped (see
layers.py) and even ops without, so trace.overhead_ratio compares
neighbouring ops.  Spans are written to .bench_run/ when the run ends.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from hostspeed import SpeedProbe
from layers import install, layer_metrics
from spans import Tracer

NAMES = ("report", "design_sweep", "pulse_files")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

SETUP_REPS = 5
MIN_OPS = 2           # op 1 repeats op 0, so every run checks determinism
TAIL_BEYOND = 10      # op_s_tail: highest percentile with 10 samples beyond

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import qiepulse\n"
    "print(repr(time.perf_counter() - t))\n"
)


def child_import_s():
    """Seconds to import qiepulse in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.split()[-1])


def tail(values):
    """(percentile, value): the highest sample with TAIL_BEYOND samples
    above it, never below the median; its percentile by rank."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 1 - TAIL_BEYOND, (n - 1) // 2)
    return 100.0 * (k + 1) / n, ordered[k]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run(workload, seed, seconds, trace, size="full"):
    """Set up, run ops for `seconds`, check them; returns (result, record).

    qiepulse must be importable (main() puts ./src on sys.path).
    """
    import scipy

    from workloads import WORKLOADS

    work_dir = RUN_DIR / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    wl = WORKLOADS[workload](work_dir, seed, size)
    try:
        setup = []
        for _ in range(SETUP_REPS):
            with SpeedProbe() as probe:
                import_s = child_import_s()
                t0 = time.perf_counter()
                wl.generate()
                gen_s = time.perf_counter() - t0
            setup.append({"import_s": import_s, "generate_s": gen_s,
                          "speed": probe.speed})

        failures = {}
        try:
            prepared = wl.prepare()
        except Exception as exc:  # noqa: BLE001 - a failed run-level check
            prepared = [f"{type(exc).__name__}: {exc}"]
        if prepared:
            failures["prepare"] = prepared

        tracer = Tracer()
        ops = []
        t_start = time.perf_counter()
        i = 0
        while i < MIN_OPS or (
                time.perf_counter() - t_start
                + statistics.median(o["wall_s"] for o in ops) <= seconds):
            traced = trace and i % 2 == 1
            wl.before_op(i)
            lo = len(tracer)
            if traced:
                install(tracer)
            error = None
            with SpeedProbe() as probe:
                try:
                    wl.op(i)
                except Exception as exc:  # noqa: BLE001 - a failed op
                    error = f"{type(exc).__name__}: {exc}"
            tracer.restore()
            op = {"s": probe.seconds, "wall_s": probe.wall,
                  "cpu_s": probe.cpu, "speed": probe.speed, "traced": traced}
            if error is None:
                try:
                    problems = wl.check(i)
                except Exception as exc:  # noqa: BLE001 - a broken output
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                problems = [error]
            if problems:
                failures[f"op {i}"] = problems
            if traced:
                op["spans"] = tracer.aggregate(lo, len(tracer))
            ops.append(op)
            i += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(ops) + wl.run_checks
    failed = len(failures)
    untraced = [o["s"] for o in ops if not o["traced"]]
    if trace:
        metrics = traced_metrics(ops, tracer.names, untraced)
    else:
        pct, tail_s = tail(untraced)
        setup_s = statistics.median((s["import_s"] + s["generate_s"])
                                    * s["speed"] for s in setup)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": statistics.median(untraced), "unit": "s"},
            "op_s_tail": {"value": tail_s, "unit": "s"},
            "success_ratio": {"value": (attempted - failed) / attempted,
                              "unit": "ratio"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0,
                "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "size": size, "git_commit": git_commit(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "setup": setup,
        "ops": [{k: v for k, v in o.items() if k != "spans"} for o in ops],
        "failures": failures, "result": result,
    }
    if trace:
        tracer.save(RUN_DIR / f"spans-{workload}-seed{seed}.npz")
    else:
        record["tail_percentile"] = pct
    return result, record


def traced_metrics(ops, names, untraced):
    """Per-layer metrics over the traced ops; self times are taken at the
    reference speed with each op's own speed."""
    traced_ops = [o for o in ops if o["traced"]]
    totals = {}
    for o in traced_ops:
        calls, self_s, work = o["spans"]
        for k, name in enumerate(names):
            c, s, w = totals.get(name, (0.0, 0.0, 0.0))
            totals[name] = (c + calls[k], s + self_s[k] * o["speed"],
                            w + work[k])
    metrics = layer_metrics(totals, len(traced_ops))
    traced_s = statistics.median(o["s"] for o in traced_ops)
    metrics["trace.overhead_ratio"] = {
        "value": traced_s / statistics.median(untraced), "unit": "ratio"}
    return metrics


def summary_lines(result, record):
    lines = [f"workload {record['workload']} seed {record['seed']} "
             f"ops {len(record['ops'])} attempted {result['attempted']} "
             f"failed {result['failed']} fail_ratio "
             f"{result['failed'] / result['attempted']:.6g}"]
    if "tail_percentile" in record:
        lines.append(f"op_s_tail is p{record['tail_percentile']:.1f} of "
                     f"{len(record['ops'])} ops")
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    walls = [o["wall_s"] for o in record["ops"]]
    cpus = [o["cpu_s"] for o in record["ops"]]
    lines.append(f"raw wall per op: median {statistics.median(walls):.4f} s, "
                 f"cpu/wall {sum(cpus) / sum(walls):.3f}")
    for where, problems in record["failures"].items():
        lines.append(f"FAILED {where}: {'; '.join(problems)}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qiepulse" / "__init__.py").is_file():
        print(f"error: no qiepulse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, record = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    RUN_DIR.mkdir(exist_ok=True)
    (RUN_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for line in summary_lines(result, record):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
