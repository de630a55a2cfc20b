"""fdradiance benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload spectrum-numeric --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ./src, never
from an installed copy. Set-up is timed in fresh processes (interpreter
start, imports, warm-up) several times and the median is reported; the
last of those processes then runs the timed batch. The last line of
standard output is one JSON object; lines before it start with '#'.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5              # fresh processes timed for setup_s; the last one runs the batch
DEADLINE_S = 170.0      # whole run, set-up included
WORKLOADS = ("spectrum-numeric", "closed-form", "cli-readme")


def spawn(args, out_dir, setup_only):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def wait_ready(proc):
    """True once the worker prints READY; False if it exits first."""
    return proc.stdout.readline().strip() == "READY"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "fdradiance" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {ROOT / 'src' / 'fdradiance'}")
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")

    out_dir = ROOT / ".perfbench_out" / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    procs = []

    def kill_all():
        for p in procs:
            if p.poll() is None:
                p.kill()

    watchdog = threading.Timer(DEADLINE_S, kill_all)
    watchdog.start()
    try:
        setups, raw_setups = [], []
        for i in range(SETUPS):
            t0 = time.perf_counter()
            proc = spawn(args, out_dir, setup_only=i < SETUPS - 1)
            procs.append(proc)
            if not wait_ready(proc):
                proc.wait()
                sys.exit(f"error: worker did not start (exit code {proc.returncode})")
            raw_setups.append(time.perf_counter() - t0)
            speed = json.loads(proc.stdout.readline())["setup_speed"]
            setups.append(raw_setups[-1] * speed)
            if i < SETUPS - 1:
                proc.stdout.read()
                proc.wait()
        out, _ = proc.communicate()
        if proc.returncode != 0:
            sys.exit(f"error: worker exited with code {proc.returncode}")
        res = json.loads(out.strip().splitlines()[-1])
    finally:
        watchdog.cancel()
        kill_all()
        for p in procs:
            p.wait()
        for p in out_dir.glob("spans-*.jsonl.gz"):
            p.replace(out_dir.parent / p.name)
        shutil.rmtree(out_dir, ignore_errors=True)

    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={res['numpy']}")
    print(f"# workload {args.workload} seed {args.seed}: {res['n_tasks']} tasks, closed loop, "
          f"one client; tail = p{res['tail_percentile']:.1f} "
          f"({res['tasks_beyond_tail']} tasks beyond)")
    print(f"# unadjusted: batch {res['raw_wall_s']:.3f} s, setup median "
          f"{statistics.median(raw_setups):.3f} s (times below are speed-adjusted)")
    print("# per-kind median ms: " + ", ".join(
        f"{k} {v:.3f}" for k, v in res["kind_p50_ms"].items()))
    print(f"# failed_frac {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.4g}; gate checks {res['checks']}; "
          f"self-check: {res['selfcheck_misses']} of {res['selfchecked']} perturbed "
          f"outputs passed the gate")
    for line in res["known_defect"]:
        print("# known defect, outside the workload (exact zeta=0 route near "
              "cos theta = -1): " + line)
    for line in res["failures"]:
        print("# FAILED " + line.replace("\n", "\n# "))
    correct = res["failed"] == 0 and res["selfcheck_misses"] == 0
    if args.trace:
        print(f"# traced: {res['spans']} spans ({res['worker_spans']} from pool workers); "
              f"untraced wall {res['wall_s']:.3f} s, "
              f"traced wall {res['traced_wall_s']:.3f} s, overhead "
              f"{res['layers']['trace.overhead_s']:+.3f} s; traced outputs "
              f"{'identical' if res['trace_mismatches'] == 0 else 'DIFFER'}")
        correct = correct and res["trace_mismatches"] == 0
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in res["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "task_p50_ms": {"value": res["task_p50_ms"], "unit": "ms"},
            "task_tail_ms": {"value": res["task_tail_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("yield"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    main()
