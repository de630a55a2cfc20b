"""One fresh benchmark process: import, warm up, then (unless --setup-only) run.

Prints ``READY`` once the package is imported and warmed up; ``run.py``
times set-up up to that line. A full run then times the seeded batch in a
closed loop (one client; the next task starts when the previous returns),
gates every output against its reference outside the timed region, and
prints one JSON line. With --trace 1 the batch runs untraced, then again
with the tracer's wrappers installed; outputs must match bit for bit.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fdradiance  # noqa: E402

if Path(fdradiance.__file__).resolve().parent != ROOT / "src" / "fdradiance":
    sys.exit(f"fdradiance imported from {fdradiance.__file__}, not from {ROOT / 'src'}")

import tracing  # noqa: E402
import workloads  # noqa: E402

# Nominal cost of one unit (a task, or a cycle of tasks) per workload, in
# seconds; a batch is round(--seconds / cost) units, so a given --seconds
# always gives the same batch. A cli-readme cycle takes 2 to 3 s; 2.9 gives
# 20 s runs 7 cycles: the tail task (ten slower ones beyond it) is then the
# median `energy` command, not the boundary between `energy` and `check`.
UNIT_COST = {"spectrum-numeric": 0.15, "closed-form": 1.0, "cli-readme": 2.9}


# Machine-speed calibration. The CPU speed this benchmark sees drifts by
# +-20% over seconds to minutes (shared host cores; no steal time shows in
# /proc/stat), which would swamp any regression bound. A fixed kernel of
# benchmark-owned code, run between tasks (outside their timed spans) once
# per CALIB_EVERY_S of task time, measures the current speed; each task
# time is divided by the mean speed of the kernels within SPEED_WINDOW_S
# of it (at least MIN_KERNELS of them). In 10 s windows the ratio of
# a fixed task's mean time to the kernel's stayed within 2% while the raw
# means moved by 20%. Times are reported in seconds at the speed at which
# one kernel takes CALIB_REF_S.
CALIB_REF_S = 3.0e-3
SPEED_WINDOW_S = 2.5
CALIB_EVERY_S = 0.05    # one kernel per 50 ms of task time
MIN_KERNELS = 5
_CALIB_X = np.linspace(0.1, 3.0, 225)


def calibration_kernel():
    """Seconds taken by a fixed mix of interpreted loop and small numpy ops."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(300):
        y = np.exp(-_CALIB_X * (1.0 + 1e-3 * i)) * np.cos(_CALIB_X * i)
        acc += float(y @ _CALIB_X)
        for j in range(20):
            acc += math.sqrt(j + i)
    return time.perf_counter() - t0


def run_batch(tasks, tracer=None):
    """Run tasks back to back, with calibration kernels between them.

    Returns (outputs, raw seconds per task, speed-adjusted seconds per task,
    errors).
    """
    outputs, times, starts, errors, calib_at, calib = [], [], [], {}, [], []
    owed = 0.0
    clock = time.perf_counter
    for i, (kind, call) in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        t0 = clock()
        try:
            out = call()
        except Exception as exc:  # a raising task is a failed task, not a crash
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer is not None:
            tracer.task = None
        times.append(t1 - t0)
        starts.append(t0)
        outputs.append(out)
        owed += t1 - t0
        while owed >= CALIB_EVERY_S or not calib:
            calib_at.append(clock())
            calib.append(calibration_kernel())
            owed = max(0.0, owed - CALIB_EVERY_S)
    calib_at, calib = np.array(calib_at), np.cumsum([0.0] + calib)
    adjusted = []
    for t0, dt in zip(starts, times):
        lo = np.searchsorted(calib_at, t0 - SPEED_WINDOW_S)
        hi = np.searchsorted(calib_at, t0 + dt + SPEED_WINDOW_S)
        if hi - lo < MIN_KERNELS:   # too few kernels nearby: take the nearest ones
            lo = int(np.clip((lo + hi - MIN_KERNELS) // 2, 0,
                             max(0, len(calib_at) - MIN_KERNELS)))
            hi = min(len(calib_at), lo + MIN_KERNELS)
        speed = CALIB_REF_S * (hi - lo) / (calib[hi] - calib[lo])
        adjusted.append(dt * speed)
    return outputs, times, adjusted, errors


def gate(tasks, outputs, errors, gate_fn):
    """Failed tasks with reasons, and the gate self-check's tally.

    The self-check gates each passing task again with one output number
    moved (``workloads.perturb``); some check must then fail, or the gate
    does not read that number and the task counts as a miss.
    """
    failed = dict(errors)
    misses = checks = selfchecked = 0
    for i, ((kind, call), out) in enumerate(zip(tasks, outputs)):
        if i in failed:
            continue
        try:
            results = gate_fn(kind, call, out)
        except Exception:
            failed[i] = f"{kind}: gate raised\n{traceback.format_exc()}"
            continue
        checks += len(results)
        bad = [c for c in results if not c.passes()]
        if bad:
            c = bad[0]
            failed[i] = (f"{kind}: {c.label} |{c.value!r} - {c.ref!r}| > "
                         f"{float(c.allowed)!r}; inputs {_inputs(call)}")
            continue
        selfchecked += 1
        try:
            caught = not all(c.passes() for c in
                             gate_fn(kind, call, workloads.perturb(kind, call, out)))
        except Exception:   # the gate rejects the perturbed output by raising
            caught = True
        if not caught:
            misses += 1
            failed[i] = (f"{kind}: gate self-check missed a perturbed output; "
                         f"inputs {_inputs(call)}")
    return failed, misses, checks, selfchecked


def _inputs(call):
    text = repr(call.inputs)
    return text if len(text) < 300 else text[:300] + "..."


def comparable(out):
    """Outputs in a form where equality means bit-identical floats."""
    if isinstance(out, float):
        return out.hex()
    if isinstance(out, tuple):
        return tuple(comparable(o) for o in out)
    return out


def timing_stats(times):
    ts = sorted(times)
    n = len(ts)
    k = n - 11 if n > 10 else n - 1     # ten tasks lie beyond index n - 11
    return {
        "task_p50_ms": 1e3 * float(np.median(ts)),
        "task_tail_ms": 1e3 * ts[k],
        "tail_percentile": 100.0 * (k + 1) / n,
        "tasks_beyond_tail": n - k - 1,
        "n_tasks": n,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    make_tasks, warmup, gate_fn = workloads.WORKLOADS[args.workload]
    warmup()
    print("READY", flush=True)
    # Speed at set-up time, so that run.py can adjust setup_s like task times.
    speed = CALIB_REF_S * 20 / sum(calibration_kernel() for _ in range(20))
    print(json.dumps({"setup_speed": speed}), flush=True)
    if args.setup_only:
        return

    passes = 2 if args.trace else 1
    units = max(1, round(args.seconds / passes / UNIT_COST[args.workload]))
    tasks = make_tasks(np.random.default_rng(args.seed), units)
    outputs, raw, times, errors = run_batch(tasks)
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    wall = sum(times)
    result = {"wall_s": wall, "raw_wall_s": sum(raw), "peak_rss_mb": usage / 1024.0,
              "numpy": np.__version__, **timing_stats(times)}

    kinds: dict = {}
    for (kind, _), t in zip(tasks, times):
        kinds.setdefault(kind, []).append(t)
    result["kind_p50_ms"] = {k: 1e3 * float(np.median(v)) for k, v in sorted(kinds.items())}

    if args.trace:
        spill = Path(args.out_dir) / "spill"
        spill.mkdir(parents=True, exist_ok=True)
        tracer = tracing.Tracer(spill)
        tracer.install()
        try:
            t_out, _, t_times, t_err = run_batch(tasks, tracer)
        finally:
            tracer.uninstall()
        tracer.collect()
        tracer.write(Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        mismatched = [i for i, (a, b) in enumerate(zip(outputs, t_out))
                      if comparable(a) != comparable(b)]
        layers = tracing.layer_metrics(tracer.spans)
        if args.workload == "cli-readme":
            layers["cli.rows"] = sum(workloads.cli_rows(o) for o in t_out if o is not None)
        else:
            layers["cli.rows"] = 0
        layers["trace.overhead_s"] = sum(t_times) - wall
        result.update(layers=layers, traced_wall_s=sum(t_times),
                      trace_mismatches=len(mismatched) + len(set(t_err) ^ set(errors)),
                      spans=len(tracer.spans),
                      worker_spans=sum(s[tracing.SID][0] != tracer.pid for s in tracer.spans))

    failed, misses, checks, selfchecked = gate(tasks, outputs, errors, gate_fn)
    result.update(attempted=len(tasks), failed=len(failed), checks=checks,
                  selfcheck_misses=misses, selfchecked=selfchecked,
                  failures=[f"task {i}: {why}" for i, why in sorted(failed.items())][:20],
                  known_defect=workloads.exact_route_defect())
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
