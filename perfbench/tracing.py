"""Spans recorded by wrappers that the benchmark places around package functions.

Nothing in the package is edited. ``Tracer.install`` replaces every public
function of the fdradiance modules, in every module namespace that binds
it, with a wrapper that records one span per call: name, start, end,
parent span, task id, process id, and a few work counts (integrand
evaluations from ``QuadratureResult.evaluations``, 1F1 elements, the
Gauss-Legendre order asked of ``spectra._gl_nodes``). Patching every
binding matters because ``from .quadrature import integrate_oscillatory``
copies the name into ``spectra``; internal calls made through a module
global (``_angular_values`` -> ``distribution_numeric``,
``position_at_time`` -> ``coordinate_time``) then go through the wrapper.

Process-pool workers forked by the CLI inherit the wrappers. Each worker
writes its own spans to a spill file when it exits, and ``collect`` merges
them, so worker-side layers are measured on the CLI workload too.
"""
from __future__ import annotations

import functools
import gzip
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

import numpy as np

# (module, function) -> span name. Every public function of each module is
# wrapped under "module.function"; these get the layer names the metrics use.
_RENAMES = {
    ("quadrature", "integrate_oscillatory"): "quadrature.oscillatory",
    ("quadrature", "integrate_adaptive"): "quadrature.adaptive",
    ("quadrature", "integrate_semi_infinite"): "quadrature.adaptive",
}
_MODULES = ("specfun", "quadrature", "trajectory", "spectra", "mirror",
            "acceptance", "cli")
# Private hooks: the angular rule's order per pass (nodes per spectrum and
# their yield). Skipped if a later version of the package drops the name.
_PRIVATE = (("spectra", "_gl_nodes"),)

# Span tuple layout.
SID, NAME, START, END, PARENT, TASK, ERROR, WORK = range(8)


def _quad_work(args, kwargs, out):
    return out.evaluations


def _kummer_work(args, kwargs, out):
    return int(np.broadcast(*(np.asarray(a) for a in args[:3])).size)


def _order_work(args, kwargs, out):
    return int(args[0])


_WORK = {
    "quadrature.oscillatory": _quad_work,
    "quadrature.adaptive": _quad_work,
    "specfun.kummer_1f1": _kummer_work,
    "spectra._gl_nodes": _order_work,
}


class Tracer:
    """In-memory span recorder; wrappers are placed by ``install``."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spans: list = []
        self.stack: list = []
        self.task = None
        self.pid = os.getpid()
        self._count = 0
        self._patched: list = []
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- recording -----------------------------------------------------
    def _wrap(self, name, fn):
        work = _WORK.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count += 1
            sid = (os.getpid(), self._count)
            parent = stack[-1] if stack else None
            stack.append(sid)
            error = False
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                units = work(args, kwargs, out) if work and not error else 0
                spans.append((sid, name, start, end, parent, self.task,
                              error, units))

        return wrapper

    def install(self):
        """Wrap every public fdradiance function in every namespace binding it."""
        wrappers = {}
        for mod_name in _MODULES:
            mod = sys.modules[f"fdradiance.{mod_name}"]
            names = [n for n in getattr(mod, "__all__", ())
                     if callable(getattr(mod, n)) and not isinstance(getattr(mod, n), type)]
            names += [n for m, n in _PRIVATE if m == mod_name and hasattr(mod, n)]
            for n in names:
                fn = getattr(mod, n)
                if id(fn) in wrappers:
                    continue
                span = _RENAMES.get((mod_name, n), f"{mod_name}.{n}")
                wrappers[id(fn)] = (fn, self._wrap(span, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fdradiance"
                                   or mod_name.startswith("fdradiance.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- process-pool workers ------------------------------------------
    def _after_fork(self):
        # Runs in a multiprocessing child after fork: keep only spans made
        # here, and spill them when the worker exits.
        self.spans.clear()
        self.pid = os.getpid()
        multiprocessing.util.Finalize(None, self._spill, exitpriority=100)

    def _spill(self):
        path = self.spill_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps([_encode(s) for s in self.spans]))

    def collect(self):
        """Merge spans spilled by exited pool workers into this process."""
        for path in sorted(self.spill_dir.glob("worker-*.json")):
            self.spans.extend(_decode(s) for s in json.loads(path.read_text()))
            path.unlink()

    def write(self, path: Path):
        """Write all spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(_encode(s)) + "\n")


def _encode(s):
    return [list(s[SID]), s[NAME], s[START], s[END],
            None if s[PARENT] is None else list(s[PARENT]),
            s[TASK], s[ERROR], s[WORK]]


def _decode(s):
    return (tuple(s[0]), s[1], s[2], s[3],
            None if s[4] is None else tuple(s[4]), s[5], s[6], s[7])


def self_times(spans):
    """Span id -> duration minus the durations of its same-process children.

    Children in a pool worker run in another process while the parent waits,
    so they are not subtracted: the parent's self time includes that wait.
    """
    selft = {s[SID]: s[END] - s[START] for s in spans}
    for s in spans:
        p = s[PARENT]
        if p is not None and p[0] == s[SID][0] and p in selft:
            selft[p] -= s[END] - s[START]
    return selft


def layer_metrics(spans):
    """Per-layer metric values (see BENCHMARK.json ``per_layer``)."""
    selft = self_times(spans)
    by_id = {s[SID]: s for s in spans}
    agg: dict = {}
    for s in spans:
        a = agg.setdefault(s[NAME], [0, 0.0, 0, 0])
        a[0] += 1
        a[1] += selft[s[SID]]
        a[2] += s[ERROR]
        a[3] += s[WORK]

    def get(name, i):
        return agg.get(name, [0, 0.0, 0, 0])[i]

    def parent_name(s):
        p = by_id.get(s[PARENT])
        return None if p is None else p[NAME]

    m = {}
    for layer in ("quadrature.oscillatory", "quadrature.adaptive"):
        m[f"{layer}.calls"] = get(layer, 0)
        m[f"{layer}.evals"] = get(layer, 3)
        m[f"{layer}.self_s"] = get(layer, 1)
        m[f"{layer}.errors"] = get(layer, 2)
    for fn in ("distribution_numeric", "energy_spectrum", "total_energy_spectral"):
        m[f"spectra.{fn}.calls"] = get(f"spectra.{fn}", 0)
        m[f"spectra.{fn}.self_s"] = get(f"spectra.{fn}", 1)

    # Angular rule: orders asked per energy_spectrum call; the last order of a
    # call that returned is the converged one.
    passes: dict = {}
    for s in spans:
        if s[NAME] == "spectra._gl_nodes" and parent_name(s) == "spectra.energy_spectrum":
            passes.setdefault(s[PARENT], []).append((s[START], s[WORK]))
    nodes = converged = 0
    for sid, orders in passes.items():
        orders.sort()
        nodes += sum(o for _, o in orders)
        if not by_id[sid][ERROR]:
            converged += orders[-1][1]
    n_spec = get("spectra.energy_spectrum", 0)
    m["spectra.angular_nodes_per_spectrum"] = nodes / n_spec if n_spec else 0.0
    m["spectra.angular_node_yield"] = converged / nodes if nodes else 0.0

    m["specfun.kummer_1f1.calls"] = get("specfun.kummer_1f1", 0)
    m["specfun.kummer_1f1.elements"] = get("specfun.kummer_1f1", 3)
    m["specfun.kummer_1f1.self_s"] = get("specfun.kummer_1f1", 1)
    m["specfun.ln_gamma.self_s"] = get("specfun.ln_gamma", 1)
    m["specfun.errors"] = get("specfun.kummer_1f1", 2) + get("specfun.ln_gamma", 2)

    n_inv = get("trajectory.position_at_time", 0)
    newton = sum(1 for s in spans if s[NAME] == "trajectory.coordinate_time"
                 and parent_name(s) == "trajectory.position_at_time")
    m["trajectory.position_at_time.calls"] = n_inv
    m["trajectory.position_at_time.self_s"] = get("trajectory.position_at_time", 1)
    m["trajectory.newton_evals_per_inversion"] = newton / n_inv if n_inv else 0.0
    m["trajectory.total_energy_larmor.self_s"] = get("trajectory.total_energy_larmor", 1)

    m["mirror.self_s"] = sum((a[1] for n, a in agg.items() if n.startswith("mirror.")), 0.0)
    m["cli.main.calls"] = get("cli.main", 0)
    m["cli.main.self_s"] = get("cli.main", 1)
    return m
