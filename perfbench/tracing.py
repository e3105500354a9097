"""Per-layer spans recorded from outside the program.

`Tracer.install` wraps the public functions of each dynosc module listed in
LAYERS.  A wrapper replaces every dynosc module attribute that `is` the
original function, and every entry of a module-level tuple such as
`verification.CRITERIA`, so all import sites share one wrapper object and
identity tests like `fn is momentum_representation` keep working.  Nothing
under `src/` changes.

Spans stay in memory in flat arrays (name, parent span, start, end, and one
observation per span) and are written out once, at the end; self time is
computed from them afterwards by `summarize`.
"""

import functools
import math
import os
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "config": ("load_config", "preset_config"),
    "flows": ("flow", "classical_moments", "momentum_params"),
    "hermite": ("hermite_function",),
    "states": ("eval_psi", "eval_psi_invariant_frame", "eval_momentum",
               "sample_frame"),
    "stencils": ("diff1", "diff2"),
    "operators": ("invariant_report", "apply_ladder", "commutator_check"),
    "oracle": ("schrodinger_residual", "dft_momentum", "split_step_propagate",
               "comoving_residual", "quadrature_moment"),
    "verification": ("family_exactness", "family_exactness_refined",
                     "invariant_spectrum", "ladder_algebra", "textbook_limit",
                     "uncertainty_structure", "momentum_representation",
                     "animation_reproduction", "classical_layer",
                     "independent_propagation", "comoving_adjudication",
                     "convergence_orders", "scoped_checks"),
    "cli": ("build_packet", "_frame_rows", "_write", "_moment_rows"),
}

WRAPPED = tuple(f"{layer}.{name}" for layer, names in LAYERS.items()
                for name in names)

ROOT_SPAN = "cli.main"

EXTRA_METRICS = (
    ("oracle.dft_momentum.first_call_s", "s", "lower"),
    ("oracle.dft_momentum.repeat_call_s", "s", "lower"),
    ("oracle.dft_momentum.repeat_grid_share", "share", "higher"),
    ("oracle.split_step_propagate.step_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.files_written", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in WRAPPED:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    return out + list(EXTRA_METRICS)


# Observations recorded per span, for the extra metrics.  Each takes the
# call's arguments and result and returns one float.

def _steps(args, kwargs, result):
    return float(kwargs.get("steps", args[2] if len(args) > 2 else math.nan))


def _bytes_on_disk(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return float(os.stat(path).st_size)


class _GridMemory:
    """1.0 when a dft_momentum call reuses a (position, momentum) grid."""

    def __init__(self):
        self.seen = set()

    def __call__(self, args, kwargs, result):
        frame = kwargs.get("frame", args[0] if args else None)
        p_grid = kwargs.get("p_grid", args[1] if len(args) > 1 else None)
        key = (frame.grid.tobytes(),
               None if p_grid is None else np.asarray(p_grid, float).tobytes())
        repeat = key in self.seen
        self.seen.add(key)
        return 1.0 if repeat else 0.0


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.missing = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_aux = array("d")
        self._stack = [-1]
        self._restore = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, observe=None):
        nid = self._name_id(name)
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, add_end = self.span_start.append, self.span_end.append
        add_aux = self.span_aux.append
        starts, ends, aux = self.span_start, self.span_end, self.span_aux
        stack = self._stack
        clock = time.perf_counter
        nan = math.nan

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            add_start(0.0)
            add_end(0.0)
            add_aux(nan)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                aux[idx] = observe(args, kwargs, result)
            return result

        return wrapper

    def call_root(self, fn, *args):
        """Run fn(*args) as a root span named ROOT_SPAN."""
        return self.wrap(ROOT_SPAN, fn)(*args)

    def install(self):
        """Wrap every function of LAYERS at every dynosc import site."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dynosc" or n.startswith("dynosc."))]
        observers = {"oracle.dft_momentum": _GridMemory(),
                     "oracle.split_step_propagate": _steps,
                     "cli._write": _bytes_on_disk}
        replaced = {}
        for name in WRAPPED:
            layer, attr = name.split(".")
            module = sys.modules.get(f"dynosc.{layer}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(name)
                continue
            replaced[id(original)] = (original,
                                      self.wrap(name, original, observers.get(name)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                new = _swap(value, replaced)
                if new is not value:
                    self._set(module, attr, new)

    def _set(self, module, attr, value):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def save(self, path):
        """Write the spans out; the run id and span names go in the same file."""
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 missing=np.array(self.missing, dtype=str),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 aux=np.frombuffer(self.span_aux, dtype=np.float64))


def _swap(item, replaced):
    """The item with wrapped functions swapped in, also inside nested tuples
    such as the (label, fn) pairs of CRITERIA; the item itself if none is."""
    if isinstance(item, tuple):
        new = tuple(_swap(x, replaced) for x in item)
        return new if any(a is not b for a, b in zip(new, item)) else item
    hit = replaced.get(id(item))
    return hit[1] if hit is not None and hit[0] is item else item


def summarize(path):
    """Per-layer metrics of one saved span file, plus the missing names."""
    with np.load(path) as spans:
        names = [str(n) for n in spans["names"]]
        missing = [str(n) for n in spans["missing"]]
        name, parent = spans["name"], spans["parent"]
        start, end, aux = spans["start"], spans["end"], spans["aux"]
    dur = end - start
    child = parent >= 0
    child_time = np.bincount(parent[child], weights=dur[child],
                             minlength=dur.size)
    self_time = dur - child_time
    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=self_time, minlength=len(names))
    metrics = {}
    for full in WRAPPED:
        k = names.index(full) if full in names else None
        metrics[f"{full}.calls"] = int(calls[k]) if k is not None else 0
        metrics[f"{full}.self_s"] = float(self_s[k]) if k is not None else 0.0

    def spans_of(full):
        return name == names.index(full) if full in names else np.zeros(name.size, bool)

    dft = spans_of("oracle.dft_momentum")
    first = dft & (aux == 0.0)
    repeat = dft & (aux == 1.0)
    metrics["oracle.dft_momentum.first_call_s"] = _median(dur[first])
    metrics["oracle.dft_momentum.repeat_call_s"] = _median(dur[repeat])
    metrics["oracle.dft_momentum.repeat_grid_share"] = (
        float(repeat.sum() / dft.sum()) if dft.any() else 0.0)
    split = spans_of("oracle.split_step_propagate")
    metrics["oracle.split_step_propagate.step_s"] = _median(dur[split] / aux[split])
    write = spans_of("cli._write")
    metrics["cli.bytes_written"] = float(aux[write].sum())
    metrics["cli.files_written"] = int(write.sum())
    return metrics, missing


def _median(values):
    return float(np.median(values)) if values.size else 0.0
