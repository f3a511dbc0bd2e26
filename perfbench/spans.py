"""Spans around csop's public functions, recorded from outside the program.

`Tracer.installed()` replaces each function named in `TRACED` with a wrapper
that records a span (name, start, end, parent span).  The wrapper is put in
place of every reference to the original that a csop module holds, so calls
made through `from .x import f` names inside the package are traced too.
Spans stay in memory; `Tracer.summary()` turns them into per-function self
time and call counts.  Observers on a few functions read their public return
values to compute waste ratios and residuals, and `tracemalloc` measures the
allocation peak of the functions in `ALLOC_TRACKED`.

Spans are kept on one stack, so the tracer assumes csop runs its work on the
calling thread (CSOP_THREADS unset, the shipped default).
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

TRACED = {
    "antilinear": ("antilinear_spectrum", "takagi", "resolvent_norm", "block_embed", "minmax_norm"),
    "schrodinger": (
        "build_hamiltonian", "DiscreteHamiltonian.eigensystem", "find_gap", "boost",
        "gamma_norm", "bq_norm", "resolvent_kernel_scan", "projector_decay",
    ),
    "decay": ("critical_q", "bound_constant", "certify_bound"),
    "kronig_penney": ("band_edges", "exact_decay", "fig1_sweep"),
    "scaling": (
        "build_scaled", "ScaledHamiltonian.eigenvalues", "classify_spectrum", "locate_resonance",
        "polish_eigenvalue", "sigma_min", "resolvent_norm_at", "essential_floor_check",
        "perturbation_scan", "fit_relative_bound",
    ),
    "cli": ("parse_config", "run", "emit", "load_matrix_csv"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)

ALLOC_TRACKED = (
    "schrodinger.gamma_norm",
    "scaling.resolvent_norm_at",
    "scaling.essential_floor_check",
    "scaling.classify_spectrum",
    "schrodinger.DiscreteHamiltonian.eigensystem",
)

# metric name -> (unit, better) for the ratios the observers compute
RATIO_METRICS = {
    "scaling.classify_spectrum.useful_ratio": ("ratio", "higher"),
    "schrodinger.eigensystem.useful_ratio": ("ratio", "higher"),
    "decay.critical_q.per_energy": ("count", "lower"),
    "scaling.polish_eigenvalue.residual": ("ratio", "lower"),
}


def per_layer_metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.s"] = ("s", "lower")
        units[f"{name}.calls"] = ("count", "lower")
    units.update(RATIO_METRICS)
    units["scaling.sigma_min.rel_err"] = ("ratio", "lower")
    for name in ALLOC_TRACKED:
        units[f"{name}.alloc_peak_mb"] = ("MiB", "lower")
    units["span_coverage"] = ("ratio", "higher")
    units["trace_overhead"] = ("ratio", "lower")
    return units


class Tracer:
    """In-memory span recorder for one traced pass at a time."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self._stack: list[int] = []
        self._alloc_stack: list[list[int]] = []   # [base bytes, peak bytes]
        self.alloc_peak: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._last_evals: dict[int, np.ndarray] = {}
        self._observers = {
            "scaling.classify_spectrum": self._on_classify,
            "scaling.locate_resonance": self._on_locate,
            "schrodinger.DiscreteHamiltonian.eigensystem": self._on_eigensystem,
            "schrodinger.find_gap": self._on_find_gap,
            "scaling.polish_eigenvalue": self._on_polish,
            "cli.run": self._on_cli_run,
        }

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        patches = []
        modules = [m for name, m in list(sys.modules.items()) if name == "csop" or name.startswith("csop.")]
        for layer, fns in TRACED.items():
            module = sys.modules[f"csop.{layer}"]
            for fn in fns:
                owner_name, _, attr = fn.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                if owner_name:
                    patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _wrap(self, name, fn):
        alloc = name in ALLOC_TRACKED
        observer = self._observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            if alloc:
                self._alloc_enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                if alloc:
                    self._alloc_exit(name)
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if observer is not None:
                observer(idx, args, kwargs, result)
            return result

        return wrapper

    # -- allocation peaks ---------------------------------------------------

    def _alloc_enter(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._alloc_stack:
            outer = self._alloc_stack[-1]
            outer[1] = max(outer[1], peak)
        tracemalloc.reset_peak()
        self._alloc_stack.append([current, current])

    def _alloc_exit(self, name):
        frame = self._alloc_stack.pop()
        _, peak = tracemalloc.get_traced_memory()
        frame[1] = max(frame[1], peak)
        self.alloc_peak[name] = max(self.alloc_peak.get(name, 0), frame[1] - frame[0])
        if self._alloc_stack:
            outer = self._alloc_stack[-1]
            outer[1] = max(outer[1], frame[1])
        else:
            tracemalloc.stop()

    # -- observers on public return values ----------------------------------

    def _add(self, key, value):
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _on_classify(self, idx, args, kwargs, result):
        h1, h2 = args[0], args[1]
        self._add("classify_eigenvalues", h1.grid.n + h2.grid.n)

    def _on_locate(self, idx, args, kwargs, result):
        if result.classification is not None:
            self._add("classify_candidates", result.candidates.size)

    def _on_eigensystem(self, idx, args, kwargs, result):
        self._last_evals[id(args[0])] = result[0]

    def _on_find_gap(self, idx, args, kwargs, result):
        ceiling = kwargs.get("energy_ceiling")
        evals = self._last_evals.pop(id(args[0]), None)
        if ceiling is None or evals is None:
            return
        self._add("eigen_useful", int(np.sum(evals <= ceiling)))
        self._add("eigen_total", evals.size)

    def _on_polish(self, idx, args, kwargs, result):
        h = args[0]
        z, v = result
        residual = float(np.linalg.norm(h.matrix @ v - z * v) / np.linalg.norm(v))
        self.counters["polish_residual"] = max(self.counters.get("polish_residual", 0.0), residual)

    def _on_cli_run(self, idx, args, kwargs, result):
        if args[0] != "decay-bound":
            return
        calls = sum(1 for span in self.spans[idx + 1:] if span[0] == "decay.critical_q")
        self._add("decay_rows", result.rows.shape[0])
        self._add("decay_critical_q_calls", calls)

    # -- summary ------------------------------------------------------------

    def summary(self, wall: float) -> dict:
        """Self time, calls and coverage of the spans recorded so far.

        A span's self time is its duration minus the time its child spans
        cover.  Coverage is the share of `wall` inside top-level spans.
        """
        self_time = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        child = [0.0] * len(self.spans)
        top = 0.0
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[i]
            dur = end - start
            self_time[name] += dur - child[i]
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
            else:
                top += dur
        return {"self": self_time, "calls": calls, "coverage": top / wall}

    def reset(self):
        self.spans.clear()
        self._last_evals.clear()
