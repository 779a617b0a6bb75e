"""In-memory span recorder for one benchmark process.

The tracer wraps public functions of ``hydrolimit`` by rebinding their names
in every ``hydrolimit`` module that holds them, so calls made through a
module's globals (``aniso.step_anisotropic`` calling its projection) and
call-time imports (``operators.diffuse_concentration`` fetching
``core.coercivity_constant``) are both recorded.  ``uninstall`` puts every
original back and returns the names it could not restore.  Spans stay in
memory until ``write_csv`` at the end of the process.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time

LAYERS = ("config", "core", "sources", "operators", "aniso", "hydro", "diagnostics", "harness")

# Functions wrapped per layer (the module that defines them).  A name that a
# later version of the package no longer has is skipped; its metrics read 0.
TARGETS = {
    "config": ("parse_config",),
    "core": ("build_grid", "coercivity_constant", "coriolis_at"),
    "sources": ("evaluate_source",),
    "operators": (
        "advect_velocity",
        "anisotropic_laplacian",
        "apply_velocity_bcs",
        "extend_velocity",
        "advect_scalar",
        "diffuse_concentration",
        "divergence",
    ),
    "aniso": ("stable_dt", "pressure_projection_anisotropic", "step_anisotropic"),
    "hydro": ("surface_pressure_projection", "diagnose_w", "step_hydrostatic"),
    "diagnostics": (
        "energy_balance",
        "apriori_norms",
        "translation_modulus",
        "spacetime_errors",
        "weak_residual",
    ),
    "harness": (
        "epsilon_sweep",
        "run_simulation",
        "_project_initial",
        "initial_velocity",
        "initial_concentration",
        "write_vtk",
        "write_csv",
    ),
}

RUN_LABEL = "harness.run_simulation"


class Tracer:
    """Spans as parallel lists: label, parent index, start, end, run mode, info."""

    def __init__(self):
        self.label: list = []
        self.parent: list = []
        self.start: list = []
        self.end: list = []
        self.mode: list = []
        self.info: dict = {}  # span index -> (iterations, max_div) of a projection
        self._stack: list = []
        self._saved: list = []

    def install(self, package: str = "hydrolimit") -> None:
        modules = [sys.modules[package]] + [
            importlib.import_module(f"{package}.{layer}") for layer in LAYERS
        ]
        for layer in LAYERS:
            home = sys.modules[f"{package}.{layer}"]
            for name in TARGETS[layer]:
                fn = getattr(home, name, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for mod in modules:
                    if getattr(mod, name, None) is fn:
                        self._saved.append((mod, name, fn))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> list:
        """Restore every rebound name; return those still not the original."""
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        left = [f"{m.__name__}.{n}" for m, n, fn in self._saved if getattr(m, n) is not fn]
        self._saved = []
        return left

    def _wrap(self, label: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.label)
            parent = self._stack[-1] if self._stack else -1
            if label == RUN_LABEL:
                mode = kwargs["mode"] if "mode" in kwargs else args[2]
            else:
                mode = self.mode[parent] if parent >= 0 else None
            self.label.append(label)
            self.parent.append(parent)
            self.mode.append(mode)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if isinstance(out, tuple) and out and isinstance(out[-1], dict) and "iterations" in out[-1]:
                self.info[i] = (out[-1]["iterations"], out[-1]["max_div"])
            return out

        return traced

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def self_times(self) -> list:
        """Span duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def ancestors(self, i: int):
        p = self.parent[i]
        while p >= 0:
            yield self.label[p]
            p = self.parent[p]

    def check(self, t0: float, wall_s: float) -> tuple:
        """Check that self times plus the untraced remainder add up to wall_s.

        Covers the spans of the timed region that starts at ``t0``.  Returns
        (remainder_s, problems).  The remainder is the part of the region
        outside every root span (the benchmark's own code); self times must
        be nonnegative and children must lie inside their parent, so that the
        self times partition the root spans exactly.
        """
        problems = []
        own = self.self_times()
        inside = [i for i, s in enumerate(self.start) if s >= t0]
        roots = sum(self.end[i] - self.start[i] for i in inside if self.parent[i] < 0)
        own_sum = sum(own[i] for i in inside)
        remainder = wall_s - roots
        if self._stack:
            problems.append(f"{len(self._stack)} spans still open")
        if own and min(own) < -1e-7:
            problems.append(f"negative self time {min(own):.3e} s")
        for i, p in enumerate(self.parent):
            if p >= 0 and not (self.start[p] <= self.start[i] <= self.end[i] <= self.end[p]):
                problems.append(f"span {self.label[i]} leaves its parent {self.label[p]}")
                break
        if remainder < -1e-7 or any(self.end[i] > t0 + wall_s + 1e-7 for i in inside):
            problems.append("root spans exceed the timed region")
        if abs(own_sum + remainder - wall_s) > 1e-6:
            problems.append(
                f"self times {own_sum:.6f} s + remainder {remainder:.6f} s != wall {wall_s:.6f} s"
            )
        return remainder, problems

    def write_csv(self, path: str) -> None:
        own = self.self_times()
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "label", "mode", "start_s", "end_s", "self_s", "iterations", "max_div"])
            for i, label in enumerate(self.label):
                it, div = self.info.get(i, ("", ""))
                w.writerow([
                    i, self.parent[i], label, self.mode[i] or "",
                    repr(self.start[i] - t0), repr(self.end[i] - t0), repr(own[i]), it, div,
                ])
