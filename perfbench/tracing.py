"""Spans around the program's public functions, installed from outside.

The tracer replaces each target attribute (a module function, or a method
or classmethod of a public class) with a wrapper that records a span:
name, start, end and parent.  Targets are patched where the caller looks
them up, e.g. ``thermoflux.cli.reconstruct`` for the CLI's call and
``thermoflux.tomography.radial_rule`` for the call inside the
backprojection.  A target that no longer exists is listed as absent and
its metric reads 0.  Spans live in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from array import array

import numpy as np

# (module, attribute path, span name); several targets may share a span name
TARGETS = [
    ("thermoflux.cli", "main", "cli.main"),
    ("thermoflux.cli", "reconstruct", "tomography.reconstruct"),
    ("thermoflux.tomography", "radial_rule", "quadrature.radial_rule"),
    ("thermoflux.cli", "purity", "tomography.purity"),
    ("thermoflux.tomography", "QuasiDensityGrid.to_csv", "tomography.to_csv"),
    ("thermoflux.cli", "gaussian_tomogram_family", "tomography.tomograms"),
    ("thermoflux.cli", "homotopy_tomograms", "tomography.tomograms"),
    ("thermoflux.tomography", "homotopy_tomograms", "tomography.tomograms"),
    ("thermoflux.cli", "sample_energies", "sampler.draw"),
    ("thermoflux.cli", "empirical_cumulants", "sampler.jackknife"),
    ("thermoflux.sampler", "SampleRun.to_csv", "sampler.to_csv"),
    ("thermoflux.cli", "energy_cumulants", "cumulants.cumulants"),
    ("thermoflux.cumulants", "energy_cumulants", "cumulants.cumulants"),
    ("thermoflux.cumulants", "fluctuation_cumulants", "cumulants.cumulants"),
    ("thermoflux.cumulants", "coefficient_table", "cumulants.coefficient_table"),
    ("thermoflux.homotopy", "coefficient_table", "cumulants.coefficient_table"),
    ("thermoflux.homotopy", "HomotopyPath.from_dual_pair", "homotopy.table"),
    ("thermoflux.homotopy", "path_params", "homotopy.table"),
    ("thermoflux.homotopy", "path_cumulants", "homotopy.table"),
    ("thermoflux.cli", "solve_remark1", "duality.solve"),
    ("thermoflux.cli", "solve_symmetric", "duality.solve"),
    ("thermoflux.duality", "solve_remark1", "duality.solve"),
    ("thermoflux.duality", "solve_symmetric", "duality.solve"),
    ("thermoflux.duality", "verify_duality", "duality.solve"),
    ("thermoflux.core", "ManifoldPoint.from_beta", "core.closed_forms"),
    ("thermoflux.core", "energy_stats", "core.closed_forms"),
    ("thermoflux.core", "log_partition", "core.closed_forms"),
    ("thermoflux.core", "entropy_stat", "core.closed_forms"),
    ("thermoflux.core", "legendre_phi", "core.closed_forms"),
    ("thermoflux.core", "quasi_fluctuations", "core.closed_forms"),
    ("thermoflux.core", "specific_entropy", "core.closed_forms"),
    ("thermoflux.quantum", "propagate", "quantum.propagate"),
]

# spans whose allocation peak is taken with tracemalloc on the warm-up op
MEMORY_SPANS = ("tomography.reconstruct", "sampler.draw")

# per-layer metric -> (kind, span name, unit)
LAYER_METRICS = {
    "tomography.reconstruct_s": ("self", "tomography.reconstruct", "s"),
    "quadrature.radial_rule_s": ("self", "quadrature.radial_rule", "s"),
    "quadrature.radial_rule_calls": ("calls", "quadrature.radial_rule", "count"),
    "tomography.reconstruct_peak_mb": ("peak", "tomography.reconstruct", "MB"),
    "tomography.purity_s": ("self", "tomography.purity", "s"),
    "tomography.to_csv_s": ("self", "tomography.to_csv", "s"),
    "tomography.tomograms_s": ("self", "tomography.tomograms", "s"),
    "sampler.draw_s": ("self", "sampler.draw", "s"),
    "sampler.draw_peak_mb": ("peak", "sampler.draw", "MB"),
    "sampler.occupations_per_s": ("rate", "sampler.draw", "1/s"),
    "sampler.jackknife_s": ("self", "sampler.jackknife", "s"),
    "sampler.to_csv_s": ("self", "sampler.to_csv", "s"),
    "cumulants.cumulants_s": ("self", "cumulants.cumulants", "s"),
    "cumulants.coefficient_table_s": ("self", "cumulants.coefficient_table", "s"),
    "homotopy.table_s": ("self", "homotopy.table", "s"),
    "duality.solve_s": ("self", "duality.solve", "s"),
    "core.closed_forms_s": ("self", "core.closed_forms", "s"),
    "quantum.propagate_s": ("self", "quantum.propagate", "s"),
    "cli.self_s": ("self", "cli.main", "s"),
    "trace.op_p50_s": ("op", "op", "s"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.track_memory = False
        self.peaks: dict[str, list[int]] = {}
        self.absent: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracking = memory and self.track_memory
            if tracking:
                tracemalloc.start()
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if tracking:
                    self.peaks.setdefault(name, []).append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

        return traced

    def run_span(self, name: str, fn, *args):
        """Call fn(*args) under a span of the benchmark's own (an op)."""
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def install(self, targets=TARGETS) -> None:
        for module_name, path, name in targets:
            label = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(label)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self.wrap(raw, name))

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the part its child spans cover."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def layer_metrics(spans: dict, peaks: dict, op_work: list, op_scale: list) -> dict:
    """Per-layer metrics as medians over the timed ops ("op" root spans).

    op_work[k] is the number of occupations op k draws (0 if it draws none)
    and op_scale[k] the speed factor (speed.py) applied to op k's times.
    """
    names = list(spans["names"])
    name_id, parent = spans["name_id"], spans["parent"]
    start, end = spans["start"], spans["end"]
    own = self_times(parent, start, end)
    # spans are stored in start order and every span lies inside one root
    # ("op" or "warmup"), so a running count of roots gives each span's op
    roots = np.isin(name_id, [names.index(r) for r in ("op", "warmup") if r in names])
    group = np.cumsum(roots) - 1
    timed = np.flatnonzero(roots & (name_id == names.index("op")))
    op_scale = np.asarray(op_scale, dtype=float)
    out = {}
    for metric, (kind, span, unit) in LAYER_METRICS.items():
        if kind == "peak":
            value = float(np.median(peaks[span])) / 2**20 if span in peaks else 0.0
        elif kind == "op":
            value = float(np.median((end[timed] - start[timed]) * op_scale))
        else:
            if span in names:
                mask = name_id == names.index(span)
                weights = own[mask] if kind in ("self", "rate") else None
                per_group = np.bincount(group[mask], weights=weights, minlength=group[-1] + 1)
                per_op = per_group[group[timed]]
                if weights is not None:
                    per_op = per_op * op_scale
            else:
                per_op = np.zeros(len(timed))
            if kind == "rate":
                work = np.asarray(op_work, dtype=float)
                per_op = np.divide(work, per_op, out=np.zeros_like(per_op), where=per_op > 0)
            value = float(np.median(per_op))
        out[metric] = {"value": value, "unit": unit}
    return out
