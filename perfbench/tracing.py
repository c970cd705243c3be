"""Span recording around the package's public functions, from outside it.

``install`` replaces every module attribute of ``tbscatter`` that is bound
to a traced function, including the names other modules import (for example
``cli.spectrum`` or ``verify.solve_rt_direct``), with a wrapper that records
a span: name, start, end, parent span and unit id. Spans stay in compact
arrays until the run ends. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import gzip
import math
import sys
from array import array
from time import perf_counter

import numpy as np

TRACED = {
    "linalg": ("lu_factor", "lu_solve_factored", "lu_solve", "det", "inverse",
               "minor_det", "inverse_element_cofactor"),
    "model": ("parse_network_spec", "build_center", "assemble_full_center_matrix",
              "assemble_delta"),
    "scattering": ("spectrum", "solve_rt_direct", "solve_rt_formula", "coefficients_abc",
                   "schrodinger_residual"),
    "verify": ("run_suites", "conservation_suite", "appendix_suite", "ptfold_suite",
               "random_valid_center"),
    "ptgraph": ("fold", "fold_generalized", "fold_unitary", "assemble_hpt",
                "check_pt_symmetry"),
    "four_site": ("closed_form_deficit", "four_site_center"),
    "wavepacket": ("build_finite_system", "gaussian_packet", "evolve", "measure_partition",
                   "run_experiment"),
    "cli": ("run",),
}
# Exceptions counted as errors, by class name in tbscatter.errors.
ERRORS = {
    "linalg.lu_factor": "SingularMatrix",
    "scattering.solve_rt_direct": "ScatterError",
    "scattering.solve_rt_formula": "ScatterError",
    "scattering.coefficients_abc": "ScatterError",
}
# The CLI's per-step wavepacket probe formats CSV rows inside evolve; its
# time is the CLI's, so it is recorded as its own span and booked to cli.run.
PROBE = "cli.probe"

# Functions each workload must reach; zero calls means a binding was missed.
REQUIRED = {
    "ensemble": (
        "linalg.lu_factor", "linalg.lu_solve_factored", "linalg.det", "linalg.minor_det",
        "linalg.inverse", "linalg.inverse_element_cofactor", "model.assemble_delta",
        "model.build_center", "scattering.solve_rt_direct", "scattering.solve_rt_formula",
        "scattering.coefficients_abc", "scattering.schrodinger_residual",
        *(f"verify.{f}" for f in TRACED["verify"]),
        *(f"ptgraph.{f}" for f in TRACED["ptgraph"]),
        *(f"four_site.{f}" for f in TRACED["four_site"]),
        "cli.run",
    ),
    "sweep": (
        "linalg.lu_factor", "linalg.lu_solve_factored", "model.parse_network_spec",
        "model.assemble_full_center_matrix", "scattering.spectrum",
        "scattering.solve_rt_direct", "scattering.coefficients_abc", "cli.run",
    ),
    "wavepacket": (
        *(f"wavepacket.{f}" for f in TRACED["wavepacket"]),
        "cli.run",
    ),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.unit = array("l")
        self.stack: list[int] = []
        self.active = False
        self.unit_id = -1
        self.errors: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._error_types: dict[str, type] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(self, qualname: str, fn, before=None, after=None):
        """Span-recording wrapper; ``before(args, kwargs)`` may return a
        replacement (args, kwargs) and ``after(result)`` counts outputs."""
        nid = self._id(qualname)
        error_type = self._error_types.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.unit.append(tracer.unit_id)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.end[idx] = perf_counter()
                tracer.stack.pop()
                if error_type is not None and isinstance(exc, error_type):
                    tracer.errors[qualname] = tracer.errors.get(qualname, 0) + 1
                raise
            tracer.end[idx] = perf_counter()
            tracer.stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function under every name it is bound to."""
        from tbscatter import errors

        self._error_types = {q: getattr(errors, name) for q, name in ERRORS.items()}
        hooks = self._hooks()
        replacement = {}
        for module, funcs in TRACED.items():
            mod = importlib.import_module(f"tbscatter.{module}")
            for f in funcs:
                fn = getattr(mod, f, None)
                if fn is None:  # reported with zero calls
                    continue
                before, after = hooks.get(f"{module}.{f}", (None, None))
                replacement[id(fn)] = (fn, self.wrap(f"{module}.{f}", fn, before, after))
        for modname, mod in list(sys.modules.items()):
            if modname != "tbscatter" and not modname.startswith("tbscatter."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def _hooks(self) -> dict:
        def lu_size(args, kwargs):
            a = args[0] if args else kwargs["a"]
            n = np.shape(a)[0]
            self.add("linalg.lu_factor.flop", 8.0 / 3.0 * float(n) ** 3)
            return args, kwargs

        def spec_bytes(args, kwargs):
            text = args[0] if args else kwargs["text"]
            self.add("model.parse_network_spec.bytes", float(len(text.encode("utf-8"))))
            return args, kwargs

        def flagged(result):
            self.add("scattering.spectrum.flagged",
                     float(sum(1 for p in result.entries if p.status != "ok")))

        def evolve_work(args, kwargs):
            names = ("h", "psi0", "t_final", "dt", "probe")
            bound = dict(zip(names, args))
            bound.update(kwargs)
            t_final, dt = float(bound["t_final"]), float(bound["dt"])
            steps = math.ceil(t_final / dt - 1e-9) if t_final > 0 else 0
            dim = int(np.shape(bound["h"])[0])
            nnz = int(np.count_nonzero(bound["h"]))
            # CSR complex128 matvec: values + int32 column indices, row
            # pointers, read x, write y.
            per_matvec = 20 * nnz + 4 * (dim + 1) + 32 * dim
            self.add("wavepacket.evolve.steps", float(steps))
            self.add("wavepacket.evolve.bytes", float(steps * 4 * per_matvec))
            return args, kwargs

        def probe_span(args, kwargs):
            # run_experiment(center, lead, config, probe=None)
            if len(args) >= 4 and args[3] is not None:
                args = (*args[:3], self.wrap(PROBE, args[3]))
            elif kwargs.get("probe") is not None:
                kwargs = {**kwargs, "probe": self.wrap(PROBE, kwargs["probe"])}
            return args, kwargs

        return {
            "linalg.lu_factor": (lu_size, None),
            "model.parse_network_spec": (spec_bytes, None),
            "scattering.spectrum": (None, flagged),
            "wavepacket.evolve": (evolve_work, None),
            "wavepacket.run_experiment": (probe_span, None),
        }

    def aggregate(self) -> dict:
        """Per-function calls, self and inclusive milliseconds."""
        n = len(self.start)
        name = np.frombuffer(self.name, dtype=np.int32, count=n) if n else np.zeros(0, np.int32)
        start = np.frombuffer(self.start, dtype=np.float64, count=n) if n else np.zeros(0)
        end = np.frombuffer(self.end, dtype=np.float64, count=n) if n else np.zeros(0)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n) if n else np.zeros(0, np.int64)
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for nid, qualname in enumerate(self.names):
            mask = name == nid
            out[qualname] = {
                "calls": int(mask.sum()),
                "self_ms": float(self_time[mask].sum()) * 1e3,
                "total_ms": float(dur[mask].sum()) * 1e3,
            }
        return out

    def write_spans(self, path) -> int:
        """Write every span as gzipped CSV: name,start_s,end_s,parent,unit."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,unit\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.unit[i]}\n")
        return len(self.start)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metric values of one traced run, keyed by metric name."""
    agg = tracer.aggregate()
    blank = {"calls": 0, "self_ms": 0.0, "total_ms": 0.0}
    probe = agg.pop(PROBE, blank)
    metrics = {}
    for module, funcs in TRACED.items():
        for f in funcs:
            q = f"{module}.{f}"
            a = agg.get(q, blank)
            self_ms = a["self_ms"] + (probe["self_ms"] if q == "cli.run" else 0.0)
            metrics[f"{q}.calls"] = (a["calls"], "count")
            metrics[f"{q}.self_ms"] = (self_ms, "ms")
    c = tracer.counts
    lu = agg.get("linalg.lu_factor", blank)
    gflop = c.get("linalg.lu_factor.flop", 0.0) / 1e9
    metrics["linalg.lu_factor.errors"] = (tracer.errors.get("linalg.lu_factor", 0), "count")
    metrics["linalg.lu_factor.gflop"] = (gflop, "gflop")
    metrics["linalg.lu_factor.gflops"] = (
        gflop / (lu["self_ms"] / 1e3) if lu["self_ms"] > 0 else 0.0, "gflop/s")
    for f in ("solve_rt_direct", "solve_rt_formula", "coefficients_abc"):
        metrics[f"scattering.{f}.errors"] = (tracer.errors.get(f"scattering.{f}", 0), "count")
    for f in ("solve_rt_direct", "solve_rt_formula"):
        calls = agg.get(f"scattering.{f}", blank)["calls"]
        errors = tracer.errors.get(f"scattering.{f}", 0)
        # 0 when never called: nothing was attempted, so nothing yielded.
        metrics[f"scattering.{f}.yield"] = ((calls - errors) / calls if calls else 0.0, "ratio")
    metrics["scattering.spectrum.flagged"] = (int(c.get("scattering.spectrum.flagged", 0)), "count")
    metrics["model.parse_network_spec.mb"] = (c.get("model.parse_network_spec.bytes", 0.0) / 1e6, "MB")
    steps = c.get("wavepacket.evolve.steps", 0.0)
    evolve_self = agg.get("wavepacket.evolve", blank)["self_ms"]
    metrics["wavepacket.evolve.steps"] = (int(steps), "count")
    metrics["wavepacket.evolve.us_per_step"] = (evolve_self * 1e3 / steps if steps else 0.0, "us")
    metrics["wavepacket.evolve.mb_computed"] = (c.get("wavepacket.evolve.bytes", 0.0) / 1e6, "MB")
    metrics["cli.run.ms"] = (agg.get("cli.run", blank)["total_ms"], "ms")
    return metrics


def missing_calls(metrics: dict, workload: str) -> list[str]:
    return [q for q in REQUIRED[workload] if metrics[f"{q}.calls"][0] == 0]
