"""Timing spans around the public functions of fpopt's layers.

The package itself carries no instrumentation.  When a run is traced, the
benchmark replaces each function listed in :data:`TRACED` by a wrapper that
records a span (name, parent span, job, start, end) and puts the original
back afterwards.  A function is replaced in every fpopt module that holds a
reference to it, so ``from .propagator import norm_curve`` in the CLI is
traced too.  Spans are appended to flat arrays in memory and written out
once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from array import array
from functools import wraps

import numpy as np

#: (layer, owner, attribute) of every traced callable; the owner is a module
#: name or "module:Class" for a method.
TRACED = (
    ("kernel", "fpopt.kernel", "expm"),
    ("kernel", "fpopt.kernel", "general_eigenvalues"),
    ("kernel", "fpopt.kernel", "kalman_rank"),
    ("equilibrium", "fpopt.equilibrium:CoefficientPair", "__init__"),
    ("equilibrium", "fpopt.equilibrium", "validate_pair"),
    ("construction", "fpopt.construction", "construct_optimal"),
    ("construction", "fpopt.construction", "equidistribute_basis"),
    ("propagator", "fpopt.propagator", "norm_curve"),
    ("propagator", "fpopt.propagator", "sharp_constant"),
    ("propagator", "fpopt.propagator", "tangency_time"),
    ("propagator", "fpopt.propagator", "compare_schedules"),
    ("propagator", "fpopt.propagator:NormCurve", "write_csv"),
    ("serialize", "fpopt.serialize", "load_problem"),
    ("serialize", "fpopt.serialize", "problem_from_dict"),
    ("serialize", "fpopt.serialize", "certificate_to_dict"),
    ("serialize", "fpopt.serialize", "dump_json"),
    ("cli", "fpopt.cli", "main"),
)

#: Propagator spans that compute decay data (everything but CSV output).
PROPAGATOR_COMPUTE = ("propagator.norm_curve", "propagator.sharp_constant",
                      "propagator.tangency_time", "propagator.compare_schedules")
SCANS = ("propagator.sharp_constant", "propagator.tangency_time",
         "propagator.compare_schedules")


def _span_name(layer, owner, attr):
    if ":" in owner:
        cls = owner.split(":")[1]
        return f"{layer}.{cls}.{attr.strip('_')}"
    return f"{layer}.{attr}"


class Tracer:
    """Span recorder; install it around each traced part of a run.

    With ``memory=True`` it also records, with tracemalloc, the peak of
    memory allocated inside each outermost propagator span.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_job = -1
        self.curve_points = 0
        self.peak_alloc = 0
        self._stack: list[int] = []
        self._prop_depth = 0
        self._restore: list = []

    def _wrap(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        counts_points = name == "propagator.norm_curve"
        tracks_memory = self.memory and name in PROPAGATOR_COMPUTE
        clock = time.perf_counter
        stack = self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.start)
            self.name.append(index)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.current_job)
            self.end.append(0.0)
            stack.append(span)
            if tracks_memory:
                self._prop_depth += 1
                if self._prop_depth == 1:
                    base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()
                if tracks_memory:
                    self._prop_depth -= 1
                    if self._prop_depth == 0:
                        peak = tracemalloc.get_traced_memory()[1] - base
                        self.peak_alloc = max(self.peak_alloc, peak)
            if counts_points:
                self.curve_points += len(result.times)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "fpopt" or n.startswith("fpopt.")]
        for layer, owner, attr in TRACED:
            module_name, _, cls_name = owner.partition(":")
            module = sys.modules[module_name]
            target = getattr(module, cls_name) if cls_name else module
            original = target.__dict__[attr]
            wrapped = self._wrap(_span_name(layer, owner, attr), original)
            if cls_name:
                setattr(target, attr, wrapped)
                self._restore.append((target, attr, original))
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, original))
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------- analysis

    def arrays(self):
        names = np.array(self.names, dtype=object)[np.frombuffer(self.name, dtype=np.int32)]
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        return names, parent, duration

    def layer_metrics(self, jobs: int) -> dict:
        """Per-job layer figures, keyed by metric name."""
        names, parent, duration = self.arrays()
        child = np.zeros(duration.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        self_time = duration - child

        def select(*wanted):
            return np.isin(names, wanted)

        def within(*wanted):
            # Spans are stored in start order, so every parent precedes
            # its children and one forward pass finds all descendants.
            hit = select(*wanted)
            inside = np.zeros(names.size, dtype=bool)
            for i in np.nonzero(nested)[0]:
                p = parent[i]
                inside[i] = inside[p] or hit[p]
            return inside

        def outermost(*wanted):
            return select(*wanted) & ~within(*wanted)

        def per_job_ms(mask, values=duration):
            return 1e3 * float(values[mask].sum()) / jobs

        expm = select("kernel.expm")
        expm_calls = int(expm.sum())
        eig = select("kernel.general_eigenvalues")
        return {
            "kernel.expm_calls": expm_calls / jobs,
            "kernel.expm_ms": per_job_ms(expm),
            "kernel.expm_us_per_call": (1e6 * float(duration[expm].sum()) / expm_calls
                                        if expm_calls else 0.0),
            "kernel.eig_calls": int(eig.sum()) / jobs,
            "kernel.eig_ms": per_job_ms(eig),
            "kernel.kalman_rank_ms": per_job_ms(select("kernel.kalman_rank")),
            "equilibrium.validate_ms": per_job_ms(select("equilibrium.validate_pair")),
            "equilibrium.pair_build_ms": per_job_ms(outermost("equilibrium.CoefficientPair.init")),
            "construction.construct_ms": per_job_ms(select("construction.construct_optimal")),
            "construction.equidistribute_ms": per_job_ms(
                select("construction.equidistribute_basis")),
            "propagator.self_ms": per_job_ms(select(*PROPAGATOR_COMPUTE), self_time),
            "propagator.norm_curve_ms": per_job_ms(outermost("propagator.norm_curve")),
            "propagator.scan_ms": per_job_ms(outermost(*SCANS)),
            "propagator.expm_per_output_point": (
                int((expm & within("propagator.norm_curve")).sum()) / self.curve_points
                if self.curve_points else 0.0),
            "propagator.write_csv_ms": per_job_ms(select("propagator.NormCurve.write_csv")),
            "serialize.encode_ms": per_job_ms(outermost("serialize.certificate_to_dict",
                                                        "serialize.dump_json")),
            "serialize.decode_ms": per_job_ms(outermost("serialize.load_problem",
                                                        "serialize.problem_from_dict")),
            "cli.main_ms": per_job_ms(select("cli.main")),
            "cli.self_ms": per_job_ms(select("cli.main"), self_time),
        }

    def write(self, path) -> None:
        """Write the spans as one JSON document of parallel columns."""
        doc = {
            "names": self.names,
            "columns": ["name", "parent", "job", "start", "end"],
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "job": self.job.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)
