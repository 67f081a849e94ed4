"""The benchmark harness in ``bench/`` reaches into the package by name."""

import importlib
import runpy
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def test_traced_names_exist():
    # Tracer.install looks every traced callable up as target.__dict__[attr],
    # so renaming one breaks the traced benchmark with a KeyError
    traced = runpy.run_path(str(TRACER))["TRACED"]
    assert traced
    for _, owner, attr in traced:
        module_name, _, cls_name = owner.partition(":")
        target = importlib.import_module(module_name)
        if cls_name:
            target = getattr(target, cls_name)
        assert attr in vars(target), f"{owner}.{attr}"


def test_workloads_run_and_pass_their_checks(tmp_path, monkeypatch):
    # the bench's own call sites: a signature it calls that changes fails
    # here, not only when the benchmark runs
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads").WORKLOADS
    for name in ("switching_2d", "certify_highdim"):
        workload = workloads[name](1, str(tmp_path / name))
        for label, job in workload.jobs():
            assert job(), f"{name} {label}"
        workload.check()
    # decay_highdim's d = 8 job; its check walks the results it has
    workload = workloads["decay_highdim"](1, str(tmp_path / "decay_highdim"))
    label, job = workload.jobs()[0]
    assert label == "d8" and job()
    workload.results = workload.results[:1]
    workload.check()
