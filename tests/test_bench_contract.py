"""The benchmark harness in ``bench/`` reaches into the package by name."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
