import importlib
import types

import fpopt


def test_all_names_resolve_and_cover_the_public_imports():
    # a stale entry of __all__ (a deleted name still listed) does not
    # resolve; a public import missing from __all__ is an unlisted export
    assert len(set(fpopt.__all__)) == len(fpopt.__all__)
    missing = [name for name in fpopt.__all__ if not hasattr(fpopt, name)]
    assert not missing
    # submodules are attributes of the package too; no function shadows
    # one, so fpopt.propagator is the submodule
    public = {name for name, value in vars(fpopt).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(fpopt.__all__)) == []
    assert fpopt.propagator is importlib.import_module("fpopt.propagator")
