import importlib
import pkgutil

import twofluid


def test_every_exported_name_resolves():
    # a deleted function left behind in an __all__ list fails here
    names = ["twofluid"] + [f"twofluid.{m.name}" for m in pkgutil.iter_modules(twofluid.__path__)]
    missing = {}
    for name in names:
        mod = importlib.import_module(name)
        stale = [x for x in getattr(mod, "__all__", ()) if not hasattr(mod, x)]
        if stale:
            missing[name] = stale
    assert len(names) >= 10
    assert not missing
