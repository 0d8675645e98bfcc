"""perfbench/tracing.py patches methods and module functions by name.  Every
name it patches must exist on its owner, so that deleting one (an alias such
as OrbitScalar.__radd__, or an import such as localization.psi) fails here
and not only in the benchmark's own suite."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_is_defined_on_its_owner():
    missing = [
        f"{name}: {obj.__name__}.{attr}"
        for name, owner, attrs, _ in _load_tracing().TARGETS
        for obj in (owner if isinstance(owner, tuple) else (owner,))
        for attr in attrs
        if attr not in vars(obj)
    ]
    assert missing == []
