"""Every layer the traced benchmark wraps names a function that exists.

`perfbench/layers.py` lists each traced layer as a `geomatch` module plus an
attribute path, and a traced run (`perfbench/run.py --trace 1`) stops on a
name that no longer resolves. This reads that list, without running or
changing anything under `perfbench/`, so a rename or deletion in `src/`
fails here first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def traced_layers():
    # layers.py imports its sibling `tracer` by plain name
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_layers", PERFBENCH / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module.LAYERS


LAYERS = traced_layers()


def test_layer_list_is_not_empty():
    assert LAYERS


@pytest.mark.parametrize("layer", LAYERS, ids=[layer.label for layer in LAYERS])
def test_layer_resolves_in_geomatch(layer):
    assert layer.module == "geomatch" or layer.module.startswith("geomatch.")
    owner = importlib.import_module(layer.module)
    *path, name = layer.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # the tracer rebinds the attribute where it is defined, so it must sit
    # in the owner's own namespace, not be inherited
    assert name in vars(owner), f"{layer.module}.{layer.attr} not found"
    assert callable(getattr(owner, name))
