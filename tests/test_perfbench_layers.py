"""Every function the benchmark's tracer wraps still exists in the package.

perfbench/spans.py names the functions of each layer in LAYERS and wraps them
under `--trace 1`; a name deleted from the package would end a traced run with
an AttributeError. The file is loaded as it is, without change.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_layer_names_resolve_against_the_package(layer):
    module_name, names = LAYERS[layer]
    module = importlib.import_module(f"rbseries.{module_name}")
    assert names
    for name in names:
        if "." in name:
            cls_name, attr = name.split(".")
            assert attr in vars(getattr(module, cls_name)), name
        else:
            assert callable(getattr(module, name)), name
