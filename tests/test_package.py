"""The package re-exports nothing: `import rbseries` loads none of its
modules and binds no function or class, and each module the README lists
imports on its own."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README_MODULES = re.findall(r"^- \*\*`(rbseries\.\w+)`\*\*", (ROOT / "README.md").read_text(), re.M)

PROBE = """
import importlib, json, sys, types
import rbseries
loaded = sorted(n for n in sys.modules if n.startswith("rbseries."))
bound = sorted(k for k, v in vars(rbseries).items()
               if isinstance(v, (type, types.FunctionType, types.ModuleType)))
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps({"loaded": loaded, "bound": bound, "version": rbseries.__version__}))
"""


def test_import_rbseries_loads_and_binds_nothing():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", PROBE, *README_MODULES], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == {"loaded": [], "bound": [], "version": "0.1.0"}


def test_the_readme_lists_every_module():
    modules = {p.stem for p in (ROOT / "src" / "rbseries").glob("*.py")} - {"__init__"}
    assert sorted(m.split(".")[1] for m in README_MODULES) == sorted(modules)
