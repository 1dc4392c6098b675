"""The lazy-export contract of the packages that resolve public names on
first use (:mod:`repro._lazy`).

Each check runs in a fresh interpreter: in this one, other tests have
already imported every submodule, which would hide a name the lazy path
cannot resolve.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PACKAGES = ["repro", "repro.graph", "repro.partitioning", "repro.bench",
            "repro.service", "repro.ingest"]


def _run(code: str):
    """Run ``code`` in a fresh interpreter; returns its JSON output."""
    out = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {SRC!r})\n"
         + code], check=True, capture_output=True, text=True).stdout
    return json.loads(out)


CONTRACT = """
import importlib, json
package = importlib.import_module({package!r})
exports = package._EXPORTS
problems = []
star = {{}}
exec(f"from {{package.__name__}} import *", star)
listed = dir(package)
for name in package.__all__:
    if not hasattr(package, name):
        problems.append(f"{{name}}: no attribute")
        continue
    if name not in listed:
        problems.append(f"{{name}}: missing from dir()")
    if name not in star:
        problems.append(f"{{name}}: not bound by import *")
    if name in exports:
        source = importlib.import_module(
            f"{{package.__name__}}.{{exports[name]}}")
        if getattr(package, name) is not getattr(source, name):
            problems.append(f"{{name}}: not the object of "
                            f"{{source.__name__}}")
for name in exports:
    if name not in package.__all__:
        problems.append(f"{{name}}: in _EXPORTS but not in __all__")
print(json.dumps(problems))
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves_lazily(package):
    assert _run(CONTRACT.format(package=package)) == []


@pytest.mark.parametrize("first", ["package", "submodule"])
def test_bench_sweep_is_the_function_whatever_the_import_order(first):
    # repro.bench.sweep names both a function (the export) and the module
    # that defines it; at the package it is the function.
    imports = {
        "package": "import repro.bench\n"
                   "from repro.bench import sweep\n"
                   "import repro.bench.sweep\n",
        "submodule": "import repro.bench.sweep\n"
                     "import repro.bench\n"
                     "from repro.bench import sweep\n",
    }[first]
    assert _run(imports + """
import json, sys
module = sys.modules["repro.bench.sweep"]
from repro.bench import sweep as again
print(json.dumps([callable(repro.bench.sweep),
                  repro.bench.sweep is module.sweep,
                  sweep is module.sweep, again is module.sweep]))
""") == [True, True, True, True]


def test_submodules_stay_reachable_as_attributes():
    assert _run("""
import json
import repro.partitioning, repro.service
print(json.dumps([repro.partitioning.registry.__name__,
                  repro.service.protocol.__name__]))
""") == ["repro.partitioning.registry", "repro.service.protocol"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.graph.no_such_name
