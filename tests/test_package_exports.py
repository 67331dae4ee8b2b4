"""The packages' lazy re-export tables (``repro.lazy``), each read in a
fresh interpreter: in this process some other test has usually imported
a defining module already, which would hide a typo in a table."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Each lazily re-exporting package, with a submodule its table does not name.
PACKAGES = {
    "repro": "obs",
    "repro.bench": "harness",
    "repro.core": "olap",
    "repro.datasets": "seeds",
    "repro.mapreduce": "cost",
    "repro.ntga": "physical",
    "repro.rdf": "ntriples",
    "repro.sparql": "tokenizer",
}

_CHECK = """
import importlib, sys
package = importlib.import_module(sys.argv[1])
exports = package.__getattr__.exports
homes = {name: home for home, names in exports.items() for name in names}
for name in package.__all__:
    home = homes.get(name)
    if home is None:
        expected = vars(package)[name]
    elif home == package.__name__:
        expected = importlib.import_module(f"{home}.{name}")
    else:
        expected = getattr(importlib.import_module(home), name)
    assert getattr(package, name) is expected, name
assert not hasattr(package, "no_such_name")
try:
    package.no_such_name
except AttributeError as error:
    assert "no_such_name" in str(error)
else:
    raise AssertionError("an unknown name resolved")
"""

_SUBMODULE = """
import importlib, sys
name, sub = sys.argv[1:]
namespace = {}
exec(f"from {name} import {sub}", namespace)
assert namespace[sub] is sys.modules[f"{name}.{sub}"]
"""

_QUICKSTART = """
from repro import Graph, run_query
from repro.bench.catalog import CATALOG
from repro.datasets import bsbm

graph = bsbm.generate(bsbm.preset("tiny"))
report = run_query(CATALOG["G1"].sparql, graph, engine="rapid-analytics")
assert isinstance(graph, Graph) and report.cycles == 2 and report.rows
"""


def _fresh(code: str, *argv: str) -> None:
    env = {
        **os.environ,
        "PYTHONPATH": str(REPO_ROOT / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_every_exported_name_is_its_defining_modules_object(package):
    _fresh(_CHECK, package)


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_a_submodule_still_imports_from_its_package(package):
    _fresh(_SUBMODULE, package, PACKAGES[package])


def test_the_readme_quickstart_imports():
    _fresh(_QUICKSTART)
