"""The packages' stable surface, each read in a fresh interpreter: in this
process some other test has usually imported a defining module already,
which would hide a name that resolves only by accident.

A package re-exports exactly the names :data:`SURFACE` lists; every other
name has one import path, the module that defines it (DESIGN.md §3,
"Package inits").  The surface can only grow in a diff that edits this
table, and the ledger's imports and probe entry points must resolve
through it."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Every package, with each name its ``__all__`` re-exports and the module
#: that defines it.
SURFACE = {
    "repro": {
        "EngineConfig": "repro.core.results",
        "Graph": "repro.rdf.graph",
        "IRI": "repro.rdf.terms",
        "Literal": "repro.rdf.terms",
        "Triple": "repro.rdf.triples",
        "__version__": "repro",
        "make_engine": "repro.core.engines",
        "parse_query": "repro.sparql.parser",
        "run_query": "repro.core.engines",
    },
    "repro.bench": {},
    "repro.cli": {},
    "repro.core": {"from_select_query": "repro.core.query_model"},
    "repro.datasets": {"generate": "repro.datasets"},
    "repro.hive": {},
    "repro.mapreduce": {
        "ClusterConfig": "repro.mapreduce.cost",
        "FaultPlan": "repro.mapreduce.faults",
        "HDFS": "repro.mapreduce.hdfs",
        "MapReduceRunner": "repro.mapreduce.runner",
    },
    "repro.ntga": {
        "build_composite_n": "repro.ntga.composite",
        "patterns_overlap": "repro.ntga.overlap",
        "plan_rapid_analytics": "repro.ntga.planner",
    },
    "repro.obs": {
        "count": "repro.obs",
        "event": "repro.obs",
        "span": "repro.obs",
        "tracing": "repro.obs",
    },
    "repro.perf": {"reference_mode": "repro.perf"},
    "repro.plan": {"enumerate_candidates": "repro.plan.enumerator"},
    "repro.rdf": {},
    "repro.serve": {
        "QueryService": "repro.serve.service",
        "ResilienceConfig": "repro.serve.resilience",
        "ServeRequest": "repro.serve.service",
        "ServiceConfig": "repro.serve.service",
        "fingerprint_query": "repro.serve.fingerprint",
    },
    "repro.shard": {},
    "repro.sparql": {},
}

#: Packages, each with a submodule it does not re-export.
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
import importlib, json, sys
package = importlib.import_module(sys.argv[1])
surface = json.loads(sys.argv[2])
exported = sorted(vars(package).get("__all__", []))
assert exported == sorted(surface), exported
for name, home in surface.items():
    assert getattr(package, name) is getattr(importlib.import_module(home), name), name
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

#: ``ledger/workloads.py::load_program``'s imports, and every
#: ``"module:name"`` entry point named in ``ledger/probes.py``.
_LEDGER = """
import ast, importlib, re, sys
workloads, probes = (open(path).read() for path in sys.argv[1:])
load_program = next(
    node for node in ast.walk(ast.parse(workloads))
    if isinstance(node, ast.FunctionDef) and node.name == "load_program"
)
imports = [node for node in ast.walk(load_program) if isinstance(node, ast.ImportFrom)]
assert imports
for node in imports:
    exec(ast.unparse(node), {})
entries = {
    node.value for node in ast.walk(ast.parse(probes))
    if isinstance(node, ast.Constant) and isinstance(node.value, str)
    and re.fullmatch(r"repro(\\.\\w+)*:\\w+", node.value)
}
assert entries
for entry in sorted(entries):
    module, _, name = entry.partition(":")
    assert hasattr(importlib.import_module(module), name), entry
"""

#: A submodule's name is the submodule, whichever import comes first.
_EXPLAIN = """
import sys
from repro.core import explain
assert explain is sys.modules["repro.core.explain"]
import repro.core.explain
from repro.core import explain
assert explain is sys.modules["repro.core.explain"]
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


def test_the_surface_names_every_package():
    inits = (REPO_ROOT / "src").glob("repro/**/__init__.py")
    packages = {".".join(init.parent.relative_to(REPO_ROOT / "src").parts) for init in inits}
    assert packages == set(SURFACE)


@pytest.mark.parametrize("package", sorted(SURFACE))
def test_every_exported_name_is_its_defining_modules_object(package):
    _fresh(_CHECK, package, json.dumps(SURFACE[package]))


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_a_submodule_still_imports_from_its_package(package):
    _fresh(_SUBMODULE, package, PACKAGES[package])


def test_every_name_the_ledger_reads_resolves():
    ledger = REPO_ROOT / "ledger"
    _fresh(_LEDGER, str(ledger / "workloads.py"), str(ledger / "probes.py"))


def test_a_submodule_name_is_never_a_function():
    _fresh(_EXPLAIN)


def test_the_readme_quickstart_imports():
    _fresh(_QUICKSTART)
