"""Cold-start guards: what a fresh ``repro`` process loads and starts.

Most paper workflows are short commands, so interpreter start-up is a
large share of what a user waits for (DESIGN §16).  These tests pin the
rules that keep it small:

* nothing under ``src/`` imports ``scipy.stats`` — the Gamma and Poisson
  forms come from ``scipy.special`` — or ``scipy.optimize``: allocation
  solves its LPs exactly in ``repro.core.simplex`` (source guards,
  AST-based so prose in docstrings may still name the modules);
* in fresh interpreters, ``import repro.core`` / ``import repro.traffic``
  and the ``goals``, ``figures``, ``review`` and ``fleet`` commands load
  no scipy at all, and ``verify``, ``dossier`` and ``fleet --telemetry``
  load ``scipy.special`` but neither ``scipy.stats`` nor
  ``scipy.optimize``;
* ``import repro.core`` / ``repro.traffic`` / ``repro.cli``, and the
  ``goals --json`` and ``figures`` commands, load no ``numpy.random``;
* writing a goal set loads no ``repro.testing`` module: the filesystem
  fault hook of the atomic write lives in ``repro.io``;
* a pooled fleet starts one ``resource_tracker`` interpreter, shared by
  the coordinator and its workers.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs ``repro.cli.main(argv)`` (or only imports) and prints, as the last
#: stdout line, the exit code and every loaded module.
_PROBE = """
import json, sys
{imports}
code = None
if len(sys.argv) > 1:
    from repro.cli import main
    code = main(sys.argv[1:])
print(json.dumps({{"code": code, "modules": sorted(sys.modules)}}))
"""


def _fresh_modules(argv=(), imports=""):
    """``(exit code, loaded modules)`` of a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(imports=imports), *argv],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    return report["code"], set(report["modules"])


def _fresh(argv=(), imports=""):
    """``(exit code, loaded scipy modules)`` of a fresh interpreter."""
    code, modules = _fresh_modules(argv, imports)
    return code, {name for name in modules
                  if name == "scipy" or name.startswith("scipy.")}


def _scipy_imports(tree: ast.AST, submodule: str):
    """Line numbers in ``tree`` that import ``scipy.<submodule>``."""
    dotted = f"scipy.{submodule}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(dotted):
                    yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith(dotted) or (
                    node.module == "scipy"
                    and any(alias.name == submodule for alias in node.names)):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == submodule \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "scipy":
            yield node.lineno  # ``scipy.stats`` after a bare ``import scipy``
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.startswith(dotted) \
                and " " not in node.value:
            yield node.lineno  # importlib.import_module("scipy.stats")


def _source_importers(submodule: str):
    """``path:line`` of every import of ``scipy.<submodule>`` under src."""
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.relative_to(SRC).as_posix()}:{lineno}"
                  for lineno in _scipy_imports(tree, submodule)]
    return found


def test_no_scipy_stats_imports_under_src():
    offenders = _source_importers("stats")
    assert not offenders, (
        "scipy.stats costs ≈1 s at import; use the scipy.special form "
        "scipy.stats evaluates (DESIGN §16):\n" + "\n".join(offenders))


def test_no_scipy_optimize_imports_under_src():
    offenders = _source_importers("optimize")
    assert not offenders, (
        "scipy.optimize costs ≈0.5 s at import; allocation LPs go through "
        "repro.core.simplex (DESIGN §16):\n" + "\n".join(offenders))


@pytest.mark.parametrize("module", ["repro.core", "repro.traffic"])
def test_package_import_loads_no_scipy(module):
    _, loaded = _fresh(imports=f"import {module}")
    assert not loaded


@pytest.mark.parametrize("module", ["repro.core", "repro.traffic",
                                    "repro.cli"])
def test_package_import_loads_no_numpy_random(module):
    # numpy loads numpy.random on the first np.random attribute access,
    # so one evaluated at module level would load it on every start.
    _, modules = _fresh_modules(imports=f"import {module}")
    assert "numpy.random" not in modules


@pytest.mark.parametrize("argv", [["goals", "--json", "G"], ["figures"]],
                         ids=["goals-json", "figures"])
def test_goal_set_commands_load_no_numpy_random(argv, tmp_path):
    # Deriving a goal set decides the MECE certificate cell by cell; it
    # draws no random points.
    argv = [str(tmp_path / part) if part == "G" else part for part in argv]
    code, modules = _fresh_modules(argv)
    assert code == 0
    assert "numpy.random" not in modules


@pytest.fixture(scope="module")
def goals_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("goals") / "goals.json"
    assert main(["goals", "--json", str(path)]) == 0
    return path


class TestCommandImports:
    def test_goals_json_loads_no_scipy(self, tmp_path):
        code, loaded = _fresh(["goals", "--json", str(tmp_path / "g.json")])
        assert code == 0
        assert not loaded

    def test_figures_loads_no_scipy(self):
        code, loaded = _fresh(["figures"])
        assert code == 0
        assert not loaded

    @pytest.mark.parametrize("argv", [
        ["dossier", "--workers", "1", "--hours", "200"],
        ["fleet", "--workers", "1", "--hours", "200", "--telemetry", "M"],
    ], ids=["dossier", "fleet-telemetry"])
    def test_sim_scale_goal_set_loads_only_scipy_special(self, argv,
                                                         tmp_path):
        argv = [str(tmp_path / part) if part == "M" else part
                for part in argv]
        code, loaded = _fresh(argv)
        assert code == 0
        assert "scipy.special" in loaded
        assert not {name for name in loaded
                    if name.startswith(("scipy.stats", "scipy.optimize"))}

    def test_review_loads_no_scipy(self, goals_file):
        code, loaded = _fresh(["review", str(goals_file)])
        assert code in (0, 1)
        assert not loaded

    def test_fleet_loads_no_scipy(self):
        code, loaded = _fresh(["fleet", "--workers", "1", "--hours", "20",
                               "--seed", "3"])
        assert code == 0
        assert not loaded

    def test_importance_sampled_fleet_loads_no_scipy(self):
        code, loaded = _fresh(["fleet", "--accelerator", "is",
                               "--tilt-rate", "3", "--accel-replications",
                               "4", "--accel-hours", "2", "--seed", "3"])
        assert code == 0
        assert not loaded

    def test_verify_loads_only_scipy_special(self, goals_file):
        code, loaded = _fresh(["verify", str(goals_file), "--counts",
                               '{"I1": 2}', "--exposure", "1e6"])
        assert code in (0, 1)
        assert "scipy.special" in loaded
        assert not {name for name in loaded
                    if name.startswith(("scipy.stats", "scipy.optimize"))}


def test_goals_json_loads_no_testing_harness(tmp_path):
    code, loaded = _fresh_modules(["goals", "--json",
                                   str(tmp_path / "goals.json")])
    assert code == 0
    assert not [name for name in loaded
                if name.split(".")[:2] == ["repro", "testing"]]


def test_pooled_fleet_starts_one_resource_tracker(tmp_path):
    """Under ``-X importtime`` every interpreter start-up imports ``site``
    once: the coordinator plus one shared tracker makes two.  Workers
    fork, so they start no interpreter — unless each launches a tracker
    of its own for the shm segments it creates."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "fleet",
         "--workers", "2", "--hours", "400", "--chunk-hours", "50",
         "--seed", "5"],
        env=env, capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    startups = [line for line in done.stderr.splitlines()
                if line.rstrip().endswith("| site")]
    assert len(startups) == 2, done.stderr
