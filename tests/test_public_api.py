"""Every exported name resolves, every demo's imports do too, and so does
every program name the benchmark wraps.

The demos take seconds to run; executing only their import statements
catches a demo that still imports a deleted name.  Demo 03, the kinematic
flow against its closed forms, takes under a second and runs in full.  The
benchmark (``perfbench/layertrace.py``) looks its layer functions, runners,
emitter and config class up by module and name; a deletion that breaks that
lookup fails here, not only in a benchmark run.
"""

import ast
import dataclasses
import importlib.util
import runpy
from pathlib import Path

import pytest

import motc
import motc.bench

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _load_layertrace():
    # Loaded from its file without installing it: install() would rebind
    # motc globals for the whole test process.
    spec = importlib.util.spec_from_file_location("_layertrace", ROOT / "perfbench" / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERTRACE = _load_layertrace()
WRAPPED = [
    *LAYERTRACE.LAYER_FUNCTIONS.values(),
    *LAYERTRACE.RUNNERS,
    LAYERTRACE.EMIT,
    LAYERTRACE.CONFIG_CLASS,
]


@pytest.mark.parametrize("module", [motc, motc.bench], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    exec(compile(ast.Module(body=imports, type_ignores=[]), str(demo), "exec"), {})


def test_kinematic_demo_runs(capsys):
    runpy.run_path(str(ROOT / "demos" / "03_kinematic_flow_closed_form.py"), run_name="__main__")
    assert "closed-form maximizer" in capsys.readouterr().out


@pytest.mark.parametrize("module,name", WRAPPED, ids=lambda x: x)
def test_benchmark_wrapped_names_resolve(module, name):
    assert callable(LAYERTRACE._lookup(module, name))


def test_benchmark_wraps_integrate_and_rhs():
    # The benchmark wraps ExperimentConfig.integrate and replaces a
    # FlowProblem's rhs with dataclasses.replace.
    config_class = LAYERTRACE._lookup(*LAYERTRACE.CONFIG_CLASS)
    assert callable(config_class.integrate)
    assert "rhs" in {f.name for f in dataclasses.fields(motc.FlowProblem)}
