"""Every exported name resolves, every demo runs, and so does every
program name the benchmark wraps.

Each demo runs in full (a few seconds in all) and its printed claims are
checked: executing only its import statements would miss a demo that calls
a deleted or changed API.  The benchmark (``perfbench/layertrace.py``)
looks its layer functions, runners, emitter and config class up by module
and name; a deletion that breaks that lookup fails here, not only in a
benchmark run.  A traced run in a fresh interpreter checks that the wrapped
tracking engine sees every rhs evaluation.
"""

import ast
import dataclasses
import importlib.util
import json
import os
import re
import runpy
import subprocess
import sys
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


def _check_propagation(out):
    assert "free evolution matches e^{-i E_k T}: True" in out
    assert "spectrum preserved: True" in out


def _check_gradient(out):
    analytic, fd = re.search(r"analytic (\S+)  finite-difference (\S+)", out).groups()
    assert analytic == fd
    before, after = map(float, re.search(r"Phi_M: (\S+) -> (\S+)", out).groups())
    assert after > before


def _check_gramians(out):
    median = {
        name: float(re.search(rf"{re.escape(name)}\s+(\S+)", out).group(1))
        for name in ("G (unitary tracking)", "Gamma (m=10, thermal)", "Gamma (m=10, pure)")
    }
    assert median["G (unitary tracking)"] > median["Gamma (m=10, pure)"]
    assert median["Gamma (m=10, pure)"] > median["Gamma (m=10, thermal)"]


def _check_maximizer(out):
    phi, bound = re.search(r"closed-form maximizer (\S+), trace bound (\S+)", out).groups()
    assert phi == bound
    assert "gradient vanishes at the maximizer: True" in out
    random_max = float(re.search(r"random unitaries: max (\S+),", out).group(1))
    assert random_max < float(bound)


DEMO_CHECKS = {
    "01_propagation_basics.py": _check_propagation,
    "02_gradient_and_flow.py": _check_gradient,
    "03_kinematic_flow_closed_form.py": _check_maximizer,
    "04_gramian_conditioning.py": _check_gramians,
}


@pytest.mark.parametrize("demo", sorted(DEMO_CHECKS))
def test_demo_runs(capsys, demo):
    runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
    DEMO_CHECKS[demo](capsys.readouterr().out)


@pytest.mark.parametrize("module,name", WRAPPED, ids=lambda x: x)
def test_benchmark_wrapped_names_resolve(module, name):
    assert callable(LAYERTRACE._lookup(module, name))


def test_benchmark_wraps_integrate_and_rhs():
    # The benchmark wraps ExperimentConfig.integrate and replaces a
    # FlowProblem's rhs with dataclasses.replace.
    config_class = LAYERTRACE._lookup(*LAYERTRACE.CONFIG_CLASS)
    assert callable(config_class.integrate)
    assert "rhs" in {f.name for f in dataclasses.fields(motc.FlowProblem)}


# Runs in a fresh interpreter: installing the tracer rebinds motc globals
# and numpy's linalg functions for the whole process.
_TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import layertrace

tracer = layertrace.Tracer()
tracer.install()
from motc.bench.cli import main

command, config, out = sys.argv[2:5]
tiny = ["--levels", "3", "--state", "pure", "--t-final", "20", "--grid", "32",
        "--observables", "2", "--integrator", "rkck:atol=1e-4,rtol=1e-4"]
code = main([command, "--config", config, *tiny, "--out", out])
spans = sum(1 for span in tracer.spans if span[0] == "tracking.rhs")
print(json.dumps({"code": code, "spans": spans}))
"""


@pytest.mark.parametrize(
    "command,config,summary_path",
    [("motc-track", {}, ("per_m", "2")), ("unitary-track", {"max_steps": 10}, ("log",))],
    ids=["motc-track", "unitary-track"],
)
def test_traced_rhs_spans_match_rhs_evaluations(tmp_path, command, config, summary_path):
    # The benchmark's per-layer figures come from spans around the names it
    # wraps; an engine bound before the tracer installs would read 0.
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    out = tmp_path / "out"
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(ROOT / "perfbench"), command,
         str(config_file), str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout.splitlines()[-1])
    summary = json.loads((out / f"{command}_summary.json").read_text())["summary"]
    for key in summary_path:
        summary = summary[key]
    assert traced["code"] == 0
    assert traced["spans"] == summary["rhs_evaluations"] > 0
