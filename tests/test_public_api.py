"""Every exported name resolves, and every demo's imports do too.

The demos take seconds to run; executing only their import statements
catches a demo that still imports a deleted name.
"""

import ast
from pathlib import Path

import pytest

import motc
import motc.bench

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("module", [motc, motc.bench], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    exec(compile(ast.Module(body=imports, type_ignores=[]), str(demo), "exec"), {})
