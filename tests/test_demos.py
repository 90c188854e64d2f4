"""The narrative demo scripts and README's library tour must stay runnable."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the scripts import nilary from src/, as the tests do
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120, env=ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_library_tour():
    """README's "Library tour" block runs, and its expressions give the results its comments show."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns: dict = {}
    values = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), ns))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), ns)
    assert values == [
        [(0,), (0, 6), (0, 4, 8), (0, 3, 6, 9), (0, 2, 4, 6, 8, 10), tuple(range(12))],
        (2, (0, 4, 8)),
        (True, False),
        (False, (0, 3), (0, 2, 4)),
    ]
    for shown in ("# [(0,), (0, 6), (0, 4, 8), (0, 3, 6, 9), (0, 2, 4, 6, 8, 10), (0, ..., 11)]",
                  "# (2, (0, 4, 8))", "# (True, False)", "# (False, (0, 3), (0, 2, 4))"):
        assert shown in block
