"""The package's import graph: every intra-package import sits at module
level, the modules import each other without a cycle, and importing the
package loads no multiprocessing (run_chunks forks its workers itself)."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import ffspec

PACKAGE = Path(ffspec.__file__).parent


def _package_imports(node):
    """Names of the ffspec modules one import statement reads."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            if node.module:
                return [node.module.split(".")[0]]
            return [alias.name for alias in node.names]
        if node.module and node.module.split(".")[0] == "ffspec":
            return [node.module.split(".")[1] if "." in node.module else "__init__"]
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] if "." in alias.name else "__init__"
                for alias in node.names if alias.name.split(".")[0] == "ffspec"]
    return []


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_no_package_import_inside_a_function():
    found = []
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if _package_imports(node):
                    found.append(f"{name}.py:{node.lineno} in {fn.name}")
    assert found == []


def test_module_graph_is_acyclic():
    graph = {name: {m for node in ast.walk(tree) for m in _package_imports(node)}
             for name, tree in _trees().items()}
    done: set = set()
    while len(done) < len(graph):
        ready = {n for n in graph if n not in done and graph[n] <= done}
        assert ready, f"import cycle among {sorted(set(graph) - done)}"
        done |= ready


def test_import_leaves_multiprocessing_out():
    # a fresh interpreter, so no other test's imports count
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, ffspec; "
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
