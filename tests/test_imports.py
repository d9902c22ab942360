"""The package's import graph: every intra-package import sits at module
level, the modules import each other without a cycle, every name a
module or test file imports is used there, every private module-level
name is used somewhere in the package, lemmas hands chunks to run_chunks
in _sweep alone, every lemmas chunk is a generator folded in one place,
np.packbits is named only by the two bit packers, both searches abort
one way (the "aborted" verdict is returned only by an except _Budget
handler), and importing the package loads no multiprocessing
(run_chunks forks its workers itself)."""
import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import ffspec
from ffspec import lemmas

PACKAGE = Path(ffspec.__file__).parent
TESTS = Path(__file__).parent


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


def _trees(folder=PACKAGE):
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(folder.glob("*.py"))}


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


def test_tables_build_on_space_alone():
    # the table builds read only Space from the package, and space reads
    # nothing of it, so every table is index arithmetic on p and d alone
    trees = _trees()
    imports = {name: [ast.unparse(node) for node in ast.walk(trees[name])
                      if _package_imports(node)]
               for name in ("tables", "space")}
    assert imports == {"tables": ["from .space import Space"], "space": []}


def test_lemmas_run_chunks_only_in_sweep():
    # lemmas' docstring: every verifier runs through one driver, _sweep,
    # so no other function of the module hands chunks to run_chunks
    def named(node):
        return sorted(n.lineno for n in ast.walk(node)
                      if isinstance(n, ast.Name) and n.id == "run_chunks"
                      or isinstance(n, ast.Attribute)
                      and n.attr == "run_chunks")

    body = _trees()["lemmas"].body
    sweep = [node for node in body
             if isinstance(node, ast.FunctionDef) and node.name == "_sweep"]
    assert len(sweep) == 1 and named(sweep[0])
    assert [line for node in body if node not in sweep
            for line in named(node)] == []


def test_lemmas_chunks_are_generators_folded_in_one_place():
    # lemmas' docstring: each chunk yields one tuple per block.  A chunk
    # that returned a tuple would have its fields folded as blocks, so
    # every function a verifier hands to _sweep or _origin_sweep is a
    # generator function, and only _chunk_total and _sweep fold
    chunks, folds = set(), []
    for fn in _trees()["lemmas"].body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        params = {a.arg for a in fn.args.args}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("_sweep", "_origin_sweep")
                    and ast.unparse(node.args[0]) not in params):
                chunks.add(ast.unparse(node.args[0]))
            if isinstance(node, ast.Name) and node.id == "_fold_all":
                folds.append(fn.name)
    assert chunks == {"_planar_chunk", "_proj21_chunk", "_slab_chunk",
                      "_size_chunk", "_falsify_chunk"}
    assert [c for c in sorted(chunks)
            if not inspect.isgeneratorfunction(getattr(lemmas, c))] == []
    assert sorted(folds) == ["_chunk_total", "_sweep"]


def test_packbits_only_in_the_two_bit_packers():
    # sets.bit_rows packs adjacency rows and fourier.zero_keys packs zero
    # directions into keys; a second key builder would name packbits too
    where = []
    for name, tree in _trees().items():
        fns = [fn for fn in ast.walk(tree)
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "packbits"
                    or isinstance(node, ast.Name) and node.id == "packbits"
                    or isinstance(node, ast.alias)
                    and node.name.endswith("packbits")):
                inner = [fn.name for fn in fns
                         if fn.lineno <= node.lineno <= fn.end_lineno]
                where.append(f"{name}.{inner[-1] if inner else '<module>'}")
    assert sorted(where) == ["fourier.zero_keys", "sets.bit_rows"]


def test_aborted_only_in_budget_handlers():
    # a search out of budget raises spectral._Budget, and one handler
    # per search returns the "aborted" triple; a second abort path, a
    # flag tested after the search say, would name the verdict elsewhere
    trees = _trees()
    where, handlers = [], {}
    for name in ("spectral", "tiling"):
        caught = [h for h in ast.walk(trees[name])
                  if isinstance(h, ast.ExceptHandler) and h.type is not None
                  and ast.unparse(h.type) == "_Budget"]
        inside = {id(n) for h in caught for n in ast.walk(h)}
        handlers[name] = len(caught)
        where += [f"{name}.py:{n.lineno}" for n in ast.walk(trees[name])
                  if isinstance(n, ast.Constant) and n.value == "aborted"
                  and id(n) not in inside]
    assert handlers == {"spectral": 1, "tiling": 1}
    assert where == []


def test_module_imports_are_used():
    # __init__.py imports to re-export; every other module and test file
    # imports a name to use it, so a deletion that strands an import
    # shows here
    unused = []
    trees = [(f"{folder.name}/{name}", tree) for folder in (PACKAGE, TESTS)
             for name, tree in _trees(folder).items()]
    for name, tree in trees:
        if name == f"{PACKAGE.name}/__init__":
            continue
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    unused.append(f"{name}.py:{node.lineno} {bound}")
    assert unused == []


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


def test_private_names_are_used():
    # a private module-level name that no module of the package loads,
    # reads as an attribute or imports is left over from deleted code
    trees = _trees()
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{name}.py:{node.lineno} {d}" for d in defined
                       if d.startswith("_") and not d.startswith("__")
                       and d not in used]
    assert unused == []
