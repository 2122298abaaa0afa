"""Every name a package module imports is used there or re-exported, the
package imports nothing beyond NumPy at run time, and only the one writer
opens files for writing, replaces or removes them, or names a refused one.

No linter ships with the toolchain, so this walks each module's syntax
tree: a name bound by ``import`` or ``from ... import`` must appear as a
name in the module's code or be listed in its ``__all__``. ``from
__future__`` imports are compiler directives and are skipped.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "surgdepth"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_package_modules_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported_names(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in _imported_names(tree) if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_runtime_loads_no_scipy():
    """Importing every package module, the CLI included, loads no SciPy."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    names = ["surgdepth"] + [f"surgdepth.{p.stem}" for p in MODULES if p.stem != "__init__"]
    code = (f"import importlib, sys\nfor m in {names!r}:\n"
            "    importlib.import_module(m)\nprint('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# (module, top-level function) allowed to open( a file for writing: the one
# writer, and train()'s metrics.jsonl, streamed so an aborted run keeps its lines.
WRITE_OPENS = {("data.py", "_open_output"), ("train.py", "train")}


def _write_opens(tree):
    """(top-level name, line) of each open( call whose mode may write: one
    holding w, a, x or +, or one not spelled as a literal."""
    for top in tree.body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is not None and (not isinstance(mode, ast.Constant)
                                     or set(str(mode.value)) & set("wax+")):
                yield getattr(top, "name", None), node.lineno


def test_write_open_finder():
    code = ("def f(p, m):\n    open(p)\n    open(p, 'rb')\n    open(p, 'w')\n"
            "    open(p, mode='ab')\n    open(p, m)\n")
    assert [line for _, line in _write_opens(ast.parse(code))] == [4, 5, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_writer_opens_files_for_writing(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    stray = [f"{path.name}:{line}: open( for writing in {name}"
             for name, line in _write_opens(tree) if (path.name, name) not in WRITE_OPENS]
    assert not stray, "write through data._open_output:\n" + "\n".join(stray)


def _is_cannot_write(node):
    """A string literal or f-string that starts with "cannot write"."""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith("cannot write"))


REFUSAL = 'UsageError("cannot write ...")'   # raised by no function, the writer included


def _writer_steps(tree):
    """(top-level name, line, what) of each step left to the writer (an
    os.replace, os.rename, os.unlink or os.remove call, a ".tmp" string)
    and of each UsageError whose message starts with "cannot write"."""
    for top in tree.body:
        name = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "os"
                    and node.func.attr in ("replace", "rename", "unlink", "remove")):
                yield name, node.lineno, f"os.{node.func.attr}"
            elif isinstance(node, ast.Constant) and node.value == ".tmp":
                yield name, node.lineno, '".tmp"'
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "UsageError" and node.args
                  and _is_cannot_write(node.args[0])):
                yield name, node.lineno, REFUSAL


def test_writer_step_finder():
    code = ("def f(p):\n    os.replace(p, p)\n    os.rename(p, p)\n    os.unlink(p)\n"
            "    os.remove(p)\n    q = p + '.tmp'\n    r = f'{p}.tmp'\n    s = 'a.tmpl'\n"
            "    raise UsageError(f'cannot write {p}: no')\n"
            "    raise UsageError('cannot write here')\n    raise UsageError(f'{p}: bad')\n")
    found = sorted(line for _, line, _ in _writer_steps(ast.parse(code)))
    assert found == [2, 3, 4, 5, 6, 7, 9, 10]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_writer_replaces_and_names_outputs(path):
    """Only data._open_output renames, removes or names a temporary file, and
    no module raises its own UsageError for an output the OS refuses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    stray = [f"{path.name}:{line}: {what} in {name}"
             for name, line, what in _writer_steps(tree)
             if (path.name, name) != ("data.py", "_open_output") or what == REFUSAL]
    assert not stray, "leave these to data._open_output:\n" + "\n".join(stray)
