"""Rules on the package's own code: the settlement oracle stays independent of
the engine's encoders, every import is relative, stdlib or cryptography, no
memo outlives a run, a run never parses its own transcript back, and importing
the command line builds no dataclass."""

import ast
import builtins
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import swarmsim
from swarmsim import harness

ORACLE = (harness.oracle_settlement, harness.oracle_from_contributions)
FUNCTOOLS_MEMOS = {"cache", "lru_cache", "cached_property"}


def package_trees() -> list[tuple[str, ast.Module]]:
    sources = sorted(Path(swarmsim.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in sources]


def globals_read(fn) -> set[str]:
    """Names a function's body reads from its module: every loaded name that is
    neither bound inside it (parameters, assignments, nested functions) nor a
    builtin. Annotations are never evaluated at run time, so they do not count."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
    annotations = [tree.returns] + [
        node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))
    ]
    skip = {id(sub) for ann in annotations if ann is not None for sub in ast.walk(ann)}
    names = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and id(node) not in skip]
    bound = {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    bound |= {node.id for node in names if not isinstance(node.ctx, ast.Load)}
    bound |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    loaded = {node.id for node in names if isinstance(node.ctx, ast.Load)}
    return loaded - bound - set(dir(builtins))


def test_oracle_shares_only_the_wire_type_and_the_auction_id_with_the_engine():
    # The oracle writes its own amount, height and sequence encodings: a
    # shared encoder would let an engine bug reach the expected settlement too.
    used = set().union(*(globals_read(fn) for fn in ORACLE))
    used -= {fn.__name__ for fn in ORACLE}
    assert used == {"hashlib", "heapq", "SettlementTx", "derive_auction_id"}


def absolute_imports(tree: ast.Module) -> list[str]:
    """The modules that a module's `import` statements name absolutely."""
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return modules


def test_imports_are_relative_stdlib_or_cryptography():
    allowed = set(sys.stdlib_module_names) | {"cryptography"}
    bad = [
        f"{name}: {mod}"
        for name, tree in package_trees()
        for mod in absolute_imports(tree)
        if mod.split(".")[0] not in allowed
    ]
    assert bad == []


def test_no_functools_memo_in_the_package():
    # Memos are run-scoped: the run's MultisigPolicy holds the signature memo.
    # A functools cache would carry one run's work into the next one in the
    # same process, such as the replay that `verify` makes.
    bad = []
    for name, tree in package_trees():
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "functools"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                bad += [f"{name}: {a.name}" for a in node.names if a.name in FUNCTOOLS_MEMOS]
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in FUNCTOOLS_MEMOS
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                bad.append(f"{name}: functools.{node.attr}")
    assert bad == []


def test_only_the_transcript_module_reads_transcript_lines_back():
    # The report's counts are tallied where the simulation writes each line;
    # parsing the lines back would do the run's work a second time.
    bad = [
        f"{name}:{node.lineno}"
        for name, tree in package_trees()
        if name != "transcript.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "iter_events"
    ]
    assert bad == []


@pytest.mark.golden_matrix
def test_no_package_module_imports_dataclasses():
    # Every record is a NamedTuple. `dataclasses` writes each class's code at
    # import and imports `inspect`, a cost that every `run`, `verify` and `gen`
    # process would pay before it reads its input.
    bad = [
        f"{name}: {mod}"
        for name, tree in package_trees()
        for mod in absolute_imports(tree)
        if mod.split(".")[0] == "dataclasses"
    ]
    assert bad == []


@pytest.mark.golden_matrix
def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # A fresh interpreter that already holds what the command line needs from
    # outside the package: what the package's own import adds is its cost.
    preloaded = "cryptography.hazmat.primitives.asymmetric.ed25519, typing, json, argparse, hashlib"
    code = (
        f"import sys, {preloaded}\n"
        "before = set(sys.modules)\n"
        "import swarmsim.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    path = [str(Path(swarmsim.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    added = set(
        subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
    )
    assert "swarmsim.cli" in added
    assert added & {"dataclasses", "inspect"} == set()
