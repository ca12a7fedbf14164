#!/usr/bin/env python
"""Static-check gate (``make lint``): ruff + mypy, with a fallback.

When ruff and mypy are installed, runs them against pyproject.toml's
configuration (strict typing on ``src/repro/analysis/`` and
``src/repro/timing/sta.py``, standard rules elsewhere) and fails on
any finding.

This repo must also gate on machines where neither tool can be
installed, so each missing tool degrades -- loudly -- to a built-in
approximation:

* ruff  -> an ``ast.parse`` pass over every python tree (syntax
  errors, without writing bytecode caches into the tree) plus an AST
  sweep for unused imports, the highest-value pyflakes rule (F401)
  and the one dead code most often hides behind.
* mypy  -> nothing; a notice says the typing gate did not run.

The fallback prints exactly which tools were substituted, so a green
``make lint`` never silently means less than it appears to.
"""

from __future__ import annotations

import ast
import shutil
import subprocess
import sys
from importlib import util as importlib_util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Python trees the gate covers.
TREES = ("src", "tests", "scripts", "benchmarks")

#: Trees mypy's strict override actually bites in: the analysis plane
#: and the STA envelope it holds the engines to.  Keep the invocation
#: narrow so the permissive baseline elsewhere stays advisory.
MYPY_TARGETS = ("src/repro/analysis", "src/repro/timing/sta.py")


def _python_files() -> list[Path]:
    files: list[Path] = []
    for tree in TREES:
        root = REPO / tree
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
    return [f for f in files if "__pycache__" not in f.parts]


def _unused_imports(path: Path, tree: ast.Module) -> list[str]:
    """F401 approximation: imported names never referenced again.

    A name counts as used when it appears as a ``Name`` anywhere else
    in the module (annotations included -- they stay real AST under
    ``from __future__ import annotations``) or as a string in
    ``__all__`` (the re-export idiom of package ``__init__``).
    Imports marked ``# noqa`` on the statement line are exempt, the
    same escape hatch ruff honours.
    """
    lines = path.read_text().splitlines()

    def suppressed(node: ast.stmt) -> bool:
        line = lines[node.lineno - 1] if node.lineno <= len(lines) \
            else ""
        return "# noqa" in line

    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and suppressed(node):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                imported[alias.asname or alias.name] = node.lineno
    if not imported:
        return []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                          str):
            used.add(node.value)  # covers __all__ re-export lists
    return [f"{path.relative_to(REPO)}:{line}: "
            f"unused import '{name}'"
            for name, line in sorted(imported.items(),
                                     key=lambda item: item[1])
            if name not in used]


def _fallback_ruff() -> int:
    """Parse + unused-import sweep when ruff is unavailable."""
    findings: list[str] = []
    for path in _python_files():
        try:
            module = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as error:
            findings.append(f"{path.relative_to(REPO)}: {error}")
            continue
        findings.extend(_unused_imports(path, module))
    for finding in findings:
        print(f"lint: {finding}", file=sys.stderr)
    return len(findings)


def main() -> int:
    failures = 0
    substituted: list[str] = []

    ruff = shutil.which("ruff")
    if ruff:
        proc = subprocess.run([ruff, "check", *TREES], cwd=REPO)
        failures += proc.returncode != 0
        print("lint: ruff check clean" if proc.returncode == 0
              else "lint: ruff findings above", file=sys.stderr)
    else:
        substituted.append("ruff -> syntax + unused-import sweep")
        failures += _fallback_ruff()

    if importlib_util.find_spec("mypy") is not None:
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", *MYPY_TARGETS], cwd=REPO)
        failures += proc.returncode != 0
        print(f"lint: mypy clean on {' '.join(MYPY_TARGETS)}"
              if proc.returncode == 0 else "lint: mypy findings above",
              file=sys.stderr)
    else:
        substituted.append("mypy -> skipped (typing gate did not run)")

    for note in substituted:
        print(f"lint: NOTICE -- {note} (tool not installed; "
              f"pip install it to run the full gate)", file=sys.stderr)
    if failures:
        print(f"lint: FAILED ({failures} gate(s) with findings)",
              file=sys.stderr)
        return 1
    print("lint: OK" + (" (degraded -- see notices)" if substituted
                        else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
