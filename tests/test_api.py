"""The public API is what the commands, the demos and README use.

Every public module-level function or class in ``src/rotta`` must be named
outside the tests: in the code of ``src/rotta`` or ``demos/*.py``, in
README's Python blocks, or in README's backticked text.  A name only the
tests call is a second way to do a job, and it goes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rotta"


def _public_definitions():
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names[node.name] = path.name
    return names


def _names_in_code(source):
    """Identifiers a module's code refers to: names, attributes and imports, not definitions or docstrings."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
    return used


def _names_outside_tests():
    used = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")):
        used |= _names_in_code(path.read_text(encoding="utf-8"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S):
        used |= _names_in_code(block)
    prose = re.sub(r"^```.*?^```$", "", readme, flags=re.M | re.S)
    for span in re.findall(r"`([^`\n]+)`", prose):
        used |= set(re.findall(r"\w+", span))
    return used


def test_every_public_name_is_used_outside_the_tests():
    used = _names_outside_tests()
    unused = sorted(name for name in _public_definitions() if name not in used)
    assert unused == [], f"public names only the tests use: {unused}"
