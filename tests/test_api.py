"""The public API is what the commands, the demos and README use.

Every public module-level function or class in ``src/rotta`` must be named
outside the tests: in the code of ``src/rotta`` or ``demos/*.py``, in
README's Python blocks, or in README's backticked text.  A name only the
tests call is a second way to do a job, and it goes.
"""

import ast
import builtins
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


def test_only_experiment_builds_the_rotation_list():
    # rotation index i is one rotation, with the same bits, in every command
    # because one call in ``experiment`` builds the list the others take
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "rotation_list":
                    callers.append(path.name)
    assert callers == ["experiment.py"], f"modules calling rotation_list: {callers}"


def _writes_a_file(call):
    """Whether a call is ``open`` in a write mode, ``write_text`` or ``write_bytes``."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        args = call.args[1:] if isinstance(func, ast.Name) else call.args  # open(path, mode) or path.open(mode)
        mode = args[0] if args else ast.Constant("r")
    # a mode computed at run time may write
    return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+"))


def test_only_write_outputs_writes_artifacts():
    # one function writes every command's files and seals them with the
    # manifest, so a second write path cannot skip the seal or the cleanup
    tree = ast.parse((PACKAGE / "experiment.py").read_text(encoding="utf-8"))
    defs = [(node.name, node) for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    for cls in [node for _, node in defs if isinstance(node, ast.ClassDef)]:
        defs += [(f"{cls.name}.{node.name}", node) for node in cls.body if isinstance(node, ast.FunctionDef)]
    writers = sorted(
        name
        for name, node in defs
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(call, ast.Call) and _writes_a_file(call) for call in ast.walk(node))
    )
    assert writers == ["_write_outputs"], f"functions writing files in experiment.py: {writers}"


def _top_level_users(name):
    """``(module, top-level definition)`` of every reference to ``name`` in ``src/rotta``, ``<module>`` outside one."""
    users = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(top):
                if getattr(node, "id", None) == name or getattr(node, "attr", None) == name:
                    users.append((path.name, where))
    return users


def test_run_tta_is_the_only_caller_of_the_reducer():
    # one sample's rows are reduced in place in run_tta's buffer; a second
    # caller would bring back a second way to reduce a dataset
    assert _top_level_users("_reduce_sample") == [("tta.py", "run_tta")]


def _is_number(node):
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.BinOp):
        return _is_number(node.left) and _is_number(node.right)
    return isinstance(node, ast.UnaryOp) and _is_number(node.operand)


def test_tta_has_one_memory_budget():
    # the kernel chunk bounds every temporary array; the reducer works in
    # one sample's buffer and needs no budget of its own
    tree = ast.parse((PACKAGE / "tta.py").read_text(encoding="utf-8"))
    numbers = [
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign) and _is_number(node.value)
        for target in node.targets
    ]
    assert numbers == ["_CHUNK_STEPS"], f"numeric constants of tta.py: {numbers}"


def test_only_the_config_and_the_metrics_report_have_to_dict():
    # a report's JSON is its fields in order; a hand-written key list beside
    # the fields is a second copy of the layout that must change in step
    owners = sorted(
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "to_dict" for item in node.body)
    )
    assert owners == ["experiment.py:ExperimentConfig", "metrics.py:MetricsReport"], f"classes with to_dict: {owners}"


def test_metrics_raises_only_for_a_zero_target_and_too_many_bins():
    # a statistic a dataset is too short or too small to define is NaN with
    # its *_degenerate flag, not an exception that stops the command
    exceptions = []
    for node in ast.parse((PACKAGE / "metrics.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            bases = [getattr(builtins, getattr(base, "id", ""), None) for base in node.bases]
            if any(isinstance(base, type) and issubclass(base, BaseException) for base in bases):
                exceptions.append(node.name)
    assert exceptions == ["ZeroTargetMax", "TooManyBins"], f"exception classes of metrics.py: {exceptions}"
