"""`src/evofam` holds only code that a pipeline runs.

Every public module-level function and public method must be referenced by
name somewhere in `src/evofam` outside its own `def`; a function that only
tests call belongs in the tests (see `reference.py`) or nowhere.  Every
defaulted parameter of those must be passed, by keyword or by position, by
some call in `src/`, `tests/` or `perfbench/`; a default that every caller
keeps is a constant.  Every module-level UPPER_CASE name must be read in
`src/evofam` outside its own assignment; a tolerance that only tests read
guards nothing the pipelines do.  No dataclass outside `cli.py` has a
`bool` field: the library returns measurements, and `cli` decides every
verdict, so each verdict is stored once.  Every `SamplePlan` field is read
as an attribute in `src/evofam` outside the class; a density no sweep
reads only pads the config schema.  The only DFTs in `src/evofam` are
`spectral.transform` and `spectral.inverse_transform`: a grid function is
its spectrum, so samples enter and leave through those two alone.
"""

import ast
from collections import Counter
from pathlib import Path

import evofam

SRC = Path(evofam.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
ENTRY_POINTS = {"cli.main"}     # called by the console script, not by src
# perfbench's cell-step counter reads cfl_safety from transport_solve's bound
# arguments, so the parameter stays although every caller keeps its default
KEPT_DEFAULTS = {"transport.transport_solve.cfl_safety"}
# the functions that may call np.fft (besides fftfreq, which builds frequency axes)
DFT_HOMES = {"spectral.transform", "spectral.inverse_transform"}
# the closed-form sector sup took over the lambda sweep that read moduli_per_ray,
# the closed-form C' and C sups over the lambda and tau sweeps that read
# resolvent_moduli and tau_samples, and the closed-form cd sup over the pair
# sweep that read resolvent_pair_grid; the fields stay only while perfbench's
# THIN_PLAN and the config schema set them
KEPT_PLAN_FIELDS = {"moduli_per_ray", "resolvent_moduli", "resolvent_pair_grid",
                    "tau_samples"}


def _names(node) -> Counter:
    """Every identifier `node` reads: bare names and attribute names."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _public_defs(module: str, tree: ast.Module):
    """(qualified name, def node) of each public function and public method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{module}.{node.name}.{item.name}", item


def unreferenced_in(src: Path) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    return [qualname for module, tree in trees.items()
            for qualname, node in _public_defs(module, tree)
            if qualname not in ENTRY_POINTS
            and everywhere[node.name] - _names(node)[node.name] <= 0]


def test_every_public_function_has_a_caller_in_src():
    assert unreferenced_in(SRC) == []


def _callables(module: str, tree: ast.Module):
    """(qualified name, def node, name calls use) of each public function and
    method, and of each class's __init__, which calls reach by the class name."""
    for qualname, node in _public_defs(module, tree):
        yield qualname, node, node.name
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    yield f"{module}.{cls.name}.__init__", item, cls.name


def _defaulted(node: ast.FunctionDef, is_method: bool):
    """(name, call position or None) of each parameter with a default."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - int(is_method)
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call: ast.Call, name: str, position) -> bool:
    """Whether `call` sets the parameter by keyword or by plain position."""
    if any(kw.arg == name for kw in call.keywords):
        return True
    plain = next((i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)),
                 len(call.args))
    return position is not None and plain > position


def never_passed(src: Path, callers) -> list[str]:
    """Defaulted parameters in `src` that no call under `callers` sets; calls
    are matched to definitions by the name they call."""
    calls = {}
    for path in (p for folder in callers for p in sorted(folder.rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for path in sorted(src.glob("*.py")):
        for qualname, node, called_as in _callables(path.stem, ast.parse(path.read_text())):
            for param, position in _defaulted(node, qualname.count(".") == 2):
                if not any(_passes(call, param, position)
                           for call in calls.get(called_as, [])):
                    unpassed.append(f"{qualname}.{param}")
    return sorted(unpassed)


def test_every_default_is_overridden_by_some_caller():
    callers = (SRC, ROOT / "tests", ROOT / "perfbench")
    assert never_passed(SRC, callers) == sorted(KEPT_DEFAULTS)


def _constants(tree: ast.Module):
    """(name, assignment node) of each module-level UPPER_CASE assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                yield target.id, node


def unread_constants(src: Path) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    return [f"{module}.{name}" for module, tree in trees.items()
            for name, node in _constants(tree)
            if everywhere[name] - _names(node)[name] <= 0]


def test_every_constant_is_read_in_src():
    assert unread_constants(SRC) == []


def bool_fields(src: Path) -> list[str]:
    """`bool`-annotated dataclass fields in `src`, outside `cli.py`."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "cli.py":
            continue
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in _names(d) for d in cls.decorator_list):
                found += [f"{path.stem}.{cls.name}.{item.target.id}" for item in cls.body
                          if isinstance(item, ast.AnnAssign)
                          and "bool" in _names(item.annotation)]
    return found


def test_no_verdict_field_outside_cli(tmp_path):
    assert bool_fields(SRC) == []
    (tmp_path / "probe.py").write_text(
        "from dataclasses import dataclass\n\n@dataclass(frozen=True)\n"
        "class Report:\n    value: float\n    verdict: bool\n")
    assert bool_fields(tmp_path) == ["probe.Report.verdict"]


def unread_fields(src: Path, cls_name: str) -> list[str]:
    """Fields of dataclass `cls_name` in `src` that no attribute access in
    `src` outside the class reads."""
    fields, reads = [], Counter()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name == cls_name:
                fields += [item.target.id for item in node.body
                           if isinstance(item, ast.AnnAssign)]
            else:
                reads.update(sub.attr for sub in ast.walk(node)
                             if isinstance(sub, ast.Attribute))
    return [name for name in fields if not reads[name]]


def test_every_plan_field_is_read_in_src(tmp_path):
    assert set(unread_fields(SRC, "SamplePlan")) == KEPT_PLAN_FIELDS
    (tmp_path / "probe.py").write_text(
        "class Plan:\n    used: int = 1\n    dead: int = 2\n\n"
        "def sweep(plan):\n    return plan.used\n")
    assert unread_fields(tmp_path, "Plan") == ["dead"]


def dft_uses(src: Path) -> list[str]:
    """`module:line: code` of each np.fft call other than fftfreq outside
    DFT_HOMES, and of each import from numpy.fft or of numpy's fft."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        homes = {id(sub) for qualname, node in _public_defs(path.stem, tree)
                 if qualname in DFT_HOMES for sub in ast.walk(node)}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                    and getattr(func.value, "attr", None) == "fft"
                    and func.attr != "fftfreq" and id(node) not in homes):
                found.append(f"{path.stem}:{node.lineno}: {ast.unparse(func)}")
            elif isinstance(node, ast.ImportFrom) and (
                    node.module == "numpy.fft"
                    or (node.module == "numpy" and any(a.name == "fft" for a in node.names))):
                found.append(f"{path.stem}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_the_only_dfts_are_transform_and_inverse_transform(tmp_path):
    # an inline DFT elsewhere would also leave spectral.transform uncounted
    assert dft_uses(SRC) == []
    (tmp_path / "spectral.py").write_text(
        "import numpy as np\n\ndef transform(v):\n    return np.fft.fftn(v)\n\n"
        "def axis(n):\n    return np.fft.fftfreq(n)\n\n"
        "def inline(v):\n    return np.fft.ifftn(v)\n")
    (tmp_path / "probe.py").write_text("from numpy.fft import rfft\n")
    assert dft_uses(tmp_path) == ["probe:1: from numpy.fft import rfft",
                                  "spectral:10: np.fft.ifftn"]
