"""The benchmark tracer (perfbench/tracer.py) wraps named evofam methods and
rebinds names that `evofam.cli` imports; a refactor that turns one of those
methods into a property, or drops one of those imports, breaks `--trace 1`.
The static checks load the tracer module without installing it; the last
one installs it around one cycle of each benchmark workload."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    """perfbench/<name>.py as a module, without putting perfbench on the path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


def test_traced_methods_are_plain_functions(tracer):
    for layer, cls_name, method, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"evofam.{layer}"), cls_name)
        assert inspect.isfunction(cls.__dict__.get(method)), \
            f"{layer}.{cls_name}.{method} is not a plain method"


def test_cli_imports_exist(tracer):
    cli = importlib.import_module("evofam.cli")
    for name in tracer.CLI_IMPORTS:
        assert inspect.isfunction(getattr(cli, name, None)), f"evofam.cli.{name}"


def test_metric_spans_name_traced_callables(tracer):
    # a rename or deletion of a measured function must fail here, not only
    # in a traced benchmark run
    spans = {name for *_, name in tracer.METHODS}
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"evofam.{layer}")
        spans |= {tracer.ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                  for attr, fn in vars(module).items()
                  if not attr.startswith("_") and inspect.isfunction(fn)
                  and fn.__module__ == module.__name__}
    read = {name.rsplit(".", 1)[0] for name, *_ in tracer.LAYER_METRICS
            if name not in tracer.COUNTER_NAMES and name != tracer.PER_STEP}
    read |= set(tracer.COUNTERS)
    assert len(read) >= 27
    assert read <= spans, f"metric spans with no traced callable: {sorted(read - spans)}"


def _traced_callable(tracer, span):
    """The function or method the tracer records under `span`."""
    for layer, cls_name, method, name in tracer.METHODS:
        if name == span:
            cls = getattr(importlib.import_module(f"evofam.{layer}"), cls_name)
            return getattr(cls, method)
    names = {alias: original for original, alias in tracer.ALIASES.items()}
    layer, attr = names.get(span, span).split(".")
    return getattr(importlib.import_module(f"evofam.{layer}"), attr)


def test_counter_hooks_read_parameters_of_the_traced_callable(tracer):
    # a hook reads bound arguments by name (a["cfl_safety"]); renaming the
    # parameter would otherwise break only a traced run
    checked = 0
    for span, hooks in tracer.COUNTERS.items():
        params = inspect.signature(_traced_callable(tracer, span)).parameters
        for _, hook in hooks:
            names = {c for c in hook.__code__.co_consts
                     if isinstance(c, str) and c.isidentifier() and c != hook.__doc__}
            missing = names - set(params)
            assert not missing, f"{span} hook reads {sorted(missing)}"
            checked += len(names)
    assert checked >= 7


@pytest.fixture(scope="module")
def thin_configs(tmp_path_factory):
    """The bundled configs on 64 bins with the thin plans, derived as
    perfbench/smoke_test.py derives its tiny configs."""
    thin_plan = _load("smoke_test").THIN_PLAN
    out = tmp_path_factory.mktemp("configs")
    for path in (ROOT / "src" / "evofam" / "data" / "configs").glob("*.json"):
        config = json.loads(path.read_text())
        config["grid"]["n"] = 64
        config["plans"] = thin_plan
        if "solver" in config:
            config["solver"]["steps"] = 32
        if "transport" in config:
            config["transport"].update(cells=60, refinements=[15, 30, 60])
        (out / path.name).write_text(json.dumps(config))
    return out


WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_layer_metric_records_on_its_workloads(tracer, thin_configs,
                                                     tmp_path, workload):
    # a metric that reads 0 on its workload raises TracerError in a traced
    # benchmark run; one traced cycle finds that before the benchmark does
    cli = importlib.import_module("evofam.cli")
    cycle = WORKLOADS[workload]
    with tracer.Tracer() as traced:
        for index, op in enumerate(cycle):
            traced.op = index
            for pipeline, stem in op:
                code = cli.main([pipeline, "--config", str(thin_configs / f"{stem}.json"),
                                 "--out", str(tmp_path / f"{pipeline}-{stem}"),
                                 "--seed", "3", "--stable"])
                assert code in (0, 1), f"{pipeline} {stem} exited {code}"
    metrics = traced.metrics(len(cycle), workload)
    assert set(metrics) == {name for name, *_ in tracer.LAYER_METRICS}
