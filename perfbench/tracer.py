"""Span tracer for the evofam layers, installed from outside the package.

`Tracer.install` wraps every public function of the traced modules and a
fixed list of hot methods, and rebinds every name in any ``evofam``
module that still refers to an original function (``cli`` imports
``norm``, ``dump_json`` and others by name).  Each call records a span
(name, start, end, parent span, op id) in memory; per-name call counts,
inclusive and self time are derived from the spans when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("spectral", "symbols", "semigroup", "evolution", "perturbation",
          "assumptions", "transport", "config", "reporting")

# Span names that differ from "<module>.<function>".
ALIASES = {
    "perturbation.perturbed_family_checks": "perturbation.family_checks",
    "assumptions.check_sector": "assumptions.sector",
    "assumptions.largest_passing_theta": "assumptions.theta_scan",
    "assumptions.check_kato_stability": "assumptions.kato",
    "assumptions.check_operator_lipschitz": "assumptions.operator_lipschitz",
    "assumptions.check_resolvent_lipschitz": "assumptions.resolvent_lipschitz",
    "assumptions.check_semigroup_lipschitz": "assumptions.semigroup_lipschitz",
    "assumptions.check_norm_equivalence": "assumptions.norm_equivalence",
    "assumptions.certify_cd_system": "assumptions.cd_system",
}

# (module, class, method, span name).  The three `apply` methods are the
# perturbation family's B(t), counted together as b_apply.
METHODS = (
    ("spectral", "Grid", "xi_axes", "spectral.xi_axes"),
    ("symbols", "SymbolSpec", "time_matrix", "symbols.time_matrix"),
    ("symbols", "SymbolSpec", "on_axes", "symbols.on_axes"),
    ("symbols", "SymbolSpec", "integral_on_axes", "symbols.integral_on_axes"),
    ("symbols", "SymbolSpec", "monomials", "symbols.monomials"),
    ("evolution", "PropagatorEngine", "__init__", "evolution.engine_init"),
    ("evolution", "PropagatorEngine", "exponent", "evolution.exponent"),
    ("evolution", "PropagatorEngine", "propagate", "evolution.propagate"),
    ("perturbation", "Mollifier", "multiplier", "perturbation.multiplier"),
    ("perturbation", "MultiplierFamily", "multiplier", "perturbation.multiplier"),
    ("perturbation", "Mollifier", "apply", "perturbation.b_apply"),
    ("perturbation", "MultiplierFamily", "apply", "perturbation.b_apply"),
    ("perturbation", "SmoothingComposite", "apply", "perturbation.b_apply"),
)

# Names `evofam.cli` imports directly; each must resolve to a wrapper.
CLI_IMPORTS = ("favard_norm", "dump_json", "write_csv", "norm",
               "save_function", "spectral_tail_fraction")

P, C, L = ("perturb-commuting", "perturb-timedep"), ("certify",), ("light-suite",)
ALL = C + P + L

# Per-layer metrics: (name, unit, workloads on which it must be non-zero).
# "<span>.calls", ".self_s" and ".s" are aggregated from the spans, the
# rest from COUNTERS and PER_STEP below.  Values are per op.
LAYER_METRICS = (
    ("spectral.xi_axes.calls", "count", P),
    ("spectral.norm.calls", "count", P),
    ("spectral.norm.self_s", "s", P),
    ("spectral.transform.calls", "count", P),
    ("symbols.time_matrix.calls", "count", C),
    ("symbols.time_matrix.self_s", "s", C),
    ("symbols.time_matrix.cells", "count", C),
    ("symbols.on_axes.calls", "count", L),
    ("symbols.on_axes.self_s", "s", L),
    ("symbols.integral_on_axes.calls", "count", P),
    ("symbols.integral_on_axes.self_s", "s", P),
    ("symbols.monomials.calls", "count", P),
    ("evolution.exponent.calls", "count", P),
    ("evolution.exponent.self_s", "s", P),
    ("evolution.engine_init.calls", "count", L),
    ("evolution.engine_init.self_s", "s", L),
    ("evolution.product_formula_errors.s", "s", L),
    ("perturbation.solve_perturbed.calls", "count", P),
    ("perturbation.solve_perturbed.self_s", "s", P),
    ("perturbation.solve_perturbed.steps", "count", P),
    ("perturbation.b_apply.calls", "count", P),
    ("perturbation.b_apply.self_s", "s", P),
    ("perturbation.b_apply_per_step", "ratio", P),
    ("perturbation.duhamel_residual.s", "s", P),
    ("perturbation.family_checks.s", "s", P),
    ("assumptions.sector.s", "s", C),
    ("assumptions.theta_scan.s", "s", C),
    ("assumptions.kato.s", "s", C),
    ("assumptions.operator_lipschitz.s", "s", C),
    ("assumptions.resolvent_lipschitz.s", "s", C),
    ("assumptions.semigroup_lipschitz.s", "s", C),
    ("assumptions.norm_equivalence.s", "s", C),
    ("assumptions.cd_system.s", "s", C),
    ("assumptions.sector.samples", "count", C),
    ("assumptions.kato.partitions_tested", "count", C),
    ("assumptions.operator_lipschitz.pair_count", "count", C),
    ("assumptions.resolvent_lipschitz.pair_count", "count", C),
    ("assumptions.semigroup_lipschitz.pair_count", "count", C),
    ("semigroup.favard_norm.calls", "count", L),
    ("semigroup.favard_norm.s", "s", L),
    ("transport.transport_solve.calls", "count", L),
    ("transport.transport_solve.s", "s", L),
    ("transport.transport_solve.cell_steps", "count", L),
    ("config.load_config.calls", "count", ALL),
    ("config.load_config.s", "s", ALL),
    ("reporting.dump_json.s", "s", ALL),
    ("reporting.write_csv.s", "s", ALL),
    ("reporting.bytes_written", "B", ALL),
)


def _transport_cell_steps(a: dict, result) -> int:
    """Cells x time steps, with the step count transport_solve derives."""
    problem, s, t, steps = a["problem"], a["s"], a["t"], a["steps"]
    if t == s:
        return 0
    if steps is None:
        steps = math.ceil((t - s) / problem.cfl_step(a["cfl_safety"]))
    return problem.cells * steps


def _bytes_written(a: dict, result) -> int:
    return os.path.getsize(a["path"])


# Counters read from a call's bound arguments and result after its span
# closes: span name -> ((counter name, hook), ...).
COUNTERS = {
    "symbols.time_matrix": (
        ("symbols.time_matrix.cells", lambda a, r: r.size),),
    "perturbation.solve_perturbed": (
        ("perturbation.solve_perturbed.steps", lambda a, r: len(r.sigmas) - 1),),
    "assumptions.sector": (
        ("assumptions.sector.samples", lambda a, r: r.samples),),
    "assumptions.kato": (
        ("assumptions.kato.partitions_tested", lambda a, r: r.partitions_tested),),
    "assumptions.operator_lipschitz": (
        ("assumptions.operator_lipschitz.pair_count", lambda a, r: r.pair_count),),
    "assumptions.resolvent_lipschitz": (
        ("assumptions.resolvent_lipschitz.pair_count", lambda a, r: r.pair_count),),
    "assumptions.semigroup_lipschitz": (
        ("assumptions.semigroup_lipschitz.pair_count", lambda a, r: r.pair_count),),
    "transport.transport_solve": (
        ("transport.transport_solve.cell_steps", _transport_cell_steps),),
    "reporting.dump_json": (("reporting.bytes_written", _bytes_written),),
    "reporting.write_csv": (("reporting.bytes_written", _bytes_written),),
}
COUNTER_NAMES = {c for hooks in COUNTERS.values() for c, _ in hooks}
# B applications per Volterra step: b_apply calls made directly by
# solve_perturbed over the steps it marched (2 + Picard sweeps).
PER_STEP = "perturbation.b_apply_per_step"


class TracerError(RuntimeError):
    """The tracer missed a layer it was meant to cover."""


class Tracer:
    """Records spans of the wrapped evofam calls; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_ints = array("q")       # span id, name id, parent id, op
        self.span_times = array("d")      # start, end
        self.counters: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = [-1]     # ids of the open spans; -1 is the root
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        hooks = COUNTERS.get(name, ())
        signature = inspect.signature(fn) if hooks else None
        clock = time.perf_counter
        stack, ints, times = self._stack, self.span_ints, self.span_times

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # closed + open spans (with the root) = spans opened so far + 1
            span = len(times) // 2 + len(stack)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ints.extend((span, nid, stack[-1], self.op))
                times.extend((t0, t1))
            if hooks:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for counter, hook in hooks:
                    self.counters[counter] = (self.counters.get(counter, 0)
                                              + hook(bound.arguments, result))
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def _columns(self):
        """Span rows (span id, name id, parent id, op) and durations."""
        rows = np.frombuffer(self.span_ints, dtype=np.int64).reshape(-1, 4)
        times = np.frombuffer(self.span_times, dtype=np.float64).reshape(-1, 2)
        return rows, times[:, 1] - times[:, 0]

    def aggregates(self) -> dict[str, np.ndarray]:
        """Per name id: span count, inclusive and self seconds."""
        rows, duration = self._columns()
        span, name, parent = rows[:, 0], rows[:, 1], rows[:, 2]
        nested = parent >= 0
        # span ids are 1..len(rows), so child time is indexed by span id
        child_time = np.bincount(parent[nested], weights=duration[nested],
                                 minlength=len(rows) + 1)
        n = len(self.names)
        return {"calls": np.bincount(name, minlength=n),
                "s": np.bincount(name, weights=duration, minlength=n),
                "self_s": np.bincount(name, weights=duration - child_time[span],
                                      minlength=n)}

    def parent_calls(self, parent: str, child: str) -> int:
        """Number of `child` spans whose direct parent is a `parent` span."""
        rows, _ = self._columns()
        parents = rows[rows[:, 1] == self._ids.get(parent, -2), 0]
        return int(np.isin(rows[rows[:, 1] == self._ids.get(child, -2), 2],
                           parents).sum())

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the traced functions and rebind every reference to them."""
        wrapped = {}                           # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"evofam.{layer}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                name = ALIASES.get(name, name)
                wrapped[id(fn)] = self._wrap(fn, name)
        for layer, cls_name, method, name in METHODS:
            cls = getattr(importlib.import_module(f"evofam.{layer}"), cls_name)
            self._set(cls, method, self._wrap(cls.__dict__[method], name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "evofam" and not mod_name.startswith("evofam."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._set(module, attr, wrapped[id(value)])
        self.check_installed(wrapped)

    def check_installed(self, wrapped: dict) -> None:
        """Fail if an evofam module still binds an original traced function
        (`wrapped` maps the id of each original to its wrapper)."""
        cli = importlib.import_module("evofam.cli")
        for attr in CLI_IMPORTS:
            if not getattr(getattr(cli, attr), "__wrapped_by_perfbench__", False):
                raise TracerError(f"evofam.cli.{attr} is not traced")
        for mod_name, module in sys.modules.items():
            if mod_name == "evofam" or mod_name.startswith("evofam."):
                for attr, value in vars(module).items():
                    if id(value) in wrapped:
                        raise TracerError(f"{mod_name}.{attr} is not traced")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self, ops: int, workload: str) -> dict[str, float]:
        """Per-op values of LAYER_METRICS; raises TracerError when a metric
        mapped to `workload` recorded nothing."""
        ids = self._ids
        table = self.aggregates()
        out = {}
        for name, _, workloads in LAYER_METRICS:
            if name == PER_STEP:
                steps = self.counters.get("perturbation.solve_perturbed.steps", 0)
                value = self.parent_calls("perturbation.solve_perturbed",
                                          "perturbation.b_apply")
                value = value / steps if steps else 0.0
            elif name in COUNTER_NAMES:
                value = self.counters.get(name, 0) / ops
            else:
                span, stat = name.rsplit(".", 1)
                value = float(table[stat][ids[span]]) / ops if span in ids else 0.0
            if workload in workloads and value == 0:
                raise TracerError(f"{name} recorded nothing on workload {workload}")
            out[name] = value
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as .npz columns span, name, parent, op (ints; name indexes
        `names`, parent -1 is the root) and start, end (perf_counter s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows, _ = self._columns()
        times = np.frombuffer(self.span_times, dtype=np.float64).reshape(-1, 2)
        np.savez(path, names=np.array(self.names), span=rows[:, 0],
                 name=rows[:, 1], parent=rows[:, 2], op=rows[:, 3],
                 start=times[:, 0], end=times[:, 1])
