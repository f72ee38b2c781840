"""Evolution families U(t,s) for time-dependent multiplier generators.

The engine applies exp(-integral of a(tau, .) over [s, t]) using the
closed-form antiderivatives of the coefficient family.  They are exact for
every term the family admits, so nothing is checked at construction, and
additive, so U(t,s) U(s,r) = U(t,r) holds up to roundoff.  The generator
identities d_t U(t,s) = -A(t) U(t,s) and d_s U(t,s) = U(t,s) A(s) are tested
in tests/reference.py; no pipeline runs them.  The frozen-coefficient product
formula prod_j exp(-dt A(tau_j)) (Pazy 1983, section 5.3) is measured against
it in `product_formula_errors`; its factors commute, so its exponent takes the
coefficient-space Riemann sums dt sum_j c_alpha(tau_j) in place of the
increments C_alpha(t) - C_alpha(s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .spectral import Grid, GridFunction, norm
from .symbols import SymbolSpec

RULE_OFFSETS = {"left": 0.0, "midpoint": 0.5}   # node offsets in steps


@dataclass(frozen=True)
class PropagatorEngine:
    """Produces the action of U(t,s) on grid functions: the multiplier
    exp(-closed-form integral), built from (spec, grid) alone."""

    spec: SymbolSpec
    grid: Grid

    def exponent(self, s, t) -> np.ndarray:
        """Integral of a(tau, .) over [s, t] on the engine's grid.

        `s` and `t` are scalars or equal-shape arrays of interval ends; the
        result has one row per interval, shape np.shape(s) + grid.shape,
        and every row must lie in the time triangle.  A row equals the
        scalar call on its own interval bit for bit.
        """
        if not np.all((0.0 <= s) & (s <= t) & (t <= self.spec.horizon)):
            raise DomainError(
                f"need 0 <= s <= t <= {self.spec.horizon}, got s={s}, t={t}")
        return self.spec.integral_on_axes(s, t, self.grid.xi_axes())

    def propagate(self, s: float, t: float, f: GridFunction) -> GridFunction:
        """U(t,s) f = exp(-exponent(s, t)) f, a fresh array; at t == s the
        exponent is 0, so U(s,s) = Id exactly."""
        decay = np.exp(-self.exponent(s, t))
        return GridFunction(self.grid, "frequency", f.to_frequency().values * decay)


def observed_orders(errors, levels) -> list[float]:
    """Pairwise convergence orders log(e_i/e_{i+1}) / log(n_{i+1}/n_i) of
    the errors e_i at the refinement levels n_i (step or cell counts, or
    reciprocal step sizes); inf where e_{i+1} is 0."""
    errors, levels = list(errors), list(levels)
    if len(errors) < 2 or len(levels) != len(errors):
        raise ConfigurationError("need at least two errors, one per level, "
                                 "to estimate an order")
    orders = []
    for e0, e1, n0, n1 in zip(errors[:-1], errors[1:], levels[:-1], levels[1:]):
        if e1 == 0.0:
            orders.append(float("inf"))
        else:
            orders.append(float(np.log(e0 / e1) / np.log(n1 / n0)))
    return orders


def product_formula_errors(spec: SymbolSpec, s: float, t: float,
                           f: GridFunction, target: GridFunction, rule: str,
                           step_counts) -> list[float]:
    """L2 errors against `target`, the exact U(t,s) f, of the product
    formula exp(-sum_j dt a(tau_j, .)) f at each step count, with nodes
    tau_j = s + j dt for `rule` "left" (first order) and s + (j + 1/2) dt
    for "midpoint" (second order).  Each coefficient is summed over the
    nodes, so no (nodes x bins) table is built; a node outside
    [0, horizon] raises DomainError."""
    if rule not in RULE_OFFSETS:
        raise ConfigurationError(f"unknown product rule {rule!r}")
    offset = RULE_OFFSETS[rule]
    axes = f.grid.xi_axes()
    fhat = f.to_frequency().values
    errors = []
    for n in step_counts:
        dt = (t - s) / n
        nodes = spec.check_time(s + (np.arange(n) + offset) * dt)
        total = spec.combine({alpha: dt * np.sum(coef(nodes))
                              for alpha, coef in spec.coefficients.items()}, axes)
        diff = GridFunction(f.grid, "frequency", fhat * np.exp(-total) - target.values)
        errors.append(norm(diff))
    return errors
