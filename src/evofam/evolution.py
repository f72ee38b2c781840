"""Evolution families U(t,s) for time-dependent multiplier generators.

The exact engine applies exp(-integral of a(tau, .) over [s, t]) using
closed-form antiderivatives of the coefficient family; Gauss-Legendre
quadrature of the same integral is kept as a construction-time
cross-check.  The product engine composes frozen-time semigroup factors
on a uniform ladder (left-endpoint or midpoint rule) and converges to
the exact engine at first resp. second order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .semigroup import gauss_legendre_panels
from .spectral import Grid, GridFunction, norm
from .symbols import SymbolSpec

EXACT = "exact"
PRODUCT = "product"


def _quadrature_integral(spec: SymbolSpec, s: float, t: float, xi_axes,
                         nodes: int, panel_width: float) -> np.ndarray:
    """Gauss-Legendre integral of a(tau, .) over [s, t], panels split at
    coefficient breakpoints so step terms stay exactly integrable."""
    edges = sorted({s, t, *(b for b in spec.breakpoints() if s < b < t)})
    total = np.asarray(0.0 + 0.0j)
    for lo, hi in zip(edges[:-1], edges[1:]):
        panels = max(1, int(np.ceil((hi - lo) / panel_width)))
        for tau, w in zip(*gauss_legendre_panels(lo, hi, panels, nodes)):
            total = total + w * spec.on_axes(tau, xi_axes)
    return total


@dataclass(frozen=True)
class PropagatorEngine:
    """Produces the action of U(t,s) on grid functions.

    method "exact": multiplier exp(-closed-form integral); gl_nodes and
    panel_width parameterize the quadrature cross-check run at
    construction (tolerance 1e-12).  method "product": `steps` frozen
    factors per call with `rule` in {"left", "midpoint"}.
    """

    spec: SymbolSpec
    grid: Grid
    method: str = EXACT
    gl_nodes: int = 12
    panel_width: float = 0.25
    steps: int = 64
    rule: str = "left"

    def __post_init__(self):
        if self.method not in (EXACT, PRODUCT):
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.method == PRODUCT and self.rule not in ("left", "midpoint"):
            raise ConfigurationError(f"unknown product rule {self.rule!r}")
        if self.method == PRODUCT and self.steps < 1:
            raise ConfigurationError("product formula needs steps >= 1")
        if self.method == EXACT:
            self._verify_antiderivative()

    def _verify_antiderivative(self):
        """Closed-form integral must match quadrature to 1e-12 at probe points."""
        T = self.spec.horizon
        probes = [(0.0, T), (0.11 * T, 0.63 * T), (0.5 * T, 0.9 * T)]
        xi = tuple(np.array([v]) for v in ([1.0] + [0.0] * (self.spec.dim - 1)))
        for s, t in probes:
            closed = self.spec.integral_on_axes(s, t, xi)
            quad = _quadrature_integral(self.spec, s, t, xi, self.gl_nodes,
                                        self.panel_width)
            scale = max(1.0, float(np.max(np.abs(closed))))
            if float(np.max(np.abs(closed - quad))) > 1e-12 * scale:
                raise ConfigurationError(
                    f"antiderivative disagrees with quadrature on [{s}, {t}]")

    def _check_interval(self, s: float, t: float):
        if not 0.0 <= s <= t <= self.spec.horizon:
            raise DomainError(
                f"need 0 <= s <= t <= {self.spec.horizon}, got s={s}, t={t}")

    def exponent(self, s: float, t: float) -> np.ndarray:
        """Integral of a(tau, .) over [s, t] on the engine's grid."""
        self._check_interval(s, t)
        axes = self.grid.xi_axes()
        if self.method == EXACT:
            return np.broadcast_to(self.spec.integral_on_axes(s, t, axes),
                                   self.grid.shape).copy()
        dt = (t - s) / self.steps
        total = np.zeros(self.grid.shape, dtype=complex)
        for j in range(self.steps):
            tau = s + j * dt if self.rule == "left" else s + (j + 0.5) * dt
            total += dt * np.broadcast_to(self.spec.on_axes(tau, axes),
                                          self.grid.shape)
        return total

    def multiplier(self, s: float, t: float) -> np.ndarray:
        return np.exp(-self.exponent(s, t))

    def propagate(self, s: float, t: float, f: GridFunction) -> GridFunction:
        """U(t,s) f; the identity when t == s."""
        self._check_interval(s, t)
        fhat = f.to_frequency()
        if t == s:
            return fhat
        return GridFunction(self.grid, "frequency",
                            fhat.values * self.multiplier(s, t))

    def operator_norm(self, s: float, t: float) -> float:
        """||U(t,s)|| on L2 = max over bins of |multiplier|."""
        self._check_interval(s, t)
        return float(np.max(np.exp(-self.exponent(s, t).real)))


def cocycle_defect(engine: PropagatorEngine, r: float, s: float, t: float,
                   f: GridFunction) -> float:
    """|| U(t,s) U(s,r) f  -  U(t,r) f || / ||f||.

    At most ~1e-10 for the exact engine (exponent additivity); O(dt) for
    product engines.
    """
    if not r <= s <= t:
        raise DomainError(f"need r <= s <= t, got {r}, {s}, {t}")
    nf = norm(f)
    if nf == 0.0:
        return 0.0
    two_leg = engine.propagate(s, t, engine.propagate(r, s, f))
    one_leg = engine.propagate(r, t, f)
    diff = GridFunction(f.grid, "frequency", two_leg.values - one_leg.values)
    return norm(diff) / nf


def default_derivative_step(s: float, t: float) -> float:
    return max(1e-4, 1e-3 * (t - s))


def derivative_defect(engine: PropagatorEngine, s: float, t: float,
                      f: GridFunction, h: float | None = None,
                      which: str = "dt") -> float:
    """Central-difference defect of the generator identities.

    which="dt": || (U(t+h,s)f - U(t-h,s)f)/(2h) + a(t,.) U(t,s) f ||
    which="ds": || (U(t,s+h)f - U(t,s-h)f)/(2h) - a(s,.) U(t,s) f ||
    Both are O(h^2) on band-limited vectors for the smooth family.
    """
    if which not in ("dt", "ds"):
        raise ConfigurationError(f"which must be 'dt' or 'ds', got {which!r}")
    if h is None:
        h = default_derivative_step(s, t)
    axes = engine.grid.xi_axes()
    base = engine.propagate(s, t, f)
    if which == "dt":
        if t - h < s or t + h > engine.spec.horizon:
            raise DomainError("dt stencil leaves the time triangle")
        plus = engine.propagate(s, t + h, f)
        minus = engine.propagate(s, t - h, f)
        gen = np.broadcast_to(engine.spec.on_axes(t, axes), engine.grid.shape)
        resid = (plus.values - minus.values) / (2.0 * h) + gen * base.values
    else:
        if s - h < 0 or s + h > t:
            raise DomainError("ds stencil leaves the time triangle")
        plus = engine.propagate(s + h, t, f)
        minus = engine.propagate(s - h, t, f)
        gen = np.broadcast_to(engine.spec.on_axes(s, axes), engine.grid.shape)
        resid = (plus.values - minus.values) / (2.0 * h) - gen * base.values
    return norm(GridFunction(engine.grid, "frequency", resid))


@dataclass(frozen=True)
class GrowthReport:
    m: float
    omega: float
    max_ratio: float       # max over samples of ||U(t,s)|| / (M e^{omega (t-s)})
    verdict: bool
    witness: tuple


def growth_bound(engine: PropagatorEngine, samples, m: float, omega: float,
                 slack: float = 1e-12) -> GrowthReport:
    """Check ||U(t,s)|| <= M e^{omega (t-s)} over (s,t) samples."""
    worst, witness = 0.0, (0.0, 0.0)
    for s, t in samples:
        measured = engine.operator_norm(s, t)
        bound = m * np.exp(omega * (t - s))
        ratio = measured / bound
        if ratio > worst:
            worst, witness = ratio, (float(s), float(t))
    return GrowthReport(m=m, omega=omega, max_ratio=worst,
                        verdict=bool(worst <= 1.0 + slack), witness=witness)


def observed_orders(errors, factors=None) -> list[float]:
    """Pairwise convergence orders log(e_i/e_{i+1}) / log(factor)."""
    errors = list(errors)
    if len(errors) < 2:
        raise ConfigurationError("need at least two errors to estimate an order")
    if factors is None:
        factors = [2.0] * (len(errors) - 1)
    orders = []
    for e0, e1, fac in zip(errors[:-1], errors[1:], factors):
        if e1 == 0.0:
            orders.append(float("inf"))
        else:
            orders.append(float(np.log(e0 / e1) / np.log(fac)))
    return orders


def product_formula_errors(spec: SymbolSpec, grid: Grid, s: float, t: float,
                           f: GridFunction, rule: str,
                           step_counts) -> list[float]:
    """L2 errors of the product engine against the exact engine."""
    exact = PropagatorEngine(spec, grid, method=EXACT)
    target = exact.propagate(s, t, f)
    errors = []
    for n in step_counts:
        eng = PropagatorEngine(spec, grid, method=PRODUCT, steps=int(n), rule=rule)
        approx = eng.propagate(s, t, f)
        diff = GridFunction(grid, "frequency", approx.values - target.values)
        errors.append(norm(diff))
    return errors
