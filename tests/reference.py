"""Independent references for tests of the paper's invariants.

No pipeline runs this code, so it lives with the tests.  It is kept because
each piece backs an invariant the evolution-family theory rests on:

* `frozen_semigroup`: the semigroup law T(t) T(s) = T(t + s) of the frozen
  generator, and the autonomous case U(t, s) = T(t - s) of the propagator;
* `frozen_resolvent`: the resolvent identity
  R(lambda) - R(mu) = (mu - lambda) R(lambda) R(mu);
* `laplace_transform_check` and `laplace_tail_bound`: the resolvent as the
  Laplace transform of the semigroup (acceptance criterion 10);
* `heat_symbol`, `oscillating_symbol` and `drift_symbol`: the autonomous,
  time-dependent and non-elliptic symbols the fixtures are built from;
* `constant_field`: a constant transport coefficient, the case the
  characteristics oracle solves exactly.
"""

import numpy as np

from evofam.errors import DomainError, NumericError
from evofam.semigroup import FrozenOperator, gauss_legendre_panels
from evofam.spectral import GridFunction, apply_multiplier, norm
from evofam.symbols import CoefficientFunction, SymbolSpec, constant
from evofam.transport import TimeSpaceCoefficient

SINGULAR_TOL = 1e-14    # |lambda + a| below which the resolvent is singular


def frozen_semigroup(op: FrozenOperator, tau: float, f: GridFunction) -> GridFunction:
    """T(tau) f = e^{-tau a(s, .)} f for tau >= 0."""
    if tau < 0:
        raise DomainError(f"semigroup time must be nonnegative, got {tau}")
    return apply_multiplier(lambda xi: np.exp(-tau * op.spec.on_axes(op.time, xi)), f)


def frozen_resolvent(op: FrozenOperator, lam: complex, f: GridFunction) -> GridFunction:
    """R(lambda, A(s)) f = f / (lambda + a(s, .))."""
    a = op.symbol_on(f.grid)
    denom = lam + a
    bad = np.abs(denom) < SINGULAR_TOL
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NumericError(
            f"resolvent nearly singular at bin {idx} for lambda={lam}",
            witness={"bin": idx, "lambda": lam})
    fhat = f.to_frequency()
    return GridFunction(f.grid, "frequency", fhat.values / denom)


def laplace_transform_check(op: FrozenOperator, lam: complex, f: GridFunction,
                            horizon: float, panels: int) -> float:
    """L2 residual of the truncated Laplace transform against the resolvent.

    Integrates e^{-lambda tau} T(tau) f over [0, horizon] with composite
    Gauss-Legendre quadrature (`panels` panels of 12 nodes) and returns the
    L2 distance to R(lambda, A(s)) f.  The residual is bounded by the tail
    e^{-(Re lambda + omega) H} ||f|| / (Re lambda + omega) plus quadrature
    tolerance; see laplace_tail_bound.
    """
    if horizon <= 0:
        raise DomainError(f"truncation horizon must be positive, got {horizon}")
    a = op.symbol_on(f.grid)
    taus, weights = gauss_legendre_panels(0.0, horizon, panels)
    fhat = f.to_frequency().values
    acc = np.zeros(f.grid.shape, dtype=complex)
    for tau, w in zip(taus, weights):
        acc += w * np.exp(-(lam + a) * tau)
    integral = GridFunction(f.grid, "frequency", acc * fhat)
    target = frozen_resolvent(op, lam, f)
    diff = GridFunction(f.grid, "frequency", integral.values - target.values)
    return norm(diff)


def laplace_tail_bound(lam: complex, omega: float, horizon: float,
                       f_norm: float) -> float:
    """Truncation tail e^{-(Re lambda + omega) H} ||f|| / (Re lambda + omega)."""
    rate = lam.real + omega
    if rate <= 0:
        raise DomainError("need Re lambda > -omega for integrability")
    return float(np.exp(-rate * horizon) * f_norm / rate)


def heat_symbol(shift: float = 1.0, dim: int = 1, horizon: float = 1.0) -> SymbolSpec:
    """Autonomous a(xi) = |xi|^2 + shift, the generator Delta - shift."""
    coeffs = {}
    for j in range(dim):
        alpha = tuple(2 if k == j else 0 for k in range(dim))
        coeffs[alpha] = constant(-1.0)
    coeffs[(0,) * dim] = constant(shift)
    return SymbolSpec(dim=dim, order=2, horizon=horizon, coefficients=coeffs)


def oscillating_symbol(horizon: float = 2.0 * np.pi) -> SymbolSpec:
    """a(t, xi) = (2 + sin t) xi^2 + 1 in one dimension."""
    return SymbolSpec(
        dim=1, order=2, horizon=horizon,
        coefficients={
            (2,): CoefficientFunction(const=-2.0, trig=(((1.0, 0.0, -1.0)),)),
            (0,): constant(1.0),
        },
    )


def drift_symbol(horizon: float = 1.0) -> SymbolSpec:
    """Non-elliptic a(t, xi) = i xi (first-order drift, Re a_m = 0)."""
    return SymbolSpec(dim=1, order=1, horizon=horizon,
                      coefficients={(1,): constant(1.0)})


def constant_field(value: float) -> TimeSpaceCoefficient:
    """The transport coefficient c(t, x) = value."""
    return TimeSpaceCoefficient(constant(value))
