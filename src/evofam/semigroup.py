"""Frozen-time (autonomous) layer: semigroups, resolvents, Favard norms.

Freezing the symbol at time s gives the generator with multiplier
-a(s, xi); its semigroup is the multiplier e^{-tau a(s, .)} and the
resolvent at lambda is 1/(lambda + a(s, .)).  Everything here is exact
modulo the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, NumericError
from .spectral import (GridFunction, NormSpec, _frequency_weight, apply_multiplier,
                       extrapolated_norm, norm)
from .symbols import SymbolSpec

SINGULAR_TOL = 1e-14    # |lambda + a| below which the resolvent is singular


@dataclass(frozen=True)
class FrozenOperator:
    """The generator at a fixed time: multiplier -a(s, .)."""

    spec: SymbolSpec
    time: float

    def __post_init__(self):
        if not 0.0 <= self.time <= self.spec.horizon:
            raise DomainError(f"frozen time {self.time} outside [0, {self.spec.horizon}]")

    def symbol_on(self, grid) -> np.ndarray:
        return np.broadcast_to(self.spec.on_axes(self.time, grid.xi_axes()),
                               grid.shape)

    def apply(self, f: GridFunction) -> GridFunction:
        """A(s) f, the multiplier -a(s, .)."""
        return apply_multiplier(lambda xi: -self.spec.on_axes(self.time, xi), f)

    def gauge(self) -> NormSpec:
        """This operator's own extrapolation norm || a(s,.)^{-1} f ||_L2."""
        return extrapolated_norm(self.spec, self.time)


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


def gauss_legendre_panels(a: float, b: float, panels: int, nodes: int = 12):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    if panels < 1 or nodes < 1:
        raise ConfigurationError("need panels >= 1 and nodes >= 1")
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    all_nodes = (mids[:, None] + half[:, None] * x[None, :]).reshape(-1)
    all_weights = (half[:, None] * w[None, :]).reshape(-1)
    return all_nodes, all_weights


def laplace_transform_check(op: FrozenOperator, lam: complex, f: GridFunction,
                            horizon: float, panels: int) -> float:
    """L2 residual of the truncated Laplace transform against the resolvent.

    Integrates e^{-lambda tau} T(tau) f over [0, horizon] with composite
    Gauss-Legendre quadrature (`panels` panels of 12 nodes) and returns the
    L2 distance to R(lambda, A(s)) f.  The contract bounds the residual by
    the tail e^{-(Re lambda + omega) H} ||f|| / (Re lambda + omega) plus
    quadrature tolerance; see laplace_tail_bound.
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


def generator_difference_quotient(op: FrozenOperator, f: GridFunction,
                                  h: float) -> float:
    """|| (T(h) f - f)/h - A(s) f ||_L2, the generator defect at step h.

    O(h) with constant at most ||A(s)^2 f|| / 2 for band-limited f.
    """
    a = op.symbol_on(f.grid)
    fhat = f.to_frequency().values
    defect = (np.exp(-h * a) - 1.0) / h + a
    g = GridFunction(f.grid, "frequency", defect * fhat)
    return norm(g)


@dataclass(frozen=True)
class FavardEstimate:
    """Max difference quotient over a geometric t-grid."""

    value: float
    space: str                  # "F1" (quotient in X) | "F0" (quotient in X_{-1})
    samples: int
    argmax_t: float


def _stable_expm1_abs(z_real: np.ndarray, z_imag: np.ndarray) -> np.ndarray:
    """|e^z - 1| without cancellation: sqrt(expm1(x)^2 + 4 e^x sin^2(y/2))."""
    em = np.expm1(z_real)
    return np.sqrt(em**2 + 4.0 * np.exp(z_real) * np.sin(0.5 * z_imag) ** 2)


def favard_norm(op: FrozenOperator, f: GridFunction, space: str = "F1",
                t_samples: np.ndarray | None = None) -> FavardEstimate:
    """sup over sampled t of (1/t) || T(t) f - f ||, in L2 (F1) or X_{-1} (F0).

    The default geometric grid runs from 1 down to 2^-40 with ratio 2.  For
    multiplier semigroups with Re a >= omega > 0 the supremum is the t -> 0
    limit, which equals ||A(s) f|| for F1 and ||f|| for F0 (the F0 quotient
    is taken in the operator's own extrapolation gauge).
    """
    if space not in ("F1", "F0"):
        raise ConfigurationError(f"space must be 'F1' or 'F0', got {space!r}")
    if t_samples is None:
        t_samples = 2.0 ** (-np.arange(41, dtype=float))
    t_samples = np.asarray(t_samples, dtype=float)
    if t_samples.size == 0:
        raise ConfigurationError("empty Favard sample set")
    if np.any(t_samples <= 0):
        raise ConfigurationError("Favard samples must be positive")

    a = op.symbol_on(f.grid)
    fhat = np.abs(f.to_frequency().values)
    if space == "F0":
        fhat = fhat * _frequency_weight(op.gauge(), f.grid)

    w = f.grid.cell_volume
    best, best_t = 0.0, float(t_samples[0])
    for t in t_samples:
        amps = _stable_expm1_abs(-t * a.real, -t * a.imag)
        value = float(np.sqrt(np.sum((amps * fhat) ** 2) * w)) / t
        if value > best:
            best, best_t = value, float(t)
    return FavardEstimate(value=best, space=space, samples=int(t_samples.size),
                          argmax_t=best_t)
