"""Frozen-time (autonomous) layer: the frozen generator, composite
Gauss-Legendre panels and Favard norms.

Freezing the symbol at time s gives the generator with multiplier
-a(s, xi); its semigroup is the multiplier e^{-tau a(s, .)}.  Everything
here is exact modulo the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .spectral import GridFunction, NormSpec, apply_multiplier, plancherel_norm
from .symbols import SymbolSpec

FAVARD_SAMPLES = 2.0 ** (-np.arange(41, dtype=float))   # t = 1 down to 2^-40, ratio 2


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
        return NormSpec(self.spec, self.time)


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


def favard_norm(op: FrozenOperator, f: GridFunction, space: str = "F1") -> FavardEstimate:
    """sup over FAVARD_SAMPLES of (1/t) || T(t) f - f ||, in L2 (F1) or X_{-1} (F0).

    For multiplier semigroups with Re a >= omega > 0 the supremum is the
    t -> 0 limit, which equals ||A(s) f|| for F1 and ||f|| for F0 (the F0
    quotient is taken in the operator's own extrapolation gauge).
    """
    if space not in ("F1", "F0"):
        raise ConfigurationError(f"space must be 'F1' or 'F0', got {space!r}")
    a = op.symbol_on(f.grid)
    fhat = np.abs(f.values)
    if space == "F0":
        fhat = fhat * op.gauge().weight(f.grid)

    best, best_t = 0.0, float(FAVARD_SAMPLES[0])
    for t in FAVARD_SAMPLES:
        amps = _stable_expm1_abs(-t * a.real, -t * a.imag)
        value = plancherel_norm(amps * fhat, f.grid.cell_volume) / t
        if value > best:
            best, best_t = value, float(t)
    return FavardEstimate(value=best, space=space, samples=FAVARD_SAMPLES.size,
                          argmax_t=best_t)
