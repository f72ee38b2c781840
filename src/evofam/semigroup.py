"""Frozen-time (autonomous) layer: the frozen generator, composite
Gauss-Legendre panels and Favard norms.

Freezing the symbol at time s gives the generator A(s) with multiplier
-a(s, xi); its semigroup T(t) is the multiplier e^{-t a(s, .)}.  Everything
here is exact modulo the grid.  The Favard norms are closed forms: if
Re a(s, .) >= 0 on the support of f^, then |e^{-z} - 1| <= |z| for
Re z >= 0, with equality as z -> 0, makes sup_{t > 0} (1/t) ||T(t) f - f||
equal ||A(s) f|| (F1 = D(A)) and, in the X_{-1} gauge, ||f|| (F0 = X);
see Engel & Nagel, One-Parameter Semigroups, II.5.b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .spectral import GridFunction, NormSpec, norm
from .symbols import SymbolSpec


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
    """The Favard norms of f at a frozen time s and the hypothesis they rest
    on.  Theorem: if min_re_a >= 0, sup_{t > 0} (1/t) ||T(t) f - f|| = f1,
    and the same sup in the operator's own X_{-1} gauge is f0."""

    f1: float                   # ||A(s) f||, the F1 norm
    f0: float                   # ||A(s) f||_{-1} in op.gauge(): ||f|| to roundoff
    min_re_a: float             # min Re a(s, .) on the bins where f^ != 0 (inf if none)
    witness_xi: list | None     # the frequency where that minimum falls


def favard_norm(op: FrozenOperator, f: GridFunction) -> FavardEstimate:
    """The closed-form F1 and F0 norms of f at op's frozen time and min Re a
    on the support of f^.  Both norms go through `spectral.norm`: a
    non-finite A(s) f raises NumericError, and so does a symbol that
    vanishes on the grid, whose X_{-1} gauge is undefined."""
    a = op.symbol_on(f.grid)
    af = GridFunction(f.grid, a * f.values)
    support = np.flatnonzero(f.values)
    re_a = a.real.reshape(-1)[support]
    witness = f.grid.xi_rows()[support[np.argmin(re_a)]].tolist() if support.size else None
    return FavardEstimate(f1=norm(af), f0=norm(af, op.gauge()),
                          min_re_a=float(np.min(re_a, initial=np.inf)), witness_xi=witness)
