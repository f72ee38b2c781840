"""Time-dependent polynomial symbols a(t, xi) with closed-form coefficients.

A symbol is a(t, xi) = sum over multi-indices |alpha| <= m of
a_alpha(t) * (i xi)^alpha.  Coefficient functions are restricted to a
family (constant + polynomial + trigonometric, plus optional step terms
for degenerate configurations) that has closed-form antiderivatives and
Lipschitz bounds; the exact propagator and all certification routines
rely on those closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, DomainError
from .spectral import Grid, memo, row_blocks


@dataclass(frozen=True)
class CoefficientFunction:
    """Closed-form scalar coefficient c(t) on [0, T].

    c(t) = const + sum_k poly[k][1] * t^poly[k][0]
                 + sum_j (cos_coef_j * cos(w_j t) + sin_coef_j * sin(w_j t))
                 + sum_j jump_j * 1[t >= t0_j]

    ``poly`` entries are (degree >= 1, complex coefficient); ``trig``
    entries are (angular frequency > 0, cos coefficient, sin coefficient);
    ``steps`` entries are (jump time, complex jump).  Step terms exist only
    to build deliberately non-Lipschitz configurations.
    """

    const: complex = 0.0
    poly: tuple[tuple[int, complex], ...] = ()
    trig: tuple[tuple[float, complex, complex], ...] = ()
    steps: tuple[tuple[float, complex], ...] = ()

    def __post_init__(self):
        for degree, _ in self.poly:
            if degree < 1:
                raise ConfigurationError(f"polynomial degree must be >= 1, got {degree}")
        for omega, _, _ in self.trig:
            if omega <= 0:
                raise ConfigurationError(f"trig frequency must be > 0, got {omega}")

    def __call__(self, t):
        t = np.asarray(t)
        value = np.full(t.shape, complex(self.const), dtype=complex)
        for degree, coef in self.poly:
            value = value + coef * t**degree
        for omega, ccos, csin in self.trig:
            value = value + ccos * np.cos(omega * t) + csin * np.sin(omega * t)
        for t0, jump in self.steps:
            value = value + jump * (t >= t0)
        return value[()] if value.ndim == 0 else value

    def antiderivative(self, t):
        """Antiderivative C(t) with C(0) = 0, exact for every term.

        Each term is a complex coefficient times a real function of t, so
        an element of an array call equals the scalar call bit for bit.
        """
        t = np.asarray(t)
        value = np.asarray(complex(self.const) * t, dtype=complex)
        for degree, coef in self.poly:
            value = value + coef * (t ** (degree + 1) / (degree + 1))
        for omega, ccos, csin in self.trig:
            value = value + ccos * (np.sin(omega * t) / omega)
            value = value + csin * ((1.0 - np.cos(omega * t)) / omega)
        for t0, jump in self.steps:
            value = value + jump * np.maximum(t - t0, 0.0)
        return value[()] if value.ndim == 0 else value

    def derivative(self, t):
        """Rate c'(t), exact for every term.  A step term that jumps at
        t0 > 0 is a Dirac mass there: +inf at t = t0, 0 elsewhere (a jump
        at t0 <= 0 is constant on t >= 0)."""
        t = np.asarray(t)
        value = np.zeros(t.shape, dtype=complex)
        for degree, coef in self.poly:
            value = value + coef * (degree * t ** (degree - 1))
        for omega, ccos, csin in self.trig:
            value = value + ccos * (-omega * np.sin(omega * t))
            value = value + csin * (omega * np.cos(omega * t))
        for t0, jump in self.steps:
            if jump != 0 and t0 > 0:
                value = value + np.where(t == t0, np.inf, 0.0)
        return value[()] if value.ndim == 0 else value

    def lipschitz_bound(self, horizon: float) -> float:
        """Closed-form upper bound for the Lipschitz constant on [0, horizon].

        Term-by-term sup of |c'|: sum_k k |coef_k| T^(k-1) plus
        sum_j w_j (|cos coef| + |sin coef|).  Infinite if a step term jumps.
        """
        bound = 0.0
        for degree, coef in self.poly:
            bound += degree * abs(coef) * horizon ** (degree - 1)
        for omega, ccos, csin in self.trig:
            bound += omega * (abs(ccos) + abs(csin))
        if any(jump != 0 for _, jump in self.steps):
            return float("inf")
        return bound

    @property
    def is_constant(self) -> bool:
        return not self.poly and not self.trig and not self.steps


def constant(value) -> CoefficientFunction:
    return CoefficientFunction(const=complex(value))


@dataclass(frozen=True)
class SymbolSpec:
    """A symbol a(t, xi) = sum_{|alpha| <= m} a_alpha(t) (i xi)^alpha.

    ``coefficients`` maps multi-indices (length-d tuples of nonneg ints)
    to coefficient functions.  At least one entry of full order m must be
    present.
    """

    dim: int
    order: int
    horizon: float
    coefficients: dict[tuple[int, ...], CoefficientFunction] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1 or self.order < 1 or self.horizon <= 0:
            raise ConfigurationError("need dim >= 1, order >= 1, horizon > 0")
        for alpha in self.coefficients:
            if len(alpha) != self.dim or any(a < 0 for a in alpha):
                raise ConfigurationError(f"bad multi-index {alpha} for dim {self.dim}")
            if sum(alpha) > self.order:
                raise ConfigurationError(f"|{alpha}| exceeds order {self.order}")
        if not any(sum(alpha) == self.order for alpha in self.coefficients):
            raise ConfigurationError("no multi-index of full order present")

    def check_time(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > self.horizon):
            raise DomainError(f"time {t} outside [0, {self.horizon}]")
        return t

    def monomials(self, xi_axes: tuple[np.ndarray, ...]) -> dict[tuple[int, ...], np.ndarray]:
        """(i xi)^alpha on broadcastable frequency axes, one array per alpha;
        built once per axes tuple and shared read-only."""
        def build():
            out = {}
            for alpha in self.coefficients:
                mono = np.asarray(1.0 + 0.0j)
                for j, a_j in enumerate(alpha):
                    if a_j:
                        mono = mono * (1j * xi_axes[j]) ** a_j
                out[alpha] = mono
            return out
        return memo(self, "monomials", build, xi_axes)

    def combine(self, values: dict, xi_axes: tuple[np.ndarray, ...],
                out: np.ndarray | None = None) -> np.ndarray:
        """sum_alpha values[alpha] (i xi)^alpha, values of one leading shape L
        padded to L + the axes' broadcast shape, added to 0 (or into `out`) in
        coefficient order: the one place coefficients meet monomials."""
        monos = self.monomials(xi_axes)
        shape = np.broadcast_shapes(*(ax.shape for ax in xi_axes))
        if out is None:
            out = np.zeros(np.shape(next(iter(values.values()))) + shape, dtype=complex)
        pad = (...,) + (None,) * len(shape)
        for alpha in self.coefficients:
            out += np.asarray(values[alpha])[pad] * monos[alpha]
        return out

    def on_axes(self, t, xi_axes: tuple[np.ndarray, ...]) -> np.ndarray:
        """a(t, .) on broadcastable frequency axes at one time t: row 0 of
        `time_matrix` at [t]."""
        return self.time_matrix([t], xi_axes)[0]

    def integral_on_axes(self, s, t, xi_axes: tuple[np.ndarray, ...]) -> np.ndarray:
        """Closed-form integral of a(tau, .) over tau in [s, t] on axes, from the
        increments C_alpha(t) - C_alpha(s).  `s` and `t` are scalars or equal-shape
        arrays of interval ends; a row of the result, shape np.shape(s) + the
        axes' broadcast shape, equals the scalar call on its interval bit for bit."""
        s, t = self.check_time(s), self.check_time(t)
        return self.combine({alpha: coef.antiderivative(t) - coef.antiderivative(s)
                             for alpha, coef in self.coefficients.items()}, xi_axes)

    def time_matrix(self, ts: np.ndarray, xi_axes: tuple[np.ndarray, ...],
                    derivative: bool = False) -> np.ndarray:
        """a(t_i, xi) for a vector of times, or with `derivative` the rate
        d/dt a(t_i, xi) from the coefficients' `derivative`, shape (len(ts),
        *the axes' broadcast shape), combined into it a `row_blocks` block of
        rows at a time."""
        ts = self.check_time(ts)
        shape = np.broadcast_shapes(*(ax.shape for ax in xi_axes))
        out = np.zeros((len(ts),) + shape, dtype=complex)
        for rows in row_blocks(len(ts), math.prod(shape)):
            self.combine({alpha: (coef.derivative if derivative else coef)(ts[rows])
                          for alpha, coef in self.coefficients.items()}, xi_axes, out[rows])
        return out


SPHERE_SAMPLES = 64     # unit-sphere directions for d >= 2 (d = 1 uses +-1)


@dataclass(frozen=True)
class EllipticityReport:
    """Measured strong-ellipticity constants; `cli` requires c - margin > 0
    and omega > 0."""

    constant: float            # c: min of Re a_m over times x unit sphere
    lower_bound: float         # omega: min of Re a over times x grid bins
    witness_constant: tuple    # (t, xi) achieving c
    witness_lower: tuple       # (t, xi) achieving omega
    time_samples: int
    margin: float              # max possible dip of Re a_m off the t-samples


def certify_ellipticity(spec: SymbolSpec, time_samples: int,
                        grid: Grid) -> EllipticityReport:
    """Measure c with Re a_m(t, xi) >= c |xi|^m and omega with Re a >= omega.

    c is minimized over `time_samples` uniform times and the unit-sphere
    samples (homogeneity makes the sphere sufficient); omega over the same
    times and the grid's own bins, on its memoised axes (xi = 0 among them),
    so the symbol's monomials there are the ones every certifier shares.
    """
    if time_samples < 1:
        raise ConfigurationError("need at least one time sample")
    ts = np.linspace(0.0, spec.horizon, time_samples)
    sphere = np.array([[1.0], [-1.0]])
    if spec.dim > 1:
        sphere = np.random.default_rng(180).standard_normal((SPHERE_SAMPLES, spec.dim))
        sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)

    leading = {alpha: c for alpha, c in spec.coefficients.items() if sum(alpha) == spec.order}
    table = replace(spec, coefficients=leading).time_matrix(ts, tuple(sphere.T))
    idx = np.unravel_index(np.argmin(table.real), table.shape)
    c_meas = float(table.real[idx])
    wit_c = (float(ts[idx[0]]), sphere[idx[1]].tolist())

    full = spec.time_matrix(ts, grid.xi_axes()).reshape(time_samples, -1)
    jdx = np.unravel_index(np.argmin(full.real), full.shape)
    omega_meas = float(full.real[jdx])
    wit_o = (float(ts[jdx[0]]), grid.xi_rows()[jdx[1]].tolist())

    # Re a_m moves at most lip_m per unit time between the jumps of its step
    # terms: half a gap from the nearer of two samples, a whole gap from the
    # one sample beside a jump (or the only sample), and without bound on a
    # piece with no sample
    lip_m = sum(replace(c, steps=()).lipschitz_bound(spec.horizon) for c in leading.values())
    jumps = sorted({t0 for c in leading.values() for t0, jump in c.steps
                    if jump != 0 and 0.0 < t0 <= spec.horizon})
    dt = spec.horizon / max(time_samples - 1, 1)
    if not jumps and time_samples > 1:
        margin = 0.5 * dt * lip_m
    elif np.all(np.diff(np.searchsorted(ts, jumps + [np.inf])) > 0):
        margin = dt * lip_m
    else:
        margin = float("inf")

    return EllipticityReport(constant=c_meas, lower_bound=omega_meas,
                             witness_constant=wit_c, witness_lower=wit_o,
                             time_samples=time_samples, margin=margin)
