"""Upwind finite-volume solver for the half-line conservation law

    d/dt f = -d/dx ( g(t,x) f ) - mu(t,x) f,     f(t, 0) = 0,

the first-order transport system on L1(R>=0) with positive velocity g
bounded away from zero and decay mu >= mu_min > 0.  The half-line is
truncated at x_max with free outflow; coefficients are frozen per step
at the step midpoint in time.  `transport_solve` is the one upwind march;
the family check reads the pipeline's r -> t run and marches nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DomainError, UnsupportedError
from .symbols import CoefficientFunction

FIELD_SAMPLES = 64      # per-axis (t, x) samples of the coefficient range checks


@dataclass(frozen=True)
class TimeSpaceCoefficient:
    """Separable field c(t) * (w0 + w1 * x/(1+x)), positive and W^{1,inf}.

    The spatial part is bounded with bounded slope on the half-line; the
    time part reuses the closed-form coefficient family.
    """

    time_part: CoefficientFunction
    w0: float = 1.0
    w1: float = 0.0

    def __call__(self, t, x):
        c = np.real(np.asarray(self.time_part(t)))
        return c * (self.w0 + self.w1 * x / (1.0 + x))

    @property
    def is_constant(self) -> bool:
        return self.time_part.is_constant and self.w1 == 0.0

    def constant_value(self) -> float:
        if not self.is_constant:
            raise UnsupportedError("coefficient is not constant")
        return float(np.real(self.time_part(0.0))) * self.w0


@dataclass(frozen=True)
class TransportProblem:
    horizon: float
    x_max: float
    cells: int
    velocity: TimeSpaceCoefficient
    decay: TimeSpaceCoefficient

    def __post_init__(self):
        if self.horizon <= 0 or self.x_max <= 0 or self.cells < 2:
            raise ConfigurationError("need horizon > 0, x_max > 0, cells >= 2")
        g_min, g_max = self.velocity_range()
        if g_min <= 0:
            raise ConfigurationError(f"velocity must stay positive (min {g_min})")
        # mu >= 0 allowed at construction: mu = 0 (pure advection) is a
        # degenerate config permitted for testing; the certified class needs
        # mu_min > 0, which the decay check's bound e^{-mu_min (t - r)} reads.
        if self.decay_min() < 0:
            raise ConfigurationError("decay must be nonnegative")

    @property
    def h(self) -> float:
        return self.x_max / self.cells

    def centers(self) -> np.ndarray:
        return (np.arange(self.cells) + 0.5) * self.h

    def faces(self) -> np.ndarray:
        return np.arange(self.cells + 1) * self.h

    def velocity_range(self) -> tuple[float, float]:
        ts = np.linspace(0.0, self.horizon, FIELD_SAMPLES)
        xs = np.linspace(0.0, self.x_max, FIELD_SAMPLES)
        vals = self.velocity(ts[:, None], xs[None, :])
        return float(np.min(vals)), float(np.max(vals))

    def decay_min(self) -> float:
        ts = np.linspace(0.0, self.horizon, FIELD_SAMPLES)
        xs = np.linspace(0.0, self.x_max, FIELD_SAMPLES)
        return float(np.min(self.decay(ts[:, None], xs[None, :])))

    def cfl_step(self, safety: float = 0.9) -> float:
        return safety * self.h / self.velocity_range()[1]


@dataclass
class TransportState:
    """Cell averages plus the mass that left through the right boundary."""

    problem: TransportProblem
    values: np.ndarray
    time: float
    outflow: float = 0.0
    history: list | None = None        # (time, mass, l1 norm) per step if recorded

    def mass(self) -> float:
        return float(np.sum(self.values) * self.problem.h)

    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.values)) * self.problem.h)


def sample_initial(problem: TransportProblem, fn) -> np.ndarray:
    return np.asarray(fn(problem.centers()), dtype=float)


def transport_solve(problem: TransportProblem, s: float, t: float,
                    f0: np.ndarray, steps: int | None = None,
                    cfl_safety: float = 0.9,
                    record_history: bool = False) -> TransportState:
    """March f0 from time s to t with the conservative upwind update

        f_i <- f_i - (dt/h)(g_{i+1/2} f_i - g_{i-1/2} f_{i-1}) - dt mu_i f_i

    Coefficients are frozen at the step midpoint.  If `steps` is given it
    must satisfy the CFL bound dt <= cfl_safety * h / sup g; there is no
    silent sub-stepping.  The flux form telescopes, so each step's mass
    changes by the decay sink and the last face's outflux alone.
    """
    if not 0.0 <= s <= t <= problem.horizon:
        raise DomainError(f"need 0 <= s <= t <= {problem.horizon}")
    f = np.asarray(f0, dtype=float).copy()
    if f.shape != (problem.cells,):
        raise ConfigurationError(f"initial data must have {problem.cells} cells")
    if t == s:
        return TransportState(problem, f, t, history=[] if record_history else None)

    dt_max = problem.cfl_step(cfl_safety)
    if steps is None:
        steps = int(np.ceil((t - s) / dt_max))
    dt = (t - s) / steps
    if dt > dt_max * (1.0 + 1e-12):
        raise ConfigurationError(
            f"CFL violated: dt={dt:.3e} exceeds {dt_max:.3e}; no silent sub-stepping")

    h = problem.h
    outflow = 0.0
    history = [] if record_history else None
    faces, centers = problem.faces(), problem.centers()
    for k in range(steps):
        t_mid = s + (k + 0.5) * dt
        g_face = problem.velocity(t_mid, faces)
        mu = problem.decay(t_mid, centers)
        upwind = np.concatenate([[0.0], f[:-1]])        # inflow value 0 at x=0
        flux_out = g_face[1:] * f
        flux_in = g_face[:-1] * upwind
        f = f - (dt / h) * (flux_out - flux_in) - dt * mu * f
        outflow += dt * flux_out[-1]                    # mass leaving this step
        if history is not None:
            history.append((s + (k + 1) * dt, float(np.sum(f) * h),
                            float(np.sum(np.abs(f)) * h)))
    return TransportState(problem, f, t, outflow=outflow, history=history)


def characteristics_oracle(problem: TransportProblem, s: float, t: float,
                           f0_fn) -> np.ndarray:
    """Exact solution for constant g, mu:
    f(t,x) = e^{-mu (t-s)} f0(x - g (t-s)) for x >= g (t-s), else 0."""
    if not (problem.velocity.is_constant and problem.decay.is_constant):
        raise UnsupportedError("characteristics oracle needs constant coefficients")
    g = problem.velocity.constant_value()
    mu = problem.decay.constant_value()
    shift = g * (t - s)
    x = problem.centers()
    vals = np.where(x >= shift, f0_fn(x - shift), 0.0)
    return np.exp(-mu * (t - s)) * vals


@dataclass(frozen=True)
class TransportFamilyReport:
    decay_ratio: float            # ||U(t,r)f0||_1 / ||f0||_1
    decay_bound: float            # e^{-mu_min (t-r)}


def transport_family_checks(problem: TransportProblem, r: float,
                            one: TransportState, f0: np.ndarray) -> TransportFamilyReport:
    """L1 decay ratio of the r -> t run `one` that `transport_solve` marched
    from f0, and its bound e^{-mu_min (t - r)}; nothing is marched here.

    The bound holds only while dt mu stays small enough for the upwind
    weights to remain nonnegative, so the `decay` verdict that
    `cli.run_transport` takes from the two can fail.
    """
    ratio = one.l1_norm() / max(float(np.sum(np.abs(f0)) * problem.h), 1e-300)
    bound = float(np.exp(-problem.decay_min() * (one.time - r)))
    return TransportFamilyReport(decay_ratio=ratio, decay_bound=bound)


def convergence_study(problem: TransportProblem, s: float, t: float, f0_fn,
                      cell_counts, marched: TransportState):
    """L1 errors against the characteristics oracle over grid refinements.

    Each level is `problem` with its cell count replaced; dt/h is held
    fixed across refinements.  `marched`, the s -> t run that
    `transport_solve` marched on its default CFL ladder from f0_fn's
    samples, stands in for the level whose problem it solved, so that
    level is not marched twice.
    """
    errors = []
    for cells in cell_counts:
        level = replace(problem, cells=int(cells))
        if marched.problem == level:
            state = marched
        else:
            state = transport_solve(level, s, t, sample_initial(level, f0_fn))
        exact = characteristics_oracle(level, s, t, f0_fn)
        errors.append(float(np.sum(np.abs(state.values - exact)) * level.h))
    return errors
