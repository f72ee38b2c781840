"""Perturbation families B(t) and the variation-of-constants solver.

Family protocol: every family has `apply(t, f)`, which returns B(t) f.
The diagonal families (Mollifier, MultiplierFamily) also have
`multiplier(t, xi_axes)`: the row at a time t, or one row per time of an
array t.  Only MultiplierFamily has the closed-form time `integral` and
hence the commuting oracle.  Three families:

* Mollifier: the moving box average, the multiplier prod_j sinc(t xi_j);
  B(0) = Id because sinc(0) = 1.  Continuous but not Lipschitz into L2;
  Lipschitz into X_{-1}, the extrapolation space of A(0).
* MultiplierFamily: c(t) times a fixed rational profile of |xi|^2.
  Commutes with every symbol, which yields a closed-form perturbed
  propagator used as the solver oracle.
* SmoothingComposite: order-m smoothing multiplier followed by physical
  multiplication with b(t, x) = c(t) w(x); genuinely non-commuting.

The solver marches the Volterra equation
V(t,s)x = U(t,s)x + int_s^t U_-1(t,sigma) B(sigma) V(sigma,s)x dsigma
with a one-step trapezoid recursion in sigma.  A diagonal family solves
the implicit endpoint exactly, by one division by 1 - (h/2) m_B(sigma_k);
an apply-only family resolves it by Picard sweeps.  The sweeps contract by
at most dsigma ||B(sigma)|| / 2 with the norm taken on the discretized
space, so a B of the generator's order (a genuine Desch-Schappacher
perturbation) needs more steps as the grid is refined.  A diagonal row
gives that factor a priori on the bins the march carries, and a run whose
factor exceeds the sweeps' reach PICARD_REACH is refused at its first such
node; an apply-only run reports its largest measured sweep ratio instead.

A diagonal B splits the equation into one scalar equation per bin, so V
is exactly 0 wherever x is 0: its march carries only the bins where x is
nonzero, on their frequency axes `Grid.xi_axes_at`, which are built once
per set of bins so that the per-axes tables (`memo`, `_rows`) serve the
M, M/2 and M/4 runs and the Duhamel check alike.  An apply-only family
carries every bin.  A `Trajectory` holds its states on the carried bins,
and its final state is the only one it builds on the whole grid.
`cli.run_perturb` solves each (s, t, steps) once, in the order M, M/2,
M/4, and holds one trajectory at a time.  The M-step run's every state
feeds the trajectory norms and the Duhamel residual; then only its final
state and its Picard statistics are kept, and it is released before the
M/2 solve.  The family checks and the oracle ladder read only the final
states of the M/2- and M/4-step runs, and solve nothing themselves.

The march and the Duhamel residual go a `row_blocks` block of steps at a
time: what does not feed a recurrence (the factors e^{-E} of
`_step_decays`, a diagonal family's rows, the Duhamel node products and
norms) is one array operation per block, each row bit for bit the one a
step-by-step run builds.  A diagonal row m_B(sigma) is built once per
time: the explicit term of step k + 1 reuses the endpoint row of step k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, ConvergenceError, DomainError, NumericError,
                     UnsupportedError)
from .evolution import PropagatorEngine
from .semigroup import gauss_legendre_panels
from .spectral import (Grid, GridFunction, NormSpec, gaussian_profile,
                       inverse_transform, memo, norm, plancherel_norm, row_blocks,
                       transform)
from .symbols import CoefficientFunction, SymbolSpec, constant


def _rows(family, t, xi_axes, build) -> np.ndarray:
    """`build(t)`: one multiplier row at a scalar `t`, or one row per time of
    an array `t` (shaped to broadcast against the axes), each bit for bit the
    scalar call.  A scalar `t` reuses the last row built for the same `t` and
    axes tuple, handed out read-only; as in `spectral.memo`, writeable axes
    may change in place, so their rows are rebuilt on every call."""
    if np.ndim(t):
        ndim = len(np.broadcast_shapes(*(ax.shape for ax in xi_axes)))
        return build(np.reshape(t, np.shape(t) + (1,) * ndim))
    if any(ax.flags.writeable for ax in xi_axes):
        return build(t)
    last = vars(family).get("_last_row")
    if last is None or last[0] != t or last[1] is not xi_axes:
        last = family._last_row = (t, xi_axes, build(t))
        last[2].flags.writeable = False
    return last[2]


class Mollifier:
    """Box-average family: the sinc multiplier, the identity at t = 0."""

    def multiplier(self, t, xi_axes) -> np.ndarray:
        """prod_j sinc(t xi_j): one row per time, via `_rows`."""
        def build(t):
            total = np.asarray(1.0 + 0.0j)
            for ax in xi_axes:
                total = total * np.sinc(t * ax / np.pi)   # sin(t xi)/(t xi)
            return total
        return _rows(self, t, xi_axes, build)

    def apply(self, t: float, f: GridFunction) -> GridFunction:
        return GridFunction(f.grid, f.values * self.multiplier(t, f.grid.xi_axes()))


class MultiplierFamily:
    """m_B(t, xi) = c(t) * P(|xi|^2)/Q(|xi|^2), commuting with every symbol."""

    def __init__(self, coefficient: CoefficientFunction = None,
                 profile_num: tuple = (1.0,), profile_den: tuple = (1.0, 1.0)):
        self.coefficient = coefficient if coefficient is not None else constant(1.0)
        self.profile_num = tuple(float(c) for c in profile_num)
        self.profile_den = tuple(float(c) for c in profile_den)

    def _profile(self, xi_axes) -> np.ndarray:
        """P(|xi|^2)/Q(|xi|^2) on the axes; a zero of Q there is a pole."""
        def build():
            r2 = sum((ax**2 for ax in xi_axes), np.asarray(0.0))
            num, den = (sum((c * r2**k for k, c in enumerate(coeffs)),
                            np.zeros_like(r2, dtype=float))
                        for coeffs in (self.profile_num, self.profile_den))
            if np.any(den == 0.0):
                raise ConfigurationError(
                    "config invalid at perturbation/profile_den: Q(|xi|^2) vanishes at "
                    f"|xi|^2 = {float(r2[den == 0.0].flat[0])!r} on the grid")
            return num / den
        return memo(self, "profile", build, xi_axes)

    def multiplier(self, t, xi_axes) -> np.ndarray:
        """c(t) P(|xi|^2)/Q(|xi|^2): one row per time, via `_rows`."""
        return _rows(self, t, xi_axes,
                     lambda t: self.coefficient(t) * self._profile(xi_axes))

    def integral(self, s: float, t: float, xi_axes) -> np.ndarray:
        """Closed-form integral of m_B over [s, t] (the oracle ingredient)."""
        dc = self.coefficient.antiderivative(t) - self.coefficient.antiderivative(s)
        return dc * self._profile(xi_axes)

    def apply(self, t: float, f: GridFunction) -> GridFunction:
        return GridFunction(f.grid, f.values * self.multiplier(t, f.grid.xi_axes()))


class SmoothingComposite:
    """B(t) f = b(t, .) * (1 + |xi|^2)^{-order/2} f with b(t,x) = c(t) w(x).

    The physical multiplication does not commute with symbol multipliers,
    giving the genuinely non-commuting test case.  w is a Gaussian bump
    centered in the box; it and the smoothing multiplier are built once
    per grid.
    """

    def __init__(self, order: int = 2, coefficient: CoefficientFunction = None):
        if order < 1:
            raise ConfigurationError("smoothing order must be >= 1")
        self.order = order
        self.coefficient = (coefficient if coefficient is not None
                            else CoefficientFunction(const=1.0, poly=((1, 1.0),)))

    def apply(self, t: float, f: GridFunction) -> GridFunction:
        grid = f.grid
        smooth = memo(self, "smoothing",
                      lambda: (1.0 + grid.xi_squared()) ** (-self.order / 2.0), grid)
        window = memo(self, "window", lambda: grid.separable(
            gaussian_profile(grid.points_axis(), grid.box / 2.0, grid.box / 16.0)), grid)
        phys = inverse_transform(f.values * smooth)
        return GridFunction(grid, transform(phys * (self.coefficient(t) * window)))


# -- regularity measurement ---------------------------------------------------

@dataclass(frozen=True)
class SlopeFit:
    slope: float
    residual: float        # rms residual of the log10-log10 least squares fit
    separations: int


def _slope(separations, values) -> SlopeFit:
    """Least-squares slope of log10 `values` against log10 `separations`."""
    # a line needs two points; a zero modulus has no logarithm, and a
    # time-constant family has only zero moduli
    if len(values) < 2 or min(values) == 0.0:
        return SlopeFit(slope=float("nan"), residual=0.0, separations=len(values))
    lx, ly = np.log10(separations), np.log10(values)
    design = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = float(np.sqrt(np.mean((design @ coef - ly) ** 2)))
    return SlopeFit(slope=float(coef[0]), residual=resid, separations=len(values))


SEPARATIONS = tuple(2.0 ** (-k) for k in range(1, 7))   # the dyadic deltas of every fit
BASE_START = 1e-3       # the first base point after t = 0
BASE_POINTS = 16        # base points in [BASE_START, horizon - delta] besides t = 0


def _base_points(family, delta: float, horizon: float) -> np.ndarray:
    """Base points b of the pairs (b, b + delta), each pair inside [0, horizon]:
    t = 0, BASE_POINTS points of [BASE_START, horizon - delta], and t0 - delta/2
    for each jump time t0 of B's coefficient where that pair fits, so that a
    pair straddles every jump."""
    coefficient = getattr(family, "coefficient", None)
    mids = [t0 - delta / 2 for t0, _ in (coefficient.steps if coefficient else ())]
    return np.concatenate([[0.0], np.linspace(BASE_START, horizon - delta, BASE_POINTS),
                           [b for b in mids if b >= 0.0 and b + delta <= horizon]])


@dataclass(frozen=True)
class RegularityReport:
    """Per-vector regularity of t -> B(t)f measured on dyadic separations.

    Only separations delta with BASE_START <= horizon - delta are measured,
    so every time stays in [0, horizon]; with fewer than two the slopes are
    nan.  Moduli are sups over the base pairs of `_base_points` of
    ||B(t0 + delta) f - B(t0) f|| in L2 and in the X_{-1} gauge 1/|a(0,.)|;
    the Lipschitz constant into X_{-1} is the max difference quotient over
    the same pairs.
    """

    sup_norm: list[float]                 # sup_t ||B(t) f||_L2 per vector
    lip_extrapolated: list[float]         # quotients in the gauge 1/|a(0,.)|
    slopes_l2: list[SlopeFit]
    slopes_extrapolated: list[SlopeFit]
    separations: tuple[float, ...]


def perturbation_regularity_report(family, vectors, spec: SymbolSpec) -> RegularityReport:
    """Times are the outer loop and vectors the inner one, so each time's
    row of a diagonal B is built once per visit (the `_rows` cache)."""
    gauges = (None, NormSpec(spec, 0.0))          # L2, X_{-1}
    sup_norm = np.max([[norm(family.apply(float(t), f)) for f in vectors]
                       for t in np.linspace(0.0, spec.horizon, 24)], axis=0)
    seps = tuple(d for d in SEPARATIONS if BASE_START <= spec.horizon - d)
    mods = np.zeros((len(gauges), len(vectors), len(seps)))
    for i, delta in enumerate(seps):
        for b in _base_points(family, delta, spec.horizon):
            g0 = [family.apply(float(b), f).values for f in vectors]
            g1 = [family.apply(float(b + delta), f).values for f in vectors]
            for v, f in enumerate(vectors):
                diff = GridFunction(f.grid, g1[v] - g0[v])
                for k, gauge in enumerate(gauges):
                    mods[k, v, i] = max(mods[k, v, i], norm(diff, gauge))
    return RegularityReport(
        sup_norm=sup_norm.tolist(),
        lip_extrapolated=[float(np.max(m / seps)) if seps else float("nan")
                          for m in mods[1]],
        slopes_l2=[_slope(seps, m) for m in mods[0]],
        slopes_extrapolated=[_slope(seps, m) for m in mods[1]],
        separations=seps)


# -- Volterra solver ----------------------------------------------------------

PICARD_TOL = 1e-12      # relative sweep update that solves a node: ~4500 eps, above roundoff
PICARD_SWEEPS = 20      # sweeps per node of an apply-only family; slower is no contraction
# the largest Picard factor q with q^PICARD_SWEEPS = PICARD_TOL (~0.251): the
# sweeps' reach, which a diagonal family's a-priori factor must not exceed
PICARD_REACH = PICARD_TOL ** (1.0 / PICARD_SWEEPS)


def _scatter(grid: Grid, bins: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The spectrum on `grid` that is `row` on the flat bins `bins`, 0 elsewhere."""
    values = np.zeros(grid.shape, dtype=complex)
    values.reshape(-1)[bins] = row
    return values


def _apply_on(family, tau: float, grid: Grid, bins: np.ndarray,
              row: np.ndarray) -> np.ndarray:
    """B(tau) of the spectrum `_scatter` builds from `row`, on the bins `bins`."""
    f = GridFunction(grid, _scatter(grid, bins, row))
    return family.apply(tau, f).values.reshape(-1)[bins]


@dataclass
class Trajectory:
    """A march's states V(sigma_k, s)x on the bins it carried: the bins where
    x is nonzero for a diagonal family, which keeps every other bin at
    exactly 0, and every bin for any other family."""

    grid: Grid
    sigmas: np.ndarray
    bins: np.ndarray                    # carried flat (C-order) bins
    rows: np.ndarray                    # V(sigma_k, s)x on `bins`, one row per node
    sweeps_max: int
    last_residual: float
    contraction: float                  # largest Picard factor (a priori if diagonal)

    def final(self) -> GridFunction:
        """V(t, s)x on the whole grid: the only whole-grid state built."""
        return GridFunction(self.grid, _scatter(self.grid, self.bins, self.rows[-1]))


def _step_decays(engine: PropagatorEngine, lo: np.ndarray, hi: np.ndarray,
                 xi_axes) -> np.ndarray:
    """e^{-E} on the intervals (lo[k], hi[k]), one row each on the 1-D axes
    `xi_axes` of a set of bins: one `engine.exponent` call and one `np.exp`
    for the whole block (a caller passes one `row_blocks` block of
    intervals), each row bit for bit the scalar factor."""
    block = engine.exponent(lo, hi, xi_axes)
    np.negative(block, out=block)
    np.exp(block, out=block)                # in place: no second block of temporaries
    return block


def solve_perturbed(engine: PropagatorEngine, family, s: float, t: float,
                    x: GridFunction, steps: int) -> Trajectory:
    """March the variation-of-constants equation on a uniform sigma grid
    with the one-step trapezoid recursion

        V_k = e^{-E_k} (V_{k-1} + h/2 B(sigma_{k-1}) V_{k-1}) + h/2 B(sigma_k) V_k,

    E_k the exact step exponent over (sigma_{k-1}, sigma_k), on the bins the
    run carries (see `Trajectory`).  The steps go a `row_blocks` block at a
    time: one `engine.exponent` call per block gives its factors e^{-E_k},
    and only the recurrence runs step by step.  A family with `multiplier`
    marches the bins x carries alone: one call per block gives its endpoint
    rows m_B(sigma_k) on their axes, `Grid.xi_axes_at`, with the divisors
    1 - h/2 m_B(sigma_k) and the a-priori Picard factors
    q_k = h/2 max|m_B(sigma_k)|, and B goes through `apply` once, for B(s)x.
    Each step checks q_k against PICARD_REACH before it divides, the
    maximum taken over the bins where rhs is nonzero; V_k is 0 on every
    other bin, and the run reports 0 sweeps and the largest q_k.  Any other
    family resolves the endpoint by Picard sweeps to PICARD_TOL and reports
    the largest ratio of successive sweep updates over all nodes (0 when
    every node converges in one sweep).  Both raise ConvergenceError at the
    first node they cannot solve, before its state exists.
    """
    if steps < 1:
        raise ConfigurationError("need at least one step")
    if not 0.0 <= s <= t <= engine.spec.horizon:
        raise DomainError(f"need 0 <= s <= t <= {engine.spec.horizon}")
    grid = engine.grid
    w = grid.cell_volume
    sigmas = np.linspace(s, t, steps + 1)
    half = 0.5 * (t - s) / steps
    diagonal = hasattr(family, "multiplier")
    bins = np.flatnonzero(x.values) if diagonal else np.arange(x.values.size)
    axes = grid.xi_axes_at(bins)

    def b_apply(tau: float, row: np.ndarray) -> np.ndarray:
        return _apply_on(family, tau, grid, bins, row)

    def refuse(k: int, message: str, residual: float):
        raise ConvergenceError(f"{message} at node {k} of {steps} "
                               f"(sigma={sigmas[k]:.6g}) in the {steps}-step run",
                               residual=residual)

    rows = np.empty((steps + 1, bins.size), dtype=complex)
    rows[0] = x.values.reshape(-1)[bins]
    sweeps_max, last_resid, contraction = 0, 0.0, 0.0
    for part in row_blocks(steps, bins.size):
        ends = sigmas[part.start + 1:part.stop + 1]
        decays = _step_decays(engine, sigmas[part], ends, axes)
        if diagonal:
            ms = family.multiplier(ends, axes)
            divisors = 1.0 - half * ms
            factors = (half * np.max(np.abs(ms), axis=1, initial=0.0)).tolist()
        for i, k in enumerate(range(part.start + 1, part.stop + 1)):
            prev = rows[k - 1]
            # a diagonal run reuses the endpoint row m of the step before
            explicit = prev * m if diagonal and k > 1 else b_apply(float(sigmas[k - 1]), prev)
            rhs = decays[i] * (prev + half * explicit)
            if diagonal:
                m = ms[i]
                if np.count_nonzero(rhs) == rhs.size:     # every bin carried
                    q, divisor = factors[i], divisors[i]
                else:
                    # q_k on the bins the march carries: a diagonal B keeps
                    # every other bin at exactly 0, where the sweeps had
                    # nothing to contract
                    carried = rhs != 0
                    q = half * float(np.max(np.abs(m), where=carried, initial=0.0))
                    divisor = np.where(carried, divisors[i], 1.0)
                if q > PICARD_REACH:
                    refuse(k, f"Picard factor {q:.6g} exceeds the sweeps' reach "
                              f"{PICARD_REACH:.6g}", q)
                contraction = max(contraction, q)
                rows[k] = rhs / divisor
                continue
            hi = float(sigmas[k])
            v = rhs + half * b_apply(hi, prev)
            update = 0.0
            for sweep in range(1, PICARD_SWEEPS + 1):
                v_next = rhs + half * b_apply(hi, v)
                change = plancherel_norm(v_next - v, w)
                if update > 0.0:
                    contraction = max(contraction, change / update)
                resid = change / max(plancherel_norm(v_next, w), 1e-300)
                v, update = v_next, change
                if resid <= PICARD_TOL:
                    break
            else:
                refuse(k, "Picard failed to contract", resid)
            sweeps_max, last_resid = max(sweeps_max, sweep), resid
            rows[k] = v

    return Trajectory(grid=grid, sigmas=sigmas, bins=bins, rows=rows,
                      sweeps_max=sweeps_max, last_residual=last_resid,
                      contraction=contraction)


def commuting_oracle(engine: PropagatorEngine, family: MultiplierFamily,
                     s: float, t: float, x: GridFunction) -> GridFunction:
    """Closed-form perturbed propagator exp(-int a + int m_B) x for
    commuting multiplier perturbations."""
    if not isinstance(family, MultiplierFamily):
        raise UnsupportedError("oracle requires a multiplier family with "
                               "closed-form time integrals")
    expo = -engine.exponent(s, t) + family.integral(s, t, engine.grid.xi_axes())
    return GridFunction(engine.grid, x.values * np.exp(expo))


DUHAMEL_NODES = 4       # Gauss-Legendre nodes per sigma step of the residual


def duhamel_residual(trajectory: Trajectory, engine: PropagatorEngine, family) -> float:
    """Max over nodes of || V_k - U(sigma_k,s)x - GL-quadrature of the
    Duhamel integral || / ||x||, with s and x the run's first node and
    state and V linearly interpolated at the Gauss-Legendre nodes inside
    each step, all on the bins the run carried (V is 0 elsewhere).

    The steps go a `row_blocks` block at a time.  Per block, array
    operations take the factors e^{-E} over (sigma_j, sigma_{j+1}) and over
    (tau_n, sigma_{j+1}) per node, the interpolants, a diagonal family's
    node rows m_B(tau_n) (an apply-only family is applied node by node),
    each step's quadrature sum, added node by node in order, and the norms;
    only the transport of the integral and of x runs step by step.  Each
    norm sums over every bin in grid order, as on the whole grid.  A node
    whose residual is not finite raises NumericError.
    """
    grid, bins, states = engine.grid, trajectory.bins, trajectory.rows
    axes = grid.xi_axes_at(bins)
    size = grid.n ** grid.dim
    sig = trajectory.sigmas
    steps = len(sig) - 1

    def whole_norms(block: np.ndarray) -> np.ndarray:
        # the L2 norm of each row summed over every bin in grid order, as on
        # the whole grid (a sum over the carried bins alone would round
        # differently), a `row_blocks` block of whole-grid rows at a time
        out = np.empty(len(block))
        for part in row_blocks(len(block), size):
            squares = np.zeros((part.stop - part.start, size))
            squares[:, bins] = np.abs(block[part]) ** 2
            out[part] = np.sqrt(np.sum(squares, axis=1) * grid.cell_volume)
        return out

    xnorm = max(float(whole_norms(states[:1])[0]), 1e-300)
    nodes, weights = gauss_legendre_panels(float(sig[0]), float(sig[-1]), steps,
                                           DUHAMEL_NODES)
    taus, weights = (a.reshape(steps, DUHAMEL_NODES) for a in (nodes, weights))

    acc = np.zeros(bins.size, dtype=complex)       # integral transported to sig[j]
    current = states[0].copy()
    worst = 0.0
    for part in row_blocks(steps, (DUHAMEL_NODES + 1) * bins.size):
        count, after = part.stop - part.start, slice(part.start + 1, part.stop + 1)
        lo, hi = sig[part, None], sig[after, None]
        decays = _step_decays(engine, np.column_stack([lo, taus[part]]).ravel(),
                              np.repeat(sig[after], DUHAMEL_NODES + 1), axes)
        decays = decays.reshape(count, DUHAMEL_NODES + 1, bins.size)
        frac = ((taus[part] - lo) / (hi - lo))[..., None]
        # V interpolated at the nodes, then B V there
        g = (1.0 - frac) * states[part, None]
        g += frac * states[after, None]
        if hasattr(family, "multiplier"):
            g *= family.multiplier(taus[part].ravel(), axes).reshape(g.shape)
        else:
            g = np.array([[_apply_on(family, tau, grid, bins, v) for tau, v in zip(ts, vs)]
                          for ts, vs in zip(taus[part].tolist(), g)])
        # w_n e^{-E} B V at the nodes, in place of the node factors
        terms = np.multiply(weights[part, :, None], decays[:, 1:], out=decays[:, 1:])
        terms *= g
        del g                           # one block fewer alive during the norms
        integral = np.zeros((count, bins.size), dtype=complex)
        for n in range(DUHAMEL_NODES):
            integral += terms[:, n]                 # node by node, in order
        transported = np.empty_like(integral)
        # the only recurrences: the integral and x, each carried a step on
        for step_mult, row, moved in zip(decays[:, 0], integral, transported):
            row += step_mult * acc
            acc = row
            current = np.multiply(step_mult, current, out=moved)
        residuals = whole_norms(states[after] - transported - integral) / xnorm
        bad = np.flatnonzero(~np.isfinite(residuals))
        if bad.size:
            k = part.start + 1 + int(bad[0])
            raise NumericError(
                f"non-finite Duhamel residual at node {k} of {steps} "
                f"(sigma={sig[k]:.6g})", witness={"node": k, "sigma": float(sig[k])})
        worst = max(worst, float(np.max(residuals)))
    return worst


def perturbed_family_checks(x: GridFunction, full: GridFunction,
                            half: GridFunction) -> float:
    """Step-halving difference of V from the pipeline's s -> t runs,
    relative to ||x||: `x` is the M-step run's first state, `full` its
    final state and `half` the final state of the M // 2-step run (for odd
    M, the floor(M/2)-step run).  The report calls it `cocycle_defect`, but
    no run marches legs V(t,r)V(r,s)x through a midpoint r: it is
    ||V_M(t,s)x - V_{M/2}(t,s)x|| / ||x||, genuine discretization,
    O(dsigma^2).  It reads no trajectory, so the caller may release each
    run before the next is marched.
    """
    w = x.grid.cell_volume
    xnorm = max(plancherel_norm(x.values, w), 1e-300)
    return plancherel_norm(full.values - half.values, w) / xnorm
