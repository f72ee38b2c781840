"""Independent references for tests of the paper's invariants.

No pipeline runs this code, so it lives with the tests.  It is kept because
each piece backs an invariant the evolution-family theory rests on:

* `apply_multiplier` and `frozen_generator`: a Fourier multiplier on a grid
  function, and A(s) f = -a(s, .) f, the frozen generator the closed forms
  of `favard_norm` and the resolvent identities are checked against;
* `favard_sweep`: the Favard difference quotient (1/t) ||T(t) f - f|| on a
  geometric t-grid, as `favard_norm` sampled it before it took the closed
  forms; under Re a >= 0 on the data's support it reaches them from below,
  and on one mode with Re a < 0 it exceeds them;
* `frozen_semigroup`: the semigroup law T(t) T(s) = T(t + s) of the frozen
  generator, and the autonomous case U(t, s) = T(t - s) of the propagator;
* `frozen_resolvent`: the resolvent identity
  R(lambda) - R(mu) = (mu - lambda) R(lambda) R(mu);
* `laplace_transform_check` and `laplace_tail_bound`: the resolvent as the
  Laplace transform of the semigroup (acceptance criterion 10);
* `cocycle_defect`: the cocycle U(t,s) U(s,r) = U(t,r) of the exact
  propagator, whose closed-form exponents are additive (criterion 1);
* `derivative_defect`: the generator identities d/dt U(t,s) = -A(t) U(t,s)
  and d/ds U(t,s) = U(t,s) A(s) as central differences of the exact
  propagator, second order in the step (criterion 2); the closed-form
  exponents satisfy them as soon as each antiderivative matches its
  coefficient, so they are a test's job and no pipeline runs them;
* `operator_norm`: ||U(t,s)|| on L2, the largest modulus of the
  propagator's multiplier, and with it the growth bound
  ||U(t,s)|| <= e^{omega (t - s)} when Re a >= -omega;
* `aligned_ladder_cocycle` and `mass_balance_defect`: the cocycle of the
  upwind transport march on its own step ladder, and its per-step mass
  balance, which the telescoping flux form makes exact (criterion 11);
* `coefficient_lipschitz` and `cd_lipschitz_bound`: the per-coefficient
  Lipschitz bounds, and from them the bound on the strong Lipschitz
  quotient that `certify_cd_system` samples;
* `neighbour_pairs`: the pairs the difference-quotient sweeps below
  sampled, neighbouring times of a uniform grid of [0, T] plus centred
  pairs of the certifiers' PAIR_DELTAS widths, with a(s, .) and a(t, .);
* the references below that sample times build their tables on every
  time of the plan, one row per time, where the certifiers take one row
  per `_time_classes` class: the Rows rule is checked against them;
* `sampled_sector_ratios` and `sampled_sector_constant`: the lambda sweep
  the sector bound was once measured by, a lower bound on the closed-form
  sup that `check_sector` takes;
* `theta_scan_reference`: the largest of THETA_SCAN's nine angles whose
  certified sector constant passes the cap on the plan, as
  `largest_passing_theta` scanned before it took theta* in closed form,
  read from the closed-form sup at the worst point of each (t, xi) cell's
  t-margin disc; it must agree with theta* on every scan angle;
* `sector_lambdas`, `sampled_resolvent_lipschitz`,
  `sampled_semigroup_lipschitz` and `sampled_cd_system`: C', C and the cd
  quotients as `check_resolvent_lipschitz`, `check_semigroup_lipschitz`
  and `certify_cd_system` sampled them before they took the closed-form
  sups of the time derivative: difference quotients on `neighbour_pairs`
  times |lambda| on 2 RAYS + 1 rays with moduli in
  RESOLVENT_MODULUS_RANGE, or times tau in [1e-3, T], or L2 norms on test
  vectors.  By the mean value theorem (Minkowski's inequality for the L2
  norms) each sweep is a lower bound on the closed form over t, taken on
  a dense enough time grid;
* `factored_resolvent_quotient` and `reciprocal_resolvent_quotient`: the C'
  quotient with the slope |a(t) - a(s)|/(t - s) factored out, as the sweep
  took it, and as a difference of reciprocals, which cancels on
  near-coincident pairs;
* `kato_reference`: the Kato product sweep one partition and one lambda
  at a time, as `check_kato_stability` measured it before it took one
  log|lambda + a| table per lambda, once on the plan; it must give the
  same record bit for bit;
* `product_formula_reference`: the frozen-coefficient product rules as
  `product_formula_errors` took them before it summed the coefficients:
  one row a(tau_j, .) per node from `time_matrix`, added in node order;
  the two sums differ by rounding only;
* `bessel_weight` and `bessel_norm`: the order -m Sobolev weight
  (1 + |xi|^2)^{-m/2}, a second model of X_{-1} that ellipticity makes
  equivalent to the extrapolation gauge 1/|a(0, .)| the pipelines use;
* `dual_scale_moduli`: the moduli of t -> B(t) f in that Bessel norm, on
  the separations and base points of `perturbation_regularity_report`
  (the Mollifier is Lipschitz, slope 1, in it on indicator data);
* `whole_grid_march` and `whole_grid_duhamel`: the Volterra march and its
  Duhamel residual on every bin of the grid, one step at a time, as
  `solve_perturbed` and `duhamel_residual` took them before they carried
  only the bins where a diagonal family's x is nonzero and before they
  took a block of steps per array operation; an apply-only family is
  resolved by Picard sweeps.  The carried, blocked march must give the
  same states and residual bit for bit, and `whole_state` scatters its rows;
* `heat_symbol`, `oscillating_symbol` and `drift_symbol`: the autonomous,
  time-dependent and non-elliptic symbols the fixtures are built from;
* `SWEEP_SYMBOLS` and `sweep_symbol`: Hypothesis draws of d = 1 and 2
  symbols whose principal coefficient is constant, oscillating or stepping
  in t, with their grids, which the certifiers' properties are tested on;
* `constant_field`: a constant transport coefficient, the case the
  characteristics oracle solves exactly;
* `NaNOffTheGrid`: a diagonal family whose rows are NaN past a time except
  on a march's sigma grid, so the march is finite and the Duhamel check
  meets NaN at its Gauss-Legendre nodes.
"""

import numpy as np
from hypothesis import strategies as st

from evofam.assumptions import (PAIR_DELTAS, SamplePlan, StabilityCertificate, _partitions,
                                _sector_sup, _symbol_matrix)
from evofam.errors import ConfigurationError, ConvergenceError, DomainError, NumericError
from evofam.evolution import RULE_OFFSETS, PropagatorEngine
from evofam.semigroup import FrozenOperator, gauss_legendre_panels
from evofam.perturbation import (BASE_POINTS, DUHAMEL_NODES, PICARD_REACH, PICARD_SWEEPS,
                                 PICARD_TOL, SEPARATIONS, Trajectory)
from evofam.spectral import Grid, GridFunction, norm, plancherel_norm, row_blocks
from evofam.symbols import CoefficientFunction, SymbolSpec, constant
from evofam.transport import (TimeSpaceCoefficient, TransportProblem,
                              TransportState, transport_solve)

SINGULAR_TOL = 1e-14    # |lambda + a| below which the resolvent is singular
COCYCLE_TOL = 1e-10     # exact-engine cocycle (exponent additivity over ~1e2 bins)
MODULUS_RANGE = (1e-3, 1e6)   # |lambda| range of the sampled sector sweep
RAYS = 3                      # interior ray pairs of the lambda sweeps: args k/RAYS * theta
RESOLVENT_MODULUS_RANGE = (1e-2, 1e4)  # |lambda| range of the sampled C' sweep
THETA_SCAN = np.pi * np.linspace(0.55, 0.95, 9)   # angles of the sector-angle scan
FAVARD_SAMPLES = 2.0 ** (-np.arange(41, dtype=float))   # t = 1 down to 2^-40, ratio 2


def apply_multiplier(m, f: GridFunction) -> GridFunction:
    """Apply a Fourier multiplier; `m` maps per-axis frequency arrays to values.

    `m` receives the tuple of broadcastable frequency axes and must return
    an array broadcastable to the grid shape (or a scalar).
    """
    values = np.broadcast_to(np.asarray(m(f.grid.xi_axes()), dtype=complex),
                             f.grid.shape)
    bad = ~np.isfinite(values)
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        xi = [float(ax.reshape(-1)[i]) for ax, i in zip(f.grid.xi_axes(), idx)]
        raise NumericError(f"multiplier non-finite at bin {idx} (xi={xi})",
                           witness={"bin": idx, "xi": xi})
    return GridFunction(f.grid, f.values * values)


def frozen_generator(op: FrozenOperator, f: GridFunction) -> GridFunction:
    """A(s) f, the multiplier -a(s, .)."""
    return apply_multiplier(lambda xi: -op.spec.on_axes(op.time, xi), f)


def expm1_abs(z_real: np.ndarray, z_imag: np.ndarray) -> np.ndarray:
    """|e^z - 1| without cancellation or underflow of the squares:
    hypot(expm1(x), 2 e^{x/2} sin(y/2))."""
    return np.hypot(np.expm1(z_real), 2.0 * np.exp(0.5 * z_real) * np.sin(0.5 * z_imag))


def favard_sweep(op: FrozenOperator, f: GridFunction, space: str) -> float:
    """max over FAVARD_SAMPLES of (1/t) || T(t) f - f ||, in L2 ("F1") or in
    the operator's own X_{-1} gauge ("F0")."""
    a = op.symbol_on(f.grid)
    fhat = np.abs(f.values)
    if space == "F0":
        fhat = fhat * op.gauge().weight(f.grid)
    return max(plancherel_norm(expm1_abs(-t * a.real, -t * a.imag) * fhat,
                               f.grid.cell_volume) / t for t in FAVARD_SAMPLES)


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
    return GridFunction(f.grid, f.values / denom)


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
    fhat = f.values
    acc = np.zeros(f.grid.shape, dtype=complex)
    for tau, w in zip(taus, weights):
        acc += w * np.exp(-(lam + a) * tau)
    integral = GridFunction(f.grid, acc * fhat)
    target = frozen_resolvent(op, lam, f)
    diff = GridFunction(f.grid, integral.values - target.values)
    return norm(diff)


def laplace_tail_bound(lam: complex, omega: float, horizon: float,
                       f_norm: float) -> float:
    """Truncation tail e^{-(Re lambda + omega) H} ||f|| / (Re lambda + omega)."""
    rate = lam.real + omega
    if rate <= 0:
        raise DomainError("need Re lambda > -omega for integrability")
    return float(np.exp(-rate * horizon) * f_norm / rate)


def cocycle_defect(engine: PropagatorEngine, r: float, s: float, t: float,
                   f: GridFunction) -> float:
    """|| U(t,s) U(s,r) f  -  U(t,r) f || / ||f||.

    At most COCYCLE_TOL: the closed-form exponents are additive.
    """
    if not r <= s <= t:
        raise DomainError(f"need r <= s <= t, got {r}, {s}, {t}")
    nf = norm(f)
    if nf == 0.0:
        return 0.0
    two_leg = engine.propagate(s, t, engine.propagate(r, s, f))
    one_leg = engine.propagate(r, t, f)
    diff = GridFunction(f.grid, two_leg.values - one_leg.values)
    return norm(diff) / nf


def derivative_defect(engine: PropagatorEngine, s: float, t: float,
                      f: GridFunction, base: GridFunction, h: float,
                      which: str = "dt") -> float:
    """Central-difference defect of the generator identities, with `base`
    the caller's U(t,s) f.

    which="dt": || (U(t+h,s)f - U(t-h,s)f)/(2h) + a(t,.) U(t,s) f ||
    which="ds": || (U(t,s+h)f - U(t,s-h)f)/(2h) - a(s,.) U(t,s) f ||
    Both are O(h^2) on band-limited vectors for the smooth family.
    """
    if which not in ("dt", "ds"):
        raise ConfigurationError(f"which must be 'dt' or 'ds', got {which!r}")
    if which == "dt":
        if t - h < s or t + h > engine.spec.horizon:
            raise DomainError("dt stencil leaves the time triangle")
        plus, minus = engine.propagate(s, t + h, f), engine.propagate(s, t - h, f)
        at, sign = t, 1.0
    else:
        if s - h < 0 or s + h > t:
            raise DomainError("ds stencil leaves the time triangle")
        plus, minus = engine.propagate(s + h, t, f), engine.propagate(s - h, t, f)
        at, sign = s, -1.0
    gen = engine.spec.on_axes(at, engine.grid.xi_axes())
    resid = (plus.values - minus.values) / (2.0 * h) + sign * gen * base.values
    return norm(GridFunction(engine.grid, resid))


def operator_norm(engine: PropagatorEngine, s: float, t: float) -> float:
    """||U(t,s)|| on L2 = max over bins of |e^{-exponent(s, t)}|."""
    return float(np.max(np.exp(-engine.exponent(s, t).real)))


def aligned_ladder_cocycle(problem: TransportProblem, r: float, s: float,
                           one: TransportState, f0: np.ndarray) -> float:
    """Relative L1 gap between the r -> t run `one` marched from f0 and its
    two legs r -> s', s' -> t.

    s is snapped onto `one`'s CFL-safe ladder, ceil((t - r) / cfl_step())
    steps, so both legs replay exactly its step times and compose to it up
    to roundoff; a one-step run composes as the identity and the whole run.
    """
    t = one.time
    if not r <= s <= t or r == t:
        raise DomainError("need r <= s <= t and r < t")
    n_total = int(np.ceil((t - r) / problem.cfl_step()))
    dt = (t - r) / n_total
    n1 = min(max(1, int(round((s - r) / dt))), n_total - 1)
    s_used = r + n1 * dt
    leg_a = transport_solve(problem, r, s_used, f0, n1)
    leg_b = transport_solve(problem, s_used, t, leg_a.values, n_total - n1)
    gap = float(np.sum(np.abs(leg_b.values - one.values)) * problem.h)
    return gap / max(one.l1_norm(), 1e-300)


def mass_balance_defect(problem: TransportProblem, s: float, t: float,
                        f0: np.ndarray) -> float:
    """Max over the steps of the s -> t run on its CFL ladder of
    |mass_new - mass_old + decay sink + outflux| / |mass_old|.

    Each step is a one-step `transport_solve` call; the sink
    dt sum(mu f h) and the outflux dt g(x_max) f_last are computed here at
    the step midpoint, where the march freezes the coefficients.
    """
    steps = int(np.ceil((t - s) / problem.cfl_step()))
    f, worst = np.asarray(f0, dtype=float), 0.0
    for k in range(steps):
        lo, hi = s + k * (t - s) / steps, s + (k + 1) * (t - s) / steps
        mid, dt = lo + 0.5 * (hi - lo), hi - lo
        mass = np.sum(f) * problem.h
        sink = dt * np.sum(problem.decay(mid, problem.centers()) * f) * problem.h
        outflux = dt * problem.velocity(mid, problem.faces()[-1]) * f[-1]
        f = transport_solve(problem, lo, hi, f, 1).values
        defect = abs(np.sum(f) * problem.h - mass + sink + outflux)
        worst = max(worst, float(defect / max(abs(mass), 1e-300)))
    return worst


def coefficient_lipschitz(spec: SymbolSpec) -> dict[tuple[int, ...], float]:
    """Per-multi-index closed-form Lipschitz bounds on [0, T] (inf for a
    coefficient that jumps)."""
    return {alpha: coef.lipschitz_bound(spec.horizon)
            for alpha, coef in spec.coefficients.items()}


def cd_lipschitz_bound(spec: SymbolSpec, grid: Grid, vectors) -> float:
    """max over the vectors f of the L2 norm of
    sum_alpha Lip(a_alpha) |xi^alpha| |f^(xi)|: by the mean value theorem
    a bound on every sampled X-level quotient of `certify_cd_system`, and
    infinite when a coefficient jumps."""
    lips = coefficient_lipschitz(spec)
    if not all(np.isfinite(b) for b in lips.values()):
        return float("inf")
    monos = spec.monomials(grid.xi_axes())
    rate = sum(b * np.abs(np.broadcast_to(monos[alpha], grid.shape))
               for alpha, b in lips.items())
    return max(float(np.sqrt(np.sum((rate * np.abs(f.values)) ** 2)
                             * grid.cell_volume)) for f in vectors)


def sector_lambdas(theta: float, moduli: np.ndarray) -> np.ndarray:
    """lambda = modulus * e^{i phi} on 2 RAYS + 1 arguments phi in [-theta, theta]."""
    fractions = np.linspace(-1.0, 1.0, 2 * RAYS + 1)
    return (moduli[None, :] * np.exp(1j * theta * fractions[:, None])).reshape(-1)


def sampled_sector_ratios(a: np.ndarray, theta: float, moduli_per_ray: int) -> np.ndarray:
    """|lambda|/|lambda + a| at every lambda of the sampled sweep, shape
    (lambdas,) + a.shape: `moduli_per_ray` log-spaced moduli over
    MODULUS_RANGE on the rays of `sector_lambdas`."""
    lams = sector_lambdas(theta, np.geomspace(*MODULUS_RANGE, moduli_per_ray))
    lams = lams.reshape((-1,) + (1,) * np.ndim(a))
    return np.abs(lams) / np.abs(lams + a)


def sampled_sector_constant(spec: SymbolSpec, grid: Grid, theta: float,
                            plan: SamplePlan) -> float:
    """max of 1/|a| and the sampled ratios over the plan's time samples and
    the grid's bins, as the sector bound was measured before its sup over
    lambda was taken in closed form."""
    ts = np.linspace(0.0, spec.horizon, plan.time_samples)
    a = spec.time_matrix(ts, grid.xi_axes())
    with np.errstate(divide="ignore"):
        inverse = np.max(1.0 / np.abs(a))
    return float(max(inverse, np.max(sampled_sector_ratios(a, theta,
                                                             plan.moduli_per_ray))))


def theta_scan_reference(spec: SymbolSpec, grid: Grid, plan: SamplePlan) -> float:
    """Largest THETA_SCAN angle whose certified sector constant M on `plan`
    is at most its cap (nan if none), one pass over every (t, xi) cell per
    angle: M passes iff each cell's 1/(|a| - delta_0) and sector sup over
    the disc |b - a| <= delta_0 is finite, positive and at most cap, with
    delta_0 the `SymbolSpec.t_margin` of the plan's times."""
    a = spec.time_matrix(np.linspace(0.0, spec.horizon, plan.time_samples), grid.xi_axes())
    d0 = spec.t_margin(plan.time_samples, grid.xi_axes())
    best = float("nan")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inverse = 1.0 / (np.abs(a) - d0)
        for theta in THETA_SCAN:
            if np.all((inverse > 0.0) & (inverse <= plan.cap)) and \
                    np.all(_sector_sup(a, float(theta), d0) <= plan.cap):
                best = float(theta)
    return best


def factored_resolvent_quotient(lam: complex, a_s, a_t, slope):
    """|lambda| |R(lambda, a_t) - R(lambda, a_s)| / (t - s) from the slope
    D = |a_t - a_s| / (t - s), as |lambda| D / |(lambda + a_s)(lambda + a_t)|.
    It stays within a few eps of the exact quotient of its inputs, where the
    difference of reciprocals loses about eps |lambda + a| / |a_t - a_s|."""
    return abs(lam) * slope / np.abs((lam + a_s) * (lam + a_t))


def reciprocal_resolvent_quotient(lam: complex, a_s, a_t, dt):
    """|lambda| |1/(lambda + a_t) - 1/(lambda + a_s)| / dt in this order of
    operations."""
    return np.abs(lam) * np.abs(1.0 / (lam + a_t) - 1.0 / (lam + a_s)) / dt


def neighbour_pairs(spec: SymbolSpec, grid: Grid, count: int):
    """Times s < t of the neighbouring pairs of `count` uniform times on
    [0, T] and of the centred pairs of widths PAIR_DELTAS around those
    times and T/2 that fit in [0, T], with a(s, .) and a(t, .) on every bin,
    shape (pairs, bins) each."""
    T = spec.horizon
    base = np.linspace(0.0, T, count)
    centers, half = np.append(base, 0.5 * T), np.asarray(PAIR_DELTAS)[:, None] / 2.0
    cs, ct = (centers - half).ravel(), (centers + half).ravel()
    keep = (cs >= 0.0) & (ct <= T) & (ct > cs)
    s, t = np.concatenate([base[:-1], cs[keep]]), np.concatenate([base[1:], ct[keep]])
    table = lambda ts: spec.time_matrix(ts, grid.xi_axes()).reshape(len(ts), -1)
    return s, t, table(s), table(t)


def sampled_resolvent_lipschitz(spec: SymbolSpec, grid: Grid, theta: float,
                                plan: SamplePlan, factored: bool = True) -> float:
    """C' on the plan's `neighbour_pairs` and `resolvent_moduli` moduli per
    ray (no refinement), in the factored or the reciprocal form; quotients
    are assumed finite."""
    s, t, a_s, a_t = neighbour_pairs(spec, grid, plan.resolvent_pair_grid)
    lams = sector_lambdas(theta, np.geomspace(*RESOLVENT_MODULUS_RANGE,
                                              plan.resolvent_moduli))
    dt = (t - s)[:, None]
    slope = np.abs(a_t - a_s) / dt
    quotient = ((lambda lam: factored_resolvent_quotient(lam, a_s, a_t, slope)) if factored
                else (lambda lam: reciprocal_resolvent_quotient(lam, a_s, a_t, dt)))
    return float(max(np.max(quotient(lam)) for lam in lams))


def sampled_semigroup_lipschitz(spec: SymbolSpec, grid: Grid, plan: SamplePlan) -> float:
    """C on the plan's `neighbour_pairs` and `tau_samples` log-spaced tau in
    [1e-3, T] (no refinement); quotients are assumed finite."""
    s, t, a_s, a_t = neighbour_pairs(spec, grid, plan.resolvent_pair_grid)
    dt = (t - s)[:, None]
    return float(max(np.max(np.abs(np.exp(-tau * a_t) - np.exp(-tau * a_s)) / dt)
                     for tau in np.geomspace(1e-3, spec.horizon, plan.tau_samples)))


def sampled_cd_system(spec: SymbolSpec, grid: Grid, vectors, plan: SamplePlan):
    """The X and X_{-1} cd quotients max ||(a(t) - a(s)) w f^|| / (t - s) over
    the vectors f and the plan's `neighbour_pairs`, with w = 1 and
    w = 1/|a(0, .)| (inf where that weight is not a finite double); by the
    triangle inequality the neighbouring pairs carry the sup over all pairs
    of their grid."""
    s, t, a_s, a_t = neighbour_pairs(spec, grid, plan.resolvent_pair_grid)
    slope = np.abs(a_t - a_s) / (t - s)[:, None]
    with np.errstate(divide="ignore", over="ignore"):
        weight = 1.0 / np.abs(spec.time_matrix(np.zeros(1), grid.xi_axes()).reshape(-1))
    fhats = [np.abs(f.values.reshape(-1)) for f in vectors]
    sup = lambda w: max(float(np.max(np.sqrt(np.sum((slope * w * fhat) ** 2, axis=1)
                                              * grid.cell_volume))) for fhat in fhats)
    return sup(1.0), sup(weight) if np.all(np.isfinite(weight)) else float("inf")


def kato_reference(spec: SymbolSpec, grid: Grid, plan: SamplePlan = SamplePlan(),
                   m: float = 1.0, omega: float | None = None) -> StabilityCertificate:
    """`check_kato_stability` as one loop over (partition, lambda): a log of
    |lambda + a| on every factor row of every partition."""
    rng = np.random.default_rng(plan.seed)
    ts = np.linspace(0.0, spec.horizon, plan.time_samples)
    a = _symbol_matrix(spec, grid, ts)
    w = omega if omega is not None else -float(np.min(a.real))
    lams = w + np.geomspace(1e-1, 1e3, plan.kato_lambdas)
    anchors = np.linspace(0.0, spec.horizon, 9)
    t_index = lambda t: int(round(t / spec.horizon * (len(ts) - 1)))

    worst_res, worst_semi, tested = 0.0, 0.0, 0
    for k in range(1, plan.kato_kmax + 1):
        parts = _partitions(spec.horizon, k, plan.kato_partitions, rng, anchors)
        tested += len(parts)
        for part in parts:
            rows = a[[t_index(t) for t in part], :]
            for lam in lams:
                log_prod = -np.sum(np.log(np.abs(lam + rows)), axis=0)
                bound = np.log(m) - k * np.log(lam - w)
                ratio = float(np.exp(np.max(log_prod) - bound))
                worst_res = max(worst_res, ratio)
            # semigroup form with random nonnegative durations
            taus = rng.uniform(0.0, spec.horizon / k, k)
            log_semi = -np.sum(taus[:, None] * rows.real, axis=0)
            bound = np.log(m) + w * float(np.sum(taus))
            worst_semi = max(worst_semi, float(np.exp(np.max(log_semi) - bound)))
    return StabilityCertificate(
        m=m, omega=w, kmax=plan.kato_kmax, partitions_tested=tested,
        max_resolvent_ratio=worst_res, max_semigroup_ratio=worst_semi)


# product-rule blocks hold BLOCK_ELEMENTS / 4 values (64 KiB), which glibc keeps in the
# heap; blocks of 256 KiB went back to the OS and were faulted afresh, block after block
PRODUCT_BLOCK_DIVISOR = 4


def product_formula_reference(spec: SymbolSpec, s: float, t: float,
                              f: GridFunction, target: GridFunction, rule: str,
                              step_counts) -> list[float]:
    """L2 errors against `target`, the exact U(t,s) f, of the product
    formula exp(-sum_j dt a(tau_j, .)) f at each step count, with nodes
    tau_j = s + j dt for `rule` "left" (first order) and s + (j + 1/2) dt
    for "midpoint" (second order).  The rows a(tau_j, .) come from
    `time_matrix` a block of `row_blocks` at a time, so no step count holds
    its whole table, and are summed in node order."""
    if rule not in RULE_OFFSETS:
        raise ConfigurationError(f"unknown product rule {rule!r}")
    offset = RULE_OFFSETS[rule]
    axes = f.grid.xi_axes()
    fhat = f.values
    errors = []
    for n in step_counts:
        dt = (t - s) / n
        nodes = s + (np.arange(n) + offset) * dt
        total = np.zeros(f.grid.shape, dtype=complex)
        for part in row_blocks(n, PRODUCT_BLOCK_DIVISOR * f.grid.n ** f.grid.dim):
            for row in spec.time_matrix(nodes[part], axes):
                total += dt * row
        diff = GridFunction(f.grid, fhat * np.exp(-total) - target.values)
        errors.append(norm(diff))
    return errors


def bessel_weight(grid: Grid, m: float) -> np.ndarray:
    """(1 + |xi|^2)^{-m/2} on `grid`: the weight of the order -m Sobolev norm."""
    return (1.0 + grid.xi_squared()) ** (-m / 2.0)


def bessel_norm(f: GridFunction, m: float) -> float:
    """|| (1 + |xi|^2)^{-m/2} f^ ||_L2, the order -m Sobolev norm of f."""
    return plancherel_norm(bessel_weight(f.grid, m) * np.abs(f.values),
                           f.grid.cell_volume)


def dual_scale_moduli(family, f: GridFunction, spec: SymbolSpec) -> list:
    """Per delta of SEPARATIONS, the max over the base points t = 0 and
    BASE_POINTS points of [1e-3, T - delta] of ||B(b + delta) f - B(b) f||
    in the Bessel norm of order -spec.order."""
    mods = []
    for delta in SEPARATIONS:
        bases = np.concatenate([[0.0], np.linspace(1e-3, spec.horizon - delta, BASE_POINTS)])
        mods.append(max(bessel_norm(GridFunction(
            f.grid, family.apply(float(b + delta), f).values
            - family.apply(float(b), f).values), spec.order) for b in bases))
    return mods


def whole_state(trajectory: Trajectory, k: int) -> GridFunction:
    """Node k of a march on the whole grid: its row on the carried bins, 0
    elsewhere."""
    values = np.zeros(trajectory.grid.shape, dtype=complex)
    values.reshape(-1)[trajectory.bins] = trajectory.rows[k]
    return GridFunction(trajectory.grid, values)


def _whole_grid_decays(engine: PropagatorEngine, lo, hi):
    """e^{-E} over (lo[k], hi[k]) on every bin, a `row_blocks` block at a time."""
    for part in row_blocks(len(lo), engine.grid.n ** engine.grid.dim):
        yield from np.exp(-engine.exponent(lo[part], hi[part]))


def whole_grid_march(engine: PropagatorEngine, family, s: float, t: float,
                     x: GridFunction, steps: int) -> tuple[list, float]:
    """The states of the trapezoid march of `solve_perturbed` on every bin,
    one step at a time, and its largest Picard factor: B(sigma_{k-1}) V_{k-1}
    through `apply`; for a diagonal family the endpoint divided by
    1 - h/2 m_B(sigma_k) where rhs is nonzero, and the run refused past
    PICARD_REACH; for any other, Picard sweeps to PICARD_TOL."""
    grid = engine.grid
    w = grid.cell_volume
    sigmas = np.linspace(s, t, steps + 1)
    half = 0.5 * (t - s) / steps
    states, contraction = [x.values.copy()], 0.0

    def apply(tau, values):
        return family.apply(tau, GridFunction(grid, values)).values

    for k, decay in enumerate(_whole_grid_decays(engine, sigmas[:-1], sigmas[1:]),
                              start=1):
        lo, hi, prev = float(sigmas[k - 1]), float(sigmas[k]), states[-1]
        rhs = decay * (prev + half * apply(lo, prev))
        if not hasattr(family, "multiplier"):
            v, update = rhs + half * apply(hi, prev), 0.0
            for _ in range(PICARD_SWEEPS):
                v_next = rhs + half * apply(hi, v)
                change = plancherel_norm(v_next - v, w)
                if update > 0.0:
                    contraction = max(contraction, change / update)
                resid = change / max(plancherel_norm(v_next, w), 1e-300)
                v, update = v_next, change
                if resid <= PICARD_TOL:
                    break
            else:
                raise ConvergenceError(f"Picard failed at node {k}", residual=resid)
            states.append(v)
            continue
        m = family.multiplier(hi, grid.xi_axes())
        carried = rhs != 0
        q = half * float(np.max(np.abs(m), where=carried, initial=0.0))
        if q > PICARD_REACH:
            raise ConvergenceError(f"Picard factor {q:.6g} at node {k}", residual=q)
        contraction = max(contraction, q)
        states.append(rhs / np.where(carried, 1.0 - half * m, 1.0))
    return states, contraction


def whole_grid_duhamel(states: list, sigmas: np.ndarray, engine: PropagatorEngine,
                       family) -> float:
    """`duhamel_residual` on the whole-grid `states` at the nodes `sigmas`,
    one step at a time: step j's factors over (sigma_j, sigma_{j+1}) and
    (tau_n, sigma_{j+1}), and B(tau_n) by its node row m_B(tau_n), or by
    `apply` for a family without rows, all on every bin."""
    grid = engine.grid
    w = grid.cell_volume
    steps = len(sigmas) - 1
    xnorm = max(plancherel_norm(states[0], w), 1e-300)
    nodes, weights = gauss_legendre_panels(float(sigmas[0]), float(sigmas[-1]), steps,
                                           DUHAMEL_NODES)
    taus = nodes.reshape(steps, DUHAMEL_NODES)
    decays = _whole_grid_decays(engine, np.column_stack([sigmas[:-1], taus]).ravel(),
                                np.repeat(sigmas[1:], DUHAMEL_NODES + 1))
    weights = weights.reshape(steps, DUHAMEL_NODES)
    acc = np.zeros(grid.shape, dtype=complex)
    current = states[0].copy()
    worst = 0.0
    for j in range(steps):
        lo, hi = float(sigmas[j]), float(sigmas[j + 1])
        step_mult = next(decays)
        contrib = np.zeros(grid.shape, dtype=complex)
        for tau, wn in zip(taus[j].tolist(), weights[j].tolist()):
            frac = (tau - lo) / (hi - lo)
            v_tau = (1.0 - frac) * states[j] + frac * states[j + 1]
            g = (v_tau * family.multiplier(tau, grid.xi_axes())
                 if hasattr(family, "multiplier")
                 else family.apply(tau, GridFunction(grid, v_tau)).values)
            contrib += wn * next(decays) * g
        acc = step_mult * acc + contrib
        current = step_mult * current
        worst = max(worst, plancherel_norm(states[j + 1] - current - acc, w) / xnorm)
    return worst


complex_coefficients = st.builds(complex, st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))


SWEEP_SYMBOLS = dict(lead=st.floats(1.0, 3.0), cross=complex_coefficients,
                     drift=complex_coefficients, shift=complex_coefficients,
                     odd=st.booleans(), omega=st.floats(0.5, 6.0),
                     jump_time=st.floats(0.1, 1.4), jump=complex_coefficients)


def sweep_symbol(dim, kind, lead, cross, drift, shift, odd, omega, jump_time, jump):
    """a = lead (xi_1^2 [+ xi_2^2] + cross xi_1 xi_2) [+ drift i xi_1] + 1 + shift,
    with lead's coefficient constant, oscillating or stepping in t, and its grid."""
    time_part = {"trig": {"trig": ((omega, 0.3, -0.4j),)},
                 "step": {"steps": ((jump_time, jump),)},
                 "autonomous": {}}[kind]
    unit = lambda j: tuple(int(k == j) for k in range(dim))
    coefficients = {tuple(2 * e for e in unit(j)): CoefficientFunction(
        const=-lead, **time_part) for j in range(dim)}
    coefficients[(0,) * dim] = constant(1.0 + shift)
    if dim == 2:
        coefficients[(1, 1)] = constant(-cross)
    if odd:
        coefficients[unit(0)] = constant(drift)
    spec = SymbolSpec(dim=dim, order=2, horizon=1.5, coefficients=coefficients)
    return spec, Grid(dim, 16 if dim == 1 else 8, 2.0 * np.pi)


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


class NaNOffTheGrid:
    """The diagonal family `inner` with NaN rows at every time after
    `after` that is not one of `sigmas`: a march on the sigma grid `sigmas`
    reads finite rows only, and the Duhamel check reads NaN rows at the
    nodes of every step that reaches past `after`."""

    def __init__(self, inner, sigmas, after: float):
        self.inner, self.sigmas, self.after = inner, sigmas, after

    def multiplier(self, t, xi_axes):
        rows = self.inner.multiplier(t, xi_axes)
        off = (np.asarray(t) > self.after) & ~np.isin(t, self.sigmas)
        return np.where(off[..., None] if off.ndim else off, np.nan, rows)

    def apply(self, t, f: GridFunction) -> GridFunction:
        return GridFunction(f.grid, f.values * self.multiplier(t, f.grid.xi_axes()))
