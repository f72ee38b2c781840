"""Independent references for tests of the paper's invariants.

No pipeline runs this code, so it lives with the tests.  It is kept because
each piece backs an invariant the evolution-family theory rests on:

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
* `sampled_sector_ratios` and `sampled_sector_constant`: the lambda sweep
  the sector bound was once measured by, a lower bound on the closed-form
  sup that `check_sector` takes;
* `theta_scan_reference`: the largest of THETA_SCAN's nine angles whose
  sector constant passes the cap on the plan, as `largest_passing_theta`
  scanned before it took theta* in closed form; it must agree with theta*
  on every scan angle;
* `reciprocal_resolvent_quotient` and `sampled_resolvent_lipschitz`: the
  C' quotient as a difference of reciprocals, the form
  `check_resolvent_lipschitz` took before it factored out the slope
  |a(t) - a(s)|/(t - s); it cancels on near-coincident pairs;
* `kato_reference`: the Kato product sweep one partition and one lambda
  at a time, as `check_kato_stability` measured it before it took one
  log|lambda + a| table per lambda; it must give the same record bit for bit;
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
* `heat_symbol`, `oscillating_symbol` and `drift_symbol`: the autonomous,
  time-dependent and non-elliptic symbols the fixtures are built from;
* `constant_field`: a constant transport coefficient, the case the
  characteristics oracle solves exactly.
"""

import numpy as np

from evofam.assumptions import (RESOLVENT_MODULUS_RANGE, SamplePlan, StabilityCertificate,
                                _pair_table, _partitions, _refined, _sector_lambdas,
                                _sector_measure, _symbol_matrix)
from evofam.errors import ConfigurationError, DomainError, NumericError
from evofam.evolution import RULE_OFFSETS, PropagatorEngine
from evofam.semigroup import FrozenOperator, gauss_legendre_panels
from evofam.perturbation import BASE_POINTS, SEPARATIONS
from evofam.spectral import (Grid, GridFunction, apply_multiplier, norm, plancherel_norm,
                             row_blocks)
from evofam.symbols import CoefficientFunction, SymbolSpec, constant
from evofam.transport import (TimeSpaceCoefficient, TransportProblem,
                              TransportState, transport_solve)

SINGULAR_TOL = 1e-14    # |lambda + a| below which the resolvent is singular
COCYCLE_TOL = 1e-10     # exact-engine cocycle (exponent additivity over ~1e2 bins)
MODULUS_RANGE = (1e-3, 1e6)   # |lambda| range of the sampled sector sweep
THETA_SCAN = np.pi * np.linspace(0.55, 0.95, 9)   # angles of the sector-angle scan


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
    diff = GridFunction(f.grid, "frequency", two_leg.values - one_leg.values)
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
    return norm(GridFunction(engine.grid, "frequency", resid))


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
    return max(float(np.sqrt(np.sum((rate * np.abs(f.to_frequency().values)) ** 2)
                             * grid.cell_volume)) for f in vectors)


def sampled_sector_ratios(a: np.ndarray, theta: float, moduli_per_ray: int) -> np.ndarray:
    """|lambda|/|lambda + a| at every lambda of the sampled sweep, shape
    (lambdas,) + a.shape: `moduli_per_ray` log-spaced moduli over
    MODULUS_RANGE on the rays of `_sector_lambdas`."""
    lams = _sector_lambdas(theta, np.geomspace(*MODULUS_RANGE, moduli_per_ray))
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
    """Largest THETA_SCAN angle whose sector constant M on `plan` is at most
    its cap (nan if none), one pass over the (t, xi) cells per angle."""
    best = float("nan")
    for theta in THETA_SCAN:
        if _sector_measure(spec, grid, float(theta), plan)[0] <= plan.cap:
            best = float(theta)
    return best


def reciprocal_resolvent_quotient(lam: complex, a_s, a_t, dt):
    """|lambda| |1/(lambda + a_t) - 1/(lambda + a_s)| / dt in this order of
    operations."""
    return np.abs(lam) * np.abs(1.0 / (lam + a_t) - 1.0 / (lam + a_s)) / dt


def sampled_resolvent_lipschitz(spec: SymbolSpec, grid: Grid, theta: float,
                                plan: SamplePlan) -> float:
    """C' on the plan's pairs and lambdas (no refinement) in the reciprocal
    form, as `check_resolvent_lipschitz` measured it before the factored
    quotient; quotients are assumed finite."""
    (s, t, i, k), a, _ = _pair_table(spec, grid, plan.resolvent_pair_grid)
    lams = _sector_lambdas(theta, np.geomspace(*RESOLVENT_MODULUS_RANGE,
                                               plan.resolvent_moduli))
    dt = (t - s)[:, None]
    return float(max(np.max(reciprocal_resolvent_quotient(lam, a[i], a[k], dt))
                     for lam in lams))


def kato_reference(spec: SymbolSpec, grid: Grid, plan: SamplePlan = SamplePlan(),
                   m: float = 1.0, omega: float | None = None) -> StabilityCertificate:
    """`check_kato_stability` as one loop over (partition, lambda): a log of
    |lambda + a| on every factor row of every partition."""

    def measure(p: SamplePlan):
        rng = np.random.default_rng(p.seed)
        ts = np.linspace(0.0, spec.horizon, p.time_samples)
        a = _symbol_matrix(spec, grid, ts)
        w = omega if omega is not None else -float(np.min(a.real))
        lams = w + np.geomspace(1e-1, 1e3, p.kato_lambdas)
        anchors = np.linspace(0.0, spec.horizon, 9)
        t_index = lambda t: int(round(t / spec.horizon * (len(ts) - 1)))

        worst_res, worst_semi, tested = 0.0, 0.0, 0
        for k in range(1, p.kato_kmax + 1):
            parts = _partitions(spec.horizon, k, p.kato_partitions, rng, anchors)
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
        return max(worst_res, worst_semi), w, worst_res, worst_semi, tested

    (_, w, res_base, semi_base, tested), fine, delta = _refined(measure, plan)
    return StabilityCertificate(
        m=m, omega=w, kmax=plan.kato_kmax, partitions_tested=tested,
        max_resolvent_ratio=res_base, max_semigroup_ratio=semi_base,
        refined_ratio=fine, refinement_delta=delta)


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
    fhat = f.to_frequency().values
    errors = []
    for n in step_counts:
        dt = (t - s) / n
        nodes = s + (np.arange(n) + offset) * dt
        total = np.zeros(f.grid.shape, dtype=complex)
        for part in row_blocks(n, PRODUCT_BLOCK_DIVISOR * f.grid.n ** f.grid.dim):
            for row in spec.time_matrix(nodes[part], axes):
                total += dt * row
        diff = GridFunction(f.grid, "frequency", fhat * np.exp(-total) - target.values)
        errors.append(norm(diff))
    return errors


def bessel_weight(grid: Grid, m: float) -> np.ndarray:
    """(1 + |xi|^2)^{-m/2} on `grid`: the weight of the order -m Sobolev norm."""
    return (1.0 + grid.xi_squared()) ** (-m / 2.0)


def bessel_norm(f: GridFunction, m: float) -> float:
    """|| (1 + |xi|^2)^{-m/2} f^ ||_L2, the order -m Sobolev norm of f."""
    return plancherel_norm(bessel_weight(f.grid, m) * np.abs(f.to_frequency().values),
                           f.grid.cell_volume)


def dual_scale_moduli(family, f: GridFunction, spec: SymbolSpec) -> list:
    """Per delta of SEPARATIONS, the max over the base points t = 0 and
    BASE_POINTS points of [1e-3, T - delta] of ||B(b + delta) f - B(b) f||
    in the Bessel norm of order -spec.order."""
    fhat = f.to_frequency()
    mods = []
    for delta in SEPARATIONS:
        bases = np.concatenate([[0.0], np.linspace(1e-3, spec.horizon - delta, BASE_POINTS)])
        mods.append(max(bessel_norm(GridFunction(
            f.grid, "frequency", family.apply(float(b + delta), fhat).values
            - family.apply(float(b), fhat).values), spec.order) for b in bases))
    return mods


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
