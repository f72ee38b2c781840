import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofam import perturbation as per
from evofam.errors import ConfigurationError, ConvergenceError, NumericError, UnsupportedError
from evofam.evolution import PropagatorEngine, observed_orders
from evofam.perturbation import (SEPARATIONS, Mollifier, MultiplierFamily,
                                 SmoothingComposite, _slope, commuting_oracle,
                                 duhamel_residual, perturbation_regularity_report,
                                 perturbed_family_checks, solve_perturbed)
from evofam.spectral import (Grid, GridFunction, indicator, inverse_transform, mode,
                             norm, random_band_limited)
from evofam.symbols import CoefficientFunction, SymbolSpec, constant
from reference import (NaNOffTheGrid, dual_scale_moduli, heat_symbol, oscillating_symbol,
                       whole_grid_duhamel, whole_grid_march, whole_state)


@pytest.fixture(scope="module")
def engine(td1, grid):
    return PropagatorEngine(td1, grid)


@pytest.fixture(scope="module")
def xband(grid):
    r = np.random.default_rng(21)
    return random_band_limited(grid, r, band=4)


class TestMollifierAction:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_identity_at_zero(self, rng, dim):
        # sinc(0) = 1 exactly, so the sinc multiplier is B(0) = Id bit for bit
        g = Grid(dim, 32, 2.0 * np.pi)
        f = random_band_limited(g, rng)
        out = Mollifier().apply(0.0, f)
        assert np.array_equal(out.values, f.values)

    def test_mean_preserved(self, grid):
        f = indicator(grid)
        out = Mollifier().apply(0.7, f)
        assert out.values[0] == pytest.approx(f.values[0])

    def test_indicator_becomes_trapezoid(self, grid):
        vals = inverse_transform(Mollifier().apply(0.5, indicator(grid)).values).real
        x = grid.points_axis()
        assert vals[0] == pytest.approx(0.5, abs=0.01)          # edge midpoint
        j = int(np.argmin(np.abs(x - 0.5)))
        assert vals[j] == pytest.approx(1.0, abs=0.01)          # plateau apex
        # linear ramp between: value at x = 0.25 is about 0.75
        j4 = int(np.argmin(np.abs(x - 0.25)))
        assert vals[j4] == pytest.approx(0.75, abs=0.01)

    def test_contraction_in_l2(self, grid, rng):
        f = random_band_limited(grid, rng)
        for t in (0.1, 0.5, 2.0):
            assert norm(Mollifier().apply(t, f)) \
                <= norm(f) * (1.0 + 1e-12)

    def test_2d_product_multiplier(self, rng):
        g2 = Grid(2, 32, 2.0 * np.pi)
        f = random_band_limited(g2, rng, band=4)
        out = Mollifier().apply(0.3, f)
        assert norm(out) <= norm(f) * (1.0 + 1e-12)
        idx = (0, 0)
        assert out.values[idx] == pytest.approx(f.values[idx])


@pytest.fixture(scope="module")
def report(grid, td1, xband):
    return perturbation_regularity_report(
        Mollifier(), [indicator(grid), xband], td1)


class TestRegularityReport:
    def test_indicator_l2_slope_half(self, report):
        fit = report.slopes_l2[0]
        assert 0.4 <= fit.slope <= 0.6
        assert fit.residual <= 0.05

    def test_indicator_dual_scale_slope_one(self, report, grid, td1):
        fit = _slope(SEPARATIONS, dual_scale_moduli(Mollifier(), indicator(grid), td1))
        assert 0.9 <= fit.slope <= 1.1
        assert fit.residual <= 0.05
        fit_e = report.slopes_extrapolated[0]
        assert 0.9 <= fit_e.slope <= 1.1

    def test_sup_norms_contractive(self, report):
        assert all(v <= 1.0 + 1e-9 for v in report.sup_norm)

    def test_dual_lipschitz_constants_finite(self, report, grid, td1, xband):
        for f in (indicator(grid), xband):
            mods = dual_scale_moduli(Mollifier(), f, td1)
            assert np.isfinite(max(m / d for m, d in zip(mods, SEPARATIONS)))
        assert all(np.isfinite(v) for v in report.lip_extrapolated)

    def test_each_row_is_built_once_per_visit(self, grid, td1, xband, monkeypatch):
        # 24 sup-norm times, then 6 separations x 17 base points x 2 ends,
        # each row shared by both vectors
        builds = []
        rows = per._rows
        monkeypatch.setattr(per, "_rows", lambda family, t, axes, build: rows(
            family, t, axes, lambda t: builds.append(t) or build(t)))
        perturbation_regularity_report(Mollifier(), [indicator(grid), xband], td1)
        assert len(builds) == 228

    @pytest.mark.parametrize("horizon,kept", [(0.3, SEPARATIONS[1:]), (0.01, ())])
    def test_times_stay_in_the_horizon(self, monkeypatch, horizon, kept):
        # a separation delta is measured only if a base pair fits in [0, T]
        grid = Grid(1, 64, 2.0 * np.pi)
        family = MultiplierFamily(constant(0.5))
        times = []
        apply = MultiplierFamily.apply
        monkeypatch.setattr(MultiplierFamily, "apply",
                            lambda self, t, f: times.append(t) or apply(self, t, f))
        report = perturbation_regularity_report(family, [indicator(grid)],
                                                heat_symbol(horizon=horizon))
        assert times and 0.0 <= min(times) and max(times) <= horizon
        assert report.separations == kept
        if not kept:
            assert np.isnan(report.lip_extrapolated[0]) and np.isnan(report.slopes_l2[0].slope)

    def test_a_base_pair_straddles_each_jump(self, monkeypatch):
        # c(t) = 0.5 + 0.1 [t >= 0.5]: every modulus holds the jump, so no
        # L2 modulus is 0 and the L2 slope is near 0
        grid = Grid(1, 64, 2.0 * np.pi)
        family = MultiplierFamily(CoefficientFunction(const=0.5, steps=((0.5, 0.1),)))
        fitted = []
        slope = per._slope
        monkeypatch.setattr(per, "_slope",
                            lambda seps, values: fitted.append(list(values))
                            or slope(seps, values))
        x = random_band_limited(grid, np.random.default_rng(3), band=4)
        report = perturbation_regularity_report(family, [indicator(grid), x],
                                                heat_symbol(horizon=1.0))
        assert all(m > 0.0 for mods in fitted[:2] for m in mods)     # L2 first
        assert all(abs(fit.slope) <= 0.1 for fit in report.slopes_l2)

    def test_fewer_than_two_separations_give_no_slope(self):
        fit = _slope(SEPARATIONS[:1], [1.0])
        assert np.isnan(fit.slope) and fit.separations == 1

    def test_loglog_fit_recovers_powers(self):
        xs = 2.0 ** (-np.arange(1, 8))
        fit = _slope(xs, 3.0 * xs**1.5)
        assert fit.slope == pytest.approx(1.5, abs=1e-9)
        assert fit.residual <= 1e-12


@pytest.mark.parametrize("den", [(0.0,), ()], ids=["zero", "empty"])
def test_zero_denominator_vanishes_everywhere_on_the_grid(den):
    # the grid's pole check also refuses a denominator with no nonzero term
    family = MultiplierFamily(profile_den=den)
    with pytest.raises(ConfigurationError, match=r"vanishes at \|xi\|\^2 = 0\.0 on the grid"):
        family.multiplier(0.5, Grid(1, 16, 2.0 * np.pi).xi_axes())


class ApplyOnly:
    """A diagonal family (a Mollifier unless given) seen only through
    `apply`, as a non-diagonal family is: the march resolves its endpoint by
    Picard sweeps."""

    def __init__(self, inner=None):
        self.inner = inner if inner is not None else Mollifier()

    def apply(self, t, f):
        return self.inner.apply(t, f)


class TestVolterraSolver:
    def test_zero_perturbation_reproduces_engine(self, engine, grid, xband):
        zero = MultiplierFamily(constant(0.0))
        traj = solve_perturbed(engine, zero, 0.0, 1.0, xband, 128)
        ref = engine.propagate(0.0, 1.0, xband)
        diff = norm(GridFunction(grid, traj.final().values - ref.values))
        assert diff <= 1e-12
        assert duhamel_residual(traj, engine, zero) <= 1e-10

    def test_commuting_oracle_zero_mode(self, engine, grid):
        fam = MultiplierFamily(constant(0.5))
        x = mode(grid, 0)
        traj = solve_perturbed(engine, fam, 0.0, 1.0, x, 1024)
        assert norm(traj.final()) == pytest.approx(np.exp(-0.5), abs=1e-6)

    def test_commuting_oracle_band(self, engine, grid, xband):
        fam = MultiplierFamily(constant(0.5))
        oracle = commuting_oracle(engine, fam, 0.0, 1.0, xband)
        errs = []
        for m in (256, 512, 1024):
            traj = solve_perturbed(engine, fam, 0.0, 1.0, xband, m)
            errs.append(norm(GridFunction(grid, traj.final().values - oracle.values)))
        assert errs[-1] <= 1e-6
        for ratio in (errs[0] / errs[1], errs[1] / errs[2]):
            assert 3.4 <= ratio <= 4.6

    def test_oracle_requires_integrable_family(self, engine, grid, xband):
        with pytest.raises(UnsupportedError):
            commuting_oracle(engine, Mollifier(), 0.0, 1.0, xband)

    def test_duhamel_residual_converged(self, engine, grid, xband):
        traj = solve_perturbed(engine, Mollifier(), 0.0, 1.0, xband, 1024)
        assert duhamel_residual(traj, engine, Mollifier()) <= 1e-6

    def test_zero_initial(self, engine, grid):
        # zero data carries no bin: the march and its Duhamel check run on
        # rows of no values and give exactly 0
        z = GridFunction(grid, np.zeros(grid.shape, dtype=complex))
        traj = solve_perturbed(engine, Mollifier(), 0.0, 0.5, z, 64)
        assert traj.rows.shape == (65, 0)
        assert traj.final().values.tobytes() == z.values.tobytes()
        assert duhamel_residual(traj, engine, Mollifier()) == 0.0

    def test_mollifier_growth_bound(self, engine, grid, xband):
        # omega = -1 and sup ||B|| <= 1: perturbed norms stay below ||x||
        traj = solve_perturbed(engine, Mollifier(), 0.0, 2.0, xband, 256)
        assert (max(norm(whole_state(traj, k)) for k in range(len(traj.rows)))
                <= norm(xband) * (1.0 + 1e-9))

    def test_picard_failure_reported(self, engine, grid, xband):
        big = MultiplierFamily(constant(4000.0), profile_num=(1.0,),
                               profile_den=(1.0,))
        with pytest.raises(ConvergenceError):
            solve_perturbed(engine, big, 0.0, 1.0, xband, 16)

    def test_contraction_is_the_measured_sweep_ratio(self):
        # B = 0.5 |xi|^2 has the generator's order: on 64 bins and 1024 steps
        # over [0, 0.9] the sweeps contract by nearly h sup|m_B| / 2 = 0.225,
        # and the diagonal march reports the a-priori factor on the modes it
        # carries: the indicator's Nyquist coefficient is 0, so |xi| = 31
        grid = Grid(1, 64, 2.0 * np.pi)
        engine = PropagatorEngine(heat_symbol(horizon=1.0), grid)
        family = MultiplierFamily(constant(0.5), profile_num=(0.0, 1.0),
                                  profile_den=(1.0,))
        traj = solve_perturbed(engine, ApplyOnly(family), 0.0, 0.9, indicator(grid), 1024)
        bound = 0.5 * (0.9 / 1024) * np.max(np.abs(family.multiplier(0.0, grid.xi_axes())))
        assert bound == pytest.approx(0.225)
        assert 0.1 <= traj.contraction <= 1.05 * bound
        diagonal = solve_perturbed(engine, family, 0.0, 0.9, indicator(grid), 1024)
        assert diagonal.contraction == 0.5 * (0.9 / 1024) * 0.5 * 31**2 < bound
        assert (diagonal.sweeps_max, diagonal.last_residual) == (0, 0.0)

    def test_factor_is_taken_on_the_carried_modes(self):
        # B = 0.5 |xi|^2 on 128 bins: h sup|m_B| / 2 = 0.9 on the grid, but
        # band-4 data carries |xi| <= 4 only, where the factor is 0.0035 and
        # the sweeps contract; the division solves the same run, with 0 on
        # every other mode
        grid = Grid(1, 128, 2.0 * np.pi)
        engine = PropagatorEngine(heat_symbol(horizon=1.0), grid)
        family = MultiplierFamily(constant(0.5), profile_num=(0.0, 1.0),
                                  profile_den=(1.0,))
        x = random_band_limited(grid, np.random.default_rng(1), band=4)
        swept = solve_perturbed(engine, ApplyOnly(family), 0.0, 0.9, x, 1024)
        divided = solve_perturbed(engine, family, 0.0, 0.9, x, 1024)
        assert divided.contraction == pytest.approx(0.5 * (0.9 / 1024) * 0.5 * 4**2)
        assert swept.contraction <= 1.05 * divided.contraction
        assert np.array_equal(divided.bins, np.flatnonzero(x.values))
        assert np.array_equal(swept.bins, np.arange(grid.n))
        tol = 1024 * per.PICARD_TOL * norm(x)
        for k in range(1025):
            u, v = whole_state(divided, k), whole_state(swept, k)
            assert norm(GridFunction(grid, u.values - v.values)) <= tol

    def test_factor_beyond_the_reach_is_refused_before_the_node(self, monkeypatch):
        # c jumps from 0.1 to 1 / (h/2) at sigma = 0.5, node 4 of 8: there
        # 1 - h/2 m_B = 0, and a division would warn (an error under the test
        # settings), so the refusal must come before it
        grid = Grid(1, 16, 2.0 * np.pi)
        engine = PropagatorEngine(heat_symbol(horizon=1.0), grid)
        family = MultiplierFamily(CoefficientFunction(const=0.1, steps=((0.5, 15.9),)),
                                  profile_num=(1.0,), profile_den=(1.0,))
        x = random_band_limited(grid, np.random.default_rng(6), band=4)
        builds = []
        rows = per._rows
        monkeypatch.setattr(per, "_rows", lambda family, t, axes, build: rows(
            family, t, axes, lambda t: builds.append(np.ravel(t).tolist()) or build(t)))
        with pytest.raises(ConvergenceError) as info:
            solve_perturbed(engine, family, 0.0, 1.0, x, 8)
        assert str(info.value) == ("Picard factor 1 exceeds the sweeps' reach 0.251189 "
                                   "at node 4 of 8 (sigma=0.5) in the 8-step run")
        assert info.value.residual == 1.0 > per.PICARD_REACH
        # the 8 steps fit one block: its endpoint rows come in one build, the
        # divisors 1 - h/2 m_B beside them (a subtraction, so no warning), and
        # then the whole-grid row at sigma_0 for B(s)x
        assert builds == [[k / 8 for k in range(1, 9)], [0.0]]
        # the same family seen through `apply` fails its sweeps at that node
        with pytest.raises(ConvergenceError, match=r"^Picard failed to contract "
                                                   r"at node 4 of 8 \(sigma=0\.5\)"):
            solve_perturbed(engine, ApplyOnly(family), 0.0, 1.0, x, 8)

    @pytest.mark.parametrize("family", ["mollifier", "multiplier"])
    def test_diagonal_march_applies_b_once_per_run(self, monkeypatch, family):
        # only the first explicit term B(s)x goes through `apply`, on the
        # whole grid (the tracer's b_apply_per_step reads 1/M); every other
        # step reuses the endpoint row of the step before
        fam = LEG_FAMILIES[family]
        engine = PropagatorEngine(heat_symbol(horizon=1.0), LEG_GRID)
        x = random_band_limited(LEG_GRID, np.random.default_rng(7), band=4)
        calls = []
        apply = type(fam).apply
        monkeypatch.setattr(type(fam), "apply", lambda self, t, f: calls.append(
            (t, f.values.shape)) or apply(self, t, f))
        solve_perturbed(engine, fam, 0.25, 0.9, x, 37)
        assert calls == [(0.25, LEG_GRID.shape)]


def pipeline_checks(engine, family, s, t, x, steps):
    """The cocycle defect of perturbed_family_checks on the s -> t runs at
    `steps` and `steps // 2`, the two runs `perturb` marches: the first run's
    first and final states and the second run's final state."""
    full = solve_perturbed(engine, family, s, t, x, steps)
    half = solve_perturbed(engine, family, s, t, x, steps // 2)
    return perturbed_family_checks(x, full.final(), half.final())


def composed_defect(engine, family, s, r, t, x, steps):
    """||V(t,r)V(r,s)x - V(t,s)x|| / ||x|| with each of the three runs at
    `steps` on its own ladder: off the midpoint the legs do not retrace the
    s -> t run, so the defect measures genuine discretization."""
    whole = solve_perturbed(engine, family, s, t, x, steps)
    leg1 = solve_perturbed(engine, family, s, r, x, steps)
    leg2 = solve_perturbed(engine, family, r, t, leg1.final(), steps)
    diff = GridFunction(x.grid, leg2.final().values - whole.final().values)
    return norm(diff) / norm(x)


class TestPerturbedFamily:
    def test_commuting_cocycle_tracks_oracle(self, engine, grid, xband):
        fam = MultiplierFamily(constant(0.5))
        assert pipeline_checks(engine, fam, 0.0, 1.0, xband, 1024) <= 1e-6

    def test_smoothing_self_convergence(self, engine, grid, xband):
        defects = [composed_defect(engine, SmoothingComposite(order=2),
                                   0.0, 0.7, 1.5, xband, m)
                   for m in (128, 256, 512)]
        orders = observed_orders(defects, [128, 256, 512])
        assert all(o >= 1.7 for o in orders)

    def test_zero_perturbation_cocycle(self, engine, grid, xband):
        zero = MultiplierFamily(constant(0.0))
        assert pipeline_checks(engine, zero, 0.0, 1.0, xband, 512) <= 1e-10

    def test_reads_s_t_and_x_from_the_trajectory(self, engine, xband):
        fam = MultiplierFamily(constant(0.5))
        # legs through r = 0.6, off the aligned ladder, obey the same law
        assert composed_defect(engine, fam, 0.25, 0.6, 1.0, xband, 64) <= 1e-6


LEG_GRID = Grid(1, 64, 2.0 * np.pi)
LEG_FAMILIES = {"multiplier": MultiplierFamily(constant(0.5)),
                "mollifier": Mollifier(), "smoothing": SmoothingComposite(2)}
LEG_STEPS = 32


@pytest.mark.parametrize("s", [0.0, 0.25])
@pytest.mark.parametrize("family", sorted(LEG_FAMILIES))
@pytest.mark.parametrize("symbol", ["heat", "oscillating"])
def test_midpoint_legs_retrace_the_whole_run(symbol, family, s):
    """The midpoint legs of m steps march the two halves of the 2m-step
    s -> t run: leg 1 ends at its node m and leg 2 at its final state, within
    16 eps ||x|| (a run peaked at 1.6 eps).  This is why the family checks
    read the cocycle defect off the pipeline's M- and M/2-step runs.  At
    t = 0.9 the legs' nodes are not dyadic, so they differ from the whole
    run's nodes by roundoff."""
    spec = heat_symbol(horizon=1.0) if symbol == "heat" else oscillating_symbol()
    engine = PropagatorEngine(spec, LEG_GRID)
    fam = LEG_FAMILIES[family]
    x = random_band_limited(LEG_GRID, np.random.default_rng(5), band=4)
    t = 0.9
    r = 0.5 * (s + t)
    whole = solve_perturbed(engine, fam, s, t, x, 2 * LEG_STEPS)
    leg1 = solve_perturbed(engine, fam, s, r, x, LEG_STEPS)
    leg2 = solve_perturbed(engine, fam, r, t, leg1.final(), LEG_STEPS)
    tol = 16 * np.finfo(float).eps * norm(x)
    for leg, node in ((leg1, whole_state(whole, LEG_STEPS)), (leg2, whole.final())):
        assert norm(GridFunction(LEG_GRID, leg.final().values - node.values)) <= tol


COMMUTING_GRID = Grid(1, 64, 2.0 * np.pi)
COMMUTING_SYMBOLS = {"heat": heat_symbol(horizon=1.0), "oscillating": oscillating_symbol()}
COMMUTING_STEPS = 128


@settings(max_examples=20, deadline=None)
@given(c=st.floats(-2.0, 2.0), a=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0),
       symbol=st.sampled_from(sorted(COMMUTING_SYMBOLS)),
       seed=st.integers(0, 2**32 - 1))
def test_commuting_solve_matches_oracle_and_duhamel(c, a, b, symbol, seed):
    """A constant multiplier family commutes with every symbol: on random
    families and band-4 unit vectors over [0, 1] the Volterra solution
    satisfies the Duhamel identity and matches the closed-form oracle.

    The bound is 1e-4 or, for strong families, the composite trapezoid
    error term h^2/12 sup|g''| of the Duhamel integrand g ~ m e^{m sigma}
    with m = sup|m_B| = |c| a (at xi = 0): h^2/12 m^3 e^{max(c a, 0)}.
    At c = a = 2 the oracle error is 2.2e-3, about 1/8 of that term."""
    engine = PropagatorEngine(COMMUTING_SYMBOLS[symbol], COMMUTING_GRID)
    family = MultiplierFamily(constant(c), profile_num=(a,), profile_den=(1.0, b))
    x = random_band_limited(COMMUTING_GRID, np.random.default_rng(seed), band=4)
    traj = solve_perturbed(engine, family, 0.0, 1.0, x, COMMUTING_STEPS)
    oracle = commuting_oracle(engine, family, 0.0, 1.0, x)
    error = norm(GridFunction(COMMUTING_GRID, traj.final().values - oracle.values))
    m = abs(c) * a
    tol = max(1e-4, m**3 * np.exp(max(c * a, 0.0)) / (12.0 * COMMUTING_STEPS**2))
    assert duhamel_residual(traj, engine, family) <= tol
    assert error <= tol


ROW_FAMILIES = {"mollifier": Mollifier(),
                "multiplier": MultiplierFamily(
                    CoefficientFunction(const=0.5, poly=((1, 0.25),),
                                        trig=((3.0, 0.1, -0.2),), steps=((0.4, 0.3),)),
                    profile_num=(1.0, 0.5), profile_den=(1.0, 1.0))}


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(sorted(ROW_FAMILIES)), dim=st.sampled_from([1, 2]),
       on_bins=st.booleans(), times=st.lists(st.floats(0.0, 7.0), min_size=1, max_size=9))
def test_multiplier_rows_equal_the_scalar_call(family, dim, on_bins, times):
    """`multiplier` on an array of times gives one row per time, each the
    scalar call bit for bit, so the Duhamel check may read its node rows by
    the block: on the grid's axes, and on the 1-D axes of a set of bins."""
    fam = ROW_FAMILIES[family]
    grid = Grid(dim, 16, 2.0 * np.pi)
    bins = np.arange(3, grid.n ** dim, 5)
    axes = grid.xi_axes_at(bins) if on_bins else grid.xi_axes()
    rows = fam.multiplier(np.array(times), axes)
    assert rows.shape == (len(times),) + ((bins.size,) if on_bins else grid.shape)
    for t, row in zip(times, rows):
        assert row.tobytes() == fam.multiplier(t, axes).tobytes()


def test_scalar_row_is_kept_read_only_until_t_or_the_axes_change():
    fam = Mollifier()
    axes = LEG_GRID.xi_axes()
    row = fam.multiplier(0.3, axes)
    assert not row.flags.writeable
    assert fam.multiplier(0.3, axes) is row
    assert fam.multiplier(0.4, axes) is not row
    # writeable axes may change in place, so their rows are rebuilt
    loose = tuple(ax.copy() for ax in axes)
    first = fam.multiplier(0.3, loose)
    loose[0][1] = 0.0
    assert fam.multiplier(0.3, loose)[1] == 1.0 != first[1]


ROW_STEPS = 100


def test_each_sinc_row_is_built_once(monkeypatch):
    """The march builds B(sigma_k) once for all its uses (its endpoint, the
    next step's explicit term and every Picard sweep): M + 1 rows on M
    steps.  A diagonal march takes the M endpoint rows on the bins x carries
    by the block of steps, one `np.sinc` call per block, and then the row at
    sigma_0 on the whole grid, for its one `apply`; the Duhamel check takes
    its 4M node rows on those bins too, by the block of BLOCK_ELEMENTS /
    (5 |carried|) steps (a step reads 5 factors e^{-E})."""
    from evofam import spectral
    engine = PropagatorEngine(heat_symbol(horizon=1.0), LEG_GRID)
    x = random_band_limited(LEG_GRID, np.random.default_rng(3), band=4)
    carried = np.count_nonzero(x.values)
    assert carried == 9
    sinc, sizes = np.sinc, []

    def counted(v):
        sizes.append(np.size(v))
        return sinc(v)

    monkeypatch.setattr(np, "sinc", counted)
    # the sweeps of an apply-only march reuse the endpoint row too
    swept = solve_perturbed(engine, ApplyOnly(), 0.0, 0.9, x, ROW_STEPS)
    assert swept.sweeps_max >= 2
    assert sizes == [LEG_GRID.n] * (ROW_STEPS + 1)
    sizes.clear()
    traj = solve_perturbed(engine, Mollifier(), 0.0, 0.9, x, ROW_STEPS)
    assert traj.sweeps_max == 0
    assert spectral.BLOCK_ELEMENTS // carried >= ROW_STEPS
    assert sizes == [carried * ROW_STEPS, LEG_GRID.n]
    sizes.clear()
    duhamel_residual(traj, engine, Mollifier())
    per_block = spectral.BLOCK_ELEMENTS // ((per.DUHAMEL_NODES + 1) * carried)
    nodes = per.DUHAMEL_NODES * ROW_STEPS
    assert len(sizes) == -(-ROW_STEPS // per_block)
    assert sum(sizes) == nodes * carried


def test_block_rows_match_the_per_node_apply():
    # the Duhamel check reads a Mollifier's node rows by the block and an
    # apply-only family's node by node: on one trajectory the residuals
    # agree bit for bit
    engine = PropagatorEngine(oscillating_symbol(), LEG_GRID)
    x = random_band_limited(LEG_GRID, np.random.default_rng(4), band=4)
    traj = solve_perturbed(engine, ApplyOnly(), 0.25, 0.9, x, ROW_STEPS)
    assert (duhamel_residual(traj, engine, Mollifier())
            == duhamel_residual(traj, engine, ApplyOnly()))


def test_a_non_finite_duhamel_node_is_refused():
    """Rows that are NaN between the sigma nodes past sigma = 0.5 leave the
    march finite and unchanged, but make every Duhamel residual from the
    first step past 0.5 on NaN: the check names that node instead of
    returning the max over the nodes before it."""
    engine = PropagatorEngine(heat_symbol(horizon=1.0), LEG_GRID)
    x = random_band_limited(LEG_GRID, np.random.default_rng(2), band=4)
    clean = MultiplierFamily(constant(0.5))
    sigmas = np.linspace(0.0, 1.0, 9)
    dirty = NaNOffTheGrid(clean, sigmas, 0.5)
    traj = solve_perturbed(engine, dirty, 0.0, 1.0, x, 8)
    assert traj.rows.tobytes() == solve_perturbed(engine, clean, 0.0, 1.0, x, 8).rows.tobytes()
    assert np.isfinite(duhamel_residual(traj, engine, clean))
    with pytest.raises(NumericError) as info:
        duhamel_residual(traj, engine, dirty)
    # step 4 runs over (0.5, 0.625): node 5 is the first past 0.5
    assert str(info.value) == "non-finite Duhamel residual at node 5 of 8 (sigma=0.625)"
    assert info.value.witness == {"node": 5, "sigma": 0.625}


def test_division_matches_the_picard_sweeps():
    # the sweeps stop each node at a relative update of PICARD_TOL, so the
    # two marches of one Mollifier agree within steps * PICARD_TOL ||x||
    # (measured: 1e-14 ||x||)
    engine = PropagatorEngine(oscillating_symbol(), LEG_GRID)
    x = random_band_limited(LEG_GRID, np.random.default_rng(4), band=4)
    divided = solve_perturbed(engine, Mollifier(), 0.25, 0.9, x, ROW_STEPS)
    swept = solve_perturbed(engine, ApplyOnly(), 0.25, 0.9, x, ROW_STEPS)
    tol = ROW_STEPS * per.PICARD_TOL * norm(x)
    for k in range(ROW_STEPS + 1):
        u, v = whole_state(divided, k), whole_state(swept, k)
        assert norm(GridFunction(LEG_GRID, u.values - v.values)) <= tol


BLOCK_STEPS = 10


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("family", sorted(LEG_FAMILIES))
def test_block_boundaries_leave_the_march_unchanged(monkeypatch, family, rows):
    """Both marches and the Duhamel check take a block of steps at a time.
    At the default budget the 10-step run and its Duhamel check (5 rows a
    step) each fit one block; a budget of `rows` grid rows per block (1: a
    block per step, 3: march blocks of 3 steps, which do not divide the 10)
    must give the same states and residual bit for bit."""
    from evofam import spectral
    engine = PropagatorEngine(oscillating_symbol(), LEG_GRID)
    fam = LEG_FAMILIES[family]
    x = random_band_limited(LEG_GRID, np.random.default_rng(9), band=4)

    def march():
        traj = solve_perturbed(engine, fam, 0.25, 0.9, x, BLOCK_STEPS)
        return traj.rows.tobytes(), duhamel_residual(traj, engine, fam)

    assert spectral.BLOCK_ELEMENTS >= (per.DUHAMEL_NODES + 1) * BLOCK_STEPS * LEG_GRID.n
    default = march()
    monkeypatch.setattr(spectral, "BLOCK_ELEMENTS", rows * LEG_GRID.n)
    assert march() == default


CARRIED_GRID = Grid(1, 64, 2.0 * np.pi)
CARRIED_SYMBOLS = {
    "heat": heat_symbol(horizon=1.0), "oscillating": oscillating_symbol(),
    # a = xi^2 + (0.5 cos 3t + 0.2 sin 3t) i xi + 1 + 0.3 sin 2t: complex decays
    "trig": SymbolSpec(dim=1, order=2, horizon=1.0, coefficients={
        (2,): constant(-1.0), (1,): CoefficientFunction(trig=((3.0, 0.5, 0.2),)),
        (0,): CoefficientFunction(const=1.0, trig=((2.0, 0.0, 0.3),))})}


def assert_carried_march_is_the_whole_grid_march(engine, family, x, steps):
    """The march on the bins x carries (every bin for an apply-only family)
    against `whole_grid_march`: each state bit for bit on those bins and
    exactly 0 off them, the same Picard factor and the same Duhamel
    residual."""
    traj = solve_perturbed(engine, family, 0.25, 0.9, x, steps)
    states, contraction = whole_grid_march(engine, family, 0.25, 0.9, x, steps)
    bins = (np.flatnonzero(x.values) if hasattr(family, "multiplier")
            else np.arange(x.values.size))
    assert np.array_equal(traj.bins, bins)
    assert len(traj.rows) == len(states)
    for k, ref in enumerate(states):
        ours, ref = whole_state(traj, k).values.reshape(-1), ref.reshape(-1)
        assert ours[bins].tobytes() == ref[bins].tobytes()
        assert not np.any(np.delete(ours, bins)) and not np.any(np.delete(ref, bins))
    assert traj.final().values.tobytes() == whole_state(traj, steps).values.tobytes()
    assert traj.contraction == contraction
    assert (duhamel_residual(traj, engine, family)
            == whole_grid_duhamel(states, traj.sigmas, engine, family))


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(sorted(ROW_FAMILIES)),
       symbol=st.sampled_from(sorted(CARRIED_SYMBOLS)), band=st.integers(1, 8),
       steps=st.integers(4, 24), seed=st.integers(0, 2**32 - 1))
def test_carried_march_equals_the_whole_grid_march(family, symbol, band, steps, seed):
    """A diagonal B keeps every bin where x is 0 at exactly 0, so marching
    only the bins x carries changes no bit of the march it replaced."""
    engine = PropagatorEngine(CARRIED_SYMBOLS[symbol], CARRIED_GRID)
    x = random_band_limited(CARRIED_GRID, np.random.default_rng(seed), band=band)
    assert_carried_march_is_the_whole_grid_march(engine, ROW_FAMILIES[family], x, steps)


# td1's symbol plus xi_2^2 + 0.5 xi_1 xi_2 on a 32^2 grid
PLANE_SYMBOL = SymbolSpec(dim=2, order=2, horizon=2.0 * np.pi, coefficients={
    (2, 0): CoefficientFunction(const=-2.0, trig=((1.0, 0.0, -1.0),)),
    (0, 2): constant(-1.0), (1, 1): constant(-0.5), (0, 0): constant(1.0)})
PLANE_GRID = Grid(2, 32, 2.0 * np.pi)


@pytest.mark.parametrize("family", sorted(ROW_FAMILIES))
def test_carried_march_in_two_dimensions(family):
    """On PLANE_GRID the carried bins' 1-D axes give the same march as the
    grid's 2-D axes."""
    x = random_band_limited(PLANE_GRID, np.random.default_rng(8), band=4)
    assert_carried_march_is_the_whole_grid_march(
        PropagatorEngine(PLANE_SYMBOL, PLANE_GRID), ROW_FAMILIES[family], x, 16)


RAGGED_STEPS = 37       # a prime: no block of 2 or more steps divides the run
BLOCKED_FAMILIES = {**ROW_FAMILIES, "smoothing": SmoothingComposite(2)}


@pytest.mark.parametrize("budget", ["64 values", "15 rows"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", sorted(BLOCKED_FAMILIES))
def test_blocked_march_equals_the_step_by_step_march(monkeypatch, family, dim, budget):
    """The march and the Duhamel check take a block of steps per array
    operation, and the Duhamel norms a block of whole-grid rows.  Budgets of
    64 values, or of 15 rows of the run's carried width (9 or 81 bins of
    band-4 data for a diagonal family, all 64 or 1024 for the smoothing
    family), split the 37-step run into several blocks that end on a ragged
    one: at 15 rows, march blocks of 15 + 15 + 7 steps and Duhamel blocks of
    3 steps (a step reads 5 factor rows), 12 of them and then 1.  Each state,
    the Picard factor and the Duhamel residual must be those of the step by
    step `whole_grid_march` and `whole_grid_duhamel`, bit for bit."""
    from evofam import spectral
    engine = (PropagatorEngine(oscillating_symbol(), CARRIED_GRID) if dim == 1
              else PropagatorEngine(PLANE_SYMBOL, PLANE_GRID))
    fam = BLOCKED_FAMILIES[family]
    x = random_band_limited(engine.grid, np.random.default_rng(5), band=4)
    width = (np.count_nonzero(x.values) if hasattr(fam, "multiplier")
             else engine.grid.n ** dim)
    budget = 64 if budget == "64 values" else 15 * width
    monkeypatch.setattr(spectral, "BLOCK_ELEMENTS", budget)
    assert len(spectral.row_blocks(RAGGED_STEPS, width)) >= 2
    assert len(spectral.row_blocks(RAGGED_STEPS, 5 * width)) >= 2
    assert_carried_march_is_the_whole_grid_march(engine, fam, x, RAGGED_STEPS)
