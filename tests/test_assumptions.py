import tracemalloc
from dataclasses import asdict, replace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evofam import assumptions as asm
from evofam import spectral
from evofam.cli import KATO_TOL
from evofam.assumptions import (SamplePlan, certify_cd_system,
                                check_kato_stability, check_norm_equivalence,
                                check_operator_lipschitz,
                                check_resolvent_lipschitz,
                                check_semigroup_lipschitz, check_sector,
                                largest_passing_theta)
from evofam.errors import DomainError
from evofam.spectral import Grid, GridFunction, NormSpec, norm, random_band_limited
from evofam.symbols import CoefficientFunction, SymbolSpec, constant
from reference import (RAYS, RESOLVENT_MODULUS_RANGE, SWEEP_SYMBOLS, THETA_SCAN,
                       cd_lipschitz_bound, drift_symbol, factored_resolvent_quotient,
                       heat_symbol, kato_reference, oscillating_symbol,
                       reciprocal_resolvent_quotient, sampled_cd_system,
                       sampled_resolvent_lipschitz, sampled_sector_constant,
                       sampled_sector_ratios, sampled_semigroup_lipschitz, sector_lambdas,
                       sweep_symbol, theta_scan_reference)

THETA = 3.0 * np.pi / 4.0


@pytest.fixture(scope="module")
def step_symbol():
    return SymbolSpec(dim=1, order=2, horizon=2.0, coefficients={
        (2,): CoefficientFunction(const=-2.0, steps=((1.0, -1.0),)),
        (0,): constant(1.0)})


class TestSector:
    def test_h1_ray_bound(self, h1, grid, thin_plan):
        rep = check_sector(h1, grid, THETA, thin_plan)
        assert rep.m <= thin_plan.cap
        # for real symbols >= 1 the ray supremum is 1/sin(pi - theta)
        assert rep.m <= 1.0 / np.sin(np.pi - THETA) + 1.0
        assert rep.m == pytest.approx(np.sqrt(2.0), rel=0.02)

    def test_td1_same_bound(self, td1, grid, thin_plan):
        rep = check_sector(td1, grid, THETA, thin_plan)
        assert rep.m <= thin_plan.cap
        assert rep.m <= np.sqrt(2.0) + 1.0

    def test_drift_fails_with_witness(self, grid, thin_plan):
        rep = check_sector(drift_symbol(), grid, THETA, thin_plan)
        assert rep.m > thin_plan.cap
        assert rep.witness["value"] > thin_plan.cap
        # a = i xi puts the pole -a in the sector at every xi != 0 and
        # vanishes at xi = 0: both parts are infinite, so the value and its
        # certified bound read 2 cap and the inverse bound, sample 0, keeps
        # the witness
        assert rep.m == rep.certified == 2.0 * thin_plan.cap
        assert rep.witness["kind"] == "inverse_bound"
        assert rep.witness["xi"] == [0.0] and rep.witness["lambda"] is None

    def test_exact_sup_bounds_the_sampled_sweep(self, grid, thin_plan):
        # real symbols >= 1 all sit at psi = pi - theta: M = 1/sin(pi - theta)
        for spec in (heat_symbol(), oscillating_symbol()):
            rep = check_sector(spec, grid, THETA, thin_plan)
            sampled = sampled_sector_constant(spec, grid, THETA, thin_plan)
            assert sampled <= rep.m == 1.0 / np.sin(np.pi - THETA) <= rep.certified
            assert sampled == pytest.approx(rep.m, rel=1e-5)
            assert rep.samples == thin_plan.time_samples * grid.n

    def test_convection_diffusion_dense_search(self):
        # a = 1 + xi^2 + i c xi: arg a, and so psi, changes from bin to bin;
        # the shift keeps 1/|a| <= 1 at xi = 0
        c, grid = 1.0, Grid(1, 64, 2.0 * np.pi)
        spec = SymbolSpec(dim=1, order=2, horizon=1.0, coefficients={
            (2,): constant(-1.0), (1,): constant(c), (0,): constant(1.0)})
        plan = SamplePlan(time_samples=2, moduli_per_ray=2000)
        rep = check_sector(spec, grid, THETA, plan)
        xi = grid.xi_rows()[:, 0]
        psi = np.pi - THETA - np.arctan(np.abs(c * xi) / (1.0 + xi**2))
        assert rep.m == pytest.approx(1.0 / np.sin(psi.min()), rel=1e-12)
        assert rep.witness["xi"] == [1.0] and rep.witness["kind"] == "resolvent_ratio"
        lam = complex(*rep.witness["lambda"])
        a = 2.0 + 1j * c
        assert abs(lam) / abs(lam + a) == pytest.approx(rep.m, rel=1e-12)
        dense = sampled_sector_constant(spec, grid, THETA, plan)
        assert 0.99 * rep.m <= dense <= rep.m * (1.0 + 1e-12)

    def test_theta_domain(self, h1, grid, thin_plan):
        with pytest.raises(DomainError):
            check_sector(h1, grid, np.pi / 4.0, thin_plan)

    def test_largest_theta_scan(self, h1, grid):
        thin = SamplePlan(time_samples=8, moduli_per_ray=8)
        best = largest_passing_theta(h1, grid, thin)
        assert best >= 0.9 * np.pi            # real spectrum: all angles pass

    @pytest.mark.parametrize("cap,stepped,sector", [(1.3, False, 1.3),
                                                    (1e8, True, 99999997.55463384)])
    def test_theta_star_in_closed_form(self, td1, grid, thin_plan, cap, stepped, sector):
        # a >= 1 is real, so theta* = pi - max arcsin(delta_0/|a|) -
        # arcsin(1/cap), where the certified M reaches the cap; at 1e8 psi
        # keeps 8 digits and the certified M reads 100000002.0 there, so
        # theta* steps one ulp down from it
        plan = replace(thin_plan, cap=cap)
        star = largest_passing_theta(td1, grid, plan)
        a = td1.time_matrix(np.linspace(0.0, td1.horizon, plan.time_samples), grid.xi_axes())
        d0 = td1.t_margin(plan.time_samples, grid.xi_axes())
        closed = np.pi - np.max(np.arcsin(d0 / np.abs(a))) - np.arcsin(1.0 / cap)
        assert star == (np.nextafter(closed, 0.0) if stepped else closed)
        assert check_sector(td1, grid, star, plan).certified == sector
        assert check_sector(td1, grid, np.nextafter(star, 4.0), plan).certified > cap

    @pytest.mark.parametrize("cap", [1.3, 1.46, 3.0, 3.03, 1e8])
    def test_theta_star_of_a_negative_symbol(self, cap):
        # a = xi^2 - 2 reads -2 at xi = 0, so |arg(-a)| = 0 and the closed
        # form lies below pi/2 while every 1/|a| <= 1 passes the cap; at
        # caps 1.46 and 3.03 the sup there rounds above the cap, so stepping
        # from that angle would never end
        spec = SymbolSpec(dim=1, order=2, horizon=1.0, coefficients={
            (2,): constant(-1.0), (0,): constant(-2.0)})
        sector_sup, calls = asm._sector_sup, []

        def counted(a, theta, d0=0.0):
            calls.append(theta)
            assert len(calls) < 10
            return sector_sup(a, theta, d0)

        with mock.patch.object(asm, "_sector_sup", counted):
            star = largest_passing_theta(spec, Grid(1, 8, 2.0 * np.pi),
                                         SamplePlan(time_samples=2, cap=cap))
        assert np.isnan(star)


thetas =st.floats(np.pi / 2, np.pi, exclude_min=True, exclude_max=True)
symbol_values = st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                            allow_infinity=False),
                         min_size=1, max_size=8)


def _roundoff(sup):
    """Relative roundoff of a ratio near its sup: |lambda + a| is then a
    difference of two numbers of size |a| that cancels to |a| / sup."""
    return 1e-12 + 8.0 * np.finfo(float).eps * sup


@settings(max_examples=200, deadline=None)
@given(values=symbol_values, theta=thetas)
# a sampled lambda = 1e6 lands on the pole -a to within the smallest normal,
# so |lambda| / |lambda + a| overflows to inf where the sup is inf
@example(values=[-1e6 + 2.2250738585072014e-308j], theta=2.0)
def test_sampled_ratios_never_exceed_the_exact_sup(values, theta):
    a = np.array(values)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sup = asm._sector_sup(a, theta)
        ratios = sampled_sector_ratios(a, theta, 64)
    assert np.all(ratios <= sup * (1.0 + _roundoff(sup)))


@settings(max_examples=200, deadline=None)
@given(value=st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                                allow_nan=False, allow_infinity=False),
       theta=thetas)
def test_sector_witness_attains_the_exact_sup(value, theta):
    lam = asm._sector_argmax(value, theta)
    with np.errstate(divide="ignore"):
        sup = float(asm._sector_sup(np.array(value), theta))
    if lam is None:
        assert sup == 1.0
        return
    lam = complex(*lam)
    assert abs(np.angle(lam)) <= theta * (1.0 + 1e-15)
    if np.isinf(sup):               # the pole -a lies in the sector
        assert lam == -value
    else:
        assert abs(lam) / abs(lam + value) == pytest.approx(sup, rel=_roundoff(sup))


def kato_ratio(rep) -> float:
    """The ratio `cli.run_check` holds to 1 + KATO_TOL."""
    return max(rep.max_resolvent_ratio, rep.max_semigroup_ratio)


class TestKato:
    def test_td1_quasicontractive(self, td1, grid, thin_plan):
        rep = check_kato_stability(td1, grid, thin_plan)
        assert kato_ratio(rep) <= 1.0 + KATO_TOL
        assert rep.m == 1.0
        assert rep.omega == pytest.approx(-1.0, abs=1e-6)
        assert rep.max_resolvent_ratio <= 1.0 + 1e-9
        assert rep.max_semigroup_ratio <= 1.0 + 1e-9

    def test_h1_contraction(self, h1, grid, thin_plan):
        rep = check_kato_stability(h1, grid, thin_plan)
        assert kato_ratio(rep) <= 1.0 + KATO_TOL
        assert rep.omega == pytest.approx(-1.0, abs=1e-9)

    def test_explicit_omega_k1_resolvent_bound(self, td1, grid, thin_plan):
        # single-factor case: || R(lambda, A(t)) || <= 1/(lambda + 1)
        rep = check_kato_stability(td1, grid, thin_plan, m=1.0, omega=-1.0)
        assert kato_ratio(rep) <= 1.0 + KATO_TOL


class TestLipschitz:
    def test_h1_zero(self, h1, grid, thin_plan):
        assert check_operator_lipschitz(h1, grid, thin_plan).value == 0.0

    def test_td1_bounded_by_one(self, td1, grid, thin_plan):
        rep = check_operator_lipschitz(td1, grid, thin_plan)
        assert rep.value <= thin_plan.cap
        # analytic bound L <= 1; measured supremum ~ 0.73 on [0, 2 pi]
        assert 0.5 <= rep.value <= 1.0 + 0.05

    def test_linear_ramp_hits_one(self, grid, thin_plan):
        ramp = SymbolSpec(dim=1, order=2, horizon=1.0, coefficients={
            (2,): constant(-1.0),
            (0,): CoefficientFunction(const=1.0, poly=((1, 1.0),))})
        rep = check_operator_lipschitz(ramp, grid, thin_plan)
        # |t - s| / ((1+s) + xi^2): maximized at s = 0, xi = 0
        assert rep.value == pytest.approx(1.0, rel=1e-6)
        assert rep.witness["s"] == pytest.approx(0.0)
        assert abs(rep.witness["xi"][0]) == pytest.approx(0.0)

    def test_step_symbol_blows_at_cap(self, step_symbol, grid, thin_plan):
        rep = check_operator_lipschitz(step_symbol, grid, thin_plan)
        assert rep.value > thin_plan.cap
        assert rep.witness["s"] < 1.0 < rep.witness["t"]

    def test_step_symbol_pair_tables_hold_one_row_per_side(self, step_symbol, grid):
        # the pair tables of the default pair grid and of twice it list 587
        # and 2317 pairs over 66 and 118 distinct times, but a(t, .) takes
        # one value on each side of the jump
        plan = SamplePlan()
        tables = [asm._pair_table(step_symbol, grid, count)
                  for count in (plan.pair_grid, 2 * plan.pair_grid)]
        assert [len(s) for (s, _, _, _), _, _ in tables] == [587, 2317]
        assert [len(a) for _, a, _ in tables] == [2, 2]

    def test_h1_resolvent_constant_zero(self, h1, grid, thin_plan):
        assert check_resolvent_lipschitz(h1, grid, THETA, thin_plan).value == 0.0

    def test_nonelliptic_resolvent_constant_zero(self, grid):
        # a = i xi does not depend on t: every rate is 0, and so is every
        # quotient, although the pole -a lies in the sector, and so is each
        # certified bound on the plan of the bundled check
        for rep in (check_resolvent_lipschitz(drift_symbol(), grid, THETA, SamplePlan()),
                    check_semigroup_lipschitz(drift_symbol(), grid, SamplePlan())):
            assert rep.value == 0.0 and rep.certified == 0.0
            assert rep.witness == {}

    def test_factored_sweep_matches_the_reciprocal_sweep(self, td1, grid, thin_plan):
        # same pairs, lambdas and bins; the reciprocal form loses about
        # eps |lambda + a| / |a(t) - a(s)|, ~1.5e-7 at td1's default-plan
        # witness (1e-9-wide pair, xi = 79, |lambda| = 1e4)
        for plan in (thin_plan, SamplePlan()):
            factored = sampled_resolvent_lipschitz(td1, grid, THETA, plan)
            reciprocal = sampled_resolvent_lipschitz(td1, grid, THETA, plan, factored=False)
            assert factored == pytest.approx(reciprocal, rel=1e-6)

    def test_td1_lemma_chain(self, td1, grid, thin_plan):
        a1 = check_sector(td1, grid, THETA, thin_plan)
        a3 = check_operator_lipschitz(td1, grid, thin_plan)
        cp = check_resolvent_lipschitz(td1, grid, THETA, thin_plan)
        cs = check_semigroup_lipschitz(td1, grid, thin_plan)
        assert cp.value <= thin_plan.cap and cs.value <= thin_plan.cap
        assert cp.value <= a1.m**2 * a3.value * 1.05

    def test_semigroup_constant_finite_iff(self, h1, grid, thin_plan):
        assert check_semigroup_lipschitz(h1, grid, thin_plan).value == 0.0

    def test_semigroup_overflow_is_a_violation(self, grid):
        # backward heat: T e^{-T Re a} overflows at high |xi|, so every row
        # of quotients holds an inf next to its finite violations
        backward = SymbolSpec(dim=1, order=2, horizon=1.0, coefficients={
            (2,): CoefficientFunction(const=3.0, poly=((1, 1.0),)),
            (0,): constant(1.0)})
        plan = SamplePlan(time_samples=16)
        rep = check_semigroup_lipschitz(backward, grid, plan)
        assert rep.value > plan.cap
        assert rep.witness["value"] == rep.value

    def test_undersampled_negative_symbol_fails_through_certified(self):
        # a = xi^2 - 2 + 1.5 sin 7t has Re a < 0 at xi = 0, where the rate
        # grows like e^{-T Re a}: 8 time samples read C = 1.89e7, under the
        # cap, where 2048 read 4.57e10; the certified bound fails the first
        # (5.7e20) and holds the second (5.23e10)
        spec = SymbolSpec(dim=1, order=2, horizon=2.0 * np.pi, coefficients={
            (2,): constant(-1.0), (0,): CoefficientFunction(const=-2.0, trig=((7.0, 0.0, 1.5),))})
        grid = Grid(1, 16, 2.0 * np.pi)
        coarse, fine = (check_semigroup_lipschitz(spec, grid, SamplePlan(time_samples=n))
                        for n in (8, 2048))
        assert coarse.value <= coarse.certified and coarse.value < SamplePlan().cap
        assert coarse.certified > SamplePlan().cap and fine.value > SamplePlan().cap
        assert fine.certified >= fine.value

    def test_step_symbol_rates_blow_at_the_jump(self, step_symbol, grid, thin_plan):
        # the rate of a step is infinite at its jump time, which the rate
        # sweeps sample besides the plan's uniform times (t = 1 is not one)
        assert 1.0 not in np.linspace(0.0, 2.0, thin_plan.time_samples)
        for rep in (check_resolvent_lipschitz(step_symbol, grid, THETA, thin_plan),
                    check_semigroup_lipschitz(step_symbol, grid, thin_plan)):
            assert rep.value == rep.certified == 2.0 * thin_plan.cap
            assert rep.witness["t"] == 1.0 and rep.witness["value"] == rep.value
            assert rep.pair_count == (thin_plan.time_samples + 1) * len(grid.xi_rows())


QUOTIENT_DELTAS = (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


# derandomized: the reciprocal form's miss at delta = 1e-9 is a rounding
# event, so the draws stay the same from run to run
@settings(max_examples=300, deadline=None, derandomize=True)
@given(modulus=st.floats(1.0, 1e6), phase=st.floats(-0.95, 0.95),
       lam_modulus=st.floats(*RESOLVENT_MODULUS_RANGE),
       ray=st.integers(0, 2 * RAYS), delta=st.sampled_from(QUOTIENT_DELTAS))
def test_factored_resolvent_quotient_is_accurate(modulus, phase, lam_modulus, ray, delta):
    # a(s) on A1's side of the sector (|arg a| < pi - theta), a(t) = a(s)(1 + delta)
    # and lambda on a sweep ray, all read as exact doubles; s = 0 and t = delta
    a_s = modulus * np.exp(1j * phase * (np.pi - THETA))
    a_t = a_s * (1.0 + delta)
    lam = sector_lambdas(THETA, np.array([lam_modulus]))[ray]
    factored = float(factored_resolvent_quotient(lam, a_s, a_t, abs(a_t - a_s) / delta))
    reciprocal = float(reciprocal_resolvent_quotient(lam, a_s, a_t, delta))
    with mpmath.workdps(50):
        lam_, s_, t_ = (mpmath.mpc(z.real, z.imag) for z in (lam, a_s, a_t))
        exact = abs(lam_) * abs(1 / (lam_ + t_) - 1 / (lam_ + s_)) / delta
        errors = [float(abs(q - exact) / exact) for q in (factored, reciprocal)]
    eps = np.finfo(float).eps
    assert errors[0] <= 8.0 * eps
    if delta == 1e-9:               # the difference of reciprocals cancels
        assert errors[1] > 8.0 * eps


NEIGHBOUR_PLAN = SamplePlan(time_samples=8, resolvent_pair_grid=7,
                            resolvent_moduli=3, tau_samples=3,
                            kato_lambdas=2, kato_partitions=2, kato_kmax=2)
coefficients = st.floats(-0.5, 0.5)


DENSE = 16              # time-sample factor of the closed forms the sweeps are held to
# The closed forms take the exact sup over lambda and tau, but sample t at
# spacing h = T / (16 n - 1); an interior maximum of the rate quotient q
# falls between samples by at most (h^2 / 8) |q''| / q of q, 1.7e-5 |q''| / q
# at n = 8, and with omega <= 6 the trig terms keep |q''| / q near
# omega^2 = 36 (6e-4) where Re a >= 1/T.  The worst ratio of sweep to closed
# form over 5145 corner and random draws of this strategy was 1.0001 (C),
# and over 400 random draws 1.00015 for the cd quotients.
SWEEP_SLACK = 1e-3


def assert_sweeps_below_the_closed_forms(spec, grid, plan):
    """Each sampled sweep on `plan` (C', C and the X and X_{-1} cd quotients
    on two band-4 vectors) is at most the closed form on DENSE times the
    time samples, up to SWEEP_SLACK, or the closed form exceeds the cap:
    there a value is a violation whatever its size, and where Re a < 0 the
    rate quotient grows like e^{-T Re a}, faster than a fixed grid resolves
    (C read 3.9e24 on a 16x plan against 3.93e24 in the sweep)."""
    dense = replace(plan, time_samples=DENSE * plan.time_samples)
    vectors = [random_band_limited(grid, np.random.default_rng(v), band=4)
               for v in range(2)]
    cd = certify_cd_system(spec, grid, vectors, dense)
    for sweep, closed in (
            (sampled_resolvent_lipschitz(spec, grid, THETA, plan),
             check_resolvent_lipschitz(spec, grid, THETA, dense).value),
            (sampled_semigroup_lipschitz(spec, grid, plan),
             check_semigroup_lipschitz(spec, grid, dense).value),
            *zip(sampled_cd_system(spec, grid, vectors, plan),
                 (cd.strong_lipschitz, cd.strong_lipschitz_xminus1))):
        assert sweep <= closed * (1.0 + SWEEP_SLACK) or closed > plan.cap


@pytest.mark.parametrize("name", ["td1", "h1"])
def test_sampled_sweeps_stay_below_the_closed_forms(name, grid, thin_plan, request):
    assert_sweeps_below_the_closed_forms(request.getfixturevalue(name), grid, thin_plan)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lead=st.floats(-3.0, -1.0), slope=st.floats(0.1, 0.5), omega=st.floats(0.5, 6.0),
       cos=coefficients, sin=coefficients, shift=coefficients, drift=coefficients)
def test_sampled_sweeps_stay_below_the_closed_forms_on_random_symbols(
        lead, slope, omega, cos, sin, shift, drift):
    # on its own 8 time samples the closed form can read far below the
    # sweep, so the plan is not thin in t
    spec = SymbolSpec(dim=1, order=2, horizon=1.5, coefficients={
        (2,): CoefficientFunction(const=lead, poly=((1, slope), (2, drift)),
                                  trig=((omega, cos, sin),)),
        (0,): CoefficientFunction(const=1.0 + 1j * shift, trig=((omega, sin, cos),))})
    assert_sweeps_below_the_closed_forms(spec, Grid(1, 16, 2.0 * np.pi), NEIGHBOUR_PLAN)


def mp_symbol(spec, t, xi):
    """a(t, xi) and d/dt a(t, xi) at one cell in the working mpmath
    precision, for step-free coefficients."""
    t, a, rate = mpmath.mpf(t), mpmath.mpc(0), mpmath.mpc(0)
    for alpha, c in spec.coefficients.items():
        mono = mpmath.mpc(1)
        for x, k in zip(xi, alpha):
            mono *= (1j * mpmath.mpf(x)) ** k
        value, slope = mpmath.mpc(c.const), mpmath.mpc(0)
        for degree, coef in c.poly:
            value += coef * t ** degree
            slope += coef * degree * t ** (degree - 1)
        for omega, ccos, csin in c.trig:
            value += ccos * mpmath.cos(omega * t) + csin * mpmath.sin(omega * t)
            slope += omega * (csin * mpmath.cos(omega * t) - ccos * mpmath.sin(omega * t))
        a, rate = a + value * mono, rate + slope * mono
    return a, rate


def test_closed_form_witnesses_attain_the_sups(td1, td1_suite):
    # the reported value is the quotient at (t, xi, lambda*) or (t, xi, tau*)
    # to 50 digits, and a 1% move of lambda* (modulus, or argument into the
    # sector) or of tau* does not raise it
    cprime, c = td1_suite["cprime"].witness, td1_suite["csemi"].witness
    with mpmath.workdps(50):
        a, rate = mp_symbol(td1, cprime["t"], cprime["xi"])
        resolvent = lambda lam: abs(rate) * abs(lam) / abs(lam + a) ** 2
        lam = mpmath.mpc(*cprime["lambda"])
        peak = resolvent(lam)
        assert abs(peak - cprime["value"]) <= 1e-14 * peak
        moved = [lam * 0.99, lam * 1.01, abs(lam) * mpmath.expj(0.99 * mpmath.arg(lam))]
        assert all(resolvent(m) <= peak for m in moved)

        a, rate = mp_symbol(td1, c["t"], c["xi"])
        semigroup = lambda tau: tau * abs(rate) * mpmath.exp(-tau * a.real)
        tau = mpmath.mpf(c["tau"])
        peak = semigroup(tau)
        assert abs(peak - c["value"]) <= 1e-14 * peak
        assert tau * 1.01 <= td1.horizon
        assert all(semigroup(m) <= peak for m in (tau * 0.99, tau * 1.01))


class TestEquivalence:
    def test_h1_unit(self, h1, grid, thin_plan):
        rep = check_norm_equivalence(h1, grid, thin_plan)
        assert rep.kappa == pytest.approx(1.0)

    def test_td1_two(self, td1, grid, thin_plan):
        rep = check_norm_equivalence(td1, grid, thin_plan)
        assert rep.kappa <= thin_plan.cap
        assert rep.kappa == pytest.approx(2.0, rel=0.02)
        # the binding side is the lower ratio (2 - sin t smallest at 3 pi/2)
        assert rep.witness_lower["value"] >= rep.witness_upper["value"]

    def test_autonomous_always_unit(self, grid, thin_plan):
        spec = SymbolSpec(dim=1, order=2, horizon=3.0, coefficients={
            (2,): constant(-1.5), (1,): constant(0.5j), (0,): constant(2.0)})
        assert check_norm_equivalence(spec, grid,
                                      thin_plan).kappa == pytest.approx(1.0)


class TestCommutingAndCD:
    def test_td1_cd_system(self, td1, grid, band_vectors, thin_plan):
        rep = certify_cd_system(td1, grid, band_vectors, thin_plan)
        assert rep.strong_lipschitz <= thin_plan.cap
        assert rep.strong_lipschitz_xminus1 <= thin_plan.cap
        bound = cd_lipschitz_bound(td1, grid, band_vectors)
        assert rep.strong_lipschitz <= bound * 1.05

    def test_xminus1_quotient_is_the_spectral_gauge(self, td1, grid, band_vectors,
                                                     thin_plan):
        # the certifier weights by its own 1/|a(0,.)|: it must be the one X_{-1}
        # model, the gauge `spectral.norm` applies, on d/dt a(t, .) f at the
        # rate times: the plan's uniform times, as td1 has no jump
        rep = certify_cd_system(td1, grid, band_vectors, thin_plan)
        gauge = NormSpec(td1, 0.0)
        ts = np.linspace(0.0, td1.horizon, thin_plan.time_samples)
        rates = td1.time_matrix(ts, grid.xi_axes(), derivative=True)
        worst = max(norm(GridFunction(grid, rate * f.values), gauge)
                    for rate in rates for f in band_vectors)
        assert rep.strong_lipschitz_xminus1 == pytest.approx(worst, rel=1e-12, abs=0.0)

    def test_h1_cd_trivial(self, h1, grid, band_vectors, thin_plan):
        rep = certify_cd_system(h1, grid, band_vectors, thin_plan)
        assert rep.strong_lipschitz_xminus1 <= thin_plan.cap
        assert rep.strong_lipschitz == 0.0

    def test_step_symbol_fails_with_straddling_witness(self, step_symbol, grid,
                                                       band_vectors, thin_plan):
        # the rate is infinite at the jump time t = 1, which is no uniform sample
        rep = certify_cd_system(step_symbol, grid, band_vectors, thin_plan)
        assert rep.strong_lipschitz > thin_plan.cap
        assert rep.witness["t"] == 1.0

    def test_empty_vectors_rejected(self, td1, grid, thin_plan):
        from evofam.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            certify_cd_system(td1, grid, [], thin_plan)


class TestRefinementStability:
    def test_deltas_small_on_smooth_family(self, td1, grid, thin_plan):
        # the certified margin over the sampled value is first order in the
        # sample spacing: on td1 kappa reads 7.2 % and L 43 % over on the thin
        # plan, and 1.7 % and 8.9 % on 4 times its time samples and pair grid
        dense = replace(thin_plan, time_samples=4 * thin_plan.time_samples,
                        pair_grid=4 * thin_plan.pair_grid)
        gaps = []
        for plan in (thin_plan, dense):
            a2 = check_norm_equivalence(td1, grid, plan)
            a3 = check_operator_lipschitz(td1, grid, plan)
            gaps.append(np.array([a2.certified / a2.kappa, a3.certified / a3.value]) - 1.0)
        assert np.all(gaps[0] <= 0.5) and np.all(gaps[1] <= gaps[0] / 3.0)

    def test_monotone_under_refinement(self, td1, grid):
        coarse = check_operator_lipschitz(td1, grid,
                                          SamplePlan(pair_grid=12))
        fine = check_operator_lipschitz(td1, grid,
                                        SamplePlan(pair_grid=24))
        assert fine.value >= coarse.value - 1e-12

    def test_xminus1_transported_sector_bound_identical(self, td1, grid, thin_plan):
        # diagonal model: the X_{-1}-gauge resolvent ratios equal the X-gauge
        # ones bin for bin, so the same measurement serves both readings
        rep_x = check_sector(td1, grid, THETA, thin_plan)
        rep_again = check_sector(td1, grid, THETA, thin_plan)
        assert rep_x.m == rep_again.m


def certifier_records(spec, grid, vectors, plan):
    """Every field of every certifier's record, and the theta scan."""
    return {
        "sector": asdict(check_sector(spec, grid, THETA, plan)),
        "a2": asdict(check_norm_equivalence(spec, grid, plan)),
        "a3": asdict(check_operator_lipschitz(spec, grid, plan)),
        "cprime": asdict(check_resolvent_lipschitz(spec, grid, THETA, plan)),
        "c": asdict(check_semigroup_lipschitz(spec, grid, plan)),
        "kato": asdict(check_kato_stability(spec, grid, plan)),
        "cd": asdict(certify_cd_system(spec, grid, vectors, plan)),
        "theta_star": largest_passing_theta(spec, grid, plan),
    }


@pytest.mark.parametrize("kind", ["trig", "step", "autonomous"])
@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=6, deadline=None)
@given(**SWEEP_SYMBOLS)
def test_sweep_rules_leave_every_record_unchanged(dim, kind, lead, cross, drift, shift,
                                                  odd, omega, jump_time, jump):
    spec, grid = sweep_symbol(dim, kind, lead, cross, drift, shift, odd, omega,
                              jump_time, jump)
    vectors = [random_band_limited(grid, np.random.default_rng(v), band=2)
               for v in range(2)]

    table = lambda: asm._pair_table(spec, grid, NEIGHBOUR_PLAN.pair_grid)
    listed = lambda: len(table()[0][0])
    swept, pairs, height = (certifier_records(spec, grid, vectors, NEIGHBOUR_PLAN),
                            listed(), len(table()[1]))
    classes = len(asm._bin_classes(spec, grid)[0])
    rows = len(asm._time_rows(spec, grid, NEIGHBOUR_PLAN.time_samples)[0])
    # all three rules off: every bin and every time its own class, so no
    # column, row or pair is dropped
    own_bins = lambda spec, grid: (np.arange(len(grid.xi_rows())),) * 2
    own_times = lambda spec, ts, rates=False: (np.arange(len(ts)),) * 2
    # on a fresh copy of the spec: its time and rate tables are memoised
    with mock.patch.object(asm, "_bin_classes", own_bins), \
            mock.patch.object(asm, "_time_classes", own_times):
        np.testing.assert_equal(certifier_records(replace(spec), grid, vectors,
                                                  NEIGHBOUR_PLAN), swept)
        every = listed()
    # the rules took effect: xi and -xi share a class unless an odd term
    # tells them apart, an autonomous symbol sweeps one row and one pair,
    # and a step that jumps sweeps one row per side, in the time tables and
    # the pair tables alike, and drops the zero-slope pairs on either side
    # of its jump
    assert classes < len(grid.xi_rows()) or odd
    if kind == "autonomous":
        assert rows == pairs == height == 1
    elif kind == "step":
        assert rows == height == 1 + (jump != 0) and pairs < every


@pytest.mark.parametrize("kind", ["trig", "step", "autonomous"])
@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=25, deadline=None)
@given(cap=st.floats(np.log10(1.01), 9.0).map(lambda e: 10.0 ** e), **SWEEP_SYMBOLS)
def test_theta_star_is_the_largest_passing_angle(dim, kind, cap, lead, cross, drift, shift,
                                                 odd, omega, jump_time, jump):
    # the certified M, which `a1` judges, passes the cap at theta* and at
    # every scan angle below it, and fails above it; nan means no angle in
    # (pi/2, pi) passes, and passing angles are those below some bound, so
    # the least angle tells
    spec, grid = sweep_symbol(dim, kind, lead, cross, drift, shift, odd, omega,
                              jump_time, jump)
    plan = SamplePlan(time_samples=9, cap=cap)
    passes = lambda theta: check_sector(spec, grid, float(theta), plan).certified <= cap
    star = largest_passing_theta(spec, grid, plan)
    for theta in THETA_SCAN:
        assert passes(theta) == (theta <= star)
    below = THETA_SCAN[THETA_SCAN <= star]
    np.testing.assert_equal(theta_scan_reference(spec, grid, plan),
                            below[-1] if len(below) else np.nan)
    if np.isnan(star):
        assert not passes(np.nextafter(np.pi / 2, np.pi))
    else:
        assert np.pi / 2 < star < np.pi and passes(star)
        assert star + 1e-9 >= np.pi or not passes(star + 1e-9)


CHAIN_ULPS = 8      # the lemma chain's two sides are separate roundings of one psi


def chain_ratios(spec, grid, theta, samples):
    """Per finite (t, xi) cell of `_rate_rows` with a nonzero rate, C'(t, xi)
    = |d/dt a| `_resolvent_rate_sup`(a, theta) over M(t, xi)^2 L(t, xi),
    with M(t, xi) = max(1/|a|, `_sector_sup`(a, theta)) and L(t, xi) =
    |d/dt a|/|a|, A3's diagonal."""
    _, rate, a, _ = asm._rate_rows(spec, grid, samples)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cprime = rate * asm._resolvent_rate_sup(a, theta)
        chain = np.maximum(1.0 / np.abs(a), asm._sector_sup(a, theta)) ** 2 * rate / np.abs(a)
        finite = np.isfinite(cprime) & np.isfinite(chain) & (rate > 0.0)
        return cprime[finite] / chain[finite]


def assert_lemma_chain(spec, grid, theta, samples):
    # C' <= M^2 L per cell: |a|/|lambda + a| and |lambda|/|lambda + a| share
    # the sup 1/sin psi on the sector, so the ratio is cos^2(psi/2) <= 1
    assert np.all(chain_ratios(spec, grid, theta, samples)
                  <= 1.0 + CHAIN_ULPS * np.finfo(float).eps)


@pytest.mark.parametrize("kind", ["trig", "step", "autonomous"])
@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=15, deadline=None)
@given(theta=thetas, **SWEEP_SYMBOLS)
def test_lemma_chain_holds_on_every_cell(dim, kind, theta, lead, cross, drift, shift, odd,
                                         omega, jump_time, jump):
    spec, grid = sweep_symbol(dim, kind, lead, cross, drift, shift, odd, omega,
                              jump_time, jump)
    assert_lemma_chain(spec, grid, theta, 9)


@pytest.mark.parametrize("name", ["td1", "h1"])
@settings(max_examples=10, deadline=None)
@given(theta=thetas)
def test_lemma_chain_holds_on_every_bundled_cell(name, theta, grid, request):
    assert_lemma_chain(request.getfixturevalue(name), grid, theta, 48)


def test_td1_lemma_chain_ratio_in_closed_form(td1, grid):
    # a >= 1 is real, so psi = pi/4 at 3 pi/4 on every cell: C'/(M^2 L) reads
    # cos^2(pi/8) = 0.854, where C'/(M L) would read cot(pi/8)/2 = 1.207
    ratios = chain_ratios(td1, grid, THETA, 128)
    assert ratios.size > 0
    np.testing.assert_allclose(ratios, np.cos(np.pi / 8.0) ** 2, rtol=1e-12)


def steepest_rows(measure):
    """Rows of every sweep `measure()` runs through `_steepest`."""
    rows, steepest = [], asm._steepest

    def spy(quotient, samples, count, width, cap):
        rows.append(count)
        return steepest(quotient, samples, count, width, cap)

    with mock.patch.object(asm, "_steepest", spy):
        result = measure()
    return result, rows


# a(0, .) vanishes at xi = 0 on nonelliptic, so cd sweeps no X_{-1} quotient there
@pytest.mark.parametrize("spec,cd_sweeps", [(heat_symbol(), 4), (drift_symbol(), 2)],
                         ids=["h1", "nonelliptic"])
def test_autonomous_pair_sweeps_visit_one_pair_per_plan(spec, cd_sweeps, grid,
                                                        band_vectors):
    # every pair has a(s, .) = a(t, .) and every time the rate 0: A3 sweeps
    # one pair and cd one time, for the value and for its certified bound;
    # the counts still cover every pair
    plan = SamplePlan()
    (a3, a3_rows), (_, cd_rows) = map(steepest_rows, [
        lambda: check_operator_lipschitz(spec, grid, plan),
        lambda: certify_cd_system(spec, grid, band_vectors, plan)])
    assert a3_rows == [1, 1, 1]     # value, certified bound, and its diagonal
    assert cd_rows == [1] * cd_sweeps
    assert a3.pair_count == 1453


@pytest.mark.parametrize("spec", [heat_symbol(), drift_symbol()], ids=["h1", "nonelliptic"])
def test_autonomous_time_sweeps_visit_one_row(spec, grid):
    # every time has the same coefficients: the sector, kappa, theta* and
    # Kato sweeps share one table of one row, and the counts still cover
    # every (t, xi) cell and every partition
    heights, table = [], asm._symbol_matrix
    plan = SamplePlan()

    def spy(spec, grid, ts):
        heights.append(len(ts))
        return table(spec, grid, ts)

    with mock.patch.object(asm, "_symbol_matrix", spy):
        sector = check_sector(spec, grid, THETA, plan)
        check_norm_equivalence(spec, grid, plan)
        largest_passing_theta(spec, grid, plan)
        kato = check_kato_stability(spec, grid, plan)
    assert heights == [1]
    assert sector.samples == 128 * 1024
    assert kato.partitions_tested == 196


def test_td1_sweeps_every_pair_on_513_columns(td1, grid, thin_plan, band_vectors,
                                              td1_suite):
    # xi and -xi give equal columns: 511 pairs, xi = 0 and the Nyquist bin
    widths, table = [], asm._symbol_matrix

    def spy(spec, grid, ts):
        a = table(spec, grid, ts)
        widths.append(a.shape[1])
        return a

    # a fresh copy of td1 builds each memoised table: the time rows, the pair
    # table, and the rate rows of the time samples and of the pair grid
    with mock.patch.object(asm, "_symbol_matrix", spy):
        certifier_records(replace(td1), grid, band_vectors, thin_plan)
    assert set(widths) == {513} and len(widths) == 4
    # no td1 pair is zero-slope: the pair tables of 48 and 96 points list every pair
    listed = [len(asm._pair_table(td1, grid, count)[0][0]) for count in (48, 96)]
    assert listed == [1457, 5225]
    assert td1_suite["a1"].samples == 128 * 1024
    # C' and C count their (t, xi) cells
    assert (td1_suite["a3"].pair_count, td1_suite["cprime"].pair_count,
            td1_suite["csemi"].pair_count) == (1457, 128 * 1024, 128 * 1024)
    assert td1_suite["kato"].partitions_tested == 196


@pytest.mark.parametrize("omega", [None, -1.0])
@pytest.mark.parametrize("plan", [SamplePlan(), NEIGHBOUR_PLAN], ids=["default", "thin"])
@pytest.mark.parametrize("name", ["td1", "h1", "nonelliptic"])
def test_kato_tables_give_the_partition_loop_record(name, plan, omega, grid, request):
    # one log|lambda + a| table per lambda, gathered per order k, against a
    # log per (partition, lambda): the same record bit for bit
    spec = drift_symbol() if name == "nonelliptic" else request.getfixturevalue(name)
    assert asdict(check_kato_stability(spec, grid, plan, omega=omega)) \
        == asdict(kato_reference(spec, grid, plan, omega=omega))


@pytest.mark.parametrize("plan", [SamplePlan(), NEIGHBOUR_PLAN], ids=["default", "thin"])
@pytest.mark.parametrize("dip", [0.125, 0.625])
def test_kato_factors_read_the_nearest_sample(dip, plan, grid):
    # Re a(t, 0) = 2 - cos 2 pi (t - dip) is least only at the anchor t = dip,
    # at sample 15.875 (1/8) or 79.375 (5/8) of 128 and 31.75 or 159.375 of
    # 255: the sup depends on which row a factor reads, and the record is
    # the reference's, whose factors read row round(t / T * (samples - 1))
    spec = SymbolSpec(dim=1, order=2, horizon=1.0, coefficients={
        (2,): constant(-1.0),
        (0,): CoefficientFunction(const=2.0, trig=((2.0 * np.pi, -np.cos(2.0 * np.pi * dip),
                                                    -np.sin(2.0 * np.pi * dip)),))})
    assert asdict(check_kato_stability(spec, grid, plan)) \
        == asdict(kato_reference(spec, grid, plan))


@pytest.mark.parametrize("kind", ["trig", "step", "autonomous"])
@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=6, deadline=None)
@given(kmax=st.integers(1, 8), **SWEEP_SYMBOLS)
def test_kato_tables_give_the_partition_loop_record_on_sweep_symbols(
        dim, kind, kmax, lead, cross, drift, shift, odd, omega, jump_time, jump):
    spec, grid = sweep_symbol(dim, kind, lead, cross, drift, shift, odd, omega,
                              jump_time, jump)
    plan = SamplePlan(time_samples=16, kato_lambdas=3, kato_partitions=3, kato_kmax=kmax)
    np.testing.assert_equal(asdict(check_kato_stability(spec, grid, plan)),
                            asdict(kato_reference(spec, grid, plan)))


@pytest.mark.parametrize("kind", ["trig", "step", "autonomous"])
@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=6, deadline=None)
@given(samples=st.integers(2, 32), lambdas=st.integers(1, 6), partitions=st.integers(1, 6),
       kmax=st.integers(1, 8), **SWEEP_SYMBOLS)
def test_kato_ratios_stay_at_one_on_every_plan(dim, kind, samples, lambdas, partitions, kmax,
                                               lead, cross, drift, shift, odd, omega,
                                               jump_time, jump):
    # with M = 1 and omega = -(min Re a) of the sampled matrix, every factor
    # is at most 1, so both ratios stay within roundoff of 1 on the plan and
    # on twice its time samples alike: Kato is measured once
    spec, grid = sweep_symbol(dim, kind, lead, cross, drift, shift, odd, omega,
                              jump_time, jump)
    plan = SamplePlan(time_samples=samples, kato_lambdas=lambdas,
                      kato_partitions=partitions, kato_kmax=kmax)
    for p in (plan, replace(plan, time_samples=2 * samples)):
        assert kato_ratio(check_kato_stability(spec, grid, p)) <= 1.0 + KATO_TOL


def test_kato_logs_one_table_per_lambda(td1, grid, monkeypatch):
    # np.log sees each (time class, column) cell once per lambda, plus scalar
    # bound logs; a log per (partition, lambda) of the partition's factor
    # rows (`kato_reference`) feeds it about 5.7 M elements on td1, against
    # about 0.79 M, and the autonomous nonelliptic symbol has one time class
    plan, log = SamplePlan(), np.log
    for spec, rows in ((td1, plan.time_samples), (drift_symbol(), 1)):
        columns, logged = len(asm._bin_classes(spec, grid)[0]), []

        def counting(x, *args, **kwargs):
            logged.append(np.size(x))
            return log(x, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "log", counting)
            check_kato_stability(spec, grid, plan)
        assert sum(logged) <= plan.kato_lambdas * (rows * columns + plan.kato_kmax)


def test_symbol_matrix_builds_in_place(td1, grid):
    # a td1 table of 1426 times x 513 columns (11.7 MB, A3's on a 96-point
    # pair grid) is built a block of rows at a time into its output: one block-sized term
    # and numpy's broadcast buffer (under a block) beside the table, where a
    # whole-table sum held a second table
    ts = np.linspace(0.0, td1.horizon, 1426)
    asm._symbol_matrix(td1, grid, ts[:2])        # class axes and monomials, kept
    tracemalloc.start()
    try:
        table = asm._symbol_matrix(td1, grid, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (1426, 513)
    assert peak < table.nbytes + 2 * spectral.BLOCK_ELEMENTS * 16
