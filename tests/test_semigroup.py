import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofam.errors import DomainError, NumericError
from evofam.semigroup import FrozenOperator, favard_norm, gauss_legendre_panels
from evofam.spectral import GridFunction, mode, norm, random_band_limited
from reference import (favard_sweep, frozen_generator, frozen_resolvent, frozen_semigroup,
                       heat_symbol, laplace_tail_bound, laplace_transform_check)
from test_evolution import COCYCLE_GRID, elliptic_symbols


@pytest.fixture()
def op_h1(h1):
    return FrozenOperator(h1, 0.0)


class TestFrozenSemigroup:
    def test_identity_at_zero(self, op_h1, grid, rng):
        f = random_band_limited(grid, rng)
        out = frozen_semigroup(op_h1, 0.0, f)
        assert np.allclose(out.values, f.values)

    def test_single_mode_decay(self, op_h1, grid):
        out = frozen_semigroup(op_h1, 1.0, mode(grid, 1))
        assert norm(out) == pytest.approx(np.exp(-2.0))

    def test_semigroup_law(self, op_h1, grid, rng):
        f = random_band_limited(grid, rng)
        one = frozen_semigroup(op_h1, 0.7, frozen_semigroup(op_h1, 0.4, f))
        two = frozen_semigroup(op_h1, 1.1, f)
        diff = GridFunction(grid, one.values - two.values)
        assert norm(diff) <= 1e-12 * norm(f)

    def test_negative_time_rejected(self, op_h1, grid):
        with pytest.raises(DomainError):
            frozen_semigroup(op_h1, -0.1, mode(grid, 0))

    def test_frozen_time_of_nonautonomous(self, td1, grid):
        op = FrozenOperator(td1, np.pi / 2)
        out = frozen_semigroup(op, 0.5, mode(grid, 1))
        assert norm(out) == pytest.approx(np.exp(-0.5 * 4.0))


class TestFrozenResolvent:
    def test_single_mode(self, op_h1, grid):
        out = frozen_resolvent(op_h1, 1.0, mode(grid, 2))
        assert norm(out) == pytest.approx(1.0 / 6.0)

    def test_resolvent_identity(self, op_h1, grid, rng):
        f = random_band_limited(grid, rng)
        lam, mu = 1.3 + 0.4j, 0.2 - 1.1j
        lhs = frozen_resolvent(op_h1, lam, f).values \
            - frozen_resolvent(op_h1, mu, f).values
        rhs = (mu - lam) * frozen_resolvent(
            op_h1, lam, frozen_resolvent(op_h1, mu, f)).values
        assert norm(GridFunction(grid, lhs - rhs)) <= 1e-12 * norm(f)

    def test_inverts_generator_shift(self, op_h1, grid, rng):
        f = random_band_limited(grid, rng)
        lam = 0.8
        rf = frozen_resolvent(op_h1, lam, f)
        # (lambda - A) R(lambda) f = f
        back = lam * rf.values - frozen_generator(op_h1, rf).values
        assert norm(GridFunction(grid, back - f.values)) \
            <= 1e-12 * norm(f)

    def test_singular_bin_detected(self, op_h1, grid):
        with pytest.raises(NumericError):
            frozen_resolvent(op_h1, -1.0, mode(grid, 0))   # lambda + a = 0


class TestLaplaceTransform:
    def test_zero_mode_closed_form(self, op_h1, grid):
        # integral of e^{-2 tau} e^{-tau} over [0, inf) = 1/3 = resolvent value
        res = laplace_transform_check(op_h1, 2.0, mode(grid, 0), 40.0, 64)
        assert res <= 1e-10

    def test_band_limited_contract(self, op_h1, grid, rng):
        f = random_band_limited(grid, rng, band=4)
        res = laplace_transform_check(op_h1, 2.0, f, 40.0, 64)
        tail = laplace_tail_bound(2.0 + 0j, 1.0, 40.0, norm(f))
        assert res <= tail + 1e-8

    def test_tail_dominated_decay(self, op_h1, grid):
        # at lambda = 0.5 the truncation tail dominates the quadrature floor,
        # so doubling H drops the residual by the tail ratio e^{-15} >> 1e3
        f = mode(grid, 0)
        r10 = laplace_transform_check(op_h1, 0.5, f, 10.0, 64)
        r20 = laplace_transform_check(op_h1, 0.5, f, 20.0, 64)
        tail10 = laplace_tail_bound(0.5 + 0j, 1.0, 10.0, 1.0)
        assert r10 <= tail10
        assert r10 / max(r20, 1e-300) >= 1e3

    def test_bad_horizon(self, op_h1, grid):
        with pytest.raises(DomainError):
            laplace_transform_check(op_h1, 2.0, mode(grid, 0), -1.0, 8)

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(-2.0, 2.0), width=st.floats(0.1, 3.0),
           panels=st.integers(1, 9), nodes=st.integers(1, 8), data=st.data())
    def test_gl_panels_exact_on_polynomials(self, a, width, panels, nodes, data):
        # the composite rule integrates every degree <= 2 nodes - 1 exactly
        b = a + width
        coefs = data.draw(st.lists(st.integers(-5, 5), min_size=1,
                                   max_size=2 * nodes))
        poly = np.polynomial.Polynomial(coefs)
        taus, weights = gauss_legendre_panels(a, b, panels, nodes=nodes)
        assert taus.shape == weights.shape == (panels * nodes,)
        assert a < taus.min() and taus.max() < b
        exact = poly.integ()(b) - poly.integ()(a)
        scale = (width * sum(abs(c) for c in coefs)
                 * max(abs(a), abs(b), 1.0) ** len(coefs))
        assert np.sum(weights * poly(taus)) == pytest.approx(exact, abs=1e-13 * scale)


class TestFavard:
    def test_f1_single_mode(self, op_h1, grid):
        est = favard_norm(op_h1, mode(grid, 1))
        assert est.f1 == pytest.approx(2.0, rel=1e-15)
        assert (est.min_re_a, est.witness_xi) == (2.0, [1.0])

    def test_f1_matches_generator_norm(self, op_h1, grid, rng):
        f = random_band_limited(grid, rng, band=4)
        assert favard_norm(op_h1, f).f1 == norm(frozen_generator(op_h1, f))

    def test_f0_recovers_plain_norm(self, td1, grid, rng):
        f = random_band_limited(grid, rng, band=4)
        op = FrozenOperator(td1, 1.0)
        assert favard_norm(op, f).f0 == pytest.approx(norm(f), rel=1e-14)

    def test_zero_vector(self, op_h1, grid):
        z = GridFunction(grid, np.zeros(grid.shape, dtype=complex))
        est = favard_norm(op_h1, z)
        assert (est.f1, est.f0, est.min_re_a, est.witness_xi) == (0.0, 0.0, np.inf, None)

    def test_minimum_is_read_on_the_support_only(self, grid):
        # a = xi^2 - 2 is negative at xi = 0 and +-1, but mode 2 lives at
        # xi = 2 only, where a = 2
        op = FrozenOperator(heat_symbol(horizon=1.0, shift=-2.0), 0.0)
        assert (favard_norm(op, mode(grid, 2)).min_re_a,
                favard_norm(op, mode(grid, 1)).min_re_a) == (2.0, -1.0)

    def test_sweep_exceeds_the_closed_form_where_re_a_is_negative(self, grid):
        # a = -2 on mode 0: (1/t) |e^{2t} - 1| is largest at the sweep's t = 1,
        # e^2 - 1, while ||A f|| = 2; the closed form carries min Re a = -2
        op = FrozenOperator(heat_symbol(horizon=1.0, shift=-2.0), 0.0)
        est = favard_norm(op, mode(grid, 0))
        assert (est.min_re_a, est.witness_xi) == (-2.0, [0.0])
        assert est.f1 == pytest.approx(2.0, rel=1e-15)
        assert favard_sweep(op, mode(grid, 0), "F1") == pytest.approx(np.expm1(2.0),
                                                                       rel=1e-14)

    @pytest.mark.parametrize("shift", [-1.0, 1e-310])
    def test_vanishing_symbol_has_no_f0_gauge(self, grid, shift):
        # a = xi^2 - 1 vanishes at xi = +-1; a = xi^2 + 1e-310 does not, but
        # its reciprocal overflows at xi = 0, where the f0 sum would read inf * 0
        op = FrozenOperator(heat_symbol(horizon=1.0, shift=shift), 0.0)
        with pytest.raises(NumericError, match="reference symbol vanishes on the grid"):
            favard_norm(op, mode(grid, 1))


@settings(max_examples=40, deadline=None)
@given(spec=elliptic_symbols(), time=st.floats(0.0, 1.5), seed=st.integers(0, 2**32 - 1))
def test_favard_sweep_reaches_the_closed_forms(spec, time, seed):
    """Where Re a >= 0 on the support of band-4 data, |e^{-z} - 1| <= |z|
    puts every difference quotient at or below the closed forms, and the
    smallest sample t = 2^-40 reaches them to about t |a| / 2 relative."""
    op = FrozenOperator(spec, time)
    f = random_band_limited(COCYCLE_GRID, np.random.default_rng(seed), band=4)
    with np.errstate(divide="ignore", over="ignore"):
        gauged = np.all(np.isfinite(1.0 / np.abs(op.symbol_on(COCYCLE_GRID))))
    if not gauged:      # 1/|a(time, .)| overflows somewhere: no X_{-1} gauge
        with pytest.raises(NumericError):
            favard_norm(op, f)
        return
    est = favard_norm(op, f)
    if est.min_re_a < 0.0:
        return
    for space, closed in (("F1", est.f1), ("F0", est.f0)):
        sweep = favard_sweep(op, f, space)
        assert closed * (1.0 - 1e-10) <= sweep <= closed * (1.0 + 1e-12)


class TestExtrapolationModel:
    def test_generator_isometry_into_extrapolation(self, td1, grid, rng):
        # || A(s) f ||_{-1, s-gauge} = || f ||_2 exactly, for any grid f
        op = FrozenOperator(td1, 1.3)
        f = random_band_limited(grid, rng, band=100)
        assert norm(frozen_generator(op, f), op.gauge()) == pytest.approx(norm(f), rel=1e-12)


RESOLVENT_ULPS = 8      # roundoff multiples allowed per bin by the identity check


@settings(max_examples=40, deadline=None)
@given(spec=elliptic_symbols(), time=st.floats(0.0, 1.5),
       shifts=st.lists(st.floats(0.0, 20.0), min_size=2, max_size=2),
       heights=st.lists(st.floats(-40.0, 40.0), min_size=2, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_resolvent_identity_on_random_symbols(spec, time, shifts, heights, seed):
    """R(lambda) - R(mu) = (mu - lambda) R(lambda) R(mu) for the frozen
    generator of a random elliptic symbol, with lambda and mu in the right
    half-plane shifted past its spectrum: lambda = omega + z, Re z >= 0 and
    omega = 1/2 - min Re a(time, .), so |lambda + a| >= 1/2.  Per bin the
    computed sides differ by a few eps |f| (|lambda| + |mu| + 2|a|) /
    (|lambda + a| |mu + a|)."""
    op = FrozenOperator(spec, time)
    a = op.symbol_on(COCYCLE_GRID)
    omega = 0.5 - float(np.min(a.real))
    lam, mu = (omega + x + 1j * y for x, y in zip(shifts, heights))
    f = random_band_limited(COCYCLE_GRID, np.random.default_rng(seed), band=4)
    lhs = frozen_resolvent(op, lam, f).values - frozen_resolvent(op, mu, f).values
    rhs = (mu - lam) * frozen_resolvent(op, lam, frozen_resolvent(op, mu, f)).values
    scale = (np.abs(f.values) * (abs(lam) + abs(mu) + 2.0 * np.abs(a))
             / (np.abs(lam + a) * np.abs(mu + a)))
    defect = norm(GridFunction(COCYCLE_GRID, lhs - rhs))
    floor = norm(GridFunction(COCYCLE_GRID, scale))
    assert defect <= RESOLVENT_ULPS * np.finfo(float).eps * floor
