import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofam.cli import EXACT_ULPS
from evofam.errors import ConfigurationError, DomainError
from evofam.evolution import PropagatorEngine, observed_orders, product_formula_errors
from evofam.semigroup import FrozenOperator
from evofam.spectral import Grid, GridFunction, mode, norm, \
    random_band_limited
from evofam.symbols import CoefficientFunction, SymbolSpec, constant
from reference import (COCYCLE_TOL, cocycle_defect, derivative_defect, frozen_semigroup,
                       operator_norm, product_formula_reference)


@pytest.fixture(scope="module")
def engine(td1, grid):
    return PropagatorEngine(td1, grid)


class TestExactPropagator:
    def test_oscillating_mode_closed_form(self, engine, grid):
        # integral of (2 + sin tau) over [0, pi] is 2 pi + 2; plus a0 = 1 gives pi
        out = engine.propagate(0.0, np.pi, mode(grid, 1))
        assert norm(out) == pytest.approx(np.exp(-(3.0 * np.pi + 2.0)), rel=1e-12)

    def test_identity_at_equal_times(self, engine, grid, rng):
        f = random_band_limited(grid, rng)
        out = engine.propagate(1.2, 1.2, f)
        # the exponent over [s, s] is 0 and e^{-0} = 1: U(s, s) = Id bit for bit
        assert np.array_equal(out.values, f.to_frequency().values)

    def test_autonomous_reduces_to_semigroup(self, h1, grid, rng):
        eng = PropagatorEngine(h1, grid)
        f = random_band_limited(grid, rng, band=8)
        direct = frozen_semigroup(FrozenOperator(h1, 0.0), 0.6, f)
        via_engine = eng.propagate(0.2, 0.8, f)
        assert np.allclose(direct.values, via_engine.values)

    def test_time_order_enforced(self, engine, grid):
        with pytest.raises(DomainError):
            engine.propagate(2.0, 1.0, mode(grid, 0))

    def test_fast_trig_symbol_is_exact(self, grid):
        # a(t, xi) = (2 + sin 200 t) xi^2 + 1: the closed form integrates any
        # frequency, so the engine builds and U(1, 0) e_1 decays by exactly
        # exp(-(3 + (1 - cos 200) / 200))
        fast = SymbolSpec(dim=1, order=2, horizon=1.0, coefficients={
            (2,): CoefficientFunction(const=-2.0, trig=((200.0, 0.0, -1.0),)),
            (0,): constant(1.0)})
        out = PropagatorEngine(fast, grid).propagate(0.0, 1.0, mode(grid, 1))
        expected = np.exp(-(3.0 + (1.0 - np.cos(200.0)) / 200.0))
        assert norm(out) == pytest.approx(expected, rel=1e-12)

    def test_step_symbol_quadrature_splits_panels(self, grid):
        step = SymbolSpec(dim=1, order=2, horizon=2.0, coefficients={
            (2,): CoefficientFunction(const=-2.0, steps=((1.0, -1.0),)),
            (0,): constant(1.0)})
        # nothing is checked at construction: the hinge max(t - 1, 0) is the
        # step term's exact antiderivative on either side of the jump
        eng = PropagatorEngine(step, grid)
        out = eng.propagate(0.5, 1.5, mode(grid, 1))
        # xi^2 weight integrates to 2*0.5 + 3*0.5 = 2.5; a0 adds the length 1
        assert norm(out) == pytest.approx(np.exp(-3.5), rel=1e-12)


class TestCocycle:
    def test_exact_engine_additivity(self, engine, grid, rng):
        f = random_band_limited(grid, rng, band=4)
        for _ in range(20):
            r, s, t = np.sort(rng.uniform(0.0, engine.spec.horizon, 3))
            assert cocycle_defect(engine, r, s, t, f) <= 1e-10

    def test_zero_vector(self, engine, grid):
        z = GridFunction(grid, "frequency", np.zeros(grid.shape, dtype=complex))
        assert cocycle_defect(engine, 0.1, 0.5, 1.0, z) == 0.0

    def test_ordering_enforced(self, engine, grid):
        with pytest.raises(DomainError):
            cocycle_defect(engine, 1.0, 0.5, 2.0, mode(grid, 0))


class TestDerivatives:
    def test_dt_second_order(self, engine, grid):
        f = mode(grid, 1)
        base = engine.propagate(0.3, 2.0, f)
        d1 = derivative_defect(engine, 0.3, 2.0, f, base, h=1e-3, which="dt")
        d2 = derivative_defect(engine, 0.3, 2.0, f, base, h=5e-4, which="dt")
        assert 3.5 <= d1 / d2 <= 4.5

    def test_ds_second_order(self, engine, grid, rng):
        f = random_band_limited(grid, rng, band=4)
        base = engine.propagate(0.5, 2.0, f)
        d1 = derivative_defect(engine, 0.5, 2.0, f, base, h=1e-3, which="ds")
        d2 = derivative_defect(engine, 0.5, 2.0, f, base, h=5e-4, which="ds")
        assert 3.5 <= d1 / d2 <= 4.5

    def test_autonomous_matches_frozen_generator_check(self, h1, grid, rng):
        # on an autonomous symbol the evolution-family stencil equals the
        # frozen-semigroup stencil applied at the same elapsed time
        f = random_band_limited(grid, rng, band=4)
        eng = PropagatorEngine(h1, grid)
        h = 1e-3
        via_family = derivative_defect(eng, 0.1, 0.7, f, eng.propagate(0.1, 0.7, f),
                                       h=h, which="dt")
        op = FrozenOperator(h1, 0.0)
        base = frozen_semigroup(op, 0.6, f)
        plus = frozen_semigroup(op, 0.6 + h, f)
        minus = frozen_semigroup(op, 0.6 - h, f)
        a = np.broadcast_to(h1.on_axes(0.0, grid.xi_axes()), grid.shape)
        resid = (plus.values - minus.values) / (2 * h) + a * base.values
        via_frozen = norm(GridFunction(grid, "frequency", resid))
        assert abs(via_family - via_frozen) <= 1e-8

    def test_zero_vector(self, engine, grid):
        z = GridFunction(grid, "frequency", np.zeros(grid.shape, dtype=complex))
        assert derivative_defect(engine, 0.3, 1.0, z, z, h=1e-3, which="dt") == 0.0

    def test_stencil_domain_guard(self, engine, grid):
        f = mode(grid, 0)
        base = engine.propagate(0.0, engine.spec.horizon, f)
        with pytest.raises(DomainError):
            derivative_defect(engine, 0.0, engine.spec.horizon, f, base,
                              h=1e-3, which="dt")


class TestGrowthAndGauges:
    def test_oscillating_operator_norm(self, engine):
        # || U(t,s) || = e^{-(t-s)}: the grid max sits at xi = 0
        assert operator_norm(engine, 0.5, 2.5) == pytest.approx(np.exp(-2.0))

    def test_growth_certificate(self, engine, rng):
        # Re a >= 1 on td1, a declared omega = -1: ||U(t,s)|| <= e^{-(t - s)},
        # with equality at xi = 0
        pairs = [tuple(np.sort(rng.uniform(0.0, engine.spec.horizon, 2)))
                 for _ in range(25)]
        ratios = [operator_norm(engine, s, t) / np.exp(-(t - s)) for s, t in pairs]
        assert max(ratios) <= 1.0 + 1e-12
        assert max(ratios) == pytest.approx(1.0, rel=1e-9)

    def test_trivial_at_equal_times(self, engine):
        assert operator_norm(engine, 1.0, 1.0) == pytest.approx(1.0)


class TestStrongContinuity:
    def test_time_modulus_bounded_by_symbol(self, engine, grid, rng):
        f = random_band_limited(grid, rng, band=4)
        ts, xis = np.linspace(0, engine.spec.horizon, 32), np.linspace(-4, 4, 17)
        band_max = np.max(np.abs(engine.spec.time_matrix(ts, (xis,))))
        delta = 1e-3
        out0 = engine.propagate(0.0, 1.0, f)
        out1 = engine.propagate(0.0, 1.0 + delta, f)
        diff = norm(GridFunction(grid, "frequency", out1.values - out0.values))
        assert diff <= band_max * delta * norm(f) * 1.05


class TestProductFormula:
    def test_left_endpoint_first_order(self, td1, grid, rng):
        f = random_band_limited(grid, rng, band=4)
        target = PropagatorEngine(td1, grid).propagate(0.0, 2.0, f)
        errs = product_formula_errors(td1, 0.0, 2.0, f, target, "left",
                                      [64, 128, 256])
        for order in observed_orders(errs, [64, 128, 256]):
            assert 0.8 <= order <= 1.2

    def test_midpoint_second_order(self, td1, grid, rng):
        f = random_band_limited(grid, rng, band=4)
        target = PropagatorEngine(td1, grid).propagate(0.0, 2.0, f)
        errs = product_formula_errors(td1, 0.0, 2.0, f, target, "midpoint",
                                      [64, 128, 256])
        for order in observed_orders(errs, [64, 128, 256]):
            assert 1.7 <= order <= 2.3

    def test_bad_rule_rejected(self, td1, grid):
        f = mode(grid, 1)
        with pytest.raises(ConfigurationError):
            product_formula_errors(td1, 0.0, 1.0, f, f, "simpson", [16])

    def test_nodes_outside_the_horizon_rejected(self, td1, grid):
        f = mode(grid, 1)
        with pytest.raises(DomainError):
            product_formula_errors(td1, 0.0, td1.horizon + 1.0, f, f, "left", [16])

    def test_exact_on_h1(self, h1, grid, rng):
        # a constant coefficient's Riemann sum on a power-of-two ladder is its
        # exact increment, and both exponents go through the same combine
        f = random_band_limited(grid, rng, band=4)
        target = PropagatorEngine(h1, grid).propagate(0.0, 0.9, f)
        for rule in ("left", "midpoint"):
            assert product_formula_errors(h1, 0.0, 0.9, f, target, rule,
                                          [16, 32, 64, 128]) == [0.0] * 4

    def test_no_symbol_table(self, td1, grid, rng):
        # the rules sum coefficients; they build no (nodes x bins) table
        f = random_band_limited(grid, rng, band=4)
        target = PropagatorEngine(td1, grid).propagate(0.0, 2.0, f)
        with mock.patch.object(SymbolSpec, "time_matrix",
                               side_effect=AssertionError("time_matrix called")):
            for rule in ("left", "midpoint"):
                product_formula_errors(td1, 0.0, 2.0, f, target, rule, [64, 96])

    @pytest.mark.parametrize("rows", [1, 3])
    def test_block_boundaries_leave_the_errors_unchanged(self, monkeypatch, td1, rows):
        # the block size of the blocked sweeps must not reach the rules: one
        # row per block, and blocks of 3 rows that divide no step count
        from evofam import spectral
        grid = Grid(1, 64, 2.0 * np.pi)
        f = random_band_limited(grid, np.random.default_rng(4), band=4)
        target = PropagatorEngine(td1, grid).propagate(0.0, 2.0, f)

        def errors():
            return [product_formula_errors(td1, 0.0, 2.0, f, target, rule, [8, 16])
                    for rule in ("left", "midpoint")]

        default = errors()
        monkeypatch.setattr(spectral, "BLOCK_ELEMENTS", rows * grid.n)
        assert errors() == default


def test_observed_orders_requires_two_errors():
    with pytest.raises(ConfigurationError):
        observed_orders([1.0], [1])
    with pytest.raises(ConfigurationError):
        observed_orders([1.0, 0.5], [1])


def test_observed_orders_read_the_ladder_ratio():
    # e = n^{-p} on any ladder gives back p; a doubling ladder is log2
    for levels in ([32, 64, 128], [32, 48, 72, 108], [1, 3, 6]):
        errors = [float(n) ** -2.0 for n in levels]
        assert observed_orders(errors, levels) == pytest.approx([2.0] * (len(levels) - 1),
                                                               rel=1e-12)
    assert observed_orders([4.0, 1.0], [16, 32]) == [2.0]
    assert observed_orders([1.0, 0.0], [1, 2]) == [float("inf")]


COCYCLE_GRID = Grid(1, 64, 2.0 * np.pi)


@st.composite
def elliptic_symbols(draw):
    """a(t, xi) = lead(t) (i xi)^2 + d (i xi) + zeroth(t) on [0, 1.5]: lead is
    a constant in [-3, -1] plus poly and trig terms of total size below 1,
    so -Re lead stays positive; d is a drift, zeroth a trig potential."""
    omega, small = st.floats(0.5, 4.0), st.floats(-0.25, 0.25)
    lead = CoefficientFunction(
        const=draw(st.floats(-3.0, -1.0)),
        poly=((draw(st.integers(1, 3)), draw(st.floats(-0.1, 0.1))),),
        trig=((draw(omega), draw(small), draw(small)),))
    zeroth = CoefficientFunction(const=draw(st.floats(0.0, 2.0)),
                                 trig=((draw(omega), draw(small), draw(small)),))
    return SymbolSpec(dim=1, order=2, horizon=1.5, coefficients={
        (2,): lead, (1,): constant(draw(st.floats(-2.0, 2.0))), (0,): zeroth})


@settings(max_examples=40, deadline=None)
@given(spec=elliptic_symbols(),
       times=st.lists(st.floats(0.0, 1.5), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_exact_cocycle_on_random_symbols(spec, times, seed):
    """U(t,s) U(s,r) = U(t,r) for the exact engine: the closed-form
    exponents are additive, so the defect is roundoff on band-4 vectors."""
    engine = PropagatorEngine(spec, COCYCLE_GRID)
    f = random_band_limited(COCYCLE_GRID, np.random.default_rng(seed), band=4)
    r, s, t = sorted(times)
    assert cocycle_defect(engine, r, s, t, f) <= COCYCLE_TOL


@settings(max_examples=40, deadline=None)
@given(spec=elliptic_symbols(), rule=st.sampled_from(["left", "midpoint"]),
       first=st.integers(1, 16), ratio=st.sampled_from([2.0, 1.5]),
       ends=st.lists(st.floats(0.0, 1.5), min_size=2, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_product_rules_match_the_row_by_row_sum(spec, rule, first, ratio, ends, seed):
    """Summing each coefficient over the nodes gives the errors of the
    row-by-row sum of a(tau_j, .) to 1e-9 relative, on ladders that double
    or grow 1.5 times a step; errors at the exact floor EXACT_ULPS * eps *
    ||f|| are roundoff in both, and agree to that floor."""
    f = random_band_limited(COCYCLE_GRID, np.random.default_rng(seed), band=4)
    s, t = sorted(ends)
    target = PropagatorEngine(spec, COCYCLE_GRID).propagate(s, t, f)
    ladder = [int(4 * first * ratio ** k) for k in range(3)]
    floor = EXACT_ULPS * np.finfo(float).eps * norm(f)
    new = product_formula_errors(spec, s, t, f, target, rule, ladder)
    old = product_formula_reference(spec, s, t, f, target, rule, ladder)
    for e_new, e_old in zip(new, old):
        assert abs(e_new - e_old) <= 1e-9 * e_old + floor


@st.composite
def autonomous_symbols(draw):
    """a(xi) = lead (i xi)^2 + d (i xi) + z with constant coefficients on
    [0, 1.5]: lead in [-3, -1], drift d, potential z."""
    return SymbolSpec(dim=1, order=2, horizon=1.5, coefficients={
        (2,): constant(draw(st.floats(-3.0, -1.0))),
        (1,): constant(draw(st.floats(-2.0, 2.0))),
        (0,): constant(draw(st.floats(0.0, 2.0)))})


@settings(max_examples=40, deadline=None)
@given(spec=autonomous_symbols(),
       times=st.lists(st.floats(0.0, 1.5), min_size=2, max_size=2),
       steps=st.integers(16, 128),
       seed=st.integers(0, 2**32 - 1))
def test_product_rules_exact_on_autonomous_symbols(spec, times, steps, seed):
    """Frozen factors commute with U(t,s) when a does not depend on time, so
    both rules reproduce it within the exact floor EXACT_ULPS * eps * ||f||
    that lets the h1 evolve and convergence runs pass without an order fit."""
    f = random_band_limited(COCYCLE_GRID, np.random.default_rng(seed), band=4)
    s, t = sorted(times)
    target = PropagatorEngine(spec, COCYCLE_GRID).propagate(s, t, f)
    floor = EXACT_ULPS * np.finfo(float).eps * norm(f)
    for rule in ("left", "midpoint"):
        [error] = product_formula_errors(spec, s, t, f, target, rule, [steps])
        assert error <= floor


@st.composite
def coefficient_functions(draw):
    """const, poly and trig terms with complex weights."""
    c = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    terms = st.integers(0, 2)
    return CoefficientFunction(
        const=draw(c),
        poly=tuple((draw(st.integers(1, 4)), draw(c)) for _ in range(draw(terms))),
        trig=tuple((draw(st.floats(0.3, 6.0)), draw(c), draw(c))
                   for _ in range(draw(terms))))


ROW_GRIDS = (Grid(1, 32, 2.0 * np.pi), Grid(2, 16, 2.0 * np.pi))


@st.composite
def row_engines(draw):
    """Engines on a 1-D or 2-D grid for order-2 symbols on [0, 1.5] with
    random coefficients on a random set of multi-indices."""
    grid = draw(st.sampled_from(ROW_GRIDS))
    alphas = [a for a in itertools.product(range(3), repeat=grid.dim) if sum(a) <= 2]
    full = (2,) + (0,) * (grid.dim - 1)
    chosen = draw(st.lists(st.sampled_from(alphas), unique=True))
    coefficients = {alpha: draw(coefficient_functions())
                    for alpha in [full] + [a for a in chosen if a != full]}
    return PropagatorEngine(SymbolSpec(dim=grid.dim, order=2, horizon=1.5,
                                       coefficients=coefficients), grid)


@settings(max_examples=60, deadline=None)
@given(engine=row_engines(),
       ends=st.lists(st.lists(st.floats(0.0, 1.5), min_size=2, max_size=2),
                     min_size=1, max_size=12),
       bad=st.sampled_from(["reversed", "early", "late"]),
       data=st.data())
def test_exponent_rows_equal_scalar_calls(engine, ends, bad, data):
    """Row k of engine.exponent(s, t) on arrays of interval ends is the
    scalar call on (s[k], t[k]) bit for bit; one row outside the time
    triangle fails the whole call."""
    s, t = np.sort(np.array(ends), axis=1).T.copy()
    rows = engine.exponent(s, t)
    assert rows.shape == s.shape + engine.grid.shape
    for k in range(len(s)):
        assert rows[k].tobytes() == engine.exponent(s[k], t[k]).tobytes()
    k = data.draw(st.integers(0, len(s) - 1))
    if bad == "reversed":
        s[k] = t[k] + 0.25
    elif bad == "early":
        s[k] = -0.25
    else:
        t[k] = engine.spec.horizon + 0.25
    with pytest.raises(DomainError, match=r"need 0 <= s <= t <= 1\.5, got s="):
        engine.exponent(s, t)
