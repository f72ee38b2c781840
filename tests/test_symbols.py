from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofam import spectral
from evofam.errors import ConfigurationError, DomainError
from evofam.semigroup import gauss_legendre_panels
from evofam.spectral import Grid
from evofam.symbols import CoefficientFunction, SymbolSpec, certify_ellipticity, constant
from reference import coefficient_lipschitz, drift_symbol, oscillating_symbol

ANTIDERIVATIVE_TOL = 1e-12  # relative gap of closed form and quadrature
DERIVATIVE_TOL = 1e-6       # gap of c' and a central difference, per max(1, L)


@st.composite
def coefficients(draw):
    """const, poly (degree 1-4), trig (w up to 300) and step terms on [0, 1]
    with complex weights of modulus at most 3."""
    c = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    terms = st.integers(0, 2)
    return CoefficientFunction(
        const=draw(c),
        poly=tuple((draw(st.integers(1, 4)), draw(c)) for _ in range(draw(terms))),
        trig=tuple((draw(st.floats(0.1, 300.0)), draw(c), draw(c))
                   for _ in range(draw(terms))),
        steps=tuple((draw(st.floats(0.0, 1.0)), draw(c)) for _ in range(draw(terms))))


def at(spec, t, xi, principal_only=False) -> complex:
    """a(t, xi) (or its principal part, the symbol of the full-order terms
    alone, as `certify_ellipticity` builds it) at one time and frequency
    vector."""
    if principal_only:
        spec = replace(spec, coefficients={alpha: c for alpha, c in spec.coefficients.items()
                                           if sum(alpha) == spec.order})
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return complex(spec.time_matrix([t], tuple(xi[:, None])).reshape(-1)[0])


class TestCoefficientFunction:
    def test_evaluation(self):
        c = CoefficientFunction(const=1.0, poly=((2, 0.5),),
                                trig=((2.0, 1.0, -0.5),))
        t = 0.7
        expected = 1.0 + 0.5 * t**2 + np.cos(2 * t) - 0.5 * np.sin(2 * t)
        assert c(t) == pytest.approx(expected)

    @settings(max_examples=200, deadline=None)
    @given(c=coefficients(), ends=st.lists(st.floats(0.0, 1.0), min_size=2,
                                           max_size=2))
    def test_antiderivative_matches_quadrature(self, c, ends):
        """C(t) - C(s) equals composite 12-node Gauss-Legendre quadrature of
        c over [s, t] to ANTIDERIVATIVE_TOL relative.  Panels are at most
        min(0.25, 1/w) wide for the fastest frequency w, which resolves every
        oscillation, and end at the jump times, where a step term is smooth
        on either side."""
        s, t = sorted(ends)
        fastest = max((omega for omega, _, _ in c.trig), default=1.0)
        width = min(0.25, 1.0 / fastest)
        edges = sorted({s, t, *(t0 for t0, _ in c.steps if s < t0 < t)})
        quad = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            panels = max(1, int(np.ceil((hi - lo) / width)))
            taus, weights = gauss_legendre_panels(lo, hi, panels)
            quad += np.dot(weights, c(taus))
        closed = c.antiderivative(t) - c.antiderivative(s)
        assert abs(closed - quad) <= ANTIDERIVATIVE_TOL * max(1.0, abs(closed))

    @settings(max_examples=200, deadline=None)
    @given(c=coefficients(), t=st.floats(0.0, 1.0))
    def test_derivative_matches_central_difference(self, c, t):
        """Off the steps, c'(t) equals the central difference of c with
        h = 1e-4 / max(1, w), w the fastest frequency: its truncation,
        h^2/6 sup|c'''|, and its rounding, about eps sup|c| / h, stay below
        DERIVATIVE_TOL of max(1, L), and |c'(t)| <= L = lipschitz_bound(1).
        A step term adds nothing off its jump time, and +inf at a jump
        t0 > 0 with a nonzero jump."""
        smooth = replace(c, steps=())
        h = 1e-4 / max([1.0] + [omega for omega, _, _ in c.trig])
        rate, bound = smooth.derivative(t), smooth.lipschitz_bound(1.0)
        difference = (smooth(t + h) - smooth(t - h)) / (2.0 * h)
        assert abs(rate - difference) <= DERIVATIVE_TOL * max(1.0, bound)
        assert abs(rate) <= bound * (1.0 + 1e-12)
        # the central difference of c' averages c'' over [t - h, t + h], which
        # lipschitz_bound(1 + h, derivative=True) bounds
        curvature = (smooth.derivative(t + h) - smooth.derivative(t - h)) / (2.0 * h)
        assert abs(curvature) <= (smooth.lipschitz_bound(1.0 + h, derivative=True)
                                  * (1.0 + 1e-9) + DERIVATIVE_TOL)
        jumps = {t0 for t0, jump in c.steps if jump != 0 and t0 > 0}
        assert c.derivative(t) == (np.inf + rate if t in jumps else rate)
        for t0 in jumps:
            assert np.isinf(c.derivative(t0))

    def test_lipschitz_bound_quadratic(self):
        # c(t) = t^2 on [0, 2] has sup |c'| = 4
        c = CoefficientFunction(poly=((2, 1.0),))
        assert c.lipschitz_bound(2.0) == pytest.approx(4.0)

    def test_step_terms_make_bound_infinite(self):
        c = CoefficientFunction(const=1.0, steps=((0.5, 1.0),))
        assert c.lipschitz_bound(1.0) == np.inf
        assert c(0.4) == pytest.approx(1.0)
        assert c(0.6) == pytest.approx(2.0)
        # antiderivative of the jump is a hinge
        assert c.antiderivative(1.0) == pytest.approx(1.0 + 0.5)

    def test_rejects_bad_terms(self):
        with pytest.raises(ConfigurationError):
            CoefficientFunction(poly=((0, 1.0),))
        with pytest.raises(ConfigurationError):
            CoefficientFunction(trig=((0.0, 1.0, 0.0),))


class TestSymbolEvaluation:
    def test_h1_values(self, h1):
        assert at(h1, 0.3, 0.0) == pytest.approx(1.0)
        assert at(h1, 0.0, 2.0) == pytest.approx(5.0)

    def test_td1_value(self, td1):
        assert at(td1, np.pi / 2, 1.0) == pytest.approx(4.0)

    def test_principal_part(self, h1, td1):
        assert at(h1, 0.0, 2.0, principal_only=True) == pytest.approx(4.0)
        assert at(td1, 0.0, 1.0, principal_only=True) == pytest.approx(2.0)
        assert at(td1, np.pi / 2, -3.0, principal_only=True) == pytest.approx(27.0)

    def test_time_domain_enforced(self, h1):
        with pytest.raises(DomainError):
            at(h1, 2.0, 1.0)
        with pytest.raises(DomainError):
            at(h1, -0.1, 1.0)

    def test_requires_full_order_entry(self):
        with pytest.raises(ConfigurationError):
            SymbolSpec(dim=1, order=2, horizon=1.0,
                       coefficients={(0,): constant(1.0)})

    def test_mixed_derivative_2d(self):
        spec = SymbolSpec(dim=2, order=2, horizon=1.0,
                          coefficients={(1, 1): constant(1.0),
                                        (2, 0): constant(-1.0)})
        # (i xi1)(i xi2) - (i xi1)^2 at xi = (2, 3)
        assert at(spec, 0.0, (2.0, 3.0)) == pytest.approx(-6.0 + 4.0)

    def test_terms_broadcast_into_the_sum(self, monkeypatch):
        # each term multiplies its monomial at the monomial's own shape (a
        # scalar, or one axis of the grid) and broadcasts in the sum: bit for
        # bit the sum of full-size terms, in one block of rows or in blocks
        # of 2 rows that do not divide the 5 times
        grid = Grid(2, 16, 2.0 * np.pi)
        spec = SymbolSpec(dim=2, order=2, horizon=1.0, coefficients={
            (2, 0): CoefficientFunction(const=-1.0, trig=((3.0, 0.1, 0.2),)),
            (0, 2): constant(-2.0), (1, 0): constant(0.3j), (0, 0): constant(1.0)})
        ts, axes = np.linspace(0.0, 1.0, 5), grid.xi_axes()
        monos = spec.monomials(axes)
        full = np.zeros((len(ts),) + grid.shape, dtype=complex)
        for alpha, coef in spec.coefficients.items():
            full += coef(ts)[:, None, None] * np.broadcast_to(monos[alpha], grid.shape)
        assert spec.time_matrix(ts, axes).tobytes() == full.tobytes()
        monkeypatch.setattr(spectral, "BLOCK_ELEMENTS", 2 * grid.n ** 2)
        assert spec.time_matrix(ts, axes).tobytes() == full.tobytes()


@settings(max_examples=50, deadline=None)
@given(t=st.floats(0.0, 2.0 * np.pi), xi=st.floats(-64.0, 64.0),
       scale=st.floats(0.1, 8.0))
def test_principal_homogeneity(t, xi, scale):
    spec = oscillating_symbol()
    lhs = at(spec, t, scale * xi, principal_only=True)
    rhs = scale**spec.order * at(spec, t, xi, principal_only=True)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(t=st.floats(0.0, 2.0 * np.pi), xi=st.floats(-64.0, 64.0))
def test_conjugation_symmetry_real_coefficients(t, xi):
    spec = oscillating_symbol()      # all coefficient functions real
    assert at(spec, t, -xi) == pytest.approx(np.conj(at(spec, t, xi)),
                                             rel=1e-12, abs=1e-12)


@st.composite
def lipschitz_symbols(draw):
    """a(t, xi) = sum_{k <= 2} c_k(t) (i xi)^k on [0, 2], each c_k a const
    plus at most one poly (degree 1-3) and one trig (w <= 50) term, with
    complex weights of modulus at most 3; with a drawn flag c_2 also jumps
    once."""
    c = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    terms = st.integers(0, 1)
    coeffs = {(k,): CoefficientFunction(
        const=draw(c),
        poly=tuple((draw(st.integers(1, 3)), draw(c)) for _ in range(draw(terms))),
        trig=tuple((draw(st.floats(0.1, 50.0)), draw(c), draw(c))
                   for _ in range(draw(terms)))) for k in range(3)}
    if draw(st.booleans()):
        jump = draw(c.filter(lambda z: z != 0))
        coeffs[(2,)] = replace(coeffs[(2,)], steps=((draw(st.floats(0.0, 2.0)), jump),))
    return SymbolSpec(dim=1, order=2, horizon=2.0, coefficients=coeffs)


@settings(max_examples=50, deadline=None)
@given(spec=lipschitz_symbols(), t=st.floats(0.0, 2.0), gap=st.floats(-0.05, 0.05),
       xi=st.floats(-32.0, 32.0))
def test_time_lipschitz_bound(spec, t, gap, xi):
    """|a(t,xi) - a(s,xi)| <= |t - s| sum_alpha Lip_alpha |xi|^|alpha|, the
    bound the sampled cd quotients rest on; a jump makes Lip infinite.  The
    bound is tightest on close pairs, so s lies within 0.05 of t."""
    s = min(max(t + gap, 0.0), 2.0)
    lips = coefficient_lipschitz(spec)
    jumps = bool(spec.coefficients[(2,)].steps)
    assert np.isinf(lips[(2,)]) == jumps
    if not jumps:
        budget = sum(b * abs(xi) ** sum(alpha) for alpha, b in lips.items())
        assert abs(at(spec, t, xi) - at(spec, s, xi)) <= abs(t - s) * budget + 1e-9


def sphere_ellipticity(spec, time_samples=512):
    """certify_ellipticity with omega taken over a 4-point grid per axis,
    xi in {0, 1, -2, -1}."""
    return certify_ellipticity(spec, time_samples, Grid(spec.dim, 4, 2.0 * np.pi))


class TestEllipticity:
    def test_td1_constants(self, td1):
        rep = sphere_ellipticity(td1)
        assert rep.constant > 0 and rep.lower_bound > 0
        assert rep.constant == pytest.approx(1.0, abs=1e-3)
        assert rep.lower_bound == pytest.approx(1.0, abs=1e-3)
        # closed-form minimum of 2 + sin t sits at t = 3 pi / 2
        assert rep.witness_constant[0] == pytest.approx(3 * np.pi / 2, abs=0.05)

    def test_h1_constants(self, h1):
        rep = sphere_ellipticity(h1)
        assert rep.constant > 0 and rep.lower_bound > 0
        assert rep.constant == pytest.approx(1.0)
        assert rep.lower_bound == pytest.approx(1.0)

    def test_drift_fails(self):
        rep = sphere_ellipticity(drift_symbol())
        assert rep.constant <= 0.0

    def test_margin_around_jumps(self):
        # c_2(t) = -2 + 0.5 sin t [+ steps] on [0, 2], samples 0, 0.5, ..., 2:
        # the continuous terms move Re a_2 by at most 0.5 per unit time
        def margin(*steps):
            spec = SymbolSpec(dim=1, order=2, horizon=2.0, coefficients={
                (2,): CoefficientFunction(const=-2.0, trig=((1.0, 0.0, 0.5),),
                                          steps=steps)})
            return sphere_ellipticity(spec, time_samples=5).margin
        # no jump in (0, T]: half a gap from the nearer sample
        assert margin() == margin((0.0, 1.0), (2.5, 1.0), (1.0, 0.0)) == 0.125
        # a sample on one side only of a jump: a whole gap
        assert margin((1.2, -1.0)) == margin((1.0, -1.0), (1.4, 1.0), (2.0, 1.0)) == 0.25
        # no sample on [1.1, 1.3)
        assert margin((1.1, -1.0), (1.3, 1.0)) == np.inf

    @pytest.mark.parametrize("dim", [1, 2])
    def test_omega_reads_the_grid_bins(self, dim):
        # omega and its witness are those of the frequency rows with an extra
        # xi = 0 row appended, as omega was taken before: the grid holds xi = 0
        spec = SymbolSpec(dim=dim, order=2, horizon=2.0, coefficients={
            (2,) + (0,) * (dim - 1): CoefficientFunction(const=-1.0, trig=((1.0, 0.5, 0.0),)),
            (1,) + (0,) * (dim - 1): constant(0.3 + 0.2j),
            (0,) * dim: CoefficientFunction(const=0.5, trig=((3.0, 0.0, 0.7),))})
        grid = Grid(dim, 8, 2.0 * np.pi)
        rep = certify_ellipticity(spec, 33, grid)
        rows = np.vstack([grid.xi_rows(), np.zeros((1, dim))])
        full = spec.time_matrix(np.linspace(0.0, 2.0, 33), tuple(rows.T)).real
        i, j = np.unravel_index(np.argmin(full), full.shape)
        assert rep.lower_bound == full[i, j]
        assert rep.witness_lower == (float(np.linspace(0.0, 2.0, 33)[i]), rows[j].tolist())

    def test_empty_sample_plan_rejected(self, h1):
        with pytest.raises(ConfigurationError):
            sphere_ellipticity(h1, time_samples=0)


class TestCoefficientLipschitzMap:
    def test_h1_all_zero(self, h1):
        assert all(v == 0.0 for v in coefficient_lipschitz(h1).values())

    def test_td1_bounds(self, td1):
        lips = coefficient_lipschitz(td1)
        assert lips[(2,)] == pytest.approx(1.0)
        assert lips[(0,)] == 0.0


@settings(max_examples=40, deadline=None)
@given(wave=st.tuples(st.floats(0.5, 40.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       steps=st.lists(st.tuples(st.floats(0.0, 2.5), st.floats(-2.0, 2.0)), max_size=3),
       time_samples=st.integers(1, 17))
def test_ellipticity_margin_bounds_the_dip_off_the_samples(wave, steps, time_samples):
    # Re a_2 = -Re c_2 on xi = +-1: its min over a dense grid and the jump
    # times lies at or above c - margin
    coef = CoefficientFunction(const=-3.0, trig=(wave,), steps=tuple(steps))
    spec = SymbolSpec(dim=1, order=2, horizon=2.0, coefficients={(2,): coef})
    rep = sphere_ellipticity(spec, time_samples)
    ts = np.concatenate([np.linspace(0.0, 2.0, 4001),
                         [t0 for t0, _ in steps if t0 <= 2.0]])
    assert np.min(-coef(ts).real) >= rep.constant - rep.margin - 1e-12
