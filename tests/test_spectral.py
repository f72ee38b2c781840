import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofam import spectral
from evofam.errors import ConfigurationError, NumericError
from evofam.evolution import PropagatorEngine
from evofam.spectral import (Grid, GridFunction, NormSpec, indicator, inverse_transform,
                             load_function, mode, norm, random_band_limited, save_function,
                             spectral_tail_fraction, transform)
from evofam.perturbation import MultiplierFamily, SmoothingComposite
from reference import (apply_multiplier, bessel_norm, heat_symbol, operator_norm,
                       oscillating_symbol)


@pytest.mark.parametrize("rows,width,sizes", [
    (10, spectral.BLOCK_ELEMENTS // 4, [4, 4, 2]),
    (3, 2 * spectral.BLOCK_ELEMENTS, [1, 1, 1]),
    (0, 7, []),
    # a row of no values (a march that carries no bin) counts as one value
    (5, 0, [5]),
])
def test_row_blocks(rows, width, sizes):
    blocks = spectral.row_blocks(rows, width)
    assert [b.stop - b.start for b in blocks] == sizes
    assert [b.start for b in blocks] == [sum(sizes[:k]) for k in range(len(sizes))]


class TestGrid:
    def test_spacing_identity(self, grid):
        assert grid.h * grid.n == pytest.approx(grid.box)

    def test_requires_power_of_two(self):
        with pytest.raises(ConfigurationError):
            Grid(1, 100, 1.0)

    def test_frequencies_conjugate_pairs(self, small_grid):
        xi = small_grid.xi_axis()
        n = small_grid.n
        # every positive frequency has its negative partner; 0 and Nyquist excepted
        for k in range(1, n // 2):
            assert xi[k] == pytest.approx(-xi[n - k])

    def test_integer_modes_on_2pi_box(self, grid):
        assert grid.xi_axis()[3] == pytest.approx(3.0)


class TestGridTables:
    def test_built_once(self, small_grid):
        assert small_grid.xi_axes() is small_grid.xi_axes()
        for table in ("xi_squared", "max_mode", "xi_rows"):
            assert getattr(small_grid, table)() is getattr(small_grid, table)()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_tables_read_only(self, dim):
        grid = Grid(dim, 16, 2.0 * np.pi)
        axes = grid.xi_axes()
        monos = heat_symbol(dim=dim).monomials(axes)
        tables = [*axes, grid.xi_squared(), grid.max_mode(), grid.xi_rows(),
                  *monos.values(), MultiplierFamily()._profile(axes)]
        for table in tables:
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 1.0

    def test_equal_grids_do_not_share(self):
        a, b = Grid(1, 16, 1.0), Grid(1, 16, 1.0)
        assert a == b and a.xi_axes() is not b.xi_axes()
        spec = heat_symbol()
        assert spec.monomials(a.xi_axes()) is not spec.monomials(b.xi_axes())

    def test_writeable_axes_are_not_memoized(self):
        # the caller may overwrite its own axes, so their identity proves nothing
        spec, axes = heat_symbol(), (np.array([1.0, 2.0]),)
        assert np.allclose(spec.monomials(axes)[(2,)], [-1.0, -4.0])
        axes[0][:] = 3.0
        assert np.allclose(spec.monomials(axes)[(2,)], [-9.0, -9.0])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_axes_at_bins_are_built_once_per_set(self, dim):
        # keyed by the bins' contents, so every run on one support shares
        # the tables keyed by axes identity
        grid = Grid(dim, 8, 2.0 * np.pi)
        bins = np.array([0, 3, grid.n ** dim - 1])
        axes = grid.xi_axes_at(bins)
        assert grid.xi_axes_at(bins.copy()) is axes
        assert grid.xi_axes_at(bins[:2]) is not axes
        for j, ax in enumerate(axes):
            assert ax.shape == (3,) and not ax.flags.writeable
            assert np.array_equal(ax, np.broadcast_to(grid.xi_axes()[j],
                                                      grid.shape).reshape(-1)[bins])
        assert [ax.shape for ax in grid.xi_axes_at(np.array([], dtype=int))] == [(0,)] * dim

    def test_tables_follow_their_grid(self):
        coarse, fine = Grid(1, 16, 2.0 * np.pi), Grid(1, 32, 2.0 * np.pi)
        spec, family, smoother = heat_symbol(), MultiplierFamily(), SmoothingComposite()
        for grid in (coarse, fine, coarse, fine):
            axes = grid.xi_axes()
            xi = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.h)
            assert np.array_equal(axes[0], xi)
            assert np.array_equal(grid.xi_rows()[:, 0], xi)
            assert np.array_equal(spec.monomials(axes)[(2,)], (1j * xi) ** 2)
            assert np.array_equal(family._profile(axes), 1.0 / (1.0 + xi**2))
            f = mode(grid, 1)
            assert np.array_equal(smoother.apply(0.5, f).values,
                                  SmoothingComposite().apply(0.5, f).values)


class TestTransform:
    def test_constant_concentrates_at_zero(self, small_grid):
        mass = np.abs(transform(np.ones(small_grid.shape, dtype=complex))) ** 2
        assert mass[0] == pytest.approx(np.sum(mass))

    def test_single_mode_single_bin(self, small_grid):
        x = small_grid.points_axis()
        mass = np.abs(transform(np.exp(1j * 3 * x))) ** 2
        assert mass[small_grid.mode_index(3)] == pytest.approx(np.sum(mass))

    def test_round_trip(self, small_grid, rng):
        values = rng.standard_normal(small_grid.shape) \
            + 1j * rng.standard_normal(small_grid.shape)
        back = inverse_transform(transform(values))
        rel = np.linalg.norm(back - values) / np.linalg.norm(values)
        assert rel <= 1e-12

    def test_round_trip_2d(self, rng):
        g = Grid(2, 32, 2.0 * np.pi)
        values = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        back = inverse_transform(transform(values))
        assert np.linalg.norm(back - values) <= 1e-12 * np.linalg.norm(values)


class TestMultiplier:
    def test_identity(self, small_grid, rng):
        f = random_band_limited(small_grid, rng, band=8)
        out = apply_multiplier(lambda xi: np.ones_like(xi[0]), f)
        assert np.allclose(out.values, f.values)

    def test_scales_single_mode(self, grid):
        f = mode(grid, 2)
        out = apply_multiplier(lambda xi: 1.0 / (1.0 + xi[0] ** 2), f)
        assert norm(out) == pytest.approx(0.2)

    def test_differentiates_sine(self, grid):
        x = grid.points_axis()
        f = GridFunction(grid, transform(np.sin(x).astype(complex)))
        out = inverse_transform(apply_multiplier(lambda xi: 1j * xi[0], f).values)
        assert np.max(np.abs(out.real - np.cos(x))) <= 1e-10

    def test_nonfinite_multiplier_reports_witness(self, grid):
        f = mode(grid, 0)
        with pytest.raises(NumericError) as err, \
                np.errstate(divide="ignore"):
            apply_multiplier(lambda xi: 1.0 / xi[0], f)
        assert err.value.witness["xi"] == [0.0]


class TestNorms:
    def test_constant_lp(self, small_grid):
        # the L2 norm of 1 is |box|^(1/2)
        f = GridFunction(small_grid, transform(np.ones(small_grid.shape, dtype=complex)))
        vol = small_grid.box ** small_grid.dim
        assert norm(f) == pytest.approx(vol ** 0.5)

    def test_negative_sobolev_single_mode(self, grid):
        assert bessel_norm(mode(grid, 2), 2.0) == pytest.approx(0.2)

    def test_extrapolated_single_mode(self, grid, h1):
        assert norm(mode(grid, 1), NormSpec(h1, 0.0)) == pytest.approx(0.5)

    def test_plancherel(self, small_grid, rng):
        values = rng.standard_normal(small_grid.shape) \
            + 1j * rng.standard_normal(small_grid.shape)
        f = GridFunction(small_grid, transform(values))
        physical_sum = np.sqrt(np.sum(np.abs(values) ** 2)
                               * small_grid.cell_volume)
        assert norm(f) == pytest.approx(physical_sum, rel=1e-10)


class TestOperatorNorm:
    def test_heat_multiplier(self, grid, h1):
        # ||U(1, 0)|| on H1 is the max modulus of e^{-(1 + xi^2)}
        val = operator_norm(PropagatorEngine(h1, grid), 0.0, 1.0)
        assert val == pytest.approx(np.exp(-1.0))


@settings(max_examples=20, deadline=None)
@given(times=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=3, max_size=3))
def test_operator_norm_submultiplicative(times):
    # ||U(t,r)|| = ||U(t,s) U(s,r)|| <= ||U(t,s)|| ||U(s,r)|| on the oscillating symbol
    r, s, t = sorted(times)
    engine = PropagatorEngine(oscillating_symbol(), Grid(1, 64, 2.0 * np.pi))
    lhs = operator_norm(engine, r, t)
    rhs = operator_norm(engine, s, t) * operator_norm(engine, r, s)
    assert lhs <= rhs * (1.0 + 1e-12)
    # aligned argmax (every factor peaks at xi = 0): equality
    assert lhs == pytest.approx(rhs)


class TestVectorsAndSerialization:
    def test_mode_has_unit_norm(self, grid):
        assert norm(mode(grid, 5)) == pytest.approx(1.0)

    def test_band_limited_band(self, grid, rng):
        f = random_band_limited(grid, rng, band=4)
        k = np.fft.fftfreq(grid.n, 1.0 / grid.n)
        assert np.all(np.abs(f.values[np.abs(k) > 4]) == 0.0)
        assert norm(f) == pytest.approx(1.0)

    def test_tail_fraction_flags_rough_vectors(self, grid, rng):
        smooth = random_band_limited(grid, rng, band=4)
        assert spectral_tail_fraction(smooth) == 0.0
        rough = indicator(grid)
        assert spectral_tail_fraction(rough) > 1e-8

    def test_save_load_round_trip(self, small_grid, rng, tmp_path):
        f = random_band_limited(small_grid, rng, band=8)
        save_function(f, tmp_path / "vec")
        g = load_function(tmp_path / "vec")
        assert g.grid == f.grid
        assert np.array_equal(g.values, f.values)

    def test_physical_file_loads_as_its_transform(self, small_grid, rng, tmp_path):
        # older files may hold samples; any representation but the two is refused
        samples = rng.standard_normal(small_grid.shape) + 0j
        save_function(GridFunction(small_grid, samples), tmp_path / "vec")
        sidecar = tmp_path / "vec.json"
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**meta, "representation": "physical"}))
        assert np.array_equal(load_function(tmp_path / "vec").values, transform(samples))
        sidecar.write_text(json.dumps({**meta, "representation": "polar"}))
        with pytest.raises(ConfigurationError, match="unknown representation 'polar'"):
            load_function(tmp_path / "vec")

    def test_xminus1_models_agree_up_to_ellipticity(self, grid, h1, rng):
        vecs = [random_band_limited(grid, rng, band=8) for _ in range(3)]
        ratios = [norm(f, NormSpec(h1, 0.0)) / bessel_norm(f, h1.order) for f in vecs]
        # |a(0,xi)| = 1 + xi^2 vs (1 + xi^2): gauge weights coincide for H1
        assert min(ratios) == pytest.approx(1.0, rel=1e-9)
        assert max(ratios) == pytest.approx(1.0, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 2), n=st.sampled_from([2, 4, 8, 16]),
       seed=st.integers(0, 2**32 - 1))
def test_save_load_round_trip_property(dim, n, seed):
    """The grid and every value come back exactly."""
    grid = Grid(dim, n, 2.0 * np.pi)
    rng = np.random.default_rng(seed)
    f = GridFunction(grid, rng.standard_normal(grid.shape)
                     + 1j * rng.standard_normal(grid.shape))
    with tempfile.TemporaryDirectory() as tmp:
        save_function(f, f"{tmp}/vec")
        g = load_function(f"{tmp}/vec")
    assert g.grid == f.grid
    assert np.array_equal(g.values, f.values)
