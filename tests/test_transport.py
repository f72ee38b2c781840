from functools import partial

import numpy as np
import pytest

from evofam.cli import DECAY_SLACK, HALF_ORDER
from evofam.errors import ConfigurationError, DomainError, UnsupportedError
from evofam.evolution import observed_orders
from evofam.spectral import box_profile, gaussian_profile
from evofam.symbols import CoefficientFunction
from evofam.transport import (TimeSpaceCoefficient, TransportProblem,
                              characteristics_oracle, convergence_study,
                              sample_initial, transport_family_checks,
                              transport_solve)
from reference import aligned_ladder_cocycle, constant_field, mass_balance_defect


@pytest.fixture()
def pure_advection():
    return TransportProblem(1.0, 6.0, 600, constant_field(1.0),
                            constant_field(0.0))


@pytest.fixture()
def advect_decay():
    return TransportProblem(1.0, 6.0, 600, constant_field(1.0),
                            constant_field(1.0))


def box_fn():
    return partial(box_profile, lo=1.0, hi=2.0)


class TestSolve:
    def test_translation_against_oracle(self, pure_advection):
        p = pure_advection
        f0 = sample_initial(p, box_fn())
        state = transport_solve(p, 0.0, 0.5, f0)
        exact = characteristics_oracle(p, 0.0, 0.5, box_fn())
        l1_err = np.sum(np.abs(state.values - exact)) * p.h
        assert l1_err <= 10.0 * np.sqrt(p.h)      # indicator data smears at h^0.5
        assert state.mass() == pytest.approx(1.0, abs=5 * p.h)

    def test_decay_mass(self, advect_decay):
        p = advect_decay
        f0 = sample_initial(p, box_fn())
        state = transport_solve(p, 0.0, 0.5, f0)
        assert state.mass() == pytest.approx(np.exp(-0.5), abs=5 * p.h)

    def test_zero_stays_zero(self, advect_decay):
        p = advect_decay
        state = transport_solve(p, 0.0, 0.7, np.zeros(p.cells))
        assert np.all(state.values == 0.0)

    def test_positivity(self, advect_decay):
        p = advect_decay
        f0 = sample_initial(p, box_fn())
        state = transport_solve(p, 0.0, 0.9, f0)
        assert np.min(state.values) >= 0.0

    def test_cfl_guard_no_substepping(self, advect_decay):
        with pytest.raises(ConfigurationError):
            transport_solve(advect_decay, 0.0, 0.5,
                            np.zeros(advect_decay.cells), steps=10)

    def test_time_order(self, advect_decay):
        with pytest.raises(DomainError):
            transport_solve(advect_decay, 0.5, 0.2,
                            np.zeros(advect_decay.cells))

    def test_outflow_accounting(self):
        # mass reaching the boundary leaves through the outflow ledger
        p = TransportProblem(4.0, 3.0, 300, constant_field(1.0),
                             constant_field(0.0))
        f0 = sample_initial(p, partial(box_profile, lo=0.5, hi=1.5))
        state = transport_solve(p, 0.0, 3.5, f0)
        assert state.mass() == pytest.approx(0.0, abs=1e-6)
        assert state.outflow == pytest.approx(1.0, abs=5 * p.h)

    def test_identity_at_equal_times(self, advect_decay):
        f0 = sample_initial(advect_decay, box_fn())
        state = transport_solve(advect_decay, 0.3, 0.3, f0)
        assert np.array_equal(state.values, f0)


class TestOracle:
    def test_exact_at_equal_times(self, advect_decay):
        p = advect_decay
        vals = characteristics_oracle(p, 0.0, 0.0, box_fn())
        assert np.array_equal(vals, sample_initial(p, box_fn()))

    def test_rejects_varying_coefficients(self):
        varying = TimeSpaceCoefficient(
            CoefficientFunction(const=1.0, trig=((1.0, 0.0, 0.2),)))
        p = TransportProblem(1.0, 6.0, 100, varying, constant_field(1.0))
        with pytest.raises(UnsupportedError):
            characteristics_oracle(p, 0.0, 0.5, box_fn())


class TestFamilyChecks:
    def test_aligned_ladders_compose_exactly(self, advect_decay):
        f0 = sample_initial(advect_decay, box_fn())
        one = transport_solve(advect_decay, 0.0, 0.75, f0)
        assert aligned_ladder_cocycle(advect_decay, 0.0, 0.25, one, f0) <= 1e-12

    def test_decay_bound(self, advect_decay):
        f0 = sample_initial(advect_decay, box_fn())
        one = transport_solve(advect_decay, 0.0, 0.75, f0)
        rep = transport_family_checks(advect_decay, 0.0, one, f0)
        assert rep.decay_bound == pytest.approx(np.exp(-0.75), rel=1e-15)
        assert rep.decay_ratio <= rep.decay_bound * (1.0 + DECAY_SLACK * advect_decay.h)

    def test_mass_balance_per_step(self, advect_decay):
        f0 = sample_initial(advect_decay, box_fn())
        assert mass_balance_defect(advect_decay, 0.0, 0.75, f0) <= 1e-12

    def test_zero_data_all_zero_defects(self, advect_decay):
        zero = np.zeros(advect_decay.cells)
        one = transport_solve(advect_decay, 0.0, 0.75, zero)
        assert aligned_ladder_cocycle(advect_decay, 0.0, 0.25, one, zero) == 0.0
        assert mass_balance_defect(advect_decay, 0.0, 0.75, zero) == 0.0

    def test_one_step_run_composes_as_identity_and_whole_run(self, advect_decay):
        # below one CFL step (0.009) the legs are the identity and the whole run
        f0 = sample_initial(advect_decay, box_fn())
        one = transport_solve(advect_decay, 0.0, 0.005, f0)
        assert aligned_ladder_cocycle(advect_decay, 0.0, 0.0025, one, f0) == 0.0

    def test_marches_nothing(self, advect_decay, monkeypatch):
        # the decay check reads the r -> t run the caller marched
        from evofam import transport as trn
        f0 = sample_initial(advect_decay, box_fn())
        one = transport_solve(advect_decay, 0.0, 0.75, f0)
        solves = []
        solve = trn.transport_solve
        monkeypatch.setattr(trn, "transport_solve",
                            lambda *a, **k: solves.append(a[1:3]) or solve(*a, **k))
        rep = transport_family_checks(advect_decay, 0.0, one, f0)
        assert rep.decay_ratio <= rep.decay_bound * (1.0 + DECAY_SLACK * advect_decay.h)
        assert solves == []

    def test_time_varying_coefficients(self):
        gvar = TimeSpaceCoefficient(
            CoefficientFunction(const=1.0, trig=((1.0, 0.0, 0.2),)),
            w0=1.0, w1=0.3)
        p = TransportProblem(1.0, 6.0, 400, gvar, constant_field(1.0))
        f0 = sample_initial(p, box_fn())
        one = transport_solve(p, 0.0, 0.8, f0)
        assert aligned_ladder_cocycle(p, 0.0, 0.3, one, f0) <= 1e-12
        assert mass_balance_defect(p, 0.0, 0.8, f0) <= 1e-12
        rep = transport_family_checks(p, 0.0, one, f0)
        assert rep.decay_ratio <= rep.decay_bound * (1.0 + DECAY_SLACK * p.h)


def study(cells, f0_fn, levels):
    """convergence_study on advect_decay's field at `levels`, reusing the
    pipeline-style run marched on the problem with `cells` cells."""
    problem = TransportProblem(1.0, 6.0, cells, constant_field(1.0),
                               constant_field(1.0))
    marched = transport_solve(problem, 0.0, 0.5, sample_initial(problem, f0_fn),
                              record_history=True)
    return convergence_study(problem, 0.0, 0.5, f0_fn, levels, marched)


class TestConvergence:
    def test_smooth_first_order(self):
        errs = study(800, partial(gaussian_profile, center=1.5, width=0.25), [100, 200, 400, 800])
        for order in observed_orders(errs, [100, 200, 400, 800]):
            assert 0.8 <= order <= 1.1

    def test_marched_run_stands_in_for_its_level(self, monkeypatch):
        # the pipeline's own run on the finest problem gives that level's
        # error bit for bit, and only the coarser levels are marched
        from evofam import transport as trn
        levels = [100, 200, 400]
        fresh = study(100, box_fn(), levels)        # marches the 400 level
        solves = []
        solve = trn.transport_solve
        monkeypatch.setattr(trn, "transport_solve", lambda problem, *a, **k:
                            solves.append(problem.cells) or solve(problem, *a, **k))
        assert study(400, box_fn(), levels) == fresh
        assert solves == [100, 200]

    def test_indicator_at_least_half_order(self):
        errs = study(800, box_fn(), [100, 200, 400, 800])
        for order in observed_orders(errs, [100, 200, 400, 800]):
            assert order >= HALF_ORDER[0]


class TestProblemValidation:
    def test_velocity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            TransportProblem(1.0, 6.0, 100, constant_field(-1.0),
                             constant_field(1.0))

    def test_cfl_step_positive(self, advect_decay):
        assert 0 < advect_decay.cfl_step() <= 0.9 * advect_decay.h
