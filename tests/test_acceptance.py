"""Acceptance criteria, one test per criterion at its stated tolerance.

Each runs at desk scale (d = 1, N = 1024); the terminal summary prints one
pass/fail line per criterion.
"""

import json
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evofam import assumptions as asm
from evofam import perturbation as per
from evofam.cli import DECAY_SLACK, KATO_TOL
from evofam.evolution import PropagatorEngine, observed_orders, product_formula_errors
from evofam.semigroup import FrozenOperator, favard_norm
from evofam.spectral import GridFunction, indicator, mode, norm, \
    random_band_limited
from reference import (SWEEP_SYMBOLS, aligned_ladder_cocycle, cocycle_defect,
                       constant_field, derivative_defect, drift_symbol, dual_scale_moduli,
                       favard_sweep, frozen_generator, laplace_transform_check,
                       mass_balance_defect, sampled_cd_system, sampled_resolvent_lipschitz,
                       sampled_sector_constant, sampled_semigroup_lipschitz, sweep_symbol)

THETA = 3.0 * np.pi / 4.0


@pytest.fixture(scope="module")
def engine(td1, grid):
    return PropagatorEngine(td1, grid)


@pytest.fixture(scope="module")
def xband(grid):
    r = np.random.default_rng(404)
    return random_band_limited(grid, r, band=4)


def test_criterion_01_exact_cocycle(engine, grid):
    """Exact-propagator cocycle on 100 random triples stays below 1e-10."""
    r = np.random.default_rng(11)
    f = random_band_limited(grid, r, band=4)
    worst = 0.0
    for _ in range(100):
        a, b, c = np.sort(r.uniform(0.0, engine.spec.horizon, 3))
        worst = max(worst, cocycle_defect(engine, a, b, c, f))
    assert worst <= 1e-10


def test_criterion_02_derivative_identities(engine, grid, xband):
    """Central-difference generator defects decay at order 2.0 +- 0.3."""
    for which, (s, t) in (("dt", (0.3, 2.0)), ("ds", (0.5, 2.0))):
        orders, base = [], engine.propagate(s, t, xband)
        for h in (2e-3, 1e-3, 5e-4):
            orders.append(derivative_defect(engine, s, t, xband, base, h=h,
                                            which=which))
        for o in observed_orders(orders, [1, 2, 4]):
            assert 1.7 <= o <= 2.3, f"{which} stencil order {o}"


def test_criterion_03_product_formula_orders(td1, grid, xband):
    """Left-endpoint products converge at order 1.0 +- 0.2, midpoint at
    2.0 +- 0.3, against the exact propagator."""
    target = PropagatorEngine(td1, grid).propagate(0.0, 2.0, xband)
    errs = product_formula_errors(td1, 0.0, 2.0, xband, target, "left",
                                  [64, 128, 256])
    for o in observed_orders(errs, [64, 128, 256]):
        assert 0.8 <= o <= 1.2
    errs = product_formula_errors(td1, 0.0, 2.0, xband, target, "midpoint",
                                  [64, 128, 256])
    for o in observed_orders(errs, [64, 128, 256]):
        assert 1.7 <= o <= 2.3


def test_criterion_04_assumption_suite(td1_suite, grid, band_vectors):
    """A1 at theta = 3 pi/4 with M <= sqrt(2) + 1 + 5%; kappa = 2 +- 2%;
    L <= 1 + 5%; Kato certificate with M = 1, omega = -1 up to k = 8;
    C' <= M^2 L (1 + 5%); the non-elliptic symbol fails A1 with witness."""
    a1, a2, a3 = td1_suite["a1"], td1_suite["a2"], td1_suite["a3"]
    kato, cprime, cap = td1_suite["kato"], td1_suite["cprime"], td1_suite["plan"].cap
    assert a1.m <= cap and a1.m <= (math.sqrt(2.0) + 1.0) * 1.05
    assert a2.kappa <= cap and abs(a2.kappa - 2.0) <= 0.02 * 2.0
    assert a3.value <= cap and a3.value <= 1.0 * 1.05
    assert max(kato.max_resolvent_ratio, kato.max_semigroup_ratio) <= 1.0 + KATO_TOL
    assert kato.m == 1.0 and kato.kmax == 8
    assert kato.omega == pytest.approx(-1.0, abs=1e-6)
    assert cprime.value <= a1.m**2 * a3.value * 1.05

    bad = asm.check_sector(drift_symbol(), grid, td1_suite["theta"],
                           asm.SamplePlan(time_samples=16, moduli_per_ray=8))
    assert bad.m > asm.SamplePlan().cap
    assert bad.witness["value"] > asm.SamplePlan().cap
    assert bad.witness["xi"] is not None


# a thin base plan: its certified bounds must hold on 4 and 16 times its samples
CERTIFIED_PLAN = asm.SamplePlan(time_samples=8, pair_grid=8, resolvent_pair_grid=8,
                                resolvent_moduli=3, tau_samples=3)
SECTOR_ROUNDOFF = 1e-12     # the lambda sweep may pass the exact sector sup by roundoff


def certified_constants(spec, grid, vectors, plan):
    """(value, certified) of M, kappa, L, C', C and both cd quotients."""
    a1 = asm.check_sector(spec, grid, THETA, plan)
    a2 = asm.check_norm_equivalence(spec, grid, plan)
    a3 = asm.check_operator_lipschitz(spec, grid, plan)
    cprime = asm.check_resolvent_lipschitz(spec, grid, THETA, plan)
    csemi = asm.check_semigroup_lipschitz(spec, grid, plan)
    cd = asm.certify_cd_system(spec, grid, vectors, plan)
    return {"M": (a1.m, a1.certified), "kappa": (a2.kappa, a2.certified),
            "L": (a3.value, a3.certified), "Cprime": (cprime.value, cprime.certified),
            "C": (csemi.value, csemi.certified),
            "cd_x": (cd.strong_lipschitz, cd.certified),
            "cd_xminus1": (cd.strong_lipschitz_xminus1, cd.certified_xminus1)}


@settings(max_examples=12, deadline=None, derandomize=True)
@given(case=st.one_of(st.sampled_from(["td1", "h1"]), st.builds(
    sweep_symbol, dim=st.sampled_from([1, 2]),
    kind=st.sampled_from(["trig", "step", "autonomous"]), **SWEEP_SYMBOLS)))
@example(case="td1")
@example(case="h1")
def test_criterion_05_refinement_stability(case, td1, h1, grid):
    """The certified bounds of the base plan hold under refinement: on 4 and
    16 times its time samples and pair grid, every sampled M, kappa, L, C',
    C and cd value, and the reference lambda and neighbour-pair sweeps, stay
    at or below them (a value above the cap reads 2 cap, a violation
    whatever its size); an autonomous symbol's bound is its value."""
    spec, grid = ({"td1": td1, "h1": h1}[case], grid) if isinstance(case, str) else case
    vectors = [random_band_limited(grid, np.random.default_rng(v), band=2) for v in range(2)]
    base = certified_constants(spec, grid, vectors, CERTIFIED_PLAN)
    bound = {name: certified for name, (_, certified) in base.items()}
    cap = 2.0 * CERTIFIED_PLAN.cap
    for factor in (1, 4, 16):
        plan = replace(CERTIFIED_PLAN, time_samples=factor * CERTIFIED_PLAN.time_samples,
                       pair_grid=factor * CERTIFIED_PLAN.pair_grid,
                       resolvent_pair_grid=factor * CERTIFIED_PLAN.resolvent_pair_grid)
        sampled = {name: value for name, (value, _) in
                   certified_constants(spec, grid, vectors, plan).items()}
        sampled["Cprime_pairs"] = sampled_resolvent_lipschitz(spec, grid, THETA, plan)
        sampled["C_pairs"] = sampled_semigroup_lipschitz(spec, grid, plan)
        sampled["cd_x_pairs"], sampled["cd_xminus1_pairs"] = sampled_cd_system(
            spec, grid, vectors, plan)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sampled["M_lambdas"] = sampled_sector_constant(spec, grid, THETA, plan) \
                / (1.0 + SECTOR_ROUNDOFF)
        for name, value in sampled.items():
            assert min(value, cap) <= bound[name.split("_pairs")[0].split("_lambdas")[0]], \
                (name, factor, value)
    if all(c.is_constant for c in spec.coefficients.values()):
        assert all(value == certified for value, certified in base.values())


def test_criterion_06_favard_identities(h1, td1, grid, xband):
    """On frozen times of both symbol families Re a >= 0 on the data's
    support, so the Favard norms are ||A(s) f|| (F1) and ||f|| (F0): the
    closed forms equal them to roundoff, and the t-sweep of the difference
    quotients reaches them from below (reflexive identities)."""
    cases = [(h1, 0.0), (h1, 0.5), (td1, 0.0), (td1, 1.0), (td1, 2.0)]
    for spec, s in cases:
        op = FrozenOperator(spec, s)
        est = favard_norm(op, xband)
        assert est.min_re_a >= 0.0
        assert est.f1 == norm(frozen_generator(op, xband))
        assert est.f0 == pytest.approx(norm(xband), rel=1e-14)
        assert favard_sweep(op, xband, "F1") == pytest.approx(est.f1, rel=1e-10)
        assert favard_sweep(op, xband, "F0") == pytest.approx(est.f0, rel=1e-10)


def test_criterion_07_variation_of_constants_oracle(engine, grid, xband):
    """Volterra solution matches the closed-form perturbed multiplier to
    1e-6 at M = 1024 with order 2.0 +- 0.3; Duhamel residual below 1e-6."""
    from evofam.symbols import constant
    fam = per.MultiplierFamily(constant(0.5))
    oracle = per.commuting_oracle(engine, fam, 0.0, 1.0, xband)
    errs = []
    for m in (256, 512, 1024):
        traj = per.solve_perturbed(engine, fam, 0.0, 1.0, xband, m)
        errs.append(norm(GridFunction(grid, traj.final().values - oracle.values)))
    assert errs[-1] <= 1e-6
    for o in observed_orders(errs, [256, 512, 1024]):
        assert 1.7 <= o <= 2.3
    final = per.solve_perturbed(engine, fam, 0.0, 1.0, xband, 1024)
    assert per.duhamel_residual(final, engine, fam) <= 1e-6


def test_criterion_08_perturbed_family_axioms(engine, grid, xband):
    """V cocycle self-converges at order >= 1.7 (smoothing family) and
    matches the oracle to 1e-6 (commuting family).  Each composition
    V(t,r)V(r,s)x marches its legs and the whole run at m steps on their
    own ladders."""
    def defect(family, r, t, m):
        whole = per.solve_perturbed(engine, family, 0.0, t, xband, m)
        leg1 = per.solve_perturbed(engine, family, 0.0, r, xband, m)
        leg2 = per.solve_perturbed(engine, family, r, t, leg1.final(), m)
        assert np.all(np.isfinite(whole.rows))
        diff = GridFunction(grid, leg2.final().values - whole.final().values)
        return norm(diff) / norm(xband)

    defects = [defect(per.SmoothingComposite(2), 0.7, 1.5, m) for m in (128, 256, 512)]
    for o in observed_orders(defects, [128, 256, 512]):
        assert o >= 1.7

    from evofam.symbols import constant
    assert defect(per.MultiplierFamily(constant(0.5)), 0.5, 1.0, 512) <= 1e-6


def test_criterion_09_mollifier_dichotomy(td1, grid):
    """Indicator data: L2 modulus exponent 0.5 +- 0.1, dual-scale exponent
    1.0 +- 0.1, both log-log fits with rms residual <= 0.05."""
    rep = per.perturbation_regularity_report(per.Mollifier(),
                                             [indicator(grid)], td1)
    l2 = rep.slopes_l2[0]
    dual = per._slope(per.SEPARATIONS,
                      dual_scale_moduli(per.Mollifier(), indicator(grid), td1))
    assert abs(l2.slope - 0.5) <= 0.1
    assert l2.residual <= 0.05
    assert abs(dual.slope - 1.0) <= 0.1
    assert dual.residual <= 0.05
    assert l2.separations >= 6


def test_criterion_10_laplace_transform_residual(h1, grid, xband):
    """Truncated Laplace transform reproduces the resolvent to 1e-8 at
    lambda = 2, H = 40, 64 panels."""
    op = FrozenOperator(h1, 0.0)
    assert laplace_transform_check(op, 2.0, xband, 40.0, 64) <= 1e-8
    assert laplace_transform_check(op, 2.0, mode(grid, 0), 40.0, 64) <= 1e-8


def test_criterion_11_transport_family():
    """Upwind transport: L1 order 0.8-1.1 on smooth data over three
    halvings, aligned-ladder cocycle <= 1e-12, L1 decay under the
    exponential bound with mu_min = 1, per-step mass balance <= 1e-12."""
    from evofam.spectral import box_profile, gaussian_profile
    from evofam.transport import (TransportProblem, convergence_study, sample_initial,
                                  transport_family_checks, transport_solve)

    fine = TransportProblem(1.0, 6.0, 800, constant_field(1.0), constant_field(1.0))
    smooth = partial(gaussian_profile, center=1.5, width=0.25)
    marched = transport_solve(fine, 0.0, 0.5, sample_initial(fine, smooth))
    errs = convergence_study(fine, 0.0, 0.5, smooth, [100, 200, 400, 800], marched)
    for o in observed_orders(errs, [100, 200, 400, 800]):
        assert 0.8 <= o <= 1.1

    problem = TransportProblem(1.0, 6.0, 600, constant_field(1.0), constant_field(1.0))
    f0 = sample_initial(problem, partial(box_profile, lo=1.0, hi=2.0))
    one = transport_solve(problem, 0.0, 0.75, f0)
    rep = transport_family_checks(problem, 0.0, one, f0)
    assert aligned_ladder_cocycle(problem, 0.0, 0.25, one, f0) <= 1e-12
    assert rep.decay_ratio <= rep.decay_bound * (1.0 + DECAY_SLACK * problem.h)
    assert mass_balance_defect(problem, 0.0, 0.75, f0) <= 1e-12


def test_criterion_12_stable_reports_deterministic(tmp_path):
    """Two --stable runs with the same seed emit byte-identical reports."""
    from evofam.cli import main
    config = {
        "schema_version": 1, "seed": 5,
        "symbol": {
            "dim": 1, "order": 2, "horizon": 2 * math.pi,
            "coefficients": [
                {"alpha": [2], "const": [-2.0, 0.0],
                 "trig": [[1.0, 0.0, 0.0, -1.0, 0.0]]},
                {"alpha": [0], "const": [1.0, 0.0]},
            ],
        },
        "grid": {"dim": 1, "n": 256, "box": 2 * math.pi},
        "theta": 3 * math.pi / 4,
        "plans": {"time_samples": 24, "moduli_per_ray": 8, "pair_grid": 12,
                  "resolvent_pair_grid": 6, "resolvent_moduli": 5,
                  "tau_samples": 5, "kato_lambdas": 4, "kato_partitions": 4},
        "vectors": {"count": 2, "band": 4},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["check", "--config", str(path), "--out", str(out),
                     "--stable"]) == 0
        outs.append(out)
    for fname in ("report.json", "assumptions.json", "extrema.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
