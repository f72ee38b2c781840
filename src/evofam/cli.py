"""Command-line orchestration of the check/evolve/perturb/favard/transport/
convergence pipelines.

Exit codes: 0 all verdicts pass, 1 at least one verdict fails (witnesses in
the report), 2 configuration or IO error.  Runs are deterministic given the
config and seed; `--stable` drops wall-clock timings so that two identical
runs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import assumptions as asm
from . import config as cfg
from . import evolution as evo
from . import perturbation as per
from . import transport as trn
from .errors import ConfigurationError, ConvergenceError, DomainError, NumericError
from .reporting import (StageTimer, config_hash, dump_json, environment_stamp,
                        write_csv)
from .semigroup import FrozenOperator, favard_norm
from .spectral import (GridFunction, NormSpec, indicator, norm, random_band_limited,
                       save_function, spectral_tail_fraction)
from .symbols import certify_ellipticity

# Verdict tolerances.  The library returns measurements only; every verdict
# is decided in this module, against the sample plan's cap or one of these.
TAIL_WARN = 1e-8            # spectral tail mass above which box truncation pollutes the model
REFINE_DELTA = 0.05         # max relative move of a sampled constant when the plan doubles
CHAIN_SLACK = 0.05          # C' <= M^2 L (1 + slack): sampling slack of the lemma chain
ROUNDOFF = 1e-12            # identities that hold exactly up to roundoff
KATO_TOL = 1e-9             # Kato ratios may exceed 1 by roundoff only
VOLTERRA_TOL = 1e-6         # Duhamel residual and oracle error of the Volterra solver
FAVARD_GAP = 0.01           # relative gap of a Favard estimate to its t -> 0 limit
# L1 decay bound e^{-mu_min (t - r)}: upwind decays by mu at cell centres and step
# midpoints, which the sampled mu_min need not bound, an O(h) gap of a first-order scheme
DECAY_SLACK = 10.0          # relative slack per unit cell width h
FIRST_ORDER = (0.8, 1.2)    # accepted band of fitted first orders
SECOND_ORDER = (1.7, 2.3)   # accepted band of fitted second orders
HALF_ORDER = (0.45, np.inf)  # upwind on a box profile converges at order 1/2 in L1
EXACT_ULPS = 256            # errors <= EXACT_ULPS * eps * scale mean the method is exact
ORACLE_MIN_STEPS = 4        # the oracle ladder solves steps // 4, steps // 2 and steps


def _check_interval(section: str, s: float, t: float, horizon: float):
    """A pipeline's [s, t] must be a nonempty part of [0, horizon]: reject it
    otherwise before any solve."""
    if not 0.0 <= s < t <= horizon:
        raise ConfigurationError(f"config invalid at {section}: need "
                                 f"0 <= s < t <= {horizon!r}, got {s!r}, {t!r}")


def _check_nonzero(section: str, values: np.ndarray):
    """Zero initial data makes every error 0 and every order inf, so nothing
    is judged: reject it before any solve."""
    if not np.any(values):
        raise ConfigurationError(f"config invalid at {section}/initial: "
                                 f"the sampled initial data is zero")


def _initial(name: str, section: dict, grid, seed: int) -> GridFunction:
    """The initial grid function of the config section `name`, band-4 random
    data unless it says otherwise, drawn from a generator seeded by `seed`."""
    entry = section.get("initial", {"kind": "random_band", "band": 4})
    f = cfg.build_initial(entry, grid, np.random.default_rng(seed))
    _check_nonzero(name, f.values)
    return f


def _order_verdict(errors, levels, band, scale: float):
    """Fitted orders of `errors` at the refinement `levels`, and the verdict
    on them: errors all at or below the roundoff floor EXACT_ULPS * eps *
    scale (the size of the data) mean an exact method, which passes without
    a fit; otherwise every order must lie in `band`."""
    orders = evo.observed_orders(errors, levels)
    floor = EXACT_ULPS * np.finfo(float).eps * scale
    return orders, bool(all(e <= floor for e in errors)
                        or all(band[0] <= o <= band[1] for o in orders))


def _product_orders(engine, s: float, t: float, f: GridFunction,
                    target: GridFunction, steps):
    """CSV rows, fitted orders and order verdicts of the left and midpoint
    product rules against `target`, the engine's U(t,s) f."""
    rows, orders, verdicts = [], {}, {}
    for rule, band in (("left", FIRST_ORDER), ("midpoint", SECOND_ORDER)):
        errs = evo.product_formula_errors(engine.spec, s, t, f, target, rule, steps)
        orders[rule], verdicts[f"{rule}_order"] = _order_verdict(errs, steps, band,
                                                                 norm(f))
        rows += [[rule, n, e] for n, e in zip(steps, errs)]
    return rows, orders, verdicts


def _witness_row(check: str, constant: str, value, refined, delta, w: dict):
    lam = w.get("lambda") or [None, None]
    xi = w.get("xi")
    return [check, constant, value, refined, delta,
            w.get("t"), w.get("s"), w.get("tau"), lam[0], lam[1],
            ";".join(format(float(v), ".17g") for v in xi) if xi else None]


def run_check(config: dict, out: Path, seed: int, timer: StageTimer):
    spec = cfg.build_symbol(config["symbol"])
    grid = cfg.build_grid(config["grid"])
    theta = float(config.get("theta", 3.0 * np.pi / 4.0))
    if not np.pi / 2 < theta < np.pi:
        raise ConfigurationError(f"config invalid at theta: need pi/2 < theta < pi, "
                                 f"got {theta!r}")
    plan = cfg.build_plan(config.get("plans"), seed)
    rng = np.random.default_rng(seed)
    vec_cfg = config.get("vectors", {})
    vectors = [random_band_limited(grid, rng, band=int(vec_cfg.get("band", 4)))
               for _ in range(int(vec_cfg.get("count", 4)))]

    ellip = certify_ellipticity(spec, plan.time_samples, grid)
    timer.mark("ellipticity")
    a1 = asm.check_sector(spec, grid, theta, plan)
    timer.mark("a1_sector")
    a2 = asm.check_norm_equivalence(spec, grid, plan)
    timer.mark("a2_equivalence")
    a3 = asm.check_operator_lipschitz(spec, grid, plan)
    timer.mark("a3_lipschitz")
    cprime = asm.check_resolvent_lipschitz(spec, grid, theta, plan)
    timer.mark("resolvent_lipschitz")
    csemi = asm.check_semigroup_lipschitz(spec, grid, plan)
    timer.mark("semigroup_lipschitz")
    kato = asm.check_kato_stability(spec, grid, plan)
    timer.mark("kato")
    cd = asm.certify_cd_system(spec, grid, vectors, plan)
    timer.mark("cd_system")
    theta_star = asm.largest_passing_theta(spec, grid, plan)
    timer.mark("theta_scan")

    capped = lambda value: bool(value <= plan.cap)
    kato_ok = bool(max(kato.max_resolvent_ratio, kato.max_semigroup_ratio)
                   <= 1.0 + KATO_TOL)
    deltas = {
        "a1": a1.refinement_delta, "a2": a2.refinement_delta,
        "a3": a3.refinement_delta, "kato": kato.refinement_delta,
        "resolvent_lipschitz": cprime.refinement_delta,
        "semigroup_lipschitz": csemi.refinement_delta,
    }
    verdicts = {
        # c must clear the dip Re a_m can take between its time samples
        "ellipticity": bool(ellip.constant - ellip.margin > 0 and ellip.lower_bound > 0),
        "a1": capped(a1.m), "a2": capped(a2.kappa), "a3": capped(a3.value),
        "kato": kato_ok,
        "resolvent_lipschitz": capped(cprime.value),
        "semigroup_lipschitz": capped(csemi.value),
        "lemma_chain": bool(cprime.value
                            <= a1.m**2 * a3.value * (1.0 + CHAIN_SLACK) + ROUNDOFF),
        "cd_system_x": kato_ok and capped(cd.strong_lipschitz),
        "cd_system_xminus1": kato_ok and capped(cd.strong_lipschitz_xminus1),
        "refinement_stable": bool(all(d <= REFINE_DELTA for d in deltas.values())),
    }

    assumptions_doc = {
        "a1": {"theta": theta, "M": a1.m, "witness": a1.witness},
        "a2": {"kappa": a2.kappa}, "a3": {"L": a3.value},
        "kato": {"M": kato.m, "omega": kato.omega, "kmax": kato.kmax},
        "resolvent_lipschitz": {"Cprime": cprime.value},
    }
    for name, doc in assumptions_doc.items():
        doc["pass"] = verdicts[name]
    assumptions_doc["cd_system"] = {"pass_X": verdicts["cd_system_x"],
                                    "pass_Xminus1": verdicts["cd_system_xminus1"]}
    dump_json(assumptions_doc, out / "assumptions.json")

    header = ["check", "constant", "value", "refined_value", "rel_delta",
              "t", "s", "tau", "lambda_re", "lambda_im", "xi"]
    rows = [
        _witness_row("a1", "M", a1.m, a1.refined_m, a1.refinement_delta, a1.witness),
        _witness_row("a2_upper", "kappa", a2.kappa, a2.refined_kappa,
                     a2.refinement_delta, a2.witness_upper),
        _witness_row("a2_lower", "kappa", a2.kappa, a2.refined_kappa,
                     a2.refinement_delta, a2.witness_lower),
        _witness_row("a3", "L", a3.value, a3.refined_value,
                     a3.refinement_delta, a3.witness),
        _witness_row("resolvent_lipschitz", "Cprime", cprime.value,
                     cprime.refined_value, cprime.refinement_delta, cprime.witness),
        _witness_row("semigroup_lipschitz", "C", csemi.value,
                     csemi.refined_value, csemi.refinement_delta, csemi.witness),
        _witness_row("cd_strong_lipschitz", "quotient", cd.strong_lipschitz,
                     None, None, cd.witness),
        _witness_row("ellipticity_c", "c", ellip.constant, None, None,
                     {"t": ellip.witness_constant[0]}),
        _witness_row("ellipticity_omega", "omega", ellip.lower_bound, None, None,
                     {"t": ellip.witness_lower[0]}),
    ]
    write_csv(out / "extrema.csv", header, rows)

    report = {
        "ellipticity": ellip, "a1": a1, "a2": a2, "a3": a3, "kato": kato,
        "resolvent_lipschitz": cprime, "semigroup_lipschitz": csemi,
        "lemma_chain": {"Cprime": cprime.value, "M2L": a1.m**2 * a3.value},
        "cd_system": cd,
        "largest_passing_theta": theta_star,
        "refinement_deltas": deltas,
        "verdicts": verdicts,
    }
    return report


def run_evolve(config: dict, out: Path, seed: int, timer: StageTimer):
    spec = cfg.build_symbol(config["symbol"])
    grid = cfg.build_grid(config["grid"])
    engine = evo.PropagatorEngine(spec, grid)
    section = config.get("evolve")
    if section is None:
        raise ConfigurationError("config has no 'evolve' section")
    s, t = float(section["s"]), float(section["t"])
    _check_interval("evolve", s, t, spec.horizon)
    initial = _initial("evolve", section, grid, seed)
    tail = spectral_tail_fraction(initial)

    result = engine.propagate(s, t, initial)
    save_function(result, out / "evolved")
    timer.mark("propagate")

    conv_rows, orders, order_verdicts = _product_orders(engine, s, t, initial, result,
                                                        [16, 32, 64, 128])
    write_csv(out / "evolution_convergence.csv", ["rule", "steps", "l2_error"],
              conv_rows)
    timer.mark("convergence")

    verdicts = {**order_verdicts, "spectral_tail": bool(tail <= TAIL_WARN)}
    report = {"s": s, "t": t, "product_orders": orders,
              "spectral_tail_fraction": tail, "verdicts": verdicts}
    return report


def run_perturb(config: dict, out: Path, seed: int, timer: StageTimer):
    spec = cfg.build_symbol(config["symbol"])
    grid = cfg.build_grid(config["grid"])
    engine = evo.PropagatorEngine(spec, grid)
    section = config.get("perturb")
    if section is None:
        raise ConfigurationError("config has no 'perturb' section")
    s, t = float(section["s"]), float(section["t"])
    _check_interval("perturb", s, t, spec.horizon)
    x = _initial("perturb", section, grid, seed)
    family = cfg.build_perturbation(config.get("perturbation"))
    steps = cfg.build_solver(config.get("solver"))
    has_oracle = isinstance(family, per.MultiplierFamily)
    if has_oracle and steps < ORACLE_MIN_STEPS:
        raise ConfigurationError(
            f"config invalid at solver/steps: {steps} is less than the "
            f"oracle ladder's minimum of {ORACLE_MIN_STEPS}")
    tail = spectral_tail_fraction(x)

    traj = per.solve_perturbed(engine, family, s, t, x, steps)
    timer.mark("solve")
    gauge = NormSpec(spec, 0.0)
    rows = [[float(sig), norm(v), norm(v, gauge)]
            for sig, v in zip(traj.sigmas, traj.states)]
    write_csv(out / "trajectory.csv", ["sigma", "norm_X", "norm_Xminus1"], rows)

    residual = per.duhamel_residual(traj, engine, family)
    picard = {"max_sweeps": traj.sweeps_max, "last_residual": traj.last_residual,
              "contraction": traj.contraction}
    # the rest reads only the M run's first and final states: release its
    # trajectory, so that no other run is marched while it is alive
    xhat, full = traj.states[0], traj.final()
    del traj
    timer.mark("duhamel")

    # each later run is read only for its final state
    half = per.solve_perturbed(engine, family, s, t, x, steps // 2).final()
    cocycle_defect = per.perturbed_family_checks(xhat, full, half)
    timer.mark("family_checks")

    oracle_error, oracle_orders = None, None
    if has_oracle:
        oracle = per.commuting_oracle(engine, family, s, t, x)
        ladder = [steps // 4, steps // 2, steps]
        quarter = per.solve_perturbed(engine, family, s, t, x, ladder[0]).final()
        errs = [norm(GridFunction(grid, "frequency", v.values - oracle.values))
                for v in (quarter, half, full)]
        oracle_error = errs[-1]
        oracle_orders, order_ok = _order_verdict(errs, ladder, SECOND_ORDER, norm(x))
    timer.mark("oracle")

    reg = per.perturbation_regularity_report(family, [indicator(grid), x], spec)
    timer.mark("regularity")

    verdicts = {
        "duhamel": bool(residual <= VOLTERRA_TOL),
        "spectral_tail": bool(tail <= TAIL_WARN),
    }
    if oracle_error is not None:
        verdicts["oracle"] = bool(oracle_error <= VOLTERRA_TOL)
        verdicts["oracle_order"] = order_ok
    report = {
        "s": s, "t": t, "steps": steps,
        "duhamel_residual": residual,
        "oracle_error": oracle_error, "oracle_orders": oracle_orders,
        "cocycle_defect": cocycle_defect,
        "picard": picard,
        "regularity": reg,
        "spectral_tail_fraction": tail,
        "verdicts": verdicts,
    }
    return report


def run_favard(config: dict, out: Path, seed: int, timer: StageTimer):
    spec = cfg.build_symbol(config["symbol"])
    grid = cfg.build_grid(config["grid"])
    section = config.get("favard", {})
    times = [float(v) for v in section.get("times", [0.0])]
    if not all(0.0 <= v <= spec.horizon for v in times):
        raise ConfigurationError(f"config invalid at favard/times: need every time in "
                                 f"[0, {spec.horizon!r}], got {times!r}")
    f = _initial("favard", section, grid, seed)

    results, ok = [], True
    for s in times:
        op = FrozenOperator(spec, s)
        f1 = favard_norm(op, f, "F1")
        f0 = favard_norm(op, f, "F0")
        target_f1 = norm(op.apply(f))
        target_f0 = norm(f)
        gap1 = abs(f1.value - target_f1) / max(target_f1, 1e-300)
        gap0 = abs(f0.value - target_f0) / max(target_f0, 1e-300)
        ok = ok and gap1 <= FAVARD_GAP and gap0 <= FAVARD_GAP
        results.append({"time": s, "f1": f1, "f1_target": target_f1,
                        "f1_gap": gap1, "f0": f0, "f0_target": target_f0,
                        "f0_gap": gap0})
    timer.mark("favard")
    verdicts = {"favard_identities": bool(ok)}
    report = {"times": times, "results": results, "verdicts": verdicts}
    return report


def run_transport(config: dict, out: Path, seed: int, timer: StageTimer):
    section = config.get("transport")
    if section is None:
        raise ConfigurationError("config has no 'transport' section")
    problem = cfg.build_transport(section)
    f0_fn = cfg.build_transport_initial(section["initial"])
    f0 = trn.sample_initial(problem, f0_fn)
    _check_nonzero("transport", f0)
    s = float(section.get("s", 0.0))
    t = float(section.get("t", problem.horizon))
    _check_interval("transport", s, t, problem.horizon)

    state = trn.transport_solve(problem, s, t, f0, record_history=True)
    write_csv(out / "transport_series.csv", ["time", "mass", "l1_norm"],
              state.history)
    write_csv(out / "transport_profile.csv", ["x", "f"],
              list(zip(problem.centers(), state.values)))
    timer.mark("solve")

    checks = trn.transport_family_checks(problem, s, state, f0)
    timer.mark("family_checks")

    orders = None
    oracle_ok = problem.velocity.is_constant and problem.decay.is_constant
    if oracle_ok:
        refinements = section.get("refinements", [problem.cells // 4,
                                                  problem.cells // 2,
                                                  problem.cells])
        errs = trn.convergence_study(problem, s, t, f0_fn, refinements, state)
        orders, order_ok = _order_verdict(errs, refinements, HALF_ORDER,
                                          float(np.sum(np.abs(f0)) * problem.h))
    timer.mark("convergence")

    verdicts = {"decay": bool(checks.decay_ratio
                              <= checks.decay_bound * (1.0 + DECAY_SLACK * problem.h))}
    if orders is not None:
        verdicts["order"] = order_ok
    report = {
        "cells": problem.cells, "s": s, "t": t,
        "final_mass": state.mass(), "outflow": state.outflow,
        "family_checks": checks, "convergence_orders": orders,
        "verdicts": verdicts,
    }
    return report


def run_convergence(config: dict, out: Path, seed: int, timer: StageTimer):
    spec = cfg.build_symbol(config["symbol"])
    grid = cfg.build_grid(config["grid"])
    section = config.get("convergence", {})
    s = float(section.get("s", 0.0))
    t = float(section.get("t", min(spec.horizon, 2.0)))
    _check_interval("convergence", s, t, spec.horizon)
    steps = [int(v) for v in section.get("steps", [32, 64, 128, 256])]
    f = _initial("convergence", section, grid, seed)

    engine = evo.PropagatorEngine(spec, grid)
    rows, orders, verdicts = _product_orders(engine, s, t, f, engine.propagate(s, t, f),
                                             steps)
    write_csv(out / "convergence.csv", ["rule", "steps", "l2_error"], rows)
    timer.mark("convergence")

    report = {"s": s, "t": t, "steps": steps, "orders": orders,
              "verdicts": verdicts}
    return report


PIPELINES = {
    "check": run_check,
    "evolve": run_evolve,
    "perturb": run_perturb,
    "favard": run_favard,
    "transport": run_transport,
    "convergence": run_convergence,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evofam",
        description="Certify and exercise evolution families for "
                    "time-dependent multiplier generators.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in PIPELINES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--stable", action="store_true",
                       help="omit timings for byte-identical reports")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = cfg.load_config(args.config)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else int(config.get("seed", 1))

    envelope = {
        "subcommand": args.subcommand,
        "seed": seed,
        "config_hash": config_hash(config),
        "environment": environment_stamp(),
    }
    timer = StageTimer()            # the pipeline marks its stages in place
    if not args.stable:
        envelope["timings"] = timer.stages
    try:
        report = PIPELINES[args.subcommand](config, out, seed, timer)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ConvergenceError, DomainError) as exc:
        # `error` stays a top-level key: it marks the report of a failed run
        envelope.update(error=str(exc), witness=getattr(exc, "witness", None),
                        residual=getattr(exc, "residual", None),
                        stages=list(timer.stages))
        dump_json(envelope, out / "report.json")
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1

    envelope["report"] = report
    dump_json(envelope, out / "report.json")
    for name, value in sorted(report["verdicts"].items()):
        print(f"{name}: {'pass' if value else 'FAIL'}")
    return 0 if all(report["verdicts"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
