import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from evofam.cli import main
from evofam.config import load_config, validate_config
from evofam.errors import ConfigurationError

TWO_PI = 2.0 * math.pi


def fast_td1_config(**overrides):
    config = {
        "schema_version": 1,
        "seed": 3,
        "symbol": {
            "dim": 1, "order": 2, "horizon": TWO_PI,
            "coefficients": [
                {"alpha": [2], "const": [-2.0, 0.0],
                 "trig": [[1.0, 0.0, 0.0, -1.0, 0.0]]},
                {"alpha": [0], "const": [1.0, 0.0]},
            ],
        },
        "grid": {"dim": 1, "n": 256, "box": TWO_PI},
        "theta": 3 * math.pi / 4,
        "plans": {"time_samples": 32, "moduli_per_ray": 12, "pair_grid": 16,
                  "resolvent_pair_grid": 8, "resolvent_moduli": 6,
                  "tau_samples": 6, "kato_lambdas": 5, "kato_partitions": 5},
        "vectors": {"count": 2, "band": 4},
        "evolve": {"s": 0.0, "t": 2.0,
                   "initial": {"kind": "random_band", "band": 4}},
        "perturbation": {"kind": "multiplier",
                         "coefficient": {"const": [0.5, 0.0]},
                         "profile_num": [1.0], "profile_den": [1.0, 1.0]},
        "solver": {"steps": 256},
        "perturb": {"s": 0.0, "t": 1.0,
                    "initial": {"kind": "random_band", "band": 4}},
        "favard": {"times": [0.0, 1.0],
                   "initial": {"kind": "random_band", "band": 4}},
        "convergence": {"s": 0.0, "t": 2.0, "steps": [32, 64, 128],
                        "initial": {"kind": "random_band", "band": 4}},
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


@pytest.fixture(scope="module")
def td1_cfg_path(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cfg")
    return write_config(tmp, fast_td1_config())


class TestCheckCommand:
    def test_td1_passes(self, td1_cfg_path, tmp_path):
        code = main(["check", "--config", str(td1_cfg_path),
                     "--out", str(tmp_path), "--stable"])
        assert code == 0
        doc = json.loads((tmp_path / "assumptions.json").read_text())
        assert set(doc) == {"a1", "a2", "a3", "kato", "resolvent_lipschitz",
                            "cd_system"}
        assert doc["a1"]["pass"] and doc["a2"]["pass"] and doc["a3"]["pass"]
        assert doc["kato"]["pass"] and doc["cd_system"]["pass_X"]
        assert doc["a2"]["kappa"] == pytest.approx(2.0, rel=0.02)
        assert (tmp_path / "extrema.csv").exists()

    def test_nonelliptic_fails_a1_with_witness(self, tmp_path):
        config = {
            "schema_version": 1, "seed": 1,
            "symbol": {"dim": 1, "order": 1, "horizon": 1.0,
                       "coefficients": [{"alpha": [1], "const": [1.0, 0.0]}]},
            "grid": {"dim": 1, "n": 256, "box": TWO_PI},
            "theta": 3 * math.pi / 4,
            "plans": {"time_samples": 16, "moduli_per_ray": 8},
            "vectors": {"count": 2, "band": 4},
        }
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        code = main(["check", "--config", str(path), "--out", str(out),
                     "--stable"])
        assert code == 1
        doc = json.loads((out / "assumptions.json").read_text())
        assert not doc["a1"]["pass"]
        assert doc["a1"]["witness"]["value"] > 1e8

    def test_missing_horizon_exits_2(self, tmp_path):
        config = fast_td1_config()
        del config["symbol"]["horizon"]
        path = write_config(tmp_path, config)
        assert main(["check", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"symbol": ')
        assert main(["check", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        config = fast_td1_config(bogus_section={"x": 1})
        path = write_config(tmp_path, config)
        assert main(["check", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        # the sector rays and pair widths are constants, not plan keys
        config = fast_td1_config()
        config["plans"]["rays"] = 3
        path = write_config(tmp_path, config)
        capsys.readouterr()
        assert main(["check", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config invalid at plans: ")
        assert "'rays' was unexpected" in err

    def test_theta_scan_reads_the_config_plan(self, tmp_path):
        # td1's sector constant is 1/sin(pi - theta), sqrt(2) at 0.75 pi, so a
        # cap of 1.3 fails a1; theta* is where it reaches 1.3, pi - arcsin(1/1.3)
        config = fast_td1_config()
        config["plans"]["cap"] = 1.3
        path = write_config(tmp_path, config)
        assert main(["check", "--config", str(path), "--out", str(tmp_path),
                     "--stable"]) == 1
        report = json.loads((tmp_path / "report.json").read_text())["report"]
        assert report["a1"]["m"] > 1.3 and not report["verdicts"]["a1"]
        assert report["largest_passing_theta"] < config["theta"]
        assert report["largest_passing_theta"] == pytest.approx(
            math.pi - math.asin(1.0 / 1.3), abs=1e-12)


class TestDeterminism:
    def test_stable_reports_byte_identical(self, td1_cfg_path, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["check", "--config", str(td1_cfg_path), "--out",
                     str(out1), "--stable", "--seed", "9"]) == 0
        assert main(["check", "--config", str(td1_cfg_path), "--out",
                     str(out2), "--stable", "--seed", "9"]) == 0
        for name in ("report.json", "assumptions.json", "extrema.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_timings_present_without_stable(self, td1_cfg_path, tmp_path):
        out = tmp_path / "timed"
        main(["check", "--config", str(td1_cfg_path), "--out", str(out)])
        doc = json.loads((out / "report.json").read_text())
        assert "timings" in doc
        assert doc["seed"] == 3
        assert len(doc["config_hash"]) == 64


class TestOtherPipelines:
    def test_evolve(self, td1_cfg_path, tmp_path):
        code = main(["evolve", "--config", str(td1_cfg_path),
                     "--out", str(tmp_path), "--stable"])
        assert code == 0
        assert (tmp_path / "evolved.f64").exists()
        assert (tmp_path / "evolved.json").exists()
        assert (tmp_path / "evolution_convergence.csv").exists()
        doc = json.loads((tmp_path / "report.json").read_text())
        assert all(doc["report"]["verdicts"].values())

    def test_perturb(self, td1_cfg_path, tmp_path):
        code = main(["perturb", "--config", str(td1_cfg_path),
                     "--out", str(tmp_path), "--stable"])
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "sigma,norm_X,norm_Xminus1"
        assert len(lines) == 256 + 2          # header + M+1 nodes
        doc = json.loads((tmp_path / "report.json").read_text())
        rep = doc["report"]
        assert rep["verdicts"]["oracle"] and rep["verdicts"]["duhamel"]

    def test_favard(self, td1_cfg_path, tmp_path):
        assert main(["favard", "--config", str(td1_cfg_path),
                     "--out", str(tmp_path), "--stable"]) == 0

    def test_convergence(self, td1_cfg_path, tmp_path):
        assert main(["convergence", "--config", str(td1_cfg_path),
                     "--out", str(tmp_path), "--stable"]) == 0
        assert (tmp_path / "convergence.csv").exists()

    def test_transport(self, tmp_path):
        config = {
            "schema_version": 1, "seed": 1,
            "symbol": fast_td1_config()["symbol"],
            "grid": {"dim": 1, "n": 256, "box": TWO_PI},
            "transport": {
                "T": 1.0, "xmax": 6.0, "cells": 300,
                "g": {"const": 1.0}, "mu": {"const": 1.0},
                "initial": {"kind": "box", "lo": 1.0, "hi": 2.0},
                "s": 0.0, "t": 0.5, "refinements": [100, 200, 400],
            },
        }
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["transport", "--config", str(path), "--out", str(out),
                     "--stable"]) == 0
        series = (out / "transport_series.csv").read_text().splitlines()
        assert series[0] == "time,mass,l1_norm"
        assert (out / "transport_profile.csv").exists()

    def test_missing_section_exits_2(self, tmp_path):
        config = fast_td1_config()
        del config["evolve"]
        path = write_config(tmp_path, config)
        assert main(["evolve", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:          # argparse rejects the command line
        return exc.code


EXIT_CASES = [
    *[([p, c], 0) for p in ("evolve", "convergence", "favard", "perturb")
      for c in ("h1", "td1")],
    (["transport", "transport"], 0),
    (["check", "td1"], 0), (["check", "h1"], 0), (["check", "nonelliptic"], 1),
    # every subcommand takes --config, --out, --seed and --stable only
    (["evolve", "h1", "--refine", "2"], 2),
    (["check", "td1", "--refine", "2"], 2),
]


@pytest.mark.parametrize("args,expected", EXIT_CASES,
                         ids=[" ".join(a) for a, _ in EXIT_CASES])
def test_bundled_exit_codes(args, expected, tmp_path):
    from importlib import resources
    config = resources.files("evofam.data").joinpath("configs").joinpath(f"{args[1]}.json")
    argv = [args[0], "--config", str(config), "--out", str(tmp_path), "--stable"]
    assert _exit_code(argv + args[2:]) == expected


def bundled_config(name):
    from importlib import resources
    return json.loads(resources.files("evofam.data").joinpath("configs")
                      .joinpath(f"{name}.json").read_text())


def test_nonelliptic_check_fails_a1_but_is_refinement_stable(tmp_path):
    # a = i xi has its pole in the sector at every xi != 0 and vanishes at
    # xi = 0, so a1 reads 2 cap on both plans: its refinement delta is 0
    path = write_config(tmp_path, bundled_config("nonelliptic"))
    assert main(["check", "--config", str(path), "--out", str(tmp_path),
                 "--stable"]) == 1
    from evofam.assumptions import SamplePlan
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert report["a1"]["m"] == report["a1"]["refined_m"] == 2.0 * SamplePlan().cap
    assert report["refinement_deltas"]["a1"] == 0.0
    assert not report["verdicts"]["a1"] and report["verdicts"]["refinement_stable"]


# the saved state U(t,s) f is also the product rules' target, so evolve
# propagates once, on td1 and on h1 ending at its horizon alike
@pytest.mark.parametrize("name,t,count", [("td1", 2.0, 1), ("h1", 1.0, 1)])
def test_evolve_propagates_each_state_once(name, t, count, tmp_path):
    from unittest import mock

    from evofam.evolution import PropagatorEngine
    calls, propagate = [], PropagatorEngine.propagate

    def counted(self, s, t, f):
        calls.append((s, t))
        return propagate(self, s, t, f)

    config = bundled_config(name)
    config["evolve"]["t"] = t
    path = write_config(tmp_path, config)
    with mock.patch.object(PropagatorEngine, "propagate", counted):
        assert main(["evolve", "--config", str(path), "--out", str(tmp_path),
                     "--stable"]) == 0
    assert len(calls) == len(set(calls)) == count


def zero_perturbation_h1(tmp_path):
    """Bundled h1 on 64 bins and 64 Volterra steps with B = 0, so the
    Volterra solve and the oracle agree to roundoff."""
    config = bundled_config("h1")
    config["grid"]["n"] = 64
    config["solver"]["steps"] = 64
    config["perturbation"]["coefficient"]["const"] = [0.0, 0.0]
    return write_config(tmp_path, config)


def ds_h1(n):
    """Bundled h1 on `n` bins with the DS perturbation B = 0.5 |xi|^2 and
    indicator data."""
    config = bundled_config("h1")
    config["grid"]["n"] = n
    config["perturbation"].update(profile_num=[0.0, 1.0], profile_den=[1.0])
    config["perturb"]["initial"] = {"kind": "indicator"}
    return config


def test_numeric_failure_keeps_the_run_envelope(tmp_path, capsys):
    # B = 0.5 |xi|^2 on 128 bins: the indicator's highest carried mode is
    # |xi| = 63 (its Nyquist coefficient is 0), where the Picard factor
    # h |m_B| / 2 = 0.872 at 1024 steps exceeds the sweeps' reach, so node 1
    # is refused
    from evofam.perturbation import PICARD_TOL
    from evofam.reporting import config_hash
    config = ds_h1(128)
    path = write_config(tmp_path, config)
    assert main(["perturb", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--seed", "4", "--stable"]) == 1
    assert ("Picard factor 0.872095 exceeds the sweeps' reach 0.251189 at node 1 of 1024"
            in capsys.readouterr().err)
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert set(doc) == {"subcommand", "seed", "config_hash", "environment",
                        "error", "witness", "residual", "stages"}
    assert (doc["subcommand"], doc["seed"]) == ("perturb", 4)
    assert doc["config_hash"] == config_hash(config)
    assert doc["residual"] == pytest.approx(0.5 * (0.9 / 1024) * 0.5 * 63**2)
    assert doc["residual"] > PICARD_TOL
    assert doc["stages"] == []


@pytest.mark.parametrize("stable", [True, False])
def test_numeric_failure_records_completed_stages(tmp_path, capsys, stable):
    # on 64 bins the indicator carries |xi| <= 31: the 1024-step solve
    # contracts (factor 0.211), but the 512-step solve of the family checks
    # has factor 0.422 and fails after solve and duhamel
    path = write_config(tmp_path, ds_h1(64))
    out = tmp_path / "o"
    assert main(["perturb", "--config", str(path), "--out", str(out)]
                + ["--stable"] * stable) == 1
    assert "numeric failure" in capsys.readouterr().err
    doc = json.loads((out / "report.json").read_text())
    assert doc["error"] and doc["residual"] is not None
    assert doc["error"].startswith("Picard factor 0.422314 exceeds the sweeps' reach "
                                   "0.251189 at node 1 of 512 ")
    assert doc["stages"] == ["solve", "duhamel"]
    assert ("timings" in doc) is not stable
    if not stable:
        assert set(doc["timings"]) == set(doc["stages"])


def favard_h1(tmp_path, constant, initial=None):
    """Bundled h1 on 64 bins with zeroth-order coefficient `constant`, so
    that a(s, 0) = constant, and band-4 data unless `initial` is given."""
    config = bundled_config("h1")
    config["grid"]["n"] = 64
    config["symbol"]["coefficients"][1]["const"] = [constant, 0.0]
    if initial is not None:
        config["favard"]["initial"] = initial
    return write_config(tmp_path, config)


@pytest.mark.parametrize("constant,initial", [(-0.5, None), (-2.0, {"kind": "mode", "k": [0]})],
                         ids=["band4", "mode0"])
def test_favard_fails_where_re_a_is_negative_on_the_support(tmp_path, capsys, constant,
                                                            initial):
    # Re a(s, 0) = constant < 0 and the data carries mode 0: the sampled
    # sweep's sup sat at t = 2^-40, within 1% of ||A f||, and passed the band-4
    # run; the closed forms rest on Re a >= 0 on the support, which fails
    path = favard_h1(tmp_path, constant, initial)
    out = tmp_path / "o"
    assert main(["favard", "--config", str(path), "--out", str(out), "--stable"]) == 1
    assert capsys.readouterr().out == "favard_identities: FAIL\n"
    results = json.loads((out / "report.json").read_text())["report"]["results"]
    assert [(r["min_re_a"], r["witness_xi"]) for r in results] == [(constant, [0.0])] * 2
    if initial is not None:
        assert all(r["f1"] == pytest.approx(-constant, rel=1e-15) for r in results)


def test_favard_on_a_vanishing_symbol_keeps_the_failure_envelope(tmp_path, capsys):
    # a(s, 0) = 0: the F0 norm has no X_{-1} gauge, so the run ends in a
    # numeric failure and not in a verdict
    path = favard_h1(tmp_path, 0.0)
    out = tmp_path / "o"
    assert main(["favard", "--config", str(path), "--out", str(out), "--stable"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numeric failure: reference symbol vanishes on the grid; "
                            "extrapolated norm undefined\n")
    doc = json.loads((out / "report.json").read_text())
    assert set(doc) == {"subcommand", "seed", "config_hash", "environment",
                        "error", "witness", "residual", "stages"}
    assert doc["stages"] == []


def test_check_on_a_subnormal_symbol_fails_without_warnings(tmp_path, capsys):
    # a(t, 0) = 1e-310: 1/|a| overflows to inf, which fails a1 and a2, and
    # theta* reads that overflow as nan without a RuntimeWarning
    path = favard_h1(tmp_path, 1e-310)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["check", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--stable"]) == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err == ""


def test_cd_gauge_of_a_subnormal_reference_symbol_reads_inf_without_warnings(tmp_path,
                                                                           capsys):
    # a(0, 0) = 1e-310 + 0.5 sin 0: 1/|a(0, .)| overflows, so the X_{-1} gauge
    # is undefined, as `NormSpec.weight` judges it, and the cd quotient in it
    # reads inf although a(0, .) > 0 and the rate at xi = 0 is 0.5 cos t
    config = bundled_config("td1")
    config["grid"]["n"] = 64
    config["symbol"]["coefficients"][1] = {"alpha": [0], "const": [1e-310, 0.0],
                                           "trig": [[1.0, 0.0, 0.0, 0.5, 0.0]]}
    path = write_config(tmp_path, config)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["check", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--stable"]) == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    report = json.loads((tmp_path / "o" / "report.json").read_text())["report"]
    assert float(report["cd_system"]["strong_lipschitz_xminus1"]) == math.inf
    assert not report["verdicts"]["cd_system_xminus1"]
    assert capsys.readouterr().err == ""


def test_check_leaves_numpy_ma_unimported(tmp_path):
    # np.unique without return_inverse (so np.union1d too) imports numpy.ma,
    # which stays resident, about 1.3 MB, for the rest of the process
    from importlib import resources
    config = resources.files("evofam.data").joinpath("configs").joinpath("td1.json")
    code = ("import sys\nfrom evofam.cli import main\n"
            f"main(['check', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}])\n"
            "print('numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert run.stdout.splitlines()[-1] == "False"


def test_band_limited_data_solves_past_the_grid_reach(tmp_path):
    # B = 0.5 |xi|^2 on 128 bins has factor 0.9 at |xi| = 64, but band-4
    # data carries |xi| <= 4 only, where the 1024-step factor is 0.0035:
    # the run solves and passes, as its Picard sweeps did
    config = ds_h1(128)
    config["perturb"]["initial"] = bundled_config("h1")["perturb"]["initial"]
    assert config["perturb"]["initial"] == {"kind": "random_band", "band": 4}
    out = tmp_path / "o"
    assert main(["perturb", "--config", str(write_config(tmp_path, config)),
                 "--out", str(out), "--seed", "1", "--stable"]) == 0
    report = json.loads((out / "report.json").read_text())["report"]
    assert all(report["verdicts"].values())
    assert report["picard"]["max_sweeps"] == 0
    assert report["picard"]["contraction"] == pytest.approx(0.5 * (0.9 / 1024) * 0.5 * 4**2)


def test_exact_oracle_passes_without_order_fit(tmp_path):
    # oracle errors are ~1e-16, so their fitted orders are noise
    path = zero_perturbation_h1(tmp_path)
    out = tmp_path / "o"
    assert main(["perturb", "--config", str(path), "--out", str(out),
                 "--stable"]) == 0
    report = json.loads((out / "report.json").read_text())["report"]
    assert report["oracle_error"] <= 1e-13
    assert report["verdicts"]["oracle_order"] is True


@pytest.mark.parametrize("steps,kind,minimum", [
    pytest.param(2, "multiplier", 4, id="2"),
    pytest.param(3, "multiplier", 4, id="3"),
    pytest.param(1, "mollifier", 2, id="mollifier-1"),
])
def test_oracle_ladder_needs_four_steps(tmp_path, capsys, monkeypatch, steps, kind,
                                        minimum):
    # the multiplier family's oracle ladder solves steps // 4, steps // 2, steps;
    # every family's checks read the steps // 2 run, so the schema asks for 2
    from evofam import perturbation as per
    config = json.loads(zero_perturbation_h1(tmp_path).read_text())
    config["solver"]["steps"] = steps
    if kind == "mollifier":
        config["perturbation"] = {"kind": "mollifier"}
    path = write_config(tmp_path, config)
    solves = []
    solve = per.solve_perturbed
    monkeypatch.setattr(per, "solve_perturbed",
                        lambda *a, **k: solves.append(a) or solve(*a, **k))
    assert main(["perturb", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config invalid at solver/steps" in err
    assert f"minimum of {minimum}" in err
    assert "Traceback" not in err
    assert solves == []
    assert not (tmp_path / "o" / "trajectory.csv").exists()


@pytest.mark.parametrize("kind,expected", [
    ("multiplier", [(0.0, 0.9, 64), (0.0, 0.9, 32), (0.0, 0.9, 16)]),
    ("smoothing", [(0.0, 0.9, 64), (0.0, 0.9, 32)]),
], ids=["multiplier", "smoothing"])
def test_perturb_solves_each_run_once(tmp_path, monkeypatch, kind, expected):
    # M and M/2 feed the family checks, which solve nothing; the multiplier
    # oracle reads M/2 as well and adds M/4
    from evofam import perturbation as per
    config = json.loads(zero_perturbation_h1(tmp_path).read_text())
    if kind == "smoothing":
        config["perturbation"] = {"kind": "smoothing", "order": 2}
    path = write_config(tmp_path, config)
    solves = []
    solve = per.solve_perturbed
    monkeypatch.setattr(per, "solve_perturbed", lambda engine, family, s, t, x, steps:
                        solves.append((s, t, steps))
                        or solve(engine, family, s, t, x, steps))
    # at 64 steps the smoothing run misses the Duhamel tolerance: exit 1
    assert main(["perturb", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--stable"]) in (0, 1)
    assert solves == expected


def test_perturb_holds_one_trajectory_at_a_time(tmp_path):
    # the M run is released before the M/2 solve, and a diagonal run holds
    # its states on the bins its band-4 data carries (9 of 1024): one bundled
    # h1 op peaks below a quarter of the M run's whole-grid states (measured:
    # 2.2 MiB, and 18.4 MiB when every state was held on the whole grid)
    import tracemalloc
    assert main(["perturb", "--config", str(zero_perturbation_h1(tmp_path)),
                 "--out", str(tmp_path / "w"), "--stable"]) == 0   # lazy imports first
    config = bundled_config("h1")
    path = write_config(tmp_path, config, name="h1.json")
    steps, bins = config["solver"]["steps"], config["grid"]["n"]
    state = bins * np.dtype(complex).itemsize
    bound = (steps + 1) * state / 4
    tracemalloc.start()
    try:
        assert main(["perturb", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--stable"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_a_non_finite_duhamel_node_fails_the_run(tmp_path, monkeypatch):
    # rows NaN between the 8 sigma nodes past 0.5 keep the march finite; the
    # Duhamel check names its first NaN node, and perturb exits 1 with the
    # failure envelope
    from evofam import config as cfg
    from evofam.perturbation import MultiplierFamily
    from evofam.symbols import constant
    from reference import NaNOffTheGrid
    config = bundled_config("h1")
    config["grid"]["n"] = 64
    config["solver"]["steps"] = 8
    path = write_config(tmp_path, config)
    sigmas = np.linspace(0.0, 0.9, 9)
    monkeypatch.setattr(cfg, "build_perturbation", lambda section: NaNOffTheGrid(
        MultiplierFamily(constant(0.5)), sigmas, 0.5))
    assert main(["perturb", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--stable"]) == 1
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    # step 4 runs over (0.45, 0.5625), and its last two nodes lie past 0.5
    assert doc["error"] == "non-finite Duhamel residual at node 5 of 8 (sigma=0.5625)"
    assert doc["witness"] == {"node": 5, "sigma": 0.5625}
    assert doc["stages"] == ["solve"]


def test_picard_failure_names_the_failing_run(tmp_path):
    # at steps = 2 the 2-step M run contracts (Picard factor 0.225), and the
    # 1-step M/2 run (factor 0.45) is refused after solve and duhamel
    config = bundled_config("h1")
    config["grid"]["n"] = 64
    config["perturbation"] = {"kind": "mollifier"}
    config["solver"]["steps"] = 2
    path = write_config(tmp_path, config)
    assert main(["perturb", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--stable"]) == 1
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert doc["error"] == ("Picard factor 0.45 exceeds the sweeps' reach 0.251189 "
                            "at node 1 of 1 (sigma=0.9) in the 1-step run")
    assert doc["residual"] == 0.45
    assert doc["stages"] == ["solve", "duhamel"]


def test_transport_marches_each_run_once(tmp_path, monkeypatch):
    # the finest convergence level is the pipeline's own s -> t run, and the
    # family check reads that run without marching
    from evofam import transport as trn
    solves = []
    solve = trn.transport_solve
    monkeypatch.setattr(trn, "transport_solve", lambda problem, s, t, *a, **k:
                        solves.append((problem.cells, s, t))
                        or solve(problem, s, t, *a, **k))
    path = write_config(tmp_path, bundled_config("transport"))
    assert main(["transport", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--stable"]) == 0
    assert solves == [(600, 0.0, 0.5), (150, 0.0, 0.5), (300, 0.0, 0.5)]


def test_perturb_builds_frequency_axes_once_per_grid(tmp_path, monkeypatch):
    from evofam.spectral import Grid
    from evofam.symbols import SymbolSpec
    calls, grids, symbols = [], [], []
    fftfreq, post_init = np.fft.fftfreq, Grid.__post_init__
    on_axes = SymbolSpec.on_axes
    monkeypatch.setattr(np.fft, "fftfreq",
                        lambda *a, **k: calls.append(a) or fftfreq(*a, **k))
    monkeypatch.setattr(Grid, "__post_init__",
                        lambda self: grids.append(self) or post_init(self))
    monkeypatch.setattr(SymbolSpec, "on_axes",
                        lambda self, *a: symbols.append(a) or on_axes(self, *a))
    path = zero_perturbation_h1(tmp_path)
    assert main(["perturb", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--stable"]) == 0
    # xi_axes and max_mode each call fftfreq once per grid
    assert 0 < len(calls) <= 2 * len(grids)
    # one extrapolated-norm weight per norm spec and grid, not one per norm call
    assert 0 < len(symbols) <= 4


def test_check_certifies_kato_once(td1_cfg_path, tmp_path, monkeypatch):
    from evofam import assumptions as asm
    calls, orders = [], []
    kato, partitions = asm.check_kato_stability, asm._partitions
    monkeypatch.setattr(asm, "check_kato_stability",
                        lambda *a, **k: calls.append(a) or kato(*a, **k))
    monkeypatch.setattr(asm, "_partitions",
                        lambda *a: orders.append(a[1]) or partitions(*a))
    assert main(["check", "--config", str(td1_cfg_path), "--out", str(tmp_path),
                 "--stable"]) == 0
    text = (tmp_path / "report.json").read_text()
    report = json.loads(text)["report"]
    assert len(calls) == 1
    # on the base plan only: one draw of partitions per order k = 1 .. kmax
    assert orders == list(range(1, asm.SamplePlan().kato_kmax + 1))
    # one Kato record, under "kato"; the CD system keeps only its quotients
    assert text.count('"max_resolvent_ratio"') == 1
    assert set(report["cd_system"]) == {"strong_lipschitz", "strong_lipschitz_xminus1",
                                        "witness"}


@pytest.mark.parametrize("name,code,most", [("td1", 0, 3), ("nonelliptic", 1, 2)])
def test_check_builds_the_monomials_once_per_axes(name, code, most, tmp_path, monkeypatch):
    # the grid's axes, td1's class axes (xi and -xi share a column) and the
    # unit sphere: every certifier, ellipticity too, reads memoised axes
    from evofam import spectral, symbols
    builds = []

    def counting_memo(owner, table, build, anchor=None):
        counted = lambda: builds.append(table) or build()
        return spectral.memo(owner, table, counted if table == "monomials" else build,
                             anchor)

    monkeypatch.setattr(symbols, "memo", counting_memo)
    path = write_config(tmp_path, bundled_config(name))
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--stable"]) == code
    assert 0 < len(builds) <= most


def test_cd_system_verdicts_read_kato(td1_cfg_path, tmp_path, monkeypatch):
    # a Kato ratio above 1 + KATO_TOL fails Kato and both CD-system verdicts
    from dataclasses import replace

    from evofam import assumptions as asm
    from evofam.cli import KATO_TOL
    kato = asm.check_kato_stability
    monkeypatch.setattr(asm, "check_kato_stability", lambda *a: replace(
        kato(*a), max_semigroup_ratio=1.0 + 2.0 * KATO_TOL))
    assert main(["check", "--config", str(td1_cfg_path), "--out", str(tmp_path),
                 "--stable"]) == 1
    verdicts = json.loads((tmp_path / "report.json").read_text())["report"]["verdicts"]
    assert {name for name, ok in verdicts.items() if not ok} == {
        "kato", "cd_system_x", "cd_system_xminus1"}


def test_check_judges_each_constant_against_the_plan_cap(tmp_path, capsys):
    # td1 reads M = sqrt(2), kappa = 2 and an X-level strong Lipschitz
    # quotient of 10.5; L (0.73), C' (0.98), C (0.21) and the X_{-1}
    # quotient (0.46) stay below a cap of 1.2
    config = bundled_config("td1")
    config["plans"] = {"cap": 1.2}
    path = write_config(tmp_path, config)
    assert main(["check", "--config", str(path), "--out", str(tmp_path),
                 "--stable"]) == 1
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    failed = {name for name, ok in report["verdicts"].items() if not ok}
    assert failed == {"a1", "a2", "cd_system_x"}
    assert report["a1"]["m"] > 1.2 and report["a2"]["kappa"] > 1.2
    assert report["cd_system"]["strong_lipschitz"] > 1.2
    assert report["cd_system"]["strong_lipschitz_xminus1"] <= 1.2
    # assumptions.json reads the same verdicts, and stdout prints them
    doc = json.loads((tmp_path / "assumptions.json").read_text())
    assert [doc[k]["pass"] for k in ("a1", "a2", "a3", "kato", "resolvent_lipschitz")] \
        == [False, False, True, True, True]
    assert doc["cd_system"] == {"pass_X": False, "pass_Xminus1": True}
    out = capsys.readouterr().out
    assert "a1: FAIL" in out and "cd_system_x: FAIL" in out and "a3: pass" in out


def test_ellipticity_judges_the_dip_between_time_samples(tmp_path):
    # c_2(t) = -0.9 + sin(w t), w = pi (time_samples - 1) / T, vanishes to
    # roundoff at every sample, so each reads Re a_2 = 0.9 on the unit
    # sphere; the true inf is -0.1, inside the reported margin w dt / 2
    from evofam.assumptions import SamplePlan
    config = bundled_config("h1")
    config["grid"]["n"] = 64
    omega = math.pi * (SamplePlan().time_samples - 1) / config["symbol"]["horizon"]
    config["symbol"]["coefficients"][0].update(const=[-0.9, 0.0],
                                               trig=[[omega, 0.0, 0.0, 1.0, 0.0]])
    path = write_config(tmp_path, config)
    assert main(["check", "--config", str(path), "--out", str(tmp_path),
                 "--stable"]) == 1
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    ellipticity = report["ellipticity"]
    assert ellipticity["constant"] == pytest.approx(0.9, abs=1e-12)
    assert ellipticity["lower_bound"] > 0.0
    assert ellipticity["margin"] == pytest.approx(math.pi / 2)
    assert report["verdicts"]["ellipticity"] is False


@pytest.mark.parametrize("jump,constant,passes", [(-1.0, 2.0, True), (3.0, -1.0, False)])
def test_ellipticity_margin_reads_the_continuous_terms_between_jumps(tmp_path, jump,
                                                                      constant, passes):
    # c_2(t) = -2 + jump 1[t >= 1] on [0, 2]: Re a_2 is 2, then 2 - jump, on
    # the unit sphere, and no continuous term moves it, so the margin is 0;
    # it was inf for every principal step term
    config = bundled_config("h1")
    config["grid"]["n"] = 64
    config["symbol"]["horizon"] = 2.0
    config["symbol"]["coefficients"][0].update(const=[-2.0, 0.0],
                                               steps=[[1.0, jump, 0.0]])
    path = write_config(tmp_path, config)
    assert main(["check", "--config", str(path), "--out", str(tmp_path),
                 "--stable"]) == 1
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert report["ellipticity"]["constant"] == constant
    assert report["ellipticity"]["margin"] == 0.0
    assert report["verdicts"]["ellipticity"] is passes


def test_convergence_orders_read_the_ladder_ratio(tmp_path):
    # steps grow by 1.5, not 2: dividing by log 2 read left orders of 0.60
    # and midpoint orders of 1.17, and the run failed both
    config = bundled_config("td1")
    config["convergence"]["steps"] = [32, 48, 72, 108]
    path = write_config(tmp_path, config)
    assert main(["convergence", "--config", str(path), "--out", str(tmp_path),
                 "--stable"]) == 0
    orders = json.loads((tmp_path / "report.json").read_text())["report"]["orders"]
    assert all(1.0 <= o <= 1.03 for o in orders["left"])
    assert orders["midpoint"] == pytest.approx([2.0] * 3, abs=1e-5)


RANGE_CASES = {
    # at s == t the Duhamel residual and the transport midpoint divided by
    # zero, and every convergence order read inf
    **{pipeline: (pipeline, pipeline, "t", "s")
       for pipeline in ("perturb", "transport", "evolve", "convergence")},
    # beyond [0, horizon] the symbol or the transport problem is undefined
    **{f"{pipeline}-beyond_horizon": (pipeline, pipeline, "t", 1.5)
       for pipeline in ("perturb", "transport", "evolve", "convergence")},
    "perturb-negative_s": ("perturb", "perturb", "s", -0.5),
    # the sector certifiers need pi/2 < theta < pi
    "check-theta": ("check", "theta", "theta", 1.0),
    # a frozen time must lie in [0, horizon]
    "favard-times": ("favard", "favard/times", "times", [2.0]),
    # no frozen time judges nothing, and one level fits no order
    "favard-no_times": ("favard", "favard/times", "times", []),
    "convergence-one_level": ("convergence", "convergence/steps", "steps", [64]),
    "transport-one_level": ("transport", "transport/refinements", "refinements", [150]),
    # a repeated level would divide an order fit by log 1
    "convergence-repeated_level": ("convergence", "convergence/steps", "steps",
                                   [32, 32, 64]),
    "transport-repeated_level": ("transport", "transport/refinements", "refinements",
                                 [300, 300, 600]),
    # a mode index is an integer per axis
    "evolve-fractional_mode": ("evolve", "evolve/initial/k/0", "initial",
                               {"kind": "mode", "k": [1.5]}),
    # zero initial data makes every error 0 and every order inf, so nothing
    # would be judged
    **{f"{pipeline}-zero_initial": (pipeline, f"{pipeline}/initial", "initial",
                                    {"kind": "indicator", "lo": 2, "hi": 1})
       for pipeline in ("evolve", "perturb", "favard", "convergence")},
    "transport-zero_initial": ("transport", "transport/initial", "initial",
                               {"kind": "box", "lo": 2, "hi": 1}),
    # a Gaussian of width 0 divides by zero
    "evolve-gaussian_width": ("evolve", "evolve/initial/width", "initial",
                              {"kind": "gaussian", "width": 0}),
}


def record_solves(monkeypatch) -> list:
    """Replace each solve and sweep a pipeline may start by a recorder of its calls."""
    from evofam import assumptions as asm
    from evofam import cli
    from evofam import evolution as evo
    from evofam import perturbation as per
    from evofam import transport as trn
    solves = []
    for owner, name in ((per, "solve_perturbed"), (trn, "transport_solve"),
                        (evo.PropagatorEngine, "propagate"),
                        (evo, "product_formula_errors"), (asm, "check_sector"),
                        (cli, "certify_ellipticity"), (cli, "favard_norm")):
        monkeypatch.setattr(owner, name, lambda *a, **k: solves.append(a))
    return solves


@pytest.mark.parametrize("case", list(RANGE_CASES.values()), ids=list(RANGE_CASES))
def test_empty_interval_exits_2(tmp_path, capsys, monkeypatch, case):
    # an empty or out-of-range interval, theta, frozen time, refinement
    # ladder, mode index or initial data is rejected before any solve or sweep
    pipeline, where, key, value = case
    config = bundled_config("transport" if pipeline == "transport" else "h1")
    config["grid"]["n"] = 64
    section = config if key == "theta" else config[pipeline]
    section[key] = section["s"] if value == "s" else value
    path = write_config(tmp_path, config)
    solves = record_solves(monkeypatch)
    assert main([pipeline, "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config invalid at {where}: ")
    assert "Traceback" not in err
    assert solves == []


@pytest.mark.parametrize("pipeline,k,message", [
    ("evolve", 40, "mode 40 outside grid band [-32, 32)"),
    ("perturb", [1, 2], "mode index (1, 2) has wrong dimension"),
], ids=["outside_band", "wrong_length"])
def test_initial_mode_off_the_grid_exits_2(tmp_path, capsys, monkeypatch, pipeline, k,
                                           message):
    # like an out-of-range band, a mode the grid does not hold is rejected
    # before any solve
    config = bundled_config("h1")
    config["grid"]["n"] = 64
    config[pipeline]["initial"] = {"kind": "mode", "k": k}
    path = write_config(tmp_path, config)
    solves = record_solves(monkeypatch)
    assert main([pipeline, "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert solves == []


SYMBOL_2D = {"dim": 2, "order": 2, "horizon": 1.0, "coefficients": [
    {"alpha": [2, 0], "const": -1.0}, {"alpha": [0, 2], "const": -1.0},
    {"alpha": [0, 0], "const": 1.0}]}


@pytest.mark.parametrize("pipeline", ["check", "evolve", "perturb", "favard", "convergence"])
@pytest.mark.parametrize("direction", ["2d_symbol_1d_grid", "1d_symbol_2d_grid"])
def test_symbol_of_another_dimension_exits_2(tmp_path, capsys, monkeypatch, pipeline,
                                             direction):
    # a 2-D symbol read the 1-D grid's missing second axis (IndexError), and a
    # 1-D symbol on a 2-D grid was certified as if it had no xi_2 term
    config = bundled_config("h1")
    config["grid"]["n"] = 16
    if direction == "2d_symbol_1d_grid":
        config["symbol"] = SYMBOL_2D
    else:
        config["grid"]["dim"] = 2
    path = write_config(tmp_path, config)
    solves = record_solves(monkeypatch)
    assert main([pipeline, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config invalid at grid/dim: ")
    assert "Traceback" not in err
    assert solves == []


def test_multiplier_pole_on_the_grid_exits_2(tmp_path, capsys):
    # Q(|xi|^2) = 1 - |xi|^2 vanishes at xi = +-1: the division warned, and
    # the march then failed on nan as a Picard non-contraction
    config = bundled_config("h1")
    config["grid"]["n"] = 64
    config["solver"]["steps"] = 64
    config["perturbation"] = {"kind": "multiplier", "profile_den": [1.0, -1.0]}
    path = write_config(tmp_path, config)
    out = tmp_path / "o"
    assert main(["perturb", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: config invalid at perturbation/profile_den: Q(|xi|^2) vanishes "
        "at |xi|^2 = 1.0 on the grid\n")
    assert not (out / "trajectory.csv").exists()


def test_narrow_gaussian_is_judged_on_the_grid(tmp_path, capsys):
    # exp(-(x - c)^2 / (2 w^2)) overflowed at w = 1e-200 and the run ended in
    # a numeric failure; the capped profile samples a spike at the centre
    config = bundled_config("h1")
    config["grid"]["n"] = 64
    config["evolve"]["initial"] = {"kind": "gaussian", "width": 1e-200}
    path = write_config(tmp_path, config)
    out = tmp_path / "o"
    assert main(["evolve", "--config", str(path), "--out", str(out), "--stable"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and "spectral_tail: FAIL" in captured.out.splitlines()
    report = json.loads((out / "report.json").read_text())["report"]
    assert report["spectral_tail_fraction"] > 0.0 and "error" not in report


def test_narrow_gaussian_transport_data_is_zero(tmp_path, capsys):
    config = bundled_config("transport")
    config["transport"]["initial"] = {"kind": "gaussian", "width": 1e-200}
    path = write_config(tmp_path, config)
    assert main(["transport", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("error: config invalid at transport/initial: "
                                       "the sampled initial data is zero\n")


def test_step_coefficient_perturb_reports_verdicts(tmp_path, capsys):
    # a jump in B at t = 0.5: a base pair straddles it at every separation,
    # so every L2 modulus holds the jump and the L2 slopes are finite and
    # near 0; the run is judged, and the oracle order fails as it should
    config = bundled_config("h1")
    config["grid"]["n"] = 64
    config["perturbation"]["coefficient"] = {"const": 0.5, "steps": [[0.5, 0.1, 0]]}
    path = write_config(tmp_path, config)
    assert main(["perturb", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--stable"]) == 1
    captured = capsys.readouterr()
    assert "error:" not in captured.err
    lines = captured.out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "duhamel", "oracle", "oracle_order", "spectral_tail"]
    assert "oracle_order: FAIL" in lines
    report = json.loads((tmp_path / "o" / "report.json").read_text())["report"]
    assert all(abs(fit["slope"]) <= 0.1 for fit in report["regularity"]["slopes_l2"])


@pytest.mark.parametrize("section", [{"method": "exact"},
                                     {"method": "product", "steps": 64}],
                         ids=["exact", "product"])
def test_engine_section_rejected(tmp_path, capsys, section):
    # every pipeline builds the one closed-form propagator
    path = write_config(tmp_path, fast_td1_config(engine=section))
    assert main(["evolve", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "'engine' was unexpected" in capsys.readouterr().err


def test_transport_r_rejected(tmp_path, capsys):
    # the family checks start at s, where the initial data is sampled
    config = bundled_config("transport")
    config["transport"]["r"] = 0.0
    path = write_config(tmp_path, config)
    assert main(["transport", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "'r' was unexpected" in capsys.readouterr().err


@pytest.mark.parametrize("initial,message", [
    ({"kind": "file"}, "'stem' is a required property"),
    ({"kind": "file", "stem": "does_not_exist"}, "does_not_exist"),
], ids=["no_stem", "missing_file"])
def test_file_initial_errors_exit_2(tmp_path, capsys, initial, message):
    config = fast_td1_config()
    config["evolve"]["initial"] = initial
    path = write_config(tmp_path, config)
    assert main(["evolve", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("pipeline", ["evolve", "perturb", "favard", "convergence"])
def test_file_initial_on_another_grid_exits_2(tmp_path, capsys, monkeypatch, pipeline):
    # a band-4 function saved at n = 16 does not live on h1's n = 64 grid:
    # evolve and convergence died on a broadcast, and favard judged the file
    # on its own grid
    from evofam.spectral import Grid, random_band_limited, save_function
    small = Grid(1, 16, 2.0 * math.pi)
    save_function(random_band_limited(small, np.random.default_rng(2), band=4),
                  tmp_path / "start")
    config = bundled_config("h1")
    config["grid"]["n"] = 64
    config.setdefault(pipeline, {})["initial"] = {"kind": "file",
                                                  "stem": str(tmp_path / "start")}
    path = write_config(tmp_path, config)
    solves = record_solves(monkeypatch)
    assert main([pipeline, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: config invalid at {pipeline}/initial: the file's grid "
                   f"{small} differs from the config's grid {Grid(1, 64, 2.0 * math.pi)}\n")
    assert solves == []


def test_file_initial_on_the_config_grid_shares_its_tables(tmp_path):
    # a file saved on the config's grid comes back on an equal but distinct
    # Grid object; rebound to the config's, it shares the tables keyed by
    # its axes
    from evofam.cli import _initial
    from evofam.spectral import Grid, random_band_limited, save_function
    grid = Grid(1, 64, 2.0 * math.pi)
    saved = random_band_limited(Grid(1, 64, 2.0 * math.pi), np.random.default_rng(2), band=4)
    save_function(saved, tmp_path / "start")
    f = _initial("perturb", {"initial": {"kind": "file", "stem": str(tmp_path / "start")}},
                 grid, 1)
    assert f.grid is grid
    assert f.grid.xi_axes() is grid.xi_axes()
    assert np.array_equal(f.values, saved.values)


class TestBundledConfigs:
    def test_bundled_configs_validate(self):
        from importlib import resources
        base = resources.files("evofam.data").joinpath("configs")
        names = [p.name for p in base.iterdir() if p.name.endswith(".json")]
        assert {"td1.json", "h1.json", "nonelliptic.json",
                "transport.json"} <= set(names)
        for name in names:
            validate_config(json.loads(base.joinpath(name).read_text()))

    def test_initial_from_file(self, tmp_path, small_grid, rng):
        from evofam.spectral import random_band_limited, save_function
        f = random_band_limited(small_grid, rng, band=4)
        save_function(f, tmp_path / "start")
        config = fast_td1_config()
        config["evolve"]["initial"] = {"kind": "file",
                                       "stem": str(tmp_path / "start")}
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out),
                     "--stable"]) == 0


@pytest.mark.parametrize("kind,coefficient,expected", [
    ("multiplier", None, 1.0), ("multiplier", {}, 0.0),
    ("smoothing", None, 1.5), ("smoothing", {}, 0.0),
], ids=["multiplier-absent", "multiplier-empty", "smoothing-absent", "smoothing-empty"])
def test_perturbation_coefficient_default(kind, coefficient, expected):
    # an absent coefficient takes the family's default (1 for the multiplier,
    # 1 + t for the smoothing composite); a present one is built as written
    from evofam.config import build_perturbation
    entry = {"kind": kind}
    if coefficient is not None:
        entry["coefficient"] = coefficient
    assert build_perturbation(entry).coefficient(0.5) == expected


@pytest.mark.parametrize("entry,unexpected", [
    ({"kind": "mollifier", "coefficient": {"const": 5.0}, "order": 3},
     "('coefficient', 'order' were unexpected)"),
    ({"kind": "smoothing", "profile_num": [0.0, 1.0]}, "('profile_num' was unexpected)"),
], ids=["mollifier-coefficient_order", "smoothing-profile_num"])
def test_perturbation_keys_of_another_kind_rejected(tmp_path, capsys, entry, unexpected):
    # each kind takes only its own keys: a mollifier has none besides its
    # kind, and a smoothing composite has no rational profile
    config = bundled_config("h1")
    config["perturbation"] = entry
    path = write_config(tmp_path, config)
    assert main(["perturb", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config invalid at perturbation: ") and unexpected in err


def test_transport_field_applies_w1_to_a_constant(tmp_path):
    # g = 1 + 0.5 x/(1+x) varies in x: the run must differ from g = 1 and
    # must not be judged by the constant-coefficient oracle
    reports = []
    for g in ({"const": 1.0}, {"const": 1.0, "w1": 0.5}):
        config = bundled_config("transport")
        config["transport"]["g"] = g
        path = write_config(tmp_path, config, name=f"t{len(reports)}.json")
        out = tmp_path / f"o{len(reports)}"
        main(["transport", "--config", str(path), "--out", str(out), "--stable"])
        reports.append(json.loads((out / "report.json").read_text())["report"])
    constant, varying = reports
    assert constant["convergence_orders"] is not None
    assert varying["convergence_orders"] is None
    assert "order" not in varying["verdicts"]
    assert varying["final_mass"] != constant["final_mass"]


@pytest.mark.parametrize("field,message", [
    ({"const": 1.0, "time": {"const": 1.0}}, "is valid under each of"),
    ({"w0": 1.0}, "is not valid under any of"),
], ids=["const_and_time", "neither"])
def test_transport_field_needs_exactly_one_of_const_and_time(tmp_path, capsys,
                                                            field, message):
    config = bundled_config("transport")
    config["transport"]["g"] = field
    path = write_config(tmp_path, config)
    assert main(["transport", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config invalid at transport/g: ") and message in err


@pytest.mark.parametrize("cap", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_non_finite_numbers_rejected(tmp_path, capsys, cap):
    # json.dumps writes Infinity and NaN, which are not JSON; a cap of
    # Infinity would pass every capped constant, a2's kappa included
    config = fast_td1_config()
    config["plans"]["cap"] = cap
    path = write_config(tmp_path, config)
    assert main(["check", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "non-finite number" in capsys.readouterr().err


def test_schema_version_other_than_1_rejected(tmp_path, capsys):
    path = write_config(tmp_path, fast_td1_config(schema_version=2))
    assert main(["evolve", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config invalid at schema_version: 1 was expected" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fast_trig_path(tmp_path_factory):
    """td1 on 64 bins over [0, 1] with the xi^2 coefficient -2 - sin(200 t)
    and every interval [0, 0.9]: a frequency too fast for a fixed-panel
    quadrature, which the closed-form propagator integrates exactly."""
    config = bundled_config("td1")
    config["grid"]["n"] = 64
    config["symbol"]["horizon"] = 1.0
    config["symbol"]["coefficients"][0]["trig"][0][0] = 200.0
    for section in ("evolve", "perturb", "convergence"):
        config[section]["t"] = 0.9
    return write_config(tmp_path_factory.mktemp("fast"), config)


@pytest.mark.parametrize("pipeline", ["evolve", "perturb", "convergence"])
def test_fast_trig_symbol_is_judged(fast_trig_path, tmp_path, capsys, pipeline):
    # the product-rule ladders cannot resolve w = 200, so a verdict may fail;
    # the run still ends in a judged report, never in a configuration error
    code = main([pipeline, "--config", str(fast_trig_path),
                 "--out", str(tmp_path), "--stable"])
    assert code in (0, 1)
    assert "error" not in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert report["verdicts"]
