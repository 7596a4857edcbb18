import json
import math
from dataclasses import replace

import numpy as np
import pytest

from kirchheat import (
    ConfigError,
    EnergyRecord,
    build_scenario,
    config_from_dict,
    convergence_study,
    load_config,
    profile_coefficients,
    run_scenario,
    sweep,
    uniqueness_probe,
    verify_suite,
)
from kirchheat.cli import main
from kirchheat.runner import CSV_COLUMNS, InitialProfile, csv_text, format_float

from conftest import CONFIG_DIR


def small_dict(**overrides):
    d = {
        "spec_version": 1,
        "domain": {"kind": "interval", "length": math.pi},
        "n_modes": 4,
        "params": {"m0": 1.0, "m1": 0.5, "alpha": 1.0, "beta": 1.0},
        "initial": {
            "y0": {"kind": "sine_mode", "mode": 1, "amplitude": 0.3},
            "y1": {"kind": "zero"},
            "theta0": {"kind": "sine_mode", "mode": 2, "amplitude": 0.1},
        },
        "stepper": {"dt": 1e-3},
        "t_end": 1.0,
        "record_every": 5,
        "output": {"prefix": "small"},
    }
    d.update(overrides)
    return d


@pytest.fixture()
def small_config():
    return config_from_dict(small_dict(), source="<test>")


def test_load_config_round_trip(default_config):
    cfg = default_config
    assert cfg.n_modes == 16
    assert cfg.params.m1 == 0.5
    assert cfg.t_end == 20.0
    assert cfg.y0.kind == "sine_mode" and cfg.y0.amplitude == 0.4
    assert cfg.dt == 1e-3 and cfg.method == "implicit_midpoint"


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("domain"), "domain"),
        (lambda d: d["params"].update(beta=-1.0), "same sign"),
        (lambda d: d["domain"].update(kind="disk"), "domain.kind"),
        (lambda d: d["initial"].update(
            y0={"kind": "coefficients", "coefficients": [1.0] * 9}), "coefficients"),
        (lambda d: d["initial"].update(
            theta0={"kind": "sine_mode", "mode": 99}), "exceeds n_modes"),
        (lambda d: d.update(spec_version=7), "spec_version"),
        (lambda d: d.update(record_every=0), "record_every"),
        (lambda d: d["initial"].update(y0={"kind": "wavelet"}), "kind"),
        (lambda d: d.update(t_end=math.inf), "t_end"),
        (lambda d: d["params"].update(m1=math.inf), "params.m1"),
        (lambda d: d.update(n_modes=True), "n_modes: expected int, got bool"),
    ],
)
def test_config_errors_name_the_field(mutate, fragment):
    d = small_dict()
    mutate(d)
    with pytest.raises(ConfigError) as err:
        config_from_dict(d, source="bad.json")
    assert fragment in str(err.value)
    assert err.value.path  # field path is part of the exception contract


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(garbled)


def test_profile_coefficients_placement(small_config):
    basis, state0, _ = build_scenario(small_config)
    np.testing.assert_array_equal(state0.h, [0.3, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(state0.v, np.zeros(4))
    np.testing.assert_array_equal(state0.c, [0.0, 0.1, 0.0, 0.0])


def test_profile_coefficients_padding_and_zero(small_config):
    basis, _, _ = build_scenario(small_config)
    coeffs = profile_coefficients(
        basis, InitialProfile(kind="coefficients", coefficients=(0.5, -0.25)))
    np.testing.assert_array_equal(coeffs, [0.5, -0.25, 0.0, 0.0])
    np.testing.assert_array_equal(
        profile_coefficients(basis, InitialProfile(kind="zero")), np.zeros(4))


def test_bump_profile_matches_dense_quadrature(small_config):
    basis, _, _ = build_scenario(small_config)
    coeffs = profile_coefficients(
        basis, InitialProfile(kind="bump", amplitude=0.7))
    x, w = np.polynomial.legendre.leggauss(400)
    x = 0.5 * math.pi * (x + 1.0)
    w = 0.5 * math.pi * w
    u = x / math.pi
    bump = 0.7 * 16.0 * u ** 2 * (1.0 - u) ** 2
    for k in range(4):
        phi = math.sqrt(2.0 / math.pi) * np.sin((k + 1) * x)
        assert coeffs[k] == pytest.approx(float(w @ (bump * phi)), abs=1e-12)


def test_zero_data_csv_is_exactly_zero(tmp_path):
    cfg = config_from_dict(
        small_dict(initial={"y0": {"kind": "zero"}}, t_end=0.5), source="<test>")
    result = run_scenario(cfg, outdir=tmp_path)
    lines = result.csv_path.read_text().strip().splitlines()
    for line in lines[1:]:
        fields = line.split(",")
        assert all(f == "0" for f in fields[1:])  # every column except t


def test_csv_contract(tmp_path, small_config):
    result = run_scenario(small_config, outdir=tmp_path)
    text = result.csv_path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    # row count: initial record + every 5th of 1000 steps (endpoint on grid)
    assert len(lines) - 1 == 1 + 1000 // 5
    # %.17g must round-trip to the exact binary values
    recs = result.trajectory.records
    table = np.array([[float(f) for f in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(table[:, 0], recs.t)
    np.testing.assert_array_equal(table[:, 1], recs.E)
    np.testing.assert_array_equal(table[:, 8], recs.S)


def test_format_float_round_trip():
    for x in [0.0, 1.0, math.pi, 1e-17, -2.5e300, 1 / 3]:
        assert float(format_float(x)) == x


def test_csv_text_matches_format_float():
    """The table-wide format string writes every value as format_float does,
    including signed zeros, NaN, infinities and subnormals."""
    special = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               1e-310, 2.2250738585072014e-308, 1.7976931348623157e308, 1 / 3, 1e16]
    rng = np.random.default_rng(5)
    for rows in (0, 1, 40):
        cols = {c: rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
                for c in CSV_COLUMNS}
        if rows == 40:
            for i, c in enumerate(CSV_COLUMNS):
                cols[c][:len(special)] = np.roll(special, i)
        records = EnergyRecord(**cols)
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(format_float(cols[c][r]) for c in CSV_COLUMNS) for r in range(rows)]
        assert csv_text(records) == "\n".join(lines) + "\n"


def test_run_determinism(tmp_path, small_config):
    a = run_scenario(small_config, outdir=tmp_path / "a")
    b = run_scenario(small_config, outdir=tmp_path / "b")
    assert a.csv_path.read_bytes() == b.csv_path.read_bytes()
    ja = json.loads(a.json_path.read_text())
    jb = json.loads(b.json_path.read_text())
    assert ja == jb
    assert ja["first_apriori"]["holds"] is True
    assert ja["energy_monotone"] is True


def test_outdir_env_var(tmp_path, monkeypatch, small_config):
    monkeypatch.setenv("KIRCHHEAT_OUTDIR", str(tmp_path / "env_out"))
    result = run_scenario(small_config)
    assert result.csv_path.parent == tmp_path / "env_out"
    # explicit argument still wins over the environment
    result2 = run_scenario(small_config, outdir=tmp_path / "arg_out")
    assert result2.csv_path.parent == tmp_path / "arg_out"


def test_convergence_study_validates_mode_counts(small_config):
    with pytest.raises(ValueError):
        convergence_study(small_config, [8, 8])
    with pytest.raises(ValueError):
        convergence_study(small_config, [16, 8])


def test_convergence_study_exact_for_resolved_data(small_config):
    # single-mode linear data is exactly representable at every resolution
    cfg = replace(small_config, params=replace(small_config.params, m1=0.0),
                  theta0=InitialProfile(kind="zero"), t_end=0.5)
    rows = convergence_study(cfg, [2, 4, 8])
    assert [(r.n_coarse, r.n_fine) for r in rows] == [(2, 4), (4, 8)]
    for row in rows:
        assert row.max_energy_diff <= 1e-13
        assert row.terminal_state_diff <= 1e-13


def test_convergence_study_decreases_for_bump_data():
    cfg = load_config(CONFIG_DIR / "bump_convergence.json")
    cfg = replace(cfg, t_end=1.0)
    rows = convergence_study(cfg, [4, 8, 16])
    assert rows[1].max_energy_diff < rows[0].max_energy_diff


def test_uniqueness_probe_zero_eps_bitwise(small_config):
    report = uniqueness_probe(small_config, 0.0)
    assert report.bitwise_identical
    assert report.max_diff_norm == 0.0
    assert report.ratio == 0.0


def test_uniqueness_probe_scales_linearly(small_config):
    r1 = uniqueness_probe(small_config, 1e-5)
    r2 = uniqueness_probe(small_config, 1e-6)
    assert not r1.bitwise_identical
    assert r1.ratio == pytest.approx(r2.ratio, rel=0.05)


def test_uniqueness_probe_survives_large_perturbation(small_config):
    report = uniqueness_probe(small_config, 10.0)
    assert math.isfinite(report.max_diff_norm)
    assert report.horizon_breach in (True, False)


def test_sweep_single_cell_matches_run(small_config):
    rows, scale_rows = sweep(small_config, {"m1": [0.5]}, sigmas=[1.0])
    assert len(rows) == 1 and rows[0].error == ""
    direct = run_scenario(small_config, write_files=False)
    assert rows[0].omega == pytest.approx(
        direct.diagnostics["decay_fit"]["omega"], rel=1e-9)
    assert len(scale_rows) == 1


def test_sweep_linear_case_scale_invariant(small_config):
    cfg = replace(small_config, params=replace(small_config.params, m1=0.0))
    _, scale_rows = sweep(cfg, {"m1": [0.0]}, sigmas=[0.1, 0.01])
    omegas = [r.omega for r in scale_rows]
    assert omegas[0] == pytest.approx(omegas[1], abs=1e-9)


def test_sweep_isolates_failed_cells(small_config):
    rows, _ = sweep(small_config, {"alpha": [-1.0, 1.0]}, sigmas=[1.0])
    assert len(rows) == 2
    bad = [r for r in rows if r.point["alpha"] == -1.0][0]
    good = [r for r in rows if r.point["alpha"] == 1.0][0]
    assert bad.error != ""
    assert good.error == "" and good.omega > 0.0


def test_sweep_names_non_finite_grid_value(small_config):
    rows, _ = sweep(small_config, {"m1": [math.inf]})
    assert rows[0].error.startswith("ValueError: m1 must be finite"), rows[0].error


def test_sweep_rejects_unknown_axis(small_config):
    with pytest.raises(ValueError, match="axis"):
        sweep(small_config, {"gamma": [1.0]})
    with pytest.raises(ValueError):
        sweep(small_config, {})


def lin_dict():
    # long enough for a clean decay fit, cheap because it is single mode
    return {
        "spec_version": 1,
        "domain": {"kind": "interval", "length": math.pi},
        "n_modes": 1,
        "params": {"m0": 1.0, "m1": 0.0, "alpha": 1.0, "beta": 1.0},
        "initial": {"y0": {"kind": "sine_mode", "mode": 1, "amplitude": 1.0}},
        "stepper": {"dt": 2e-3},
        "t_end": 20.0,
        "record_every": 5,
        "output": {"prefix": "lin"},
    }


def test_verify_suite_passes(small_config):
    checks = verify_suite(config_from_dict(lin_dict(), source="<test>"))
    assert len(checks) == 10
    failed = [c for c in checks if not c.passed]
    assert failed == [], [f"{c.name}: {c.detail}" for c in failed]


def test_verify_suite_reports_every_check_on_coupled_bump():
    """alpha = beta = 2 with a bump velocity excites every odd mode; the
    RK4 cross-check must stay inside its stability region and report."""
    cfg = config_from_dict(small_dict(
        n_modes=16, params={"m0": 1.0, "m1": 0.5, "alpha": 2.0, "beta": 2.0},
        initial={"y0": {"kind": "sine_mode", "mode": 1, "amplitude": 0.3},
                 "y1": {"kind": "bump", "amplitude": 0.3}},
        stepper={"dt": 0.01}, t_end=5.0), source="<test>")
    checks = verify_suite(cfg)
    assert len(checks) == 10
    cross = [c for c in checks if c.name == "cross_integrator"][0]
    assert cross.passed, cross.detail


def write_config(tmp_path, **overrides):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(small_dict(**overrides)))
    return p


def test_cli_simulate_ok(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["simulate", str(cfg), "--outdir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "small_trajectory.csv").exists()
    assert (tmp_path / "out" / "small_diagnostics.json").exists()


def test_cli_bad_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({k: v for k, v in small_dict().items() if k != "params"}))
    assert main(["simulate", str(p)]) == 2
    assert "params" in capsys.readouterr().err


def test_cli_infinite_t_end_exits_2(tmp_path, capsys):
    # inf is serialized as JSON Infinity; 1e15 is finite but its records
    # would not fit in memory
    for t_end in (math.inf, 1e15):
        cfg = write_config(tmp_path, t_end=t_end)
        assert main(["simulate", str(cfg), "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "t_end" in err and "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("eps,code", [("nan", 2), ("inf", 2), ("1e308", 3)])
def test_cli_probe_eps_errors_print_one_line(tmp_path, capsys, eps, code):
    """A non-finite --eps is a config error; a finite one so large that the
    perturbed run overflows is a numeric fault, printed without warnings."""
    cfg = write_config(tmp_path)
    assert main(["probe-uniqueness", str(cfg), "--eps", eps,
                 "--outdir", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    if code == 2:
        assert err.startswith("config error: --eps: epsilon must be finite"), err


def test_step_budget_is_a_t_end_error():
    # sparse records pass the records limit, but 1e15 steps at dt = 1e-3
    # would run without bound
    cfg = config_from_dict(small_dict(t_end=1e12, record_every=10**12), source="<test>")
    with pytest.raises(ConfigError, match="steps") as err:
        build_scenario(cfg)
    assert err.value.path == "t_end"


def test_cli_divergence_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path, t_end=5.0,
        stepper={"dt": 0.5, "newton_max_iter": 1, "newton_tol": 1e-15},
        initial={"y0": {"kind": "sine_mode", "mode": 4, "amplitude": 5.0}})
    assert main(["simulate", str(cfg), "--outdir", str(tmp_path / "out")]) == 3
    assert "diverge" in capsys.readouterr().err.lower()


def test_cli_divergence_prints_residual_once(tmp_path, capsys):
    """configs/default.json at y0 amplitude 1e150: phi swings between m0
    and about 5e299, and the message names the time and residual once."""
    tree = json.loads((CONFIG_DIR / "default.json").read_text())
    tree["initial"]["y0"]["amplitude"] = 1e150
    tree["t_end"] = 0.01
    tree["stepper"]["newton_max_iter"] = 5
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(tree))
    assert main(["simulate", str(cfg), "--outdir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.count("residual") == 1 and err.count("t=0") == 1, err


def test_cli_converge_writes_table(tmp_path, capsys):
    cfg = write_config(tmp_path, t_end=0.5)
    code = main(["converge", str(cfg), "--modes", "2,4,8",
                 "--outdir", str(tmp_path / "out")])
    assert code == 0
    table = (tmp_path / "out" / "small_convergence.csv").read_text().splitlines()
    assert len(table) == 3  # header + two refinement rows


def test_cli_converge_rejects_bad_modes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["converge", str(cfg), "--modes", "8,oops"]) == 2


def test_cli_probe_uniqueness_writes_json(tmp_path, capsys):
    cfg = write_config(tmp_path, t_end=0.5)
    code = main(["probe-uniqueness", str(cfg), "--eps", "1e-5",
                 "--outdir", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "small_uniqueness.json").read_text())
    assert report["epsilon"] == 1e-5
    assert report["bitwise_identical"] is False


def test_cli_sweep_writes_tables(tmp_path, capsys):
    cfg = write_config(tmp_path, t_end=0.5)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"m1": [0.0, 0.5], "sigmas": [1.0, 0.1]}))
    code = main(["sweep", str(cfg), str(grid), "--outdir", str(tmp_path / "out")])
    assert code == 0
    sweep_lines = (tmp_path / "out" / "small_sweep.csv").read_text().splitlines()
    assert len(sweep_lines) == 3  # header + one row per grid point
    scale_lines = (tmp_path / "out" / "small_scale.csv").read_text().splitlines()
    assert len(scale_lines) == 3  # header + one row per sigma


def test_cli_verify_prints_line_per_check(tmp_path, capsys):
    cfg = tmp_path / "lin.json"
    cfg.write_text(json.dumps(lin_dict()))
    code = main(["verify", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 10
    assert "10/10 checks passed" in out


def test_csv_text_is_pure(small_config):
    result = run_scenario(small_config, write_files=False)
    assert result.csv_path is None and result.json_path is None
    text = csv_text(result.trajectory.records)
    assert text.startswith(",".join(CSV_COLUMNS))
    assert text == csv_text(result.trajectory.records)


def test_solver_telemetry_moment_settled_steps(default_config):
    """The four moments settle phi in every step of the default config,
    with no fixed-point evaluation, and diagnostics.json carries the counts
    and the histogram."""
    result = run_scenario(replace(default_config, t_end=1.0), write_files=False)
    solver = result.diagnostics["solver"]
    assert solver == {"steps": 1000, "iterations": 0, "max_iterations": 0,
                      "max_residual": solver["max_residual"],
                      "last_step_shortened": False, "histogram": (1000,)}
    assert 0.0 <= solver["max_residual"] <= 1e-12 * 2.0  # tol * max(1, phi), phi < 2
    assert solver["steps"] == result.diagnostics["n_steps"]


@pytest.mark.parametrize("length,why", [(1e200, "quadrature panels"),
                                        (1e-200, "beyond float range")])
def test_extreme_domain_length_is_a_domain_error(tmp_path, capsys, length, why):
    cfg = config_from_dict(small_dict(domain={"kind": "interval", "length": length}),
                           source="<test>")
    with pytest.raises(ConfigError, match=why) as err:
        build_scenario(cfg)
    assert err.value.path == "domain"
    path = write_config(tmp_path, domain={"kind": "interval", "length": length})
    assert main(["simulate", str(path), "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "domain" in err and "Traceback" not in err
