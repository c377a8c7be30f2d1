import json

import numpy as np
import pytest

from gbass import cli, measures
from gbass.bass_solver import ConvergenceError


LOGNORMAL = {"family": "lognormal", "meanlog": -0.02, "varlog": 0.04, "grid_size": 41}


def write_config(tmp_path, **extra):
    """The two-point geometric step pair: delta_1 to (delta_0.5 + delta_1.5) / 2."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mu0": {"atoms": [1.0], "weights": [1.0]},
        "mu1": {"atoms": [0.5, 1.5], "weights": [0.5, 0.5]},
        **extra,
    }))
    return config


@pytest.mark.parametrize("exc, code, prefix", [
    (RuntimeError("boom"), 4, "internal error: RuntimeError: boom"),
    (FloatingPointError("boom"), 4, "internal error: FloatingPointError: boom"),
    (ConvergenceError("boom", 1.0, 1.0, 5), 3, "solver did not converge: boom"),
    (TypeError("boom"), 4, "internal error: TypeError: boom"),
    (AttributeError("boom"), 4, "internal error: AttributeError: boom"),
    (KeyError("boom"), 4, "internal error: KeyError: 'boom'"),
])
def test_solver_failures_map_to_exit_codes(tmp_path, monkeypatch, capsys, exc, code, prefix):
    config = write_config(tmp_path)

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "solve_geometric", fail)
    assert cli.run(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.startswith(prefix)


def test_output_under_a_regular_file_is_an_input_error(tmp_path, capsys):
    config = write_config(tmp_path)
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "sub"
    assert cli.run(["check", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and err.count("\n") == 1


def test_config_naming_a_directory_is_an_input_error(tmp_path, capsys):
    assert cli.run(["check", "--config", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and err.count("\n") == 1


def test_simulate_step_pair_with_both_engines(tmp_path):
    n_paths = 300
    config = write_config(tmp_path, simulation={
        "engines": ["weighted", "sde"], "n_steps": 20, "n_paths": n_paths, "seed": 3})
    out = tmp_path / "out"
    assert cli.run(["simulate", "--config", str(config), "--out", str(out)]) == 0
    for name in ("paths_weighted.csv", "paths_sde.csv"):
        assert len((out / name).read_text().splitlines()) == n_paths + 1
    report = json.loads((out / "report.json").read_text())
    assert report["stats"]["sde"]["clamp_count"] == 0
    # the last column before the weight is the terminal price
    terminal = np.loadtxt(out / "paths_sde.csv", delimiter=",", skiprows=1)[:, -2]
    assert np.all((terminal == 0.5) | (terminal == 1.5))


@pytest.mark.parametrize("index", [3, -1])
def test_sde_component_index_out_of_range_is_an_input_error(tmp_path, capsys, index):
    config = write_config(tmp_path, simulation={
        "engines": ["sde"], "n_steps": 5, "n_paths": 10, "component_index": index})
    assert cli.run(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: component_index") and err.count("\n") == 1


@pytest.mark.parametrize("scale", [1.0, 1e-8])
@pytest.mark.parametrize("mu1_atoms, refusal", [
    ([0.5, 1.5 + 1.5e-7], None),
    ([0.9, 1.3], "marginal means differ by {:.3e}"),
    ([4e-7, 2.0000006], "mean correction would break positive support"),
], ids=["small-gap", "large-gap", "negative-atom"])
def test_mean_gap_is_corrected_below_1e_6_of_the_mean(tmp_path, capsys, scale, mu1_atoms, refusal):
    # mu1's mean is 1 + 7.5e-8, 1.1 or 1 + 5e-7 times mu0's: the first is shifted
    # onto mu0's mean, the second refused naming the gap, and the third refused
    # as its shift would move the atom 4e-7 to -1e-7, at either price scale
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mu0": {"atoms": [scale], "weights": [1.0]},
        "mu1": {"atoms": [a * scale for a in mu1_atoms], "weights": [0.5, 0.5]}}))
    code = cli.run(["check", "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if refusal:
        assert code == 2 and err.startswith(f"invalid input: {refusal.format(-0.1 * scale)}")
    else:
        assert code == 0
        assert err == ""
        mu0, mu1 = cli.build_marginals(json.loads(config.read_text()), tmp_path)
        assert mu1.mean == pytest.approx(mu0.mean, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("where", ["option", "config"])
def test_seed_outside_uint64_is_an_input_error(tmp_path, capsys, seed, where):
    simulation = {"engines": ["weighted", "sde"], "n_steps": 5, "n_paths": 10}
    config = write_config(tmp_path, simulation={**simulation, "seed": seed} if where == "config"
                          else simulation)
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
    assert cli.run(argv + (["--seed", str(seed)] if where == "option" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: simulation key 'seed'") and err.count("\n") == 1
    assert "Traceback" not in err


REPORT_KEYS = {
    "check": ["command", "convex_order", "decomposition"],
    "transform": ["command", "m", "files"],
    "solve": ["command", "values", "residual_source", "residual_target"],
    "value": ["command", "values"],
    "flow": ["command", "files", "means"],
    "simulate": ["command", "seed", "files", "stats"],
}


def test_every_command_on_the_step_pair(tmp_path):
    config = write_config(tmp_path, simulation={
        "engines": ["weighted", "sde"], "n_steps": 5, "n_paths": 20, "seed": 1})
    reports = {}
    for command, keys in REPORT_KEYS.items():
        out = tmp_path / command
        assert cli.run([command, "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert list(report) == keys and report["command"] == command
        for name in report.get("files", []):
            assert (out / name).is_file()
        reports[command] = report
    assert reports["value"]["values"] == reports["solve"]["values"]


@pytest.mark.parametrize("command, config, out", [
    ("flow", {"flow_times": 5}, True),
    ("simulate", {"simulation": {"n_paths": None}}, True),
    ("simulate", {"simulation": 5}, True),
    ("value", {"sigma_bar": [1]}, True),
    ("solve", {"solver": {"max_iterations": "x"}}, True),
    ("check", [1, 2], True),
    ("check", [1, 2], False),
], ids=["flow_times", "n_paths", "simulation", "sigma_bar", "max_iterations", "list", "list-no-out"])
def test_malformed_config_is_an_input_error(tmp_path, capsys, command, config, out):
    if isinstance(config, dict):
        path = write_config(tmp_path, **config)
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
    argv = [command, "--config", str(path)]
    assert cli.run(argv + (["--out", str(tmp_path / "out")] if out else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command, config, key", [
    ("solve", {"solver": {"max_iterations": "x"}}, "max_iterations"),
    ("value", {"sigma_bar": [1]}, "sigma_bar"),
    ("value", {"Sigma_bar": "wide"}, "Sigma_bar"),
    ("simulate", {"simulation": {"n_paths": None}}, "n_paths"),
    ("simulate", {"simulation": {"engines": ["sde"], "component_index": "first"}},
     "component_index"),
    ("simulate", {"simulation": {"engines": ["bogus"]}}, "bogus"),
    ("simulate", {"simulation": 5}, "simulation"),
    ("flow", {"flow_times": 5}, "flow_times"),
    ("solve", {"output_dir": 5}, "output_dir"),
    ("solve", {"mu1": {**LOGNORMAL, "meanlog": "x"}}, "meanlog"),
    ("solve", {"mu1": {"family": "lognormal", "meanlog": 0.0}}, "varlog"),
    ("solve", {"mu1": {"family": "mixture", "components": 5}}, "components"),
    ("solve", {"mu1": {"family": "mixture", "components": [5]}}, "components"),
    ("solve", {"mu1": {"family": "mixture", "components": [{**LOGNORMAL, "weight": "w"}]}},
     "weight"),
    ("solve", {"mu1": {"atoms": {"a": 1}, "weights": [1.0]}}, "atoms"),
    ("solve", {"mu1": {"atoms": [1.0]}}, "weights"),
    ("solve", {"mu1": {"csv": 5}}, "csv"),
    ("solve", {"mu1": {"csv": "sample.csv", "bins": None}}, "bins"),
    ("solve", {"mu1": {**LOGNORMAL, "grid_size": 41.7}}, "grid_size"),
    ("solve", {"mu1": {"family": "two_point", "x1": 0.5, "x2": 1.5, "p1": [0.5]}}, "p1"),
    ("solve", {"solver": 5}, "solver"),
    ("simulate", {"simulation": {"n_paths": 2.7}}, "n_paths"),
    ("simulate", {"simulation": {"n_paths": True}}, "n_paths"),
    ("value", {"sigma_bar": True}, "sigma_bar"),
    ("solve", {"solver": {"step_tolerance": 0}}, "step_tolerance"),
    ("flow", {"flow_times": []}, "flow_times"),
    ("simulate", {"simulation": {"engines": []}}, "engines"),
    ("simulate", {"simulation": {"n_paths": 0}}, "n_paths"),
    ("simulate", {"simulation": {"n_steps": 0}}, "n_steps"),
    ("simulate", {"simulation": {"seed": -1}}, "seed"),
    # 0.5 and 0.5000001 both format as 0.5, so both would write flow_t0.5.csv
    ("flow", {"flow_times": [0.5, 0.5000001, 0.25]}, "flow_times"),
    ("simulate", {"simulation": {"engines": ["weighted", "weighted"]}}, "engines"),
    ("solve", {"mu1": {"family": "bogus"}}, "bogus"),
    # the message names the keys a spec needs, of which it has none
    ("solve", {"mu1": {"grid_size": 41}}, "atoms"),
], ids=["max_iterations", "sigma_bar", "Sigma_bar", "n_paths", "component_index", "engine",
        "simulation", "flow_times", "output_dir", "meanlog", "varlog-missing", "components",
        "component", "component-weight", "atoms", "weights-missing", "csv", "bins", "grid_size",
        "p1", "solver", "n_paths-float", "n_paths-bool", "sigma_bar-bool", "step_tolerance-zero",
        "flow_times-empty", "engines-empty", "n_paths-zero", "n_steps-zero", "seed-negative",
        "flow_times-repeated", "engines-repeated", "family-unknown", "spec-kind-missing"])
def test_malformed_value_is_named_before_any_solve(tmp_path, monkeypatch, capsys,
                                                   command, config, key):
    solves = []
    monkeypatch.setattr(cli, "solve_geometric", lambda *args: solves.append(args))
    path = write_config(tmp_path, **config)
    assert cli.run([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and f"'{key}'" in err and err.count("\n") == 1
    assert solves == []


@pytest.mark.parametrize("key", ["sigma_bar", "Sigma_bar"])
@pytest.mark.parametrize("level", [np.nan, np.inf, 0.0])
def test_value_refuses_a_reference_level_that_is_not_positive_and_finite(tmp_path, capsys,
                                                                          key, level):
    # json writes and reads NaN and Infinity as literals; report.json must not hold them
    out = tmp_path / "out"
    path = write_config(tmp_path, **{key: level})
    assert cli.run(["value", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: reference volatility levels must be positive")
    assert f"{key} = {level}" in err and "Traceback" not in err
    assert not (out / "report.json").exists()


# one valid config per marginal spec kind; each target has the source's unit mean
SAMPLE = [0.4, 0.7, 0.9, 1.0, 1.1, 1.3, 1.6]
SPEC_KINDS = {
    "atoms": {"atoms": [0.5, 1.5], "weights": [0.5, 0.5]},
    "lognormal": LOGNORMAL,
    "uniform": {"family": "uniform", "a": 0.5, "b": 1.5, "grid_size": 21},
    "mixture": {"family": "mixture", "grid_size": 61, "components": [
        {"family": "lognormal", "meanlog": -0.02, "varlog": 0.04},
        {"family": "lognormal", "meanlog": -0.08, "varlog": 0.16, "weight": 2}]},
    "two_point": {"family": "two_point", "x1": 0.5, "x2": 2.0, "p1": 2 / 3},
    "csv": {"csv": "sample.csv", "bins": 3},
}


@pytest.mark.parametrize("kind", SPEC_KINDS)
def test_check_accepts_every_marginal_spec_kind(tmp_path, capsys, kind):
    (tmp_path / "sample.csv").write_text("\n".join(map(str, SAMPLE)) + "\n")
    path = write_config(tmp_path, mu1=SPEC_KINDS[kind])
    out = tmp_path / "out"
    assert cli.run(["check", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text())
    assert report["convex_order"]["in_convex_order"]


@pytest.mark.parametrize("config, code", [({}, 0), ({"mu1": {"csv": 5}}, 2)],
                         ids=["step-pair", "malformed"])
def test_main_exits_with_the_code_of_run(tmp_path, monkeypatch, capsys, config, code):
    path = write_config(tmp_path, **config)
    monkeypatch.setattr("sys.argv", ["gbass", "check", "--config", str(path),
                                     "--out", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as exit_info:
        cli.main()
    assert exit_info.value.code == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("mu1, message", [
    ({"family": "uniform", "a": 0.0, "b": np.inf}, "uniform b must be finite"),
    ({"family": "mixture", "components": [{**LOGNORMAL, "weight": np.nan}, LOGNORMAL]},
     "mixture weight 0 must be finite"),
], ids=["uniform-b", "mixture-weight"])
def test_check_refuses_a_non_finite_family_parameter_by_name(tmp_path, capsys, mu1, message):
    # json writes and reads NaN and Infinity as literals; no RuntimeWarning may come first
    path = write_config(tmp_path, mu1=mu1)
    assert cli.run(["check", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"invalid input: {message}, got {mu1.get('b', np.nan)}\n"


def test_check_builds_the_potential_gap_once(tmp_path, monkeypatch):
    # the two-component pair: the report and the decomposition read one gap,
    # one potential per side, where check_convex_order then
    # irreducible_components would take two each
    calls = []
    potential = measures.potential
    monkeypatch.setattr(measures, "potential", lambda mu, z: calls.append(mu) or potential(mu, z))
    path = write_config(tmp_path, mu0={"atoms": [1.0, 3.0], "weights": [0.5, 0.5]},
                        mu1={"atoms": [0.8, 1.2, 2.7, 3.3], "weights": [0.25] * 4})
    out = tmp_path / "out"
    assert cli.run(["check", "--config", str(path), "--out", str(out)]) == 0
    assert len(calls) == 2
    report = json.loads((out / "report.json").read_text())
    assert [c["interval"] for c in report["decomposition"]["components"]] == [[0.8, 1.2],
                                                                             [2.7, 3.3]]


def test_check_reports_a_pair_out_of_convex_order(tmp_path, capsys):
    # equal means, but the target {1} is less spread than the source {0.5, 1.5}
    path = write_config(tmp_path, mu0={"atoms": [0.5, 1.5], "weights": [0.5, 0.5]},
                        mu1={"atoms": [1.0], "weights": [1.0]})
    out = tmp_path / "out"
    assert cli.run(["check", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "convex order violated\n"
    report = json.loads((out / "report.json").read_text())
    assert report["convex_order"]["equal_means"] and not report["convex_order"]["in_convex_order"]
    assert "decomposition" not in report


def test_flow_refuses_a_time_outside_the_unit_interval_before_any_solve(tmp_path, monkeypatch,
                                                                         capsys):
    solved = []
    monkeypatch.setattr(cli, "solve_geometric", lambda *args: solved.append(args))
    path = write_config(tmp_path, flow_times=[0.5, 1.5])
    assert cli.run(["flow", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "invalid input: flow time 1.5 outside [0, 1]\n"
    assert not solved
