import json

import pytest

from gbass import cli
from gbass.bass_solver import ConvergenceError


def write_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mu0": {"atoms": [1.0], "weights": [1.0]},
        "mu1": {"atoms": [0.5, 1.5], "weights": [0.5, 0.5]},
    }))
    return config


@pytest.mark.parametrize("exc, code, prefix", [
    (RuntimeError("boom"), 4, "internal error: boom"),
    (FloatingPointError("boom"), 4, "internal error: boom"),
    (ConvergenceError("boom", 1.0, 1.0, 5), 3, "solver did not converge: boom"),
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
