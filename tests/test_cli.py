import json

import pytest

from gbass import cli
from gbass.bass_solver import ConvergenceError


@pytest.mark.parametrize("exc, code, prefix", [
    (RuntimeError("boom"), 4, "internal error: boom"),
    (FloatingPointError("boom"), 4, "internal error: boom"),
    (ConvergenceError("boom", 1.0, 1.0, 5), 3, "solver did not converge: boom"),
])
def test_solver_failures_map_to_exit_codes(tmp_path, monkeypatch, capsys, exc, code, prefix):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mu0": {"atoms": [1.0], "weights": [1.0]},
        "mu1": {"atoms": [0.5, 1.5], "weights": [0.5, 0.5]},
    }))

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "solve_geometric", fail)
    assert cli.run(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.startswith(prefix)
