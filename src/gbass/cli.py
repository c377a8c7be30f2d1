"""Command-line pipelines: check, transform, solve, flow, simulate, value.

Configs are JSON; marginals may be inline atom lists, parametric families
discretized on construction, or CSV samples. All outputs are deterministic
given the config. Every config value is read by ``_config_value`` before any
solve: a float is any number, an int an integer or an integral float, a bool
neither, a list not empty, and a missing or mistyped value is refused naming
its key, as are simulation steps, paths and seed out of range, and flow times
or engines that would write one output file twice.

Every command is a handler ``(config, base_dir, out, seed) -> (payload,
exit_code)`` that writes its data files under ``out``; ``run`` writes the
payload once as ``out/report.json`` after the command's name. Exit codes: 0
ok, 2 invalid input or file error, 3 no convergence, 4 internal error, whose
line names the exception's type.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from .bass_solver import ConvergenceError, SolverParams, _config_value
from .discretize import Lognormal, Mixture, Uniform, discretize_family, discretize_samples
from .duality_values import make_value_report
from .geometric_bridge import GeometricSolution, marginal_flow, solve_geometric, to_arithmetic
from .measures import GridMeasure, _decompose, _potential_gap, make_grid_measure
from .simulate import (_write_csv, _check_simulation, ensemble_stats, export_paths_csv,
                       simulate_geometric_sde, simulate_geometric_weighted)


def _build_family(spec: dict, name: str):
    read = partial(_config_value, spec, name=name)
    family = read("family", ..., str)
    if family == "lognormal":
        return Lognormal(read("meanlog", ..., float), read("varlog", ..., float))
    if family == "uniform":
        return Uniform(read("a", ..., float), read("b", ..., float))
    if family == "mixture":
        parts = read("components", ..., [dict])
        weights = [_config_value(p, "weight", 1.0, float, f"{name} component") for p in parts]
        return Mixture([_build_family(p, f"{name} component") for p in parts], weights)
    raise ValueError(f"unknown family {family!r}")


def build_marginal(config: dict, key: str, base_dir: Path) -> GridMeasure:
    """The marginal under config[key]: inline atoms, a CSV sample or a family."""
    spec = _config_value(config, key, ..., dict)
    read = partial(_config_value, spec, name=key)
    if "atoms" in spec:
        return make_grid_measure(read("atoms", ..., [float]), read("weights", ..., [float]))
    if "csv" in spec:
        path = base_dir / read("csv", ..., str)
        bins = read("bins", 101, int)
        return discretize_samples(np.loadtxt(path, delimiter=",", ndmin=1), bins)
    if "family" not in spec:
        raise ValueError("marginal spec needs 'atoms', 'family' or 'csv'")
    if read("family", ..., str) == "two_point":
        p1 = read("p1", ..., float)
        return make_grid_measure([read("x1", ..., float), read("x2", ..., float)], [p1, 1.0 - p1])
    family = _build_family(spec, key)
    return discretize_family(family, read("grid_size", 1001, int), read("truncation", 1e-6, float))


def load_config(path: Path) -> dict:
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    return config


def build_marginals(config: dict, base_dir: Path) -> tuple[GridMeasure, GridMeasure]:
    mu0 = build_marginal(config, "mu0", base_dir)
    mu1 = build_marginal(config, "mu1", base_dir)
    gap = mu0.mean - mu1.mean
    if gap != 0.0:
        if abs(gap) >= 1e-6 * abs(mu0.mean):
            raise ValueError(f"marginal means differ by {gap:.3e}; "
                             "refusing to correct more than 1e-6 of the mean")
        shifted = mu1.atoms + gap
        if np.any(shifted <= 0):
            raise ValueError("mean correction would break positive support")
        mu1 = make_grid_measure(shifted, mu1.weights)
    return mu0, mu1


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _solution_payload(gsol: GeometricSolution) -> dict:
    decomp = gsol.arithmetic.decomposition
    components = []
    for comp, csol in zip(decomp.components, gsol.arithmetic.component_solutions):
        lo, hi = comp.interval
        components.append({
            "interval": [lo, hi],
            "geometric_interval": [gsol.m / hi, gsol.m / lo],
            "mass": comp.mass,
            "alpha": csol.alpha.to_dict(),
            "source": csol.source.to_dict(),
            "target": csol.target.to_dict(),
            "residual_source": csol.residual_source,
            "residual_target": csol.residual_target,
            "iterations": csol.iterations,
        })
    identity = decomp.identity_restriction
    return {
        "m": gsol.m,
        "identity_set_mass": decomp.identity_set_mass,
        "identity_restriction": identity.to_dict() if identity is not None else None,
        "components": components,
    }


def _solve_from_config(config: dict, base_dir: Path) -> GeometricSolution:
    mu0, mu1 = build_marginals(config, base_dir)
    params = SolverParams.from_dict(_config_value(config, "solver", {}, dict))
    return solve_geometric(mu0, mu1, params)


def _solve_and_values(config: dict, base_dir: Path) -> tuple[GeometricSolution, dict]:
    """Solve the configured pair; return it with the report's "values" entry."""
    sigma_bar = _config_value(config, "sigma_bar", 1.0, float)
    Sigma_bar = _config_value(config, "Sigma_bar", 1.0, float)
    gsol = _solve_from_config(config, base_dir)
    return gsol, {"values": make_value_report(gsol, sigma_bar, Sigma_bar).to_dict()}


def _cmd_check(config: dict, base_dir: Path, out: Path, seed: int | None) -> tuple[dict, int]:
    mu0, mu1 = build_marginals(config, base_dir)
    report, *gap = _potential_gap(mu0, mu1)  # the report and the decomposition read one gap
    payload = {"convex_order": asdict(report)}
    if not report.in_convex_order:
        print("convex order violated", file=sys.stderr)
        return payload, 2
    decomp = _decompose(mu0, mu1, report, *gap)
    payload["decomposition"] = {
        "identity_set_mass": decomp.identity_set_mass,
        "components": [{"interval": list(c.interval), "mass": c.mass}
                       for c in decomp.components],
    }
    return payload, 0


def _cmd_transform(config: dict, base_dir: Path, out: Path, seed: int | None) -> tuple[dict, int]:
    mu0, mu1 = build_marginals(config, base_dir)
    nu0, nu1, m = to_arithmetic(mu0, mu1)
    _write_json(out / "nu0.json", nu0.to_dict())
    _write_json(out / "nu1.json", nu1.to_dict())
    return {"m": m, "files": ["nu0.json", "nu1.json"]}, 0


def _cmd_solve(config: dict, base_dir: Path, out: Path, seed: int | None) -> tuple[dict, int]:
    gsol, payload = _solve_and_values(config, base_dir)
    _write_json(out / "solution.json", _solution_payload(gsol))
    payload["residual_source"] = gsol.arithmetic.residual_source
    payload["residual_target"] = gsol.arithmetic.residual_target
    return payload, 0


def _cmd_value(config: dict, base_dir: Path, out: Path, seed: int | None) -> tuple[dict, int]:
    return _solve_and_values(config, base_dir)[1], 0


def _cmd_flow(config: dict, base_dir: Path, out: Path, seed: int | None) -> tuple[dict, int]:
    times = _config_value(config, "flow_times", [0.0, 0.5, 1.0], [float])
    labels = {}  # a time's file and mean are named by its label
    for t in times:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"flow time {t} outside [0, 1]")
        if (label := f"{t:g}") in labels:
            raise ValueError(f"config key 'flow_times' repeats {label}: {labels[label]} and {t}")
        labels[label] = t
    gsol = _solve_from_config(config, base_dir)
    files, means = [], {}
    for label, t in labels.items():
        mu_t = marginal_flow(gsol, t)
        name = f"flow_t{label}.csv"
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / name, "atom,weight", mu_t.atoms[:, None], mu_t.weights[:, None])
        files.append(name)
        means[label] = mu_t.mean
    return {"files": files, "means": means}, 0


def _cmd_simulate(config: dict, base_dir: Path, out: Path, seed: int | None) -> tuple[dict, int]:
    sim = _config_value(config, "simulation", {}, dict)
    read = partial(_config_value, sim, name="simulation")
    engines = read("engines", ["weighted"], [str])
    for i, engine in enumerate(engines):
        if engine not in ("weighted", "sde"):
            raise ValueError(f"unknown engine {engine!r}; use 'weighted' or 'sde'")
        if engine in engines[:i]:
            raise ValueError(f"simulation key 'engines' repeats {engine!r}")
    n_steps = read("n_steps", 200, int)
    n_paths = read("n_paths", 10000, int)
    seed = seed if seed is not None else read("seed", 0, int)
    idx = read("component_index", 0, int) if "sde" in engines else 0
    _check_simulation(n_steps, n_paths, seed)
    gsol = _solve_from_config(config, base_dir)
    payload: dict = {"seed": seed, "files": [], "stats": {}}
    refs = (gsol.mu0, gsol.mu1)
    out.mkdir(parents=True, exist_ok=True)
    for engine in engines:
        if engine == "weighted":
            ens = simulate_geometric_weighted(gsol, n_steps, n_paths, seed)
        else:
            ens = simulate_geometric_sde(gsol, idx, n_steps, n_paths, seed)
        name = f"paths_{engine}.csv"
        export_paths_csv(ens, out / name)
        payload["files"].append(name)
        payload["stats"][engine] = ensemble_stats(ens, refs).to_dict()
    return payload, 0


_COMMANDS = {
    "check": _cmd_check,
    "transform": _cmd_transform,
    "solve": _cmd_solve,
    "flow": _cmd_flow,
    "simulate": _cmd_simulate,
    "value": _cmd_value,
}


def run(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="gbass",
        description="Geometric Bass martingales between prescribed marginals")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON problem config")
    parser.add_argument("--out", default=None, help="output directory (default: config's output_dir or '.')")
    parser.add_argument("--seed", type=int, default=None, help="override the simulation seed")
    args = parser.parse_args(argv)

    try:
        config_path = Path(args.config)
        config = load_config(config_path)
        out_dir = Path(_config_value(config, "output_dir", ".", str))
        out = Path(args.out) if args.out else out_dir
        payload, code = _COMMANDS[args.command](config, config_path.parent, out, args.seed)
        _write_json(out / "report.json", {"command": args.command, **payload})
        return code
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
