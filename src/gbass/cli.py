"""Command-line pipelines: check, transform, solve, flow, simulate, value.

Configs are JSON; marginals may be inline atom lists, parametric families
discretized on construction, or CSV samples. All outputs are deterministic
given the config.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bass_solver import ConvergenceError, SolverParams
from .discretize import Lognormal, Mixture, Uniform, discretize_family, discretize_samples
from .duality_values import make_value_report
from .geometric_bridge import GeometricSolution, marginal_flow, solve_geometric, to_arithmetic
from .measures import (
    GridMeasure,
    MeasureError,
    check_convex_order,
    irreducible_components,
    make_grid_measure,
    reflect_measure,
    wasserstein1,
)
from .simulate import _write_csv, ensemble_stats, export_paths_csv, simulate_geometric_sde, \
    simulate_geometric_weighted


class ConfigError(ValueError):
    pass


def _build_family(spec: dict):
    name = spec.get("family")
    if name == "lognormal":
        return Lognormal(spec["meanlog"], spec["varlog"])
    if name == "uniform":
        return Uniform(spec["a"], spec["b"])
    if name == "mixture":
        parts = [_build_family(p) for p in spec["components"]]
        weights = [p.get("weight", 1.0) for p in spec["components"]]
        return Mixture(parts, weights)
    raise ConfigError(f"unknown family {name!r}")


def build_marginal(spec: dict, base_dir: Path) -> GridMeasure:
    if not isinstance(spec, dict):
        raise ConfigError("marginal spec must be a JSON object")
    if "atoms" in spec:
        return make_grid_measure(spec["atoms"], spec["weights"])
    if "csv" in spec:
        path = Path(spec["csv"])
        if not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise ConfigError(f"sample file does not exist: {path}")
        samples = np.loadtxt(path, delimiter=",", ndmin=1)
        return discretize_samples(samples, int(spec.get("bins", 101)))
    if "family" in spec:
        if spec.get("family") == "two_point":
            p1 = float(spec["p1"])
            return make_grid_measure([spec["x1"], spec["x2"]], [p1, 1.0 - p1])
        family = _build_family(spec)
        return discretize_family(family, int(spec.get("grid_size", 1001)),
                                 float(spec.get("truncation", 1e-6)))
    raise ConfigError("marginal spec needs 'atoms', 'family' or 'csv'")


def load_config(path: Path) -> dict:
    if not path.exists():
        raise ConfigError(f"config file does not exist: {path}")
    with open(path) as fh:
        return json.load(fh)


def build_marginals(config: dict, base_dir: Path) -> tuple[GridMeasure, GridMeasure]:
    try:
        mu0 = build_marginal(config["mu0"], base_dir)
        mu1 = build_marginal(config["mu1"], base_dir)
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc}") from exc
    gap = mu0.mean - mu1.mean
    if gap != 0.0:
        if abs(gap) >= 1e-6:
            raise ConfigError(
                f"marginal means differ by {gap:.3e}; refusing to correct more than 1e-6")
        shifted = mu1.atoms + gap
        if np.any(shifted <= 0):
            raise ConfigError("mean correction would break positive support")
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
    for comp, csol, (interval, image) in zip(decomp.components,
                                             gsol.arithmetic.component_solutions,
                                             gsol.component_map):
        components.append({
            "interval": list(interval),
            "geometric_interval": list(image),
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
    params = SolverParams.from_dict(config.get("solver", {}))
    return solve_geometric(mu0, mu1, params)


def _report_from_config(gsol: GeometricSolution, config: dict) -> dict:
    sigma_bar = float(config.get("sigma_bar", 1.0))
    Sigma_bar = float(config.get("Sigma_bar", 1.0))
    return make_value_report(gsol, sigma_bar, Sigma_bar).to_dict()


def _cmd_check(config: dict, base_dir: Path, out: Path) -> int:
    mu0, mu1 = build_marginals(config, base_dir)
    report = check_convex_order(mu0, mu1)
    payload = {
        "command": "check",
        "convex_order": {
            "in_convex_order": report.in_convex_order,
            "max_violation": report.max_violation,
            "equal_means": report.equal_means,
            "mean": report.mean,
        },
    }
    if report.in_convex_order:
        decomp = irreducible_components(mu0, mu1)
        payload["decomposition"] = {
            "identity_set_mass": decomp.identity_set_mass,
            "components": [{"interval": list(c.interval), "mass": c.mass}
                           for c in decomp.components],
        }
        _write_json(out / "report.json", payload)
        return 0
    _write_json(out / "report.json", payload)
    print("convex order violated", file=sys.stderr)
    return 2


def _cmd_transform(config: dict, base_dir: Path, out: Path) -> int:
    mu0, mu1 = build_marginals(config, base_dir)
    nu0, nu1, m = to_arithmetic(mu0, mu1)
    _write_json(out / "nu0.json", nu0.to_dict())
    _write_json(out / "nu1.json", nu1.to_dict())
    _write_json(out / "report.json", {
        "command": "transform",
        "m": m,
        "files": ["nu0.json", "nu1.json"],
    })
    return 0


def _cmd_solve(config: dict, base_dir: Path, out: Path) -> int:
    gsol = _solve_from_config(config, base_dir)
    _write_json(out / "solution.json", _solution_payload(gsol))
    payload = {
        "command": "solve",
        "values": _report_from_config(gsol, config),
        "residual_source": gsol.arithmetic.residual_source,
        "residual_target": gsol.arithmetic.residual_target,
    }
    _write_json(out / "report.json", payload)
    return 0


def _cmd_value(config: dict, base_dir: Path, out: Path) -> int:
    gsol = _solve_from_config(config, base_dir)
    _write_json(out / "report.json", {
        "command": "value",
        "values": _report_from_config(gsol, config),
    })
    return 0


def _cmd_flow(config: dict, base_dir: Path, out: Path) -> int:
    times = config.get("flow_times", [0.0, 0.5, 1.0])
    for t in times:
        if not 0.0 <= float(t) <= 1.0:
            raise ConfigError(f"flow time {t} outside [0, 1]")
    gsol = _solve_from_config(config, base_dir)
    files = []
    means = {}
    for t in times:
        mu_t = marginal_flow(gsol, float(t))
        name = f"flow_t{float(t):g}.csv"
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / name, "atom,weight", mu_t.atoms[:, None], mu_t.weights[:, None])
        files.append(name)
        means[f"{float(t):g}"] = mu_t.mean
    _write_json(out / "report.json",
                {"command": "flow", "files": files, "means": means})
    return 0


def _cmd_simulate(config: dict, base_dir: Path, out: Path, seed_override=None) -> int:
    gsol = _solve_from_config(config, base_dir)
    sim = config.get("simulation", {})
    engines = sim.get("engines", ["weighted"])
    n_steps = int(sim.get("n_steps", 200))
    n_paths = int(sim.get("n_paths", 10000))
    seed = int(seed_override if seed_override is not None else sim.get("seed", 0))
    payload: dict = {"command": "simulate", "seed": seed, "files": [], "stats": {}}
    refs = (gsol.mu0, gsol.mu1)
    out.mkdir(parents=True, exist_ok=True)
    for engine in engines:
        if engine == "weighted":
            ens = simulate_geometric_weighted(gsol, n_steps, n_paths, seed)
            name = "paths_weighted.csv"
        elif engine == "sde":
            idx = int(sim.get("component_index", 0))
            ens = simulate_geometric_sde(gsol, idx, n_steps, n_paths, seed)
            name = "paths_sde.csv"
        else:
            raise ConfigError(f"unknown engine {engine!r}; use 'weighted' or 'sde'")
        export_paths_csv(ens, out / name)
        payload["files"].append(name)
        payload["stats"][engine] = ensemble_stats(ens, refs).to_dict()
    _write_json(out / "report.json", payload)
    return 0


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
        out = Path(args.out) if args.out else Path(config.get("output_dir", "."))
        handler = _COMMANDS[args.command]
        if args.command == "simulate":
            return handler(config, config_path.parent, out, args.seed)
        return handler(config, config_path.parent, out)
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, MeasureError, ValueError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
