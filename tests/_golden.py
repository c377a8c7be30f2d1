"""Golden outputs of the benchmark pairs, written to and compared between .npz files.

    PYTHONPATH=src python tests/_golden.py write out.npz
    PYTHONPATH=src python tests/_golden.py compare a.npz b.npz [BOUND [GLOB=BOUND ...]]

``write`` solves the benchmark's lognormal pair at 201 and at 1001 atoms and
stores, per grid size: the solved alpha and thresholds, each field of the
value report as its own array (``value_report/<field>``), the marginal flows
at t in FLOW_TIMES, the volatilities at VOL_POINTS, and the weighted and SDE
paths (PATHS paths x STEPS steps, seed SEED).
``compare`` prints, per array, the largest relative difference
|a - b| / max(|a|, |b|), with 0 where both are 0, and next to it the largest
absolute difference |a - b|, which judges arrays with entries near 0 (an atom
near 0 turns a move of 5e-13 into a relative 1e-9). Given a BOUND, it then
exits with status 1, naming on stderr each array whose difference is above
its bound (or not a number) and each array missing from one file or shaped
differently; otherwise it exits 0. Each GLOB=BOUND that follows sets the
relative bound of the arrays whose keys match GLOB (``fnmatch``; keys read
``<grid size>/<name>``); the first matching GLOB wins, and BOUND holds for
the rest. A golden check is one command: ``compare parent.npz change.npz 0``
asks for equal values, ``compare parent.npz change.npz 1e-12`` for the
1e-12 that merged or deleted internals may move them by, and
``compare parent.npz change.npz 0 '*/vols=1e-11'`` for equal values except
the volatilities, which may move by 1e-11. A solver change that moves only
the duality gap, about 1e-13 and so relatively loose, waives it alone with
``'*/value_report/duality_gap=1'``. Not a test module: pytest does not
collect it.
"""

from __future__ import annotations

import math
import sys
from fnmatch import fnmatchcase
from pathlib import Path

import numpy as np

import gbass as g
from gbass.cli import build_marginals

GRID_SIZES = (201, 1001)
FLOW_TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)
SIGMA = math.sqrt(0.12)  # the pair's Bass martingale is GBM with this volatility
VOL_POINTS = [(t, math.exp(SIGMA * math.sqrt(t) * z - SIGMA ** 2 * t / 2.0))
              for t in (0.25, 0.5, 0.75) for z in (-1.0, 0.0, 1.0)]
PATHS, STEPS, SEED = 2000, 10, 7


def solve(grid_size: int) -> g.GeometricSolution:
    config = {
        "mu0": {"family": "lognormal", "meanlog": -0.02, "varlog": 0.04, "grid_size": grid_size},
        "mu1": {"family": "lognormal", "meanlog": -0.08, "varlog": 0.16, "grid_size": grid_size},
    }
    return g.solve_geometric(*build_marginals(config, Path(".")))


def goldens(grid_size: int) -> dict[str, np.ndarray]:
    gsol = solve(grid_size)
    csol = gsol.arithmetic.component_solutions[0]
    report = g.make_value_report(gsol, SIGMA, SIGMA)
    out = {"alpha": csol.alpha.atoms, "thresholds": csol.fn.thresholds}
    for field, value in report.to_dict().items():
        out[f"value_report/{field}"] = np.array(value)
    for t in FLOW_TIMES:
        flow = g.marginal_flow(gsol, t)
        out[f"flow_{t}_atoms"], out[f"flow_{t}_weights"] = flow.atoms, flow.weights
    out["vols"] = np.array([g.sde_volatility(gsol, 0, t, s) for t, s in VOL_POINTS])
    weighted = g.simulate_geometric_weighted(gsol, STEPS, PATHS, SEED)
    out["weighted_paths"], out["weighted_weights"] = weighted.paths, weighted.weights
    out["sde_paths"] = g.simulate_geometric_sde(gsol, 0, STEPS, PATHS, SEED).paths
    return {f"{grid_size}/{key}": value for key, value in out.items()}


def relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / max(|a|, |b|), 0 where both are 0, and NaN where either is NaN."""
    scale = np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.abs(a - b) / np.where(scale > 0, scale, 1.0), initial=0.0))


def compare(a, b, bound: float | None = None,
            bounds: list[tuple[str, float]] | None = None) -> int:
    """Print each array's relative and absolute difference; with a bound, 1 if any array
    fails its bound on the relative difference, else 0.

    bounds holds (glob, bound) pairs: a key takes the bound of the first glob it matches.
    """
    failed = []
    for key in sorted(set(a.files) | set(b.files)):
        if key not in a.files or key not in b.files:
            print(f"{key:40s} only in {'the first' if key in a.files else 'the second'}")
            failed.append(key)
        elif a[key].shape != b[key].shape:
            print(f"{key:40s} shapes differ: {a[key].shape} vs {b[key].shape}")
            failed.append(key)
        else:
            diff = relative_difference(a[key], b[key])
            limit = next((lim for glob, lim in bounds or () if fnmatchcase(key, glob)), bound)
            absolute = float(np.max(np.abs(a[key] - b[key]), initial=0.0))
            print(f"{key:40s} {diff:.3e}  abs {absolute:.3e}")
            if limit is not None and not diff <= limit:  # NaN fails too
                failed.append(f"{key} (bound {limit:g})")
    if bound is None or not failed:
        return 0
    print(f"{len(failed)} arrays fail their bounds: {', '.join(failed)}", file=sys.stderr)
    return 1


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "write":
        np.savez(argv[1], **{k: v for n in GRID_SIZES for k, v in goldens(n).items()})
    elif len(argv) >= 3 and argv[0] == "compare" and all("=" in arg for arg in argv[4:]):
        bounds = [(glob, float(limit)) for glob, limit in (arg.rsplit("=", 1) for arg in argv[4:])]
        return compare(np.load(argv[1]), np.load(argv[2]),
                       float(argv[3]) if len(argv) >= 4 else None, bounds)
    else:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
