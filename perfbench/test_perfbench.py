"""Tests of the benchmark itself, on shrunken copies of its workloads.

Tracing must change no result, every declared metric must be emitted, counts
must repeat exactly, and BENCHMARK.json must match ``perfbench/spec.py``.
"""

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import pipeline, spec, tracing  # noqa: E402


def shrink(w: spec.Workload) -> spec.Workload:
    return dataclasses.replace(w, grid_size=41, n_paths=300, n_steps=8,
                               surface_times=w.surface_times[:2],
                               surface_scores=w.surface_scores[:3])


@pytest.fixture(autouse=True)
def restore_gbass():
    """The pipeline re-imports gbass; give later tests back the original modules."""
    saved = {n: m for n, m in sys.modules.items() if n == "gbass" or n.startswith("gbass.")}
    yield
    for name in [n for n in sys.modules if n == "gbass" or n.startswith("gbass.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def test_traced_rep_matches_untraced(tmp_path):
    config = pipeline.make_config(shrink(spec.WORKLOADS["lognormal-1001"]), seed=3)
    plain = pipeline.run_rep(config, tmp_path)
    traced = pipeline.run_rep(config, tmp_path, tracing.Tracer("test"))
    assert plain.failures == [] and traced.failures == []
    assert len(plain.solution) == len(traced.solution) == 1
    for (a0, t0), (a1, t1) in zip(plain.solution, traced.solution):
        assert np.array_equal(a0, a1) and np.array_equal(t0, t1)
    assert plain.errors == traced.errors
    assert plain.iterations == traced.iterations
    names = {span[0] for span in traced.tracer.spans}
    assert {"geometric_bridge.solve_geometric", "gaussian.invert_increasing",
            "simulate.export_paths_csv", "bench.solve"} <= names


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_every_metric_emitted(tmp_path, name):
    reps = pipeline.run_workload(shrink(spec.WORKLOADS[name]), seed=2, seconds=0.0,
                                 trace=True, workdir=tmp_path)
    assert [r.tracer is not None for r in reps] == [False, True, False, True]
    assert all(r.failed == 0 for r in reps), [r.failures for r in reps]

    e2e = pipeline.metrics(reps, trace=False)
    assert list(e2e) == [n for n, *_ in spec.END_TO_END]
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in e2e.values()), e2e

    computed = pipeline.per_layer(reps)
    missing = [n for n, *_ in spec.PER_LAYER if n not in computed]
    assert missing == []
    layer = pipeline.metrics(reps, trace=True)
    assert all(math.isfinite(m["value"]) for m in layer.values())
    timed = [n for n, unit, _ in spec.PER_LAYER if unit == "s" and n != "trace.overhead_s"]
    assert all(layer[n]["value"] > 0 for n in timed), [n for n in timed if not layer[n]["value"]]

    # counted work repeats exactly between the two traced repetitions
    first, second = (r.tracer.layer_metrics() for r in reps if r.tracer is not None)
    counts = [n for n, unit, _ in spec.PER_LAYER if unit in ("count", "bytes") and n in first]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert len({tuple(r.iterations) for r in reps}) == 1


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer("t")
    tracer.spans = [["a.f", 0.0, 10.0, -1, "t"], ["b.g", 1.0, 4.0, 0, "t"],
                    ["a.h", 5.0, 6.0, 0, "t"], ["b.g", 2.0, 3.0, 1, "t"]]
    m = tracer.layer_metrics()
    assert m["a.self_s"] == pytest.approx(10.0 - 3.0 - 1.0 + 1.0)
    assert m["b.self_s"] == pytest.approx(3.0 - 1.0 + 1.0)
    assert m["b.g.calls"] == 2 and m["b.g.s"] == pytest.approx(4.0)


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [w["name"] for w in on_disk["workloads"]] + \
        [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in on_disk["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in on_disk["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in on_disk["end_to_end"])} in on_disk["end_to_end"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paths-201", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
