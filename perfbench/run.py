"""Benchmark entry point.

    python3 perfbench/run.py --workload lognormal-1001 --seed 1 --seconds 45 --trace 0

runs one workload from the repository root for about ``--seconds`` seconds,
prints each metric by name and unit, then prints one JSON line
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Results, and the spans of a traced run, are written under ``.bench_out/``.
``--write-spec`` writes ``BENCHMARK.json`` from ``perfbench/spec.py``.

The program is imported from ``src/`` of the checkout the script sits in;
the run fails with exit code 2 if those sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _meta(workload: str, seed: int, seconds: float, trace: bool, reps: int) -> dict:
    import numpy
    import scipy
    import gbass

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "repetitions": reps,
        "gbass": gbass.__version__, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_loc": sum(len(p.read_text().splitlines())
                       for p in sorted((SRC / "gbass").glob("*.py"))),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from perfbench/spec.py and exit")
    args = parser.parse_args(argv)

    # pin BLAS threads before numpy is first imported
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT))
    from perfbench import pipeline, spec

    if args.write_spec:
        with open(ROOT / "BENCHMARK.json", "w") as fh:
            json.dump(spec.benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload not in spec.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(spec.WORKLOADS)}")
    if not (SRC / "gbass" / "__init__.py").is_file():
        print(f"error: gbass sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gbass

    if Path(gbass.__file__).resolve().parent != SRC / "gbass":
        print(f"error: gbass imported from {gbass.__file__}, not {SRC}", file=sys.stderr)
        return 2

    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    trace = bool(args.trace)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reps = pipeline.run_workload(spec.WORKLOADS[args.workload], args.seed, seconds,
                                     trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    complete = [r for r in reps if r.errors]
    if not complete or (trace and not any(r.tracer for r in complete)):
        for r in reps:
            print("\n".join(r.failures), file=sys.stderr)
        print("error: no repetition completed", file=sys.stderr)
        return 1

    metrics = pipeline.metrics(reps, trace)

    meta = _meta(args.workload, args.seed, seconds, trace, len(reps))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump({"meta": meta, "metrics": metrics, "attempted": attempted,
                   "failed": failed, "failures": [f for r in reps for f in r.failures],
                   "repetitions": [{"traced": r.tracer is not None, "seconds": r.times,
                                    "wall_seconds": r.wall} for r in reps]}, fh, indent=1)
    if trace:
        with open(OUT / f"{tag}-spans.jsonl", "w") as fh:
            for r in reps:
                if r.tracer is not None:
                    for name, start, end, parent, run_id in r.tracer.spans:
                        fh.write(json.dumps({"name": name, "start": start, "end": end,
                                             "parent": parent, "run": run_id}) + "\n")

    print("meta " + json.dumps(meta))
    for r in reps:
        for failure in r.failures:
            print("failed " + failure)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
