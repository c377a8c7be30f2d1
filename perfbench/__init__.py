"""End-to-end and per-layer benchmark of the gbass pipeline.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``--write-spec`` regenerates
``BENCHMARK.json`` from the definitions in ``perfbench.spec``.
"""
