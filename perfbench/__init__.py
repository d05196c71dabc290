"""Measured-SYPD benchmark of the Python coupled model.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload through the public :mod:`repro.esm` API and prints, as
its last line, one JSON object with the end-to-end metrics (``--trace 0``)
or the per-layer attribution (``--trace 1``).  ``BENCHMARK.json`` at the
repository root lists the workloads and metrics.
"""
