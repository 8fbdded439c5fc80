"""Library behind ``perfbench/run.py``: workloads, spans, checks and stats.

Nothing here imports the ``repro`` package at module level, so the pure
parts (span arithmetic, spec generation, digests) import and test without
the program under test on the path.
"""
