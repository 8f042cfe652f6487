"""The repository benchmark: four workloads, one command (``run.py``).

See ``perfbench/README.md`` for the workloads, the metrics and how to
run it.
"""
