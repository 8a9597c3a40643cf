"""The repository benchmark: Fig 8 campaigns and the Fig 5/7 compile sweep.

Run it with ``python3 perfbench/run.py --workload NAME`` from the
repository root; see ``perfbench/README.md``.
"""
