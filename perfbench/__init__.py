"""Seeded, oracle-checked benchmark of the pdf4py_ray engine.

Run from the repository root: ``python3 perfbench/run.py --workload
pdf_mix --seed 1 --seconds 9 --trace 0``. See ``perfbench/README.md``.
"""
