"""Harness of the repo benchmark (``benchmarks/e2e/run.py``).

Everything here times calls into ``repro``'s public functions from
outside; no file under ``src/`` knows the benchmark exists.
"""
