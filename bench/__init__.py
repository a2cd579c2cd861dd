"""The repository's benchmark: five workloads, end-to-end metrics, a per-layer ledger.

Run ``python -m bench`` from the repository root (see ``bench/README.md``).
Everything here measures the program in ``src/repro`` *from outside*:
workloads drive its public entry points, probes time its public
functions in isolation, and the tracer wraps layer boundaries from the
benchmark side — nothing under ``src/`` knows the benchmark exists.
"""
