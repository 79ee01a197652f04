"""The repo's benchmark (see bench/README.md and BENCHMARK.json).

Drives the simulator only through its public functions; nothing here is
imported by ``src/repro``.
"""
