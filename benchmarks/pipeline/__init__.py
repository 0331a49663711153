"""End-to-end and per-layer benchmark of the Medea placement pipeline.

Run ``python -m benchmarks.pipeline --seed N`` (every workload, untraced
repeats plus one traced repeat each) or the single-run form the root
``BENCHMARK.json`` names.  Method, metric tables and the public names the
benchmark touches are in ``README.md`` beside this file.
"""
