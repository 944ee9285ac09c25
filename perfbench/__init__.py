"""Benchmark of operad_groups; see README.md."""
