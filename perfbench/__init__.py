"""Benchmark of the reproduction, from photons to served key (see run.py)."""
