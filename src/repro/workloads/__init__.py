"""Workload generation: SPECint-like kernels and statistical traces."""
