"""Functional execution: VM, dynamic-trace representation, trace factory."""
