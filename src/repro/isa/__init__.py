"""Synthetic RISC ISA: opcodes, instructions, programs, and an assembler."""
