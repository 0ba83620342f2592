#!/usr/bin/env python
"""Bring your own workload: assemble a program and study its register
behaviour under different cache policies.

Writes a program in the library's assembly, runs it through the
functional VM, and compares two register-cache policies on its trace.
The prepackaged SPECint-like kernels go through the same path
(``repro.load_trace``).

Usage::

    python examples/custom_workload.py
"""

from repro import Machine, assemble, lru_config, simulate, use_based_config

DOT_PRODUCT = """
# dot product of two 64-element vectors, two lanes
main:
    addi r2, r0, 0x1000      # vector a
    addi r3, r0, 0x2000      # vector b
    addi r4, r0, 64          # length
    addi r5, r0, 0           # index
    addi r16, r0, 0          # accumulator lane 0
    addi r17, r0, 0          # accumulator lane 1
loop:
    add  r6, r2, r5
    lw   r7, 0(r6)
    add  r8, r3, r5
    lw   r9, 0(r8)
    mul  r10, r7, r9
    add  r16, r16, r10
    lw   r11, 1(r6)
    lw   r12, 1(r8)
    mul  r13, r11, r12
    add  r17, r17, r13
    addi r5, r5, 2
    bne  r5, r4, loop
    add  r16, r16, r17
    out  r16
    halt
""" + "\n".join(
    f".data {0x1000 + i}: " + " ".join(str((i + j) % 7 + 1) for j in range(1))
    for i in range(64)
) + "\n" + "\n".join(
    f".data {0x2000 + i}: " + " ".join(str((3 * i + j) % 5 + 1) for j in range(1))
    for i in range(64)
)


def describe(label, stats) -> None:
    cache = stats.cache
    print(f"{label:24s} ipc={stats.ipc:6.3f}  "
          f"miss={cache.miss_rate:7.4f}  "
          f"filtered_writes={cache.filtered_write_fraction:6.3f}  "
          f"bypass={stats.bypass_fraction:6.3f}")


def main() -> None:
    program = assemble(DOT_PRODUCT, name="dot_product")
    machine = Machine(program)
    trace = machine.run()
    print(f"dot_product: {len(trace)} dynamic instructions, "
          f"result = {machine.output[0]}")
    print()
    print("policy comparison on the custom kernel:")
    describe("use-based", simulate(trace, use_based_config()))
    describe("lru", simulate(trace, lru_config()))


if __name__ == "__main__":
    main()
