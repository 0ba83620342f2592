"""Unit tests for the functional VM."""

import pytest

from repro.errors import ExecutionError, ExecutionLimitExceeded
from repro.isa.assembler import assemble
from repro.vm.machine import Machine, run_program


def run_asm(source, **kwargs):
    return Machine(assemble(source), **kwargs)


def final_regs(source):
    machine = run_asm(source)
    machine.run()
    return machine.regs


def test_addi_and_add():
    regs = final_regs("""
        addi r1, r0, 5
        addi r2, r0, 7
        add r3, r1, r2
        halt
    """)
    assert regs[3] == 12


def test_sub_negative_result():
    regs = final_regs("""
        addi r1, r0, 5
        addi r2, r0, 7
        sub r3, r1, r2
        halt
    """)
    assert regs[3] == -2


def test_logic_ops():
    regs = final_regs("""
        addi r1, r0, 12
        addi r2, r0, 10
        and r3, r1, r2
        or  r4, r1, r2
        xor r5, r1, r2
        halt
    """)
    assert regs[3] == 8 and regs[4] == 14 and regs[5] == 6


def test_shifts():
    regs = final_regs("""
        addi r1, r0, 1
        slli r2, r1, 4
        srli r3, r2, 2
        addi r4, r0, -8
        sra  r5, r4, r1
        halt
    """)
    assert regs[2] == 16 and regs[3] == 4 and regs[5] == -4


def test_slt_comparisons():
    regs = final_regs("""
        addi r1, r0, -1
        addi r2, r0, 1
        slt  r3, r1, r2
        sltu r4, r1, r2
        slti r5, r2, 100
        halt
    """)
    assert regs[3] == 1
    assert regs[4] == 0  # -1 unsigned is huge
    assert regs[5] == 1


def test_lui():
    regs = final_regs("lui r1, 2\nhalt")
    assert regs[1] == 2 << 16


def test_mul_div_rem():
    regs = final_regs("""
        addi r1, r0, -7
        addi r2, r0, 2
        mul r3, r1, r2
        div r4, r1, r2
        rem r5, r1, r2
        halt
    """)
    assert regs[3] == -14
    assert regs[4] == -3  # truncation toward zero
    assert regs[5] == -1


def test_div_by_zero_is_defined():
    regs = final_regs("""
        addi r1, r0, 5
        div r3, r1, r0
        rem r4, r1, r0
        halt
    """)
    assert regs[3] == -1
    assert regs[4] == 5


def test_load_store_roundtrip():
    regs = final_regs("""
        addi r1, r0, 1000
        addi r2, r0, 77
        sw r2, 4(r1)
        lw r3, 4(r1)
        halt
    """)
    assert regs[3] == 77


def test_load_from_data_section():
    regs = final_regs("""
        addi r1, r0, 100
        lw r2, 0(r1)
        lw r3, 1(r1)
        halt
    .data 100: 11 22
    """)
    assert regs[2] == 11 and regs[3] == 22


def test_uninitialized_memory_reads_zero():
    regs = final_regs("""
        addi r1, r0, 5000
        lw r2, 0(r1)
        halt
    """)
    assert regs[2] == 0


def test_lb_masks_to_byte():
    regs = final_regs("""
        addi r1, r0, 100
        lb r2, 0(r1)
        halt
    .data 100: 511
    """)
    assert regs[2] == 255


def test_branch_taken_and_not_taken():
    machine = run_asm("""
        addi r1, r0, 3
    loop:
        addi r1, r1, -1
        bne r1, r0, loop
        out r1
        halt
    """)
    trace = machine.run()
    branches = [r for r in trace if r.is_conditional]
    assert [b.taken for b in branches] == [True, True, False]
    assert machine.output == [0]


def test_branch_targets_recorded():
    machine = run_asm("""
        beq r0, r0, skip
        nop
    skip:
        halt
    """)
    trace = machine.run()
    assert trace[0].taken and trace[0].target == 2


def test_jal_and_ret():
    machine = run_asm("""
        jal func
        out r5
        halt
    func:
        addi r5, r0, 9
        ret
    """)
    machine.run()
    assert machine.output == [9]


def test_jalr_indirect():
    machine = run_asm("""
        addi r9, r0, target
        jalr r10, r9, 0
        halt
    target:
        out r9
        halt
    """)
    machine.run()
    assert len(machine.output) == 1


def test_zero_register_writes_discarded():
    regs = final_regs("""
        addi r0, r0, 99
        halt
    """)
    assert regs[0] == 0


def test_halt_stops_execution():
    machine = run_asm("halt\nnop")
    trace = machine.run()
    assert len(trace) == 1
    assert machine.halted


def test_step_after_halt_raises():
    machine = run_asm("halt")
    machine.run()
    with pytest.raises(ExecutionError):
        machine.step()


def test_pc_out_of_range_raises():
    machine = run_asm("beq r0, r0, 99\nnop\nhalt")
    # Branch target 99 is within imm range but outside the program.
    machine.program.labels.clear()
    with pytest.raises(ExecutionError, match="out of range"):
        machine.run()


def test_instruction_budget_enforced():
    machine = run_asm("""
    loop:
        beq r0, r0, loop
    """, max_instructions=100)
    with pytest.raises(ExecutionLimitExceeded):
        machine.run()


def test_trace_sequence_numbers_monotonic():
    trace = run_program(assemble("nop\nnop\nnop\nhalt"))
    assert [r.seq for r in trace] == [0, 1, 2, 3]


def test_mem_addr_recorded_for_loads_and_stores():
    trace = run_program(assemble("""
        addi r1, r0, 500
        sw r1, 2(r1)
        lw r2, 2(r1)
        halt
    """))
    store = trace[1]
    load = trace[2]
    assert store.mem_addr == 502
    assert load.mem_addr == 502


def test_64bit_wraparound():
    regs = final_regs("""
        addi r1, r0, 1
        slli r2, r1, 63
        add r3, r2, r2
        halt
    """)
    assert regs[3] == 0


# ----------------------------------------------------------------------
# DIV/REM at 64-bit extremes (regression: the float-division shortcut
# silently lost precision for operands beyond 2^53) — exercised on both
# execution paths.

BOTH_PATHS = pytest.mark.parametrize("predecode", [True, False],
                                     ids=["predecoded", "interpreted"])


def _divrem_regs(source, predecode):
    machine = Machine(assemble(source), predecode=predecode)
    machine.run()
    return machine.regs


@BOTH_PATHS
def test_div_rem_exact_beyond_float_precision(predecode):
    # r1 = 2^62 + 3: far beyond the 2^53 float mantissa, so the old
    # int(a / b) implementation truncated to the wrong quotient.
    regs = _divrem_regs("""
        addi r1, r0, 1
        slli r1, r1, 62
        addi r1, r1, 3
        addi r2, r0, 3
        div r3, r1, r2
        rem r4, r1, r2
        halt
    """, predecode)
    assert regs[3] == (2**62 + 3) // 3
    assert regs[4] == (2**62 + 3) % 3


@BOTH_PATHS
def test_div_rem_negative_truncates_toward_zero(predecode):
    # Truncating semantics, not Python floor semantics: the quotient
    # magnitude is |a| // |b| and the remainder takes the dividend sign.
    regs = _divrem_regs("""
        addi r1, r0, 1
        slli r1, r1, 62
        addi r1, r1, 5
        sub r1, r0, r1
        addi r2, r0, 3
        div r3, r1, r2
        rem r4, r1, r2
        halt
    """, predecode)
    a = -(2**62 + 5)
    assert regs[3] == -(abs(a) // 3)
    assert regs[4] == -(abs(a) % 3)


@BOTH_PATHS
def test_div_int_min_by_minus_one_wraps(predecode):
    # The one overflowing case: -2^63 / -1 wraps to -2^63 like two's
    # complement hardware; the matching remainder is zero.
    regs = _divrem_regs("""
        addi r1, r0, 1
        slli r1, r1, 63
        addi r2, r0, -1
        div r3, r1, r2
        rem r4, r1, r2
        halt
    """, predecode)
    assert regs[1] == -(2**63)
    assert regs[3] == -(2**63)
    assert regs[4] == 0


@BOTH_PATHS
def test_div_rem_by_zero_defined_at_extremes(predecode):
    regs = _divrem_regs("""
        addi r1, r0, 1
        slli r1, r1, 63
        div r3, r1, r0
        rem r4, r1, r0
        halt
    """, predecode)
    assert regs[3] == -1
    assert regs[4] == -(2**63)  # remainder-by-zero preserves the dividend


# ----------------------------------------------------------------------
# Predecoded fast path vs. reference interpreter.


def _full_state(machine):
    return (machine.regs, machine.memory, machine.output, machine.pc,
            machine.halted)


def assert_paths_identical(program, max_instructions=5_000_000):
    fast = Machine(program, max_instructions=max_instructions)
    slow = Machine(program, max_instructions=max_instructions,
                   predecode=False)
    fast_trace = fast.run()
    slow_trace = slow.run()
    assert len(fast_trace) == len(slow_trace)
    for a, b in zip(fast_trace, slow_trace):
        assert a.signature() == b.signature()
    assert _full_state(fast) == _full_state(slow)


def test_predecode_matches_interpreter_on_control_flow():
    # r1 stays free: the assembler's bare jal/ret use it as link register.
    assert_paths_identical(assemble("""
        addi r6, r0, 4
        addi r3, r0, 1000
    loop:
        sw r6, 0(r3)
        lb r2, 0(r3)
        jal helper
        addi r6, r6, -1
        bne r6, r0, loop
        out r2
        halt
    helper:
        addi r2, r2, 1
        ret
    """))


def test_predecode_matches_interpreter_on_full_suite():
    """Bit-identical traces on every kernel in the registry."""
    from repro.workloads.kernels import KERNELS
    from repro.workloads.suite import build_program

    for name in KERNELS:
        assert_paths_identical(build_program(name, scale=0.05))


def test_predecode_budget_and_pc_guards_match():
    looping = assemble("loop:\n  beq r0, r0, loop")
    with pytest.raises(ExecutionLimitExceeded):
        Machine(looping, max_instructions=50).run()
    escaping = assemble("beq r0, r0, 99\nnop\nhalt")
    escaping.labels.clear()
    with pytest.raises(ExecutionError, match="out of range"):
        Machine(escaping).run()
