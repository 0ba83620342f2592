"""Cycle-exact unit tests for the timing model.

These tests pin down the dependence-timing rules derived in DESIGN.md:
bypass windows, storage reads, register-cache miss replay, monolithic
register file penalties, and misprediction loops.
"""

import pytest

from repro.core.config import (
    MachineConfig,
    monolithic_config,
    two_level_config,
    use_based_config,
)
from repro.core.pipeline import Pipeline
from repro.errors import RenameError, SimulationError
from repro.isa.assembler import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.vm.machine import run_program
from repro.vm.trace import DynamicInst, Trace


def timed_pipeline(source, config=None):
    """Run *source* with timing recording; returns (pipeline, stats)."""
    base = config or use_based_config()
    config = base.replace(
        record_timing=True, model_memory=False, model_icache=False,
        predictor_enabled=False,
    )
    trace = run_program(assemble(source))
    pipeline = Pipeline(trace, config)
    stats = pipeline.run()
    return pipeline, stats


FILLER = "\n".join(["nop"] * 50)


def test_all_instructions_retire():
    _, stats = timed_pipeline("nop\nnop\nhalt")
    assert stats.retired == 3
    assert stats.cycles > 0


def test_dependent_alu_chain_back_to_back():
    pipeline, _ = timed_pipeline("""
        addi r1, r0, 1
        addi r2, r1, 1
        addi r3, r2, 1
        halt
    """)
    log = pipeline.issue_log
    assert log[1].issue_time == log[0].issue_time + 1
    assert log[2].issue_time == log[1].issue_time + 1


def test_multiply_latency_gates_consumer():
    pipeline, _ = timed_pipeline("""
        addi r1, r0, 3
        mul  r2, r1, r1
        addi r3, r2, 1
        halt
    """)
    log = pipeline.issue_log
    # mul issues one cycle after its input (bypass); its consumer waits
    # the full 4-cycle multiply latency.
    assert log[1].issue_time == log[0].issue_time + 1
    assert log[2].issue_time == log[1].issue_time + 4


def test_independent_ops_issue_same_cycle():
    source = "\n".join(
        f"addi r{i}, r0, {i}" for i in range(1, 7)
    ) + "\nhalt"
    pipeline, _ = timed_pipeline(source)
    log = pipeline.issue_log
    times = [log[i].issue_time for i in range(6)]
    assert len(set(times)) == 1  # six ALUs: all six issue together


def test_int_alu_pool_limits_issue():
    # Seven independent adds: only six integer ALUs exist (Table 1).
    source = "\n".join(
        f"addi r{i}, r0, {i}" for i in range(1, 8)
    ) + "\nhalt"
    pipeline, _ = timed_pipeline(source)
    log = pipeline.issue_log
    times = sorted(log[i].issue_time for i in range(7))
    assert times[5] == times[0]
    assert times[6] == times[0] + 1


def test_late_consumer_reads_storage_and_hits():
    pipeline, stats = timed_pipeline(f"""
        addi r1, r0, 1
        {FILLER}
        addi r2, r1, 1
        halt
    """)
    # The consumer dispatches long after the producer left the bypass
    # network, so its operand comes from the register cache.
    assert stats.operands_storage >= 1
    assert stats.cache.hits >= 1
    assert stats.cache.miss_count == 0


def test_filtered_value_causes_miss_and_replay():
    pipeline, stats = timed_pipeline(f"""
        addi r1, r0, 1
        addi r2, r1, 1
        {FILLER}
        addi r3, r1, 1
        halt
    """)
    # unknown_default = 1: the first (bypassed) consumer satisfies the
    # predicted use count, so the write is filtered; the late second
    # consumer misses.
    assert stats.cache.misses["filtered"] == 1
    assert stats.rc_miss_events == 1
    assert stats.issue_blocked_cycles >= 1
    assert stats.rf_reads == 1  # one backing-file fill


def test_rc_miss_delays_consumer_by_backing_latency():
    pipeline, stats = timed_pipeline(f"""
        addi r1, r0, 1
        addi r2, r1, 1
        {FILLER}
        addi r3, r1, 1
        halt
    """)
    log = pipeline.issue_log
    missing = log[52]  # the late consumer (after 50 nops)
    # Its execution starts only after the backing file supplies the
    # value: issue + 1 (RC read, miss) + 1 (request) + 2 (backing read).
    assert missing.exec_start >= missing.issue_time + 4


def test_unknown_default_two_avoids_that_miss():
    config = use_based_config(unknown_default=2)
    _, stats = timed_pipeline(f"""
        addi r1, r0, 1
        addi r2, r1, 1
        {FILLER}
        addi r3, r1, 1
        halt
    """, config)
    assert stats.cache.miss_count == 0


def test_always_insert_avoids_filtered_miss():
    config = use_based_config(insertion="always")
    _, stats = timed_pipeline(f"""
        addi r1, r0, 1
        addi r2, r1, 1
        {FILLER}
        addi r3, r1, 1
        halt
    """, config)
    assert stats.cache.misses["filtered"] == 0
    assert stats.cache.miss_count == 0


def test_cache_invalidated_when_preg_freed():
    _, stats = timed_pipeline(f"""
        addi r1, r0, 1
        addi r2, r1, 1
        addi r1, r0, 5
        {FILLER}
        nop
        halt
    """)
    assert stats.cache.invalidations <= stats.cache.instances_cached


def test_monolithic_has_no_cache():
    _, stats = timed_pipeline("""
        addi r1, r0, 1
        addi r2, r1, 1
        halt
    """, monolithic_config(3))
    assert stats.cache is None
    assert stats.rf_writes == 2


def test_monolithic_back_to_back_chains_unaffected():
    source = """
        addi r1, r0, 1
        addi r2, r1, 1
        addi r3, r2, 1
        halt
    """
    fast, _ = timed_pipeline(source, monolithic_config(1))
    slow, _ = timed_pipeline(source, monolithic_config(3))
    fast_delta = fast.issue_log[2].issue_time - fast.issue_log[1].issue_time
    slow_delta = slow.issue_log[2].issue_time - slow.issue_log[1].issue_time
    assert fast_delta == slow_delta == 1


def test_monolithic_dead_window_delays_late_consumer():
    # Consumer dispatched ~3 cycles after the producer: beyond the
    # 2-stage bypass window, it must wait for the RF write (latency 3).
    source = f"""
        addi r1, r0, 1
        {FILLER}
        addi r2, r1, 1
        halt
    """
    mono, stats = timed_pipeline(source, monolithic_config(3))
    assert stats.operands_storage >= 1
    assert stats.rf_reads >= 1


def test_monolithic_latency_costs_cycles_on_branchy_code():
    source = """
        addi r1, r0, 30
    loop:
        addi r2, r1, 7
        xor  r3, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
    """
    _, fast = timed_pipeline(source, monolithic_config(1))
    _, slow = timed_pipeline(source, monolithic_config(3))
    assert slow.cycles > fast.cycles


def test_mispredict_stalls_fetch():
    # A never-taken conditional branch on first encounter: the cold
    # predictor's weakly-taken bias mispredicts it.
    pipeline, stats = timed_pipeline("""
        addi r1, r0, 1
        beq  r1, r0, skip
        addi r2, r0, 2
    skip:
        halt
    """)
    assert stats.branch_mispredicts == 1
    log = pipeline.issue_log
    branch, after = log[1], log[2]
    # The post-branch instruction cannot even be fetched until the
    # branch resolves: the issue gap covers the full mispredict loop.
    assert after.issue_time - branch.issue_time >= 12


def test_correctly_predicted_branch_no_stall():
    # Taken branch matches the weakly-taken cold bias: no stall.
    pipeline, stats = timed_pipeline("""
        addi r1, r0, 1
        bne  r1, r0, skip
        nop
    skip:
        halt
    """)
    assert stats.branch_mispredicts == 0


def test_capacity_misses_in_tiny_fully_associative_cache():
    config = use_based_config(
        cache_entries=2, cache_assoc=0, indexing="round_robin",
        unknown_default=2,
    )
    producers = "\n".join(f"addi r{i}, r0, {i}" for i in range(1, 6))
    consumers = "\n".join(f"addi r{i + 10}, r{i}, 1" for i in range(1, 6))
    _, stats = timed_pipeline(
        f"{producers}\n{FILLER}\n{consumers}\nhalt", config
    )
    assert stats.cache.misses["capacity"] >= 1
    assert stats.cache.misses["conflict"] == 0


def test_two_level_deadlock_detected():
    config = two_level_config(
        cache_entries=2, two_level_l1_extra=3,
        record_timing=True, model_memory=False, predictor_enabled=False,
    )
    # Writes 8 distinct architectural registers, never reassigning: the
    # 5-slot L1 can never free a register.
    source = "\n".join(
        f"addi r{i}, r0, {i}" for i in range(1, 9)
    ) + "\nhalt"
    trace = run_program(assemble(source))
    with pytest.raises(SimulationError, match="too small"):
        Pipeline(trace, config).run()


def test_two_level_runs_clean_with_headroom():
    _, stats = timed_pipeline("""
        addi r1, r0, 4
    loop:
        addi r2, r1, 1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
    """, two_level_config())
    assert stats.retired > 0
    assert stats.cache is None


TWO_LEVEL_LOOP = "\n".join(
    ["    addi r1, r0, 6", "loop:"]
    + [f"    addi r{i}, r{i}, 1" for i in range(2, 20)]
    + ["    addi r1, r1, -1", "    bne  r1, r0, loop",
       "    addi r3, r0, 7", "    halt"]
)


@pytest.mark.parametrize("l2_latency", [1, 2, 10, 30])
def test_two_level_recovery_holds_dispatch_for_restores(l2_latency):
    """After a mispredict, the first refetched op dispatches once both
    the front-end refill and the L2->L1 restores are done: at
    ``resolve + 1 + max(front_depth, transfer)``. Only the cycles the
    restores add beyond the refill count as rename stalls."""
    config = two_level_config(
        cache_entries=8, two_level_l1_extra=24,
        two_level_l2_latency=l2_latency, record_timing=True,
        model_memory=False, model_icache=False, predictor_enabled=False,
    )
    pipeline = Pipeline(run_program(assemble(TWO_LEVEL_LOOP)), config)
    two_level = pipeline.two_level
    recoveries = []
    on_mispredict = two_level.on_mispredict

    def recording(resolve, refill):
        before = two_level.restores
        extra = on_mispredict(resolve, refill)
        recoveries.append((resolve, two_level.restores - before))
        return extra

    two_level.on_mispredict = recording
    stats = pipeline.run()

    assert recoveries
    excess = 0
    for resolve, restores in recoveries:
        assert restores > 0  # the loop exit squashes moved values
        transfer = l2_latency + -(-restores // config.two_level_bandwidth)
        branch = next(
            op for op in pipeline.issue_log.values()
            if op.mispredicted and op.exec_end + 1 == resolve
        )
        first = pipeline.issue_log[branch.seq + 1]
        if transfer > config.front_depth:
            assert first.alloc_time == resolve + 1 + transfer
        else:
            assert first.alloc_time == resolve + 1 + config.front_depth
        excess += max(0, transfer - config.front_depth)
    assert stats.tl_recovery_stalls == excess
    assert stats.rename_stall_cycles == two_level.rename_stall_cycles + excess


def test_load_miss_discovered_before_dependents_issue():
    """Regression: with a deep read stage (R=4) the D-cache probe must
    still precede the earliest dependent issue slot, or dependents
    schedule against the stale hit latency and chains pipeline
    impossibly fast (higher RF latency must never help)."""
    from repro.workloads.suite import load_trace
    trace = load_trace("pointer_chase", scale=0.15)
    slow = Pipeline(trace, monolithic_config(4)).run()
    fast = Pipeline(trace, monolithic_config(1)).run()
    assert slow.ipc <= fast.ipc * 1.02


def test_ipc_bounded_by_width():
    source = "\n".join(["nop"] * 200) + "\nhalt"
    _, stats = timed_pipeline(source)
    assert stats.ipc <= 8.0


def test_bypass_fraction_high_for_tight_chain():
    _, stats = timed_pipeline("""
        addi r1, r0, 1
        addi r2, r1, 1
        addi r3, r2, 1
        addi r4, r3, 1
        halt
    """)
    assert stats.bypass_fraction == 1.0


def test_stats_summary_keys():
    _, stats = timed_pipeline("nop\nhalt")
    summary = stats.summary()
    assert "ipc" in summary and "miss_rate" in summary


@pytest.mark.parametrize("field", ["sources", "dest"])
def test_out_of_range_arch_register_raises_rename_error(field):
    # A negative register: one past the top already fails the trace
    # analysis that Pipeline() runs, before rename sees the record.
    record = DynamicInst(0, 0, Instruction(Opcode.ADD, dest=3, src1=1, src2=2))
    if field == "sources":
        record.sources = (1, -1)
    else:
        record.dest = -1
    pipeline = Pipeline(Trace([record], name="bad"), use_based_config())
    with pytest.raises(RenameError, match="out of range"):
        pipeline.run()
