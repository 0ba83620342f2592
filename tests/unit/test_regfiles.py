"""Unit tests for the physical, backing, and two-level register files."""

import random

import pytest

from repro.errors import RegisterFileError
from repro.regfile.backing import BackingFile
from repro.regfile.physical import PhysicalRegisterFile
from repro.regfile.two_level import TwoLevelRegisterFile


# ----------------------------------------------------------------------
# PhysicalRegisterFile


def test_physical_defaults_match_paper():
    rf = PhysicalRegisterFile()
    assert rf.num_registers == 512
    assert rf.read_latency == 3
    assert rf.write_latency == 3
    assert rf.bypass_stages == 2


def test_physical_write_latency_defaults_to_read():
    rf = PhysicalRegisterFile(read_latency=2)
    assert rf.write_latency == 2


def test_physical_storage_ready_formula():
    rf = PhysicalRegisterFile(read_latency=3, write_latency=3)
    # With R == W, a consumer may issue from the producer's completion.
    assert rf.storage_ready_time(producer_complete=10) == 10


def test_physical_bandwidth_accounting():
    rf = PhysicalRegisterFile()
    rf.record_read(2)
    rf.record_write()
    assert rf.reads == 2 and rf.writes == 1


def test_physical_rejects_zero_latency():
    with pytest.raises(ValueError):
        PhysicalRegisterFile(read_latency=0)


# ----------------------------------------------------------------------
# BackingFile


def test_backing_read_latency():
    backing = BackingFile(read_latency=2)
    available = backing.schedule_read(earliest=10, value_written_at=0)
    assert available == 12


def test_backing_waits_for_write():
    backing = BackingFile(read_latency=2)
    available = backing.schedule_read(earliest=5, value_written_at=9)
    assert available == 11  # start pushed to the write-complete cycle


def test_backing_single_port_serializes():
    backing = BackingFile(read_latency=2, read_ports=1)
    first = backing.schedule_read(10, 0)
    second = backing.schedule_read(10, 0)
    assert second == first + 1  # second read waits one cycle for the port


def test_backing_two_ports_share_cycle():
    backing = BackingFile(read_latency=2, read_ports=2)
    first = backing.schedule_read(10, 0)
    second = backing.schedule_read(10, 0)
    third = backing.schedule_read(10, 0)
    assert first == second
    assert third == first + 1


def test_backing_counts_traffic():
    backing = BackingFile()
    backing.record_write()
    backing.schedule_read(0, 0)
    assert backing.writes == 1 and backing.reads == 1


def test_backing_prune_keeps_future_bookings():
    """Pruning the port schedule never forgets a booked future cycle.

    The schedule is pruned once it holds over 4,096 cycles. A booking
    far ahead (cycle 9,006) must not drop the cycles between the
    request's earliest cycle and it: cycle 4,095 is still booked, so a
    later read that wants it waits for the next cycle.
    """
    backing = BackingFile(read_latency=2, read_ports=1)
    for cycle in range(1, 4090):
        assert backing.schedule_read(cycle, cycle) == cycle + 2
    assert backing.schedule_read(4090, 4095) == 4095 + 2
    assert backing.schedule_read(4091, 9000) == 9000 + 2
    for cycle in range(9001, 9007):
        assert backing.schedule_read(4092, cycle) == cycle + 2
    assert backing.schedule_read(4093, 4095) == 4096 + 2


def test_backing_port_never_double_booked():
    """With non-decreasing request cycles, no cycle starts more reads
    than there are ports, across many schedule prunes."""
    rng = random.Random(5)
    for ports in (1, 2):
        backing = BackingFile(read_latency=2, read_ports=ports)
        starts: dict[int, int] = {}
        earliest = 0
        for _ in range(20_000):
            earliest += rng.choice((0, 0, 1))
            written = earliest + rng.choice((0, 3, 40, 6_000))
            start = backing.schedule_read(earliest, written) - 2
            assert start >= max(earliest, written)
            starts[start] = starts.get(start, 0) + 1
        assert max(starts.values()) <= ports


def test_backing_rejects_bad_params():
    with pytest.raises(ValueError):
        BackingFile(read_latency=0)
    with pytest.raises(ValueError):
        BackingFile(read_ports=0)


# ----------------------------------------------------------------------
# TwoLevelRegisterFile


def test_two_level_allocate_and_free():
    tl = TwoLevelRegisterFile(4)
    tl.allocate(1)
    tl.allocate(2)
    assert tl.free_slots == 2
    tl.free(1)
    assert tl.free_slots == 3


def test_two_level_exhaustion():
    tl = TwoLevelRegisterFile(1)
    tl.allocate(1)
    assert not tl.can_allocate()
    with pytest.raises(RegisterFileError):
        tl.allocate(2)


def test_two_level_double_allocate_rejected():
    tl = TwoLevelRegisterFile(4)
    tl.allocate(1)
    with pytest.raises(RegisterFileError):
        tl.allocate(1)


def test_move_requires_reassignment_and_no_pending():
    tl = TwoLevelRegisterFile(4, free_threshold=10)
    tl.allocate(1)
    tl.add_pending_consumer(1)
    tl.reassigned(1, now=0)
    assert tl.tick(0) == 0  # pending consumer blocks the move
    tl.consumer_executed(1, now=1)
    assert tl.tick(1) == 1
    assert tl.free_slots == 4


def test_move_requires_reassignment():
    tl = TwoLevelRegisterFile(4, free_threshold=10)
    tl.allocate(1)
    assert tl.tick(0) == 0  # not reassigned -> architecturally current


def test_move_engine_respects_threshold():
    tl = TwoLevelRegisterFile(8, free_threshold=2)
    for vid in range(3):
        tl.allocate(vid)
        tl.reassigned(vid, now=0)
    # free_slots = 5 >= threshold 2: no moves performed.
    assert tl.tick(0) == 0


def test_move_bandwidth_limit():
    tl = TwoLevelRegisterFile(8, free_threshold=20, move_bandwidth=2)
    for vid in range(6):
        tl.allocate(vid)
        tl.reassigned(vid, now=0)
    assert tl.tick(0) == 2
    assert tl.tick(1) == 2


def test_free_after_move_does_not_double_credit():
    tl = TwoLevelRegisterFile(4, free_threshold=10)
    tl.allocate(1)
    tl.reassigned(1, now=0)
    tl.tick(0)
    slots_after_move = tl.free_slots
    tl.free(1)
    assert tl.free_slots == slots_after_move


def test_recovery_restores_recent_moves():
    tl = TwoLevelRegisterFile(8, free_threshold=10, recovery_window=50,
                              move_bandwidth=1, l2_latency=4)
    for vid in range(4):
        tl.allocate(vid)
        tl.reassigned(vid, now=0)
    for cycle in range(4):
        tl.tick(cycle)
    assert tl.moves == 4
    extra = tl.on_mispredict(resolve_cycle=5, refill_cycles=2)
    # Transfer = l2_latency + ceil(4/1) = 8 > refill 2 -> 6 extra stalls.
    assert extra == 6
    assert tl.restores == 4
    # Restored values occupy L1 slots again.
    assert tl.l1_occupancy == 4


def test_recovery_ignores_old_moves():
    tl = TwoLevelRegisterFile(8, free_threshold=10, recovery_window=4)
    tl.allocate(1)
    tl.reassigned(1, now=0)
    tl.tick(0)
    assert tl.on_mispredict(resolve_cycle=100, refill_cycles=11) == 0
    assert tl.restores == 0


def test_rename_stall_accounting():
    tl = TwoLevelRegisterFile(4)
    tl.note_rename_stall()
    tl.note_rename_stall(3)
    assert tl.rename_stall_cycles == 4
