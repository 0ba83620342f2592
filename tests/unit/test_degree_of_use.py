"""Unit tests for the degree-of-use predictor."""

import pytest

from repro.isa.assembler import assemble
from repro.predict.degree_of_use import (
    FCF_BITS,
    DegreeOfUsePredictor,
    compute_fcf,
)
from repro.vm.machine import run_program


def test_cold_predictor_returns_none():
    predictor = DegreeOfUsePredictor()
    assert predictor.predict(100, 0) is None


def test_prediction_requires_confidence():
    predictor = DegreeOfUsePredictor(confidence_threshold=1)
    predictor.train(100, 0, 2)
    # One training: entry exists but confidence 0 -> no prediction.
    assert predictor.predict(100, 0) is None
    predictor.train(100, 0, 2)
    assert predictor.predict(100, 0) == 2


def test_misprediction_resets_confidence():
    predictor = DegreeOfUsePredictor(confidence_threshold=1)
    predictor.train(100, 0, 2)
    predictor.train(100, 0, 2)
    assert predictor.predict(100, 0) == 2
    predictor.train(100, 0, 5)  # change of behaviour
    assert predictor.predict(100, 0) is None
    predictor.train(100, 0, 5)
    assert predictor.predict(100, 0) == 5


def test_prediction_saturates_at_max():
    predictor = DegreeOfUsePredictor(prediction_bits=4,
                                     confidence_threshold=1)
    for _ in range(3):
        predictor.train(100, 0, 500)
    assert predictor.predict(100, 0) == 15


def test_fcf_distinguishes_paths():
    predictor = DegreeOfUsePredictor(confidence_threshold=1)
    for _ in range(3):
        predictor.train(100, 0b001, 1)
        predictor.train(100, 0b111, 4)
    assert predictor.predict(100, 0b001) == 1
    assert predictor.predict(100, 0b111) == 4


def test_set_conflict_eviction_lru():
    predictor = DegreeOfUsePredictor(entries=4, assoc=2, tag_bits=10,
                                     confidence_threshold=0)
    # Fill one set beyond capacity with distinct tags; oldest evicted.
    # With 2 sets, pcs mapping to set 0 differ by multiples of 2.
    pcs = [0, 4, 8]
    for pc in pcs:
        predictor.train(pc, 0, 3)
    # The structure must never exceed its associativity.
    for entries in predictor._sets:
        assert len(entries) <= 2


def test_entries_must_divide_by_assoc():
    with pytest.raises(ValueError):
        DegreeOfUsePredictor(entries=10, assoc=4)


def test_accuracy_accounting():
    predictor = DegreeOfUsePredictor(confidence_threshold=1)
    for _ in range(5):
        predictor.train(7, 0, 1)
    supplied = predictor.predict(7, 0)
    assert supplied == 1
    predictor.train(7, 0, 1, supplied)
    assert predictor.correct == 1
    assert predictor.accuracy == 1.0


def test_accuracy_scores_against_saturated_count():
    predictor = DegreeOfUsePredictor(prediction_bits=4)
    predictor.train(7, 0, 500, 15)  # 500 uses saturate to 15
    predictor.train(7, 0, 3, 2)
    assert predictor.correct == 1


def test_accuracy_scores_unperturbed_count():
    noisy = DegreeOfUsePredictor(wrongpath_noise=1.0, seed=3)
    noisy.train(5, 0, 3, 3)
    assert noisy.correct == 1


def test_train_ignores_unsupplied_prediction():
    predictor = DegreeOfUsePredictor()
    predictor.train(7, 0, 3, None)
    predictor.train(7, 0, 3)
    assert predictor.correct == 0


def test_wrongpath_noise_perturbs_training():
    noisy = DegreeOfUsePredictor(wrongpath_noise=1.0, seed=3,
                                 confidence_threshold=0)
    noisy.train(5, 0, 3)
    # The stored prediction differs from 3 by exactly 1.
    entries, tag = noisy._locate(5, 0)
    value = next(e.prediction for e in entries if e.tag == tag)
    assert value in (2, 4)


def test_compute_fcf_encodes_upcoming_branches():
    trace = run_program(assemble("""
        addi r1, r0, 2
    loop:
        addi r1, r1, -1
        bne r1, r0, loop
        halt
    """))
    fcf = compute_fcf(trace)
    assert len(fcf) == len(trace.records)
    # The first instruction sees both upcoming branch outcomes; the
    # most imminent branch (taken=1) lands in the least-significant bit
    # and the farther one (not taken=0) one bit up: 0b01.
    mask = (1 << FCF_BITS) - 1
    assert fcf[0] == 0b01 & mask
    # The final instruction has no upcoming branches.
    assert fcf[-1] == 0


def test_coverage_property():
    predictor = DegreeOfUsePredictor(confidence_threshold=1)
    predictor.predict(1, 0)
    predictor.train(1, 0, 2)
    predictor.train(1, 0, 2)
    predictor.predict(1, 0)
    assert predictor.queries == 2
    assert predictor.supplied == 1
    assert predictor.coverage == 0.5


@pytest.mark.parametrize("entries,assoc,tag_bits", [
    (4_096, 4, 6), (64, 2, 3), (12, 3, 10),
])
def test_slots_for_matches_locate_on_every_record(entries, assoc, tag_bits):
    trace = run_program(assemble("""
        addi r1, r0, 20
    loop:
        addi r2, r1, 3
        add r3, r2, r1
        addi r1, r1, -1
        bne r1, r0, loop
        halt
    """))
    predictor = DegreeOfUsePredictor(entries, assoc, tag_bits)
    slots = predictor.slots_for(trace)
    fcf = trace.analysis().fcf
    assert len(slots) == len(trace.records)
    for seq, record in enumerate(trace.records):
        set_index, tag = slots[seq]
        entries_list, expected_tag = predictor._locate(record.pc, fcf[seq])
        assert predictor._sets[set_index] is entries_list
        assert tag == expected_tag


def test_slots_for_memoized_per_geometry():
    trace = run_program(assemble("addi r1, r0, 1\nhalt"))
    first = DegreeOfUsePredictor().slots_for(trace)
    assert DegreeOfUsePredictor(wrongpath_noise=0.5).slots_for(trace) is first
    other = DegreeOfUsePredictor(entries=64).slots_for(trace)
    assert other is not first


def test_slot_paths_match_pc_paths():
    by_pc = DegreeOfUsePredictor(confidence_threshold=1)
    by_slot = DegreeOfUsePredictor(confidence_threshold=1)
    slot = by_slot.slot(100, 0b101)
    for uses in (2, 2, 3, 3, 3):
        assert by_pc.predict(100, 0b101) == by_slot.predict_slot(slot)
        by_pc.train(100, 0b101, uses)
        by_slot.train_slot(slot, uses)
    assert (by_pc.queries, by_pc.supplied) == (by_slot.queries, by_slot.supplied)
