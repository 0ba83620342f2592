"""Degree-of-use prediction (Butts & Sohi, MICRO 2002; paper §3.3).

The predictor associates the number of consumers of an instruction's
result with the instruction's address plus a hash of *future control
flow* (the directions of the next few branches), because the same static
instruction can have different use counts on different paths.

Table 1 budget: 9KB = 4K entries, 4-way set-associative, 2-bit
confidence, 6-bit future-control-flow hash, 6-bit tag, 4-bit prediction.

A prediction is supplied only when the entry's confidence counter is
saturated; otherwise the caller applies the *unknown default* (paper
§3.3). Training happens when a physical register is freed and the true
consumer count is known. A misprediction resets confidence, so a few
instances are needed before an instruction predicts again — this is the
"training period" the paper mentions.

In this trace-driven reproduction the future-control-flow bits come from
the committed trace (:func:`compute_fcf`) rather than from front-end
predictions; with ~95 % branch accuracy these agree almost always, and
optional noise injection (``wrongpath_noise``) models the residual
wrong-path use counting the paper describes in §3.4.
"""

from __future__ import annotations

import random

from repro.vm.trace import DEFAULT_FCF_BITS, Trace
from repro.vm.trace import compute_fcf as _compute_fcf

#: Number of future conditional-branch directions hashed into the index.
#: The paper's predictor stores a 6-bit future-control-flow field; we
#: fold fewer bits by default because our kernels' static footprints are
#: tiny and data-dependent inner-loop trip counts otherwise fragment
#: training across many patterns, depressing coverage far below the
#: paper's (see DESIGN.md fidelity notes). The canonical value lives in
#: :data:`repro.vm.trace.DEFAULT_FCF_BITS` so the trace factory can
#: precompute (and cache) the hash alongside each trace.
FCF_BITS = DEFAULT_FCF_BITS


def compute_fcf(trace: Trace) -> list[int]:
    """Future-control-flow hash for every trace position.

    ``fcf[i]`` encodes the directions of the first :data:`FCF_BITS`
    conditional branches strictly after position ``i`` (most imminent
    branch in the least-significant bit). Delegates to the trace-factory
    implementation (:func:`repro.vm.trace.compute_fcf`); prefer
    ``trace.analysis().fcf`` which computes it once and caches it.
    """
    return _compute_fcf(trace, FCF_BITS)


class _Entry:
    """One predictor entry."""

    __slots__ = ("tag", "prediction", "confidence", "lru")

    def __init__(self, tag: int, prediction: int, lru: int) -> None:
        self.tag = tag
        self.prediction = prediction
        self.confidence = 0
        self.lru = lru


class DegreeOfUsePredictor:
    """Set-associative tagged degree-of-use predictor.

    Args:
        entries: total entry count (default 4K per Table 1).
        assoc: set associativity (default 4).
        tag_bits: tag width (default 6).
        prediction_bits: width of the stored use count (default 4; the
            stored value saturates at ``2**prediction_bits - 1``).
        confidence_max: confidence saturation value (2-bit counter -> 3).
        confidence_threshold: minimum confidence to supply a prediction.
        wrongpath_noise: probability that a training sample is perturbed
            by +/-1, modelling wrong-path use counting (paper §3.4).
        seed: RNG seed for noise injection.
    """

    def __init__(
        self,
        entries: int = 4_096,
        assoc: int = 4,
        tag_bits: int = 6,
        prediction_bits: int = 4,
        confidence_max: int = 3,
        confidence_threshold: int = 1,
        wrongpath_noise: float = 0.0,
        seed: int = 99,
    ) -> None:
        if entries % assoc:
            raise ValueError("entries must be a multiple of assoc")
        self.num_sets = entries // assoc
        self.assoc = assoc
        self.tag_mask = (1 << tag_bits) - 1
        self.max_prediction = (1 << prediction_bits) - 1
        self.confidence_max = confidence_max
        self.confidence_threshold = confidence_threshold
        self.wrongpath_noise = wrongpath_noise
        self._rng = random.Random(seed)
        self._sets: list[list[_Entry]] = [[] for _ in range(self.num_sets)]
        self._clock = 0
        # Accounting (exposed for the S33 experiment).
        self.queries = 0
        self.supplied = 0
        self.correct = 0

    # ------------------------------------------------------------------

    def slot(self, pc: int, fcf: int) -> tuple[int, int]:
        """The ``(set index, tag)`` that *pc* under *fcf* maps to."""
        return (pc ^ (fcf << 5)) % self.num_sets, ((pc >> 2) ^ fcf) & self.tag_mask

    def slots_for(self, trace: Trace) -> list[tuple[int, int]]:
        """Per-record :meth:`slot`, memoized on the trace.

        The slot depends only on a record's pc and future control flow
        and on the predictor's geometry, so every configuration with the
        same geometry shares one list per trace and no query hashes.
        """
        memo = getattr(trace, "_predictor_slots", None)
        if memo is None:
            memo = trace._predictor_slots = {}
        key = (self.num_sets, self.tag_mask)
        slots = memo.get(key)
        if slots is None:
            slot = self.slot
            fcf = trace.analysis().fcf
            slots = memo[key] = [
                slot(record.pc, fcf[seq])
                for seq, record in enumerate(trace.records)
            ]
        return slots

    def _locate(self, pc: int, fcf: int) -> tuple[list[_Entry], int]:
        set_index, tag = self.slot(pc, fcf)
        return self._sets[set_index], tag

    def predict(self, pc: int, fcf: int) -> int | None:
        """Predicted degree of use, or ``None`` when not confident.

        A confident prediction equal to :attr:`max_prediction` means "this
        many uses *or more*" — callers treat it as a saturated count.
        """
        return self.predict_slot(self.slot(pc, fcf))

    def predict_slot(self, slot: tuple[int, int]) -> int | None:
        """:meth:`predict` for a precomputed :meth:`slot`."""
        self.queries += 1
        set_index, tag = slot
        for entry in self._sets[set_index]:
            if entry.tag == tag:
                self._clock += 1
                entry.lru = self._clock
                if entry.confidence >= self.confidence_threshold:
                    self.supplied += 1
                    return entry.prediction
                return None
        return None

    def train(
        self, pc: int, fcf: int, actual_uses: int,
        predicted: int | None = None,
    ) -> None:
        """Train with the observed *actual_uses* of the value at *pc*.

        *predicted* is what :meth:`predict` supplied for the value, if
        anything; a supplied prediction equal to the (saturated) actual
        count is scored as correct for :attr:`accuracy`.
        """
        self.train_slot(self.slot(pc, fcf), actual_uses, predicted)

    def train_slot(
        self, slot: tuple[int, int], actual_uses: int,
        predicted: int | None = None,
    ) -> None:
        """:meth:`train` for a precomputed :meth:`slot`."""
        actual = min(actual_uses, self.max_prediction)
        if predicted is not None and predicted == actual:
            self.correct += 1
        if self.wrongpath_noise and self._rng.random() < self.wrongpath_noise:
            actual = min(
                max(0, actual_uses + self._rng.choice((-1, 1))),
                self.max_prediction,
            )
        set_index, tag = slot
        entries = self._sets[set_index]
        self._clock += 1
        for entry in entries:
            if entry.tag == tag:
                if entry.prediction == actual:
                    if entry.confidence < self.confidence_max:
                        entry.confidence += 1
                else:
                    entry.prediction = actual
                    entry.confidence = 0
                entry.lru = self._clock
                return
        new_entry = _Entry(tag, actual, self._clock)
        if len(entries) < self.assoc:
            entries.append(new_entry)
        else:
            victim = min(range(len(entries)), key=lambda i: entries[i].lru)
            entries[victim] = new_entry

    # ------------------------------------------------------------------
    # Accuracy accounting: train() scores each supplied prediction
    # against the actual count.

    @property
    def accuracy(self) -> float:
        """Fraction of supplied predictions that matched the actual count."""
        return self.correct / self.supplied if self.supplied else 0.0

    @property
    def coverage(self) -> float:
        """Fraction of queries for which a prediction was supplied."""
        return self.supplied / self.queries if self.queries else 0.0
