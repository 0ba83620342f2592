"""Unit tests for branch direction predictors."""

from repro.frontend.branch import BimodalPredictor, YagsPredictor


def test_bimodal_learns_bias():
    predictor = BimodalPredictor(entries=64)
    for _ in range(4):
        predictor.update(5, False)
    assert predictor.predict(5) is False
    for _ in range(4):
        predictor.update(5, True)
    assert predictor.predict(5) is True


def test_bimodal_hysteresis():
    predictor = BimodalPredictor(entries=64)
    for _ in range(4):
        predictor.update(5, True)
    predictor.update(5, False)  # single disagreement
    assert predictor.predict(5) is True


def test_bimodal_index_wraps():
    predictor = BimodalPredictor(entries=16)
    predictor.update(3, False)
    predictor.update(3 + 16, False)
    assert predictor.predict(3) is False


def test_yags_learns_static_branch():
    predictor = YagsPredictor(choice_entries=256, cache_entries=64)
    for _ in range(8):
        predictor.update(10, True)
    assert predictor.predict(10) is True


def test_yags_learns_alternating_with_history():
    predictor = YagsPredictor(choice_entries=256, cache_entries=256,
                              history_bits=4)
    # Alternating pattern: global history disambiguates.
    outcomes = [True, False] * 200
    for outcome in outcomes:
        predictor.update(42, outcome)
    correct = 0
    for outcome in [True, False] * 20:
        if predictor.predict(42) == outcome:
            correct += 1
        predictor.update(42, outcome)
    assert correct >= 35  # near-perfect once trained


def test_yags_accuracy_tracking():
    predictor = YagsPredictor(choice_entries=64, cache_entries=32)
    for _ in range(20):
        predictor.update(7, True)
    assert predictor.lookups == 20
    assert 0.0 <= predictor.accuracy <= 1.0
    assert predictor.accuracy > 0.7


def test_yags_biased_loop_branch_high_accuracy():
    """A loop-closing branch (taken N-1 of N) should predict well."""
    predictor = YagsPredictor()
    pattern = ([True] * 9 + [False]) * 50
    for outcome in pattern:
        predictor.update(99, outcome)
    assert predictor.accuracy > 0.85
