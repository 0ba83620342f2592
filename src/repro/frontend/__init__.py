"""Front-end models: branch prediction and fetch timing."""

from repro.frontend.branch import BimodalPredictor, SaturatingCounter, YagsPredictor
from repro.frontend.btb import IndirectPredictor, ReturnAddressStack
from repro.frontend.fetch import FrontEnd

__all__ = [
    "BimodalPredictor",
    "FrontEnd",
    "IndirectPredictor",
    "ReturnAddressStack",
    "SaturatingCounter",
    "YagsPredictor",
]
