"""Analytical models (paper Fig. 7(b))."""

from .model import PipelineModel, expected_packets

__all__ = [
    "PipelineModel",
    "expected_packets",
]
