"""Analytical models (paper Fig. 7(b))."""

from .. import _surface

__getattr__, __dir__, __all__ = _surface(globals(), {
    "PipelineModel": "model",
    "expected_packets": "model",
})
