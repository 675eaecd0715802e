"""Differentiable audio effects modeling.

Neural backbones (recurrent and convolutional) and trainable DSP chains
(EQ, gain, offset, memoryless nonlinearities) share one reverse-mode
autodiff engine, one training loop, and one analysis toolkit.
"""

from .tensor import (
    Tensor,
    Tape,
    set_default_dtype,
    default_dtype,
    grad_check,
)

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "Tape",
    "set_default_dtype",
    "default_dtype",
    "grad_check",
    "__version__",
]
