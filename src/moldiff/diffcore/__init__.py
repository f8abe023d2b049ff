"""Numeric substrate: taped autodiff, Adam, the DCT basis, RK4, checkpoints."""

from .checkpoint import CheckpointError, load_params, save_params
from .ode import NonFiniteField, ode_integrate
from .optim import AdamState, adam_step
from .tensor import (
    DetachedLoss,
    EmptyInput,
    LossNotScalar,
    ShapeMismatch,
    Tape,
    Tensor,
    backward,
    dct_matrix,
    param,
)

__all__ = [
    "AdamState", "CheckpointError", "DetachedLoss", "EmptyInput", "LossNotScalar",
    "NonFiniteField", "ShapeMismatch", "Tape", "Tensor", "adam_step", "backward",
    "dct_matrix", "load_params", "ode_integrate", "param", "save_params",
]
