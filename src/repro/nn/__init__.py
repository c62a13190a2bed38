"""``repro.nn`` — numpy autograd neural-network substrate.

Replaces the TensorFlow dependency of the original MixNN implementation with a
self-contained engine: tensors with reverse-mode autodiff, the layer types the
paper's architectures need (dense, conv2d, maxpool, locally connected), losses
and optimizers (Adam, SGD), plus state-dict/flat-vector serialization used by
the federated pipeline and the ∇Sim attack.
"""

from . import functional
from .init import glorot_uniform, he_normal, he_uniform, normal, zeros
from .layers import (
    AvgPool2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    LocallyConnected2d,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
)
from .loss import BCEWithLogitsLoss, CrossEntropyLoss, MSELoss
from .module import Module, Parameter, Sequential
from .optim import SGD, Adam, Optimizer
from .serialization import (
    flatten,
    load_state,
    save_state,
    state_from_bytes,
    state_to_bytes,
)
from .utils import clip_grad_norm_, freeze, global_grad_norm, unfreeze
from .tensor import GradTape, Tensor, as_tensor, concatenate, is_grad_enabled, no_grad, stack

__all__ = [
    "Tensor",
    "GradTape",
    "as_tensor",
    "concatenate",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv2d",
    "LocallyConnected2d",
    "MaxPool2d",
    "AvgPool2d",
    "Flatten",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Dropout",
    "CrossEntropyLoss",
    "MSELoss",
    "BCEWithLogitsLoss",
    "Optimizer",
    "SGD",
    "Adam",
    "flatten",
    "state_to_bytes",
    "state_from_bytes",
    "save_state",
    "load_state",
    "global_grad_norm",
    "clip_grad_norm_",
    "freeze",
    "unfreeze",
    "glorot_uniform",
    "he_normal",
    "he_uniform",
    "normal",
    "zeros",
]
