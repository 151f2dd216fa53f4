"""``repro.nn`` — a from-scratch NumPy deep-learning substrate.

The original Bioformers paper trains its models with PyTorch 1.8.1.  PyTorch
is not available in this environment, so this package re-implements the
subset of a deep-learning framework the paper needs: a reverse-mode autograd
engine over NumPy arrays, the layers used by Bioformer and TEMPONet
(linear, 1-D convolution, layer / batch normalisation, dropout, multi-head
self-attention), cross-entropy training with Adam and the paper's learning
rate schedules, and ``state_dict`` serialisation for the pre-train /
fine-tune hand-off.

The public surface mirrors ``torch``/``torch.nn`` naming so the model code
in :mod:`repro.models` reads like the original implementation would.
"""

from . import functional
from . import init
from .attention import FeedForward, MultiHeadSelfAttention, TransformerEncoderBlock
from .gradcheck import GradientCheckError, check_gradient, check_module_gradients, numerical_gradient
from .layers import (
    AvgPool1d,
    BatchNorm1d,
    Conv1d,
    Dropout,
    Flatten,
    GELU,
    GlobalAveragePool1d,
    Identity,
    LayerNorm,
    Linear,
    MaxPool1d,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
)
from .losses import CrossEntropyLoss
from .module import Module, ModuleList, Parameter, Sequential
from .optim import SGD, Adam, AdamW, Optimizer, clip_grad_norm
from .schedulers import (
    ConstantSchedule,
    CosineDecay,
    LinearWarmup,
    Scheduler,
    StepDecay,
)
from .serialization import load_checkpoint, load_state_dict, save_checkpoint, save_state_dict
from .summary import ModelSummary, ModuleRow, summarize
from .tensor import Tensor, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "functional",
    "init",
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv1d",
    "LayerNorm",
    "BatchNorm1d",
    "Dropout",
    "ReLU",
    "GELU",
    "Softmax",
    "Tanh",
    "Sigmoid",
    "Identity",
    "Flatten",
    "AvgPool1d",
    "MaxPool1d",
    "GlobalAveragePool1d",
    "MultiHeadSelfAttention",
    "FeedForward",
    "TransformerEncoderBlock",
    "CrossEntropyLoss",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "clip_grad_norm",
    "Scheduler",
    "ConstantSchedule",
    "LinearWarmup",
    "StepDecay",
    "CosineDecay",
    "save_checkpoint",
    "load_checkpoint",
    "save_state_dict",
    "load_state_dict",
    "ModelSummary",
    "ModuleRow",
    "summarize",
    "GradientCheckError",
    "numerical_gradient",
    "check_gradient",
    "check_module_gradients",
]
