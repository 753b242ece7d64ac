"""``repro.nn`` — a from-scratch numpy deep-learning substrate.

The paper's models (profile MLP + behaviour sequence encoders, the GDAS
supernet, distilled light models) are all built from this package.  The public
surface mirrors the common ``torch.nn`` idioms: :class:`Tensor` with autograd,
:class:`Module`/:class:`Parameter`, layers, losses, optimisers and data
loaders.
"""

from repro.nn import init, losses
from repro.nn.data import ArrayDataset, Batch, DataLoader, support_query_split, train_test_split
from repro.nn.flops import InputSpec, estimate_module_flops, format_flops
from repro.nn.module import Module, ModuleList, Parameter, Sequential, clone_module
from repro.nn.optim import SGD, Adam, Optimizer, clip_grad_norm
from repro.nn.tensor import Tensor, concatenate, stack

__all__ = [
    "Tensor",
    "concatenate",
    "stack",
    "Module",
    "Parameter",
    "Sequential",
    "ModuleList",
    "clone_module",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "ArrayDataset",
    "Batch",
    "DataLoader",
    "train_test_split",
    "support_query_split",
    "InputSpec",
    "estimate_module_flops",
    "format_flops",
    "init",
    "losses",
]
