"""Module / Parameter abstractions for the numpy neural-network substrate.

The API intentionally mirrors the familiar ``torch.nn.Module`` surface
(`parameters`, `named_parameters`, `state_dict`, `train`/`eval`, submodule
registration through attribute assignment) so the higher-level ALT code reads
naturally.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential", "ModuleList", "clone_module"]


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data, requires_grad: bool = True) -> None:
        super().__init__(data, requires_grad=requires_grad)


class Module:
    """Base class for all neural-network modules."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array saved in ``state_dict`` (e.g. running stats)."""
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------ #
    # Iteration over parameters / modules
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{name}.")

    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return int(sum(p.data.size for p in self.parameters()))

    # ------------------------------------------------------------------ #
    # Training state / gradients
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, param in self._parameters.items():
            state[f"{prefix}{name}"] = param.data.copy()
        for name, buf in self._buffers.items():
            state[f"{prefix}{name}"] = np.asarray(buf).copy()
        for child_name, child in self._modules.items():
            state.update(child.state_dict(prefix=f"{prefix}{child_name}."))
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], prefix: str = "", strict: bool = True) -> None:
        for name, param in self._parameters.items():
            key = f"{prefix}{name}"
            if key in state:
                value = np.asarray(state[key], dtype=np.float64)
                if value.shape != param.data.shape:
                    raise ValueError(
                        f"shape mismatch for {key}: expected {param.data.shape}, got {value.shape}"
                    )
                param.data = value.copy()
            elif strict:
                raise KeyError(f"missing parameter {key} in state dict")
        for name in self._buffers:
            key = f"{prefix}{name}"
            if key in state:
                self._buffers[name] = np.asarray(state[key], dtype=np.float64).copy()
                object.__setattr__(self, name, self._buffers[name])
            elif strict:
                raise KeyError(f"missing buffer {key} in state dict")
        for child_name, child in self._modules.items():
            child.load_state_dict(state, prefix=f"{prefix}{child_name}.", strict=strict)

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def infer(self, *args, **kwargs):
        """:meth:`forward` on ndarrays in place of Tensors, as in eval mode.

        It makes the numpy calls of ``forward``'s data path in the same
        order, so its outputs are bitwise equal, and builds no Tensor and no
        graph.  Dropout is the identity, whatever the module's mode.
        """
        raise NotImplementedError(f"{type(self).__name__} defines no infer")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_repr = ", ".join(self._modules.keys())
        return f"{self.__class__.__name__}({child_repr})"


class Sequential(Module):
    """Apply a list of modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for i, module in enumerate(modules):
            name = f"layer{i}"
            self.add_module(name, module)
            self._order.append(name)

    def append(self, module: Module) -> "Sequential":
        name = f"layer{len(self._order)}"
        self.add_module(name, module)
        self._order.append(name)
        return self

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return (self._modules[name] for name in self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        for name in self._order:
            x = self._modules[name].infer(x)
        return x


class ModuleList(Module):
    """Hold submodules in a list (registered so parameters are visible)."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        self._order: List[str] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        name = f"item{len(self._order)}"
        self.add_module(name, module)
        self._order.append(name)
        return self

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return (self._modules[name] for name in self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def forward(self, *args, **kwargs):  # pragma: no cover - containers have no forward
        raise RuntimeError("ModuleList is a container and cannot be called directly")


def clone_module(module: Module) -> Module:
    """Deep-copy a module (used to copy the scenario agnostic heavy model, Sec. III-C)."""
    return copy.deepcopy(module)
