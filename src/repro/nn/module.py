"""Module system: stateful containers for parameters and sub-modules.

Mirrors the ``torch.nn.Module`` contract closely enough that the model code
in :mod:`repro.models` reads like ordinary PyTorch:

* parameters and sub-modules assigned as attributes are registered
  automatically;
* ``parameters()`` / ``named_parameters()`` walk the tree;
* ``state_dict()`` / ``load_state_dict()`` serialise every parameter and
  buffer (running statistics, quantisation scales, ...);
* ``train()`` / ``eval()`` toggle behaviour of dropout and batch-norm.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential", "ModuleList"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable model parameter."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules.

    Sub-classes implement :meth:`forward`; calling the module invokes it.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training: bool = True

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
        """Register a non-trainable array that is part of the module state."""
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    def add_module(self, name: str, module: "Module") -> None:
        """Register a child module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs for the whole subtree."""
        for name, parameter in self._parameters.items():
            yield (prefix + name, parameter)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> List[Parameter]:
        """Return every trainable parameter in the subtree."""
        return [parameter for _, parameter in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(qualified_name, buffer)`` pairs for the whole subtree."""
        for name, buffer in self._buffers.items():
            yield (prefix + name, buffer)
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{child_name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant module."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` for this module and every descendant."""
        yield prefix, self
        for child_name, child in self._modules.items():
            yield from child.named_modules(f"{prefix}.{child_name}" if prefix else child_name)

    def children(self) -> Iterator["Module"]:
        """Yield the immediate child modules."""
        yield from self._modules.values()

    # ------------------------------------------------------------------ #
    # Mode switching / gradient handling
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        """Put the whole subtree in training (or evaluation) mode."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Put the whole subtree in evaluation mode."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear the gradients of every parameter in the subtree."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def num_parameters(self, trainable_only: bool = True) -> int:
        """Total number of scalar parameters in the subtree."""
        return int(sum(parameter.size for parameter in self.parameters()))

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat mapping of every parameter and buffer value."""
        state: Dict[str, np.ndarray] = {}
        for name, parameter in self.named_parameters():
            state[name] = parameter.data.copy()
        for name, buffer in self.named_buffers():
            state[name] = np.asarray(buffer).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter and buffer values previously produced by :meth:`state_dict`."""
        own_parameters = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        missing = (set(own_parameters) | set(own_buffers)) - set(state)
        unexpected = set(state) - (set(own_parameters) | set(own_buffers))
        if strict and (missing or unexpected):
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, parameter in own_parameters.items():
            if name in state:
                value = np.asarray(state[name])
                if value.shape != parameter.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: expected {parameter.shape}, got {value.shape}"
                    )
                parameter.data[...] = value
        for name, buffer in own_buffers.items():
            if name in state:
                value = np.asarray(state[name])
                buffer[...] = value.reshape(buffer.shape)

    # ------------------------------------------------------------------ #
    # Invocation
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        """Compute the module output; must be overridden by sub-classes."""
        raise NotImplementedError(f"{type(self).__name__} does not implement forward()")

    def __call__(self, *args, **kwargs):
        # A Tensor subclass may take over module calls on it, like PyTorch's
        # ``__torch_function__``; the deploy tracer's recording tensor does.
        intercept = getattr(type(args[0]), "__module_call__", None) if args else None
        if intercept is not None:
            return intercept(args[0], self, *args[1:], **kwargs)
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_lines = []
        for name, child in self._modules.items():
            child_repr = repr(child).replace("\n", "\n  ")
            child_lines.append(f"  ({name}): {child_repr}")
        body = "\n".join(child_lines)
        if body:
            return f"{type(self).__name__}(\n{body}\n)"
        return f"{type(self).__name__}()"


class Sequential(Module):
    """Container that applies child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for index, module in enumerate(modules):
            self.add_module(str(index), module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def forward(self, x):
        for module in self._modules.values():
            x = module(x)
        return x


class ModuleList(Module):
    """Holds sub-modules in a list so they are properly registered."""

    def __init__(self, modules: Optional[Iterable[Module]] = None) -> None:
        super().__init__()
        self._length = 0
        if modules is not None:
            for module in modules:
                self.append(module)

    def append(self, module: Module) -> "ModuleList":
        """Append a module to the list."""
        self.add_module(str(self._length), module)
        self._length += 1
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> Module:
        return self._modules[str(range(self._length)[index])]

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called directly")
