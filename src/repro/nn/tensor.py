"""Autograd tensor engine.

This module implements a small but complete reverse-mode automatic
differentiation engine on top of numpy.  It is the substrate that replaces
TensorFlow in the original MixNN evaluation: everything downstream (federated
clients, the ``∇Sim`` attack, the MixNN proxy) only ever consumes parameter
arrays and gradients, which this engine produces with the same semantics as a
mainstream framework.

Design notes
------------
* A :class:`Tensor` wraps a ``numpy.ndarray`` (``float32`` by default) plus an
  optional gradient buffer.
* Each differentiable operation records a backward closure that accumulates
  its inputs' gradients (summing over broadcast axes, like every major
  framework).
* :class:`GradTape` is the one backward engine: ops append themselves to a
  flat tape in execution order, and :meth:`GradTape.backward` walks the tape
  once in reverse — no visited-set topological sort, and intermediate
  gradient buffers are dropped as soon as their closure has fired.  Reverse
  execution order is a valid topological order because every consumer of a
  tensor is recorded after it.  An op run outside a tape is on no tape, so
  nothing backpropagates through it.
* Gradient tracking can be suspended with the :func:`no_grad` context manager,
  used by evaluation loops and by the attack code when it only needs forward
  passes.  The grad flag and the active tape are **thread-local**: a
  ``no_grad`` evaluation on one thread cannot disable recording for a
  training step in flight on another, and each thread records on its own
  tape (the simulation's ``parallelism`` pool trains clients on threads).
* When gradients are off (or no input requires them), ops skip the backward
  closure entirely and return a bare output tensor through
  :meth:`Tensor._lean` — the hot path for evaluation and attack forward
  passes.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Tensor",
    "GradTape",
    "no_grad",
    "is_grad_enabled",
    "as_tensor",
    "concatenate",
    "stack",
]


class _EngineState(threading.local):
    """Per-thread autograd state: the grad switch and the active tape."""

    def __init__(self) -> None:
        self.grad_enabled = True
        self.tape: list[Tensor] | None = None


_STATE = _EngineState()


@contextlib.contextmanager
def no_grad():
    """Context manager disabling gradient graph construction.

    Thread-local: only the calling thread stops recording, so concurrent
    training threads are unaffected.
    """
    previous = _STATE.grad_enabled
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations on this thread currently record gradients."""
    return _STATE.grad_enabled


class GradTape:
    """Lean autograd mode: a flat op tape walked once backward.

    Entering the tape makes every recorded op append its output tensor to
    ``self.nodes`` (in execution order) on the current thread;
    :meth:`backward` is a single reverse walk with in-place gradient
    accumulation and eager intermediate-buffer release.
    """

    __slots__ = ("nodes", "_previous")

    def __init__(self) -> None:
        self.nodes: list[Tensor] = []
        self._previous: list[Tensor] | None = None

    def __enter__(self) -> "GradTape":
        self._previous = _STATE.tape
        _STATE.tape = self.nodes
        return self

    def __exit__(self, *exc_info) -> None:
        _STATE.tape = self._previous
        self._previous = None

    def backward(self, output: "Tensor", grad: np.ndarray | None = None) -> None:
        """Backpropagate from ``output`` through the recorded tape.

        ``output`` must have been recorded on this tape (``RuntimeError``
        otherwise: a forward pass run outside the ``with`` block would
        backpropagate nothing).  Non-scalar outputs need an explicit seed
        ``grad`` (e.g. ones over a per-client loss vector).  Intermediate
        gradients are freed as soon as consumed; leaf gradients (parameters)
        are left accumulated for the optimizer.
        """
        if not output.requires_grad:
            raise RuntimeError("backward() called on a tensor without grad tracking")
        nodes = self.nodes
        # A training step's loss is the last op recorded: one identity check.
        if not any(node is output for node in reversed(nodes)):
            raise RuntimeError("backward() output was not recorded on this tape")
        if grad is None:
            if output.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(output.data)
        output._accumulate(np.asarray(grad, dtype=np.float32))
        for node in reversed(nodes):
            node_grad = node.grad
            if node_grad is not None:
                if node._backward is not None:
                    node._backward(node_grad)
                # Every tape entry is op-created (leaves are never recorded),
                # so its buffer is dead once its closure fired.
                node.grad = None

    def clear(self) -> None:
        """Forget the recorded ops (reuse the tape across steps)."""
        self.nodes.clear()


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "op")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf") -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _STATE.grad_enabled
        self._backward: Callable[[np.ndarray], None] | None = None
        self.op = op

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self.op!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut off from the autograd graph."""
        return Tensor(self.data, requires_grad=False, op="detach")

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False, op="copy")

    # ------------------------------------------------------------------
    # Gradient plumbing
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float32)
        if self.grad is None:
            # Own the buffer: callers may pass (and later reuse) their arrays.
            self.grad = grad.copy()
        else:
            # In place — the buffer is private from the copy above, so no
            # reallocation per accumulation.
            self.grad += grad

    # ------------------------------------------------------------------
    # Operator construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _lean(data, op: str) -> "Tensor":
        """Bare output tensor: no grad, no closure retained."""
        out = object.__new__(Tensor)
        out.data = np.asarray(data, dtype=np.float32)
        out.grad = None
        out.requires_grad = False
        out._backward = None
        out.op = op
        return out

    @staticmethod
    def _record(data, backward: Callable[[np.ndarray], None], op: str) -> "Tensor":
        """Build a grad-tracking output node and append it to the active
        tape; callers guarantee grad is enabled and at least one input
        requires it."""
        out = object.__new__(Tensor)
        out.data = np.asarray(data, dtype=np.float32)
        out.grad = None
        out.requires_grad = True
        out._backward = backward
        out.op = op
        tape = _STATE.tape
        if tape is not None:
            tape.append(out)
        return out

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data
        if not (_STATE.grad_enabled and (self.requires_grad or other.requires_grad)):
            return Tensor._lean(out_data, "add")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._record(out_data, backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        if not (_STATE.grad_enabled and self.requires_grad):
            return Tensor._lean(-self.data, "neg")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._record(-self.data, backward, "neg")

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data
        if not (_STATE.grad_enabled and (self.requires_grad or other.requires_grad)):
            return Tensor._lean(out_data, "mul")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._record(out_data, backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data
        if not (_STATE.grad_enabled and (self.requires_grad or other.requires_grad)):
            return Tensor._lean(out_data, "div")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad * self.data / (other.data**2), other.shape))

        return Tensor._record(out_data, backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent
        if not (_STATE.grad_enabled and self.requires_grad):
            return Tensor._lean(out_data, "pow")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._record(out_data, backward, "pow")

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data
        if not (_STATE.grad_enabled and (self.requires_grad or other.requires_grad)):
            return Tensor._lean(out_data, "matmul")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if self.data.ndim == 2 else grad * other.data)
                else:
                    g = grad @ np.swapaxes(other.data, -1, -2)
                    self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad))
                else:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                    other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._record(out_data, backward, "matmul")

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        if not (_STATE.grad_enabled and self.requires_grad):
            return Tensor._lean(out_data, "exp")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._record(out_data, backward, "exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)
        if not (_STATE.grad_enabled and self.requires_grad):
            return Tensor._lean(out_data, "log")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._record(out_data, backward, "log")

    def sqrt(self) -> "Tensor":
        return self**0.5

    def relu(self) -> "Tensor":
        mask = self.data > 0
        if not (_STATE.grad_enabled and self.requires_grad):
            return Tensor._lean(self.data * mask, "relu")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._record(self.data * mask, backward, "relu")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        if not (_STATE.grad_enabled and self.requires_grad):
            return Tensor._lean(out_data, "tanh")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._record(out_data, backward, "tanh")

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        if not (_STATE.grad_enabled and self.requires_grad):
            return Tensor._lean(out_data, "sigmoid")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._record(out_data, backward, "sigmoid")

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        if not (_STATE.grad_enabled and self.requires_grad):
            return Tensor._lean(out_data, "clip")
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._record(out_data, backward, "clip")

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        if not (_STATE.grad_enabled and self.requires_grad):
            return Tensor._lean(out_data, "abs")
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return Tensor._record(out_data, backward, "abs")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if not (_STATE.grad_enabled and self.requires_grad):
            return Tensor._lean(out_data, "sum")

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if np.isscalar(axis) else tuple(axis)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._record(out_data, backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if np.isscalar(axis) else tuple(axis)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        if not (_STATE.grad_enabled and self.requires_grad):
            return Tensor._lean(out_data, "max")

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                axes = (axis,) if np.isscalar(axis) else tuple(axis)
                for a in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, a)
                    out = np.expand_dims(out, a)
            mask = self.data == out
            # Split gradient evenly among ties, matching numpy-style subgradients.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / counts)

        return Tensor._record(out_data, backward, "max")

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        if not (_STATE.grad_enabled and self.requires_grad):
            return Tensor._lean(out_data, "reshape")
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._record(out_data, backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        out_data = self.data.transpose(axes)
        if not (_STATE.grad_enabled and self.requires_grad):
            return Tensor._lean(out_data, "transpose")
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._record(out_data, backward, "transpose")

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        if not (_STATE.grad_enabled and self.requires_grad):
            return Tensor._lean(out_data, "getitem")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._record(out_data, backward, "getitem")


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    if not (_STATE.grad_enabled and any(t.requires_grad for t in tensors)):
        return Tensor._lean(out_data, "concatenate")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(int(start), int(stop))
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._record(out_data, backward, "concatenate")


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    if not (_STATE.grad_enabled and any(t.requires_grad for t in tensors)):
        return Tensor._lean(out_data, "stack")

    def backward(grad: np.ndarray) -> None:
        slices = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, slices):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._record(out_data, backward, "stack")
