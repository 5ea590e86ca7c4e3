"""Reverse-mode autodiff over dense numpy arrays.

Every trainable quantity in this package is a Tensor. Each op records its
parent tensors and a backward rule; Tensor.backward() replays the recorded
graph in reverse topological order and accumulates gradients into the
leaves. Training graphs run in float32; gradient-checking oracles rebuild
the same graphs in float64 for headroom.

Broadcasting follows numpy's trailing-dimension rule (plus plain python
scalars). Nothing else is supported, and incompatible shapes are rejected
up front with both shapes in the message.

Forward passes are pure and deterministic: the same inputs produce
bit-identical outputs. Reading shared tensors from multiple threads is
safe; mutation (optimizer steps, gradient accumulation) must be exclusive.

Ops inside a no_grad() block record no graph; eval passes run there. The
switch is per thread, so a training thread keeps recording meanwhile.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable

import numpy as np

Array = np.ndarray


def _stable_sigmoid(x: Array) -> Array:
    # exp(-|x|) <= 1, so neither branch can overflow
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _check_broadcast(a_shape: tuple, b_shape: tuple) -> tuple:
    try:
        return np.broadcast_shapes(a_shape, b_shape)
    except ValueError:
        raise ValueError(
            f"shapes {a_shape} and {b_shape} are not broadcast-compatible"
        ) from None


def _unbroadcast(grad: Array, shape: tuple) -> Array:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if squeeze:
        grad = grad.sum(axis=squeeze, keepdims=True)
    return grad


class Tensor:
    """A dense array plus optional gradient bookkeeping.

    Integer input data is promoted to float32; float32/float64 arrays keep
    their dtype so the same graph code serves both the training path and
    the 64-bit finite-difference oracles.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data: Array = arr
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[Array], None] | None = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # -- graph plumbing ------------------------------------------------------

    def _accumulate(self, g: Array) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # a copy, never g itself: g may be a read-only broadcast view, or
            # the same array handed to another parent
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad for every reachable leaf.

        self must hold a single scalar. Grads add into any existing .grad,
        so call zero_grad() between optimizer steps. A non-leaf's .grad
        (self's included) is freed, set to None, once its own backward has
        run, so only the leaves hold gradients afterwards.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward() needs a scalar loss, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                g, node.grad = node.grad, None
                node._backward_fn(g)

    # -- arithmetic ----------------------------------------------------------

    def _lift(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        other = self._lift(other)
        _check_broadcast(self.shape, other.shape)
        a, b = self, other

        def backward(g: Array) -> None:
            a._accumulate(_unbroadcast(g, a.shape))
            b._accumulate(_unbroadcast(g, b.shape))

        return apply_op(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._lift(other)
        _check_broadcast(self.shape, other.shape)
        a, b = self, other

        def backward(g: Array) -> None:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
            b._accumulate(_unbroadcast(g * a.data, b.shape))

        return apply_op(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Tensor):
            other = self._lift(other)
        a, b = self, other
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(
                f"matmul expects two 2-D tensors, got {a.shape} and {b.shape}"
            )
        if a.shape[1] != b.shape[0]:
            raise ValueError(
                f"matmul inner dimensions differ: {a.shape} vs {b.shape}"
            )

        def backward(g: Array) -> None:
            a._accumulate(g @ b.data.T)
            b._accumulate(a.data.T @ g)

        return apply_op(a.data @ b.data, (a, b), backward)

    # -- reductions and shape ops ---------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        return self._reduce("sum", axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return self._reduce("mean", axis, keepdims)

    def _reduce(self, how: str, axis, keepdims: bool):
        """a.data.sum or .mean over axis; the backward spreads g over the
        reduced axes, divided by their element count for a mean."""
        a = self
        axes = _normalize_axes(axis, a.ndim)
        if axes is None:
            count = a.data.size
        else:
            count = int(np.prod([a.shape[ax] for ax in axes]))

        def backward(g: Array) -> None:
            gg = g / count if how == "mean" else g
            if axes is not None and not keepdims:
                for ax in sorted(axes):
                    gg = np.expand_dims(gg, ax)
            a._accumulate(np.broadcast_to(gg, a.shape).astype(a.dtype, copy=False))

        return apply_op(getattr(a.data, how)(axis=axes, keepdims=keepdims), (a,),
                        backward)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.shape

        def backward(g: Array) -> None:
            a._accumulate(g.reshape(old))

        return apply_op(a.data.reshape(shape), (a,), backward)

    def __getitem__(self, key):
        a = self

        def backward(g: Array) -> None:
            full = np.zeros_like(a.data)
            np.add.at(full, key, g)
            a._accumulate(full)

        return apply_op(a.data[key].copy(), (a,), backward)


def _normalize_axes(axis, ndim: int) -> tuple | None:
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


_grad_off = threading.local()


def recording() -> bool:
    """False inside a no_grad() block of this thread: ops record no graph."""
    return not getattr(_grad_off, "on", False)


@contextmanager
def no_grad():
    """Ops in this thread record no graph until the block exits."""
    prev, _grad_off.on = getattr(_grad_off, "on", False), True
    try:
        yield
    finally:
        _grad_off.on = prev


def apply_op(
    data: Array,
    parents: Iterable[Tensor],
    backward_fn: Callable[[Array], None],
) -> Tensor:
    """Wrap an op result, attaching graph edges only if a parent needs grad
    and this thread is not inside no_grad()."""
    parents = tuple(parents)
    out = Tensor(data)
    if recording() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out
