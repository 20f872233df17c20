"""Weak callbacks: how an owned part calls back up to its owner.

A simulated system is a tree of owners: the system owns its kernel, MMU,
core and coupling, and each of those owns its parts.  Callbacks point the
other way — the MMU's fault callback into the coupling, the kernel's TLB
listeners into each MMU, khugepaged's shootdown into the kernel — and a
strong callback would close a reference cycle, so a finished system would
linger until the cyclic garbage collector happened to run.  These wrappers
hold a bound method weakly, so dropping a system frees it at once:

* :class:`WeakCallback` is a required callback.  Calling it after its
  owner was freed raises :class:`ReferenceError` naming the method.
* :func:`weak_listener` wraps one listener of a broadcast.  A listener
  whose owner was freed is skipped: a freed MMU has nothing to shoot down.
"""

from __future__ import annotations

from types import MethodType
from typing import Callable
from weakref import WeakMethod


class WeakCallback:
    """A bound method held weakly; calling it after its owner died raises."""

    __slots__ = ("_method", "_name")

    def __init__(self, method: MethodType):
        self._method = WeakMethod(method)
        self._name = method.__qualname__

    def __call__(self, *args):
        method = self._method()
        if method is None:
            raise ReferenceError(f"{self._name} called after its owner was freed")
        return method(*args)


class _WeakListener(WeakCallback):
    __slots__ = ()

    def __call__(self, *args) -> None:
        method = self._method()
        if method is not None:
            method(*args)


def weak_listener(listener: Callable[..., None]) -> Callable[..., None]:
    """A broadcast listener that does not keep its owner alive.

    A bound method is held weakly and skipped once its owner is freed; any
    other callable is kept as given (it owns whatever it closes over).
    """
    if isinstance(listener, MethodType):
        return _WeakListener(listener)
    return listener
