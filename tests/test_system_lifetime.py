"""A finished system is freed by reference counting alone.

Owned parts call back up to their owners only through the weak wrappers
of :mod:`repro.common.weak`, so a simulated system is acyclic: when the
last reference to a system and its report goes, every ``repro`` object is
freed at once instead of waiting in cyclic garbage for the collector.  The
checks run the collector under ``gc.DEBUG_SAVEALL``, which keeps anything
it would have had to free in ``gc.garbage``.
"""

import gc
import weakref

import pytest

from repro.common.weak import weak_listener
from repro.core import virtuoso
from repro.core.virtuoso import Virtuoso
from repro.mimicos import kernel as kernel_module
from repro.validation import invariants
from repro.validation.parity import ParityPoint, _run, flatten_stats
from tests.conftest import tiny_system_config

#: One point per system shape: radix, a range backend under swap pressure,
#: two cores, and both virtualised shapes.
POINTS = [
    ParityPoint("radix", "gups"),
    ParityPoint("utopia", "gups", swap_pressure=True),
    ParityPoint("radix", "gups", cores=2),
    ParityPoint("radix", "gups", virtualized=True),
    ParityPoint("radix", "gups", cores=2, virtualized=True),
]


def cyclic_garbage(action):
    """Everything the cyclic collector finds unreachable after ``action()``
    (automatic collection is off meanwhile, so nothing escapes the count)."""
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    try:
        action()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
    finally:
        gc.set_debug(0)
        gc.enable()
    garbage = list(gc.garbage)
    gc.garbage.clear()
    return garbage


def repro_garbage(action):
    return [type(obj).__qualname__ for obj in cyclic_garbage(action)
            if type(obj).__module__.startswith("repro.")]


@pytest.mark.parametrize("point", POINTS, ids=lambda point: point.name)
def test_finished_system_is_freed_on_drop(point):
    """``_run`` wraps every fault callback in the translation check."""
    assert repro_garbage(lambda: flatten_stats(_run(point))) == []


def test_one_strong_listener_makes_a_system_cyclic(monkeypatch):
    """Sensitivity: registering the VM's host-shootdown listener strongly
    closes the host kernel -> VM -> host kernel cycle, and the check sees it."""
    monkeypatch.setattr(kernel_module, "weak_listener", lambda listener: listener)
    garbage = repro_garbage(lambda: _run(POINTS[3]))
    assert "VirtualMachine" in garbage and "MimicOS" in garbage


def test_one_strong_fault_callback_makes_a_system_cyclic(monkeypatch):
    """Sensitivity: a strong MMU fault callback closes the MMU -> coupling
    -> core -> MMU cycle of a plain single-core system."""
    monkeypatch.setattr(virtuoso, "WeakCallback", lambda method: method)
    garbage = repro_garbage(lambda: _run(POINTS[0]))
    assert "MMU" in garbage and "CoreModel" in garbage


def test_a_strong_translation_check_makes_a_system_cyclic(monkeypatch):
    """Sensitivity: a checked fault callback holding the system strongly
    closes the MMU -> callback -> system -> MMU cycle."""
    monkeypatch.setattr(invariants, "WeakCallback", lambda method: method)
    garbage = repro_garbage(lambda: _run(POINTS[0]))
    assert "Virtuoso" in garbage and "MMU" in garbage


def test_flatten_stats_leaves_no_cyclic_garbage():
    report = _run(POINTS[0])
    assert cyclic_garbage(lambda: flatten_stats(report)) == []


class _Owner:
    def __init__(self):
        self.calls = []

    def record(self, *args):
        self.calls.append(args)


def test_listener_of_a_freed_owner_is_skipped():
    live, dead = _Owner(), _Owner()
    listeners = [weak_listener(live.record), weak_listener(dead.record)]
    del dead
    for listener in listeners:
        listener(1, 0x1000)
    assert live.calls == [(1, 0x1000)]


def test_dropped_mmu_is_skipped_by_the_kernel_shootdown():
    system = Virtuoso(tiny_system_config(), seed=7)
    kernel, mmu = system.kernel, weakref.ref(system.mmu)
    del system
    assert mmu() is None
    kernel.tlb_shootdown(1, 0x1000)   # the freed MMU's listener is skipped


def test_dead_required_callbacks_raise():
    system = Virtuoso(tiny_system_config(), seed=7)
    mmu, khugepaged = system.mmu, system.kernel.khugepaged
    del system
    with pytest.raises(ReferenceError, match="handle_page_fault"):
        mmu.fault_callback(1, 0x1000)
    with pytest.raises(ReferenceError, match="tlb_shootdown"):
        khugepaged.tlb_shootdown(1, 0x1000)
