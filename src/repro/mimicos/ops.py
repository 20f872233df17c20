"""Kernel-operation records (re-exported from :mod:`repro.common.kernelops`).

The concrete classes live in :mod:`repro.common.kernelops` so that the
hardware-side packages (page tables, MMU) can type against them without
importing the :mod:`repro.mimicos` package (which would create an import
cycle through the kernel).  MimicOS modules import them from here, keeping
the kernel-facing name the paper uses.
"""

from repro.common.kernelops import (
    DiscardedTrace,
    KernelAddressSpace,
    KernelOp,
    KernelRoutineTrace,
)

__all__ = ["DiscardedTrace", "KernelAddressSpace", "KernelOp", "KernelRoutineTrace"]
