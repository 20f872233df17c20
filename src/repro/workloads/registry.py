"""Workload registry: the paper's Table 5 suites by name.

The registry maps the workload names used in the figures to factory
functions, grouped into the long-running (translation-bound) and
short-running (allocation-bound) suites, so benchmarks can say
``build_workload("BC")`` or iterate ``LONG_RUNNING_WORKLOADS``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.workloads.base import Workload
from repro.workloads.faas import (
    AESWorkload,
    DBFilterWorkload,
    ImageResizeWorkload,
    JSONWorkload,
    WordCountWorkload,
)
from repro.workloads.graph import GRAPH_KERNELS, GraphWorkload
from repro.workloads.hpc import GUPSWorkload, XSBenchWorkload
from repro.workloads.image import (
    HadamardWorkload,
    MatrixSum2DWorkload,
    MatrixTranspose3DWorkload,
)
from repro.workloads.llm import LLM_PROFILES, LLMInferenceWorkload
from repro.workloads.multiproc import GuestMixWorkload

#: Long-running (translation-bound) workload names, as used in Figs. 8/10/13-15.
LONG_RUNNING_WORKLOADS: List[str] = ["BC", "BFS", "CC", "KC", "GC", "PR", "SSSP", "TC",
                                     "XS", "RND"]

#: Short-running (allocation-bound) workload names, as used in Figs. 1/2/9/16.
SHORT_RUNNING_WORKLOADS: List[str] = ["JSON", "AES", "IMG-RES", "WCNT", "DB",
                                      "Llama", "Bagel", "Mistral",
                                      "3D-Transp", "Hadamard", "2D-Sum"]

_FACTORIES: Dict[str, Callable[..., Workload]] = {
    "XS": XSBenchWorkload,
    "RND": GUPSWorkload,
    "JSON": JSONWorkload,
    "AES": AESWorkload,
    "IMG-RES": ImageResizeWorkload,
    "WCNT": WordCountWorkload,
    "DB": DBFilterWorkload,
    "3D-Transp": MatrixTranspose3DWorkload,
    "Hadamard": HadamardWorkload,
    "2D-Sum": MatrixSum2DWorkload,
    "GuestMix": GuestMixWorkload,
}
for _kernel in GRAPH_KERNELS:
    _FACTORIES[_kernel] = (lambda kernel_name: lambda **kwargs: GraphWorkload(kernel_name, **kwargs))(_kernel)
for _model in LLM_PROFILES:
    _FACTORIES[_model] = (lambda model_name: lambda **kwargs: LLMInferenceWorkload(model_name, **kwargs))(_model)
# Figure aliases.
_FACTORIES["SP"] = _FACTORIES["SSSP"]
_FACTORIES["KCORE"] = _FACTORIES["KC"]


def workload_names() -> List[str]:
    """Every registered workload name."""
    return sorted(_FACTORIES)


def build_workload(name: str, **kwargs) -> Workload:
    """Instantiate the workload registered under ``name``."""
    factory = _FACTORIES.get(name)
    if factory is None:
        raise KeyError(f"unknown workload {name!r}; known: {workload_names()}")
    return factory(**kwargs)
