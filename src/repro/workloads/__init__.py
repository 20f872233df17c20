"""Workload generators mirroring the paper's Table 5 benchmark suites.

The generators are synthetic but preserve the memory-behaviour signatures
the experiments depend on (see DESIGN.md §2): graph analytics and HPC
kernels are long-running and translation-bound, FaaS / LLM-inference /
image-processing workloads are short-running and allocation-bound, and the
microbenchmarks sweep memory intensity and the MimicOS-instruction fraction
for the methodology studies.
"""

from repro.workloads.base import (
    LONG_RUNNING,
    SHORT_RUNNING,
    StreamBuilder,
    Workload,
)
from repro.workloads.faas import (
    AESWorkload,
    DBFilterWorkload,
    FaaSWorkload,
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
from repro.workloads.micro import IntensitySweepWorkload, KernelFractionMicrobenchmark
from repro.workloads.multiproc import (
    MULTIPROCESS_SCENARIOS,
    GuestMixWorkload,
    build_multiprocess_scenario,
    contention_pair,
    virtualized_guests,
)
from repro.workloads.registry import (
    LONG_RUNNING_WORKLOADS,
    SHORT_RUNNING_WORKLOADS,
    build_workload,
    workload_names,
)
from repro.workloads.synthetic import (
    RandomAccessWorkload,
    SequentialWorkload,
)

__all__ = [
    "LONG_RUNNING",
    "SHORT_RUNNING",
    "LONG_RUNNING_WORKLOADS",
    "SHORT_RUNNING_WORKLOADS",
    "GRAPH_KERNELS",
    "LLM_PROFILES",
    "MULTIPROCESS_SCENARIOS",
    "build_multiprocess_scenario",
    "contention_pair",
    "virtualized_guests",
    "GuestMixWorkload",
    "Workload",
    "StreamBuilder",
    "GraphWorkload",
    "XSBenchWorkload",
    "GUPSWorkload",
    "FaaSWorkload",
    "JSONWorkload",
    "AESWorkload",
    "ImageResizeWorkload",
    "WordCountWorkload",
    "DBFilterWorkload",
    "LLMInferenceWorkload",
    "MatrixTranspose3DWorkload",
    "HadamardWorkload",
    "MatrixSum2DWorkload",
    "IntensitySweepWorkload",
    "KernelFractionMicrobenchmark",
    "RandomAccessWorkload",
    "SequentialWorkload",
    "build_workload",
    "workload_names",
]
