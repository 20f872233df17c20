"""Large-language-model inference workloads (Llama-, Bagel- and Mistral-like).

The paper runs short-input/short-output prompts through llama.cpp for three
models and studies the *allocation behaviour* of inference (Use Case 2 /
Fig. 16).  The memory-behaviour signature modelled here:

* a large, file-backed, read-only **weights** mapping streamed during every
  token (the mmap'ed GGUF file);
* an anonymous **KV-cache** region that grows as tokens are generated —
  every new token first-touches fresh pages, which is where the allocation
  policy's fault latency shows up;
* a small **activation/scratch** region that is written repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.common.addresses import KB, MB, PAGE_SIZE_4K
from repro.common.rng import DeterministicRNG
from repro.core.instructions import (
    OP_ALU,
    OP_BRANCH,
    OP_LOAD,
    OP_STORE,
    InstructionBatch,
)
from repro.mimicos.kernel import MimicOS
from repro.mimicos.process import Process
from repro.mimicos.vma import VMAKind
from repro.workloads.base import SHORT_RUNNING, Workload


@dataclass(frozen=True)
class LLMProfile:
    """Scaled-down footprint profile of one model."""

    weights_bytes: int
    kv_cache_bytes_per_token: int
    activation_bytes: int
    tokens: int
    weight_reads_per_token: int


#: Profiles keep the relative sizes of the three models (7B vs 2.8B parameters).
LLM_PROFILES: Dict[str, LLMProfile] = {
    "Llama": LLMProfile(weights_bytes=48 * MB, kv_cache_bytes_per_token=96 * KB,
                        activation_bytes=2 * MB, tokens=48, weight_reads_per_token=160),
    "Bagel": LLMProfile(weights_bytes=20 * MB, kv_cache_bytes_per_token=48 * KB,
                        activation_bytes=1 * MB, tokens=48, weight_reads_per_token=90),
    "Mistral": LLMProfile(weights_bytes=44 * MB, kv_cache_bytes_per_token=96 * KB,
                          activation_bytes=2 * MB, tokens=48, weight_reads_per_token=150),
}


class LLMInferenceWorkload(Workload):
    """Token-by-token inference with an allocation burst per generated token."""

    category = SHORT_RUNNING

    def __init__(self, model_name: str = "Llama", seed: int = 83, scale: float = 1.0,
                 weight_read_scale: float = 1.0):
        if model_name not in LLM_PROFILES:
            raise ValueError(f"unknown LLM profile {model_name!r}; known: {sorted(LLM_PROFILES)}")
        self.name = model_name
        self.profile = LLM_PROFILES[model_name]
        self.seed = seed
        self.scale = scale
        #: Fraction of the per-token weight reads to issue; benchmarks that
        #: only study allocation behaviour reduce this to keep runs short.
        self.weight_read_scale = weight_read_scale
        self._weights_vma = None
        self._kv_vma = None
        self._activation_vma = None

    def setup(self, kernel: MimicOS, process: Process) -> None:
        profile = self.profile
        weights_bytes = max(PAGE_SIZE_4K, int(profile.weights_bytes * self.scale))
        kv_bytes = max(PAGE_SIZE_4K,
                       int(profile.kv_cache_bytes_per_token * profile.tokens * self.scale))
        activation_bytes = max(PAGE_SIZE_4K, int(profile.activation_bytes * self.scale))

        self._weights_vma = kernel.mmap(process, weights_bytes, kind=VMAKind.FILE_BACKED,
                                        name=f"{self.name}-weights",
                                        populate_page_cache=True)
        self._kv_vma = kernel.mmap(process, kv_bytes, kind=VMAKind.ANONYMOUS,
                                   name=f"{self.name}-kv-cache")
        self._activation_vma = kernel.mmap(process, activation_bytes, kind=VMAKind.ANONYMOUS,
                                           name=f"{self.name}-activations")

    def instruction_batches(self, process: Process,
                            batch_size: int = 4096) -> Iterator[InstructionBatch]:
        rng = DeterministicRNG(self.seed)
        rng_randint = rng.randint
        profile = self.profile
        weights, kv, activations = self._weights_vma, self._kv_vma, self._activation_vma
        weight_reads = max(1, int(profile.weight_reads_per_token * self.weight_read_scale))
        kv_growth = int(profile.kv_cache_bytes_per_token * self.scale)
        weight_slots = max(1, (weights.size - 64) // 64)
        activation_span = max(0, activations.size - 64)
        half_page = PAGE_SIZE_4K // 2

        batch = InstructionBatch()
        kinds, pcs, operands = batch.kinds, batch.pcs, batch.addresses
        count = 0
        kv_offset = 0
        for token in range(profile.tokens):
            # Stream a sample of the weights (every layer's matrices).
            for read in range(weight_reads):
                slot = (token * weight_reads + read * 37) % weight_slots
                kinds.append(OP_ALU)
                pcs.append(0x460000 + (read % 8) * 4)
                operands.append(None)
                kinds.append(OP_LOAD)
                pcs.append(0x460100 + (read % 8) * 4)
                operands.append(weights.start + slot * 64)
                count += 2
                if count >= batch_size:
                    yield batch
                    batch = InstructionBatch()
                    kinds, pcs, operands = batch.kinds, batch.pcs, batch.addresses
                    count = 0
            # Grow the KV cache: first-touch writes over fresh pages.
            end = min(kv_offset + kv_growth, kv.size - 64)
            address = kv.start + kv_offset
            while address < kv.start + end:
                kinds.append(OP_STORE)
                pcs.append(0x461000)
                operands.append(address)
                kinds.append(OP_ALU)
                pcs.append(0x461010)
                operands.append(None)
                address += half_page
                count += 2
                if count >= batch_size:
                    yield batch
                    batch = InstructionBatch()
                    kinds, pcs, operands = batch.kinds, batch.pcs, batch.addresses
                    count = 0
            kv_offset = end
            # Activation scratch writes.
            for write in range(16):
                offset = rng_randint(0, activation_span)
                kinds.append(OP_STORE)
                pcs.append(0x462000 + (write % 4) * 4)
                operands.append(activations.start + offset)
                count += 1
            kinds.append(OP_BRANCH)
            pcs.append(0x463000)
            operands.append(None)
            count += 1
            if count >= batch_size:
                yield batch
                batch = InstructionBatch()
                kinds, pcs, operands = batch.kinds, batch.pcs, batch.addresses
                count = 0
        if count:
            yield batch
