"""Machine configuration for the timing simulator.

Defaults model the paper's baseline (Section 4): an R10000-like 4-way
superscalar with a 12-stage pipeline, 128-entry reorder buffer, 80
reservation stations, aggressive branch and load speculation, 32 KB
instruction and data caches, and a unified 1 MB L2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.config import DiseConfig
from repro.errors import ConfigError
from repro.sim.branch import BranchPredictorConfig
from repro.sim.cache import CacheConfig

KB = 1024
MB = 1024 * KB


def il1_config(size_bytes=32 * KB) -> CacheConfig:
    """The baseline L1 instruction cache at a given capacity."""
    return CacheConfig(size_bytes=size_bytes, assoc=2, line_bytes=64,
                       hit_latency=1, name="il1")


def dl1_config(size_bytes=32 * KB) -> CacheConfig:
    """The baseline L1 data cache at a given capacity."""
    return CacheConfig(size_bytes=size_bytes, assoc=2, line_bytes=64,
                       hit_latency=1, name="dl1")


def l2_config(size_bytes=1 * MB) -> CacheConfig:
    """The baseline unified L2 at a given capacity."""
    return CacheConfig(size_bytes=size_bytes, assoc=4, line_bytes=64,
                       hit_latency=12, name="l2")


@dataclass
class MachineConfig:
    """Superscalar core + memory hierarchy + DISE engine configuration."""

    width: int = 4
    rob_entries: int = 128
    rs_entries: int = 80
    pipeline_stages: int = 12
    #: Front-end refill after a misprediction or pipeline flush.
    mispredict_penalty: int = 10
    #: Instruction cache; ``None`` models a perfect I-cache.
    il1: Optional[CacheConfig] = field(default_factory=il1_config)
    dl1: Optional[CacheConfig] = field(default_factory=dl1_config)
    l2: Optional[CacheConfig] = field(default_factory=l2_config)
    mem_latency: int = 80
    predictor: BranchPredictorConfig = field(
        default_factory=BranchPredictorConfig
    )
    dise: DiseConfig = field(default_factory=DiseConfig)
    #: Predict non-trigger replacement-sequence conditional branches with the
    #: gshare predictor (indexed by PC:DISEPC).  The paper's conservative
    #: design treats them as predicted not-taken (a taken one costs a full
    #: refill); an implementation could instead let the BTB/predictor learn
    #: the codeword PC.  Default True; ``benchmarks/bench_ablation.py``
    #: quantifies the difference.
    predict_replacement_branches: bool = True

    def __post_init__(self):
        for name in ("width", "rob_entries", "rs_entries"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be at least 1, not {getattr(self, name)}")

    def with_changes(self, **changes) -> "MachineConfig":
        return replace(self, **changes)

    def with_il1_size(self, size_bytes: Optional[int]) -> "MachineConfig":
        """Vary the I-cache size; ``None`` selects a perfect I-cache."""
        il1 = None if size_bytes is None else il1_config(size_bytes)
        return self.with_changes(il1=il1)
