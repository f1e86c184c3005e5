"""Synthetic chain/branch/image corpora with hierarchical Gaussian structure.

Each chain gets a latent center, each branch offsets its chain center, and
each image offsets its branch center, so images of one branch are closer to
each other than to sibling branches, and sibling branches are closer than
images from other chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import check_fields, seeded_rng
from .catalog import Catalog, ImageRecord
from .embedstore import EmbeddingMatrix

SIGMA_CHAIN, SIGMA_BRANCH, SIGMA_NOISE = 1.0, 0.5, 0.1  # chain, branch and image offset scales


class SynthError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class SynthConfig:
    n_chains: int
    branches_per_chain: int
    images_per_branch: int
    unknown_chain_fraction: float
    d_in: int
    seed: int

    def validate(self) -> None:
        check_fields(self, SynthError)
        if min(self.n_chains, self.branches_per_chain, self.images_per_branch, self.d_in) < 1:
            raise SynthError("counts and d_in must be >= 1")
        if not 0.0 <= self.unknown_chain_fraction < 1.0:
            raise SynthError("unknown_chain_fraction must be in [0,1)")


def standard_corpus_config(seed: int = 0, d_in: int = 48) -> SynthConfig:
    return SynthConfig(
        n_chains=40,
        branches_per_chain=8,
        images_per_branch=20,
        unknown_chain_fraction=0.15,
        d_in=d_in,
        seed=seed,
    )


def generate(config: SynthConfig) -> tuple[Catalog, EmbeddingMatrix]:
    config.validate()
    rng = seeded_rng(config.seed)
    n_unknown = int(round(config.unknown_chain_fraction * config.n_chains))

    records: list[ImageRecord] = []
    rows: list[np.ndarray] = []
    cw = len(str(config.n_chains - 1))
    bw = len(str(config.branches_per_chain - 1))
    iw = len(str(config.images_per_branch - 1))
    for c in range(config.n_chains):
        chain_id = f"c{c:0{cw}d}"
        known = c >= n_unknown  # leading chains are the unknown ones
        u = rng.normal(0.0, SIGMA_CHAIN, config.d_in)
        for b in range(config.branches_per_chain):
            branch_id = f"{chain_id}_b{b:0{bw}d}"
            v = u + rng.normal(0.0, SIGMA_BRANCH, config.d_in)
            for i in range(config.images_per_branch):
                image_id = f"{branch_id}_i{i:0{iw}d}"
                rows.append(v + rng.normal(0.0, SIGMA_NOISE, config.d_in))
                records.append(ImageRecord(image_id, branch_id, chain_id if known else None))

    features = EmbeddingMatrix(
        tuple(r.image_id for r in records),
        np.asarray(rows, dtype=np.float32),
    )
    return Catalog.from_records(records), features
