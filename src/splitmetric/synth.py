"""Synthetic chain/branch/image corpora with hierarchical Gaussian structure.

Each chain gets a latent center, each branch offsets its chain center, and
each image offsets its branch center, so images of one branch are closer to
each other than to sibling branches, and sibling branches are closer than
images from other chains.

The corpus is drawn from one seeded stream in this order: a chain's center,
then per branch its offset and one images x ``d_in`` noise draw.  A sized
normal draw fills its array element by element, so this is the same stream
as one noise draw per image.
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
    """The corpus shape; the defaults are the standard corpus."""

    n_chains: int = 40
    branches_per_chain: int = 8
    images_per_branch: int = 20
    unknown_chain_fraction: float = 0.15
    d_in: int = 48
    seed: int = 0

    def validate(self) -> None:
        check_fields(self, SynthError)
        if min(self.n_chains, self.branches_per_chain, self.images_per_branch, self.d_in) < 1:
            raise SynthError("counts and d_in must be >= 1")
        if not 0.0 <= self.unknown_chain_fraction < 1.0:
            raise SynthError("unknown_chain_fraction must be in [0,1)")


def standard_corpus_config(seed: int = 0, d_in: int = 48) -> SynthConfig:
    return SynthConfig(seed=seed, d_in=d_in)


def generate(config: SynthConfig) -> tuple[Catalog, EmbeddingMatrix]:
    """The catalog and its float32 features, one row per record in record order."""
    config.validate()
    rng = seeded_rng(config.seed)
    n_unknown = int(round(config.unknown_chain_fraction * config.n_chains))
    n_images, d = config.images_per_branch, config.d_in

    records: list[ImageRecord] = []
    features = np.empty((config.n_chains * config.branches_per_chain * n_images, d),
                        dtype=np.float32)
    cw = len(str(config.n_chains - 1))
    bw = len(str(config.branches_per_chain - 1))
    iw = len(str(n_images - 1))
    suffixes = [f"_i{i:0{iw}d}" for i in range(n_images)]
    row = 0
    for c in range(config.n_chains):
        chain_id = f"c{c:0{cw}d}"
        chain = chain_id if c >= n_unknown else None  # leading chains are the unknown ones
        u = rng.normal(0.0, SIGMA_CHAIN, d)
        for b in range(config.branches_per_chain):
            branch_id = f"{chain_id}_b{b:0{bw}d}"
            v = u + rng.normal(0.0, SIGMA_BRANCH, d)
            features[row:row + n_images] = v + rng.normal(0.0, SIGMA_NOISE, (n_images, d))
            records += [ImageRecord(branch_id + s, branch_id, chain) for s in suffixes]
            row += n_images

    ids = tuple(r.image_id for r in records)
    return Catalog.from_records(records), EmbeddingMatrix(ids, features)
