import numpy as np
import pytest

from splitmetric import synth
from splitmetric.synth import SynthConfig, SynthError, generate, standard_corpus_config


def config(**kw):
    base = dict(
        n_chains=4,
        branches_per_chain=3,
        images_per_branch=10,
        unknown_chain_fraction=0.25,
        d_in=16,
        seed=0,
    )
    base.update(kw)
    return SynthConfig(**base)


class TestShape:
    def test_counts(self):
        cat, feats = generate(config())
        assert len(cat.records) == 4 * 3 * 10
        assert len(cat.branch_index) == 12
        assert len(cat.chain_index) == 3  # one of four chains has no chain label
        assert len(cat.unknown_branches) == 3
        assert feats.n == 120 and feats.d == 16

    def test_unknown_rounding(self):
        cat, _ = generate(config(n_chains=10, unknown_chain_fraction=0.35))
        # round(3.5) banker's-rounds to 4
        assert len(cat.chain_index) == 6

    def test_zero_unknown(self):
        cat, _ = generate(config(unknown_chain_fraction=0.0))
        assert len(cat.unknown_branches) == 0
        assert len(cat.chain_index) == 4

    def test_features_align_with_records(self):
        cat, feats = generate(config())
        assert feats.ids == tuple(r.image_id for r in cat.records)

    def test_branch_sizes_uniform(self):
        cat, _ = generate(config(images_per_branch=7))
        assert all(len(v) == 7 for v in cat.branch_index.values())

    def test_standard_corpus_shape(self):
        cfg = standard_corpus_config(seed=5)
        assert (cfg.n_chains, cfg.branches_per_chain, cfg.images_per_branch) == (40, 8, 20)
        assert (synth.SIGMA_CHAIN, synth.SIGMA_BRANCH, synth.SIGMA_NOISE) == (1.0, 0.5, 0.1)
        assert cfg.unknown_chain_fraction == 0.15


class TestDeterminism:
    def test_same_seed_identical(self):
        a_cat, a_feat = generate(config(seed=9))
        b_cat, b_feat = generate(config(seed=9))
        assert a_cat.records == b_cat.records
        assert a_feat.data.tobytes() == b_feat.data.tobytes()

    def test_seed_is_masked_to_64_bits(self):
        cat, feat = generate(config(seed=-1))
        same_cat, same_feat = generate(config(seed=2**64 - 1))
        assert cat.records == same_cat.records
        assert feat.data.tobytes() == same_feat.data.tobytes()
        _, np_feat = generate(config(seed=np.int64(9)))
        assert np_feat.data.tobytes() == generate(config(seed=9))[1].data.tobytes()

    def test_different_seed_differs(self):
        _, a = generate(config(seed=1))
        _, b = generate(config(seed=2))
        assert a.data.tobytes() != b.data.tobytes()


class TestSeparation:
    def test_hierarchical_distances(self):
        """mean within-branch < mean cross-branch-within-chain < mean cross-chain."""
        cat, feats = generate(
            config(n_chains=6, branches_per_chain=4, images_per_branch=12,
                   unknown_chain_fraction=0.0, d_in=24, seed=21)
        )
        x = feats.data.astype(np.float64)
        branch = np.array([r.branch_id for r in cat.records])
        chain = np.array([r.chain_id for r in cat.records])
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
        same_b = branch[:, None] == branch[None, :]
        same_c = chain[:, None] == chain[None, :]
        off = ~np.eye(len(x), dtype=bool)
        within_branch = d2[same_b & off].mean()
        within_chain = d2[same_c & ~same_b].mean()
        cross_chain = d2[~same_c].mean()
        assert within_branch < within_chain < cross_chain


class TestValidation:
    def test_bad_counts(self):
        with pytest.raises(SynthError):
            generate(config(n_chains=0))

    def test_bad_fraction(self):
        with pytest.raises(SynthError):
            generate(config(unknown_chain_fraction=1.0))
