import numpy as np
import pytest

from splitmetric import seeded_rng, synth
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


def reference_generate(config):
    """(record fields, ids, float32 features) with one noise draw per image."""
    rng = seeded_rng(config.seed)
    n_unknown = int(round(config.unknown_chain_fraction * config.n_chains))
    cw = len(str(config.n_chains - 1))
    bw = len(str(config.branches_per_chain - 1))
    iw = len(str(config.images_per_branch - 1))
    records, rows = [], []
    for c in range(config.n_chains):
        chain_id = f"c{c:0{cw}d}"
        u = rng.normal(0.0, synth.SIGMA_CHAIN, config.d_in)
        for b in range(config.branches_per_chain):
            branch_id = f"{chain_id}_b{b:0{bw}d}"
            v = u + rng.normal(0.0, synth.SIGMA_BRANCH, config.d_in)
            for i in range(config.images_per_branch):
                rows.append(v + rng.normal(0.0, synth.SIGMA_NOISE, config.d_in))
                records.append((f"{branch_id}_i{i:0{iw}d}", branch_id,
                                chain_id if c >= n_unknown else None, None))
    return records, tuple(r[0] for r in records), np.asarray(rows, dtype=np.float32)


REFERENCE_CONFIGS = (
    [standard_corpus_config(seed=s) for s in (0, 1, 2, 3, 4, 81, -1, 2**64 - 1)]
    + [standard_corpus_config(seed=0, d_in=8),
       config(n_chains=1, branches_per_chain=1, images_per_branch=1, d_in=1, seed=3),
       config(n_chains=5, images_per_branch=1, unknown_chain_fraction=0.9, d_in=3, seed=4),
       config(n_chains=1, branches_per_chain=11, images_per_branch=2,
              unknown_chain_fraction=0.6, d_in=1, seed=5)]
)


@pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, ids=[
    f"{c.n_chains}x{c.branches_per_chain}x{c.images_per_branch}"
    f"-u{c.unknown_chain_fraction}-d{c.d_in}-seed{c.seed}" for c in REFERENCE_CONFIGS])
def test_generate_matches_per_image_reference(cfg):
    cat, feats = generate(cfg)
    records, ids, rows = reference_generate(cfg)
    assert [(r.image_id, r.branch_id, r.chain_id, r.content_key) for r in cat.records] == records
    assert feats.ids == ids
    assert feats.data.dtype == np.float32 and feats.data.shape == rows.shape
    assert feats.data.tobytes() == rows.tobytes()


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
