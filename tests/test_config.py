"""The config contract shared by every config: field types and seeds.

Each config's ``validate`` type-checks its fields through
``splitmetric.check_fields``, and every seed becomes a generator through
``splitmetric.seeded_rng``, which takes it mod 2**64; ``splitmetric.seeded_words``
computes the words of many such generators at once.
"""

import operator
from dataclasses import replace

import numpy as np
import pytest

from splitmetric import _seed_states, seeded_rng, seeded_words
from splitmetric.embedstore import EmbeddingMatrix
from splitmetric.linkeval import EvalError, EvalOptions, LinkOracle, evaluate
from splitmetric.losses import LossError, LossParams
from splitmetric.splitgen import SplitConfig, SplitError, generate_splits
from splitmetric.synth import SynthConfig, SynthError, generate, standard_corpus_config
from splitmetric.trainer import TrainConfig, TrainError, train

SPLITS = SplitConfig(seed=0, uu_chain_fraction=0.2, su_branch_fraction=0.2, t1=10, t2=2)
HUGE = 10**400  # an int no float can hold


def small_corpus(seed=5):
    return generate(SynthConfig(n_chains=6, branches_per_chain=3, images_per_branch=12,
                                unknown_chain_fraction=0.0, d_in=12, seed=seed))


def evaluate_with(**options):
    catalog, features = small_corpus()
    return evaluate(features, LinkOracle.from_catalog(catalog), EvalOptions(**options))


def validate(config):
    return lambda **bad: replace(config, **bad).validate()


# (config, field, bad value, how the config is checked, its domain error)
BAD_VALUES = [
    ("synth", "seed", 1.5, validate(standard_corpus_config()), SynthError),
    ("synth", "n_chains", 2.5, validate(standard_corpus_config()), SynthError),
    ("synth", "d_in", 4.0, validate(standard_corpus_config()), SynthError),
    ("synth", "n_chains", True, validate(standard_corpus_config()), SynthError),
    ("split", "t1", 10**30, validate(SPLITS), SplitError),
    ("split", "uu_chain_fraction", HUGE, validate(SPLITS), SplitError),
    ("split", "t2", 0, validate(SPLITS), SplitError),
    ("train", "d_out", 10**23, validate(TrainConfig()), TrainError),
    ("train", "lr", HUGE, validate(TrainConfig()), TrainError),
    ("loss", "triplet_margin", HUGE, validate(LossParams()), LossError),
    ("eval", "seed", 1.5, evaluate_with, EvalError),
    ("eval", "repeats", 2.5, evaluate_with, EvalError),
    ("eval", "repeats", True, evaluate_with, EvalError),
    ("eval", "repeats", 0, evaluate_with, EvalError),
    ("eval", "threads", 1.5, evaluate_with, EvalError),
    ("eval", "threads", 0, evaluate_with, EvalError),
    ("eval", "threads", -1, evaluate_with, EvalError),
]


def case_id(config, field, value, *_):
    shown = f"{len(str(value))}_digits" if isinstance(value, int) and value > 10**6 else value
    return f"{config}.{field}={shown}"


@pytest.mark.parametrize("field, value, check, error", [case[1:] for case in BAD_VALUES],
                         ids=[case_id(*case) for case in BAD_VALUES])
def test_bad_field_value_raises_the_domain_error(field, value, check, error):
    with pytest.raises(error, match=f"^{field} must (be a finite|fit in int64|be >= 1$)"):
        check(**{field: value})


def test_int_fields_take_numpy_integers_and_seeds_any_integer():
    replace(standard_corpus_config(), n_chains=np.int64(3), seed=2**70).validate()
    replace(TrainConfig(), d_out=np.int32(8), lr=np.float32(0.1), seed=-2**70).validate()
    replace(SPLITS, t1=np.int64(10), uu_chain_fraction=np.float64(0.2)).validate()
    EvalOptions(repeats=np.int64(2), seed=np.uint64(2**64 - 1), threads=np.int8(1)).validate()


@pytest.mark.parametrize("run", ["generate_splits", "train", "evaluate"])
def test_seeds_equal_mod_2_to_64_give_identical_outputs(run):
    catalog, features = small_corpus()
    assignment = generate_splits(catalog, SPLITS)
    oracle = LinkOracle.from_catalog(catalog)

    def output(seed):
        if run == "generate_splits":
            return sorted(generate_splits(catalog, replace(SPLITS, seed=seed)).assignment.items())
        if run == "train":
            model, history = train(catalog, assignment, features,
                                   TrainConfig(loss="triplet", epochs=1, seed=seed, m=4, k=3,
                                               d_out=8))
            return model.weight.tobytes(), model.bias.tobytes(), history.rows
        # random rows, so that AUC depends on which pairs are drawn
        emb = EmbeddingMatrix(features.ids, np.random.default_rng(0).standard_normal(
            features.data.shape).astype(np.float32))
        return evaluate(emb, oracle, EvalOptions(repeats=3, seed=seed)).to_json_dict()

    assert output(-1) == output(2**64 - 1)
    assert output(np.int64(7)) == output(7)
    assert output(7) != output(8)


# edge seeds: both 32-bit halves, int64 and uint64 limits, negatives, past 2**64, numpy ints
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, -1, 2**64 - 1, 2**64 + 7, np.int64(9)]


@pytest.mark.filterwarnings("error")  # no uint32 scalar overflow on the way
@pytest.mark.parametrize("n", [1, 2, 9, 71])
def test_seeded_words_are_numpy_s_seed_sequence_and_pcg64_words(n):
    rng = np.random.default_rng(25)
    seeds = EDGE_SEEDS + rng.integers(2**32, size=100).tolist() + rng.integers(
        2**64, size=100, dtype=np.uint64).tolist()
    words = seeded_words(seeds, n)
    assert words.shape == (len(seeds), n) and words.dtype == np.uint64
    for seed, state, row in zip(seeds, _seed_states(seeds), words):
        entropy = operator.index(seed) & (2**64 - 1)
        want = np.random.SeedSequence(entropy).generate_state(8, np.uint32)
        assert state.tolist() == want.tolist()
        raw = np.random.PCG64(entropy).random_raw((n + 1) // 2)
        assert row.tolist() == np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()[:n].tolist()


def test_seeded_words_are_the_words_a_seeded_generator_draws():
    # a bound of 2**32 - 1 makes `integers` return next_uint32 itself
    for seed, row in zip(EDGE_SEEDS, seeded_words(EDGE_SEEDS, 5)):
        drawn = seeded_rng(seed).integers(2**32 - 1, size=5, endpoint=True, dtype=np.uint32)
        assert row.tolist() == drawn.tolist()
