import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from splitmetric import seeded_rng, seeded_words, trainer
from splitmetric.embedstore import EmbeddingMatrix, EmbedStoreError, unit_rows
from splitmetric.linkeval import EvalOptions, LinkOracle, evaluate
from splitmetric.losses import LOSSES, CenterBank, LossParams, ProxyBank
from splitmetric.splitgen import SplitAssignment, SplitConfig, generate_splits
from splitmetric.synth import SynthConfig, generate, standard_corpus_config
from splitmetric.trainer import (
    BatchSpec,
    OptimizerState,
    ToyModel,
    TrainConfig,
    TrainError,
    TrainHistory,
    _ClassIndex,
    _layernorm,
    forward,
    head_backward,
    init_model,
    load_model,
    sample_batch,
    save_model,
    train,
    train_step,
)
from test_acceptance import GATE_SPLITS


def toy_corpus(seed=5):
    cfg = SynthConfig(
        n_chains=6, branches_per_chain=3, images_per_branch=12,
        unknown_chain_fraction=0.0, d_in=12, seed=seed,
    )
    catalog, features = generate(cfg)
    assignment = generate_splits(
        catalog, SplitConfig(seed=0, uu_chain_fraction=0.2, su_branch_fraction=0.2, t1=10, t2=2)
    )
    return catalog, assignment, features


def wide_corpus():
    """Like `toy_corpus`, with over 32 steps of 2 x 2 batches an epoch."""
    catalog, features = generate(SynthConfig(
        n_chains=8, branches_per_chain=4, images_per_branch=12,
        unknown_chain_fraction=0.0, d_in=12, seed=6,
    ))
    assignment = generate_splits(
        catalog, SplitConfig(seed=0, uu_chain_fraction=0.2, su_branch_fraction=0.2, t1=10, t2=2)
    )
    return catalog, assignment, features


def val_ss_kept(catalog, assignment, keep: int) -> SplitAssignment:
    """``assignment`` with val_ss cut to the first image of each branch
    (``keep=1``), or to the first two of its first branch (``keep=2``); the
    rest of val_ss goes to train."""
    branch_of = catalog.branch_of()
    val = assignment.images_of("val_ss")
    if keep == 1:
        kept = {branch_of[image]: image for image in reversed(val)}.values()
    else:
        kept = [image for image in val if branch_of[image] == branch_of[val[0]]][:2]
    mapping = dict(assignment.assignment)
    mapping.update(dict.fromkeys(set(val) - set(kept), "train"))
    return SplitAssignment(mapping)


class TestForward:
    def test_identity_head_on_antisymmetric_row(self):
        model = ToyModel(np.eye(2), np.zeros(2))
        out = forward(model, np.array([[1.0, -1.0]]))
        assert out[0, 0] == pytest.approx(0.70710678, abs=1e-4)
        assert out[0, 1] == pytest.approx(-0.70710678, abs=1e-4)

    def test_constant_row_stays_finite(self):
        model = ToyModel(np.eye(3), np.zeros(3))
        out = forward(model, np.array([[2.0, 2.0, 2.0]]))
        assert np.all(np.isfinite(out))
        assert np.allclose(out, 0.0)  # layernorm flattens it, bias is zero

    def test_rows_are_unit(self):
        rng = np.random.default_rng(0)
        model = init_model(10, 6, seed=1)
        out = forward(model, rng.standard_normal((40, 10)))
        norms = np.linalg.norm(out, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-6

    def test_shape_check(self):
        model = init_model(5, 4, seed=0)
        with pytest.raises(TrainError, match="features"):
            forward(model, np.ones((3, 7)))

    def test_rows_layernorm_on_their_own(self):
        rng = np.random.default_rng(12)
        for d_in in (5, 48, 100):
            model = init_model(d_in, 2, seed=0)
            x = rng.standard_normal((300, d_in)) * rng.uniform(0.1, 50.0, size=(300, 1))
            whole = _layernorm(model, x)
            for _ in range(20):
                rows = rng.integers(0, 300, size=int(rng.integers(1, 80)))  # duplicates too
                assert whole[rows].tobytes() == _layernorm(model, x[rows]).tobytes()

    def test_forward_frees_the_layernormed_rows_before_the_norm(self):
        x = np.random.default_rng(0).standard_normal((6400, 48))
        model = init_model(48, 32, seed=0)
        forward(model, x[:10])
        tracemalloc.start()
        try:
            forward(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the layernorm's own peak; z (2.3 MiB) kept through y * y would reach 5.58 MiB
        assert peak <= 4.90 * 2**20

    def test_model_validation(self):
        with pytest.raises(TrainError, match="d_out"):
            ToyModel(np.ones((1, 4)), np.zeros(1))
        with pytest.raises(TrainError, match="shapes"):
            ToyModel(np.ones((3, 4)), np.zeros(2))
        with pytest.raises(TrainError, match="finite"):
            ToyModel(np.full((2, 2), np.nan), np.zeros(2))


class TestHeadBackward:
    def test_finite_difference_on_parameters(self):
        rng = np.random.default_rng(7)
        model = init_model(5, 4, seed=3)
        x = rng.standard_normal((6, 5))
        g = rng.standard_normal((6, 4))

        def value(m):
            return float(np.sum(g * forward(m, x)))

        d_w, d_b = head_backward(model, x, g)
        eps = 1e-6
        worst = 0.0
        for arr, grad in ((model.weight, d_w), (model.bias, d_b)):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = value(model)
                flat[idx] = orig - eps
                down = value(model)
                flat[idx] = orig
                numeric = (up - down) / (2 * eps)
                worst = max(worst, abs(numeric - gflat[idx]))
        assert worst < 1e-3  # observed ~1e-9; smooth everywhere


def reference_batch(image_ids, oracle, spec, seed):
    """The dict-based sampler `sample_batch` replaced, kept as its reference."""
    by_class = {}
    for image_id in sorted(image_ids):
        by_class.setdefault(oracle.branch(image_id), []).append(image_id)
    eligible = sorted(b for b, members in by_class.items() if len(members) >= spec.k)
    if len(eligible) < spec.m:
        raise TrainError(
            f"need {spec.m} classes with >= {spec.k} images, only {len(eligible)} eligible"
        )
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    picked = rng.choice(len(eligible), size=spec.m, replace=False)
    out = []
    for ci in picked:
        members = by_class[eligible[int(ci)]]
        rows = rng.choice(len(members), size=spec.k, replace=False)
        out.extend(members[int(r)] for r in rows)
    return tuple(out)


def choice_batch(codes, spec, seed):
    """The rows of a batch drawn by ``seeded_rng(seed)``'s own `choice` calls on ``codes``."""
    rng = seeded_rng(seed)
    eligible = np.flatnonzero(np.bincount(codes) >= spec.k)
    picked = eligible[rng.choice(len(eligible), spec.m, replace=False)]
    members = [np.flatnonzero(codes == c) for c in picked]
    return np.concatenate([rows[rng.choice(len(rows), spec.k, replace=False)] for rows in members])


def count_redraws(monkeypatch) -> list:
    """The seeds that `_ClassIndex.draws` leaves to their generator's own calls, as they come."""
    redraws = []
    monkeypatch.setattr(trainer, "seeded_rng",
                        lambda seed: redraws.append(seed) or seeded_rng(seed))
    return redraws


class TestSampleBatch:
    def oracle(self):
        labels = {}
        for c, size in (("a", 5), ("b", 5), ("c", 1)):
            for j in range(size):
                labels[f"{c}{j}"] = c
        return labels, LinkOracle(labels)

    def test_respects_eligibility(self):
        labels, oracle = self.oracle()
        ids = sorted(labels)
        codes = oracle.codes(ids)
        rows = sample_batch(codes, BatchSpec(m=2, k=2), seed=0)
        assert len(rows) == 4
        assert len(set(rows.tolist())) == 4
        per = {}
        for r in rows:
            per[labels[ids[r]]] = per.get(labels[ids[r]], 0) + 1
        assert per == {"a": 2, "b": 2}  # the singleton class never qualifies

    def test_deterministic(self):
        labels, oracle = self.oracle()
        codes = oracle.codes(sorted(labels))
        a = sample_batch(codes, BatchSpec(2, 2), seed=9)
        b = sample_batch(codes, BatchSpec(2, 2), seed=9)
        assert a.tolist() == b.tolist()

    def test_too_few_classes(self):
        labels, oracle = self.oracle()
        with pytest.raises(TrainError, match="eligible"):
            sample_batch(oracle.codes(sorted(labels)), BatchSpec(m=3, k=2), seed=0)

    def test_matches_dict_reference(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = int(rng.integers(4, 80))
            # shuffled ids with interleaved, unevenly sized branches
            labels = {f"i{j:03d}": f"b{int(rng.integers(int(rng.integers(2, 12))))}"
                      for j in rng.permutation(n)}
            oracle = LinkOracle(labels)
            ids = sorted(labels)
            spec = BatchSpec(int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            seed = int(rng.integers(2**63))
            try:
                want = reference_batch(labels, oracle, spec, seed)
            except TrainError as exc:
                with pytest.raises(TrainError, match=str(exc)):
                    sample_batch(oracle.codes(ids), spec, seed)
                continue
            rows = sample_batch(oracle.codes(ids), spec, seed)
            assert tuple(ids[r] for r in rows) == want

    def layout(self, name):
        """(labels, oracle, spec, seed rng) of the 300-image layout or the tail-regime one."""
        if name == "seeds200":
            rng = np.random.default_rng(21)
            labels = {f"i{j:03d}": f"b{int(rng.integers(40)) % int(rng.integers(1, 40))}"
                      for j in rng.permutation(300)}
            return labels, LinkOracle(labels), BatchSpec(8, 4), rng
        # one class over 10,000 rows with k > n // 50, so its rows come from the tail shuffle
        rng = np.random.default_rng(22)
        sizes = {"big": 10050, "mid": 260, "small": 3}
        labels = {f"i{j:05d}": b for j, b in zip(
            rng.permutation(sum(sizes.values())),
            [b for b, size in sizes.items() for _ in range(size)])}
        return labels, LinkOracle(labels), BatchSpec(2, 202), rng

    def test_one_index_draws_like_the_reference_on_200_seeds(self):
        labels, oracle, spec, rng = self.layout("seeds200")
        ids = sorted(labels)
        index = _ClassIndex(oracle.codes(ids), spec)
        for _ in range(200):
            seed = int(rng.integers(2**63))
            rows = index.draws([seed])[0]
            assert tuple(ids[r] for r in rows) == reference_batch(labels, oracle, spec, seed)

    @pytest.mark.parametrize("layout", ["seeds200", "tail"])
    def test_draws_match_the_reference_at_every_chunk_size(self, layout):
        labels, oracle, spec, rng = self.layout(layout)
        ids = sorted(labels)
        index = _ClassIndex(oracle.codes(ids), spec)
        seeds = rng.integers(2**63, size=200)
        want = [reference_batch(labels, oracle, spec, int(seed)) for seed in seeds]
        for size in (1, 7, 32, 85, 200):
            got = np.concatenate([index.draws(seeds[start:start + size])
                                  for start in range(0, len(seeds), size)])
            assert got.shape == (200, spec.size)
            assert [tuple(ids[r] for r in rows) for rows in got] == want, size

    # (n, k): Floyd plus shuffle for n <= 10000 or k <= n // 50, the tail shuffle otherwise
    FLOYD = [(190, 8), (20, 4), (4, 4), (1, 1), (5, 1), (10000, 5000), (20000, 400)]
    TAIL = [(10001, 201), (12000, 1000), (15000, 15000)]

    @pytest.mark.parametrize("n, k", FLOYD + TAIL, ids=[f"{n}_{k}" for n, k in FLOYD + TAIL])
    @pytest.mark.filterwarnings("error")  # no uint32 scalar overflow on the way
    def test_choice_rows_is_generator_choice(self, n, k):
        # numpy does not promise its Generator streams across versions (NEP 19);
        # this pins the batched draw to `choice` on the installed numpy
        seeds = range(300 if n * k < 10**4 else 20)
        sizes = np.full((len(seeds), 1), n)
        picks, _, fast = trainer._choices(seeded_words(seeds, 2 * k - 1), 0, sizes, k)
        assert fast.any() == (n <= 10000 or k <= n // 50)  # the tail shuffle is left to `choice`
        for seed, got in zip(np.array(seeds)[fast], picks[fast]):
            assert got[0].tolist() == seeded_rng(seed).choice(n, k, replace=False).tolist()
        if k == 1:  # a batch takes at least two rows of a class
            return
        # whole batches over such classes, the tail's included
        sizes = [n, max(n // 2, k), n]
        codes = np.random.default_rng(n + k).permutation(np.repeat(np.arange(3), sizes))
        index = _ClassIndex(codes, BatchSpec(2, k))
        for seed, rows in zip(seeds, index.draws(seeds)):
            assert rows.tolist() == choice_batch(codes, index.spec, seed).tolist()

    @pytest.mark.parametrize("sizes", [[4, 4, 4], [5, 9, 3, 4], [6, 2, 7]],
                             ids=["all_k", "mixed", "m_eligible"])
    def test_zero_bounds_read_no_word(self, sizes):
        # a class of exactly k rows has Floyd bound n - k = 0, and m eligible classes give
        # the class draw a zero bound; numpy draws neither, so no word may be spent on them
        codes = np.random.default_rng(len(sizes)).permutation(
            np.repeat(np.arange(len(sizes)), sizes))
        spec = BatchSpec(2, 4)
        seeds = np.random.default_rng(23).integers(2**63, size=200)
        for seed, rows in zip(seeds, _ClassIndex(codes, spec).draws(seeds)):
            assert rows.tolist() == choice_batch(codes, spec, seed).tolist()

    @pytest.mark.filterwarnings("error")  # no uint32 scalar overflow on the way
    def test_bounds_of_2_to_31_and_over_fall_back_to_choice(self, monkeypatch):
        # Lemire's rule rejects often at such bounds, and at 2**32 - 1 and over numpy
        # draws otherwise; class sizes that large only fit as an index with rows that
        # name their own offsets
        class Offsets:
            def __getitem__(self, rows):
                return rows

        sizes = [2**31, 2**31 + 5, 2**32 - 2, 2**32 - 1, 2**32, 3 * 2**32 + 1, 10, 12]
        index = _ClassIndex(np.repeat(np.arange(len(sizes)), 2), BatchSpec(2, 2))
        index.sizes, index.starts = np.array(sizes), np.zeros(len(sizes), dtype=np.int64)
        index.order = Offsets()
        redraws = count_redraws(monkeypatch)
        seeds = list(range(200))
        fast_at_2_to_31 = 0
        for seed, got in zip(seeds, index.draws(seeds)):
            rng = np.random.default_rng(seed)
            classes = rng.choice(len(sizes), 2, replace=False)
            want = [rng.choice(sizes[c], 2, replace=False) for c in classes]
            assert got.tolist() == np.concatenate(want).tolist()
            fast_at_2_to_31 += seed not in redraws and max(sizes[c] for c in classes) > 2**31
        assert 100 < len(redraws) and fast_at_2_to_31 > 0  # both paths ran

    def test_the_fast_path_serves_a_gate_run(self, monkeypatch):
        # a draw falls back with chance about (bound + 1) / 2**32, so a gate run's
        # 2,550 batches should all be fast; a slow path taken for every seed would
        # still pass every equality test above
        catalog, _ = generate(standard_corpus_config(seed=0))
        assignment = generate_splits(catalog, GATE_SPLITS)
        codes = LinkOracle.from_catalog(catalog).codes(sorted(assignment.by_split()["train"]))
        index = _ClassIndex(codes, BatchSpec(8, 4))
        redraws = count_redraws(monkeypatch)
        seeds = np.random.default_rng(24).integers(2**63, size=2550)
        rows = np.concatenate([index.draws(epoch) for epoch in seeds.reshape(30, 85)])
        assert len(redraws) <= 3
        for seed, got in zip(seeds[:50], rows):
            assert got.tolist() == choice_batch(codes, index.spec, seed).tolist()

    def test_tail_regime_draw_matches_the_reference(self):
        labels, oracle, spec, rng = self.layout("tail")
        ids = sorted(labels)
        index = _ClassIndex(oracle.codes(ids), spec)
        assert max(index.sizes) > 10000 and spec.k > max(index.sizes) // 50
        for _ in range(30):
            seed = int(rng.integers(2**63))
            rows = index.draws([seed])[0]
            assert tuple(ids[r] for r in rows) == reference_batch(labels, oracle, spec, seed)

    def test_spec_bounds(self):
        with pytest.raises(TrainError):
            BatchSpec(m=1, k=2)
        with pytest.raises(TrainError):
            BatchSpec(m=2, k=1)


class TestTrainStep:
    def separable_batch(self, rng, d=8):
        centers = np.stack([np.ones(d), -np.ones(d)])
        feats = np.concatenate([
            centers[0] + 0.1 * rng.standard_normal((6, d)),
            centers[1] + 0.1 * rng.standard_normal((6, d)),
        ])
        labels = np.array([0] * 6 + [1] * 6)
        return feats, labels

    def test_zero_learning_rate_freezes_model(self):
        rng = np.random.default_rng(1)
        feats, labels = self.separable_batch(rng)
        model = init_model(8, 4, seed=2)
        before = model.weight.copy(), model.bias.copy()
        config = TrainConfig(loss="multisim", lr=0.0, momentum=0.0)
        train_step(model, feats, labels, config, OptimizerState.for_model(model), rng)
        assert np.array_equal(model.weight, before[0])
        assert np.array_equal(model.bias, before[1])

    def test_loss_descends_on_fixed_batch(self):
        rng = np.random.default_rng(2)
        feats, labels = self.separable_batch(rng)
        model = init_model(8, 4, seed=3)
        config = TrainConfig(loss="multisim", lr=0.05, momentum=0.0)
        state = OptimizerState.for_model(model)
        losses = [train_step(model, feats, labels, config, state, rng) for _ in range(50)]
        assert all(np.isfinite(losses))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 0.5 * losses[0]

    def test_supcon_runs_on_doubled_views(self):
        rng = np.random.default_rng(3)
        feats, labels = self.separable_batch(rng)
        model = init_model(8, 4, seed=4)
        before = model.weight.copy()
        config = TrainConfig(loss="supcon", lr=0.05)
        value = train_step(model, feats, labels, config, OptimizerState.for_model(model), rng)
        assert np.isfinite(value)
        assert not np.array_equal(model.weight, before)

    def test_proxy_bank_moves_and_stays_unit(self):
        rng = np.random.default_rng(4)
        feats, labels = self.separable_batch(rng)
        model = init_model(8, 4, seed=5)
        proxies = rng.standard_normal((2, 4))
        proxies /= np.linalg.norm(proxies, axis=1, keepdims=True)
        state = OptimizerState.for_model(model, ProxyBank(proxies.copy()))
        config = TrainConfig(loss="proxynca", lr=0.05)
        train_step(model, feats, labels, config, state, rng)
        assert not np.array_equal(state.bank.vectors, proxies)
        norms = np.linalg.norm(state.bank.vectors, axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_center_bank_update_keeps_shape(self):
        rng = np.random.default_rng(5)
        feats, labels = self.separable_batch(rng)
        model = init_model(8, 4, seed=6)
        centers = rng.standard_normal((2, 3, 4))
        centers /= np.linalg.norm(centers, axis=-1, keepdims=True)
        state = OptimizerState.for_model(model, CenterBank(centers))
        config = TrainConfig(loss="softtriple", lr=0.05,
                             params=LossParams(softtriple_centers=3))
        train_step(model, feats, labels, config, state, rng)
        assert state.bank.vectors.shape == (2, 3, 4)
        norms = np.linalg.norm(state.bank.vectors, axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


def reference_train(catalog, assignment, features, config):
    """`train` as the loop over the public per-step functions that it fused."""
    oracle = LinkOracle.from_catalog(catalog)
    split_map = assignment.by_split()
    train_ids = sorted(split_map["train"])
    val_ids = sorted(split_map["val_ss"])
    row_of = {image_id: i for i, image_id in enumerate(features.ids)}
    train_feat = features.data[[row_of[i] for i in train_ids]].astype(np.float64)
    val_feat = features.data[[row_of[i] for i in val_ids]].astype(np.float64)
    codes = oracle.codes(train_ids)
    rng = np.random.default_rng(config.seed)
    model = init_model(features.d, config.d_out, rng.integers(2**63))
    bank = None
    if LOSSES[config.loss].bank is not None:
        sums = np.zeros((codes.max() + 1, config.d_out))
        np.add.at(sums, codes, forward(model, train_feat))
        bank = LOSSES[config.loss].bank.seeded(unit_rows(sums), config.params, rng)
    state = OptimizerState.for_model(model, bank)
    spec = BatchSpec(config.m, config.k)
    rows_out = []
    best, best_r1 = model.copy(), -1.0
    for epoch in range(1, config.epochs + 1):
        epoch_losses = []
        for _ in range(max(1, len(train_ids) // spec.size)):
            rows = sample_batch(codes, spec, rng.integers(2**63))
            epoch_losses.append(train_step(model, train_feat[rows], codes[rows], config, state,
                                           rng))
        emb = EmbeddingMatrix(tuple(val_ids), forward(model, val_feat).astype(np.float32),
                              normalized=True)
        report = evaluate(emb, oracle, EvalOptions(repeats=3, seed=rng.integers(2**31)))
        rows_out.append((epoch, float(np.mean(epoch_losses)), report.r_at_1, report.auc_mean))
        if report.r_at_1 > best_r1:
            best_r1, best = report.r_at_1, model.copy()
    return best, rows_out


class TestTrainLoop:
    @pytest.mark.parametrize("loss", sorted(LOSSES))
    def test_matches_the_per_step_reference_loop(self, loss):
        catalog, assignment, features = toy_corpus()
        config = TrainConfig(loss=loss, lr=0.1, epochs=2, d_out=6, seed=4, m=4, k=3,
                             params=LossParams(softtriple_centers=2))
        best, history = train(catalog, assignment, features, config)
        want, want_rows = reference_train(catalog, assignment, features, config)
        assert best.weight.tobytes() == want.weight.tobytes()
        assert best.bias.tobytes() == want.bias.tobytes()
        assert repr(history.rows) == repr(want_rows)

    @pytest.mark.parametrize("loss", ["triplet", "supcon"])
    def test_matches_the_per_step_reference_loop_across_chunks(self, loss):
        catalog, assignment, features = wide_corpus()
        config = TrainConfig(loss=loss, lr=0.1, epochs=2, d_out=6, seed=7, m=2, k=2)
        steps = len(assignment.images_of("train")) // 4
        assert steps > 32 and steps % 32
        best, history = train(catalog, assignment, features, config)
        want, want_rows = reference_train(catalog, assignment, features, config)
        assert best.weight.tobytes() == want.weight.tobytes()
        assert best.bias.tobytes() == want.bias.tobytes()
        assert repr(history.rows) == repr(want_rows)

    @pytest.mark.parametrize("loss", ["triplet", "supcon"])
    def test_every_step_calls_the_module_compute_loss(self, monkeypatch, loss):
        """Each step dispatches through ``trainer.compute_loss``, the name that
        perfbench's loss spans rebind, and never around it."""
        catalog, assignment, features = wide_corpus()
        config = TrainConfig(loss=loss, lr=0.1, epochs=2, d_out=6, seed=7, m=2, k=2)
        calls = []
        real = trainer.compute_loss
        monkeypatch.setattr(trainer, "compute_loss",
                            lambda *args, **kwargs: calls.append(args[0]) or real(*args, **kwargs))
        train(catalog, assignment, features, config)
        steps = len(assignment.images_of("train")) // 4
        assert calls == [loss] * (config.epochs * steps)

    def test_history_and_selection(self):
        catalog, assignment, features = toy_corpus()
        config = TrainConfig(loss="multisim", epochs=3, d_out=16, seed=0, m=4, k=3)
        best, history = train(catalog, assignment, features, config)
        assert len(history.rows) == 3
        assert [r[0] for r in history.rows] == [1, 2, 3]
        assert all(np.isfinite(r[1]) for r in history.rows)
        assert best.d_out == 16 and best.d_in == 12
        # the kept model is the first epoch reaching the best validation R@1
        r1s = [r[2] for r in history.rows]
        assert max(r1s) == pytest.approx(max(r1s))

    def test_single_epoch_single_row(self):
        catalog, assignment, features = toy_corpus()
        config = TrainConfig(loss="triplet", epochs=1, d_out=8, seed=1, m=4, k=3)
        _, history = train(catalog, assignment, features, config)
        assert len(history.rows) == 1

    @pytest.mark.parametrize("loss", ("proxynca", "softtriple"))
    def test_bank_loss_trains_when_d_out_differs_from_d_in(self, loss):
        catalog, assignment, features = toy_corpus()
        config = TrainConfig(loss=loss, epochs=2, d_out=6, seed=0, m=4, k=3)
        best, history = train(catalog, assignment, features, config)
        assert best.d_out == 6 and best.d_in == 12
        assert all(np.isfinite(r[1]) for r in history.rows)

    def test_bitwise_deterministic(self):
        catalog, assignment, features = toy_corpus()
        config = TrainConfig(loss="circle", epochs=2, d_out=8, seed=3, m=4, k=3)
        a, ha = train(catalog, assignment, features, config)
        b, hb = train(catalog, assignment, features, config)
        assert a.weight.tobytes() == b.weight.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()
        assert ha.rows == hb.rows

    def test_seed_changes_outcome(self):
        catalog, assignment, features = toy_corpus()
        base = TrainConfig(loss="multisim", epochs=1, d_out=8, seed=0, m=4, k=3)
        other = TrainConfig(loss="multisim", epochs=1, d_out=8, seed=1, m=4, k=3)
        a, _ = train(catalog, assignment, features, base)
        b, _ = train(catalog, assignment, features, other)
        assert a.weight.tobytes() != b.weight.tobytes()

    def test_empty_val_ss_rejected(self):
        catalog, _, features = toy_corpus()
        all_train = SplitAssignment({r.image_id: "train" for r in catalog.records})
        with pytest.raises(TrainError, match="val_ss"):
            train(catalog, all_train, features, TrainConfig(epochs=1, m=4, k=3))

    @pytest.mark.parametrize("keep, match", [(1, "singleton"), (2, "one branch")])
    def test_val_ss_that_cannot_select_is_rejected_before_the_first_step(self, monkeypatch,
                                                                         keep, match):
        catalog, assignment, features = toy_corpus()
        monkeypatch.setattr(trainer, "_step", lambda *a: pytest.fail("a step ran"))
        with pytest.raises(TrainError, match=match):
            train(catalog, val_ss_kept(catalog, assignment, keep), features,
                  TrainConfig(epochs=1, m=4, k=3))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_a_diverged_head_names_the_epoch_and_the_lr(self):
        catalog, assignment, features = toy_corpus()
        config = TrainConfig(loss="triplet", lr=1e200, epochs=2, d_out=6, seed=0, m=4, k=3)
        with pytest.raises(TrainError, match=r"^epoch 1: the head diverged .* at lr=1e\+200$"):
            train(catalog, assignment, features, config)

    def test_an_empty_train_split_is_rejected(self):
        catalog, assignment, features = toy_corpus()
        mapping = {i: ("test_uu" if s == "train" else s) for i, s in assignment.assignment.items()}
        with pytest.raises(TrainError, match="^train split is empty$"):
            train(catalog, SplitAssignment(mapping), features, TrainConfig(epochs=1, m=4, k=3))

    def test_a_non_finite_batch_loss_is_refused(self, monkeypatch):
        catalog, assignment, features = toy_corpus()
        real = trainer.compute_loss
        monkeypatch.setattr(trainer, "compute_loss",
                            lambda *args: replace(real(*args), value=float("nan")))
        with pytest.raises(TrainError, match=r"^non-finite triplet loss \(nan\) on batch of 12$"):
            train(catalog, assignment, features, TrainConfig(loss="triplet", epochs=1, m=4, k=3))

    def test_missing_features_rejected(self):
        catalog, assignment, features = toy_corpus()
        truncated = features.subset(features.ids[:-1])
        with pytest.raises(EmbedStoreError, match="ids not in matrix"):
            train(catalog, assignment, truncated, TrainConfig(epochs=1, m=4, k=3))

    def test_config_validation(self):
        bad = (
            TrainConfig(loss="nope"),
            TrainConfig(lr=-1.0),
            TrainConfig(momentum=1.0),
            TrainConfig(epochs=0),
            TrainConfig(m=1),
            TrainConfig(d_out=1),
        )
        for config in bad:
            with pytest.raises(TrainError):
                config.validate()

    @pytest.mark.parametrize("field, value", [
        ("lr", float("nan")), ("lr", float("inf")), ("lr", True), ("lr", "0.1"),
        ("momentum", float("nan")), ("epochs", 1.5), ("d_out", 4.0), ("m", 4.0), ("k", None),
        ("seed", True),
    ])
    def test_config_rejects_values_that_are_not_finite_numbers(self, field, value):
        with pytest.raises(TrainError, match=f"^{field} must be a finite"):
            TrainConfig(**{field: value}).validate()

    def test_numpy_scalars_train_like_python_numbers(self):
        catalog, assignment, features = toy_corpus()
        plain = TrainConfig(lr=0.5, momentum=0.5, epochs=1, seed=3, m=4, k=3, d_out=8)
        scalars = TrainConfig(lr=np.float64(0.5), momentum=np.float32(0.5), epochs=np.int64(1),
                              seed=np.int64(3), m=np.int64(4), k=np.int16(3), d_out=np.int64(8))
        a, ha = train(catalog, assignment, features, plain)
        b, hb = train(catalog, assignment, features, scalars)
        assert a.weight.tobytes() == b.weight.tobytes()
        assert ha.rows == hb.rows


class TestCheckpoint:
    def test_round_trip_is_float32_exact(self, tmp_path):
        model = init_model(7, 5, seed=11)
        p = tmp_path / "m.toy1"
        save_model(p, model)
        back = load_model(p)
        assert np.array_equal(back.weight, model.weight.astype(np.float32).astype(np.float64))
        assert np.array_equal(back.bias, model.bias.astype(np.float32).astype(np.float64))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.toy1"
        p.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(TrainError, match="magic"):
            load_model(p)

    def test_truncated(self, tmp_path):
        model = init_model(4, 3, seed=0)
        p = tmp_path / "m.toy1"
        save_model(p, model)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(TrainError, match="size"):
            load_model(p)


    @pytest.mark.parametrize("blob", [
        b"EMB1" + bytes(20),  # another frame's magic
        b"TOY1" + bytes(9),  # 13 bytes: no whole float32 after the header
        b"TOY1" + struct.pack("<II", 4, 3) + bytes(4 * 12),  # no bias for a 4 -> 3 head
    ])
    def test_a_bad_frame_names_its_file(self, tmp_path, blob):
        p = tmp_path / "m.toy1"
        p.write_bytes(blob)
        with pytest.raises(TrainError, match=f"^{re.escape(str(p))}: (bad magic|model size|size) "):
            load_model(p)

    @pytest.mark.parametrize("d_out, values, message", [
        (1, [1.0, 1.0, 0.0], "d_out must be >= 2"),
        (2, [1.0, np.inf, 0.0, 1.0, 0.0, 0.0], "non-finite model parameters"),
    ])
    def test_bad_values_in_a_sound_frame_name_the_file(self, tmp_path, d_out, values, message):
        p = tmp_path / "m.toy1"
        p.write_bytes(b"TOY1" + struct.pack("<II", 2, d_out) + np.array(values, "<f4").tobytes())
        with pytest.raises(TrainError, match=f"^{re.escape(str(p))}: {message}$"):
            load_model(p)


class TestHistoryFile:
    def test_csv_layout(self, tmp_path):
        history = TrainHistory([(1, 0.5, 0.25, 0.75), (2, 0.25, 0.5, 0.8)])
        p = tmp_path / "h.csv"
        history.save(p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_r_at_1,val_auc"
        assert lines[1] == "1,0.500000,0.250000,0.750000"
        assert len(lines) == 3
