import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from splitmetric.catalog import Catalog, ImageRecord, load_catalog
from splitmetric.embedstore import EmbeddingMatrix, EmbedStoreError, top_k, unit_rows
from splitmetric.linkeval import (
    EvalError,
    EvalOptions,
    HardNegPool,
    LinkOracle,
    auroc,
    evaluate,
    mine_hard_negatives,
    sample_eval_pairs,
)


def oracle_of(mapping):
    return LinkOracle(dict(mapping))


def random_instance(rng, n=40, branches=6, d=5):
    ids = tuple(f"i{j:03d}" for j in range(n))
    labels = {i: f"b{int(rng.integers(branches))}" for i in ids}
    emb = EmbeddingMatrix(ids, rng.standard_normal((n, d)).astype(np.float32))
    return emb, oracle_of(labels)


def tied_instance(rng, n, branches):
    """Rows on five directions at two scales, shuffled ids: most cosines tie."""
    palette = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 0, 1], [-1, 1, 1]])
    data = palette[rng.integers(len(palette), size=n)] * rng.choice([1, 2], (n, 1))
    ids = tuple(f"i{j:03d}" for j in rng.permutation(n))
    emb = EmbeddingMatrix(ids, data.astype(np.float32))
    return emb, oracle_of({i: f"b{int(rng.integers(branches))}" for i in ids})


def outcome_of(fn, *args):
    """A call's JSON report, or its EvalError's text."""
    try:
        return fn(*args).to_json_dict()
    except EvalError as exc:
        return f"EvalError: {exc}"


def random_labels(rng):
    """Shuffled ids, interleaved branches; many branches leave singletons."""
    n = int(rng.integers(2, 60))
    n_branches = 2 if rng.random() < 0.25 else int(rng.integers(2, 16))
    return {f"i{j:03d}": f"b{int(rng.integers(n_branches))}" for j in rng.permutation(n)}


def reference_eval_pairs(image_ids, oracle, seed, hard_pool=None):
    """The per-anchor loop `sample_eval_pairs` replaced, kept as its reference."""
    ids = sorted(image_ids)
    groups = {}
    for image_id in ids:
        groups.setdefault(oracle.branch(image_id), []).append(image_id)
    if len(groups) < 2:
        raise EvalError(f"need at least 2 branches to sample negatives, got {len(groups)}")
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    pairs, skipped = [], 0
    for anchor in ids:
        b = oracle.branch(anchor)
        mates = [m for m in groups[b] if m != anchor]
        if not mates:
            skipped += 1
            continue
        pos = mates[int(rng.integers(len(mates)))]
        if hard_pool is None:
            candidates = [o for o in ids if oracle.branch(o) != b]
        else:
            candidates = hard_pool.negatives.get(anchor)
            if not candidates:
                raise EvalError(f"hard pool has no negatives for anchor {anchor!r}")
        neg = candidates[int(rng.integers(len(candidates)))]
        pairs += [(anchor, pos, 1), (anchor, neg, 0)]
    return tuple(pairs), skipped, "hard" if hard_pool is not None else "random"


def outcome(fn, *args):
    try:
        ps = fn(*args)
    except EvalError as exc:
        return f"EvalError: {exc}"
    return ps if isinstance(ps, tuple) else (ps.pairs, ps.skipped, ps.mode)


def brute_auroc(pos, neg):
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def exact_auroc(pos, neg):
    """(2 wins + ties) / (2 n+ n-) from a pair count, rounded once."""
    pos, neg = np.asarray(pos, dtype=np.float64), np.asarray(neg, dtype=np.float64)
    wins = ties = 0
    for lo in range(0, pos.size, 500):
        block = pos[lo:lo + 500, None]
        wins += int(np.count_nonzero(block > neg))
        ties += int(np.count_nonzero(block == neg))
    return float(Fraction(2 * wins + ties, 2 * pos.size * neg.size))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8], [0.1, 0.2]) == 1.0
        assert auroc([0.1, 0.2], [0.9, 0.8]) == 0.0

    def test_full_tie_is_half(self):
        assert auroc([0.5], [0.5]) == 0.5
        assert auroc([1.0, 1.0, 1.0], [1.0, 1.0]) == 0.5

    def test_three_quarters(self):
        # one of four ordered pairs is inverted
        assert auroc([0.8, 0.4], [0.6, 0.2]) == pytest.approx(0.75, abs=1e-15)

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            p = rng.integers(-2, 7, size=int(rng.integers(1, 26))) / 4.0
            n = rng.integers(-2, 7, size=int(rng.integers(1, 26))) / 4.0
            assert auroc(p, n) == pytest.approx(brute_auroc(list(p), list(n)), abs=1e-12)

    def test_equals_the_exact_pair_count(self):
        rng = np.random.default_rng(52)
        cases = [([0.0], [-0.0]), ([-0.0, 0.0, 0.0], [0.0, -0.0]), ([0.3], [0.7]), ([0.7], [0.3]),
                 ([0.5], rng.standard_normal(9)), (rng.standard_normal(9), [0.5])]
        for n_pos, n_neg in ((1, 1), (7, 3), (40, 60), (5000, 5000), (1, 5000), (5000, 1)):
            # rounded to one decimal: every side is heavy with ties across both sides
            cases.append((np.round(rng.standard_normal(n_pos), 1),
                          np.round(rng.standard_normal(n_neg) + 0.3, 1)))
        cases.append((rng.standard_normal(5000), rng.standard_normal(5000) - 0.5))
        for pos, neg in cases:
            assert auroc(pos, neg) == exact_auroc(pos, neg)
        assert auroc([0.0], [-0.0]) == auroc([-0.0], [0.0]) == 0.5

    def test_complement_identity(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            p = rng.integers(0, 9, size=int(rng.integers(1, 15))) / 4.0
            n = rng.integers(0, 9, size=int(rng.integers(1, 15))) / 4.0
            assert auroc(p, n) + auroc(n, p) == pytest.approx(1.0, abs=1e-12)

    def test_empty_side_rejected(self):
        with pytest.raises(EvalError):
            auroc([], [0.5])
        with pytest.raises(EvalError):
            auroc([0.5], [])

    def test_non_finite_score_rejected(self):
        # NaN sorts above every score, so it used to count as a perfect win
        with pytest.raises(EvalError, match="finite"):
            auroc([np.nan, 0.9], [0.1, 0.2])
        with pytest.raises(EvalError, match="finite"):
            auroc([0.9], [0.1, -np.inf])


class TestOracle:
    def test_from_catalog(self):
        cat = Catalog.from_records((ImageRecord("a", "b1", "c1"), ImageRecord("b", "b2")))
        oracle = LinkOracle.from_catalog(cat)
        assert oracle.branch("a") == "b1"
        assert oracle.branch("b") == "b2"

    def test_codes_number_branches_in_sorted_name_order(self):
        oracle = oracle_of({"x": "b", "y": "b", "z": "a", "w": "a\x00"})
        assert oracle.codes(["x", "z", "w", "y"]).tolist() == [2, 0, 1, 2]
        assert oracle.codes([]).tolist() == []

    def test_codes_match_the_object_unique(self):
        names = ["a", "a\x00", "A", "a\x00\x00", "b", "B", "é", "e", "É", "ß", "ss", "ı", "z"]
        rng = np.random.default_rng(53)
        labels = {f"i{j:03d}": names[int(rng.integers(len(names)))] for j in range(200)}
        oracle = oracle_of(labels)
        for ids in ([], ["i000"], list(labels), list(rng.permutation(list(labels))[:50])):
            got = oracle.codes(ids)
            want = np.unique(np.array([labels[i] for i in ids], dtype=object),
                             return_inverse=True)[1]
            assert got.dtype == want.dtype == np.intp
            assert got.tolist() == want.tolist()
        with pytest.raises(EvalError, match=r"^no branch label for image 'ghost'$"):
            oracle.codes(["i000", "ghost"])

    def test_unknown_image(self):
        with pytest.raises(EvalError, match="ghost"):
            oracle_of({"x": "b"}).branch("ghost")


class TestSampling:
    def test_smallest_instance(self):
        oracle = oracle_of({"i1": "a", "i2": "a", "i3": "b"})
        ps = sample_eval_pairs(["i1", "i2", "i3"], oracle, seed=0)
        assert ps.skipped == 1  # i3 has no positive partner
        assert ps.pairs == (
            ("i1", "i2", 1), ("i1", "i3", 0),
            ("i2", "i1", 1), ("i2", "i3", 0),
        )

    @pytest.mark.parametrize("seed", [1.5, "3", None, True])
    def test_seed_must_be_an_integer(self, seed):
        oracle = oracle_of({"i1": "a", "i2": "a", "i3": "b"})
        with pytest.raises(EvalError, match="^seed must be a finite int"):
            sample_eval_pairs(["i1", "i2", "i3"], oracle, seed=seed)

    def test_numpy_integer_seed_draws_like_the_python_int(self):
        emb, oracle = random_instance(np.random.default_rng(61), n=30)
        want = sample_eval_pairs(emb.ids, oracle, seed=7).pairs
        assert sample_eval_pairs(emb.ids, oracle, seed=np.int64(7)).pairs == want

    def test_pair_count_is_two_per_eligible_anchor(self):
        rng = np.random.default_rng(60)
        for _ in range(6):
            emb, oracle = random_instance(rng, n=int(rng.integers(10, 80)))
            counts = {}
            for i in emb.ids:
                counts[oracle.branch(i)] = counts.get(oracle.branch(i), 0) + 1
            if len(counts) < 2:
                continue
            eligible = sum(1 for i in emb.ids if counts[oracle.branch(i)] >= 2)
            ps = sample_eval_pairs(emb.ids, oracle, seed=3)
            assert len(ps.pairs) == 2 * eligible
            assert ps.skipped == len(emb.ids) - eligible

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(61)
        emb, oracle = random_instance(rng, n=50)
        a = sample_eval_pairs(emb.ids, oracle, seed=9)
        b = sample_eval_pairs(emb.ids, oracle, seed=9)
        c = sample_eval_pairs(emb.ids, oracle, seed=10)
        assert a.pairs == b.pairs
        assert a.pairs != c.pairs

    def test_singleton_is_skipped_as_anchor_but_stays_a_negative(self):
        labels = {"a1": "x", "a2": "x", "m0": "lonely", "n1": "y", "n2": "y"}
        ps = sample_eval_pairs(sorted(labels), oracle_of(labels), seed=4)
        assert ps.skipped == 1
        anchors = {p[0] for p in ps.pairs}
        assert "m0" not in anchors  # no positive partner exists for it
        assert anchors == {"a1", "a2", "n1", "n2"}
        # it is still a different-branch image, hence a valid negative draw
        negative_partners = {p[1] for p in ps.pairs if p[2] == 0}
        assert negative_partners <= {"a1", "a2", "m0", "n1", "n2"}

    def test_needs_two_branches(self):
        with pytest.raises(EvalError, match="2 branches"):
            sample_eval_pairs(["a", "b"], oracle_of({"a": "x", "b": "x"}), seed=0)

    def test_hard_mode_pulls_from_pool(self):
        oracle = oracle_of({"i1": "a", "i2": "a", "i3": "b", "i4": "b"})
        pool = HardNegPool({"i1": ("i4",), "i2": ("i4",), "i3": ("i1",), "i4": ("i1",)}, k=1)
        ps = sample_eval_pairs(["i1", "i2", "i3", "i4"], oracle, seed=0, hard_pool=pool)
        assert ps.mode == "hard"
        negatives = {p[0]: p[1] for p in ps.pairs if p[2] == 0}
        assert negatives == {"i1": "i4", "i2": "i4", "i3": "i1", "i4": "i1"}

    def test_hard_mode_pairs_hold_the_callers_id_objects(self):
        # the pool holds plain str; a pair must not mix it with the caller's np.str_
        labels = {"i1": "a", "i2": "a", "i3": "b", "i4": "b"}
        pool = HardNegPool({"i1": ("i3", "i4"), "i2": ("i4",), "i3": ("i1",),
                            "i4": ("i2", "i1")}, k=2)
        ids = list(np.array(list(labels)))
        ps = sample_eval_pairs(ids, oracle_of(labels), seed=0, hard_pool=pool)
        assert {type(i) for anchor, partner, _ in ps.pairs for i in (anchor, partner)} == {
            np.str_}

    def test_matches_per_anchor_reference(self):
        rng = np.random.default_rng(62)
        seen = {"singleton": 0, "two_branches": 0, "error": 0}
        for _ in range(240):
            labels = random_labels(rng)
            oracle = oracle_of(labels)
            ids = list(labels)
            sizes = {}
            for b in labels.values():
                sizes[b] = sizes.get(b, 0) + 1
            seen["singleton"] += min(sizes.values()) == 1
            seen["two_branches"] += len(sizes) == 2
            # shuffled pools over other branches; about one in 40 anchors has none
            pool = HardNegPool({
                i: tuple(o for o in rng.permutation(ids) if labels[o] != labels[i])[
                    : int(rng.integers(1, 6))]
                for i in ids if rng.random() > 0.025
            }, k=5)
            for seed in (0, 7, int(rng.integers(2**63))):
                for hard_pool in (None, pool):
                    want = outcome(reference_eval_pairs, ids, oracle, seed, hard_pool)
                    assert outcome(sample_eval_pairs, ids, oracle, seed, hard_pool) == want
                    seen["error"] += isinstance(want, str)
        assert min(seen.values()) > 0, seen

    def test_duplicate_ids_rejected(self):
        with pytest.raises(EvalError, match="unique"):
            sample_eval_pairs(["a", "a", "b"], oracle_of({"a": "x", "b": "y"}), seed=0)

    def test_missing_pool_names_first_eligible_anchor(self):
        labels = {"a0": "lonely", "b1": "x", "b2": "x", "c1": "y", "c2": "y"}
        # a0 is a singleton, so its missing pool is never asked for
        pool = HardNegPool({"b1": ("c1",), "c1": ("b1",)}, k=1)
        with pytest.raises(EvalError, match="anchor 'b2'"):
            sample_eval_pairs(list(reversed(labels)), oracle_of(labels), seed=0, hard_pool=pool)

    def test_pool_entry_from_the_anchors_own_branch_rejected(self):
        # drawn as a "negative", it would turn AUC_H into a plausible 0.5
        labels = {"i1": "a", "i2": "a", "i3": "b", "i4": "b"}
        pool = HardNegPool({"i1": ("i3", "i2"), "i2": ("i1",), "i3": ("i1",), "i4": ("i1",)},
                           k=2)
        emb = EmbeddingMatrix(tuple(labels), np.eye(4, dtype=np.float32))
        message = "anchor 'i1' holds 'i2', which is in the anchor's own branch"
        with pytest.raises(EvalError, match=message):
            sample_eval_pairs(list(labels), oracle_of(labels), seed=0, hard_pool=pool)
        with pytest.raises(EvalError, match=message):
            evaluate(emb, oracle_of(labels), EvalOptions(repeats=2, hard_pool=pool))

    def test_pool_id_outside_the_evaluated_ids_rejected(self):
        # a stray id has no embedding row to score, and is no valid negative
        labels = {"i1": "a", "i2": "a", "i3": "b", "i4": "b"}
        pool = HardNegPool({"i1": ("i3",), "i2": ("i4",), "i3": ("z",), "i4": ("i1",)}, k=1)
        emb = EmbeddingMatrix(tuple(labels), np.eye(4, dtype=np.float32))
        message = "anchor 'i3' holds 'z', which is not an evaluated id"
        with pytest.raises(EvalError, match=message):
            sample_eval_pairs(list(labels), oracle_of(labels), seed=0, hard_pool=pool)
        with pytest.raises(EvalError, match=message):
            evaluate(emb, oracle_of(labels), EvalOptions(repeats=2, hard_pool=pool))

    def test_hard_mode_missing_anchor(self):
        oracle = oracle_of({"i1": "a", "i2": "a", "i3": "b", "i4": "b"})
        pool = HardNegPool({"i1": ("i4",)}, k=1)
        with pytest.raises(EvalError, match="no negatives"):
            sample_eval_pairs(["i1", "i2", "i3", "i4"], oracle, seed=0, hard_pool=pool)


def brute_pools(emb, oracle, k):
    """Per anchor, its k most similar different-branch ids, ties to the smaller id."""
    unit = emb.data.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    row = {i: j for j, i in enumerate(emb.ids)}
    pools = {}
    for anchor in sorted(emb.ids):
        scored = sorted(
            (-float(unit[row[anchor]] @ unit[row[other]]), other)
            for other in emb.ids
            if other != anchor and oracle.branch(other) != oracle.branch(anchor)
        )
        pools[anchor] = tuple(o for _, o in scored[:k])
    return pools


def reference_pools(reference, oracle, k, threads=1):
    """The dict that mining built before pools kept `top_k`'s positions."""
    ids = sorted(reference.ids)
    sub = reference.subset(ids)
    branches = oracle.codes(ids)
    indices, sims = top_k(unit_rows(sub.data), unit_rows(sub.data), min(k, len(ids)),
                          branches, branches, threads)
    kept = np.count_nonzero(sims > -np.inf, axis=1).tolist()
    named = np.array(ids, dtype=object)[indices].tolist()
    return {i: tuple(row[:n]) for i, row, n in zip(ids, named, kept)}


class TestMining:
    def test_pools_equal_the_reference_dict(self):
        rng = np.random.default_rng(78)
        cases = [tied_instance(rng, n, branches)
                 for n, branches in ((1, 2), (9, 3), (60, 4), (700, 6))]
        cases += [random_instance(rng, n=int(rng.integers(2, 60)), branches=int(rng.integers(2, 8)),
                                  d=int(rng.integers(2, 6))) for _ in range(6)]
        cases += [(emb, oracle_of(dict.fromkeys(emb.ids, "x"))) for emb, _ in cases[1:3]]
        empty = 0
        for emb, oracle in cases:
            for k in sorted({1, 2, 3, 10, emb.n - 1, emb.n, emb.n + 5} - {0}):
                for threads in (1, 2):
                    pool = mine_hard_negatives(emb, oracle, k=k, threads=threads)
                    want = reference_pools(emb, oracle, k, threads)
                    assert (pool.k, pool.negatives) == (k, want), (emb.n, k, threads)
                    empty += all(p == () for p in want.values())
        assert empty > 0

    def test_named_pool_keeps_its_dict_and_layout(self):
        emb, oracle = tied_instance(np.random.default_rng(79), 60, 4)
        pool = mine_hard_negatives(emb, oracle, k=5)
        rows = pool.rows
        assert rows[0] == tuple(sorted(emb.ids)) and len(rows[2]) == emb.n
        named = pool.negatives
        assert pool.negatives is named and pool.rows is rows
        # a dict pool's ids are its keys in order, then the other pooled ids with empty pools
        ids, positions, lengths = HardNegPool({"c": ("a", "z"), "a": ("y",), "b": None}, 2).rows
        assert ids == ("c", "a", "b", "z", "y")
        assert positions.tolist() == [1, 3, 4] and lengths.tolist() == [2, 1, 0, 0, 0]

    def test_zero_row_is_named_by_its_id(self):
        emb = EmbeddingMatrix(("d", "c", "b", "a"), np.array(
            [[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.float32))
        oracle = oracle_of({"d": "x", "c": "x", "b": "y", "a": "y"})
        with pytest.raises(EmbedStoreError,
                           match="^image 'd' has a zero row, which has no direction$"):
            mine_hard_negatives(emb, oracle, k=2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(70)
        emb, oracle = random_instance(rng, n=40, branches=5)
        pool = mine_hard_negatives(emb, oracle, k=6)
        assert pool.negatives == brute_pools(emb, oracle, 6)

    def test_short_and_full_pools_in_one_call(self):
        rng = np.random.default_rng(77)
        n, k = 700, 10  # more rows than one 512-row block
        ids = tuple(f"i{j:03d}" for j in rng.permutation(n))
        # 694 images in one branch have 6 negatives each; the other 6 have full pools
        labels = {i: "big" for i in ids[:694]} | {i: f"s{j % 3}" for j, i in enumerate(ids[694:])}
        emb = EmbeddingMatrix(ids, rng.standard_normal((n, 5)).astype(np.float32))
        oracle = oracle_of(labels)
        want = brute_pools(emb, oracle, k)
        assert sorted(map(len, want.values())) == [6] * 694 + [k] * 6
        for threads in (1, 2):
            pool = mine_hard_negatives(emb, oracle, k=k, threads=threads)
            assert pool.negatives == want

    def test_tied_rows_match_brute_force(self):
        emb, oracle = tied_instance(np.random.default_rng(74), 60, 4)
        ids, data = emb.ids, emb.data.astype(np.float64)
        unit = data / np.linalg.norm(data, axis=1, keepdims=True)
        row = {i: j for j, i in enumerate(ids)}
        for k in (1, 3, 50, 100):  # 100 exceeds every anchor's negatives
            for threads in (1, 2):
                pool = mine_hard_negatives(emb, oracle, k=k, threads=threads)
                for anchor in ids:
                    scored = sorted(
                        (-float(unit[row[anchor]] @ unit[row[other]]), other)
                        for other in ids if oracle.branch(other) != oracle.branch(anchor)
                    )
                    assert pool.negatives[anchor] == tuple(o for _, o in scored[:k])

    def test_zero_and_one_image(self):
        empty = EmbeddingMatrix((), np.zeros((0, 3), dtype=np.float32))
        assert mine_hard_negatives(empty, oracle_of({}), k=5).negatives == {}
        one = EmbeddingMatrix(("a",), np.ones((1, 3), dtype=np.float32))
        assert mine_hard_negatives(one, oracle_of({"a": "x"}), k=5).negatives == {"a": ()}

    def test_memory_stays_below_an_n_by_n_array(self):
        rng = np.random.default_rng(75)
        n = 3000
        emb, oracle = random_instance(rng, n=n, branches=50, d=8)
        for threads in (1, 2):
            tracemalloc.start()
            try:
                mine_hard_negatives(emb, oracle, k=10, threads=threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n * n * 8 / 2, (threads, peak)

    def test_short_pools_when_few_negatives(self):
        oracle = oracle_of({"a": "x", "b": "y", "c": "y"})
        emb = EmbeddingMatrix(("a", "b", "c"), np.eye(3, dtype=np.float32))
        pool = mine_hard_negatives(emb, oracle, k=10)
        assert len(pool.negatives["a"]) == 2
        assert len(pool.negatives["b"]) == 1

    def test_same_branch_only_gives_empty_pools(self):
        oracle = oracle_of({"a": "x", "b": "x"})
        emb = EmbeddingMatrix(("a", "b"), np.eye(2, dtype=np.float32))
        for k in (1, 3):  # every cell scores -inf; k = 1 takes the argmax path
            pool = mine_hard_negatives(emb, oracle, k=k)
            assert pool.negatives == {"a": (), "b": ()}

    def test_k1_matches_brute_force_across_block_edge(self):
        emb, oracle = tied_instance(np.random.default_rng(76), 700, 6)  # two 512-row blocks
        ids, data = emb.ids, emb.data.astype(np.float64)
        unit = data / np.linalg.norm(data, axis=1, keepdims=True)
        row = {i: j for j, i in enumerate(ids)}
        general = mine_hard_negatives(emb, oracle, k=2)  # the k > 1 path
        for threads in (1, 2):
            pool = mine_hard_negatives(emb, oracle, k=1, threads=threads)
            assert pool.negatives == {a: p[:1] for a, p in general.negatives.items()}
        for anchor in sorted(ids)[448:576]:  # the anchors on both sides of row 512
            scored = sorted(
                (-float(unit[row[anchor]] @ unit[row[other]]), other)
                for other in ids if oracle.branch(other) != oracle.branch(anchor)
            )
            assert pool.negatives[anchor] == (scored[0][1],)
        one_branch = mine_hard_negatives(emb, oracle_of(dict.fromkeys(ids, "x")), k=1)
        assert one_branch.negatives == dict.fromkeys(ids, ())

    def test_tie_breaks_toward_smaller_id(self):
        data = np.array([[1.0, 0.0], [0.9, 0.1], [0.9, 0.1]], dtype=np.float32)
        oracle = oracle_of({"anchor": "x", "n2": "y", "n1": "y"})
        emb = EmbeddingMatrix(("anchor", "n2", "n1"), data)
        pool = mine_hard_negatives(emb, oracle, k=2)
        # n1 and n2 share a vector; the smaller id must come first
        assert pool.negatives["anchor"] == ("n1", "n2")

    def test_pool_is_at_least_as_hard_as_the_rest(self):
        rng = np.random.default_rng(71)
        emb, oracle = random_instance(rng, n=60, branches=4)
        k = 5
        pool = mine_hard_negatives(emb, oracle, k=k)
        unit = emb.data.astype(np.float64)
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        row = {i: j for j, i in enumerate(emb.ids)}
        for anchor, pooled in pool.negatives.items():
            others = [o for o in emb.ids
                      if o != anchor and oracle.branch(o) != oracle.branch(anchor)
                      and o not in pooled]
            if not others or not pooled:
                continue
            lo = min(float(unit[row[anchor]] @ unit[row[p]]) for p in pooled)
            hi = max(float(unit[row[anchor]] @ unit[row[o]]) for o in others)
            assert lo >= hi

    def test_deterministic(self):
        rng = np.random.default_rng(72)
        emb, oracle = random_instance(rng, n=30)
        a = mine_hard_negatives(emb, oracle, k=4)
        b = mine_hard_negatives(emb, oracle, k=4)
        assert a.negatives == b.negatives

    def test_threads_equivalent(self):
        rng = np.random.default_rng(73)
        emb, oracle = random_instance(rng, n=1200, branches=8, d=4)
        a = mine_hard_negatives(emb, oracle, k=3, threads=1)
        b = mine_hard_negatives(emb, oracle, k=3, threads=4)
        assert a.negatives == b.negatives

    def test_k_below_one_is_a_domain_error(self):
        emb, oracle = random_instance(np.random.default_rng(73), n=20)
        with pytest.raises(EvalError, match="^k must be >= 1$"):
            mine_hard_negatives(emb, oracle, k=0)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_thread_count_below_one_is_a_domain_error(self, threads):
        emb, oracle = random_instance(np.random.default_rng(73), n=20)
        with pytest.raises(EvalError, match="^threads must be >= 1$"):
            mine_hard_negatives(emb, oracle, k=3, threads=threads)


def brute_evaluate(emb, oracle, repeats, seed):
    """Loop reimplementation of the whole report (no package internals).

    Every loop walks the ids in sorted order, so an R@1 tie goes to the smaller id.
    """
    ids = list(emb.ids)
    unit = emb.data.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    row = {i: j for j, i in enumerate(ids)}
    counts = {}
    for i in ids:
        counts[oracle.branch(i)] = counts.get(oracle.branch(i), 0) + 1

    sorted_ids = sorted(ids)
    hits = total = 0
    for i in sorted_ids:
        if counts[oracle.branch(i)] < 2:
            continue
        total += 1
        best, best_j = -np.inf, None
        for j in sorted_ids:
            if j == i:
                continue
            s = float(unit[row[i]] @ unit[row[j]])
            if s > best:
                best, best_j = s, j
        if oracle.branch(best_j) == oracle.branch(i):
            hits += 1

    groups = {}
    for i in sorted_ids:
        groups.setdefault(oracle.branch(i), []).append(i)
    aucs = []
    for r in range(repeats):
        rng = np.random.default_rng(seed + r)
        pos_scores, neg_scores = [], []
        for anchor in sorted_ids:
            mates = [m for m in groups[oracle.branch(anchor)] if m != anchor]
            if not mates:
                continue
            pos = mates[int(rng.integers(len(mates)))]
            negs = [o for o in sorted_ids if oracle.branch(o) != oracle.branch(anchor)]
            neg = negs[int(rng.integers(len(negs)))]
            pos_scores.append(float(unit[row[anchor]] @ unit[row[pos]]))
            neg_scores.append(float(unit[row[anchor]] @ unit[row[neg]]))
        aucs.append(brute_auroc(pos_scores, neg_scores))
    return hits / total, aucs


class TestEvaluate:
    def test_orthogonal_clusters_are_perfect(self):
        data = np.repeat(np.eye(3, dtype=np.float32), 3, axis=0)
        ids = tuple(f"i{j}" for j in range(9))
        oracle = oracle_of({f"i{j}": f"b{j // 3}" for j in range(9)})
        report = evaluate(EmbeddingMatrix(ids, data), oracle, EvalOptions(repeats=4, seed=0))
        assert report.r_at_1 == 1.0
        assert report.auc_mean == 1.0 and report.auc_std == 0.0

    def test_identical_embeddings_score_half(self):
        data = np.ones((6, 4), dtype=np.float32)
        ids = tuple(f"i{j}" for j in range(6))
        oracle = oracle_of({f"i{j}": f"b{j % 2}" for j in range(6)})
        report = evaluate(EmbeddingMatrix(ids, data), oracle, EvalOptions(repeats=3, seed=1))
        assert report.auc_repeats == (0.5, 0.5, 0.5)
        assert report.auc_std == 0.0

    def test_numpy_seed_near_int64_max_does_not_overflow(self):
        emb, oracle = random_instance(np.random.default_rng(83), n=12, branches=3)
        want = evaluate(emb, oracle, EvalOptions(repeats=3, seed=2**63 - 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate(emb, oracle, EvalOptions(repeats=3, seed=np.int64(2**63 - 2)))
        assert got.auc_repeats == want.auc_repeats

    def test_matches_loop_reimplementation(self):
        rng = np.random.default_rng(80)
        emb, oracle = random_instance(rng, n=40, branches=5, d=4)
        report = evaluate(emb, oracle, EvalOptions(repeats=5, seed=11))
        want_r1, want_aucs = brute_evaluate(emb, oracle, repeats=5, seed=11)
        assert report.r_at_1 == want_r1
        assert report.auc_repeats == pytest.approx(want_aucs, abs=1e-12)
        assert report.auc_mean == pytest.approx(float(np.mean(want_aucs)), abs=1e-12)
        assert report.auc_std == pytest.approx(float(np.std(want_aucs)), abs=1e-12)

    def test_row_order_is_neutral_under_ties(self):
        """60 rows on 4 directions over 6 branches: every cosine ties with many
        others, and every row order gives the same report, R@1 included."""
        rng = np.random.default_rng(86)
        palette = rng.standard_normal((4, 3)).astype(np.float32)
        ids = tuple(f"i{j:02d}" for j in range(60))
        data = palette[rng.integers(4, size=60)]
        oracle = oracle_of({i: f"b{int(rng.integers(6))}" for i in ids})
        emb = EmbeddingMatrix(ids, data)
        options = EvalOptions(repeats=3, seed=5, hard_pool=mine_hard_negatives(emb, oracle, k=5))
        want = evaluate(emb, oracle, options).to_json_dict()
        assert want["r_at_1"] == brute_evaluate(emb, oracle, repeats=1, seed=0)[0]
        for _ in range(20):
            perm = rng.permutation(60)
            shuffled = EmbeddingMatrix(tuple(ids[p] for p in perm), data[perm])
            assert evaluate(shuffled, oracle, options).to_json_dict() == want

    def test_row_scaling_is_neutral(self):
        rng = np.random.default_rng(81)
        emb, oracle = random_instance(rng, n=30, branches=4)
        scales = rng.uniform(0.5, 5.0, size=(30, 1)).astype(np.float32)
        scaled = EmbeddingMatrix(emb.ids, emb.data * scales)
        a = evaluate(emb, oracle, EvalOptions(repeats=3, seed=2))
        b = evaluate(scaled, oracle, EvalOptions(repeats=3, seed=2))
        assert a.r_at_1 == b.r_at_1
        assert a.auc_repeats == pytest.approx(b.auc_repeats, abs=1e-9)

    def test_repeat_seeds_nest(self):
        rng = np.random.default_rng(82)
        emb, oracle = random_instance(rng, n=25)
        one = evaluate(emb, oracle, EvalOptions(repeats=1, seed=7))
        three = evaluate(emb, oracle, EvalOptions(repeats=3, seed=7))
        assert three.auc_repeats[0] == one.auc_repeats[0]
        assert len(three.auc_repeats) == 3

    def test_hard_pool_report(self):
        rng = np.random.default_rng(83)
        emb, oracle = random_instance(rng, n=30, branches=4)
        pool = mine_hard_negatives(emb, oracle, k=5)
        report = evaluate(emb, oracle, EvalOptions(repeats=4, seed=0, hard_pool=pool))
        assert report.auc_h_mean is not None
        assert len(report.auc_h_repeats) == 4
        payload = report.to_json_dict()
        assert set(payload) == {"r_at_1", "auc", "auc_h", "skipped"}
        assert set(payload["auc"]) == {"mean", "std", "repeats"}
        assert set(payload["auc_h"]) == {"mean", "std", "repeats"}

    def test_json_null_without_pool(self):
        rng = np.random.default_rng(84)
        emb, oracle = random_instance(rng, n=20)
        payload = evaluate(emb, oracle, EvalOptions(repeats=2, seed=0)).to_json_dict()
        assert payload["auc_h"] is None

    def test_shuffled_order_with_singletons_matches_brute_force(self):
        rng = np.random.default_rng(85)
        for _ in range(8):
            n = int(rng.integers(20, 60))
            ids = tuple(f"i{j:03d}" for j in rng.permutation(n))
            labels = {i: f"b{int(rng.integers(n // 2))}" for i in ids}
            oracle = oracle_of(labels)
            emb = EmbeddingMatrix(ids, rng.standard_normal((n, 3)).astype(np.float32))
            sizes = {}
            for b in labels.values():
                sizes[b] = sizes.get(b, 0) + 1
            if len(sizes) < 2 or max(sizes.values()) < 2:
                continue
            report = evaluate(emb, oracle, EvalOptions(repeats=2, seed=5))
            want_r1, want_aucs = brute_evaluate(emb, oracle, repeats=2, seed=5)
            assert report.r_at_1 == want_r1
            assert report.skipped == sum(1 for b in labels.values() if sizes[b] == 1) > 0
            assert report.auc_repeats == pytest.approx(want_aucs, abs=1e-12)

    def test_both_modes_match_public_pairs_scored_by_brute_force(self):
        rng = np.random.default_rng(86)
        checked = 0
        for _ in range(8):
            n = int(rng.integers(20, 60))
            ids = tuple(f"i{j:03d}" for j in rng.permutation(n))
            labels = {i: f"b{int(rng.integers(n // 2))}" for i in ids}
            oracle = oracle_of(labels)
            sizes = {}
            for b in labels.values():
                sizes[b] = sizes.get(b, 0) + 1
            if len(sizes) < 2 or max(sizes.values()) < 2:
                continue
            emb = EmbeddingMatrix(ids, rng.standard_normal((n, 3)).astype(np.float32))
            pool = HardNegPool({
                i: tuple(o for o in rng.permutation(ids) if labels[o] != labels[i])[
                    : int(rng.integers(1, 6))]
                for i in ids
            }, k=5)
            report = evaluate(emb, oracle, EvalOptions(repeats=3, seed=5, hard_pool=pool))
            unit = emb.data.astype(np.float64)
            unit /= np.linalg.norm(unit, axis=1, keepdims=True)
            row = {i: j for j, i in enumerate(ids)}

            def pair_auroc(pairs):
                scores = {0: [], 1: []}
                for a, b, y in pairs:
                    scores[y].append(float(unit[row[a]] @ unit[row[b]]))
                return brute_auroc(scores[1], scores[0])

            for r in range(3):
                hard_pairs, _, _ = reference_eval_pairs(ids, oracle, 5 + r, pool)
                assert report.auc_h_repeats[r] == pytest.approx(pair_auroc(hard_pairs), abs=1e-12)
                for hard_pool, got in ((None, report.auc_repeats), (pool, report.auc_h_repeats)):
                    pairs = sample_eval_pairs(ids, oracle, 5 + r, hard_pool).pairs
                    assert got[r] == pytest.approx(pair_auroc(pairs), abs=1e-12)
            checked += report.skipped > 0
        assert checked > 0

    def test_zero_row_is_named_by_its_id(self):
        emb = EmbeddingMatrix(("d", "c", "b", "a"), np.array(
            [[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.float32))
        oracle = oracle_of({"d": "x", "c": "x", "b": "y", "a": "y"})
        with pytest.raises(EmbedStoreError,
                           match="^image 'd' has a zero row, which has no direction$"):
            evaluate(emb, oracle, EvalOptions(repeats=2))

    def test_mined_pool_scores_like_its_dict(self):
        """A mined pool, a mined pool whose ``negatives`` was read first and the
        dict it names give the same report bit for bit, on the mined ids, a
        strict subset of them and a strict superset."""
        rng = np.random.default_rng(87)
        n = 80
        # 60 rows in the positive orthant; 20 more point away from all of them,
        # so no anchor among the 60 has any of the 20 in its 4 hardest negatives
        inner = np.abs(rng.standard_normal((60, 4))) + 0.1
        data = np.r_[inner, -np.abs(rng.standard_normal((20, 4))) - 0.1].astype(np.float32)
        ids = tuple(f"i{j:03d}" for j in rng.permutation(n))
        oracle = oracle_of({i: f"b{j % 5}" for j, i in enumerate(ids)})
        full = EmbeddingMatrix(ids, data)
        head = EmbeddingMatrix(ids, rng.standard_normal((n, 3)).astype(np.float32))
        lacking = f"EvalError: hard pool has no negatives for anchor {min(ids[60:])!r}"
        for mined_on, evaluated_on, want_error in ((ids, ids, None), (ids[:60], ids[:60], None),
                                                   (ids, ids[:60], None), (ids[:60], ids, lacking)):
            reference, evaluated = full.subset(mined_on), head.subset(evaluated_on)
            for k in (1, 4):
                mined, read = (mine_hard_negatives(reference, oracle, k=k) for _ in range(2))
                named = HardNegPool(dict(read.negatives), k)
                got, got_read, want = (outcome_of(evaluate, evaluated, oracle,
                                                  EvalOptions(repeats=3, seed=9, hard_pool=pool))
                                       for pool in (mined, read, named))
                assert got == got_read == want
                if want_error is None:
                    assert want["auc_h"] is not None
                else:
                    assert want == want_error

    def test_a_dict_pool_keeps_its_pools_when_the_given_dict_changes(self):
        emb, oracle = tied_instance(np.random.default_rng(88), 40, 4)
        given = dict(mine_hard_negatives(emb, oracle, k=3).negatives)
        pool = HardNegPool(given, 3)
        options = EvalOptions(repeats=3, seed=4, hard_pool=pool)

        def state():
            ids, positions, lengths = pool.rows
            return (dict(pool.negatives), ids, positions.tolist(), lengths.tolist(),
                    outcome_of(evaluate, emb, oracle, options))

        before = state()
        first, second, *_ = sorted(given)
        given[first] = given[first][::-1]
        del given[second]
        given["stray"] = (first,)
        assert state() == before
        assert before[-1]["auc_h"] is not None

    def test_a_dict_pool_keeps_its_pools_when_a_given_list_changes(self):
        given = {"a": ["b"], "b": ["a"], "c": None}
        pool = HardNegPool(given, 1)
        given["a"].append("c")
        assert pool.negatives == {"a": ("b",), "b": ("a",), "c": ()}
        assert pool.rows[2].tolist() == [1, 1, 0]

    def test_all_singletons_rejected(self):
        emb = EmbeddingMatrix(("a", "b"), np.eye(2, dtype=np.float32))
        with pytest.raises(EvalError, match="singleton"):
            evaluate(emb, oracle_of({"a": "x", "b": "y"}), EvalOptions())

    @pytest.mark.parametrize("labels, message", [
        ({}, "every branch is a singleton; no metric is defined"),
        ({"a": "x"}, "every branch is a singleton; no metric is defined"),
        ({"a": "x", "b": "y", "c": "z"}, "every branch is a singleton; no metric is defined"),
        ({"a": "x", "b": "x"}, "need at least 2 branches to sample negatives, got 1"),
    ])
    def test_refusals_keep_their_messages(self, labels, message):
        emb = EmbeddingMatrix(tuple(labels), np.ones((len(labels), 2), dtype=np.float32))
        with pytest.raises(EvalError) as caught:
            evaluate(emb, oracle_of(labels), EvalOptions())
        assert str(caught.value) == message


def test_branches_differing_by_a_trailing_nul_stay_apart(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text("image_id,branch_id,chain_id\ni1,a,c\ni2,a,c\ni3,a\x00,c\ni4,a\x00,c\n",
                    encoding="utf-8")
    catalog = load_catalog(path)
    assert len(catalog.branch_index) == 2
    oracle = LinkOracle.from_catalog(catalog)
    data = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0], [0.1, 1.0]], dtype=np.float32)
    emb = EmbeddingMatrix(("i1", "i2", "i3", "i4"), data)

    pool = mine_hard_negatives(emb, oracle, k=2)
    other = {"i1": {"i3", "i4"}, "i2": {"i3", "i4"}, "i3": {"i1", "i2"}, "i4": {"i1", "i2"}}
    assert {a: set(v) for a, v in pool.negatives.items()} == other
    for hard_pool in (None, pool):
        ps = sample_eval_pairs(emb.ids, oracle, seed=0, hard_pool=hard_pool)
        assert ps.skipped == 0
        assert {(a, b) for a, b, y in ps.pairs if y == 1} == {
            ("i1", "i2"), ("i2", "i1"), ("i3", "i4"), ("i4", "i3")}
        assert all(b in other[a] for a, b, y in ps.pairs if y == 0)
    report = evaluate(emb, oracle, EvalOptions(repeats=2, seed=0, hard_pool=pool))
    assert (report.r_at_1, report.auc_mean, report.auc_h_mean, report.skipped) == (1.0, 1.0, 1.0, 0)
