"""Release gate: nine numbered checks, one printed PASS/FAIL line each.

Every numeric claim is re-derived here with a local brute-force or
finite-difference reimplementation; nothing trusts the package's own
fast paths.  Budgeted checks time themselves with perf_counter.
"""
import sys
import time

import numpy as np
import pytest

from splitmetric.catalog import Catalog, ImageRecord, dedup_merge, load_catalog, save_catalog
from splitmetric.embedstore import EmbeddingMatrix, read_embeddings, write_embeddings
from splitmetric.linkeval import (
    EvalOptions,
    LinkOracle,
    auroc,
    evaluate,
    mine_hard_negatives,
)
from splitmetric.losses import Batch, CenterBank, LossParams, ProxyBank, compute_loss
from splitmetric.splitgen import SPLIT_NAMES, SplitConfig, generate_splits, verify_splits
from splitmetric.synth import generate, standard_corpus_config
from splitmetric.trainer import TrainConfig, ToyModel, forward, head_backward, init_model, train
from splitmetric import cli
from test_losses import finite_diff_check

# head bottleneck for the ordering/hard-negative checks (6, 7): the corpus
# geometry is pinned, so the generalization gap has to come from capacity —
# a 2-d output starves the head enough that unseen branches measurably blur
# (at d_out >= 8 every split saturates near AUC 1.0 and no ordering shows).
HEAD_D_OUT = 2
HEAD_LR = 0.2
HEAD_EPOCHS = 30
HARD_K = 10
GATE_SEEDS = range(5)
GATE_SPLITS = SplitConfig(seed=0, uu_chain_fraction=0.15, su_branch_fraction=0.15,
                          t1=10, t2=2)


def _verdict(n: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"{line} {detail}".strip()


def _unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


# ---------------------------------------------------------------- 1: splits

def _log_uniform(rng, lo: int, hi: int) -> int:
    return int(round(lo * (hi / lo) ** rng.random()))


def _random_catalog(rng) -> Catalog:
    n_chains = int(rng.integers(10, 51))
    n_branches = _log_uniform(rng, 50, 800)
    unknown_frac = float(rng.uniform(0.0, 0.30))
    chain_ids = [f"c{c:02d}" for c in range(n_chains)]
    unknown = {c for c in chain_ids if rng.random() < unknown_frac}
    if len(set(chain_ids) - unknown) < 2:  # keep the catalog splittable
        unknown = set(sorted(unknown)[: n_chains - 2])
    records = []
    img = 0
    for b in range(n_branches):
        chain = chain_ids[int(rng.integers(n_chains))]
        branch = f"{chain}_b{b:03d}"
        for _ in range(_log_uniform(rng, 3, 80)):
            records.append(ImageRecord(f"i{img:06d}", branch,
                                       None if chain in unknown else chain))
            img += 1
    return Catalog.from_records(records)


def _random_split_config(rng) -> SplitConfig:
    t2 = int(rng.integers(1, 4))
    div = int(rng.integers(2, 6))
    return SplitConfig(
        seed=int(rng.integers(100000)),
        uu_chain_fraction=float(rng.uniform(0.05, 0.4)),
        su_branch_fraction=float(rng.uniform(0.05, 0.4)),
        t1=div * t2 + int(rng.integers(0, 10)),
        t2=t2,
        ss_divisor=div,
    )


def test_criterion_1_split_constraints_hold_under_budget():
    rng = np.random.default_rng(12345)
    failures = []
    t0 = time.perf_counter()
    for trial in range(50):
        catalog = _random_catalog(rng)
        report = verify_splits(catalog, generate_splits(catalog, _random_split_config(rng)))
        if not report.passed:
            bad = [c.name for c in report.checks if not c.passed]
            failures.append((trial, bad))
    elapsed = time.perf_counter() - t0
    _verdict(1, not failures and elapsed < 5.0,
             f"(violations={failures!r}, elapsed={elapsed:.2f}s)")


# -------------------------------------------------------------- 2: taxonomy

def _small_catalog(rng) -> Catalog:
    # deliberately uneven so every split name has a chance to fill
    n_chains = int(rng.integers(4, 15))
    records = []
    img = 0
    for c in range(n_chains):
        chain = f"c{c}"
        known = rng.random() > 0.35
        for b in range(int(rng.integers(2, 10))):
            branch = f"c{c}b{b}"
            for _ in range(int(rng.integers(3, 41))):
                records.append(ImageRecord(f"i{img:05d}", branch, chain if known else None))
                img += 1
    return Catalog.from_records(records)


def _skewed_catalog() -> Catalog:
    # many sub-t1 branches leave their chains out of the image-holdout
    # stage, so the validation carve can still claim whole chains/branches
    rng = np.random.default_rng(77)
    records = []
    img = 0
    for c in range(18):
        for b in range(int(rng.integers(3, 7))):
            size = int(rng.integers(3, 8)) if rng.random() < 0.7 else int(rng.integers(12, 30))
            for _ in range(size):
                records.append(ImageRecord(f"i{img:05d}", f"c{c:02d}b{b}", f"c{c:02d}"))
                img += 1
    for j in range(10):
        records.append(ImageRecord(f"u{j:03d}", "unk_b", None))
    return Catalog.from_records(records)


def test_criterion_2_split_name_set_and_unknown_block():
    rng = np.random.default_rng(99)
    problems = []
    for trial in range(60):
        catalog = _small_catalog(rng)
        while len(catalog.chain_index) < 2:
            catalog = _small_catalog(rng)
        assignment = generate_splits(
            catalog,
            SplitConfig(seed=trial, uu_chain_fraction=0.25, su_branch_fraction=0.25,
                        t1=6, t2=2, ss_divisor=3),
        )
        table = assignment.by_split()
        if set(table) != set(SPLIT_NAMES) or len(table) != 8:
            problems.append((trial, sorted(table)))
        if "val_unk" in table:
            problems.append((trial, "val_unk"))
        if set(table["test_unk"]) != set(catalog.unknown_images()):
            problems.append((trial, "test_unk mismatch"))

    full_rows_seen = False  # some catalog+seed must light up all 8 at once
    skewed = _skewed_catalog()
    for seed in range(40):
        table = generate_splits(
            skewed,
            SplitConfig(seed=seed, uu_chain_fraction=0.2, su_branch_fraction=0.2,
                        t1=10, t2=2),
        ).by_split()
        if all(table[name] for name in SPLIT_NAMES):
            full_rows_seen = True
            break
    _verdict(2, not problems and full_rows_seen,
             f"(problems={problems[:3]!r}, all-8-realized={full_rows_seen})")


# ----------------------------------------------------------------- 3: AUROC

def _count_auroc(pos, neg) -> float:
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def test_criterion_3_auroc_matches_pair_counting():
    rng = np.random.default_rng(31)
    mismatches = 0
    for trial in range(100):
        p = int(rng.integers(1, 41))
        n = int(rng.integers(1, 41))
        if trial % 2:  # coarse grid => heavy ties
            pos = rng.integers(0, 8, size=p) / 4.0
            neg = rng.integers(0, 8, size=n) / 4.0
        else:
            pos = rng.standard_normal(p)
            neg = rng.standard_normal(n)
        if auroc(pos, neg) != _count_auroc(pos.tolist(), neg.tolist()):
            mismatches += 1
    perfect = auroc([2.0, 3.0, 4.0], [-1.0, 0.0, 1.0]) == 1.0
    all_tied = auroc([0.7] * 5, [0.7] * 9) == 0.5
    _verdict(3, mismatches == 0 and perfect and all_tied,
             f"(mismatches={mismatches}, forced=({perfect}, {all_tied}))")


# ------------------------------------------------------------------- 4: R@1

def _brute_r_at_1(matrix: EmbeddingMatrix, branch_of: dict) -> float:
    unit = _unit(matrix.data.astype(np.float64))
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)
    nearest = sims.argmax(axis=1)  # first max == smallest index on ties
    branches = [branch_of[i] for i in matrix.ids]
    counts: dict = {}
    for b in branches:
        counts[b] = counts.get(b, 0) + 1
    eligible = [i for i, b in enumerate(branches) if counts[b] >= 2]
    hits = sum(1 for i in eligible if branches[nearest[i]] == branches[i])
    return hits / len(eligible)


def test_criterion_4_r_at_1_matches_brute_force():
    rng = np.random.default_rng(41)
    mismatches = []
    for trial in range(50):
        n = int(rng.integers(10, 301))
        d = int(rng.integers(3, 17))
        n_branches = int(rng.integers(2, max(3, n // 2)))
        labels = rng.integers(0, n_branches, size=n)
        labels[1] = labels[0]  # at least one branch with two members
        records = [ImageRecord(f"i{j:04d}", f"b{labels[j]:03d}",
                               f"c{labels[j] % 5}" if labels[j] % 2 else None)
                   for j in range(n)]
        catalog = Catalog.from_records(records)
        order = rng.permutation(n)  # ids out of insertion order on purpose
        matrix = EmbeddingMatrix(
            tuple(f"i{j:04d}" for j in order),
            rng.standard_normal((n, d)).astype(np.float32),
        )
        report = evaluate(matrix, LinkOracle.from_catalog(catalog),
                          EvalOptions(repeats=1, seed=trial))
        brute = _brute_r_at_1(matrix, catalog.branch_of())
        if report.r_at_1 != brute:
            mismatches.append((trial, report.r_at_1, brute))
    _verdict(4, not mismatches, f"(mismatches={mismatches[:3]!r})")


# ------------------------------------------------------------- 5: gradients

def _gradient_batch(rng, n_classes: int) -> Batch:
    labels = rng.integers(0, n_classes, size=16)
    while len(set(labels.tolist())) < 2:
        labels = rng.integers(0, n_classes, size=16)
    return Batch(_unit(rng.standard_normal((16, 8))), labels)


def test_criterion_5_gradients():
    rng = np.random.default_rng(51)
    worst: dict = {}
    for kind in ("triplet", "circle", "multisim", "supcon", "proxynca", "softtriple"):
        errs = []
        for _ in range(20):
            batch = _gradient_batch(rng, 4)
            bank = None
            if kind == "proxynca":
                bank = ProxyBank(_unit(rng.standard_normal((4, 8))))
            elif kind == "softtriple":
                bank = CenterBank(_unit(rng.standard_normal((4 * 5, 8))).reshape(4, 5, 8))
            errs.append(finite_diff_check(kind, batch, LossParams(), bank=bank, rng=rng))
        worst[kind] = max(errs)

    # end to end through the head: layernorm -> affine -> unit norm -> loss
    model = init_model(d_in=12, d_out=8, seed=0)
    feats = np.random.default_rng(52).standard_normal((16, 12))
    labels = np.arange(16) % 4
    params = LossParams()

    def head_value(m: ToyModel) -> float:
        return compute_loss("multisim", Batch(forward(m, feats), labels), params).value

    res = compute_loss("multisim", Batch(forward(model, feats), labels), params)
    grad_w, grad_b = head_backward(model, feats, res.grad_embeddings)
    analytic = np.concatenate([grad_w.ravel(), grad_b])
    numeric = np.empty_like(analytic)
    eps = 1e-6
    flat = np.concatenate([model.weight.ravel(), model.bias])

    def value_with(vec: np.ndarray) -> float:
        m = model.copy()
        m.weight = vec[: model.weight.size].reshape(model.weight.shape)
        m.bias = vec[model.weight.size:]
        return head_value(m)

    for j in range(flat.size):
        hi, lo = flat.copy(), flat.copy()
        hi[j] += eps
        lo[j] -= eps
        numeric[j] = (value_with(hi) - value_with(lo)) / (2 * eps)
    head_err = float(np.max(np.abs(analytic - numeric))
                     / max(1e-12, float(np.max(np.abs(numeric)))))

    ok = all(e < 1e-4 for e in worst.values()) and head_err < 1e-3
    _verdict(5, ok, f"(worst={ {k: f'{v:.2e}' for k, v in worst.items()} }, head={head_err:.2e})")


# ------------------------------------------- 6 and 7: trained-head metrics

_GATE_RUNS: dict = {}


def _trained_runs() -> dict:
    """Train both losses across the gate seeds once; 6 and 7 share the table."""
    if _GATE_RUNS:
        return _GATE_RUNS
    t0 = time.perf_counter()
    rows: dict = {}
    for loss in ("triplet", "multisim"):
        for seed in GATE_SEEDS:
            catalog, features = generate(standard_corpus_config(seed=seed))
            assignment = generate_splits(catalog, GATE_SPLITS)
            model, _ = train(catalog, assignment, features,
                             TrainConfig(loss=loss, lr=HEAD_LR, epochs=HEAD_EPOCHS,
                                         seed=seed, d_out=HEAD_D_OUT))
            oracle = LinkOracle.from_catalog(catalog)
            feat64 = features.data.astype(np.float64)
            row_of = {i: j for j, i in enumerate(features.ids)}
            row: dict = {}
            for name in ("test_ss", "test_su", "test_uu"):
                ids = sorted(assignment.images_of(name))
                emb = EmbeddingMatrix(
                    tuple(ids),
                    forward(model, feat64[[row_of[i] for i in ids]]).astype(np.float32),
                    normalized=True,
                )
                if name == "test_ss":
                    pool = mine_hard_negatives(features.subset(ids), oracle, k=HARD_K)
                    rep = evaluate(emb, oracle,
                                   EvalOptions(repeats=10, seed=0, hard_pool=pool))
                    row["auc_h"] = rep.auc_h_mean
                else:
                    rep = evaluate(emb, oracle, EvalOptions(repeats=10, seed=0))
                row[name] = rep.auc_mean
            rows[(loss, seed)] = row
    _GATE_RUNS["rows"] = rows
    _GATE_RUNS["wall"] = time.perf_counter() - t0
    return _GATE_RUNS


def test_criterion_6_split_auc_ordering():
    runs = _trained_runs()
    means = {}
    for loss in ("triplet", "multisim"):
        picked = [runs["rows"][(loss, s)] for s in GATE_SEEDS]
        means[loss] = tuple(float(np.mean([r[k] for r in picked]))
                            for k in ("test_ss", "test_su", "test_uu"))
    ordered = all(ss > su > uu for ss, su, uu in means.values())
    in_budget = runs["wall"] < 600.0
    _verdict(6, ordered and in_budget,
             f"(means={ {k: tuple(f'{x:.4f}' for x in v) for k, v in means.items()} }, "
             f"wall={runs['wall']:.0f}s)")


def test_criterion_7_hard_negatives_bite():
    runs = _trained_runs()
    gaps = {}
    for loss in ("triplet", "multisim"):
        picked = [runs["rows"][(loss, s)] for s in GATE_SEEDS]
        gaps[loss] = float(np.mean([r["test_ss"] - r["auc_h"] for r in picked]))
    gap_ok = all(g >= 0.01 for g in gaps.values())

    # pool hardness on the mining reference: every pooled similarity must
    # dominate every excluded same-anchor negative, and mining must be stable
    catalog, features = generate(standard_corpus_config(seed=0))
    assignment = generate_splits(catalog, GATE_SPLITS)
    oracle = LinkOracle.from_catalog(catalog)
    ids = sorted(assignment.images_of("test_ss"))
    reference = features.subset(ids)
    pool = mine_hard_negatives(reference, oracle, k=HARD_K)
    again = mine_hard_negatives(reference, oracle, k=HARD_K)
    deterministic = pool.negatives == again.negatives

    unit = _unit(reference.data.astype(np.float64))
    row_of = {i: j for j, i in enumerate(reference.ids)}
    hardness_ok = True
    for anchor, chosen in pool.negatives.items():
        sims = unit[row_of[anchor]] @ unit.T
        negatives = [i for i in ids
                     if i != anchor and oracle.branch(i) != oracle.branch(anchor)]
        outside = [i for i in negatives if i not in set(chosen)]
        if not chosen or not outside:
            continue
        if min(sims[row_of[i]] for i in chosen) < max(sims[row_of[i]] for i in outside):
            hardness_ok = False
            break
    _verdict(7, gap_ok and deterministic and hardness_ok,
             f"(gaps={ {k: f'{v:.4f}' for k, v in gaps.items()} }, "
             f"deterministic={deterministic}, hardness={hardness_ok})")


# ---------------------------------------------------------- 8: report shape

def test_criterion_8_report_shape():
    rng = np.random.default_rng(81)
    records = [ImageRecord(f"i{j}", f"b{j % 5}", f"c{j % 5 % 2}") for j in range(40)]
    catalog = Catalog.from_records(records)
    oracle = LinkOracle.from_catalog(catalog)
    matrix = EmbeddingMatrix(tuple(f"i{j}" for j in range(40)),
                             rng.standard_normal((40, 6)).astype(np.float32))
    pool = mine_hard_negatives(matrix, oracle, k=4)
    report = evaluate(matrix, oracle, EvalOptions(repeats=10, seed=0, hard_pool=pool))
    values = [report.r_at_1, report.auc_mean, report.auc_h_mean,
              *report.auc_repeats, *report.auc_h_repeats]
    ok = (report.repeats == 10
          and len(report.auc_repeats) == 10
          and len(report.auc_h_repeats) == 10
          and report.auc_std >= 0.0
          and report.auc_h_std >= 0.0
          and all(0.0 <= v <= 1.0 for v in values))
    _verdict(8, ok, f"(report={report.to_json_dict()!r})")


# ------------------------------------------------------------ 9: round-trips

def test_criterion_9_round_trips(tmp_path):
    rng = np.random.default_rng(91)
    problems = []

    matrix = EmbeddingMatrix(tuple(f"e{j}" for j in range(57)),
                             rng.standard_normal((57, 9)).astype(np.float32))
    write_embeddings(matrix, tmp_path / "a.emb")
    back = read_embeddings(tmp_path / "a.emb")
    write_embeddings(back, tmp_path / "b.emb")
    if not (back.ids == matrix.ids
            and np.array_equal(back.data, matrix.data)
            and (tmp_path / "a.emb").read_bytes() == (tmp_path / "b.emb").read_bytes()
            and (tmp_path / "a.emb.ids").read_bytes() == (tmp_path / "b.emb.ids").read_bytes()):
        problems.append("embedding round-trip")

    records = [ImageRecord(f"i{j:02d}", f"b{j % 7}",
                           f"c{j % 7 % 3}" if j % 7 % 2 else None,
                           f"k{j % 11}" if j % 3 else None)
               for j in range(60)]
    catalog = Catalog.from_records(records)
    save_catalog(catalog, tmp_path / "a.csv")
    reloaded = load_catalog(tmp_path / "a.csv")
    save_catalog(reloaded, tmp_path / "b.csv")
    if not (reloaded.records == catalog.records
            and (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()):
        problems.append("catalog round-trip")

    once, first = dedup_merge(catalog)
    twice, second = dedup_merge(once)
    if not (twice.records == once.records and not second.merged_groups
            and not second.dropped):
        problems.append("dedup idempotence")

    def pipeline(out_dir):
        out_dir.mkdir()
        cli.main(["synth", "--chains", "6", "--branches-per-chain", "3",
                  "--images-per-branch", "10", "--d-in", "12", "--seed", "7",
                  "--out-catalog", str(out_dir / "catalog.csv"),
                  "--out-features", str(out_dir / "features.emb")])
        cli.main(["split", "--catalog", str(out_dir / "catalog.csv"),
                  "--seed", "5", "--t1", "6", "--t2", "2", "--ss-divisor", "3",
                  "--out", str(out_dir / "splits.csv"),
                  "--report", str(out_dir / "report.json")])

    pipeline(tmp_path / "run1")
    pipeline(tmp_path / "run2")
    for name in ("splits.csv", "catalog.csv", "features.emb", "features.emb.ids"):
        if (tmp_path / "run1" / name).read_bytes() != (tmp_path / "run2" / name).read_bytes():
            problems.append(f"pipeline repeat differs: {name}")

    _verdict(9, not problems, f"({problems!r})")
