"""Seeded output digests, one ``name sha256`` line per output.

Run from the root of a checkout:

    PYTHONPATH=src python3 tools/digests.py            # print every line
    PYTHONPATH=src python3 tools/digests.py --check    # compare with digests.expected
    PYTHONPATH=src python3 tools/digests.py --write    # rewrite digests.expected
    PYTHONPATH=src python3 tools/digests.py --check --section loss --section train
    PYTHONPATH=src python3 tools/digests.py --write --section loss --section train

``--check`` names every line that moved, grouped by section, and exits 1 if
any did; with ``--section`` it runs and compares only the named sections
(``--section`` limits a plain print too).  ``--write --section NAME``
rewrites only the named sections; the header and every other section keep
their bytes.  A change that moves outputs on purpose commits the file that
``--write`` makes, whose diff lists the moved lines.
``tests/test_digests.py`` compares the fast sections (``FAST``) in
tier-1; the sections whose lines depend on the BLAS kernel are left to
``--check`` (see ``KERNEL_DEPENDENT``).  To compare two checkouts, print the
lines of each and diff them.

It uses only `train`, `sample_batch`, `evaluate`, `mine_hard_negatives`,
`sample_eval_pairs`, `cosine_knn`, `compute_loss`, `generate_splits`,
`verify_splits`, `dedup_merge`, `save_catalog`, `write_json`,
`generate`, `write_embeddings` and `cli.main`, plus the catalog generators,
seeded mutations and the finite-difference gradient checker
(`finite_diff_check`) in ``tests/``, so the same script runs on either side
of a change to the code behind them.  It covers:

- the saved catalog CSV and EMB1 bytes of `generate` (``synth.<case>``) for
  the standard corpus at seeds 0-4, at seeds -1, 2**64 - 1 and numpy int64 9,
  and at ``d_in=8``, which pins how a seed becomes a generator, and for odd
  shapes: one chain, one image per branch, ``d_in=1``, a 0.9 unknown-chain
  fraction and a 1 x 1 x 1 corpus;
- `compute_loss` value and gradients, and the `finite_diff_check` result (or
  its error text), of all six losses on fixed seeded batches and banks
  (``loss.<kind>.<case>``), among them a 128-row 16 x 8 batch
  (``balanced16x8``), so a change to a kernel shows up before 30 epochs of
  training amplify it;
- `cosine_knn` indices and similarities (``knn1.<case>``, ``knn10.<case>``)
  and `mine_hard_negatives` pools (``mine1.<case>``, ``mine10.<case>``) at
  k = 1 and k = 10, which take `top_k`'s two selection branches, on
  quantized, tie-heavy inputs of more than 512 rows, with and without
  self-exclusion, on one to three threads; and where `top_k`'s blocks fall
  unevenly (``knn<k>.<case>1001.q<rows>``, ``mine10.<case><rows>``): 513
  query rows, a 1,001-row gallery (no multiple of 4k or of 8), and mining
  with one branch; and past two gallery slabs (``knn<k>.<case>4104.q<rows>``,
  ``mine10.<case>4101.branches``), on 4,104 and 4,101 rows;
- the `generate_splits` assignment (``split.<case>.assignment``) and the
  `verify_splits` report, with the carve's config attached and with none, of
  the carve and of seeded breaks of it (``split.<case>.<mutation>``), on the
  acceptance gate's fuzz, small and skewed catalogs and on the gate corpora;
- the saved `dedup_merge` report and merged catalog CSV (``dedup.<case>``) of
  catalogs with content keys: transitive links, chain conflicts,
  unknown-chain branches and copies within one branch, seeded random keyed
  catalogs, and the full corpus with some keys copied across branches;
- `sample_batch` rows over 100 seeds (``batch.<layout>``) on each gate
  corpus's train codes at 8 x 4, and on a layout with a class of more than
  10,000 rows drawn at k > n // 50, where numpy's `choice` takes its tail
  shuffle instead of Floyd's sampling;
- `train()` weights, bias and history for all six losses on the gate corpus
  seeds 0-4 (the gate recipe for the pair losses, three epochs for supcon
  and the bank losses);
- `evaluate` reports and `mine_hard_negatives` pools on the full corpus for
  seeds 80-84 and on every split of the gate corpora;
- `sample_eval_pairs` in both modes, on those corpora and on random inputs,
  error messages included;
- every file of the README CLI walkthrough, plus a `train`, `eval`, `mine`
  and `stats` run with the file flags it leaves out, and each command's
  stdout; a manifest (``cli.manifest.<file>``) is digested without its
  ``wall_time_s``, and every file is written inside a temporary directory.

A full run takes about 45 s on two cores.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from splitmetric import cli, write_json
from splitmetric.catalog import Catalog, ImageRecord, dedup_merge, save_catalog
from splitmetric.embedstore import EmbeddingMatrix, cosine_knn, unit_rows, write_embeddings
from splitmetric.linkeval import (
    EvalError,
    EvalOptions,
    HardNegPool,
    LinkOracle,
    evaluate,
    mine_hard_negatives,
    sample_eval_pairs,
)
from splitmetric.losses import (
    Batch,
    CenterBank,
    LossError,
    LossParams,
    ProxyBank,
    compute_loss,
)
from splitmetric.splitgen import SplitAssignment, SplitConfig, generate_splits, verify_splits
from splitmetric.synth import SynthConfig, generate, standard_corpus_config
from splitmetric.trainer import BatchSpec, TrainConfig, forward, init_model, sample_batch, train

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_catalog import random_keyed_catalog  # noqa: E402
from test_losses import finite_diff_check  # noqa: E402
from test_splitgen import fuzz_cases, mutations  # noqa: E402

GATE_SEEDS = range(5)
RETRIEVAL_SEEDS = range(80, 85)
GATE_SPLITS = SplitConfig(seed=0, uu_chain_fraction=0.15, su_branch_fraction=0.15, t1=10, t2=2)
HARD_K = 10
PALETTE = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0], [-1, 1, 1], [1, -1, 0], [0, 0, -1]])
# loss -> epochs; the pair losses use the gate's 30, the rest a short run
LOSS_EPOCHS = {"triplet": 30, "multisim": 30, "circle": 30,
               "supcon": 3, "proxynca": 3, "softtriple": 3}
SHARP = LossParams(supcon_tau=1e-3, proxynca_temperature=1e-3, circle_gamma=300.0,
                   multisim_beta=500.0, softtriple_gamma=1e-3)


def emit(name: str, *parts) -> None:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
        h.update(b"\x00")
    print(name, h.hexdigest(), flush=True)


def attempt(fn, *args, **kwargs):
    """The call's result, or the text of the domain error it raised."""
    try:
        return fn(*args, **kwargs)
    except (EvalError, LossError) as exc:
        return f"{type(exc).__name__}: {exc}"


def report_parts(report):
    if isinstance(report, str):
        return (report,)
    return (report.to_json_dict(), report.r_at_1, report.auc_repeats, report.auc_h_repeats)


def pool_parts(pool):
    return (pool.k, sorted(pool.negatives.items()))


def pair_parts(pairs):
    if isinstance(pairs, str):
        return (pairs,)
    return (pairs.pairs, pairs.seed, pairs.mode, pairs.skipped)


def embed(model, features: EmbeddingMatrix, ids) -> EmbeddingMatrix:
    feat = features.subset(ids).data.astype(np.float64)
    return EmbeddingMatrix(tuple(ids), forward(model, feat).astype(np.float32), normalized=True)


def eval_digests(tag: str, features: EmbeddingMatrix, oracle: LinkOracle, ids, seed: int) -> None:
    """Mining on raw features, and evaluate/pairs on an untrained 4-d head."""
    emb = embed(init_model(features.d, 4, seed), features, ids)
    pool = mine_hard_negatives(features.subset(ids), oracle, k=HARD_K)
    emit(f"{tag}.pool", *pool_parts(pool))
    emit(f"{tag}.report", *report_parts(attempt(evaluate, emb, oracle,
                                                EvalOptions(repeats=10, seed=seed))))
    emit(f"{tag}.report_h", *report_parts(attempt(evaluate, emb, oracle,
                                                  EvalOptions(repeats=10, seed=seed,
                                                              hard_pool=pool))))
    shuffled = list(np.random.default_rng(seed).permutation(ids))
    emit(f"{tag}.pairs", *pair_parts(attempt(sample_eval_pairs, shuffled, oracle, seed)))
    emit(f"{tag}.pairs_h", *pair_parts(attempt(sample_eval_pairs, shuffled, oracle, seed, pool)))


def loss_cases():
    """(case, labels, embeddings, params, centers per class) on fixed seeds."""
    rng = np.random.default_rng(505)
    balanced = unit_rows(rng.standard_normal((32, 6)))
    yield "balanced8x4", np.repeat(np.arange(8), 4), balanced, LossParams(), 3
    # drawn from its own stream so the cases after it keep their draws
    wide = unit_rows(np.random.default_rng(516).standard_normal((128, 6)))
    yield "balanced16x8", np.repeat(np.arange(16), 8), wide, LossParams(), 3
    uneven = rng.integers(0, 9, size=14)  # singletons and uneven classes
    yield "random", uneven, unit_rows(rng.standard_normal((14, 5))), LossParams(), 2
    yield "sharp", np.repeat(np.arange(4), 3), unit_rows(rng.standard_normal((12, 5))), SHARP, 3
    one_class = unit_rows(rng.standard_normal((6, 4)))
    yield "one_class", np.zeros(6, dtype=int), one_class, LossParams(), 1
    close = unit_rows(rng.standard_normal((10, 4)))
    close[1::2] = unit_rows(close[0::2] + 1e-3 * rng.standard_normal((5, 4)))
    yield "close_pairs", np.repeat(np.arange(5), 2), close, LossParams(), 4


def loss_digests() -> None:
    """Every kind on every case; the last case's second centers sit near the first."""
    for case, labels, emb, params, centers in loss_cases():
        n_classes, d = int(labels.max()) + 1, emb.shape[1]
        rng = np.random.default_rng(d * 1000 + labels.size)
        w = unit_rows(rng.standard_normal((n_classes, centers, d)))
        if case == "close_pairs":
            w[:, 1] = unit_rows(w[:, 0] + 0.1 * rng.standard_normal((n_classes, d)))
        banks = {"proxynca": ProxyBank(unit_rows(rng.standard_normal((n_classes, d)))),
                 "softtriple": CenterBank(w)}
        for kind in LOSS_EPOCHS:
            batch, bank = Batch(emb, labels), banks.get(kind)
            result = compute_loss(kind, batch, params, bank)
            emit(f"loss.{kind}.{case}", result.value, result.grad_embeddings, result.grad_aux)
            check = attempt(finite_diff_check, kind, batch, params, bank=bank,
                            rng=np.random.default_rng(7))
            emit(f"loss.{kind}.{case}.fd", check)


def tie_cases():
    """(case, matrix) with many exactly tied similarities, all over 512 rows."""
    rng = np.random.default_rng(606)
    n = 1100  # three 512-row blocks; tie groups straddle both block edges
    scaled = PALETTE[rng.integers(len(PALETTE), size=n)] * rng.choice([1, 2, 3], (n, 1))
    yield "palette", scaled
    small = rng.integers(-1, 2, size=(n, 4))
    small[~small.any(axis=1), 0] = 1  # a zero row has no direction
    yield "small_ints", small
    yield "constant", np.ones((600, 2))


def tie_digests() -> None:
    for case, rows in tie_cases():
        ids = tuple(f"t{j:04d}" for j in range(len(rows)))
        emb = EmbeddingMatrix(ids, rows.astype(np.float32))
        queries = EmbeddingMatrix(ids[:700], emb.data[::-1][:700])
        labels = np.random.default_rng(len(rows)).integers(5, size=len(rows))
        oracles = {"branches": LinkOracle({i: f"b{b}" for i, b in zip(ids, labels)}),
                   "one_branch": LinkOracle(dict.fromkeys(ids, "b"))}
        for k, threads in itertools.product((1, 10), (1, 2, 3)):
            for exclude, q in ((True, emb), (False, queries)):
                knn = cosine_knn(q, emb, k=k, exclude_self=exclude, threads=threads)
                emit(f"knn{k}.{case}.exclude{int(exclude)}.threads{threads}",
                     knn.indices, knn.similarities)
            for name, oracle in oracles.items():
                pool = mine_hard_negatives(emb, oracle, k=k, threads=threads)
                emit(f"mine{k}.{case}.{name}.threads{threads}", *pool_parts(pool))


def block_digests() -> None:
    """`top_k` where its blocks and workers fall unevenly, at one to three threads.

    513 query rows leave a one-row last block.  A gallery of 1,001 rows is no
    multiple of 4k, so strided chunks leave a tail, nor of 8, so BLAS rounding
    depends on the block's row count.  Mining runs on 513 and on 1,001 rows,
    with 40 branches and with one.
    """
    rng = np.random.default_rng(1001)
    n = 1001
    cases = {"gauss": rng.standard_normal((n, 6)),
             "palette": PALETTE[rng.integers(len(PALETTE), size=n)] * rng.choice([1, 2, 3], (n, 1))}
    for case, rows in cases.items():
        ids = tuple(f"u{j:04d}" for j in range(n))
        emb = EmbeddingMatrix(ids, rows.astype(np.float32))
        queries = EmbeddingMatrix(ids[:513], emb.data[::-1][:513])
        labels = rng.integers(40, size=n)
        oracles = {"branches": LinkOracle({i: f"b{b}" for i, b in zip(ids, labels)}),
                   "one_branch": LinkOracle(dict.fromkeys(ids, "b"))}
        for k, threads in itertools.product((1, 10), (1, 2, 3)):
            for q in (emb, queries):
                knn = cosine_knn(q, emb, k=k, exclude_self=q is emb, threads=threads)
                emit(f"knn{k}.{case}{n}.q{q.n}.threads{threads}", knn.indices, knn.similarities)
        for size, (name, oracle), threads in itertools.product((513, n), oracles.items(),
                                                               (1, 2, 3)):
            pool = mine_hard_negatives(emb.subset(ids[:size]), oracle, k=HARD_K, threads=threads)
            emit(f"mine{HARD_K}.{case}{size}.{name}.threads{threads}", *pool_parts(pool))


def slab_digests() -> None:
    """`top_k` on galleries past two ``SLAB``-column slabs, at one to three threads.

    4,104 rows is a multiple of 8, so each slab rounds as a whole-gallery
    product would; 4,101 rows is not.  Ties in the palette case straddle
    both slab edges.  Mining runs with 200 branches.
    """
    rng = np.random.default_rng(4104)
    for n in (4104, 4101):
        gauss = rng.standard_normal((n, 6))
        palette = PALETTE[rng.integers(len(PALETTE), size=n)] * rng.choice([1, 2, 3], (n, 1))
        for case, rows in {"gauss": gauss, "palette": palette}.items():
            ids = tuple(f"s{j:04d}" for j in range(n))
            emb = EmbeddingMatrix(ids, rows.astype(np.float32))
            queries = EmbeddingMatrix(ids[:513], emb.data[::-1][:513])
            oracle = LinkOracle({i: f"b{b}" for i, b in zip(ids, rng.integers(200, size=n))})
            for k, threads in itertools.product((1, 10), (1, 2, 3)):
                for q in (emb, queries):
                    knn = cosine_knn(q, emb, k=k, exclude_self=q is emb, threads=threads)
                    emit(f"knn{k}.{case}{n}.q{q.n}.threads{threads}", knn.indices, knn.similarities)
            for threads in (1, 2, 3):
                pool = mine_hard_negatives(emb, oracle, k=HARD_K, threads=threads)
                emit(f"mine{HARD_K}.{case}{n}.branches.threads{threads}", *pool_parts(pool))


def batch_digests() -> None:
    layouts = []
    for seed in GATE_SEEDS:
        catalog, _ = generate(standard_corpus_config(seed=seed))
        train_ids = sorted(generate_splits(catalog, GATE_SPLITS).by_split()["train"])
        codes = LinkOracle.from_catalog(catalog).codes(train_ids)
        layouts.append((f"gate{seed}", codes, BatchSpec(8, 4)))
    tail = np.random.default_rng(707).permutation(np.repeat(np.arange(3), [10050, 260, 3]))
    layouts.append(("tail", tail, BatchSpec(2, 202)))
    rng = np.random.default_rng(808)
    for layout, codes, spec in layouts:
        seeds = rng.integers(2**63, size=100).tolist()
        emit(f"batch.{layout}", np.concatenate([sample_batch(codes, spec, s) for s in seeds]))


def train_digests() -> None:
    for seed in GATE_SEEDS:
        catalog, features = generate(standard_corpus_config(seed=seed))
        assignment = generate_splits(catalog, GATE_SPLITS)
        for loss, epochs in LOSS_EPOCHS.items():
            model, history = train(catalog, assignment, features,
                                   TrainConfig(loss=loss, lr=0.2, epochs=epochs, seed=seed,
                                               d_out=2))
            emit(f"train.{loss}.seed{seed}", model.weight, model.bias, history.rows)


def split_digests() -> None:
    for seed in GATE_SEEDS:
        catalog, features = generate(standard_corpus_config(seed=seed))
        oracle = LinkOracle.from_catalog(catalog)
        for split, ids in generate_splits(catalog, GATE_SPLITS).by_split().items():
            if ids:
                eval_digests(f"gate{seed}.{split}", features, oracle, list(ids), seed)


def carve_digests() -> None:
    cases = list(fuzz_cases(random=50))
    cases += [(f"gate{seed}", generate(standard_corpus_config(seed=seed))[0], GATE_SPLITS)
              for seed in GATE_SEEDS]
    for n, (case, catalog, config) in enumerate(cases):
        carved = generate_splits(catalog, config)
        emit(f"split.{case}.assignment", sorted(carved.assignment.items()))
        for mutation, mapping in mutations(catalog, carved.assignment, n):
            emit(f"split.{case}.{mutation}",
                 *(verify_splits(catalog, SplitAssignment(mapping, c)).to_json_dict()
                   for c in (config, None)))


def dedup_cases():
    """(case, catalog) with content keys; ``ImageRecord`` fields are id, branch, chain, key."""
    r = ImageRecord
    yield "transitive", Catalog.from_records([
        r("i1", "b9", "c1", "k1"), r("i2", "b5", "c1", "k1"), r("i3", "b5", "c1", "k2"),
        r("i4", "b2", "c1", "k2"), r("i5", "b7", "c2", "k3"), r("i0", "b9", "c1")])
    yield "chain_conflict", Catalog.from_records([
        r("i1", "b1", "c1", "k"), r("i2", "b2", None, "k"), r("i3", "b2", None, "k2"),
        r("i4", "b3", "c2", "k2"), r("i5", "b4", "c3", "k4"), r("i6", "b5", "c3", "k4")])
    yield "unknown_chains", Catalog.from_records([
        r("i1", "b3", None, "k"), r("i2", "b1", None, "k"), r("i3", "b2", None, "k5"),
        r("i4", "b4", None, "k5"), r("i5", "b6", None, "k6"), r("i6", "b8", "c1", "k6")])
    yield "within_branch", Catalog.from_records([
        r("i9", "b1", "c1", "k"), r("i3", "b1", "c1", "k"), r("i5", "b1", "c1", "k"),
        r("i4", "b1", "c1"), r("i1", "b2", "c1", "k2"), r("i2", "b2", "c1", "k2")])
    rng = np.random.default_rng(909)
    for n in range(300):
        yield f"random{n}", random_keyed_catalog(rng)
    catalog, _ = generate(standard_corpus_config(seed=0))
    records = [r(x.image_id, x.branch_id, x.chain_id, f"k{j}")
               for j, x in enumerate(catalog.records)]
    for j in rng.integers(len(records), size=60):  # copy a key from up to 25 records away
        src = int(np.clip(j + rng.integers(-25, 26), 0, len(records) - 1))
        records[j] = r(records[j].image_id, records[j].branch_id, records[j].chain_id, f"k{src}")
    yield "corpus", Catalog.from_records(records)


def synth_digests() -> None:
    cases = [(f"seed{seed}", standard_corpus_config(seed=seed)) for seed in GATE_SEEDS]
    cases += [("seed_minus1", standard_corpus_config(seed=-1)),
              ("seed_2to64_minus1", standard_corpus_config(seed=2**64 - 1)),
              ("seed_np_int64_9", standard_corpus_config(seed=np.int64(9))),
              ("d_in8", standard_corpus_config(seed=0, d_in=8)),
              # odd shapes: chains, branches, images per branch, unknown fraction, d_in, seed
              ("one_chain", SynthConfig(1, 8, 20, 0.15, 48, 10)),
              ("one_image", SynthConfig(40, 8, 1, 0.15, 48, 11)),
              ("d_in1", SynthConfig(40, 8, 20, 0.15, 1, 12)),
              ("unknown_high", SynthConfig(40, 8, 20, 0.9, 48, 13)),
              ("one_of_each", SynthConfig(1, 1, 1, 0.0, 1, 14))]
    with tempfile.TemporaryDirectory() as tmp:
        catalog_path, features_path = Path(tmp) / "catalog.csv", Path(tmp) / "features.emb"
        for case, config in cases:
            catalog, features = generate(config)
            save_catalog(catalog, catalog_path)
            write_embeddings(features, features_path)
            emit(f"synth.{case}", catalog_path.read_bytes(), features_path.read_bytes())


def dedup_digests() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        report_path, catalog_path = Path(tmp) / "report.json", Path(tmp) / "merged.csv"
        for case, catalog in dedup_cases():
            merged, report = dedup_merge(catalog)
            write_json(report_path, report.to_json_dict())
            save_catalog(merged, catalog_path)
            emit(f"dedup.{case}", report_path.read_bytes(), catalog_path.read_bytes())


def retrieval_digests() -> None:
    for seed in RETRIEVAL_SEEDS:
        catalog, features = generate(standard_corpus_config(seed=seed))
        eval_digests(f"retrieval{seed}", features, LinkOracle.from_catalog(catalog),
                     list(features.ids), seed)


def random_pair_digests(count: int = 400) -> None:
    """sample_eval_pairs on small random inputs: singletons, pools with gaps."""
    rng = np.random.default_rng(2024)
    for case in range(count):
        n = int(rng.integers(1, 40))
        ids = [f"x{int(j):03d}" for j in rng.permutation(n)]
        oracle = LinkOracle({i: f"b{int(rng.integers(1, 1 + int(rng.integers(1, 8))))}"
                             for i in ids})
        pool = HardNegPool({i: tuple(o for o in ids if oracle.labels[o] != oracle.labels[i]
                                     and rng.random() < 0.5)
                            for i in ids if rng.random() < 0.97}, k=0)
        seed = int(rng.integers(2**63))
        emit(f"pairs.random{case}", *pair_parts(attempt(sample_eval_pairs, ids, oracle, seed)))
        emit(f"pairs.hard{case}",
             *pair_parts(attempt(sample_eval_pairs, ids, oracle, seed, pool)))


def cli_digests() -> None:
    """The README walkthrough through cli.main, then the file flags it leaves out."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        f = {name: str(d / name) for name in (
            "catalog.csv", "features.emb", "splits.csv", "split_report.json",
            "verify.report.json", "model.toy1", "history.csv", "metrics.json", "pools.json",
            "deduped.csv", "dedup_report.json", "loss.json", "model1.toy1", "history1.csv",
            "metrics_emb.json", "pools_su.json", "stats.json")}
        Path(f["loss.json"]).write_text('{"triplet_margin": 0.3}', encoding="utf-8")
        commands = [
            ["synth", "--seed", "0", "--out-catalog", f["catalog.csv"],
             "--out-features", f["features.emb"]],
            ["split", "--catalog", f["catalog.csv"], "--seed", "0", "--out", f["splits.csv"],
             "--report", f["split_report.json"]],
            ["verify", "--catalog", f["catalog.csv"], "--splits", f["splits.csv"],
             "--report", f["verify.report.json"]],
            ["train", "--catalog", f["catalog.csv"], "--splits", f["splits.csv"],
             "--features", f["features.emb"], "--loss", "multisim", "--epochs", "30",
             "--lr", "0.2", "--d-out", "32", "--out", f["model.toy1"],
             "--history", f["history.csv"]],
            ["eval", "--catalog", f["catalog.csv"], "--model", f["model.toy1"],
             "--features", f["features.emb"], "--splits", f["splits.csv"], "--split", "test_ss",
             "--reference", f["features.emb"], "--hard-k", "10", "--out", f["metrics.json"]],
            ["mine", "--catalog", f["catalog.csv"], "--embeddings", f["features.emb"],
             "--k", "10", "--out", f["pools.json"]],
            ["dedup", "--catalog", f["catalog.csv"], "--out", f["deduped.csv"],
             "--report", f["dedup_report.json"]],
            ["stats", "--catalog", f["catalog.csv"]],
            # the input and output flags the walkthrough leaves out, for their manifests
            ["train", "--catalog", f["catalog.csv"], "--splits", f["splits.csv"],
             "--features", f["features.emb"], "--loss", "triplet", "--loss-params",
             f["loss.json"], "--epochs", "1", "--d-out", "8", "--out", f["model1.toy1"],
             "--history", f["history1.csv"]],
            ["eval", "--catalog", f["catalog.csv"], "--embeddings", f["features.emb"],
             "--splits", f["splits.csv"], "--split", "val_ss", "--repeats", "2",
             "--out", f["metrics_emb.json"]],
            ["mine", "--catalog", f["catalog.csv"], "--embeddings", f["features.emb"],
             "--splits", f["splits.csv"], "--split", "test_su", "--k", "3",
             "--out", f["pools_su.json"]],
            ["stats", "--catalog", f["catalog.csv"], "--out", f["stats.json"]],
        ]
        for argv in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            emit(f"cli.{argv[0]}.stdout", code, out.getvalue().replace(tmp, "<dir>"))
        for path in sorted(d.iterdir()):
            if path.name.endswith(".manifest.json"):
                manifest = json.loads(path.read_text(encoding="utf-8").replace(tmp, "<dir>"))
                del manifest["wall_time_s"]
                emit(f"cli.manifest.{path.name}", manifest)
            else:
                emit(f"cli.file.{path.name}", path.read_bytes().replace(tmp.encode(), b"<dir>"))


SECTIONS = {  # in run order
    "synth": synth_digests, "loss": loss_digests, "tie": tie_digests, "block": block_digests,
    "slab": slab_digests, "random_pair": random_pair_digests, "carve": carve_digests,
    "dedup": dedup_digests, "retrieval": retrieval_digests, "split": split_digests,
    "batch": batch_digests, "train": train_digests, "cli": cli_digests,
}
# their lines moved under some BLAS kernel (OPENBLAS_CORETYPE NEHALEM or SANDYBRIDGE)
KERNEL_DEPENDENT = ("loss", "tie", "block", "slab", "train")
# kernel-stable and a few seconds together; carve is kernel-stable but takes about 9 s
FAST = ("synth", "random_pair", "dedup", "retrieval", "split", "batch", "cli")
EXPECTED = Path(__file__).with_name("digests.expected")


def section_lines(name: str) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        SECTIONS[name]()
    return out.getvalue().splitlines()


def header() -> list[str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = ", ".join(f"{key}={os.environ.get(key, '')}"
                    for key in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE"))
    return [f"# numpy {np.__version__}, Python {platform.python_version()}",
            f"# BLAS {blas.get('openblas configuration') or blas.get('name')}; {env}",
            f"# kernel-dependent sections (checked by --check only): {', '.join(KERNEL_DEPENDENT)}",
            f"# compared by tests/test_digests.py: {', '.join(FAST)}"]


def read_expected(path: Path = EXPECTED) -> dict[str, list[str]]:
    """Section -> its lines, from a file that `--write` made."""
    sections, lines = {}, None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("["):
            lines = sections.setdefault(line[1:-1], [])
        elif line and not line.startswith("#"):
            lines.append(line)
    return sections


def moved(expected: list[str], got: list[str]) -> list[str]:
    """Names whose digest differs or that one side lacks, in expected order, then new ones."""
    want = dict(line.rsplit(" ", 1) for line in expected)
    have = dict(line.rsplit(" ", 1) for line in got)
    return [name for name in want if have.get(name) != want[name]] + \
           [name for name in have if name not in want]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help=f"compare with {EXPECTED.name}")
    mode.add_argument("--write", action="store_true", help=f"rewrite {EXPECTED.name}")
    parser.add_argument("--section", action="append", choices=SECTIONS,
                        help="run only this section (repeatable)")
    args = parser.parse_args(argv)
    names = [name for name in SECTIONS if name in (args.section or SECTIONS)]
    if not (args.check or args.write):
        for name in names:
            SECTIONS[name]()
        return 0
    got = {name: section_lines(name) for name in names}
    if args.write:
        sections, head = got, header()
        if args.section:  # the header and every other section keep their lines
            sections = {**read_expected(EXPECTED), **got}
            head = [line for line in EXPECTED.read_text(encoding="utf-8").splitlines()
                    if line.startswith("#")]
        text = head + [line for name, lines in sections.items() for line in [f"[{name}]", *lines]]
        EXPECTED.write_text("\n".join(text) + "\n", encoding="utf-8")
        print(f"wrote {sum(map(len, got.values()))} lines to {EXPECTED}")
        return 0
    expected, failed = read_expected(), 0
    for name, lines in got.items():
        names = moved(expected.get(name, []), lines)
        failed += len(names)
        print(f"{name}: {len(names)} of {len(lines)} lines moved")
        for line in names:
            print(f"  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
