"""Command-line pipeline: synth -> split -> verify -> train -> eval -> mine.

Files are the only interface between stages.  Every command that produces
files also writes `<primary-output>.manifest.json` describing the invocation,
so a run can be reproduced from the manifest alone.  Exit codes: 0 success,
1 domain error, 2 usage error (bad flags or missing input files).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import (
    CatalogError,
    dedup_merge,
    load_catalog,
    save_catalog,
    save_dedup_report,
    stats,
)
from .embedstore import EmbeddingMatrix, EmbedStoreError, read_embeddings, write_embeddings
from .linkeval import EvalError, EvalOptions, LinkOracle, evaluate, mine_hard_negatives
from .losses import LossError, LossParams, LOSS_KINDS
from .splitgen import (
    SPLIT_NAMES,
    SplitConfig,
    SplitError,
    generate_splits,
    load_assignment,
    save_assignment,
    save_report,
    verify_splits,
)
from .synth import SynthConfig, SynthError, generate
from .trainer import TrainConfig, TrainError, forward, load_model, save_model, train

DOMAIN_ERRORS = (CatalogError, EmbedStoreError, SplitError, LossError, EvalError,
                 TrainError, SynthError)


class UsageError(Exception):
    pass


def _require_files(*paths) -> None:
    for p in paths:
        if p is not None and not Path(p).is_file():
            raise UsageError(f"no such file: {p}")


def _threads(args) -> int:
    if args.threads < 1:
        raise UsageError(f"--threads must be >= 1, got {args.threads}")
    return args.threads


def _write_manifest(primary_out, args, inputs: dict, outputs: dict, started: float) -> None:
    if primary_out is None:
        return
    manifest = {
        "command": args.command,
        "argv": list(args.raw_argv),
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "inputs": {k: str(v) for k, v in inputs.items() if v is not None},
        "outputs": {k: str(v) for k, v in outputs.items() if v is not None},
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    path = Path(str(primary_out) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def cmd_synth(args):
    config = SynthConfig(
        n_chains=args.chains,
        branches_per_chain=args.branches_per_chain,
        images_per_branch=args.images_per_branch,
        unknown_chain_fraction=args.unknown_frac,
        d_in=args.d_in,
        seed=args.seed,
    )
    catalog, features = generate(config)
    save_catalog(catalog, args.out_catalog)
    write_embeddings(features, args.out_features)
    print(f"wrote {len(catalog.records)} images, {features.d}-d features")
    return args.out_catalog, {}, {"catalog": args.out_catalog, "features": args.out_features}


def cmd_split(args):
    _require_files(args.catalog)
    catalog = load_catalog(args.catalog)
    config = SplitConfig(seed=args.seed, uu_chain_fraction=args.uu_frac,
                         su_branch_fraction=args.su_frac, t1=args.t1, t2=args.t2,
                         ss_divisor=args.ss_divisor)
    assignment = generate_splits(catalog, config)
    report = verify_splits(catalog, assignment)
    save_assignment(assignment, args.out)
    save_report(report, args.report)
    for name in SPLIT_NAMES:
        print(f"{name}: {report.counts[name]['images']} images")
    if not report.passed:
        raise SplitError("generated splits failed verification: "
                         + ", ".join(c.name for c in report.checks if not c.passed))
    return args.out, {"catalog": args.catalog}, {"splits": args.out, "report": args.report}


def cmd_verify(args):
    _require_files(args.catalog, args.splits)
    catalog = load_catalog(args.catalog)
    config = None
    if args.t2 is not None:
        config = SplitConfig(seed=0, uu_chain_fraction=0.1, su_branch_fraction=0.1,
                             t1=max(args.t2 * 2, 2), t2=args.t2)
    assignment = load_assignment(args.splits, config)
    report = verify_splits(catalog, assignment)
    for check in report.checks:
        marker = "ok" if check.passed else "FAIL"
        print(f"[{marker}] {check.name}" + ("" if check.passed else f": {check.offenders[:5]}"))
    save_report(report, args.report)
    if not report.passed:
        raise SplitError("verification failed")
    return args.report, {"catalog": args.catalog, "splits": args.splits}, {"report": args.report}


def cmd_train(args):
    _require_files(args.catalog, args.splits, args.features, args.loss_params)
    catalog = load_catalog(args.catalog)
    assignment = load_assignment(args.splits)
    features = read_embeddings(args.features)
    params = LossParams.from_json(args.loss_params) if args.loss_params else LossParams()
    config = TrainConfig(
        loss=args.loss, params=params, lr=args.lr, momentum=args.momentum,
        epochs=args.epochs, seed=args.seed, m=args.m, k=args.k, d_out=args.d_out,
    )
    model, history = train(catalog, assignment, features, config)
    save_model(args.out, model)
    history.save(args.history)
    last = history.rows[-1]
    print(f"trained {args.loss} for {config.epochs} epochs; "
          f"final val R@1 {last[2]:.4f}, val AUC {last[3]:.4f}")
    inputs = {"catalog": args.catalog, "splits": args.splits, "features": args.features,
              "loss_params": args.loss_params}
    return args.out, inputs, {"model": args.out, "history": args.history}


def _embeddings_for_eval(args):
    if args.embeddings:
        _require_files(args.embeddings)
        emb = read_embeddings(args.embeddings)
    else:
        _require_files(args.model, args.features)
        model = load_model(args.model)
        feats = read_embeddings(args.features)
        rows = forward(model, feats.data.astype(np.float64))
        emb = EmbeddingMatrix(feats.ids, rows.astype(np.float32), normalized=True)
    return _in_split(args, emb)


def _in_split(args, emb: EmbeddingMatrix) -> EmbeddingMatrix:
    """The rows of ``--split`` in id order, or all rows without it."""
    if not args.split:
        return emb
    _require_files(args.splits)
    ids = load_assignment(args.splits).images_of(args.split)
    if not ids:
        raise EvalError(f"split {args.split!r} is empty")
    return emb.subset(sorted(ids))


def cmd_eval(args):
    if bool(args.embeddings) == bool(args.model) or bool(args.model) != bool(args.features):
        raise UsageError("eval needs either --embeddings or --model with --features")
    _require_files(args.catalog)
    threads = _threads(args)
    catalog = load_catalog(args.catalog)
    oracle = LinkOracle.from_catalog(catalog)
    emb = _embeddings_for_eval(args)
    hard_pool = None
    if args.reference:
        _require_files(args.reference)
        reference = read_embeddings(args.reference).subset(sorted(emb.ids))
        hard_pool = mine_hard_negatives(reference, oracle, k=args.hard_k, threads=threads)
    options = EvalOptions(repeats=args.repeats, seed=args.seed, hard_pool=hard_pool,
                          threads=threads)
    report = evaluate(emb, oracle, options)
    payload = report.to_json_dict()
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    auc_h = payload["auc_h"]
    print(f"r@1 {report.r_at_1:.4f}  auc {report.auc_mean:.4f} ± {report.auc_std:.4f}"
          + (f"  auc_h {auc_h['mean']:.4f} ± {auc_h['std']:.4f}" if auc_h else ""))
    inputs = {"catalog": args.catalog, "embeddings": args.embeddings,
              "model": args.model, "features": args.features, "splits": args.splits,
              "reference": args.reference}
    return args.out, inputs, {"metrics": args.out}


def cmd_mine(args):
    _require_files(args.catalog, args.embeddings)
    threads = _threads(args)
    catalog = load_catalog(args.catalog)
    oracle = LinkOracle.from_catalog(catalog)
    reference = _in_split(args, read_embeddings(args.embeddings))
    pool = mine_hard_negatives(reference, oracle, k=args.k, threads=threads)
    payload = {anchor: list(ids) for anchor, ids in sorted(pool.negatives.items())}
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    sizes = [len(v) for v in payload.values()]
    print(f"mined pools for {len(payload)} images (k={args.k}, "
          f"min pool {min(sizes) if sizes else 0})")
    inputs = {"catalog": args.catalog, "embeddings": args.embeddings, "splits": args.splits}
    return args.out, inputs, {"pool": args.out}


def cmd_stats(args):
    _require_files(args.catalog)
    catalog = load_catalog(args.catalog)
    payload = stats(catalog).to_json_dict()
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        return args.out, {"catalog": args.catalog}, {"stats": args.out}
    print(text)
    return None, {}, {}


def cmd_dedup(args):
    _require_files(args.catalog)
    catalog = load_catalog(args.catalog)
    merged, report = dedup_merge(catalog)
    save_catalog(merged, args.out)
    save_dedup_report(report, args.report)
    print(f"{len(catalog.records)} -> {len(merged.records)} images; "
          f"{len(report.merged_groups)} merges, {len(report.skipped)} conflicts skipped")
    return args.out, {"catalog": args.catalog}, {"catalog": args.out, "report": args.report}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitmetric",
        description="difficulty-stratified split generation and linking evaluation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, fn, help_text, threads=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        if threads:
            p.add_argument("--threads", type=int, default=1, help="k-NN worker threads")
        return p

    p = add("synth", cmd_synth, "generate a synthetic catalog + feature matrix")
    p.add_argument("--out-catalog", default="catalog.csv")
    p.add_argument("--out-features", default="features.emb")
    p.add_argument("--chains", type=int, default=40)
    p.add_argument("--branches-per-chain", type=int, default=8)
    p.add_argument("--images-per-branch", type=int, default=20)
    p.add_argument("--unknown-frac", type=float, default=0.15)
    p.add_argument("--d-in", type=int, default=48)
    p.add_argument("--seed", type=int, default=0)

    p = add("split", cmd_split, "assign images to the 8 difficulty splits")
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", default="splits.csv")
    p.add_argument("--report", default="report.json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--uu-frac", type=float, default=0.15)
    p.add_argument("--su-frac", type=float, default=0.15)
    p.add_argument("--t1", type=int, default=10)
    p.add_argument("--t2", type=int, default=2)
    p.add_argument("--ss-divisor", type=int, default=5)

    p = add("verify", cmd_verify, "re-check split constraints from files")
    p.add_argument("--catalog", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--report", default="verify.report.json")
    p.add_argument("--t2", type=int, default=None,
                   help="minimum eval-split size per ss branch (default 1)")

    p = add("train", cmd_train, "train the toy embedding head on the train split")
    p.add_argument("--catalog", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--loss", choices=LOSS_KINDS, default="multisim")
    p.add_argument("--loss-params", default=None, help="JSON file of loss constants")
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--d-out", type=int, default=512)
    p.add_argument("--out", default="model.toy1")
    p.add_argument("--history", default="history.csv")

    p = add("eval", cmd_eval, "R@1 / AUC / AUC_H for an embedding on a split", threads=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--embeddings", default=None, help="precomputed EMB1 matrix")
    p.add_argument("--model", default=None, help="TOY1 checkpoint (with --features)")
    p.add_argument("--features", default=None)
    p.add_argument("--splits", default=None)
    p.add_argument("--split", choices=SPLIT_NAMES, default=None)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reference", default=None,
                   help="reference EMB1 matrix for hard-negative pools")
    p.add_argument("--hard-k", type=int, default=10)
    p.add_argument("--out", default="metrics.json")

    p = add("mine", cmd_mine, "export per-image hard-negative pools as JSON", threads=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--splits", default=None)
    p.add_argument("--split", choices=SPLIT_NAMES, default=None)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", default="pool.json")

    p = add("stats", cmd_stats, "catalog summary counts")
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", default=None)

    p = add("dedup", cmd_dedup, "merge branches sharing duplicate content keys")
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", default="merged.csv")
    p.add_argument("--report", default="dedup.report.json")

    return parser


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(raw)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    args.raw_argv = raw
    started = time.perf_counter()
    try:
        if "split" in vars(args) and bool(args.split) != bool(args.splits):
            raise UsageError("--split and --splits go together")
        primary, inputs, outputs = args.func(args)
    except (UsageError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_manifest(primary, args, inputs, outputs, started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
