"""Command-line pipeline: synth -> split -> verify -> train -> eval -> mine.

Files are the only interface between stages.  Each command declares its
input and output file flags once, in `build_parser`.  `main` checks every
flag rule, that each given input file exists, and that each output path
lies in an existing directory, is not a directory and is named by no other
flag of the command, input or output, all before any file is read; so an
output never replaces an input, and an in-place ``dedup --catalog c.csv
--out c.csv`` is refused too.  The files beside a flag's file count as
well: the ``<path>.ids`` of every EMB1 input and output, and the manifest.
After the command it writes `<primary-output>.manifest.json` from the same
declaration, so a run can be reproduced from the manifest alone.  A
command that reads ``--splits`` refuses a file that fails `verify_splits`
before it reads any features.  `_naming` puts an EMB1 file's path on an
`EmbedStoreError` raised while its rows are gathered, searched or trained on,
so a missing id or a zero row that a search refuses names the file.

The ``synth``, ``split``, ``train`` and ``eval`` commands each take one flag
per ``int`` or ``float`` field of their config dataclass (`SynthConfig`,
`SplitConfig`, `TrainConfig`, `EvalOptions`), typed and defaulted by the
field, and `_config` builds the config from those flags; so every default
is the dataclass's default.  Exit
codes: 0 success, 1 domain error, 2 usage error (bad flags, a missing input
file or output directory, an output path that is a directory or is named by
another flag or lies beside one).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__, write_json
from .catalog import (
    CatalogError,
    dedup_merge,
    load_catalog,
    save_catalog,
    stats,
)
from .embedstore import EmbeddingMatrix, EmbedStoreError, ids_path, read_embeddings, write_embeddings
from .linkeval import EvalError, EvalOptions, LinkOracle, evaluate, mine_hard_negatives
from .losses import LossError, LossParams, LOSS_KINDS
from .splitgen import (
    SPLIT_NAMES,
    SplitConfig,
    SplitError,
    generate_splits,
    load_assignment,
    save_assignment,
    verify_splits,
)
from .synth import SynthConfig, SynthError, generate
from .trainer import TrainConfig, TrainError, forward, load_model, save_model, train

DOMAIN_ERRORS = (CatalogError, EmbedStoreError, SplitError, LossError, EvalError,
                 TrainError, SynthError)


class UsageError(Exception):
    pass


# the file flags that name an EMB1 matrix, whose ids sit beside it in <path>.ids
EMB1_FLAGS = frozenset({"features", "embeddings", "reference", "out_features"})

# the config fields whose flag is not named after the field: field -> flag dest
FLAG_DESTS = {"n_chains": "chains", "unknown_chain_fraction": "unknown_frac",
              "uu_chain_fraction": "uu_frac", "su_branch_fraction": "su_frac"}
FLAG_TYPES = {"int": int, "float": float}  # the config field types that get a flag


def manifest_path(path) -> Path:
    """The manifest ``<path>.manifest.json`` that a command writes beside its primary output."""
    return Path(f"{path}.manifest.json")


def _check_usage(args) -> None:
    """Every flag rule, then the declared files, before any file is read."""
    if "split" in vars(args) and bool(args.split) != bool(args.splits):
        raise UsageError("--split and --splits go together")
    if args.command == "eval" and (bool(args.embeddings) == bool(args.model)
                                   or bool(args.model) != bool(args.features)):
        raise UsageError("eval needs either --embeddings or --model with --features")
    if getattr(args, "threads", 1) < 1:
        raise UsageError(f"--threads must be >= 1, got {args.threads}")
    if args.command == "verify" and args.t2 is not None and args.t2 < 1:
        raise UsageError(f"--t2 must be >= 1, got {args.t2}")
    primary = next(iter(args.outputs.values()), None)  # its file gets the manifest
    claimed = {}  # resolved path -> the first flag or companion file that names it
    for output, dests in ((False, args.inputs), (True, args.outputs.values())):
        for dest in dests:
            path = getattr(args, dest)
            if path is None:
                continue
            path, flag = Path(path), "--" + dest.replace("_", "-")
            if not output and not path.is_file():
                raise UsageError(f"no such file: {path}")
            if output and not path.parent.is_dir():
                raise UsageError(f"no such directory: {path.parent}")
            files = [(path, flag)]
            if dest in EMB1_FLAGS:
                files.append((ids_path(path), f"the .ids file of {flag}"))
            if dest == primary and output:
                files.append((manifest_path(path), f"the manifest of {flag}"))
            for file, name in files:
                if output and file.is_dir():
                    raise UsageError(f"{file} is a directory")
                other = claimed.setdefault(file.resolve(), name)
                if output and other != name:  # inputs may share a file
                    raise UsageError(f"{other} and {name} name the same file: {file}")


def _write_manifest(args, argv: list, started: float) -> None:
    """``<primary output>.manifest.json``; none when the primary output is not a file."""
    outputs = {key: getattr(args, dest) for key, dest in args.outputs.items()}
    primary = next(iter(outputs.values()), None)
    if primary is None:
        return
    manifest = {
        "command": args.command,
        "argv": argv,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "inputs": {k: str(getattr(args, k)) for k in args.inputs if getattr(args, k) is not None},
        "outputs": {k: str(v) for k, v in outputs.items() if v is not None},
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    write_json(manifest_path(primary), manifest)


def _config(args, **given):
    """The command's default config with each field that a flag set, then ``given``."""
    flags = vars(args)
    flagged = {f.name: flags[dest] for f in fields(args.config)
               if (dest := FLAG_DESTS.get(f.name, f.name)) in flags}
    return replace(args.config, **flagged, **given)


def cmd_synth(args):
    catalog, features = generate(_config(args))
    save_catalog(catalog, args.out_catalog)
    write_embeddings(features, args.out_features)
    print(f"wrote {len(catalog.records)} images, {features.d}-d features")


def cmd_split(args):
    catalog = load_catalog(args.catalog)
    assignment = generate_splits(catalog, _config(args))
    report = verify_splits(catalog, assignment)
    save_assignment(assignment, args.out)
    write_json(args.report, report.to_json_dict())
    for name in SPLIT_NAMES:
        images = report.counts[name]["images"]
        print(f"{name}: {images} images")
        if not images:
            print(f"note: split {name} is empty", file=sys.stderr)
    if not report.passed:
        raise SplitError(f"generated splits failed verification: {_failed(report)}")


def cmd_verify(args):
    catalog = load_catalog(args.catalog)
    # `verify_splits` reads only the t2 of an attached config
    config = None if args.t2 is None else SplitConfig(t2=args.t2)
    assignment = load_assignment(args.splits, config)
    report = verify_splits(catalog, assignment)
    for check in report.checks:
        marker = "ok" if check.passed else "FAIL"
        print(f"[{marker}] {check.name}" + ("" if check.passed else f": {check.offenders[:5]}"))
    write_json(args.report, report.to_json_dict())
    if not report.passed:
        raise SplitError("verification failed")


def _failed(report) -> str:
    return ", ".join(c.name for c in report.checks if not c.passed)


def _verified_splits(args, catalog):
    """``--splits``, refused unless it passes `verify_splits` on ``catalog``."""
    assignment = load_assignment(args.splits)
    report = verify_splits(catalog, assignment)
    if not report.passed:
        raise SplitError(f"{args.splits} failed verification: {_failed(report)}")
    return assignment


def cmd_train(args):
    catalog = load_catalog(args.catalog)
    assignment = _verified_splits(args, catalog)
    features = read_embeddings(args.features)
    params = LossParams.from_json(args.loss_params) if args.loss_params else LossParams()
    config = _config(args, params=params)
    with _naming(args.features):  # a train or val_ss id that the matrix lacks
        model, history = train(catalog, assignment, features, config)
    save_model(args.out, model)
    history.save(args.history)
    last = history.rows[-1]
    print(f"trained {args.loss} for {config.epochs} epochs; "
          f"final val R@1 {last[2]:.4f}, val AUC {last[3]:.4f}")


@contextmanager
def _naming(path):
    """Puts the EMB1 file's ``path`` before the message of an `EmbedStoreError` raised inside."""
    try:
        yield
    except EmbedStoreError as exc:
        raise EmbedStoreError(f"{path}: {exc}") from None


def _rows(path, ids) -> EmbeddingMatrix:
    """The rows of the EMB1 file ``path`` for ``ids``, in that order; a missing id names the file."""
    matrix = read_embeddings(path)
    with _naming(path):
        return matrix.subset(ids)


def _in_split(args, catalog, oracle, path) -> EmbeddingMatrix:
    """The rows of the EMB1 file ``path`` in ``--split``, in id order, or all rows without
    it, which must all be images of ``oracle``; ``--splits`` is verified on ``catalog``
    before the file is read."""
    if not args.split:
        matrix = read_embeddings(path)
        unknown = [i for i in matrix.ids if i not in oracle.labels]
        if unknown:
            raise EmbedStoreError(f"{path}: ids not in catalog {args.catalog}: {unknown[:5]!r}")
        return matrix
    ids = _verified_splits(args, catalog).images_of(args.split)  # in id order
    if not ids:
        raise EvalError(f"split {args.split!r} is empty")
    return _rows(path, ids)


def cmd_eval(args):
    catalog = load_catalog(args.catalog)
    oracle = LinkOracle.from_catalog(catalog)
    emb = _in_split(args, catalog, oracle, args.embeddings or args.features)
    if args.model:  # the head runs on the split's rows only
        model = load_model(args.model)
        if model.d_in != emb.d:
            raise TrainError(f"{args.model}: the model takes {model.d_in}-d features, "
                             f"but {args.features} holds {emb.d}-d rows")
        emb = EmbeddingMatrix(emb.ids, forward(model, emb.data).astype(np.float32), normalized=True)
    hard_pool = None
    if args.reference:
        reference = _rows(args.reference, sorted(emb.ids))
        with _naming(args.reference):
            hard_pool = mine_hard_negatives(reference, oracle, k=args.hard_k, threads=args.threads)
    with _naming(args.embeddings or args.features):
        report = evaluate(emb, oracle, _config(args, hard_pool=hard_pool))
    payload = report.to_json_dict()
    write_json(args.out, payload)
    auc_h = payload["auc_h"]
    print(f"r@1 {report.r_at_1:.4f}  auc {report.auc_mean:.4f} ± {report.auc_std:.4f}"
          + (f"  auc_h {auc_h['mean']:.4f} ± {auc_h['std']:.4f}" if auc_h else ""))


def cmd_mine(args):
    catalog = load_catalog(args.catalog)
    oracle = LinkOracle.from_catalog(catalog)
    reference = _in_split(args, catalog, oracle, args.embeddings)
    with _naming(args.embeddings):
        pool = mine_hard_negatives(reference, oracle, k=args.k, threads=args.threads)
    payload = {anchor: list(ids) for anchor, ids in pool.negatives.items()}  # in id order
    write_json(args.out, payload)
    sizes = [len(v) for v in payload.values()]
    print(f"mined pools for {len(payload)} images (k={args.k}, "
          f"min pool {min(sizes) if sizes else 0})")


def cmd_stats(args):
    payload = stats(load_catalog(args.catalog)).to_json_dict()
    if args.out:
        write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2))


def cmd_dedup(args):
    catalog = load_catalog(args.catalog)
    merged, report = dedup_merge(catalog)
    save_catalog(merged, args.out)
    write_json(args.report, report.to_json_dict())
    print(f"{len(catalog.records)} -> {len(merged.records)} images; "
          f"{len(report.merged_groups)} merges, {len(report.skipped)} conflicts skipped")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitmetric",
        description="difficulty-stratified split generation and linking evaluation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    need = {"required": True}

    def add(name, fn, help_text, config=None, inputs=None, outputs=None, threads=False):
        """A subcommand, its file flags and its config flags, the one place that lists them.

        ``inputs`` maps each input file's dest, which is also its manifest
        key, to its `add_argument` keywords.  ``outputs`` maps each output's
        manifest key to ``(dest, default)``, the primary output first.
        ``config`` is the command's default config: each of its ``int`` and
        ``float`` fields gets one flag of the field's type and default, named
        by `FLAG_DESTS` or else after the field.
        """
        inputs, outputs = inputs or {}, outputs or {}
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn, config=config, inputs=tuple(inputs),
                       outputs={key: dest for key, (dest, _) in outputs.items()})
        if threads:
            p.add_argument("--threads", type=int, default=EvalOptions().threads,
                           help="k-NN worker threads")
        for dest, kwargs in inputs.items():
            p.add_argument("--" + dest.replace("_", "-"), **kwargs)
        for dest, default in outputs.values():
            p.add_argument("--" + dest.replace("_", "-"), default=default)
        for f in fields(config) if config else ():
            dest = FLAG_DESTS.get(f.name, f.name)
            if f.type in FLAG_TYPES and not (threads and dest == "threads"):
                p.add_argument("--" + dest.replace("_", "-"), type=FLAG_TYPES[f.type],
                               default=getattr(config, f.name))
        return p

    add("synth", cmd_synth, "generate a synthetic catalog + feature matrix", SynthConfig(),
        outputs={"catalog": ("out_catalog", "catalog.csv"),
                 "features": ("out_features", "features.emb")})
    add("split", cmd_split, "assign images to the 8 difficulty splits", SplitConfig(),
        inputs={"catalog": need},
        outputs={"splits": ("out", "splits.csv"), "report": ("report", "report.json")})

    p = add("verify", cmd_verify, "re-check split constraints from files",
            inputs={"catalog": need, "splits": need},
            outputs={"report": ("report", "verify.report.json")})
    p.add_argument("--t2", type=int, default=None,
                   help="minimum eval-split size per ss branch (default 1)")

    p = add("train", cmd_train, "train the toy embedding head on the train split", TrainConfig(),
            inputs={"catalog": need, "splits": need, "features": need,
                    "loss_params": {"help": "JSON file of loss constants"}},
            outputs={"model": ("out", "model.toy1"), "history": ("history", "history.csv")})
    p.add_argument("--loss", choices=LOSS_KINDS, default=TrainConfig().loss)

    p = add("eval", cmd_eval, "R@1 / AUC / AUC_H for an embedding on a split", EvalOptions(),
            inputs={"catalog": need, "embeddings": {"help": "precomputed EMB1 matrix"},
                    "model": {"help": "TOY1 checkpoint (with --features)"}, "features": {},
                    "splits": {},
                    "reference": {"help": "reference EMB1 matrix for hard-negative pools"}},
            outputs={"metrics": ("out", "metrics.json")}, threads=True)
    p.add_argument("--split", choices=SPLIT_NAMES, default=None)
    p.add_argument("--hard-k", type=int, default=10)

    p = add("mine", cmd_mine, "export per-image hard-negative pools as JSON",
            inputs={"catalog": need, "embeddings": need, "splits": {}},
            outputs={"pool": ("out", "pool.json")}, threads=True)
    p.add_argument("--split", choices=SPLIT_NAMES, default=None)
    p.add_argument("--k", type=int, default=10)

    add("stats", cmd_stats, "catalog summary counts", inputs={"catalog": need},
        outputs={"stats": ("out", None)})
    add("dedup", cmd_dedup, "merge branches sharing duplicate content keys",
        inputs={"catalog": need},
        outputs={"catalog": ("out", "merged.csv"), "report": ("report", "dedup.report.json")})
    return parser


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(raw)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    started = time.perf_counter()
    try:
        _check_usage(args)
        args.func(args)
    except (UsageError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_manifest(args, raw, started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
