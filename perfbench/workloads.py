"""The four benchmark workloads.

Each workload makes its inputs from the run's seed (``make_inputs``), does
one pass of timed work through the public API of ``splitmetric``
(``run_pass``) and checks a pass's outputs against brute-force references
outside the timed region (``check_pass``, ``finish``).  Library calls go
through module attributes (``trainer.train``, ``linkeval.evaluate``, ...),
so the tracer in ``spans.py`` sees them when it is installed.

A pass returns its wall time, the group it belongs to (passes of one group
do the same work) and the time and amount of each kind of work it did:
``train`` (SGD steps), ``eval`` (eligible anchors scored), ``mine`` (anchors
given a pool) and ``loss`` (loss calls).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from splitmetric import catalog, cli, embedstore, linkeval, losses, splitgen, synth, trainer

GATE_SEEDS = (0, 1, 2, 3, 4)
GATE_SPLITS = splitgen.SplitConfig(seed=0, uu_chain_fraction=0.15, su_branch_fraction=0.15,
                                   t1=10, t2=2)
GATE_LOSSES = ("triplet", "multisim")
GATE_EVAL_SPLITS = ("test_ss", "test_su", "test_uu")
HARD_K = 10
KNN_THREADS = 2
POOL_SAMPLE = 64
LOSS_SHAPES = ((8, 4), (16, 8))
LOSS_D = 32
LOSS_SWEEPS = 40
VIEW_NOISE = 0.2
GRAD_TOLERANCE = 1e-5
CLI_MINE_SPLIT = "test_uu"


@dataclass
class Tally:
    """Operations attempted and the ones that failed (raised or failed a check)."""

    attempted: int = 0
    failed: set = field(default_factory=set)
    notes: list = field(default_factory=list)

    def op(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def fail(self, op_id: int, why: str) -> None:
        self.failed.add(op_id)
        self.notes.append(why)


@dataclass
class Pass:
    group: str
    wall: float = 0.0
    scale: float = 1.0  # factor to the reference pace, set by the runner
    work: dict = field(default_factory=dict)  # kind -> [seconds, amount]
    outputs: dict = field(default_factory=dict)

    def add(self, kind: str, seconds: float, amount: int) -> None:
        row = self.work.setdefault(kind, [0.0, 0])
        row[0] += seconds
        row[1] += amount


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _digest(*parts) -> str:
    """sha256 over arrays' bytes and other parts' repr, in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def _corpus_parts(cat, features, assignment=None) -> tuple:
    splits = sorted(assignment.assignment.items()) if assignment is not None else None
    return cat.records, features.ids, features.data, splits


def _check_pools(reference, oracle, pool, anchors, op_id, tally, where) -> None:
    expected = oracles.brute_pools(reference, oracle, anchors, HARD_K)
    wrong = [a for a in anchors if pool.negatives.get(a) != expected[a]]
    if wrong:
        tally.fail(op_id, f"{where}: {len(wrong)} pools differ from brute force, e.g. {wrong[0]!r}")


def _embed(model, features, ids) -> embedstore.EmbeddingMatrix:
    rows = features.row_of()
    x = features.data.astype(np.float64)[[rows[i] for i in ids]]
    return embedstore.EmbeddingMatrix(tuple(ids), trainer.forward(model, x).astype(np.float32),
                                      normalized=True)


def _corpus(seed: int):
    """Standard corpus with the gate's split carve, verified."""
    cat, features = synth.generate(synth.standard_corpus_config(seed=seed))
    assignment = splitgen.generate_splits(cat, GATE_SPLITS)
    report = splitgen.verify_splits(cat, assignment)
    if not report.passed:
        raise RuntimeError(f"corpus seed {seed}: carved splits fail verification")
    return cat, features, assignment


class GateTrain:
    """The recipe behind acceptance criteria 6 and 7, one trained run a pass."""

    name = "gate_train"
    min_passes = len(GATE_LOSSES)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.inputs: dict = {}
        self.count = 0
        self.rows: dict = {loss: [] for loss in GATE_LOSSES}

    def make_inputs(self, repeat: int) -> None:
        # the gate's thresholds are stated over its own corpus seeds, so the
        # run seed picks where in GATE_SEEDS the rotation starts
        corpus_seed = GATE_SEEDS[(self.seed + repeat) % len(GATE_SEEDS)]
        cat, features, assignment = _corpus(corpus_seed)
        self.inputs[corpus_seed] = (cat, features, assignment,
                                    linkeval.LinkOracle.from_catalog(cat))

    def inputs_digest(self) -> str:
        return _digest(*(part for seed in sorted(self.inputs)
                         for part in _corpus_parts(*self.inputs[seed][:3])))

    def sizes(self) -> dict:
        cat, features, assignment, _ = next(iter(self.inputs.values()))
        return {"N": features.n, "d": features.d, "n_train": len(assignment.images_of("train")),
                "mxk": "8x4", "d_out": 2, "epochs": 30,
                "corpus_seeds": sorted(self.inputs)}

    def run_pass(self, tally: Tally) -> Pass:
        loss = GATE_LOSSES[self.count % len(GATE_LOSSES)]
        corpus_seed = GATE_SEEDS[(self.seed + self.count // len(GATE_LOSSES)) % len(GATE_SEEDS)]
        self.count += 1
        cat, features, assignment, oracle = self.inputs[corpus_seed]
        config = trainer.TrainConfig(loss=loss, lr=0.2, epochs=30, seed=corpus_seed, d_out=2)
        p = Pass(loss)
        t0 = time.perf_counter()
        p.outputs["train_op"] = tally.op()
        (model, _), dt = _timed(trainer.train, cat, assignment, features, config)
        n_train = len(assignment.images_of("train"))
        p.add("train", dt, config.epochs * max(1, n_train // (config.m * config.k)))
        reports = {}
        for split in GATE_EVAL_SPLITS:
            ids = sorted(assignment.images_of(split))
            emb = _embed(model, features, ids)
            pool = None
            if split == "test_ss":
                reference = features.subset(ids)
                p.outputs["mine_op"] = tally.op()
                pool, dt = _timed(linkeval.mine_hard_negatives, reference, oracle, k=HARD_K)
                p.add("mine", dt, len(ids))
                p.outputs["pool"] = (reference, pool)
            p.outputs[f"eval_op_{split}"] = tally.op()
            reports[split], dt = _timed(linkeval.evaluate, emb, oracle,
                                        linkeval.EvalOptions(repeats=10, seed=0, hard_pool=pool))
            p.add("eval", dt, len(ids) - reports[split].skipped)
        p.wall = time.perf_counter() - t0
        p.outputs.update(loss=loss, oracle=oracle, reports=reports)
        return p

    def check_pass(self, p: Pass, tally: Tally) -> None:
        reference, pool = p.outputs["pool"]
        _check_pools(reference, p.outputs["oracle"], pool, sorted(reference.ids),
                     p.outputs["mine_op"], tally, "gate test_ss")
        r = p.outputs["reports"]
        self.rows[p.outputs["loss"]].append(
            (p.outputs["train_op"], r["test_ss"].auc_mean, r["test_su"].auc_mean,
             r["test_uu"].auc_mean, r["test_ss"].auc_h_mean))

    def finish(self, tally: Tally) -> None:
        """Criteria 6 and 7 over the runs made: mean AUC(ss) > AUC(su) > AUC(uu)
        and mean AUC(ss) - AUC_H >= 0.01, per loss."""
        for loss, rows in self.rows.items():
            if not rows:
                continue
            ss, su, uu, hard = (float(np.mean([r[j] for r in rows])) for j in range(1, 5))
            problems = []
            if not ss > su > uu:
                problems.append(f"AUC ordering ss {ss:.4f} su {su:.4f} uu {uu:.4f}")
            if ss - hard < 0.01:
                problems.append(f"hard-negative gap {ss - hard:.4f} < 0.01")
            for row in rows:
                for why in problems:
                    tally.fail(row[0], f"gate {loss}: {why}")


class Retrieval:
    """Full standard corpus: mine on raw features, evaluate an untrained head."""

    name = "retrieval"
    min_passes = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.first: tuple | None = None

    def make_inputs(self, repeat: int) -> None:
        cat, self.features = synth.generate(synth.standard_corpus_config(seed=self.seed))
        self.oracle = linkeval.LinkOracle.from_catalog(cat)
        model = trainer.init_model(self.features.d, 4, self.seed)
        self.emb = _embed(model, self.features, list(self.features.ids))
        self.catalog = cat

    def inputs_digest(self) -> str:
        return _digest(*_corpus_parts(self.catalog, self.features), self.emb.data)

    def sizes(self) -> dict:
        return {"N": self.features.n, "d": self.features.d, "d_out": self.emb.d,
                "knn_threads": KNN_THREADS, "hard_k": HARD_K, "repeats": 10}

    def run_pass(self, tally: Tally) -> Pass:
        p = Pass("retrieval")
        t0 = time.perf_counter()
        p.outputs["mine_op"] = tally.op()
        pool, dt = _timed(linkeval.mine_hard_negatives, self.features, self.oracle, k=HARD_K,
                          threads=KNN_THREADS)
        p.add("mine", dt, self.features.n)
        p.outputs["eval_op"] = tally.op()
        options = linkeval.EvalOptions(repeats=10, seed=self.seed, hard_pool=pool,
                                       threads=KNN_THREADS)
        report, dt = _timed(linkeval.evaluate, self.emb, self.oracle, options)
        p.add("eval", dt, self.emb.n - report.skipped)
        p.wall = time.perf_counter() - t0
        p.outputs.update(pool=pool, report=report, options=options)
        return p

    def check_pass(self, p: Pass, tally: Tally) -> None:
        pool, report = p.outputs["pool"], p.outputs["report"]
        if self.first is not None:  # same inputs, so the same outputs bit for bit
            if pool.negatives != self.first[0].negatives:
                tally.fail(p.outputs["mine_op"], "retrieval: pools differ between passes")
            if report.to_json_dict() != self.first[1].to_json_dict():
                tally.fail(p.outputs["eval_op"], "retrieval: report differs between passes")
            return
        self.first = (pool, report)
        rng = np.random.default_rng(self.seed)
        anchors = sorted(rng.choice(sorted(self.features.ids), POOL_SAMPLE, replace=False))
        _check_pools(self.features, self.oracle, pool, anchors, p.outputs["mine_op"], tally,
                     "retrieval")
        brute = oracles.brute_r_at_1(self.emb, self.oracle)
        if report.r_at_1 != brute:
            tally.fail(p.outputs["eval_op"], f"retrieval: R@1 {report.r_at_1} != brute {brute}")
        options = p.outputs["options"]
        for hard_pool, got in ((None, report.auc_repeats[0]), (pool, report.auc_h_repeats[0])):
            pairs = linkeval.sample_eval_pairs(self.emb.ids, self.oracle, options.seed, hard_pool)
            counted = oracles.pair_count_auroc(*oracles.pair_scores(self.emb, pairs))
            if got != counted:
                tally.fail(p.outputs["eval_op"],
                           f"retrieval: AUROC {got} != pair count {counted}")

    def finish(self, tally: Tally) -> None:
        pass


class CliPipeline:
    """The README walkthrough through ``splitmetric.cli.main``, in process."""

    name = "cli_pipeline"
    min_passes = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.dir = workdir / f"cli_pipeline-{seed}"

    def make_inputs(self, repeat: int) -> None:
        # the library's own corpus and carve for this seed: the CLI must match it
        self.catalog, self.features, self.assignment = _corpus(self.seed)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.argv = self._commands()

    def inputs_digest(self) -> str:
        argv = [[a.replace(str(self.dir), "<dir>") for a in argv] for argv in self.argv]
        return _digest(*_corpus_parts(self.catalog, self.features, self.assignment), argv)

    def _commands(self) -> list:
        f = {name: str(self.dir / name) for name in (
            "catalog.csv", "features.emb", "splits.csv", "split_report.json", "verify.json",
            "model.toy1", "history.csv", "metrics.json", "pools.json", "deduped.csv",
            "dedup.json", "stats.json")}
        s = str(self.seed)
        return [
            ["synth", "--seed", s, "--out-catalog", f["catalog.csv"],
             "--out-features", f["features.emb"]],
            ["split", "--catalog", f["catalog.csv"], "--seed", "0", "--out", f["splits.csv"],
             "--report", f["split_report.json"]],
            ["verify", "--catalog", f["catalog.csv"], "--splits", f["splits.csv"], "--t2", "2",
             "--report", f["verify.json"]],
            ["train", "--catalog", f["catalog.csv"], "--splits", f["splits.csv"],
             "--features", f["features.emb"], "--loss", "supcon", "--d-out", "32",
             "--seed", s, "--out", f["model.toy1"], "--history", f["history.csv"]],
            ["eval", "--catalog", f["catalog.csv"], "--model", f["model.toy1"],
             "--features", f["features.emb"], "--splits", f["splits.csv"], "--split", "test_ss",
             "--reference", f["features.emb"], "--hard-k", str(HARD_K), "--seed", s,
             "--out", f["metrics.json"]],
            ["mine", "--catalog", f["catalog.csv"], "--embeddings", f["features.emb"],
             "--splits", f["splits.csv"], "--split", CLI_MINE_SPLIT, "--k", str(HARD_K),
             "--out", f["pools.json"]],
            ["dedup", "--catalog", f["catalog.csv"], "--out", f["deduped.csv"],
             "--report", f["dedup.json"]],
            ["stats", "--catalog", f["catalog.csv"], "--out", f["stats.json"]],
        ]

    def sizes(self) -> dict:
        return {"N": self.features.n, "d": self.features.d, "mxk": "8x4 (two views: 64 rows)",
                "d_out": 32, "epochs": 10, "loss": "supcon"}

    def run_pass(self, tally: Tally) -> Pass:
        p = Pass("cli_pipeline")
        codes, seconds, ops = {}, {}, {}
        log = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            for argv in self.argv:
                ops[argv[0]] = tally.op()
                codes[argv[0]], seconds[argv[0]] = _timed(cli.main, argv)
        p.wall = time.perf_counter() - t0
        cli_defaults = trainer.TrainConfig()
        p.add("train", seconds["train"], cli_defaults.epochs
              * (len(self.assignment.images_of("train")) // (cli_defaults.m * cli_defaults.k)))
        p.add("eval", seconds["eval"], len(self.assignment.images_of("test_ss")))
        p.add("mine", seconds["mine"], len(self.assignment.images_of(CLI_MINE_SPLIT)))
        p.outputs.update(codes=codes, ops=ops, log=log.getvalue())
        return p

    def check_pass(self, p: Pass, tally: Tally) -> None:
        ops = p.outputs["ops"]
        exited = {command: code for command, code in p.outputs["codes"].items() if code != 0}
        for command, code in exited.items():
            tally.fail(ops[command], f"cli {command} exited {code}: {p.outputs['log'][-500:]}")
        if exited:
            return
        for problem, command in self._artifact_problems():
            tally.fail(ops[command], f"cli {command}: {problem}")

    def _artifact_problems(self):
        d = self.dir
        resave = d / "resave"
        resave.mkdir(exist_ok=True)
        cat = catalog.load_catalog(d / "catalog.csv")
        if cat.records != self.catalog.records:
            yield "catalog differs from the library's for this seed", "synth"
        for path in oracles.resave_differs(d / "catalog.csv", catalog.load_catalog,
                                           catalog.save_catalog, resave / "catalog.csv"):
            yield f"{path} does not re-save byte for byte", "synth"
        for path in oracles.resave_differs(d / "features.emb", embedstore.read_embeddings,
                                           embedstore.write_embeddings, resave / "features.emb",
                                           (".ids",)):
            yield f"{path} does not re-save byte for byte", "synth"
        splits = splitgen.load_assignment(d / "splits.csv")
        if splits.assignment != self.assignment.assignment:
            yield "splits differ from the library's carve", "split"
        for path in oracles.resave_differs(d / "splits.csv", splitgen.load_assignment,
                                           splitgen.save_assignment, resave / "splits.csv"):
            yield f"{path} does not re-save byte for byte", "split"
        if not json.loads((d / "verify.json").read_text(encoding="utf-8"))["passed"]:
            yield "verify report did not pass", "verify"
        for path in oracles.resave_differs(d / "model.toy1", trainer.load_model,
                                           lambda model, path: trainer.save_model(path, model),
                                           resave / "model.toy1"):
            yield f"{path} does not re-save byte for byte", "train"
        yield from self._eval_problems(cat, splits)
        yield from self._mine_problems(cat, splits)
        merged = catalog.load_catalog(d / "deduped.csv")
        if merged.records != cat.records:  # the synthetic corpus has no content keys
            yield "dedup changed a catalog without duplicate keys", "dedup"
        stats = json.loads((d / "stats.json").read_text(encoding="utf-8"))
        if stats != catalog.stats(cat).to_json_dict():
            yield "stats.json differs from library stats", "stats"

    def _eval_problems(self, cat, splits):
        d = self.dir
        oracle = linkeval.LinkOracle.from_catalog(cat)
        features = embedstore.read_embeddings(d / "features.emb")
        ids = sorted(splits.images_of("test_ss"))
        emb = _embed(trainer.load_model(d / "model.toy1"), features, ids)
        pool = linkeval.mine_hard_negatives(features.subset(ids), oracle, k=HARD_K)
        report = linkeval.evaluate(emb, oracle, linkeval.EvalOptions(repeats=10, seed=self.seed,
                                                                     hard_pool=pool))
        got = json.loads((d / "metrics.json").read_text(encoding="utf-8"))
        if got != report.to_json_dict():
            yield "metrics.json differs from a library evaluate on the same files", "eval"

    def _mine_problems(self, cat, splits):
        d = self.dir
        oracle = linkeval.LinkOracle.from_catalog(cat)
        ids = sorted(splits.images_of(CLI_MINE_SPLIT))
        reference = embedstore.read_embeddings(d / "features.emb").subset(ids)
        got = json.loads((d / "pools.json").read_text(encoding="utf-8"))
        expected = oracles.brute_pools(reference, oracle, ids, HARD_K)
        if sorted(got) != ids or any(tuple(got[a]) != expected[a] for a in ids):
            yield "pools.json differs from brute-force pools", "mine"

    def finish(self, tally: Tally) -> None:
        pass


class LossKernels:
    """All six losses at two batch shapes on embedded images of the corpus."""

    name = "loss_kernels"
    min_passes = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.first: list | None = None
        self.params = losses.LossParams()

    def make_inputs(self, repeat: int) -> None:
        cat, features = synth.generate(synth.standard_corpus_config(seed=self.seed))
        model = trainer.init_model(features.d, LOSS_D, self.seed)
        emb = trainer.forward(model, features.data.astype(np.float64))
        members: dict = {}
        branch_of = cat.branch_of()
        for j, image_id in enumerate(features.ids):
            members.setdefault(branch_of[image_id], []).append(j)
        branches = sorted(members)
        rng = np.random.default_rng(self.seed)
        self.cases = []
        for m, k in LOSS_SHAPES:
            picked = rng.choice(len(branches), size=m, replace=False)
            rows = [r for b in picked
                    for r in rng.choice(members[branches[b]], size=k, replace=False)]
            # untrained-head embeddings of one branch nearly coincide, which
            # leaves triplet and multisim nothing to do; view noise gives
            # every loss active pairs, as in training
            views = emb[rows] + VIEW_NOISE * rng.standard_normal((m * k, LOSS_D))
            views /= np.linalg.norm(views, axis=1, keepdims=True)
            batch = losses.Batch(views, np.repeat(np.arange(m), k))
            means = np.stack([batch.embeddings[batch.labels == c].mean(axis=0) for c in range(m)])
            means /= np.linalg.norm(means, axis=1, keepdims=True)
            centers = means[:, None, :] + 0.01 * rng.standard_normal(
                (m, self.params.softtriple_centers, LOSS_D))
            centers /= np.linalg.norm(centers, axis=-1, keepdims=True)
            banks = {"proxynca": losses.ProxyBank(means), "softtriple": losses.CenterBank(centers)}
            for kind in losses.LOSS_KINDS:
                self.cases.append((kind, batch, banks.get(kind)))

    def inputs_digest(self) -> str:
        return _digest(*(part for kind, batch, bank in self.cases
                         for part in (kind, batch.embeddings, batch.labels,
                                      None if bank is None else bank.vectors)))

    def sizes(self) -> dict:
        return {"d": LOSS_D, "mxk": [f"{m}x{k}" for m, k in LOSS_SHAPES],
                "kinds": list(losses.LOSS_KINDS), "sweeps_per_pass": LOSS_SWEEPS,
                "softtriple_centers": self.params.softtriple_centers}

    def run_pass(self, tally: Tally) -> Pass:
        """LOSS_SWEEPS sweeps over every (loss, batch shape) case."""
        p = Pass("loss_kernels")
        results = []
        t0 = time.perf_counter()
        for _ in range(LOSS_SWEEPS):
            for kind, batch, bank in self.cases:
                op = tally.op()
                result, dt = _timed(losses.compute_loss, kind, batch, self.params, bank)
                p.add("loss", dt, 1)
                results.append((op, result))
        p.wall = time.perf_counter() - t0
        p.outputs["results"] = results
        return p

    def check_pass(self, p: Pass, tally: Tally) -> None:
        results = p.outputs["results"]
        cases = self.cases * LOSS_SWEEPS
        for (kind, batch, _), (op, result) in zip(cases, results):
            if not np.isfinite(result.value):
                tally.fail(op, f"{kind} b{batch.size}: non-finite loss {result.value}")
        if self.first is None:
            self.first = results[:len(self.cases)]
            rng = np.random.default_rng(self.seed)
            for (kind, batch, bank), (op, result) in zip(self.cases, self.first):
                err = oracles.directional_error(kind, batch, self.params, bank, result, rng)
                if not err <= GRAD_TOLERANCE:
                    tally.fail(op, f"{kind} b{batch.size}: directional gradient error {err:.2e}")
        # the same inputs every sweep, so the same outputs bit for bit
        for (kind, batch, _), (op, result), (_, ref) in zip(cases, results,
                                                            self.first * LOSS_SWEEPS):
            same = (result.value == ref.value
                    and np.array_equal(result.grad_embeddings, ref.grad_embeddings)
                    and (result.grad_aux is None) == (ref.grad_aux is None)
                    and (result.grad_aux is None or np.array_equal(result.grad_aux, ref.grad_aux)))
            if not same:
                tally.fail(op, f"{kind} b{batch.size}: output differs from the first sweep")

    def finish(self, tally: Tally) -> None:
        pass


WORKLOADS = {w.name: w for w in (GateTrain, Retrieval, CliPipeline, LossKernels)}
