import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from splitmetric import cli, write_frame
from splitmetric.cli import build_parser, main
from splitmetric.linkeval import EvalOptions
from splitmetric.losses import LOSS_KINDS
from splitmetric.splitgen import SPLIT_NAMES, SplitConfig
from splitmetric.synth import SynthConfig, standard_corpus_config
from splitmetric.trainer import TrainConfig


def run(*argv):
    return main([str(a) for a in argv])


def command_parsers() -> dict:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# (command, input file flag) for every input file a command declares
INPUT_FLAGS = [
    ("split", "--catalog"), ("verify", "--catalog"), ("verify", "--splits"),
    ("train", "--catalog"), ("train", "--splits"), ("train", "--features"),
    ("train", "--loss-params"), ("eval", "--catalog"), ("eval", "--embeddings"),
    ("eval", "--model"), ("eval", "--features"), ("eval", "--splits"), ("eval", "--reference"),
    ("mine", "--catalog"), ("mine", "--embeddings"), ("mine", "--splits"),
    ("stats", "--catalog"), ("dedup", "--catalog"),
]

# (command, output file flag, input file flag) for every such pair a command declares
OUTPUT_ON_INPUT = [(command, "--" + dest.replace("_", "-"), flag)
                   for command, flag in INPUT_FLAGS
                   for dest in command_parsers()[command].get_default("outputs").values()]


def input_argv(command, flag, path_of) -> list:
    """Flags giving ``command`` its required inputs and ``flag``, each file ``path_of(flag)``.

    For `eval` that is one embedding source, as its flag rule asks, and
    ``--splits`` on `eval` and `mine` comes with a ``--split``.
    """
    flags = {a.option_strings[0] for a in command_parsers()[command]._actions if a.required}
    flags.add(flag)
    if command == "eval":
        on_the_fly = flag in ("--model", "--features")
        flags |= {"--model", "--features"} if on_the_fly else {"--embeddings"}
    argv = [arg for f in sorted(flags) for arg in (f, path_of(f))]
    if "--splits" in flags and command in ("eval", "mine"):
        argv += ["--split", "test_ss"]
    return argv


@pytest.fixture(scope="module")
def art(tmp_path_factory):
    """One small end-to-end pipeline shared by the read-only assertions."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "catalog": root / "catalog.csv",
        "features": root / "features.emb",
        "splits": root / "splits.csv",
        "split_report": root / "report.json",
        "verify_report": root / "verify.report.json",
        "model": root / "model.toy1",
        "history": root / "history.csv",
        "metrics": root / "metrics.json",
        "metrics_hard": root / "metrics_hard.json",
        "pool": root / "pool.json",
        "stats": root / "stats.json",
    }
    assert run(
        "synth", "--out-catalog", paths["catalog"], "--out-features", paths["features"],
        "--chains", 8, "--branches-per-chain", 3, "--images-per-branch", 12,
        "--unknown-frac", 0.15, "--d-in", 12, "--seed", 1,
    ) == 0
    assert run(
        "split", "--catalog", paths["catalog"], "--out", paths["splits"],
        "--report", paths["split_report"], "--seed", 0,
    ) == 0
    assert run(
        "verify", "--catalog", paths["catalog"], "--splits", paths["splits"],
        "--report", paths["verify_report"], "--t2", 2,
    ) == 0
    assert run(
        "train", "--catalog", paths["catalog"], "--splits", paths["splits"],
        "--features", paths["features"], "--loss", "multisim", "--epochs", 1,
        "--d-out", 8, "--m", 4, "--k", 3, "--seed", 0,
        "--out", paths["model"], "--history", paths["history"],
    ) == 0
    assert run(
        "eval", "--catalog", paths["catalog"], "--model", paths["model"],
        "--features", paths["features"], "--splits", paths["splits"],
        "--split", "test_ss", "--repeats", 3, "--out", paths["metrics"],
    ) == 0
    assert run(
        "eval", "--catalog", paths["catalog"], "--embeddings", paths["features"],
        "--splits", paths["splits"], "--split", "test_ss", "--repeats", 3,
        "--reference", paths["features"], "--hard-k", 5,
        "--out", paths["metrics_hard"],
    ) == 0
    assert run(
        "mine", "--catalog", paths["catalog"], "--embeddings", paths["features"],
        "--k", 5, "--out", paths["pool"],
    ) == 0
    return paths


class TestPipeline:
    def test_synth_wrote_catalog_and_features(self, art):
        header = art["catalog"].read_text().splitlines()[0]
        assert header == "image_id,branch_id,chain_id,content_key"
        assert art["features"].read_bytes()[:4] == b"EMB1"
        assert (art["features"].parent / (art["features"].name + ".ids")).exists()

    def test_split_report_passed(self, art):
        payload = json.loads(art["split_report"].read_text())
        assert payload["passed"] is True
        assert {c["name"] for c in payload["checks"]} >= {"a_total_disjoint", "e_test_unk_exact"}
        assert set(payload["counts"]) == {
            "train", "val_ss", "val_su", "val_uu", "test_ss", "test_su", "test_uu", "test_unk",
        }

    def test_split_notes_each_empty_split_on_stderr(self, art, tmp_path, capsys):
        """Every branch of this corpus reaches t1, so the val stage may take
        no uu chain and no su branch; stdout keeps its lines."""
        assert run("split", "--catalog", art["catalog"], "--out", tmp_path / "s.csv",
                   "--report", tmp_path / "r.json") == 0
        out, err = capsys.readouterr()
        counts = json.loads((tmp_path / "r.json").read_text())["counts"]
        empty = [name for name in SPLIT_NAMES if not counts[name]["images"]]
        assert empty == ["val_su", "val_uu"]
        assert out.splitlines() == [f"{name}: {counts[name]['images']} images" for name in SPLIT_NAMES]
        assert err.splitlines() == [f"note: split {name} is empty" for name in empty]

    def test_verify_report_written(self, art):
        assert json.loads(art["verify_report"].read_text())["passed"] is True

    def test_train_artifacts(self, art):
        assert art["model"].read_bytes()[:4] == b"TOY1"
        lines = art["history"].read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_r_at_1,val_auc"
        assert len(lines) == 2  # one epoch

    def test_metrics_shape(self, art):
        payload = json.loads(art["metrics"].read_text())
        assert set(payload) == {"r_at_1", "auc", "auc_h", "skipped"}
        assert payload["auc_h"] is None
        assert 0.0 <= payload["r_at_1"] <= 1.0
        assert len(payload["auc"]["repeats"]) == 3
        assert payload["auc"]["std"] >= 0.0

    def test_metrics_hard_negative_block(self, art):
        payload = json.loads(art["metrics_hard"].read_text())
        assert payload["auc_h"] is not None
        assert set(payload["auc_h"]) == {"mean", "std", "repeats"}

    def test_mine_pool_payload(self, art):
        payload = json.loads(art["pool"].read_text())
        catalog_ids = {line.split(",")[0] for line in art["catalog"].read_text().splitlines()[1:]}
        assert set(payload) == catalog_ids
        for anchor, ids in payload.items():
            assert isinstance(ids, list) and len(ids) <= 5
            assert anchor not in ids

    def test_manifests_written(self, art):
        manifest = json.loads((art["splits"].parent / "splits.csv.manifest.json").read_text())
        assert manifest["command"] == "split"
        assert manifest["seed"] == 0
        assert manifest["inputs"] == {"catalog": str(art["catalog"])}
        assert manifest["outputs"]["splits"] == str(art["splits"])
        assert manifest["wall_time_s"] >= 0.0
        assert "--catalog" in manifest["argv"]
        for key in ("model", "metrics", "pool"):
            assert (art[key].parent / (art[key].name + ".manifest.json")).exists()

    def test_manifest_time_ignores_wall_clock_steps(self, art, tmp_path, monkeypatch):
        clock = iter(range(10**6, 0, -1000))  # a wall clock that only runs backwards
        monkeypatch.setattr(cli.time, "time", lambda: float(next(clock)))
        out = tmp_path / "splits.csv"
        assert run("split", "--catalog", art["catalog"], "--seed", 0, "--out", out,
                   "--report", tmp_path / "report.json") == 0
        manifest = json.loads((tmp_path / "splits.csv.manifest.json").read_text())
        assert manifest["wall_time_s"] >= 0.0

    def test_manifests_list_every_input_file(self, art, tmp_path):
        params = tmp_path / "loss.json"
        params.write_text('{"multisim_alpha": 2.5}')
        model = tmp_path / "model.toy1"
        assert run(
            "train", "--catalog", art["catalog"], "--splits", art["splits"],
            "--features", art["features"], "--loss-params", params, "--epochs", 1,
            "--d-out", 8, "--m", 4, "--k", 3, "--out", model, "--history", tmp_path / "h.csv",
        ) == 0
        pool = tmp_path / "pool.json"
        assert run(
            "mine", "--catalog", art["catalog"], "--embeddings", art["features"],
            "--splits", art["splits"], "--split", "test_ss", "--k", 3, "--out", pool,
        ) == 0
        train_inputs = json.loads((tmp_path / "model.toy1.manifest.json").read_text())["inputs"]
        assert train_inputs == {"catalog": str(art["catalog"]), "splits": str(art["splits"]),
                                "features": str(art["features"]), "loss_params": str(params)}
        mine_inputs = json.loads((tmp_path / "pool.json.manifest.json").read_text())["inputs"]
        assert mine_inputs == {"catalog": str(art["catalog"]),
                               "embeddings": str(art["features"]), "splits": str(art["splits"])}

    def test_stats_to_file(self, art):
        assert run("stats", "--catalog", art["catalog"], "--out", art["stats"]) == 0
        payload = json.loads(art["stats"].read_text())
        assert payload["images"] == 8 * 3 * 12
        assert payload["branches"] == 24
        assert payload["chains"] == 7  # one of eight chains is unknown

    def test_stats_to_stdout_skips_manifest(self, art, capsys):
        assert run("stats", "--catalog", art["catalog"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["images"] == 288
        assert not list(art["catalog"].parent.glob("*.csv.manifest.json.manifest.json"))

    def test_same_seed_pipeline_reproduces_bytes(self, art, tmp_path):
        cat2 = tmp_path / "catalog.csv"
        feat2 = tmp_path / "features.emb"
        splits2 = tmp_path / "splits.csv"
        assert run(
            "synth", "--out-catalog", cat2, "--out-features", feat2,
            "--chains", 8, "--branches-per-chain", 3, "--images-per-branch", 12,
            "--unknown-frac", 0.15, "--d-in", 12, "--seed", 1,
        ) == 0
        assert run(
            "split", "--catalog", cat2, "--out", splits2,
            "--report", tmp_path / "r.json", "--seed", 0,
        ) == 0
        assert cat2.read_bytes() == art["catalog"].read_bytes()
        assert feat2.read_bytes() == art["features"].read_bytes()
        assert splits2.read_bytes() == art["splits"].read_bytes()


class TestExitCodes:
    def test_missing_input_file(self, tmp_path, capsys):
        rc = run("split", "--catalog", tmp_path / "nope.csv", "--out", tmp_path / "s.csv")
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    def test_input_table_is_every_declared_input(self):
        declared = [(name, "--" + dest.replace("_", "-"))
                    for name, p in command_parsers().items() for dest in p.get_default("inputs")]
        assert declared == INPUT_FLAGS

    @pytest.mark.parametrize("command, flag", INPUT_FLAGS,
                             ids=[c + f for c, f in INPUT_FLAGS])
    def test_missing_input_fails_before_any_file_is_read(self, tmp_path, capsys, monkeypatch,
                                                          command, flag):
        monkeypatch.setattr(cli, "load_catalog", lambda *a: pytest.fail("read the catalog"))
        monkeypatch.chdir(tmp_path)  # default outputs land here, if any is written
        present, missing = tmp_path / "present", tmp_path / "missing"
        present.write_text("")
        argv = input_argv(command, flag, lambda f: missing if f == flag else present)
        assert run(command, *argv) == 2
        assert f"no such file: {missing}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [present]

    @pytest.mark.parametrize("command", ["split", "train"])
    def test_missing_output_directory_fails_before_any_work(self, art, tmp_path, capsys,
                                                            monkeypatch, command):
        monkeypatch.setattr(cli, "train", lambda *a: pytest.fail("trained"))
        nodir = tmp_path / "nodir"
        argv = {
            "split": ["--catalog", art["catalog"], "--out", tmp_path / "splits.csv",
                      "--report", nodir / "r.json"],
            "train": ["--catalog", art["catalog"], "--splits", art["splits"],
                      "--features", art["features"], "--epochs", 1, "--m", 4, "--k", 3,
                      "--d-out", 8, "--out", nodir / "m.toy1", "--history", tmp_path / "h.csv"],
        }[command]
        assert run(command, *argv) == 2
        assert f"no such directory: {nodir}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["split", "train"])
    def test_output_that_is_a_directory_fails_before_any_work(self, art, tmp_path, capsys,
                                                              monkeypatch, command):
        monkeypatch.setattr(cli, "train", lambda *a: pytest.fail("trained"))
        adir = tmp_path / "adir"
        adir.mkdir()
        argv = {
            "split": ["--catalog", art["catalog"], "--out", tmp_path / "splits.csv",
                      "--report", adir],
            "train": ["--catalog", art["catalog"], "--splits", art["splits"],
                      "--features", art["features"], "--epochs", 1, "--m", 4, "--k", 3,
                      "--d-out", 8, "--out", adir, "--history", tmp_path / "h.csv"],
        }[command]
        assert run(command, *argv) == 2
        assert f"usage error: {adir} is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [adir]
        assert list(adir.iterdir()) == []

    @pytest.mark.parametrize("command", ["split", "synth"])
    def test_two_outputs_on_one_file_fail_before_any_work(self, art, tmp_path, capsys,
                                                          monkeypatch, command):
        monkeypatch.setattr(cli, "load_catalog", lambda *a: pytest.fail("read the catalog"))
        monkeypatch.setattr(cli, "generate", lambda *a: pytest.fail("generated"))
        monkeypatch.chdir(tmp_path)  # a relative and an absolute spelling of one file
        same = tmp_path / "same.txt"
        argv, flags = {
            "split": (["--catalog", art["catalog"], "--out", "same.txt", "--report", same],
                      "--out and --report"),
            "synth": (["--out-catalog", "same.txt", "--out-features", same],
                      "--out-catalog and --out-features"),
        }[command]
        assert run(command, *argv) == 2
        assert f"usage error: {flags} name the same file: {same}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, out_flag, in_flag", OUTPUT_ON_INPUT,
                             ids=[c + o + i for c, o, i in OUTPUT_ON_INPUT])
    def test_output_on_an_input_fails_before_any_file_is_read(self, tmp_path, capsys,
                                                              monkeypatch, command, out_flag,
                                                              in_flag):
        for reader in ("load_catalog", "load_assignment", "read_embeddings", "load_model"):
            monkeypatch.setattr(cli, reader, lambda *a: pytest.fail("read a file"))
        monkeypatch.setattr(cli.LossParams, "from_json", lambda *a: pytest.fail("read a file"))
        monkeypatch.chdir(tmp_path)  # default outputs land here, if any is written
        argv = input_argv(command, in_flag, lambda f: tmp_path / f.lstrip("-"))
        files = [arg for arg in argv if isinstance(arg, Path)]
        for path in files:
            path.write_text(path.name)
        argv += [out_flag, in_flag.lstrip("-")]  # the input's file, spelled relatively
        assert run(command, *argv) == 2
        err = capsys.readouterr().err
        assert f"usage error: {in_flag} and {out_flag} name the same file: " in err
        assert sorted(tmp_path.iterdir()) == sorted(files)
        assert all(path.read_text() == path.name for path in files)

    @pytest.mark.parametrize("command, argv", [
        ("split", ["--catalog", "catalog.csv", "--out", "catalog.csv", "--report", "r.json"]),
        ("mine", ["--catalog", "catalog.csv", "--embeddings", "features.emb",
                  "--out", "features.emb"]),
        ("dedup", ["--catalog", "catalog.csv", "--out", "catalog.csv"]),
    ], ids=["split", "mine", "dedup"])
    def test_output_never_replaces_an_input(self, art, tmp_path, monkeypatch, command, argv):
        monkeypatch.chdir(tmp_path)
        for name in ("catalog.csv", "features.emb", "features.emb.ids"):
            (tmp_path / name).write_bytes((art["catalog"].parent / name).read_bytes())
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert run(command, *argv) == 2
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert run("stats", "--catalog", "catalog.csv") == 0

    @pytest.mark.parametrize("argv, names", [
        (["mine", "--catalog", "c.csv", "--embeddings", "f.emb", "--out", "f.emb.ids"],
         "the .ids file of --embeddings and --out"),
        (["eval", "--catalog", "c.csv", "--embeddings", "f.emb", "--out", "f.emb.ids"],
         "the .ids file of --embeddings and --out"),
        (["eval", "--catalog", "c.csv", "--model", "m.toy1", "--features", "f.emb",
          "--out", "f.emb.ids"], "the .ids file of --features and --out"),
        (["eval", "--catalog", "c.csv", "--embeddings", "e.emb", "--reference", "f.emb",
          "--out", "f.emb.ids"], "the .ids file of --reference and --out"),
        (["train", "--catalog", "c.csv", "--splits", "s.csv", "--features", "f.emb",
          "--history", "f.emb.ids"], "the .ids file of --features and --history"),
        (["synth", "--out-catalog", "f.emb.ids", "--out-features", "f.emb"],
         "--out-catalog and the .ids file of --out-features"),
        (["stats", "--catalog", "x.manifest.json", "--out", "x"],
         "--catalog and the manifest of --out"),
        (["dedup", "--catalog", "m.csv.manifest.json", "--out", "m.csv"],
         "--catalog and the manifest of --out"),
        (["split", "--catalog", "c.csv", "--out", "s.csv", "--report", "s.csv.manifest.json"],
         "the manifest of --out and --report"),
    ], ids=["mine", "eval_embeddings", "eval_features", "eval_reference", "train",
            "synth", "stats_manifest", "dedup_manifest", "split_manifest"])
    def test_output_on_a_file_beside_a_flag_fails_before_any_work(self, tmp_path, capsys,
                                                                  monkeypatch, argv, names):
        for reader in ("load_catalog", "load_assignment", "read_embeddings", "load_model",
                       "generate"):
            monkeypatch.setattr(cli, reader, lambda *a: pytest.fail("read or made a file"))
        monkeypatch.chdir(tmp_path)  # default outputs land here, if any is written
        declared = command_parsers()[argv[0]].get_default("inputs")
        for flag, name in zip(argv[1::2], argv[2::2]):
            if flag[2:].replace("-", "_") in declared:
                for path in (tmp_path / name, tmp_path / f"{name}.ids"):
                    path.write_text(path.name)  # an .ids file beside every input
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert run(*argv) == 2
        assert f"usage error: {names} name the same file: " in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_eval_without_embedding_source(self, art):
        assert run("eval", "--catalog", art["catalog"]) == 2

    @pytest.mark.parametrize("flags", [
        {"--model": "model"},
        {"--embeddings": "features", "--model": None},  # None: a file that does not exist
        {"--embeddings": "features", "--features": "features"},
        {"--features": "features"},
    ], ids=["model_only", "embeddings_and_missing_model", "embeddings_and_features",
            "features_only"])
    def test_eval_rejects_a_wrong_mix_of_input_flags(self, art, tmp_path, capsys, flags):
        argv = [arg for flag, key in flags.items()
                for arg in (flag, art[key] if key else tmp_path / "missing.toy1")]
        rc = run("eval", "--catalog", art["catalog"], *argv, "--out", tmp_path / "m.json")
        assert rc == 2
        assert "eval needs either --embeddings or --model with --features" in (
            capsys.readouterr().err)
        assert not (tmp_path / "m.json").exists()

    def test_eval_split_without_splits(self, art):
        assert run(
            "eval", "--catalog", art["catalog"], "--embeddings", art["features"],
            "--split", "test_ss",
        ) == 2

    def test_mine_splits_without_split(self, art, tmp_path):
        assert run(
            "mine", "--catalog", art["catalog"], "--embeddings", art["features"],
            "--splits", art["splits"], "--out", tmp_path / "p.json",
        ) == 2

    def test_empty_split_is_domain_error(self, tmp_path, capsys):
        cat, feats, splits = tmp_path / "c.csv", tmp_path / "f.emb", tmp_path / "s.csv"
        assert run("synth", "--out-catalog", cat, "--out-features", feats, "--chains", 4,
                   "--branches-per-chain", 2, "--images-per-branch", 4,
                   "--unknown-frac", 0) == 0
        assert run("split", "--catalog", cat, "--out", splits, "--report", tmp_path / "r.json",
                   "--t1", 10, "--t2", 2) == 0
        capsys.readouterr()
        for argv in (("eval", "--out", tmp_path / "m.json"),
                     ("mine", "--out", tmp_path / "p.json")):
            rc = run(*argv, "--catalog", cat, "--embeddings", feats, "--splits", splits,
                     "--split", "test_ss")
            assert rc == 1, argv[0]
            assert "split 'test_ss' is empty" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

    def test_domain_error_is_one(self, tmp_path, capsys):
        catalog = tmp_path / "one-chain.csv"
        rows = ["image_id,branch_id,chain_id"] + [f"i{j},b{j % 2},c0" for j in range(8)]
        catalog.write_text("\n".join(rows) + "\n")
        rc = run("split", "--catalog", catalog, "--out", tmp_path / "s.csv",
                 "--report", tmp_path / "r.json")
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval", "mine"])
    def test_splits_that_fail_verification_are_refused(self, art, tmp_path, capsys,
                                                        monkeypatch, command):
        """Half of every test_su branch leaks into train: no command reads a feature."""
        from splitmetric.catalog import load_catalog
        from splitmetric.splitgen import load_assignment, save_assignment

        for reader in ("read_embeddings", "load_model"):
            monkeypatch.setattr(cli, reader, lambda *a: pytest.fail("read features"))
        assignment = load_assignment(art["splits"])
        branch_of = load_catalog(art["catalog"]).branch_of()
        su = assignment.images_of("test_su")
        for branch in {branch_of[image] for image in su}:
            images = [image for image in su if branch_of[image] == branch]
            assignment.assignment.update(dict.fromkeys(images[: len(images) // 2], "train"))
        leaked = tmp_path / "leaked.csv"
        save_assignment(assignment, leaked)
        monkeypatch.chdir(tmp_path)  # default outputs land here, if any is written
        argv = {
            "train": ["--features", art["features"], "--epochs", 1, "--m", 4, "--k", 3,
                      "--d-out", 8],
            "eval": ["--embeddings", art["features"], "--split", "test_su", "--repeats", 1],
            "mine": ["--embeddings", art["features"], "--split", "test_su"],
        }[command]
        assert run(command, "--catalog", art["catalog"], "--splits", leaked, *argv) == 1
        assert (f"error: {leaked} failed verification: c_test_su_isolation"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [leaked]

    def test_val_ss_without_a_pair_is_refused_before_training(self, art, tmp_path, capsys,
                                                              monkeypatch):
        """One val_ss image per branch (the rest moved to train) passes verification,
        but leaves model selection nothing to rank: exit 1, nothing written."""
        from splitmetric import trainer
        from splitmetric.catalog import load_catalog
        from splitmetric.splitgen import load_assignment, save_assignment

        monkeypatch.setattr(trainer, "_step", lambda *a: pytest.fail("a step ran"))
        assignment = load_assignment(art["splits"])
        branch_of = load_catalog(art["catalog"]).branch_of()
        val = assignment.images_of("val_ss")
        kept = {branch_of[image]: image for image in reversed(val)}.values()
        assignment.assignment.update(dict.fromkeys(set(val) - set(kept), "train"))
        singles = tmp_path / "singles.csv"
        save_assignment(assignment, singles)
        monkeypatch.chdir(tmp_path)  # default outputs land here, if any is written
        assert run("train", "--catalog", art["catalog"], "--splits", singles,
                   "--features", art["features"], "--epochs", 1, "--m", 4, "--k", 3,
                   "--d-out", 8) == 1
        assert "error: every val_ss branch is a singleton" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [singles]

    @pytest.mark.parametrize("t2", ["0", "-3"])
    def test_verify_t2_below_one_is_a_usage_error(self, art, tmp_path, capsys, t2):
        rc = run("verify", "--catalog", art["catalog"], "--splits", art["splits"],
                 "--t2", t2, "--report", tmp_path / "r.json")
        assert rc == 2
        assert f"usage error: --t2 must be >= 1, got {t2}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_loss_params_file(self, art, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text('{"mystery_dial": 3}')
        rc = run(
            "train", "--catalog", art["catalog"], "--splits", art["splits"],
            "--features", art["features"], "--loss-params", params,
            "--epochs", 1, "--m", 4, "--k", 3, "--d-out", 8,
            "--out", tmp_path / "m.toy1", "--history", tmp_path / "h.csv",
        )
        assert rc == 1
        assert "mystery_dial" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["json", "json_bytes", "catalog_bytes", "catalog_cell",
                                      "ids_bytes", "splits_bytes", "catalog_duplicate_id",
                                      "catalog_two_chains", "json_negative_tau", "json_list",
                                      "json_unknown_key"])
    def test_a_file_that_does_not_decode_is_a_domain_error(self, art, tmp_path, capsys,
                                                           monkeypatch, case):
        """A file that is not valid UTF-8, CSV or JSON, or whose catalog or loss
        parameters are refused, exits 1 naming the file, and nothing is written."""
        inputs, outputs = tmp_path / "in", tmp_path / "out"
        inputs.mkdir()
        outputs.mkdir()
        catalog, splits, features = (inputs / art[k].name for k in ("catalog", "splits", "features"))
        params, ids = inputs / "p.json", Path(f"{features}.ids")
        for path, source in ((catalog, art["catalog"]), (splits, art["splits"]),
                             (features, art["features"]), (ids, Path(f"{art['features']}.ids"))):
            path.write_bytes(source.read_bytes())
        params.write_text("{}")
        first = catalog.read_bytes().split(b"\r\n")[1]  # image_id,branch_id,chain_id,key
        other_chain = b"zz," + first.split(b",")[1] + b",c_other,\r\n"
        bad, payload = {
            "json": (params, b"{"),
            "json_bytes": (params, b'{"supcon_tau": 0.\xff}'),
            "catalog_bytes": (catalog, catalog.read_bytes() + b"i\xff,b0,c0,\r\n"),
            "catalog_cell": (catalog, catalog.read_bytes() + b"i,b0,c0," + b"k" * 200_000 + b"\r\n"),
            "ids_bytes": (ids, b"\xff" + ids.read_bytes()),
            "splits_bytes": (splits, splits.read_bytes() + b"i\xff,train\r\n"),
            "catalog_duplicate_id": (catalog, catalog.read_bytes() + first + b"\r\n"),
            "catalog_two_chains": (catalog, catalog.read_bytes() + other_chain),
            "json_negative_tau": (params, b'{"supcon_tau": -1}'),
            "json_list": (params, b"[1]"),
            "json_unknown_key": (params, b'{"mystery_dial": 3}'),
        }[case]
        bad.write_bytes(payload)
        argv = {
            params: ["train", "--catalog", catalog, "--splits", splits, "--features", features,
                     "--loss-params", params, "--epochs", 1, "--m", 4, "--k", 3, "--d-out", 8],
            catalog: ["split", "--catalog", catalog],
            ids: ["mine", "--catalog", catalog, "--embeddings", features],
            splits: ["verify", "--catalog", catalog, "--splits", splits],
        }[bad]
        monkeypatch.chdir(outputs)  # default outputs land here, if any is written
        assert run(*argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}:")
        assert list(outputs.iterdir()) == []

    @pytest.mark.parametrize("case", ["emb1_nan", "toy1_d_out_1"])
    def test_a_well_framed_file_with_bad_values_is_a_domain_error(self, art, tmp_path, capsys,
                                                                  monkeypatch, case):
        """An EMB1 or TOY1 file whose frame is sound but whose values are not
        exits 1 naming the file, and nothing is written."""
        outputs = tmp_path / "out"
        outputs.mkdir()
        if case == "emb1_nan":
            bad = tmp_path / "bad.emb"
            write_frame(bad, b"EMB1", 2, 2, np.array([[np.nan, 0.0], [1.0, 1.0]]))
            Path(f"{bad}.ids").write_text("a\nb\n")
            argv = ["mine", "--catalog", art["catalog"], "--embeddings", bad]
        else:
            bad = tmp_path / "bad.toy1"
            write_frame(bad, b"TOY1", 12, 1, np.ones((1, 12)), np.zeros(1))
            argv = ["eval", "--catalog", art["catalog"], "--model", bad,
                    "--features", art["features"]]
        monkeypatch.chdir(outputs)  # default outputs land here, if any is written
        assert run(*argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert list(outputs.iterdir()) == []

    @pytest.mark.parametrize("case", ["train --features", "eval --features",
                                      "eval --embeddings", "eval --reference",
                                      "mine --embeddings"])
    def test_a_matrix_without_an_id_of_the_split_names_its_file(self, art, tmp_path, capsys,
                                                                 monkeypatch, case):
        """A matrix that lacks one id that the command needs exits 1 naming
        the file of the flag that gave it, and nothing is written."""
        from splitmetric.embedstore import read_embeddings, write_embeddings
        from splitmetric.splitgen import load_assignment

        split = "train" if case.startswith("train") else "test_ss"
        dropped = sorted(load_assignment(art["splits"]).images_of(split))[3]
        features = read_embeddings(art["features"])
        short = tmp_path / "short.emb"
        write_embeddings(features.subset([i for i in features.ids if i != dropped]), short)
        argv = {
            "train --features": ["train", "--features", short, "--epochs", 1, "--m", 4,
                                 "--k", 3, "--d-out", 8],
            "eval --features": ["eval", "--model", art["model"], "--features", short],
            "eval --embeddings": ["eval", "--embeddings", short],
            "eval --reference": ["eval", "--embeddings", art["features"], "--reference", short],
            "mine --embeddings": ["mine", "--embeddings", short],
        }[case] + ([] if split == "train" else ["--split", split])
        outputs = tmp_path / "out"
        outputs.mkdir()
        monkeypatch.chdir(outputs)  # default outputs land here, if any is written
        assert run(*argv, "--catalog", art["catalog"], "--splits", art["splits"]) == 1
        assert capsys.readouterr().err == f"error: {short}: ids not in matrix: {[dropped]!r}\n"
        assert list(outputs.iterdir()) == []

    @pytest.mark.parametrize("case", ["eval --embeddings", "eval --reference",
                                      "mine --embeddings"])
    def test_a_matrix_with_an_id_the_catalog_lacks_names_both_files(self, art, tmp_path,
                                                                    capsys, monkeypatch, case):
        """Without ``--split``, a matrix that holds an id the catalog lacks exits 1
        before any search, naming the EMB1 file and the catalog, and nothing is written."""
        from splitmetric.embedstore import EmbeddingMatrix, read_embeddings, write_embeddings

        features = read_embeddings(art["features"])
        extra = tmp_path / "extra.emb"
        write_embeddings(EmbeddingMatrix(features.ids + ("stray",),
                                         np.vstack([features.data, features.data[:1]])), extra)
        argv = {
            "eval --embeddings": ["eval", "--embeddings", extra],
            "eval --reference": ["eval", "--embeddings", extra, "--reference", extra],
            "mine --embeddings": ["mine", "--embeddings", extra],
        }[case]
        outputs = tmp_path / "out"
        outputs.mkdir()
        monkeypatch.chdir(outputs)  # default outputs land here, if any is written
        assert run(*argv, "--catalog", art["catalog"]) == 1
        assert capsys.readouterr().err == (
            f"error: {extra}: ids not in catalog {art['catalog']}: ['stray']\n")
        assert list(outputs.iterdir()) == []

    @pytest.mark.parametrize("case", ["eval --embeddings", "eval --reference",
                                      "mine --embeddings"])
    def test_a_searched_zero_row_names_the_file_and_the_image(self, art, tmp_path, capsys,
                                                              monkeypatch, case):
        """An all-zero row in a matrix that is searched as it is exits 1 before any
        search, naming the EMB1 file and the row's image, and nothing is written."""
        from splitmetric.embedstore import EmbeddingMatrix, read_embeddings, write_embeddings

        features = read_embeddings(art["features"])
        order = np.random.default_rng(5).permutation(features.n)  # file rows not in id order
        data = features.data[order]
        data[5] = 0.0
        zeroed = tmp_path / "zeroed.emb"
        write_embeddings(EmbeddingMatrix(tuple(np.array(features.ids)[order]), data), zeroed)
        argv = {
            "eval --embeddings": ["eval", "--embeddings", zeroed],
            "eval --reference": ["eval", "--embeddings", art["features"], "--reference", zeroed],
            "mine --embeddings": ["mine", "--embeddings", zeroed],
        }[case]
        outputs = tmp_path / "out"
        outputs.mkdir()
        monkeypatch.chdir(outputs)  # default outputs land here, if any is written
        assert run(*argv, "--catalog", art["catalog"]) == 1
        image = features.ids[order[5]]
        assert capsys.readouterr().err == (
            f"error: {zeroed}: image {image!r} has a zero row, which has no direction\n")
        assert list(outputs.iterdir()) == []

    @pytest.mark.parametrize("case", ["eval --embeddings", "eval --reference",
                                      "mine --embeddings", "eval --features"])
    def test_a_zero_row_that_is_not_searched_as_it_is_passes(self, art, tmp_path, case):
        """A zero row outside ``--split`` is never read, and a zero ``--features``
        row under ``--model`` is layernormed to the head's bias first."""
        from splitmetric.embedstore import EmbeddingMatrix, read_embeddings, write_embeddings
        from splitmetric.splitgen import load_assignment

        features = read_embeddings(art["features"])
        split = set(load_assignment(art["splits"]).images_of("test_ss"))
        data = features.data.copy()
        inside = case == "eval --features"
        data[next(r for r, i in enumerate(features.ids) if (i in split) == inside)] = 0.0
        zeroed = tmp_path / "zeroed.emb"
        write_embeddings(EmbeddingMatrix(features.ids, data), zeroed)
        argv = {
            "eval --embeddings": ["eval", "--embeddings", zeroed],
            "eval --reference": ["eval", "--embeddings", art["features"], "--reference", zeroed],
            "mine --embeddings": ["mine", "--embeddings", zeroed],
            "eval --features": ["eval", "--model", art["model"], "--features", zeroed],
        }[case]
        assert run(*argv, "--catalog", art["catalog"], "--splits", art["splits"],
                   "--split", "test_ss", "--out", tmp_path / "out.json") == 0

    def test_model_and_features_of_other_widths_name_both_files(self, art, tmp_path, capsys):
        from splitmetric.embedstore import EmbeddingMatrix, read_embeddings, write_embeddings

        features = read_embeddings(art["features"])
        narrow = tmp_path / "narrow.emb"
        write_embeddings(EmbeddingMatrix(features.ids, features.data[:, :8]), narrow)
        out = tmp_path / "metrics.json"
        assert run("eval", "--catalog", art["catalog"], "--model", art["model"],
                   "--features", narrow, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {art['model']}: the model takes {features.d}-d features, "
            f"but {narrow} holds 8-d rows\n")
        assert not out.exists()

    @pytest.mark.parametrize("payload", [
        '{"supcon_tau": "0.1"}', '{"triplet_margin": NaN}', '{"supcon_tau": true}',
        '{"softtriple_centers": 2.5}', '{"circle_gamma": Infinity}', '5',
    ])
    def test_loss_params_that_are_not_finite_numbers(self, art, tmp_path, capsys, payload):
        params = tmp_path / "p.json"
        params.write_text(payload)
        rc = run(
            "train", "--catalog", art["catalog"], "--splits", art["splits"],
            "--features", art["features"], "--loss-params", params,
            "--epochs", 1, "--m", 4, "--k", 3, "--d-out", 8,
            "--out", tmp_path / "m.toy1", "--history", tmp_path / "h.csv",
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "m.toy1").exists()

    def test_loss_param_beyond_int64_is_a_domain_error(self, art, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text('{"softtriple_centers": 100000000000000000000000}')
        rc = run(
            "train", "--catalog", art["catalog"], "--splits", art["splits"],
            "--features", art["features"], "--loss", "softtriple", "--loss-params", params,
            "--epochs", 1, "--m", 4, "--k", 3, "--d-out", 8,
            "--out", tmp_path / "m.toy1", "--history", tmp_path / "h.csv",
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {params}: softtriple_centers ")
        assert not (tmp_path / "m.toy1").exists()

    def test_loss_param_too_large_for_a_float_is_a_domain_error(self, art, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text('{"triplet_margin": 1%s}' % ("0" * 400))
        rc = run(
            "train", "--catalog", art["catalog"], "--splits", art["splits"],
            "--features", art["features"], "--loss", "triplet", "--loss-params", params,
            "--epochs", 1, "--m", 4, "--k", 3, "--d-out", 8,
            "--out", tmp_path / "m.toy1", "--history", tmp_path / "h.csv",
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {params}: triplet_margin must be a finite float")
        assert not (tmp_path / "m.toy1").exists()

    def test_d_out_beyond_int64_is_a_domain_error(self, art, tmp_path, capsys):
        rc = run(
            "train", "--catalog", art["catalog"], "--splits", art["splits"],
            "--features", art["features"], "--epochs", 1, "--m", 4, "--k", 3,
            "--d-out", 10**23, "--out", tmp_path / "m.toy1", "--history", tmp_path / "h.csv",
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: d_out must fit in int64")
        assert not (tmp_path / "m.toy1").exists()

    def test_negative_synth_seed_is_masked(self, tmp_path):
        small = ("--chains", 3, "--branches-per-chain", 2, "--images-per-branch", 3)
        for seed in ("-1", "18446744073709551615"):
            assert run("synth", "--out-catalog", tmp_path / f"c{seed}.csv",
                       "--out-features", tmp_path / f"f{seed}.emb", *small, "--seed", seed) == 0
        for name in ("c{}.csv", "f{}.emb"):
            assert ((tmp_path / name.format("-1")).read_bytes()
                    == (tmp_path / name.format("18446744073709551615")).read_bytes())

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_is_rejected_before_training(self, art, tmp_path, capsys, lr):
        rc = run(
            "train", "--catalog", art["catalog"], "--splits", art["splits"],
            "--features", art["features"], "--lr", lr,
            "--epochs", 1, "--m", 4, "--k", 3, "--d-out", 8,
            "--out", tmp_path / "m.toy1", "--history", tmp_path / "h.csv",
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: lr ")
        assert not (tmp_path / "m.toy1").exists()

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--frobnicate")
        assert exc.value.code == 2

    def test_no_command_prints_help(self, capsys):
        assert run() == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0

    def test_loss_choices_are_the_loss_table(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        loss = next(a for a in sub.choices["train"]._actions if a.dest == "loss")
        assert tuple(loss.choices) == LOSS_KINDS


# every flag of every command, flag -> (type, default, choices, help); the
# config dataclasses must keep giving the config flags exactly these
FLAG_TABLE = {
    "synth": {
        "--out-catalog": (None, "catalog.csv", None, None),
        "--out-features": (None, "features.emb", None, None),
        "--chains": (int, 40, None, None),
        "--branches-per-chain": (int, 8, None, None),
        "--images-per-branch": (int, 20, None, None),
        "--unknown-frac": (float, 0.15, None, None),
        "--d-in": (int, 48, None, None),
        "--seed": (int, 0, None, None),
    },
    "split": {
        "--catalog": (None, None, None, None),
        "--out": (None, "splits.csv", None, None),
        "--report": (None, "report.json", None, None),
        "--seed": (int, 0, None, None),
        "--uu-frac": (float, 0.15, None, None),
        "--su-frac": (float, 0.15, None, None),
        "--t1": (int, 10, None, None),
        "--t2": (int, 2, None, None),
        "--ss-divisor": (int, 5, None, None),
    },
    "verify": {
        "--catalog": (None, None, None, None),
        "--splits": (None, None, None, None),
        "--report": (None, "verify.report.json", None, None),
        "--t2": (int, None, None, "minimum eval-split size per ss branch (default 1)"),
    },
    "train": {
        "--catalog": (None, None, None, None),
        "--splits": (None, None, None, None),
        "--features": (None, None, None, None),
        "--loss-params": (None, None, None, "JSON file of loss constants"),
        "--out": (None, "model.toy1", None, None),
        "--history": (None, "history.csv", None, None),
        "--loss": (None, "multisim", LOSS_KINDS, None),
        "--lr": (float, 0.05, None, None),
        "--momentum": (float, 0.9, None, None),
        "--epochs": (int, 10, None, None),
        "--seed": (int, 0, None, None),
        "--m": (int, 8, None, None),
        "--k": (int, 4, None, None),
        "--d-out": (int, 2, None, None),
    },
    "eval": {
        "--threads": (int, 1, None, "k-NN worker threads"),
        "--catalog": (None, None, None, None),
        "--embeddings": (None, None, None, "precomputed EMB1 matrix"),
        "--model": (None, None, None, "TOY1 checkpoint (with --features)"),
        "--features": (None, None, None, None),
        "--splits": (None, None, None, None),
        "--reference": (None, None, None, "reference EMB1 matrix for hard-negative pools"),
        "--out": (None, "metrics.json", None, None),
        "--split": (None, None, SPLIT_NAMES, None),
        "--repeats": (int, 10, None, None),
        "--seed": (int, 0, None, None),
        "--hard-k": (int, 10, None, None),
    },
    "mine": {
        "--threads": (int, 1, None, "k-NN worker threads"),
        "--catalog": (None, None, None, None),
        "--embeddings": (None, None, None, None),
        "--splits": (None, None, None, None),
        "--out": (None, "pool.json", None, None),
        "--split": (None, None, SPLIT_NAMES, None),
        "--k": (int, 10, None, None),
    },
    "stats": {
        "--catalog": (None, None, None, None),
        "--out": (None, None, None, None),
    },
    "dedup": {
        "--catalog": (None, None, None, None),
        "--out": (None, "merged.csv", None, None),
        "--report": (None, "dedup.report.json", None, None),
    },
}

# command -> (its default config, the flags it requires)
CONFIGS = {
    "synth": (SynthConfig(), []),
    "split": (SplitConfig(), ["--catalog", "c.csv"]),
    "train": (TrainConfig(), ["--catalog", "c.csv", "--splits", "s.csv", "--features", "f.emb"]),
    "eval": (EvalOptions(), ["--catalog", "c.csv"]),
}


def parsed(command, *argv):
    return build_parser().parse_args([command, *map(str, argv)])


class TestConfigFlags:
    def test_flags_are_the_frozen_table(self):
        got = {name: {a.option_strings[0]: (a.type, a.default, a.choices, a.help)
                      for a in p._actions if not isinstance(a, argparse._HelpAction)}
               for name, p in command_parsers().items()}
        assert got == FLAG_TABLE

    @pytest.mark.parametrize("command", CONFIGS)
    def test_no_config_flag_gives_the_default_config(self, command):
        config, required = CONFIGS[command]
        assert cli._config(parsed(command, *required)) == config

    def test_synth_defaults_are_the_standard_corpus(self):
        assert cli._config(parsed("synth")) == standard_corpus_config()

    @pytest.mark.parametrize("command", CONFIGS)
    def test_every_number_field_has_one_flag(self, command):
        config, _ = CONFIGS[command]
        actions = command_parsers()[command]._actions
        for f in fields(config):
            if f.type not in ("int", "float"):
                continue
            dest = cli.FLAG_DESTS.get(f.name, f.name)
            flags = [a for a in actions if a.dest == dest]
            assert len(flags) == 1, f.name
            assert (flags[0].type.__name__, flags[0].default) == (f.type, getattr(config, f.name))

    @pytest.mark.parametrize("command, argv, field, value", [
        ("synth", ["--chains", 7], "n_chains", 7),
        ("synth", ["--unknown-frac", 0.3], "unknown_chain_fraction", 0.3),
        ("split", ["--catalog", "c.csv", "--uu-frac", 0.2], "uu_chain_fraction", 0.2),
        ("split", ["--catalog", "c.csv", "--su-frac", 0.25], "su_branch_fraction", 0.25),
        ("train", CONFIGS["train"][1] + ["--loss", "triplet"], "loss", "triplet"),
        ("eval", ["--catalog", "c.csv", "--threads", 2], "threads", 2),
    ])
    def test_a_flag_sets_its_field(self, command, argv, field, value):
        default, _ = CONFIGS[command]
        assert cli._config(parsed(command, *argv)) == replace(default, **{field: value})

    def test_default_train_has_a_nonzero_first_epoch_loss(self, tmp_path, monkeypatch):
        """At ``d_out`` 512 the default multisim run mined no pair: epoch 1's loss was 0."""
        monkeypatch.chdir(tmp_path)
        assert run("synth") == 0
        assert run("split", "--catalog", "catalog.csv") == 0
        assert run("train", "--catalog", "catalog.csv", "--splits", "splits.csv",
                   "--features", "features.emb") == 0
        first = Path("history.csv").read_text().splitlines()[1].split(",")
        assert first[0] == "1" and float(first[1]) > 0.0

    @pytest.mark.parametrize("argv", [
        ["synth", "--chains", "x"], ["split", "--catalog", "c.csv", "--t1", "1.5"],
        ["train", *CONFIGS["train"][1], "--loss", "nope"], ["eval", "--catalog", "c.csv", "--repeats", "x"],
    ])
    def test_a_bad_config_flag_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestThreadsEnv:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_count_below_one_rejected(self, art, tmp_path, capsys, threads):
        rc = run("eval", "--catalog", art["catalog"], "--embeddings", art["features"],
                 "--repeats", 1, "--threads", threads, "--out", tmp_path / "m.json")
        assert rc == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_threads_only_on_knn_commands(self, art, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("train", "--catalog", art["catalog"], "--splits", art["splits"],
                "--features", art["features"], "--threads", 2,
                "--out", tmp_path / "m.toy1", "--history", tmp_path / "h.csv")
        assert exc.value.code == 2
        assert run(
            "eval", "--catalog", art["catalog"], "--embeddings", art["features"],
            "--repeats", 1, "--threads", 2, "--out", tmp_path / "m.json",
        ) == 0
        assert run(
            "mine", "--catalog", art["catalog"], "--embeddings", art["features"],
            "--k", 3, "--threads", 2, "--out", tmp_path / "p.json",
        ) == 0


class TestEvalEquivalence:
    def test_model_eval_matches_library_forward(self, art, tmp_path):
        """CLI model+features path == loading the checkpoint and projecting."""
        from splitmetric.catalog import load_catalog
        from splitmetric.embedstore import EmbeddingMatrix, read_embeddings
        from splitmetric.linkeval import EvalOptions, LinkOracle, evaluate
        from splitmetric.splitgen import load_assignment
        from splitmetric.trainer import forward, load_model

        catalog = load_catalog(art["catalog"])
        assignment = load_assignment(art["splits"])
        feats = read_embeddings(art["features"])
        model = load_model(art["model"])
        ids = sorted(assignment.images_of("test_ss"))
        rows = forward(model, feats.data.astype(np.float64))
        emb = EmbeddingMatrix(feats.ids, rows.astype(np.float32), normalized=True).subset(ids)
        want = evaluate(emb, LinkOracle.from_catalog(catalog), EvalOptions(repeats=3, seed=0))
        got = json.loads(art["metrics"].read_text())
        assert got["r_at_1"] == pytest.approx(want.r_at_1, abs=1e-12)
        assert got["auc"]["mean"] == pytest.approx(want.auc_mean, abs=1e-12)


# The README walkthrough on an 800-image corpus: `mine` takes its queries in
# two 512-row k-NN blocks.  "{threads}" is the run's --threads.
WALKTHROUGH = [
    ["synth", "--chains", "10", "--branches-per-chain", "4", "--images-per-branch", "20",
     "--d-in", "12", "--seed", "0", "--out-catalog", "catalog.csv", "--out-features",
     "features.emb"],
    ["split", "--catalog", "catalog.csv", "--seed", "0", "--out", "splits.csv",
     "--report", "split_report.json"],
    ["verify", "--catalog", "catalog.csv", "--splits", "splits.csv"],
    ["train", "--catalog", "catalog.csv", "--splits", "splits.csv", "--features",
     "features.emb", "--loss", "multisim", "--epochs", "3", "--lr", "0.2", "--d-out", "8",
     "--out", "model.toy1"],
    ["eval", "--catalog", "catalog.csv", "--model", "model.toy1", "--features", "features.emb",
     "--splits", "splits.csv", "--split", "test_ss", "--reference", "features.emb",
     "--hard-k", "10", "--out", "metrics.json", "--threads", "{threads}"],
    ["mine", "--catalog", "catalog.csv", "--embeddings", "features.emb", "--k", "10",
     "--out", "pools.json", "--threads", "{threads}"],
    ["dedup", "--catalog", "catalog.csv", "--out", "deduped.csv", "--report",
     "dedup_report.json"],
    ["stats", "--catalog", "catalog.csv", "--out", "stats.json"],
]


# runs each command line of its JSON argument through `main`, in order
RUN_COMMANDS = """import json, sys
from splitmetric.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


class TestThreadCountIndependence:
    @staticmethod
    def walkthrough(root: Path, threads: int) -> str:
        """The walkthrough's stdout, from one process; every file lands in ``root``."""
        root.mkdir()
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argvs = [[arg.replace("{threads}", str(threads)) for arg in argv] for argv in WALKTHROUGH]
        done = subprocess.run([sys.executable, "-c", RUN_COMMANDS, json.dumps(argvs)], cwd=root,
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_walkthrough_outputs_do_not_depend_on_threads(self, tmp_path):
        """One BLAS and k-NN thread against two: the same bytes in every file.

        A manifest is compared without its ``wall_time_s`` and with the value
        of ``--threads`` in its argv left out.
        """
        many = min(2, os.cpu_count() or 1)
        one, two = tmp_path / "one", tmp_path / "two"
        assert self.walkthrough(one, 1) == self.walkthrough(two, many)
        names = sorted(p.name for p in one.iterdir())
        assert names == sorted(p.name for p in two.iterdir())
        assert len(names) == 21  # 12 outputs, the .ids of features.emb and 8 manifests
        for name in names:
            a, b = (one / name).read_bytes(), (two / name).read_bytes()
            if name.endswith(".manifest.json"):
                a, b = json.loads(a), json.loads(b)
                for manifest in (a, b):
                    del manifest["wall_time_s"]
                    argv = manifest["argv"]
                    if "--threads" in argv:
                        del argv[argv.index("--threads") + 1]
            assert a == b, name
