"""Self-tests for the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench

Inputs must repeat exactly from a seed, a planted wrong answer must count as
a failed operation, and per-layer figures must not grow with the number of
traced passes.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads
from splitmetric import catalog, linkeval, losses

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_from_seed(name, tmp_path):
    make = workloads.WORKLOADS[name]
    digests = []
    for seed in (3, 3, 4):
        workload = make(seed, tmp_path)
        workload.make_inputs(0)
        digests.append(workload.inputs_digest())
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def _gate_pool():
    cat, features, assignment = workloads._corpus(0)
    oracle = linkeval.LinkOracle.from_catalog(cat)
    reference = features.subset(sorted(assignment.images_of("test_ss")))
    pool = linkeval.mine_hard_negatives(reference, oracle, k=workloads.HARD_K)
    return reference, oracle, pool


def test_swapped_pool_entry_is_a_failed_operation():
    reference, oracle, pool = _gate_pool()
    anchors = sorted(reference.ids)[:40]
    clean = workloads.Tally()
    workloads._check_pools(reference, oracle, pool, anchors, clean.op(), clean, "clean")
    assert clean.attempted == 1 and not clean.failed

    anchor = anchors[7]
    first, second, *rest = pool.negatives[anchor]
    planted = dict(pool.negatives)
    planted[anchor] = (second, first, *rest)
    tally = workloads.Tally()
    workloads._check_pools(reference, oracle, linkeval.HardNegPool(planted, pool.k), anchors,
                           tally.op(), tally, "planted")
    assert tally.failed == {0}


def test_flipped_byte_in_resaved_catalog_is_a_failed_operation(tmp_path, monkeypatch):
    workload = workloads.CliPipeline(0, tmp_path)
    workload.make_inputs(0)
    tally = workloads.Tally()
    p = workload.run_pass(tally)
    workload.check_pass(p, tally)
    assert tally.attempted == len(workload.argv) and not tally.failed, tally.notes

    save = catalog.save_catalog

    def flipping_save(cat, path):
        save(cat, path)
        blob = bytearray(Path(path).read_bytes())
        blob[len(blob) // 2] ^= 0x01
        Path(path).write_bytes(bytes(blob))

    monkeypatch.setattr(catalog, "save_catalog", flipping_save)
    planted = workloads.Tally()
    p = workload.run_pass(planted)
    workload.check_pass(p, planted)
    assert len(planted.failed) == 1
    assert any("re-save byte for byte" in note for note in planted.notes)


def test_wrong_loss_gradient_is_a_failed_operation(tmp_path):
    workload = workloads.LossKernels(0, tmp_path)
    workload.make_inputs(0)
    tally = workloads.Tally()
    p = workload.run_pass(tally)
    op, result = p.outputs["results"][2]
    wrong = losses.LossResult(result.value, -result.grad_embeddings, result.grad_aux)
    p.outputs["results"][2] = (op, wrong)
    workload.check_pass(p, tally)
    assert op in tally.failed
    assert any("directional gradient error" in note for note in tally.notes)


def test_changed_output_in_a_later_sweep_is_a_failed_operation(tmp_path):
    workload = workloads.LossKernels(0, tmp_path)
    workload.make_inputs(0)
    tally = workloads.Tally()
    p = workload.run_pass(tally)
    op, result = p.outputs["results"][-1]
    p.outputs["results"][-1] = (op, losses.LossResult(result.value * (1 + 1e-12),
                                                      result.grad_embeddings, result.grad_aux))
    workload.check_pass(p, tally)
    assert tally.failed == {op}


def test_per_layer_figures_are_per_round_and_per_build(tmp_path):
    workload = workloads.LossKernels(0, tmp_path)
    tracer = spans.Tracer()
    with tracer.installed(tracer.BUILD):
        workload.make_inputs(0)
    calls = []
    for _ in range(2):
        with tracer.installed() as segment:
            p = workload.run_pass(workloads.Tally())
        segment.group = p.group
        metrics = spans.per_layer_metrics(tracer, 0.0, 1.0)
        calls.append(metrics["losses.triplet.calls"]["value"])
    assert calls == [len(workloads.LOSS_SHAPES) * workloads.LOSS_SWEEPS] * 2
    assert metrics["setup.synth.generate.s"]["value"] > 0
    assert metrics["synth.generate.s"]["value"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "retrieval",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
