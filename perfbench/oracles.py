"""Brute-force references the workload outputs are checked against.

Each one recomputes a result the slow, obvious way, in the style of the
oracles in ``tests/test_acceptance.py``: argmax R@1, a full sort for the
hard-negative pools, pair counting for AUROC, a central difference for loss
gradients, and a load-then-save round trip for artifacts.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from splitmetric import losses

BLOCK = 512


def unit_rows(data: np.ndarray) -> np.ndarray:
    x = np.asarray(data, dtype=np.float64)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def brute_r_at_1(matrix, oracle) -> float:
    """Share of eligible anchors whose nearest other row shares their branch."""
    unit = unit_rows(matrix.data)
    branches = [oracle.branch(i) for i in matrix.ids]
    counts: dict = {}
    for b in branches:
        counts[b] = counts.get(b, 0) + 1
    nearest = np.empty(len(branches), dtype=np.intp)
    for lo in range(0, len(branches), BLOCK):
        sims = unit[lo:lo + BLOCK] @ unit.T
        rows = np.arange(sims.shape[0])
        sims[rows, lo + rows] = -np.inf
        nearest[lo:lo + BLOCK] = sims.argmax(axis=1)  # first max: smallest index on ties
    eligible = [i for i, b in enumerate(branches) if counts[b] >= 2]
    return sum(1 for i in eligible if branches[nearest[i]] == branches[i]) / len(eligible)


def brute_pools(reference, oracle, anchors, k: int) -> dict:
    """anchor -> its k most similar different-branch ids, ties to the smaller id."""
    ids = sorted(reference.ids)
    unit = unit_rows(reference.subset(ids).data)
    branch = np.array([oracle.branch(i) for i in ids], dtype=object)
    row_of = {image_id: j for j, image_id in enumerate(ids)}
    out = {}
    for anchor in anchors:
        sims = unit @ unit[row_of[anchor]]
        negatives = np.flatnonzero(branch != branch[row_of[anchor]])
        order = negatives[np.lexsort((negatives, -sims[negatives]))][:k]
        out[anchor] = tuple(ids[j] for j in order)
    return out


def pair_count_auroc(pos, neg) -> float:
    """Share of (positive, negative) pairs ordered correctly, ties worth one half."""
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    above = tied = 0
    for lo in range(0, pos.size, BLOCK):
        block = pos[lo:lo + BLOCK, None]
        above += int(np.count_nonzero(block > neg[None, :]))
        tied += int(np.count_nonzero(block == neg[None, :]))
    return (above + 0.5 * tied) / (pos.size * neg.size)


def pair_scores(matrix, pair_set):
    """Positive and negative pair cosines, computed the way ``evaluate`` does."""
    data = matrix.data.astype(np.float64)
    unit = data / np.maximum(np.linalg.norm(data, axis=1, keepdims=True), 1e-30)
    row_of = {image_id: i for i, image_id in enumerate(matrix.ids)}
    a = np.array([row_of[p[0]] for p in pair_set.pairs], dtype=np.intp)
    b = np.array([row_of[p[1]] for p in pair_set.pairs], dtype=np.intp)
    links = np.array([p[2] for p in pair_set.pairs], dtype=bool)
    scores = np.einsum("ij,ij->i", unit[a], unit[b])
    return scores[links], scores[~links]


def directional_error(kind, batch, params, bank, result, rng,
                      steps=(1e-6, 1e-7, 1e-8)) -> float:
    """|central difference - analytic| along one random direction, relative
    to the Cauchy-Schwarz bound |grad| |direction| of the analytic value.

    The smallest error over the step sizes is returned: a hinge or mining
    threshold crossed inside one step spoils that step only, while a wrong
    gradient disagrees at every step.
    """
    direction = rng.standard_normal(batch.embeddings.shape)
    grads = [result.grad_embeddings]
    moves = [direction]
    aux = None
    if bank is not None and result.grad_aux is not None:
        aux = rng.standard_normal(bank.vectors.shape)
        grads.append(result.grad_aux)
        moves.append(aux)

    def value_at(t: float) -> float:
        moved = bank if aux is None else type(bank)(bank.vectors + t * aux)
        shifted = losses.Batch(batch.embeddings + t * direction, batch.labels)
        return losses.compute_loss(kind, shifted, params, moved).value

    analytic = sum(float(np.sum(g * m)) for g, m in zip(grads, moves))
    scale = np.sqrt(sum(float(np.sum(g * g)) for g in grads)
                    * sum(float(np.sum(m * m)) for m in moves))
    return min(abs((value_at(h) - value_at(-h)) / (2.0 * h) - analytic)
               for h in steps) / max(scale, 1e-12)


def resave_differs(path, load, save, out_path, companions=()) -> list[str]:
    """Files (path and path+suffix) whose load-then-save copy is not byte-identical."""
    save(load(path), out_path)
    return [str(path) + suffix for suffix in ("",) + tuple(companions)
            if Path(str(path) + suffix).read_bytes() != Path(str(out_path) + suffix).read_bytes()]
