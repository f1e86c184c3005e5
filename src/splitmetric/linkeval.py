"""Image-linking evaluation: R@1, sampled-pair AUC, and hard-negative AUC_H.

Two images link iff they carry the same branch label.  `LinkOracle.codes` is
the one place ids become branch groups: an integer code per id, branches
numbered in sorted name order, compared as exact Python strings.  R@1,
pair sampling, mining and the trainer's batches all work on those codes.
AUC is estimated from per-anchor sampled pairs (one positive, one negative
each); AUC_H replaces the uniform negative with a draw from a mined pool of
the most-similar negatives under a fixed reference embedding.  Repeats are
independent, with repeat r seeded as seed+r, and reduced in repeat order.

`evaluate` takes the rows in id order once, builds one pair index per mode
(branch order, ranks, draw bounds and the checked hard pool, all as row
positions) and scores each repeat's seeded draw straight from the unit rows;
`sample_eval_pairs` returns the same index's draw as id pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import check_fields, seeded_rng
from .embedstore import EmbeddingMatrix, cosine_knn, top_k, unit_rows


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class LinkOracle:
    """Ground-truth linking: image id → branch id."""

    labels: dict

    @classmethod
    def from_catalog(cls, catalog) -> "LinkOracle":
        return cls({rec.image_id: rec.branch_id for rec in catalog.records})

    def branch(self, image_id: str) -> str:
        try:
            return self.labels[image_id]
        except KeyError:
            raise EvalError(f"no branch label for image {image_id!r}") from None

    def codes(self, image_ids) -> np.ndarray:
        """Branch code per id, branches numbered in sorted name order.

        A dict keyed by the names themselves keeps them exact, so a trailing
        NUL still makes a branch of its own (a ``'<U'`` array drops it).
        """
        branches = list(map(self.branch, image_ids))
        code = {name: c for c, name in enumerate(sorted(set(branches)))}
        return np.fromiter(map(code.__getitem__, branches), np.intp, len(branches))


@dataclass(frozen=True, eq=False)
class PairSet:
    pairs: tuple  # (anchor_id, partner_id, link 0|1)
    seed: int
    mode: str  # "random" | "hard"
    skipped: int  # singleton-branch anchors left out entirely


@dataclass(frozen=True, eq=False)
class HardNegPool:
    negatives: dict  # anchor id -> tuple of ids, descending reference similarity
    k: int


@dataclass(frozen=True)
class EvalOptions:
    repeats: int = 10
    seed: int = 0
    hard_pool: HardNegPool | None = None
    threads: int = 1

    def validate(self) -> None:
        check_fields(self, EvalError)
        if self.repeats < 1:
            raise EvalError("repeats must be >= 1")
        if self.threads < 1:
            raise EvalError("threads must be >= 1")


@dataclass(frozen=True)
class MetricReport:
    r_at_1: float
    auc_mean: float
    auc_std: float
    auc_repeats: tuple
    auc_h_mean: float | None
    auc_h_std: float | None
    auc_h_repeats: tuple | None
    repeats: int
    skipped: int

    def to_json_dict(self) -> dict:
        hard = None
        if self.auc_h_mean is not None:
            hard = {"mean": self.auc_h_mean, "std": self.auc_h_std,
                    "repeats": list(self.auc_h_repeats)}
        return {
            "r_at_1": self.r_at_1,
            "auc": {"mean": self.auc_mean, "std": self.auc_std,
                    "repeats": list(self.auc_repeats)},
            "auc_h": hard,
            "skipped": self.skipped,
        }


def auroc(pos_scores, neg_scores) -> float:
    """Mann-Whitney AUROC with exact 0.5 credit for ties, by sort and count.

    With the negatives sorted, two searches give each positive the number of
    negatives strictly below it and at or below it; U is half the sum of both
    exact integer counts, so no union of scores is ranked.
    """
    pos = np.asarray(pos_scores, dtype=np.float64).reshape(-1)
    neg = np.asarray(neg_scores, dtype=np.float64).reshape(-1)
    if pos.size == 0 or neg.size == 0:
        raise EvalError("auroc needs at least one score on each side")
    if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
        raise EvalError("auroc scores must be finite")
    pos, neg = np.sort(pos), np.sort(neg)  # sorted keys make each search resume
    u = (np.searchsorted(neg, pos, "left").sum() + np.searchsorted(neg, pos, "right").sum()) / 2.0
    return float(u / (pos.size * neg.size))


class _PairIndex:
    """Sorted ids grouped into branches once, for any number of seeded draws.

    ``ids`` must be sorted and ``codes`` are their branch codes; every
    position below indexes ``ids``.  An anchor is eligible when its branch
    has another member; the others are ``skipped``.  With a hard pool, the
    eligible anchors' pools are checked once (each entry must be an id here,
    from another branch) and kept as a padded array of positions plus the
    pool lengths, which bound the negative draws.
    """

    def __init__(self, ids: list, codes: np.ndarray, hard_pool: HardNegPool | None) -> None:
        sizes = np.bincount(codes)
        if len(sizes) < 2:
            raise EvalError(f"need at least 2 branches to sample negatives, got {len(sizes)}")
        n = len(ids)
        self.order = np.argsort(codes, kind="stable")  # each branch's members, in id order
        start = np.cumsum(sizes) - sizes  # where each branch begins in `order`
        rank = np.empty(n, dtype=np.intp)  # an id's position among its branch's members
        rank[self.order] = np.arange(n) - start[codes[self.order]]
        self.anchors = np.flatnonzero(sizes[codes] >= 2)
        self.skipped = n - len(self.anchors)
        branch = codes[self.anchors]
        self.first_mate = start[branch]
        self.anchor_rank = rank[self.anchors]
        self.pool = None
        if hard_pool is None:
            available = n - sizes[branch]
            # the r-th outsider sits past every member with at most r outsiders
            # before it; keys offset by branch make one sorted array for all
            self.keys = codes[self.order] * (n + 1) + self.order - rank[self.order]
            self.key_base = branch * (n + 1)
        else:
            pooled = [hard_pool.negatives.get(ids[a]) for a in self.anchors]
            missing = next((ids[a] for a, p in zip(self.anchors, pooled) if not p), None)
            if missing is not None:
                raise EvalError(f"hard pool has no negatives for anchor {missing!r}")
            available = np.array([len(p) for p in pooled], dtype=np.int64)
            position = {image_id: j for j, image_id in enumerate(ids)}
            entries = list(chain.from_iterable(pooled))
            at = np.fromiter(map(position.get, entries, repeat(-1)), np.intp, len(entries))
            owner = np.repeat(self.anchors, available)
            bad = np.flatnonzero((at < 0) | (codes[at] == codes[owner]))
            if bad.size:
                anchor, entry = ids[owner[bad[0]]], entries[bad[0]]
                why = "not an evaluated id" if at[bad[0]] < 0 else "in the anchor's own branch"
                raise EvalError(f"hard pool of anchor {anchor!r} holds {entry!r}, which is {why}")
            self.pool = np.zeros((len(available), available.max(initial=0)), dtype=np.intp)
            self.pool[np.arange(self.pool.shape[1]) < available[:, None]] = at
        self.bounds = np.stack([sizes[branch] - 1, available], axis=1).ravel()

    def draw(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """(positives, negatives) as positions, one each per eligible anchor.

        One ``rng.integers`` call draws every index: numpy fills array bounds
        element by element, the same stream as one scalar call per anchor and
        side, positive first.
        """
        rng = seeded_rng(seed)
        draws = rng.integers(0, self.bounds)
        r_pos, r_neg = draws[0::2], draws[1::2]
        # the r-th mate skips the anchor's own slot in its branch
        positives = self.order[self.first_mate + r_pos + (r_pos >= self.anchor_rank)]
        if self.pool is None:
            members_before = np.searchsorted(self.keys, self.key_base + r_neg, side="right")
            negatives = r_neg + members_before - self.first_mate
        else:
            negatives = self.pool[np.arange(len(r_neg)), r_neg]
        return positives, negatives


def sample_eval_pairs(
    image_ids,
    oracle: LinkOracle,
    seed: int,
    hard_pool: HardNegPool | None = None,
) -> PairSet:
    """One positive and one negative pair per eligible anchor.

    Anchors are visited in sorted id order; a singleton-branch anchor is
    skipped (no positive exists) and consumes no random draws.  Negatives come
    uniformly from the other branches, or from ``hard_pool`` when given.
    Every id is the caller's object; `evaluate` draws the same pairs as
    positions.
    """
    EvalOptions(seed=seed).validate()  # the seed rule of `evaluate`
    ids = sorted(image_ids)
    if len(set(ids)) != len(ids):
        raise EvalError("image ids must be unique")
    index = _PairIndex(ids, oracle.codes(ids), hard_pool)
    positives, negatives = index.draw(seed)
    all_ids = np.array(ids, dtype=object)
    pairs = []
    for anchor, pos, neg in zip(all_ids[index.anchors].tolist(), all_ids[positives].tolist(),
                                all_ids[negatives].tolist()):
        pairs += ((anchor, pos, 1), (anchor, neg, 0))
    return PairSet(tuple(pairs), seed, "hard" if hard_pool is not None else "random",
                   index.skipped)


def mine_hard_negatives(reference: EmbeddingMatrix, oracle: LinkOracle, k: int = 10,
                        threads: int = 1) -> HardNegPool:
    """Top-k different-branch ids per image, by descending reference similarity.

    One `embedstore.top_k` call with branch codes as groups: same-branch
    cells, self included, score -inf and are dropped.  Memory is one 512 x
    2,048 block and its fold per worker, whatever N is, and the two separate
    unit-row arrays keep `top_k`'s bits.
    Ties break toward the lexicographically smaller id.  Pools are shorter
    than k only when fewer negatives exist; same-branch-only inputs give
    empty pools.
    """
    if k < 1:
        raise EvalError("k must be >= 1")
    EvalOptions(threads=threads).validate()  # the threads rule of `evaluate`
    ids = sorted(reference.ids)
    sub = reference.subset(ids)  # gallery in id order, so index ties == id ties
    branches = oracle.codes(ids)
    indices, sims = top_k(unit_rows(sub.data), unit_rows(sub.data), min(k, len(ids)),
                          branches, branches, threads)
    pools = dict(zip(ids, map(tuple, np.array(ids, dtype=object)[indices].tolist())))
    for r in np.flatnonzero(np.isneginf(sims).any(axis=1)):  # -inf cells sort last
        pools[ids[r]] = pools[ids[r]][:np.count_nonzero(sims[r] > -np.inf)]
    return HardNegPool(pools, k)


def evaluate(embeddings: EmbeddingMatrix, oracle: LinkOracle, options: EvalOptions) -> MetricReport:
    """R@1 plus AUC (and AUC_H when a hard pool is supplied) over repeats.

    Everything runs on the rows in id order, so no result depends on the
    matrix's row order: an R@1 tie goes to the smaller id, as in mining.
    Each mode builds one pair index over those rows; every repeat draws
    positions from it and scores them straight from the unit rows.
    """
    options.validate()
    embeddings = embeddings.subset(sorted(embeddings.ids))
    ids = embeddings.ids
    codes = oracle.codes(ids)
    eligible = np.bincount(codes)[codes] >= 2
    if not eligible.any():
        raise EvalError("every branch is a singleton; no metric is defined")

    knn = cosine_knn(embeddings, embeddings, k=1, exclude_self=True, threads=options.threads)
    r_at_1 = float(np.mean(codes[knn.indices[eligible, 0]] == codes[eligible]))
    unit = unit_rows(embeddings.data)

    def auc_over_repeats(hard_pool):
        index = _PairIndex(ids, codes, hard_pool)
        anchors = unit[index.anchors]
        vals = []
        for r in range(options.repeats):
            positives, negatives = index.draw(int(options.seed) + r)  # no int64 wrap
            vals.append(auroc(np.einsum("ij,ij->i", anchors, unit[positives]),
                              np.einsum("ij,ij->i", anchors, unit[negatives])))
        return vals, index.skipped

    auc_vals, skipped = auc_over_repeats(None)
    auc_h_vals = None
    if options.hard_pool is not None:
        auc_h_vals, _ = auc_over_repeats(options.hard_pool)

    def mean_std(vals):
        arr = np.asarray(vals, dtype=np.float64)
        return float(arr.mean()), float(arr.std())

    auc_mean, auc_std = mean_std(auc_vals)
    if auc_h_vals is None:
        h_mean = h_std = h_rep = None
    else:
        h_mean, h_std = mean_std(auc_h_vals)
        h_rep = tuple(auc_h_vals)
    return MetricReport(
        r_at_1=r_at_1,
        auc_mean=auc_mean,
        auc_std=auc_std,
        auc_repeats=tuple(auc_vals),
        auc_h_mean=h_mean,
        auc_h_std=h_std,
        auc_h_repeats=h_rep,
        repeats=options.repeats,
        skipped=skipped,
    )
