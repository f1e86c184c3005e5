"""Image-linking evaluation: R@1, sampled-pair AUC, and hard-negative AUC_H.

Two images link iff they carry the same branch label.  `LinkOracle.codes` is
the one place ids become branch groups: an integer code per id, branches
numbered in sorted name order, compared as exact Python strings.  R@1,
pair sampling, mining and the trainer's batches all work on those codes.
AUC is estimated from per-anchor sampled pairs (one positive, one negative
each); AUC_H replaces the uniform negative with a draw from a mined pool of
the most-similar negatives under a fixed reference embedding.  Repeats are
independent, with repeat r seeded as seed+r, and reduced in repeat order.

`evaluate` takes the rows in id order once and builds one pair index per
mode (branch order, ranks, draw bounds and the checked hard pool, all as row
positions).  The uniform index's anchors are R@1's anchors too, and each
repeat's seeded draw is scored straight from the unit rows;
`sample_eval_pairs` returns the same index's draw as id pairs.  A hard pool
holds one layout of positions from when it is made; a mined pool's is the
one `top_k` gave, so mining then evaluating the same rows never turns a
position into an id and back.  A report stores its repeats, and each mean and
spread is computed from them when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat

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
        return cls(catalog.branch_of())

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
        try:
            branches = list(map(self.labels.__getitem__, image_ids))
        except KeyError as missing:  # the first id without a label
            raise EvalError(f"no branch label for image {missing.args[0]!r}") from None
        code = {name: c for c, name in enumerate(sorted(set(branches)))}
        return np.fromiter(map(code.__getitem__, branches), np.intp, len(branches))


@dataclass(frozen=True, eq=False)
class PairSet:
    pairs: tuple  # (anchor_id, partner_id, link 0|1)
    seed: int
    mode: str  # "random" | "hard"
    skipped: int  # singleton-branch anchors left out entirely


class HardNegPool:
    """Each anchor's hard negatives, by descending reference similarity, mined at ``k``.

    ``rows = (ids, positions, lengths)`` is the pool's one layout, set when
    the pool is made: id j's pool is the ``lengths[j]`` ids named by
    ``positions`` after those of ids 0..j-1.  A mined pool keeps what `top_k`
    returned: its sorted ids, one flat array of positions into them and one
    pool length per id.  ``HardNegPool(negatives, k)`` copies the dict anchor
    id -> ids, each pool as a tuple (``None`` as an empty one), and lays it out
    once: its keys in order, then each other id its pools hold, with an empty
    pool.  ``negatives`` names a mined layout as that dict on its first read.
    """

    __slots__ = ("k", "rows", "_negatives")

    def __init__(self, negatives: dict, k: int) -> None:
        negatives = {a: tuple(p or ()) for a, p in negatives.items()}  # later edits cannot reach it
        position = {image_id: j for j, image_id in enumerate(negatives)}
        entries = list(chain.from_iterable(negatives.values()))
        positions = np.fromiter(map(position.get, entries, repeat(-1)), np.intp, len(entries))
        for j in np.flatnonzero(positions < 0).tolist():
            positions[j] = position.setdefault(entries[j], len(position))
        lengths = list(map(len, negatives.values())) + [0] * (len(position) - len(negatives))
        self.k, self._negatives = k, negatives
        self.rows = (tuple(position), positions, np.array(lengths, dtype=np.intp))

    @classmethod
    def _mined(cls, ids: tuple, positions: np.ndarray, lengths: np.ndarray,
               k: int) -> "HardNegPool":
        pool = cls.__new__(cls)
        pool.k, pool.rows, pool._negatives = k, (ids, positions, lengths), None
        return pool

    @property
    def negatives(self) -> dict:
        """Anchor id -> tuple of ids, descending reference similarity."""
        if self._negatives is None:
            ids, positions, lengths = self.rows
            named = iter(np.array(ids, dtype=object)[positions].tolist())
            self._negatives = {i: tuple(islice(named, n)) for i, n in zip(ids, lengths.tolist())}
        return self._negatives


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
    auc_repeats: tuple
    auc_h_repeats: tuple | None  # None without a hard pool
    skipped: int

    @property
    def repeats(self) -> int:
        return len(self.auc_repeats)

    @property
    def auc_mean(self) -> float:
        return float(np.mean(self.auc_repeats))

    @property
    def auc_std(self) -> float:
        return float(np.std(self.auc_repeats))

    @property
    def auc_h_mean(self) -> float | None:
        return None if self.auc_h_repeats is None else float(np.mean(self.auc_h_repeats))

    @property
    def auc_h_std(self) -> float | None:
        return None if self.auc_h_repeats is None else float(np.std(self.auc_h_repeats))

    def to_json_dict(self) -> dict:
        hard = None
        if self.auc_h_repeats is not None:
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
    eligible anchors' pools are cut from the pool's one layout, `HardNegPool.rows`,
    checked once (each entry must be an id here, from another branch) and
    kept as one flat array of positions with each anchor's start in it, as
    ``order`` and ``first_mate`` keep the positives; the pool lengths bound
    the negative draws.  A pool mined on these very ids holds positions here
    already; any other pool's ids are looked up once each, not once per entry.
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
            pool_ids, entries, lengths = hard_pool.rows
            start_of = np.cumsum(lengths) - lengths
            here = None  # each pool id's position here, -1 if none, when the ids differ
            row = self.anchors  # each anchor's row in the pool
            if pool_ids != tuple(ids):
                position = {image_id: j for j, image_id in enumerate(ids)}
                here = np.fromiter(map(position.get, pool_ids, repeat(-1)), np.intp,
                                   len(pool_ids))
                known = np.flatnonzero(here >= 0)
                row = np.full(n, len(pool_ids))  # past the end: an anchor the pool lacks
                row[here[known]] = known
                row = row[self.anchors]
                lengths = np.append(lengths, 0)
            available = lengths[row]
            missing = self.anchors[available == 0]
            if missing.size:
                raise EvalError(f"hard pool has no negatives for anchor {ids[missing[0]]!r}")
            pool_start = np.cumsum(available) - available
            entries = entries[np.repeat(start_of[row] - pool_start, available)
                              + np.arange(available.sum())]
            at = entries if here is None else here[entries]
            owner = np.repeat(self.anchors, available)
            bad = np.flatnonzero((at < 0) | (codes[at] == codes[owner]))
            if bad.size:
                anchor, entry = ids[owner[bad[0]]], pool_ids[entries[bad[0]]]
                why = "not an evaluated id" if at[bad[0]] < 0 else "in the anchor's own branch"
                raise EvalError(f"hard pool of anchor {anchor!r} holds {entry!r}, which is {why}")
            self.pool, self.pool_start = at, pool_start
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
            negatives = self.pool[self.pool_start + r_neg]
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
    2,048 block and its fold per worker, whatever N is.  The rows are scaled
    once, and a copy is the second, separate buffer that keeps `top_k`'s bits.
    Ties break toward the lexicographically smaller id.  Pools are shorter
    than k only when fewer negatives exist; same-branch-only inputs give
    empty pools.  The pool keeps `top_k`'s positions (`HardNegPool`), and
    names them as ids only when ``negatives`` is read.
    """
    if k < 1:
        raise EvalError("k must be >= 1")
    EvalOptions(threads=threads).validate()  # the threads rule of `evaluate`
    sub = reference.subset(sorted(reference.ids))  # gallery in id order, so index ties == id ties
    branches = oracle.codes(sub.ids)
    unit = sub.unit()
    indices, sims = top_k(unit, unit.copy(), min(k, sub.n), branches, branches, threads)
    kept = sims > -np.inf  # -inf cells sort last, so each row keeps a prefix
    return HardNegPool._mined(sub.ids, indices[kept], np.count_nonzero(kept, axis=1), k)


def evaluate(embeddings: EmbeddingMatrix, oracle: LinkOracle, options: EvalOptions) -> MetricReport:
    """R@1 plus AUC (and AUC_H when a hard pool is supplied) over repeats.

    Everything runs on the rows in id order, so no result depends on the
    matrix's row order: an R@1 tie goes to the smaller id, as in mining.
    Each mode builds one pair index over those rows, and the uniform one's
    anchors are the ids R@1 averages over; every repeat draws positions
    from an index and scores them straight from the unit rows.
    """
    options.validate()
    embeddings = embeddings.subset(sorted(embeddings.ids))
    ids = embeddings.ids
    codes = oracle.codes(ids)
    if np.bincount(codes).max(initial=0) < 2:
        raise EvalError("every branch is a singleton; no metric is defined")

    knn = cosine_knn(embeddings, embeddings, k=1, exclude_self=True, threads=options.threads)
    index = _PairIndex(ids, codes, None)
    unit = unit_rows(embeddings.data)

    def aucs(index: _PairIndex) -> tuple:
        anchors = unit[index.anchors]
        draws = (index.draw(int(options.seed) + r) for r in range(options.repeats))  # no int64 wrap
        return tuple(auroc(np.einsum("ij,ij->i", anchors, unit[positives]),
                           np.einsum("ij,ij->i", anchors, unit[negatives]))
                     for positives, negatives in draws)

    auc = aucs(index)
    auc_h = None if options.hard_pool is None else aucs(_PairIndex(ids, codes, options.hard_pool))
    r_at_1 = float(np.mean(codes[knn.indices[index.anchors, 0]] == codes[index.anchors]))
    return MetricReport(r_at_1, auc, auc_h, index.skipped)
