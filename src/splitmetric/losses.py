"""Six deep-metric-learning loss kernels with analytic gradients.

Every kernel is a pure function of a batch (embeddings + integer labels) and
returns the scalar value together with the gradient w.r.t. the raw embedding
coordinates, plus the proxy/center gradient where one exists.  Formulations
follow the original publications:

* triplet        -- Schroff et al., FaceNet, CVPR 2015 (cosine hinge, all valid triplets)
* circle         -- Sun et al., Circle Loss, CVPR 2020
* multisim       -- Wang et al., Multi-Similarity Loss, CVPR 2019
* supcon         -- Khosla et al., Supervised Contrastive Learning, NeurIPS 2020 ("out" form)
* proxynca       -- Teh et al., ProxyNCA++, ECCV 2020 (squared Euclidean, all proxies in the softmax)
* softtriple     -- Qian et al., SoftTriple Loss, ICCV 2019

Defaults not determined by our training setup are the published ones.  All
reductions run in float64 over whole B x B rows: a per-anchor sum is a masked
row reduction (terms off the mask enter as exact zeros), so its value does
not depend on how rows are split into calls or stacked into one (multisim
takes its positive and negative terms in one call); softmax-like sums are
log-sum-exp stabilized.  Degenerate batches (no usable pair) return exactly
zero with zero gradients instead of raising.

``LOSSES`` is the one place a loss kind is registered: its kernel, its bank
type, and whether it trains on two noisy views.  ``LOSS_KINDS``,
``compute_loss`` and the trainer all read it.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import check_fields, read_text
from .embedstore import unit_rows


class LossError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Batch:
    embeddings: np.ndarray  # B x d, float64
    labels: np.ndarray  # B, integer class ids

    def __post_init__(self) -> None:
        emb = np.asarray(self.embeddings, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if emb.ndim != 2 or labels.ndim != 1 or emb.shape[0] != labels.shape[0]:
            raise LossError(f"bad batch shapes {emb.shape} / {labels.shape}")
        if emb.shape[0] < 2:
            raise LossError("batch needs at least 2 rows")
        finite = np.isfinite(emb).all(axis=1)
        if not finite.all():
            raise LossError(f"embedding row {np.flatnonzero(~finite)[0]} has non-finite values")
        object.__setattr__(self, "embeddings", emb)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]


@dataclass(frozen=True, slots=True)
class LossParams:
    triplet_margin: float = 0.1
    circle_m: float = 0.4
    circle_gamma: float = 80.0
    multisim_alpha: float = 2.0
    multisim_beta: float = 50.0
    multisim_lambda: float = 1.0
    multisim_epsilon: float = 0.1
    supcon_tau: float = 0.05
    proxynca_temperature: float = 1.0 / 9.0
    softtriple_lambda: float = 20.0
    softtriple_gamma: float = 0.1
    softtriple_delta: float = 0.01
    softtriple_tau_reg: float = 0.2
    softtriple_centers: int = 5

    def validate(self) -> None:
        check_fields(self, LossError)
        for name in ("circle_gamma", "multisim_alpha", "multisim_beta", "supcon_tau",
                     "proxynca_temperature", "softtriple_lambda", "softtriple_gamma"):
            if getattr(self, name) <= 0.0:
                raise LossError(f"{name} must be > 0")
        if self.triplet_margin < 0.0:
            raise LossError("triplet_margin must be >= 0")
        if self.softtriple_centers < 1:
            raise LossError("softtriple_centers must be >= 1")

    @classmethod
    def from_json(cls, path: str | Path) -> "LossParams":
        try:
            payload = json.loads(read_text(path, LossError))
        except json.JSONDecodeError as exc:
            raise LossError(f"{path}: not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise LossError(f"{path}: loss parameters must be a JSON object")
        bad = sorted(set(payload) - {f.name for f in fields(cls)})
        if bad:
            raise LossError(f"{path}: unknown loss parameter(s): {bad}")
        params = replace(cls(), **payload)
        try:
            params.validate()
        except LossError as exc:
            raise LossError(f"{path}: {exc}") from None
        return params


@dataclass(frozen=True, eq=False)
class LossResult:
    value: float
    grad_embeddings: np.ndarray
    grad_aux: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class ProxyBank:
    vectors: np.ndarray  # C x d, one proxy per class

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2:
            raise LossError("proxy bank must be C x d")
        object.__setattr__(self, "vectors", v)

    @classmethod
    def seeded(cls, class_means: np.ndarray, params: LossParams, rng) -> "ProxyBank":
        """One proxy per class at its unit class mean."""
        return cls(class_means)


@dataclass(frozen=True, eq=False)
class CenterBank:
    vectors: np.ndarray  # C x J x d, J centers per class

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 3:
            raise LossError("center bank must be C x J x d")
        object.__setattr__(self, "vectors", v)

    @classmethod
    def seeded(cls, class_means: np.ndarray, params: LossParams, rng) -> "CenterBank":
        """softtriple_centers jittered unit copies of each unit class mean."""
        c, d = class_means.shape
        jitter = 0.01 * rng.standard_normal((c, params.softtriple_centers, d))
        return cls(unit_rows(class_means[:, None, :] + jitter))


def _zero(batch: Batch) -> LossResult:
    return LossResult(0.0, np.zeros_like(batch.embeddings))


def _pairs(batch: Batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batch's similarity matrix, and its positive and negative pair masks."""
    emb, labels = batch.embeddings, batch.labels
    same = labels[:, None] == labels[None, :]
    neg = ~same  # the diagonal is always same
    np.fill_diagonal(same, False)
    return emb @ emb.T, same, neg


def _masked_lse(x: np.ndarray, mask: np.ndarray,
                floor: float = -np.inf) -> tuple[np.ndarray, np.ndarray]:
    """Per row, log(exp(floor) + sum of exp(x) over the mask), and the softmax
    weights (zero off the mask).  ``floor = 0`` gives log(1 + sum exp), which
    is 0 on an empty row; with the default floor every row needs a cell."""
    m = np.maximum(floor, np.maximum.reduce(x, axis=1, where=mask, initial=-np.inf))
    ex = np.exp(x - m[:, None], where=mask, out=np.zeros_like(x))
    total = np.exp(floor - m) + np.add.reduce(ex, axis=1)
    return m + np.log(total), ex / total[:, None]


def triplet_loss(batch: Batch, params: LossParams) -> LossResult:
    """Hinge over every valid (anchor, positive, negative) triplet, averaged."""
    s, pos, neg = _pairs(batch)
    # one row per positive pair (a, p), anchor-major: h[r, n] = s_an - s_ap + margin,
    # valid where n is a negative of a
    per_anchor = np.add.reduce(pos, axis=1)
    h = s.repeat(per_anchor, axis=0) - s[pos][:, None] + params.triplet_margin
    valid = neg.repeat(per_anchor, axis=0)
    count = int(np.count_nonzero(valid))
    if count == 0:
        return _zero(batch)
    active = valid & (h > 0.0)
    value = float(np.add.reduce(np.where(active, h, 0.0), axis=None)) / count
    # active triplets counted per (a, n) over each anchor's rows and per (a, p);
    # the rows of the anchors with positives start at their counts' running sums
    anchors = per_anchor.nonzero()[0]
    rows = per_anchor[anchors]
    g = np.zeros((batch.size, batch.size), dtype=np.int64)
    g[anchors] = np.add.reduceat(active, np.add.accumulate(rows) - rows, axis=0,
                                 dtype=np.int64)  # d/ds_an
    g[pos] = -np.add.reduce(active, axis=1)  # d/ds_ap; no (a, p) is active
    g = g / count
    grad = (g + g.T) @ batch.embeddings
    return LossResult(value, grad)


def circle_loss(batch: Batch, params: LossParams) -> LossResult:
    m, gamma = params.circle_m, params.circle_gamma
    s, pos, neg = _pairs(batch)
    b = batch.size

    # weighted logits; the weights are part of the function, not detached
    a_n = gamma * np.maximum(0.0, s + m) * (s - m)
    a_p = -gamma * np.maximum(0.0, 1.0 + m - s) * (s - (1.0 - m))
    da_n = np.where(s + m > 0.0, 2.0 * gamma * s, 0.0)
    da_p = np.where(1.0 + m - s > 0.0, 2.0 * gamma * (s - 1.0), 0.0)

    rows = pos.any(axis=1) & neg.any(axis=1)
    lse_n, w_n = _masked_lse(a_n[rows], neg[rows])
    lse_p, w_p = _masked_lse(a_p[rows], pos[rows])
    t = lse_n + lse_p
    # softplus(t) = log(1 + sum_n sum_p exp(a_n + a_p))
    value = float(np.sum(np.logaddexp(0.0, t))) / b
    sg = 1.0 / (1.0 + np.exp(-t))
    g = np.zeros_like(s)
    g[rows] = sg[:, None] * (w_n * da_n[rows] + w_p * da_p[rows]) / b
    grad = (g + g.T) @ batch.embeddings
    return LossResult(value, grad)


def multisim_loss(batch: Batch, params: LossParams) -> LossResult:
    alpha, beta = params.multisim_alpha, params.multisim_beta
    lam, eps = params.multisim_lambda, params.multisim_epsilon
    s, pos, neg = _pairs(batch)

    # mine against each anchor's hardest pairs: negatives above min_pos - eps,
    # positives below max_neg + eps; an anchor without positives or negatives
    # keeps nothing
    min_pos = np.minimum.reduce(s, axis=1, where=pos, initial=np.inf)
    max_neg = np.maximum.reduce(s, axis=1, where=neg, initial=-np.inf)
    keep_n = neg & (s > (min_pos - eps)[:, None])
    keep_p = pos & (s < (max_neg + eps)[:, None])
    rows = (keep_n | keep_p).any(axis=1)
    m_count = int(np.count_nonzero(rows))
    if m_count == 0:
        return _zero(batch)
    # one row-wise call over the positive terms' rows, then the negative terms';
    # a row that keeps nothing has log-sum-exp 0 and zero weights
    b, x = batch.size, s - lam
    lse, w = _masked_lse(np.concatenate((-alpha * x, beta * x)),
                         np.concatenate((keep_p, keep_n)), floor=0.0)
    value = float(np.add.reduce((lse[:b] / alpha + lse[b:] / beta)[rows])) / m_count
    g = (w[b:] - w[:b]) / m_count
    grad = (g + g.T) @ batch.embeddings
    return LossResult(value, grad)


def supcon_loss(batch: Batch, params: LossParams) -> LossResult:
    """Supervised contrastive loss on an already-materialized multiview batch."""
    tau = params.supcon_tau
    s, pos, neg = _pairs(batch)

    rows = pos.any(axis=1)
    m_count = int(rows.sum())
    if m_count == 0:
        return _zero(batch)
    off = (pos | neg)[rows]
    s, pos = s[rows] / tau, pos[rows]
    lse, w = _masked_lse(s, off)
    p_count = pos.sum(axis=1)
    value = float(np.sum(-(np.sum(s, axis=1, where=pos) - p_count * lse) / p_count)) / m_count
    g = np.zeros((batch.size, batch.size))
    g[rows] = (w - pos / p_count[:, None]) / (m_count * tau)
    grad = (g + g.T) @ batch.embeddings
    return LossResult(value, grad)


def _check_bank(batch: Batch, vectors: np.ndarray, name: str) -> None:
    """The bank's d matches the batch and it has a row for every label."""
    emb, labels = batch.embeddings, batch.labels
    if emb.shape[1] != vectors.shape[-1]:
        raise LossError(f"embedding d={emb.shape[1]} vs {name} d={vectors.shape[-1]}")
    n_classes = vectors.shape[0]
    if labels.min() < 0 or labels.max() >= n_classes:
        missing = sorted(set(labels.tolist()) - set(range(n_classes)))
        raise LossError(f"missing {name} for label(s) {missing}")


def _softmax_xent(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of the labelled logits, and softmax - onehot."""
    rows = np.arange(labels.shape[0])
    shift = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shift)
    total = ex.sum(axis=1)
    resid = ex / total[:, None]
    resid[rows, labels] -= 1.0
    return float(-np.mean(shift[rows, labels] - np.log(total))), resid


def proxynca_loss(batch: Batch, proxies: ProxyBank, params: LossParams) -> LossResult:
    emb, labels = batch.embeddings, batch.labels
    p = proxies.vectors
    _check_bank(batch, p, "proxy")
    t = params.proxynca_temperature
    b = batch.size

    diff = emb[:, None, :] - p[None, :, :]  # B x C x d
    d2 = np.sum(diff * diff, axis=2)
    value, resid = _softmax_xent(-d2 / t, labels)
    dd2 = -resid / (t * b)
    grad_emb = 2.0 * np.einsum("ic,icd->id", dd2, diff)
    grad_prox = -2.0 * np.einsum("ic,icd->cd", dd2, diff)
    return LossResult(value, grad_emb, grad_prox)


def softtriple_loss(batch: Batch, centers: CenterBank, params: LossParams) -> LossResult:
    emb, labels = batch.embeddings, batch.labels
    w = centers.vectors  # C x J x d
    _check_bank(batch, w, "centers")
    n_classes, n_centers = w.shape[0], w.shape[1]
    lam, gamma = params.softtriple_lambda, params.softtriple_gamma
    delta, tau_reg = params.softtriple_delta, params.softtriple_tau_reg
    b = batch.size

    # centers first, q[j, c, i] = w[c, j] . emb[i]: each reduction over J takes C x B slabs
    wt = np.ascontiguousarray(w.transpose(1, 0, 2))  # J x C x d
    q = wt @ emb.T
    qs = q / gamma
    qs -= qs.max(axis=0)
    r = np.exp(qs, out=qs)
    r /= r.sum(axis=0)
    sim = np.sum(r * q, axis=0)  # C x B, the relaxed per-class similarity

    z = lam * sim.T
    z[np.arange(b), labels] -= lam * delta
    value, resid = _softmax_xent(z, labels)
    dsim = lam * (resid / b).T
    dq = (dsim * r * (1.0 + (q - sim) / gamma)).reshape(n_centers * n_classes, b)
    grad_emb = dq.T @ wt.reshape(n_centers * n_classes, -1)
    grad_w = (dq @ emb).reshape(n_centers, n_classes, -1).transpose(1, 0, 2)

    if n_centers >= 2 and tau_reg != 0.0:
        denom = n_classes * n_centers * (n_centers - 1)
        # each class's chord sqrt(2 - 2 w_j . w_jj) over its center pairs j < jj
        j, jj = np.triu_indices(n_centers, k=1)
        dots = np.einsum("cpd,cpd->cp", w[:, j, :], w[:, jj, :])
        chord = np.sqrt(np.maximum(2.0 - 2.0 * dots, 1e-30))
        # d sqrt(2-2t)/dt = -1/sqrt(2-2t), for t = w_j . w_jj on both sides of the pair
        coef = np.zeros((n_classes, n_centers, n_centers))
        coef[:, j, jj] = -tau_reg / (denom * chord)
        coef[:, jj, j] = coef[:, j, jj]
        grad_w += coef @ w
        value += tau_reg * float(np.sum(chord)) / denom

    return LossResult(value, grad_emb, grad_w)


@dataclass(frozen=True)
class LossSpec:
    kernel: Callable  # (batch, params), or (batch, bank, params) when bank is set
    bank: type | None  # ProxyBank or CenterBank; its ``seeded`` builds the initial bank
    two_views: bool = False  # train on two noisy views of every sample


LOSSES = {
    "triplet": LossSpec(triplet_loss, None),
    "circle": LossSpec(circle_loss, None),
    "multisim": LossSpec(multisim_loss, None),
    "supcon": LossSpec(supcon_loss, None, two_views=True),
    "proxynca": LossSpec(proxynca_loss, ProxyBank),
    "softtriple": LossSpec(softtriple_loss, CenterBank),
}
LOSS_KINDS = tuple(LOSSES)


def compute_loss(
    kind: str,
    batch: Batch,
    params: LossParams,
    bank: ProxyBank | CenterBank | None = None,
) -> LossResult:
    """Dispatch by lowercase loss token."""
    spec = LOSSES.get(kind)
    if spec is None:
        raise LossError(f"unknown loss kind {kind!r}")
    if spec.bank is None:
        return spec.kernel(batch, params)
    if not isinstance(bank, spec.bank):
        raise LossError(f"{kind} needs a {spec.bank.__name__}")
    return spec.kernel(batch, bank, params)

