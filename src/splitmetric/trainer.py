"""Desk-scale embedding-head trainer.

The head is layernorm (affine-free) -> linear projection -> L2 normalize,
trained on raw synthetic features with plain SGD with momentum over
class-balanced m x k batches, n_train // (m*k) of them (at least one) an
epoch.  Proxy and center banks, where a loss has them, start at the initial
head's class-mean directions, step at the head's learning rate without
momentum and are re-normalized after every step.  Model selection monitors
R@1 on the val_ss split.

The layernorm has no parameters and reduces each row on its own, so `train`
layernorms the val rows, and for single-view losses the train rows, once per
run (two-view losses add noise first, so their views are layernormed each
step).  Each step runs the head once for both the loss and its gradient.
Batches come from a class index built once per run.  `train` takes an
epoch's step seeds (and two-view noise) from the run's generator at once, in
per-step order, and `_ClassIndex.draws` makes their batches from all seeds'
PCG64 words (`seeded_words`) by numpy's own Lemire and Floyd rules,
bit-identical to per-step ``Generator.choice`` draws.

A TOY1 checkpoint is the binary frame ``TOY1``, d_in, d_out, then W (row-major) and b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import check_fields, read_frame, seeded_rng, seeded_words, write_csv, write_frame
from .embedstore import EmbeddingMatrix, unit_rows
from .linkeval import EvalOptions, LinkOracle, evaluate
from .losses import LOSSES, Batch, CenterBank, LossParams, ProxyBank, compute_loss

MODEL_MAGIC = b"TOY1"
LN_EPS = 1e-5  # layernorm variance floor; TOY1 does not store it
SIGMA_AUG = 0.05  # view noise of the two-view losses
EVAL_REPEATS = 3  # val_ss AUC repeats per epoch


class TrainError(ValueError):
    pass


@dataclass(eq=False)
class ToyModel:
    weight: np.ndarray  # d_out x d_in
    bias: np.ndarray  # d_out

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise TrainError(f"bad parameter shapes {self.weight.shape} / {self.bias.shape}")
        if self.weight.shape[0] < 2:
            raise TrainError("d_out must be >= 2")
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise TrainError("non-finite model parameters")

    @property
    def d_in(self) -> int:
        return self.weight.shape[1]

    @property
    def d_out(self) -> int:
        return self.weight.shape[0]

    def copy(self) -> "ToyModel":
        return ToyModel(self.weight.copy(), self.bias.copy())


def init_model(d_in: int, d_out: int, seed: int) -> ToyModel:
    rng = seeded_rng(seed)
    weight = rng.standard_normal((d_out, d_in)) / np.sqrt(d_in)
    return ToyModel(weight, np.zeros(d_out))


def _layernorm(model: ToyModel, features: np.ndarray) -> np.ndarray:
    """Affine-free layernorm of B x d_in rows; each row is reduced on its own."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.d_in:
        raise TrainError(f"features must be B x {model.d_in}, got {x.shape}")
    return (x - x.mean(axis=1, keepdims=True)) / np.sqrt(x.var(axis=1, keepdims=True) + LN_EPS)


def _norm(y: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(y * y, axis=1, keepdims=True) + 1e-12)


def _project(model: ToyModel, z: np.ndarray):
    """The projection y = W.z + b of layernormed rows z, and its row norm nu."""
    y = z @ model.weight.T + model.bias
    return y, _norm(y)


def _backward(z: np.ndarray, y: np.ndarray, nu: np.ndarray, g: np.ndarray):
    """Gradient w.r.t. (W, b) from the head's (z, y, nu) and g = dL/d(y / nu)."""
    # h = y / nu  =>  dL/dy = g/nu - y * (y.g) / nu^3
    dy = g / nu - y * np.add.reduce(y * g, axis=1, keepdims=True) / nu**3
    return dy.T @ z, np.add.reduce(dy, axis=0)


def forward(model: ToyModel, features: np.ndarray) -> np.ndarray:
    """Row-wise layernorm -> W.x + b -> unit normalization; output B x d_out."""
    y = _layernorm(model, features) @ model.weight.T + model.bias  # frees z before the norm
    return y / _norm(y)


def head_backward(model: ToyModel, features: np.ndarray, grad_embeddings: np.ndarray):
    """Gradient of the loss w.r.t. (W, b) given dL/d(normalized output)."""
    z = _layernorm(model, features)
    return _backward(z, *_project(model, z), np.asarray(grad_embeddings, dtype=np.float64))


@dataclass(frozen=True, slots=True)
class BatchSpec:
    m: int  # classes per batch
    k: int  # instances per class

    def __post_init__(self) -> None:
        if self.m < 2 or self.k < 2:
            raise TrainError(f"need m >= 2 and k >= 2, got m={self.m} k={self.k}")

    @property
    def size(self) -> int:
        return self.m * self.k


class _ClassIndex:
    """Train rows grouped by class once, for any number of seeded batch draws.

    ``order`` lists each class's rows in ascending order, class by class, and
    class c's rows start at ``starts[c]``, so ``order[starts[c] + off]`` is
    ``np.flatnonzero(codes == c)[off]``.
    """

    def __init__(self, codes: np.ndarray, spec: BatchSpec) -> None:
        self.sizes = np.bincount(codes)
        self.eligible = np.flatnonzero(self.sizes >= spec.k)
        if len(self.eligible) < spec.m:
            raise TrainError(
                f"need {spec.m} classes with >= {spec.k} images, only {len(self.eligible)} eligible"
            )
        self.order = np.argsort(codes, kind="stable")
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.spec = spec

    def draws(self, seeds) -> np.ndarray:
        """One batch per seed, S x m*k rows: m distinct eligible classes, then k distinct rows of each.

        Seed s gives the rows of ``rng.choice(len(eligible), m, replace=False)``
        then of one ``rng.choice(size, k, replace=False)`` per class, for ``rng =
        seeded_rng(s)``: `_choices` makes them from all seeds' `seeded_words` at
        once, and a seed whose words it cannot vouch for makes these calls itself.
        """
        m, k = self.spec.m, self.spec.k
        words = seeded_words(seeds, 2 * m - 1 + m * (2 * k - 1))
        picks, read, fast = _choices(words, 0, np.full((len(seeds), 1), len(self.eligible)), m)
        classes = self.eligible[picks[:, 0]]
        offsets, _, fast_offsets = _choices(words, read, self.sizes[classes], k)
        for s in np.flatnonzero(~(fast & fast_offsets)):
            rng = seeded_rng(seeds[s])
            classes[s] = self.eligible[rng.choice(len(self.eligible), m, replace=False)]
            offsets[s] = [rng.choice(n, k, replace=False) for n in self.sizes[classes[s]]]
        return self.order[self.starts[classes][..., None] + offsets].reshape(len(seeds), -1)


def _choices(words: np.ndarray, read, sizes: np.ndarray, k: int):
    """``choice(n, k, replace=False)`` of each n in row s of ``sizes``, from ``words[s, read:]``.

    Returns the S x r x k picks, each row's next unread word, and whether the picks are numpy's:
    if n <= 10000 or k <= n // 50, numpy draws bounds n-k .. n-1 for Floyd's sampling, then k-1 .. 1
    for its shuffle, each bound b as ``word * (b + 1) >> 32`` unless b is 0 (no word), 2**32 - 1 or
    more, or Lemire's rule may reject the word (its product's low half is under b + 1).
    """
    bounds = np.empty(sizes.shape + (2 * k - 1,), dtype=np.int64)
    bounds[..., :k] = sizes[..., None] - k + np.arange(k)
    bounds[..., k:] = np.arange(k - 1, 0, -1)
    per_seed = bounds.reshape(len(words), -1).astype(np.uint64)
    at = read + np.cumsum(per_seed > 0, axis=1) - 1  # a zero bound draws 0 whatever it reads
    scaled = np.take_along_axis(words, at, axis=1) * (per_seed + 1)
    slow = (per_seed > 0) & ((scaled & 0xFFFFFFFF) < per_seed + 1) | (per_seed >= 0xFFFFFFFF)
    fast = ~slow.any(axis=1) & ~((sizes > 10000) & (k > sizes // 50)).any(axis=1)
    rows = (-1, 2 * k - 1)
    picks = _floyd(bounds.reshape(rows), (scaled >> 32).astype(np.int64).reshape(rows))
    return picks.reshape(sizes.shape + (k,)), at[:, -1:] + 1, fast


def _floyd(bounds: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Floyd's sampling then the shuffle of its k picks, per row of `_choices` bounds."""
    k = (bounds.shape[1] + 1) // 2
    picks = draws[:, :k].copy()
    for i in range(1, k):
        seen = (picks[:, :i] == picks[:, i, None]).any(axis=1)
        picks[seen, i] = bounds[seen, i]  # Floyd: a repeat takes the new top value n-k+i
    rows = np.arange(len(picks))
    for t, i in enumerate(range(k - 1, 0, -1), start=k):
        j = draws[:, t]
        top = picks[:, i].copy()
        picks[:, i] = picks[rows, j]
        picks[rows, j] = top
    return picks


def sample_batch(codes: np.ndarray, spec: BatchSpec, seed: int) -> np.ndarray:
    """m distinct classes, k rows each, uniformly without replacement.

    Rows index ``codes``, the branch codes of the sorted train ids; they are
    `_ClassIndex.draws` of one seed, which `train` makes an epoch at a time.
    """
    return _ClassIndex(codes, spec).draws([seed])[0]


@dataclass(frozen=True, slots=True)
class TrainConfig:
    """``d_out`` is 2: at 512, default multisim training mines no pair on the standard corpus."""

    loss: str = "multisim"
    params: LossParams = field(default_factory=LossParams)
    lr: float = 0.05
    momentum: float = 0.9
    epochs: int = 10
    seed: int = 0
    m: int = 8
    k: int = 4
    d_out: int = 2

    def validate(self) -> None:
        if self.loss not in LOSSES:
            raise TrainError(f"unknown loss {self.loss!r}")
        self.params.validate()
        check_fields(self, TrainError)
        if self.lr <= 0:
            raise TrainError("lr must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise TrainError("momentum must be in [0, 1)")
        if self.epochs < 1:
            raise TrainError("epochs must be >= 1")
        BatchSpec(self.m, self.k)
        if self.d_out < 2:
            raise TrainError("d_out must be >= 2")


@dataclass(eq=False)
class OptimizerState:
    v_weight: np.ndarray
    v_bias: np.ndarray
    bank: ProxyBank | CenterBank | None = None

    @classmethod
    def for_model(cls, model: ToyModel, bank=None) -> "OptimizerState":
        return cls(np.zeros_like(model.weight), np.zeros_like(model.bias), bank)


def _step(model: ToyModel, z: np.ndarray, labels: np.ndarray, config: TrainConfig,
          state: OptimizerState) -> float:
    """One SGD step in place on layernormed rows z; returns the batch loss."""
    y, nu = _project(model, z)
    result = compute_loss(config.loss, Batch(y / nu, labels), config.params, state.bank)
    if not math.isfinite(result.value):
        raise TrainError(
            f"non-finite {config.loss} loss ({result.value}) on batch of {len(labels)}"
        )
    d_weight, d_bias = _backward(z, y, nu, result.grad_embeddings)
    state.v_weight *= config.momentum  # in place, with the rounding of momentum * v + d
    state.v_weight += d_weight
    state.v_bias *= config.momentum
    state.v_bias += d_bias
    model.weight -= config.lr * state.v_weight
    model.bias -= config.lr * state.v_bias
    if state.bank is not None and result.grad_aux is not None:
        # proxies live on the unit sphere; renormalize after each step
        state.bank = type(state.bank)(unit_rows(state.bank.vectors - config.lr * result.grad_aux))
    return result.value


def _two_views(model: ToyModel, feats: np.ndarray, labels: np.ndarray, noise: np.ndarray):
    """Layernormed rows of two noisy views of B samples, and their 2B labels.

    The views stand in for image augmentations; ``noise`` is 2 x B x d_in
    standard normal draws, the first view's then the second's.
    """
    return (_layernorm(model, np.concatenate(feats + SIGMA_AUG * noise)),
            np.concatenate([labels, labels]))


def train_step(
    model: ToyModel,
    features: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
    state: OptimizerState,
    rng: np.random.Generator,
) -> float:
    """One SGD step in place; returns the batch loss."""
    feats = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if LOSSES[config.loss].two_views:
        z, labels = _two_views(model, feats, labels, rng.standard_normal((2,) + feats.shape))
        return _step(model, z, labels, config, state)
    return _step(model, _layernorm(model, feats), labels, config, state)


@dataclass(eq=False)
class TrainHistory:
    rows: list  # (epoch, train_loss, val_r_at_1, val_auc)

    def save(self, path) -> None:
        write_csv(path, ["epoch", "train_loss", "val_r_at_1", "val_auc"],
                  ([row[0], f"{row[1]:.6f}", f"{row[2]:.6f}", f"{row[3]:.6f}"] for row in self.rows))


def train(catalog, assignment, features: EmbeddingMatrix, config: TrainConfig):
    """Train the head on the train split; return (best model, history).

    Best = highest val_ss R@1, earliest epoch on ties.  A train or val_ss id
    that ``features`` lacks raises `EmbedStoreError`, from `EmbeddingMatrix.subset`;
    a head whose val_ss outputs overflow after an epoch raises `TrainError`.
    """
    config.validate()
    oracle = LinkOracle.from_catalog(catalog)
    split_map = assignment.by_split()  # sorted ids
    train_ids, val_ids = split_map["train"], split_map["val_ss"]
    if not train_ids:
        raise TrainError("train split is empty")
    if not val_ids:
        raise TrainError("val_ss split is empty; model selection needs it")
    val_sizes = np.bincount(oracle.codes(val_ids))
    if val_sizes.max() < 2:
        raise TrainError("every val_ss branch is a singleton; model selection needs a pair")
    if len(val_sizes) < 2:
        raise TrainError("val_ss holds one branch; model selection needs negatives from another")

    train_feat = features.subset(train_ids).data.astype(np.float64)
    codes = oracle.codes(train_ids)

    rng = seeded_rng(config.seed)
    model = init_model(features.d, config.d_out, rng.integers(2**63))
    bank_type = LOSSES[config.loss].bank
    bank = None
    if bank_type is not None:
        # banks live in embedding space, so seed them from the head, not the raw features
        sums = np.zeros((codes.max() + 1, config.d_out))
        np.add.at(sums, codes, forward(model, train_feat))
        bank = bank_type.seeded(unit_rows(sums), config.params, rng)
    state = OptimizerState.for_model(model, bank)
    spec = BatchSpec(config.m, config.k)
    index = _ClassIndex(codes, spec)
    steps = max(1, len(train_ids) // spec.size)
    # layernorm is affine-free, so rows are normalized once; views add noise first
    two_views = LOSSES[config.loss].two_views
    train_z = None if two_views else _layernorm(model, train_feat)
    noise = np.empty((steps, 2, spec.size, features.d)) if two_views else None
    val_z = _layernorm(model, features.subset(val_ids).data)

    history = TrainHistory([])
    best = model.copy()
    best_r1 = -1.0
    for epoch in range(1, config.epochs + 1):
        if noise is None:
            seeds = rng.integers(2**63, size=steps)  # the values of `steps` scalar calls
        else:
            seeds = []
            for views in noise:  # a step's seed, then its views' noise
                seeds.append(rng.integers(2**63))
                rng.standard_normal(out=views)
        epoch_losses = []
        for s, rows in enumerate(index.draws(seeds)):
            if noise is None:
                z, labels = train_z[rows], codes[rows]
            else:
                z, labels = _two_views(model, train_feat[rows], codes[rows], noise[s])
            epoch_losses.append(_step(model, z, labels, config, state))
        y, nu = _project(model, val_z)
        if not np.isfinite(nu).all():  # y * y overflowed: the head has diverged
            raise TrainError(f"epoch {epoch}: the head diverged (non-finite val_ss outputs) "
                             f"at lr={config.lr}")
        emb = EmbeddingMatrix(val_ids, (y / nu).astype(np.float32), normalized=True)
        report = evaluate(emb, oracle, EvalOptions(repeats=EVAL_REPEATS,
                                                   seed=rng.integers(2**31)))
        history.rows.append((epoch, float(np.mean(epoch_losses)), report.r_at_1, report.auc_mean))
        if report.r_at_1 > best_r1:
            best_r1 = report.r_at_1
            best = model.copy()
    return best, history


def save_model(path, model: ToyModel) -> None:
    write_frame(path, MODEL_MAGIC, model.d_in, model.d_out, model.weight, model.bias)


def load_model(path) -> ToyModel:
    d_in, d_out, values = read_frame(path, MODEL_MAGIC, TrainError)
    n = d_out * d_in
    if values.size != n + d_out:
        raise TrainError(f"{path}: model size {12 + 4 * values.size} != expected {12 + 4 * (n + d_out)}")
    try:
        return ToyModel(values[:n].reshape(d_out, d_in), values[n:])  # float64 copies
    except TrainError as exc:
        raise TrainError(f"{path}: {exc}") from None
