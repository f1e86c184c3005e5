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
step).  Each step runs the head once for both the loss and its gradient, and
draws its batch from a class index built once per run.  The draw keeps the
stream of one ``Generator.choice(replace=False)`` for the classes and one per
class, but makes those bounded draws with two `integers` calls (`_choice_rows`),
so seeded batches are bit-identical to the `choice` draw.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import check_fields, seeded_rng
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
    return np.sqrt(np.sum(y * y, axis=1, keepdims=True) + 1e-12)


def _project(model: ToyModel, z: np.ndarray):
    """The projection y = W.z + b of layernormed rows z, and its row norm nu."""
    y = z @ model.weight.T + model.bias
    return y, _norm(y)


def _backward(z: np.ndarray, y: np.ndarray, nu: np.ndarray, g: np.ndarray):
    """Gradient w.r.t. (W, b) from the head's (z, y, nu) and g = dL/d(y / nu)."""
    # h = y / nu  =>  dL/dy = g/nu - y * (y.g) / nu^3
    dy = g / nu - y * np.sum(y * g, axis=1, keepdims=True) / nu**3
    return dy.T @ z, dy.sum(axis=0)


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

    def draw(self, seed: int) -> np.ndarray:
        """m distinct eligible classes, then k distinct rows of each, in that order.

        The rows are those of ``rng.choice(len(eligible), m, replace=False)``
        followed by one ``rng.choice(size, k, replace=False)`` per class, but
        drawn by `_choice_rows` in two `integers` calls on the same stream.
        """
        rng = seeded_rng(seed)
        m, k = self.spec.m, self.spec.k
        classes = self.eligible[_choice_rows(rng, [len(self.eligible)], m)]
        offsets = _choice_rows(rng, self.sizes[classes].tolist(), k)
        return self.order[np.repeat(self.starts[classes], k) + offsets]


def _choice_rows(rng: np.random.Generator, sizes: list, k: int) -> list:
    """What ``rng.choice(n, size=k, replace=False)`` returns for each n in turn, concatenated.

    numpy (2.4) makes each such call from bounded draws on [0, bound]: for
    n <= 10000 or k <= n // 50, Floyd's sampling (bounds n-k .. n-1) and a
    Fisher-Yates shuffle of the k picks (bounds k-1 .. 1); otherwise a tail
    Fisher-Yates over range(n) (bounds n-1 down to max(n-k, 1)), keeping its
    last k slots.  `integers` with int64 bounds makes the same draws one by
    one, so one call serves every size and the stream is left where the
    `choice` calls would leave it.  numpy does not promise this across
    versions; the trainer tests pin it to `choice`.
    """
    bounds = []
    for n in sizes:
        if n > 10000 and k > n // 50:
            bounds += range(n - 1, max(n - k, 1) - 1, -1)
        else:
            bounds += range(n - k, n)
            bounds += range(k - 1, 0, -1)
    draws = iter(rng.integers(0, bounds, endpoint=True).tolist())
    out = []
    for n in sizes:
        if n > 10000 and k > n // 50:
            moved = {}  # slot -> value, where it differs from the slot
            for i in range(n - 1, max(n - k, 1) - 1, -1):
                j = next(draws)
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            out += [moved.get(i, i) for i in range(n - k, n)]
            continue
        picks, seen = [], set()
        for j in range(n - k, n):
            v = next(draws)
            v = j if v in seen else v  # Floyd: a repeat takes the new top value j
            seen.add(v)
            picks.append(v)
        for i in range(k - 1, 0, -1):
            j = next(draws)
            picks[i], picks[j] = picks[j], picks[i]
        out += picks
    return out


def sample_batch(codes: np.ndarray, spec: BatchSpec, seed: int) -> np.ndarray:
    """m distinct classes, k rows each, uniformly without replacement.

    Rows index ``codes``, the branch codes of the sorted train ids.  `train`
    builds the class index once and draws from it every step.
    """
    return _ClassIndex(codes, spec).draw(seed)


@dataclass(frozen=True, slots=True)
class TrainConfig:
    loss: str = "multisim"
    params: LossParams = field(default_factory=LossParams)
    lr: float = 0.05
    momentum: float = 0.9
    epochs: int = 10
    seed: int = 0
    m: int = 8
    k: int = 4
    d_out: int = 512

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
    if not np.isfinite(result.value):
        raise TrainError(
            f"non-finite {config.loss} loss ({result.value}) on batch of {len(labels)}"
        )
    d_weight, d_bias = _backward(z, y, nu, result.grad_embeddings)
    state.v_weight = config.momentum * state.v_weight + d_weight
    state.v_bias = config.momentum * state.v_bias + d_bias
    model.weight -= config.lr * state.v_weight
    model.bias -= config.lr * state.v_bias
    if state.bank is not None and result.grad_aux is not None:
        # proxies live on the unit sphere; renormalize after each step
        state.bank = type(state.bank)(unit_rows(state.bank.vectors - config.lr * result.grad_aux))
    return result.value


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
        # two noisy views per sample stand in for image augmentations
        feats = np.concatenate([
            feats + SIGMA_AUG * rng.standard_normal(feats.shape),
            feats + SIGMA_AUG * rng.standard_normal(feats.shape),
        ])
        labels = np.concatenate([labels, labels])
    return _step(model, _layernorm(model, feats), labels, config, state)


@dataclass(eq=False)
class TrainHistory:
    rows: list  # (epoch, train_loss, val_r_at_1, val_auc)

    def save(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_r_at_1", "val_auc"])
            for row in self.rows:
                writer.writerow([row[0], f"{row[1]:.6f}", f"{row[2]:.6f}", f"{row[3]:.6f}"])


def train(catalog, assignment, features: EmbeddingMatrix, config: TrainConfig):
    """Train the head on the train split; return (best model, history).

    Best = highest val_ss R@1, earliest epoch on ties.
    """
    config.validate()
    oracle = LinkOracle.from_catalog(catalog)
    split_map = assignment.by_split()
    train_ids = sorted(split_map["train"])
    val_ids = sorted(split_map["val_ss"])
    if not train_ids:
        raise TrainError("train split is empty")
    if not val_ids:
        raise TrainError("val_ss split is empty; model selection needs it")

    row_of = {image_id: i for i, image_id in enumerate(features.ids)}
    missing = [i for i in train_ids + val_ids if i not in row_of]
    if missing:
        raise TrainError(f"features missing for {len(missing)} images, e.g. {missing[0]!r}")
    train_feat = features.data[[row_of[i] for i in train_ids]].astype(np.float64)
    val_feat = features.data[[row_of[i] for i in val_ids]].astype(np.float64)
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
    train_z = None if LOSSES[config.loss].two_views else _layernorm(model, train_feat)
    val_z = _layernorm(model, val_feat)

    history = TrainHistory([])
    best = model.copy()
    best_r1 = -1.0
    for epoch in range(1, config.epochs + 1):
        epoch_losses = []
        for _ in range(steps):
            rows = index.draw(rng.integers(2**63))
            if train_z is None:
                loss = train_step(model, train_feat[rows], codes[rows], config, state, rng)
            else:
                loss = _step(model, train_z[rows], codes[rows], config, state)
            epoch_losses.append(loss)
        y, nu = _project(model, val_z)
        emb = EmbeddingMatrix(tuple(val_ids), (y / nu).astype(np.float32), normalized=True)
        report = evaluate(emb, oracle, EvalOptions(repeats=EVAL_REPEATS,
                                                   seed=rng.integers(2**31)))
        history.rows.append((epoch, float(np.mean(epoch_losses)), report.r_at_1, report.auc_mean))
        if report.r_at_1 > best_r1:
            best_r1 = report.r_at_1
            best = model.copy()
    return best, history


def save_model(path, model: ToyModel) -> None:
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<II", model.d_in, model.d_out))
        fh.write(model.weight.astype("<f4").tobytes(order="C"))
        fh.write(model.bias.astype("<f4").tobytes())


def load_model(path) -> ToyModel:
    blob = Path(path).read_bytes()
    if blob[:4] != MODEL_MAGIC:
        raise TrainError(f"bad model magic {blob[:4]!r}")
    if len(blob) < 12:
        raise TrainError("truncated model header")
    d_in, d_out = struct.unpack_from("<II", blob, 4)
    expected = 12 + 4 * (d_out * d_in + d_out)
    if len(blob) != expected:
        raise TrainError(f"model size {len(blob)} != expected {expected}")
    w = np.frombuffer(blob, dtype="<f4", count=d_out * d_in, offset=12)
    b = np.frombuffer(blob, dtype="<f4", count=d_out, offset=12 + 4 * d_out * d_in)
    return ToyModel(w.reshape(d_out, d_in).astype(np.float64), b.astype(np.float64))
