"""Embedding matrix I/O, unit-row normalization, and exact cosine top-k.

EMB1 is the package's binary frame: magic ``EMB1``, u32 N, u32 d, then N*d
float32 values row-major.  Image ids live in a UTF-8 text file beside it
(`ids_path`), one id per row, same order.  Search is exact brute force
through one routine, `top_k`, in float64 with ties to the smaller gallery
index: 512 query rows by 2,048 gallery columns at a time into one buffer per
worker that the call owns, 8 MB whatever N is, in whole-slab numpy passes
with no Python loop per row, so a second thread speeds it up.  Its block and
slab shapes and separate inputs fix the bits.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from . import read_frame, read_text, write_frame

MAGIC = b"EMB1"
BLOCK = 512  # query rows scored together
SLAB = 2048  # gallery columns scored together; a power of two


class EmbedStoreError(ValueError):
    pass


@dataclass(frozen=True)
class EmbeddingMatrix:
    ids: tuple[str, ...]
    data: np.ndarray  # N x d float32
    normalized: bool = False

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float32)
        if data.ndim != 2:
            raise EmbedStoreError(f"data must be 2-D, got shape {data.shape}")
        if data.shape[1] < 1:
            raise EmbedStoreError("d must be >= 1")
        if len(self.ids) != data.shape[0]:
            raise EmbedStoreError(f"{len(self.ids)} ids for {data.shape[0]} rows")
        if len(set(self.ids)) != len(self.ids):
            raise EmbedStoreError("ids must be unique")
        finite = np.isfinite(data).all(axis=1)
        if not finite.all():
            raise EmbedStoreError(f"row {np.flatnonzero(~finite)[0]} has non-finite values")
        object.__setattr__(self, "data", data)
        if self.normalized and data.shape[0]:
            norms = np.linalg.norm(data.astype(np.float64), axis=1)
            bad = np.nonzero(np.abs(norms - 1.0) > 1e-5)[0]
            if bad.size:
                raise EmbedStoreError(f"row {bad[0]} norm {norms[bad[0]]:.6g} but normalized flag set")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def row_of(self) -> dict[str, int]:
        return {img: i for i, img in enumerate(self.ids)}

    def subset(self, ids: list[str] | tuple[str, ...]) -> "EmbeddingMatrix":
        """Rows for the given ids, in the given order; the matrix itself if that is its order."""
        ids = tuple(ids)
        if ids == self.ids:  # rows this matrix already checked
            return self
        row = self.row_of()
        missing = [i for i in ids if i not in row]
        if missing:
            raise EmbedStoreError(f"ids not in matrix: {missing[:5]!r}")
        idx = np.array([row[i] for i in ids], dtype=np.intp)
        return EmbeddingMatrix(ids, self.data[idx], self.normalized)

    def unit(self) -> np.ndarray:
        """The rows as `unit_rows` scales them; a zero row is refused by its image id."""
        zero = np.flatnonzero(~self.data.any(axis=1))
        if zero.size:
            raise EmbedStoreError(f"image {self.ids[zero[0]]!r} has a zero row, "
                                  "which has no direction")
        return unit_rows(self.data)


@dataclass(frozen=True, slots=True)
class NeighborList:
    indices: np.ndarray  # Q x k gallery row indices
    similarities: np.ndarray  # Q x k, descending per row


def ids_path(path) -> Path:
    """The companion file ``<path>.ids`` that holds the ids of the EMB1 matrix at ``path``."""
    return Path(f"{path}.ids")


def write_embeddings(matrix: EmbeddingMatrix, path: str | Path) -> None:
    """Raises before writing when an id holds a line break, which the ``.ids`` file cannot."""
    ids_text = "".join(i + "\n" for i in matrix.ids)
    if ids_text.splitlines() != list(matrix.ids):
        bad = next(i for i in matrix.ids if (i + "\n").splitlines() != [i])
        raise EmbedStoreError(f"id {bad!r} holds a line break")
    write_frame(path, MAGIC, matrix.n, matrix.d, matrix.data)
    ids_path(path).write_text(ids_text, encoding="utf-8")


def read_embeddings(path: str | Path) -> EmbeddingMatrix:
    n, d, values = read_frame(path, MAGIC, EmbedStoreError)
    if d < 1:
        raise EmbedStoreError(f"{path}: d must be >= 1")
    if values.size != n * d:
        raise EmbedStoreError(f"{path}: size {12 + 4 * values.size} does not match {n}x{d}")
    ids_file = ids_path(path)
    if not ids_file.exists():
        raise EmbedStoreError(f"missing id file {ids_file}")
    ids = tuple(read_text(ids_file, EmbedStoreError).splitlines())
    if len(ids) != n:
        raise EmbedStoreError(f"{ids_file}: {len(ids)} ids for {n} rows")
    try:
        return EmbeddingMatrix(ids, values.reshape(n, d).copy())
    except EmbedStoreError as exc:
        raise EmbedStoreError(f"{path}: {exc}") from None


def unit_rows(rows) -> np.ndarray:
    """``rows`` in float64, scaled to unit L2 norm along the last axis.

    A zero or non-finite row has no direction and raises.
    """
    x = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    flat = norms.reshape(-1)
    zero = np.flatnonzero(flat == 0.0)
    if zero.size:
        raise EmbedStoreError(f"zero row {zero[0]} has no direction")
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise EmbedStoreError(f"non-finite row {bad[0]} has no direction")
    return x / norms


def _fold(x: np.ndarray, width: int) -> np.ndarray:
    """Row-wise maxima of the columns j of ``x`` with equal ``j % width``; ``x`` if narrower."""
    if x.shape[1] <= width:
        return x
    whole = x.shape[1] - x.shape[1] % width
    out = x[:, :whole].reshape(len(x), -1, width).max(axis=1)
    tail = x.shape[1] - whole
    np.maximum(out[:, :tail], x[:, whole:], out=out[:, :tail])
    return out


def top_k(q: np.ndarray, g: np.ndarray, k: int, q_group: np.ndarray, g_group: np.ndarray,
          threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k gallery rows per unit query row, as (indices, similarities).

    Cells whose query and gallery groups are equal score -inf.  Each row is
    ordered by (-similarity, ascending gallery index), ties on the k-th value
    included; needs k <= len(g).  Each ``BLOCK``-row query block is scored
    against the gallery one ``SLAB``-column slab at a time, and each row keeps
    a running selection across the slabs.  For k = 1 that is one ``argmax``
    per slab, merged into the row's best with a strict ``>``: ties keep the
    smaller index, and a row that is all -inf gives index 0 with similarity
    -inf, as for any k.

    For k > 1, gallery column c feeds running maximum ``c % chunks``, where
    ``chunks`` is the power of two at or above 4k, so the maxima stride
    across the columns.  A row's k-th largest maximum is at most its k-th
    best cell, since k distinct cells reach it, and it only rises from slab
    to slab.  Each slab is read once more, to fold its columns to the maxima
    of those equal mod ``span`` (a power of two near an eighth of the slab,
    at most 256, or ``chunks`` if wider); the folds at or above the row's
    bound hold every cell that is, and only their cells are read again.
    When the block is done, the cells still at or above the final bound are
    ordered by one ``lexsort`` by (row, -similarity, index), and each row
    keeps its first k.  Strides matter: a row's best cells often sit in
    adjacent columns, and a contiguous chunk would hold them all and loosen
    the bound.  A -inf cell belongs in a row's top k only if the row
    has fewer than k finite cells, and then the ones it needs are its first
    by index, all in columns < k: those are the only -inf candidates, so a
    row whose bound is -inf gives up its finite cells and no others.

    Memory belongs to the call, and nothing in it grows with n_g but index
    arrays and a few candidates per row and slab: the calling thread makes
    one float64 buffer of ``min(BLOCK, n_q) x min(SLAB, n_g)`` per worker, and
    for k > 1 a slab's fold adds ``span`` float64 columns.  Worker w of
    ``min(threads, blocks)`` scores query blocks w, w + workers, ...; a lone
    worker runs on the calling thread, and two or more run each on a pool
    thread.  Same-group cells are struck by index: one stable argsort of
    ``g_group`` lists each group's columns in ascending order, two
    ``searchsorted`` calls cut each row's run at a slab edge inside the
    gallery, and the struck cells are written in pieces whose index arrays
    take under a byte per buffer cell.  Block shape and separate
    inputs fix the bits: on OpenBLAS a 1-row block or a column split can
    round many cells differently, another row count or slab edge a few
    unless the widths are multiples of 8, and ``a @ a.T`` on one buffer runs
    a symmetric kernel.  A gallery of at most ``SLAB`` rows is one slab, the
    same product as one whole-gallery block.
    """
    if threads < 1:
        raise EmbedStoreError("threads must be >= 1")
    n_q, n_g = len(q), len(g)
    indices = np.empty((n_q, k), dtype=np.intp)
    sims = np.empty((n_q, k), dtype=np.float64)
    by_group = np.argsort(g_group, kind="stable")
    group = g_group[by_group]
    first, last = (np.searchsorted(group, q_group, side) for side in ("left", "right"))
    # sorted keys (start of the column's group run, column), for slab edges inside the gallery
    key = np.searchsorted(group, group) * n_g + by_group if n_g > SLAB else None
    starts = range(0, n_q, BLOCK)
    workers = min(threads, len(starts))
    size = min(BLOCK, n_q) * min(SLAB, n_g)
    piece = max(1, size // 64)  # five int64 arrays of a piece: 5/8 byte per buffer cell
    buffers = [np.empty(size) for _ in range(workers)]
    chunks = 1 << (4 * k - 1).bit_length()  # a power of two, like SLAB: no slab wraps around it
    lowest = -np.finfo(np.float64).max  # a bound at or above it takes no -inf cell

    def cut(c: int, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi's positions in ``by_group`` of their first same-group column >= c."""
        if c in (0, n_g):
            return (first if c == 0 else last)[lo:hi]
        return np.minimum(np.searchsorted(key, first[lo:hi] * n_g + c), last[lo:hi])

    def score(lo: int, flat: np.ndarray) -> None:
        b = min(BLOCK, n_q - lo)
        rows = np.arange(b)
        best = np.zeros(b, dtype=np.intp)
        top = np.full((b, chunks) if k > 1 else b, -np.inf)
        found = []
        for c0 in range(0, n_g, SLAB):
            c1 = min(c0 + SLAB, n_g)
            w = c1 - c0
            block = np.matmul(q[lo:lo + b], g[c0:c1].T, out=flat[:b * w].reshape(b, w))
            start = cut(c0, lo, lo + b)  # row r's struck cells: offset[r]:offset[r + 1]
            offset = np.cumsum(np.r_[0, cut(c1, lo, lo + b) - start])
            for c in range(0, offset[-1], piece):
                cell = np.arange(c, min(c + piece, offset[-1]))
                row = np.searchsorted(offset, cell, side="right") - 1
                block[row, by_group[start[row] + cell - offset[row]] - c0] = -np.inf
            if k == 1:
                col = block.argmax(axis=1)
                val = block[rows, col]
                better = val > top  # a tie keeps the earlier, smaller column
                best[better] = col[better] + c0
                top[better] = val[better]
                continue
            span = max(chunks, min(256, 1 << (w // 16).bit_length()))  # in (w/16, w/8] if it can
            level = _fold(block, span)  # column j -> j % span
            local = _fold(level, chunks)  # -> j % chunks, since chunks divides span
            part = top[:, c0 % chunks:][:, :local.shape[1]]  # column c0 + j -> (c0 + j) % chunks
            np.maximum(part, local, out=part)
            bound = np.maximum(np.partition(top, chunks - k, axis=1)[:, chunks - k], lowest)
            row, fold = np.divmod(np.flatnonzero(level >= bound[:, None]), level.shape[1])
            cell = (row * w + fold)[:, None] + np.arange(0, w, span)  # the folds' cells, flat
            v = np.take(block, cell, mode="clip")
            v[fold >= w - span * (v.shape[1] - 1), -1] = -np.inf  # only w % span folds reach w
            keep = np.flatnonzero(v >= bound[row, None])
            r, c = np.divmod(cell.reshape(-1)[keep], w)
            found.append((r, c + c0, v.reshape(-1)[keep]))
            if c0 < k:
                r, c = np.nonzero(np.isneginf(block[:, :k - c0]))
                found.append((r, c + c0, block[r, c]))
        if k == 1:
            indices[lo:lo + b, 0] = best
            sims[lo:lo + b, 0] = top
            return
        r, c, v = (np.concatenate(part) for part in zip(*found))
        keep = np.flatnonzero((v >= bound[r]) | (v == -np.inf))
        r, c, v = r[keep], c[keep], v[keep]
        order = np.lexsort((c, -v, r))
        take = order[np.searchsorted(r[order], rows)[:, None] + np.arange(k)]
        indices[lo:lo + b] = c[take]
        sims[lo:lo + b] = v[take]

    def work(w: int) -> None:
        for lo in starts[w::workers]:
            score(lo, buffers[w])

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(workers)))
    else:
        list(map(work, range(workers)))  # zero or one worker: the calling thread
    return indices, sims


def cosine_knn(
    queries: EmbeddingMatrix,
    gallery: EmbeddingMatrix,
    k: int,
    exclude_self: bool = False,
    threads: int = 1,
) -> NeighborList:
    """Exact top-k gallery rows by cosine similarity, ties by ascending index."""
    if queries.d != gallery.d:
        raise EmbedStoreError(f"dimension mismatch: {queries.d} vs {gallery.d}")
    if k < 1:
        raise EmbedStoreError("k must be >= 1")
    available = gallery.n - (1 if exclude_self else 0)
    if k > available:
        raise EmbedStoreError(f"k={k} exceeds {available} available gallery rows")
    if not exclude_self:
        self_row = np.full(queries.n, -1)
    elif queries is gallery:
        self_row = np.arange(gallery.n)
    else:
        row = gallery.row_of()
        self_row = np.fromiter(map(row.get, queries.ids, repeat(-1)), np.intp, queries.n)
        if (self_row < 0).any():
            qid = queries.ids[np.argmax(self_row < 0)]
            raise EmbedStoreError(f"exclude_self: query id {qid!r} not in gallery")
    q = queries.unit()
    # a self-join scales its rows once; the copy is the separate buffer that fixes the bits
    g = q.copy() if queries is gallery else gallery.unit()
    return NeighborList(*top_k(q, g, k, self_row, np.arange(gallery.n), threads))
