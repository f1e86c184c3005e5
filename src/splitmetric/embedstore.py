"""Embedding matrix I/O, unit-row normalization, and exact cosine top-k.

Binary layout (little-endian): magic ``EMB1``, u32 N, u32 d, then N*d float32
values row-major.  Image ids live in a companion text file ``<path>.ids``,
one id per row, same order.  Search is exact brute force through one
routine, `top_k`, in float64 with ties to the smaller gallery index: 512
query rows at a time into buffers the call owns, O(512 * N) per worker, in
whole-block numpy passes with no Python loop per row, so a second thread
speeds it up.  Its block shape and separate inputs fix the bits.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"EMB1"


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
        """Rows for the given ids, in the given order."""
        row = self.row_of()
        missing = [i for i in ids if i not in row]
        if missing:
            raise EmbedStoreError(f"ids not in matrix: {missing[:5]!r}")
        idx = np.array([row[i] for i in ids], dtype=np.intp)
        return EmbeddingMatrix(tuple(ids), self.data[idx], self.normalized)


@dataclass(frozen=True, slots=True)
class NeighborList:
    indices: np.ndarray  # Q x k gallery row indices
    similarities: np.ndarray  # Q x k, descending per row


def _ids_path(path: Path) -> Path:
    return Path(str(path) + ".ids")


def write_embeddings(matrix: EmbeddingMatrix, path: str | Path) -> None:
    """Raises before writing when an id holds a line break, which the ``.ids`` file cannot."""
    ids_text = "".join(i + "\n" for i in matrix.ids)
    if ids_text.splitlines() != list(matrix.ids):
        bad = next(i for i in matrix.ids if (i + "\n").splitlines() != [i])
        raise EmbedStoreError(f"id {bad!r} holds a line break")
    path = Path(path)
    with path.open("wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", matrix.n, matrix.d))
        f.write(np.ascontiguousarray(matrix.data, dtype="<f4").tobytes())
    _ids_path(path).write_text(ids_text, encoding="utf-8")


def read_embeddings(path: str | Path) -> EmbeddingMatrix:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != MAGIC:
        raise EmbedStoreError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 12:
        raise EmbedStoreError(f"{path}: truncated header")
    n, d = struct.unpack("<II", raw[4:12])
    if d < 1:
        raise EmbedStoreError(f"{path}: d must be >= 1")
    expected = 12 + 4 * n * d
    if len(raw) != expected:
        raise EmbedStoreError(f"{path}: size {len(raw)} does not match {n}x{d} ({expected} bytes)")
    data = np.frombuffer(raw, dtype="<f4", count=n * d, offset=12).reshape(n, d)
    ids_file = _ids_path(path)
    if not ids_file.exists():
        raise EmbedStoreError(f"missing id file {ids_file}")
    ids = tuple(ids_file.read_text(encoding="utf-8").splitlines())
    if len(ids) != n:
        raise EmbedStoreError(f"{ids_file}: {len(ids)} ids for {n} rows")
    return EmbeddingMatrix(ids, data.copy())


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


def top_k(q: np.ndarray, g: np.ndarray, k: int, q_group: np.ndarray, g_group: np.ndarray,
          threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k gallery rows per unit query row, as (indices, similarities).

    Cells whose query and gallery groups are equal score -inf.  Each row is
    ordered by (-similarity, ascending gallery index), ties on the k-th value
    included; needs k <= len(g).  For k = 1 that is one ``argmax`` per block:
    its first maximum is the smallest index, and a row that is all -inf gives
    index 0 with similarity -inf, as for any k.

    For k > 1, a block's columns are cut into ``chunks = min(n_g, 4k)``
    strided chunks (chunk j holds columns j, j + chunks, ...; the last
    ``n_g % chunks`` columns are in none).  A row's k-th largest chunk
    maximum is at most its k-th best cell, since k cells reach it, so every
    cell of the top k, ties included, is at or above that bound.  One
    ``flatnonzero`` takes the block's cells at or above their row's bound,
    and one ``lexsort`` by (row, -similarity, index) orders them; each row
    keeps its first k.  Strides matter: a row's best cells often sit in
    adjacent columns, and a contiguous chunk would hold them all and loosen
    the bound.  A row with fewer than k finite chunk maxima has bound -inf,
    so all its cells are candidates.

    Memory belongs to the call: the calling thread makes one float64 block
    of ``min(512, n_q) x n_g`` per worker (plus a bool mask of that shape for
    k > 1 only), and worker w of ``min(threads, blocks)`` scores 512-row
    query blocks w, w + workers, ...; one worker runs on the calling thread.
    Same-group cells are struck by index, from one argsort of ``g_group``,
    in slabs whose index arrays stay under one mask.  Block shape and separate
    inputs fix the bits: on OpenBLAS a 1-row block or a column split can round
    many cells differently, another row count a few unless n_g % 8 == 0, and
    ``a @ a.T`` on one buffer runs a symmetric kernel.
    """
    if threads < 1:
        raise EmbedStoreError("threads must be >= 1")
    n_q, n_g = len(q), len(g)
    indices = np.empty((n_q, k), dtype=np.intp)
    sims = np.empty((n_q, k), dtype=np.float64)
    by_group = np.argsort(g_group)
    first, last = (np.searchsorted(g_group[by_group], q_group, side) for side in ("left", "right"))
    offset = np.cumsum(np.r_[0, last - first])  # row r's run: cells offset[r]:offset[r + 1]
    starts = range(0, n_q, 512)
    workers = min(threads, len(starts))
    shape = (min(512, n_q), n_g)
    slab = max(1, shape[0] * n_g // 64)  # five int64 arrays of a slab < one bool mask
    buffers = [(np.empty(shape), np.empty(shape, bool) if k > 1 else None) for _ in range(workers)]

    def score(lo: int, block: np.ndarray, mask: np.ndarray | None) -> None:
        b = min(512, n_q - lo)
        block = np.matmul(q[lo:lo + b], g.T, out=block[:b])
        for c in range(offset[lo], offset[lo + b], slab):
            cell = np.arange(c, min(c + slab, offset[lo + b]))
            row = np.searchsorted(offset, cell, side="right") - 1
            block[row - lo, by_group[first[row] + cell - offset[row]]] = -np.inf
        if k == 1:
            best = block.argmax(axis=1)
            indices[lo:lo + b, 0] = best
            sims[lo:lo + b, 0] = block[np.arange(b), best]
            return
        chunks = min(n_g, 4 * k)  # >= k >= 2 here, since k <= n_g
        width = n_g // chunks
        maxima = block[:, :width * chunks].reshape(b, width, chunks).max(axis=1)
        bound = np.partition(maxima, chunks - k, axis=1)[:, chunks - k]
        flat = np.flatnonzero(np.greater_equal(block, bound[:, None], out=mask[:b]))
        rows, cols = np.divmod(flat, n_g)
        vals = block.reshape(-1)[flat]
        order = np.lexsort((cols, -vals, rows))
        take = order[np.searchsorted(rows, np.arange(b))[:, None] + np.arange(k)]
        indices[lo:lo + b] = cols[take]
        sims[lo:lo + b] = vals[take]

    def work(w: int) -> None:
        for lo in starts[w::workers]:
            score(lo, *buffers[w])

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
    self_row = np.full(queries.n, -1, dtype=np.intp)
    if exclude_self:
        gallery_row = gallery.row_of()
        for qi, qid in enumerate(queries.ids):
            if qid not in gallery_row:
                raise EmbedStoreError(f"exclude_self: query id {qid!r} not in gallery")
            self_row[qi] = gallery_row[qid]
    return NeighborList(*top_k(unit_rows(queries.data), unit_rows(gallery.data), k, self_row,
                               np.arange(gallery.n), threads))
