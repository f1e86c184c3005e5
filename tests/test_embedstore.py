import itertools
import re
import struct
import tracemalloc

import numpy as np
import pytest

from splitmetric import embedstore
from splitmetric.embedstore import (
    EmbeddingMatrix,
    EmbedStoreError,
    cosine_knn,
    read_embeddings,
    top_k,
    unit_rows,
    write_embeddings,
)


def matrix(rows, ids=None, normalized=False):
    data = np.asarray(rows, dtype=np.float32)
    if ids is None:
        ids = tuple(f"i{j}" for j in range(data.shape[0]))
    return EmbeddingMatrix(tuple(ids), data, normalized)


class TestIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = matrix(rng.standard_normal((37, 9)).astype(np.float32))
        p = tmp_path / "e.emb"
        write_embeddings(m, p)
        back = read_embeddings(p)
        assert back.ids == m.ids
        assert back.data.tobytes() == m.data.tobytes()

    def test_empty_matrix_round_trip(self, tmp_path):
        m = EmbeddingMatrix((), np.zeros((0, 5), dtype=np.float32))
        p = tmp_path / "e.emb"
        write_embeddings(m, p)
        back = read_embeddings(p)
        assert back.n == 0 and back.d == 5

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "e.emb"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(EmbedStoreError, match="magic"):
            read_embeddings(p)

    def test_truncated_payload(self, tmp_path):
        m = matrix(np.ones((4, 3)))
        p = tmp_path / "e.emb"
        write_embeddings(m, p)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(EmbedStoreError, match="size|truncated"):
            read_embeddings(p)

    @pytest.mark.parametrize("blob", [
        b"NOPE" + bytes(16),  # bad magic
        b"EMB1" + bytes(9),  # 13 bytes: no whole float32 after the header
        b"EMB1" + struct.pack("<II", 3, 2) + bytes(4 * 5),  # 5 values for a 3 x 2 header
    ])
    def test_a_bad_frame_names_its_file(self, tmp_path, blob):
        p = tmp_path / "e.emb"
        p.write_bytes(blob)
        with pytest.raises(EmbedStoreError, match=f"^{re.escape(str(p))}: (bad magic|size) "):
            read_embeddings(p)

    @pytest.mark.parametrize("values, ids, message", [
        ([np.nan, 0.0, 1.0, 1.0], "a\nb\n", "row 0 has non-finite values"),
        ([1.0, 0.0, 1.0, 1.0], "a\na\n", "ids must be unique"),
    ])
    def test_bad_values_in_a_sound_frame_name_the_file(self, tmp_path, values, ids, message):
        p = tmp_path / "e.emb"
        p.write_bytes(b"EMB1" + struct.pack("<II", 2, 2) + np.array(values, "<f4").tobytes())
        (tmp_path / "e.emb.ids").write_text(ids)
        with pytest.raises(EmbedStoreError, match=f"^{re.escape(str(p))}: {message}$"):
            read_embeddings(p)

    def test_missing_ids_file(self, tmp_path):
        m = matrix(np.ones((2, 2)))
        p = tmp_path / "e.emb"
        write_embeddings(m, p)
        (tmp_path / "e.emb.ids").unlink()
        with pytest.raises(EmbedStoreError, match="id file"):
            read_embeddings(p)

    def test_id_count_mismatch(self, tmp_path):
        m = matrix(np.ones((3, 2)))
        p = tmp_path / "e.emb"
        write_embeddings(m, p)
        (tmp_path / "e.emb.ids").write_text("only-one\n")
        with pytest.raises(EmbedStoreError, match="ids for"):
            read_embeddings(p)

    @pytest.mark.parametrize("brk", ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\u2028", "\u2029"])
    def test_id_with_a_line_break_is_not_written(self, tmp_path, brk):
        m = matrix(np.ones((2, 2)), ids=("ok", f"a{brk}b"))
        with pytest.raises(EmbedStoreError, match=f"^id {re.escape(repr(m.ids[1]))} "):
            write_embeddings(m, tmp_path / "e.emb")
        assert list(tmp_path.iterdir()) == []

    def test_ids_without_line_breaks_round_trip(self, tmp_path):
        m = matrix(np.ones((4, 2)), ids=("", "a b", "a\tb", "\u00e9\u2027\x1f"))
        write_embeddings(m, tmp_path / "e.emb")
        assert read_embeddings(tmp_path / "e.emb").ids == m.ids

    def test_duplicate_ids_rejected(self):
        with pytest.raises(EmbedStoreError, match="unique"):
            matrix(np.ones((2, 2)), ids=("a", "a"))

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(EmbedStoreError, match="row 1 has non-finite"):
            matrix([[1.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(EmbedStoreError, match="non-finite"):
            matrix([[np.inf, 0.0]])
        p = tmp_path / "e.emb"
        p.write_bytes(b"EMB1" + np.array([1, 2], "<u4").tobytes()
                      + np.array([0.5, np.nan], "<f4").tobytes())
        (tmp_path / "e.emb.ids").write_text("a\n")
        with pytest.raises(EmbedStoreError, match="non-finite"):
            read_embeddings(p)

    def test_subset_orders_rows(self):
        m = matrix([[1, 0], [2, 0], [3, 0]], ids=("a", "b", "c"))
        s = m.subset(["c", "a"])
        assert s.ids == ("c", "a")
        assert s.data[:, 0].tolist() == [3.0, 1.0]
        with pytest.raises(EmbedStoreError, match="not in matrix"):
            m.subset(["zzz"])

    def test_subset_in_the_matrix_order_is_the_matrix(self):
        m = matrix([[1, 0], [2, 0], [3, 0]], ids=("a", "b", "c"))
        assert m.subset(m.ids) is m
        assert m.subset(["a", "b", "c"]) is m
        assert m.subset(iter(["a", "b", "c"])) is m
        again = m.subset(["a", "c", "b"])
        assert again is not m and again.ids == ("a", "c", "b")
        with pytest.raises(EmbedStoreError, match=r"^ids not in matrix: \['zzz'\]$"):
            m.subset(["a", "b", "c", "zzz"])
        with pytest.raises(EmbedStoreError, match="^ids must be unique$"):
            m.subset(["a", "b", "c", "a"])


class TestNormalize:
    def test_three_four_row(self):
        out = unit_rows(np.array([[3.0, 4.0]], dtype=np.float32))
        assert out.dtype == np.float64
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)
        assert matrix(out, normalized=True).normalized

    def test_zero_row_rejected(self):
        with pytest.raises(EmbedStoreError, match="zero row 1"):
            unit_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_non_finite_row_rejected(self):
        with pytest.raises(EmbedStoreError, match="non-finite row 0"):
            unit_rows(np.array([[np.nan, 1.0], [1.0, 0.0]]))
        with pytest.raises(EmbedStoreError, match="non-finite row 1"):
            unit_rows(np.array([[1.0, 0.0], [np.inf, 1.0]]))

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        once = unit_rows(rng.standard_normal((50, 8)) * 10)
        twice = unit_rows(once)
        assert np.max(np.abs(once - twice)) < 1e-15

    def test_unit_norms(self):
        rng = np.random.default_rng(4)
        out = unit_rows(rng.standard_normal((20, 6)))
        norms = np.linalg.norm(out, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_last_axis_of_center_bank(self):
        rng = np.random.default_rng(5)
        bank = rng.standard_normal((4, 5, 6))
        out = unit_rows(bank)
        assert out.shape == (4, 5, 6)
        assert np.allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-12)
        assert np.array_equal(out.reshape(20, 6), unit_rows(bank.reshape(20, 6)))

    def test_matrix_unit_names_a_zero_row_by_its_id(self):
        rng = np.random.default_rng(6)
        m = matrix(rng.standard_normal((5, 3)), ids=("e", "d", "c", "b", "a"))
        assert np.array_equal(m.unit(), unit_rows(m.data))
        zeroed = matrix(np.r_[m.data[:3], np.zeros((1, 3)), m.data[4:]], ids=m.ids)
        with pytest.raises(EmbedStoreError,
                           match="^image 'b' has a zero row, which has no direction$"):
            zeroed.unit()

    def test_normalized_flag_checks_rows(self):
        with pytest.raises(EmbedStoreError, match="norm"):
            matrix([[2.0, 0.0]], normalized=True)


def brute_knn(q_rows, g_rows, k, exclude=None, groups=None):
    """Reference search: python loops, sort by (-similarity, index).

    ``groups=(q_group, g_group)`` scores cells of equal groups -inf, as
    `top_k` does.
    """
    g_unit = [np.asarray(gv, dtype=np.float64) / np.linalg.norm(np.asarray(gv, dtype=np.float64))
              for gv in g_rows]
    out_idx, out_sim = [], []
    for qi, qv in enumerate(q_rows):
        qv = np.asarray(qv, dtype=np.float64)
        qv = qv / np.linalg.norm(qv)
        scored = []
        for gi, gv in enumerate(g_unit):
            if exclude is not None and exclude[qi] == gi:
                continue
            masked = groups is not None and groups[0][qi] == groups[1][gi]
            s = -np.inf if masked else float(qv @ gv)
            scored.append((-s, gi))
        scored.sort()
        out_idx.append([gi for _, gi in scored[:k]])
        out_sim.append([-s for s, _ in scored[:k]])
    return np.array(out_idx), np.array(out_sim)


class TestKnn:
    def test_tie_breaks_by_ascending_index(self):
        g = matrix([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        q = matrix([[1.0, 0.0]], ids=("q",))
        res = cosine_knn(q, g, k=1)
        assert res.indices[0, 0] == 0
        res2 = cosine_knn(g, g, k=1, exclude_self=True)
        assert res2.indices[0, 0] == 2  # duplicate of row 0, self masked
        assert res2.similarities[0, 0] == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            n = int(rng.integers(3, 60))
            d = int(rng.integers(2, 10))
            g = matrix(rng.standard_normal((n, d)))
            nq = int(rng.integers(1, 12))
            q = matrix(rng.standard_normal((nq, d)), ids=tuple(f"q{j}" for j in range(nq)))
            k = int(rng.integers(1, n + 1))
            res = cosine_knn(q, g, k)
            idx, sim = brute_knn(q.data, g.data, k)
            assert np.array_equal(res.indices, idx), trial
            assert np.allclose(res.similarities, sim, atol=1e-12)

    def test_exclude_self_matches_brute_force(self):
        rng = np.random.default_rng(12)
        n, d = 40, 5
        g = matrix(rng.standard_normal((n, d)))
        res = cosine_knn(g, g, k=3, exclude_self=True)
        idx, _ = brute_knn(g.data, g.data, 3, exclude=list(range(n)))
        assert np.array_equal(res.indices, idx)

    def test_self_join_keeps_the_bits_of_two_matrices(self):
        # a self-join scales its rows once; the result must be that of a separate gallery
        rng = np.random.default_rng(14)
        for n, d, k in ((40, 5, 3), (700, 8, 1), (700, 8, 4)):
            g = matrix(rng.standard_normal((n, d)))
            twin = EmbeddingMatrix(g.ids, g.data.copy())
            for exclude, threads in itertools.product((False, True), (1, 2)):
                got = cosine_knn(g, g, k, exclude_self=exclude, threads=threads)
                want = cosine_knn(g, twin, k, exclude_self=exclude, threads=threads)
                assert np.array_equal(got.indices, want.indices)
                assert got.similarities.tobytes() == want.similarities.tobytes()

    def test_zero_row_is_named_by_its_id(self):
        g = matrix(np.eye(3, dtype=np.float32), ids=("z", "y", "x"))
        q = matrix([[0.0, 0.0, 0.0]], ids=("q",))
        message = "^image {!r} has a zero row, which has no direction$"
        with pytest.raises(EmbedStoreError, match=message.format("q")):
            cosine_knn(q, g, k=1)
        zeroed = matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]], ids=g.ids)
        for queries in (zeroed, g):
            with pytest.raises(EmbedStoreError, match=message.format("y")):
                cosine_knn(queries, zeroed, k=1, exclude_self=queries is zeroed)

    def test_k_exceeds_gallery(self):
        g = matrix(np.eye(3, dtype=np.float32))
        with pytest.raises(EmbedStoreError, match="exceeds"):
            cosine_knn(g, g, k=4)
        with pytest.raises(EmbedStoreError, match="exceeds"):
            cosine_knn(g, g, k=3, exclude_self=True)
        cosine_knn(g, g, k=3)  # fine without exclusion

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        g = matrix(rng.standard_normal((30, 7)))
        scales = rng.uniform(0.1, 20.0, size=(30, 1)).astype(np.float32)
        g2 = matrix(g.data * scales)
        q = matrix(rng.standard_normal((5, 7)), ids=tuple(f"q{j}" for j in range(5)))
        a = cosine_knn(q, g, k=6)
        b = cosine_knn(q, g2, k=6)
        assert np.array_equal(a.indices, b.indices)
        assert np.allclose(a.similarities, b.similarities, atol=1e-6)

    def test_thread_count_does_not_change_result(self):
        rng = np.random.default_rng(14)
        g = matrix(rng.standard_normal((700, 6)))
        q = matrix(rng.standard_normal((650, 6)), ids=tuple(f"q{j}" for j in range(650)))
        a = cosine_knn(q, g, k=4, threads=1)
        b = cosine_knn(q, g, k=4, threads=4)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.similarities, b.similarities)

    def test_tied_rows_match_brute_force(self):
        # duplicate and rescaled directions, so tie groups straddle the k-th slot
        rng = np.random.default_rng(16)
        palette = np.array([[1, 0], [0, 1], [1, 1], [-1, 1], [1, -1], [-1, 0]])
        g = matrix(palette[rng.integers(len(palette), size=40)] * rng.choice([1, 2], (40, 1)))
        q = matrix(palette[rng.integers(len(palette), size=600)],
                   ids=tuple(f"q{j}" for j in range(600)))  # two 512-row blocks
        cases = [(q, False, brute_knn(q.data, g.data, 40), (1, 3, 7, 39, 40)),
                 (g, True, brute_knn(g.data, g.data, 39, exclude=list(range(40))), (1, 3, 39))]
        for queries, exclude, (idx, sim), ks in cases:
            assert (sim[:, 2] == sim[:, 3]).any()  # a tie across the k = 3 boundary
            for k in ks:
                for threads in (1, 2):
                    res = cosine_knn(queries, g, k, exclude_self=exclude, threads=threads)
                    assert np.array_equal(res.indices, idx[:, :k]), (exclude, k, threads)
                    assert np.allclose(res.similarities, sim[:, :k], atol=1e-12)

    def test_k1_argmax_matches_brute_force_across_block_edge(self):
        # 700 duplicated and rescaled directions: each query ties with many
        # gallery rows, and equal queries sit on both sides of query row 512
        rng = np.random.default_rng(17)
        palette = np.array([[1, 0], [0, 1], [1, 1], [-1, 1], [1, -1], [-1, 0]])

        def tied(n, ids=None):
            rows = palette[rng.integers(len(palette), size=n)] * rng.choice([1, 2], (n, 1))
            return matrix(rows, ids=ids)

        g = tied(700)
        q = tied(700, ids=tuple(f"q{j}" for j in range(700)))
        window = np.arange(448, 576)
        for queries, exclude in ((q, False), (g, True)):
            idx, sim = brute_knn(queries.data[window], g.data, 1,
                                 exclude=list(window) if exclude else None)
            general = cosine_knn(queries, g, k=2, exclude_self=exclude)  # the k > 1 path
            for threads in (1, 2):
                res = cosine_knn(queries, g, k=1, exclude_self=exclude, threads=threads)
                assert np.array_equal(res.indices, general.indices[:, :1]), (exclude, threads)
                assert np.array_equal(res.similarities, general.similarities[:, :1])
                assert np.array_equal(res.indices[window], idx), (exclude, threads)
                assert np.allclose(res.similarities[window], sim, atol=1e-12)

    def test_neighbor_ids_align_with_indices(self):
        g = matrix([[1.0, 0.0], [0.0, 1.0]], ids=("x", "y"))
        q = matrix([[0.0, 2.0]], ids=("q",))
        res = cosine_knn(q, g, k=2)
        assert res.indices.tolist() == [[1, 0]]

    @pytest.mark.parametrize("threads", [0, -1])
    def test_thread_count_below_one_is_a_domain_error(self, threads):
        g = matrix(np.eye(3, dtype=np.float32))
        with pytest.raises(EmbedStoreError, match="^threads must be >= 1$"):
            cosine_knn(g, g, k=1, threads=threads)
        with pytest.raises(EmbedStoreError, match="^threads must be >= 1$"):
            top_k(unit_rows(g.data), unit_rows(g.data), 1, np.arange(3), np.arange(3), threads)

    def test_dimension_mismatch(self):
        with pytest.raises(EmbedStoreError, match="mismatch"):
            cosine_knn(matrix(np.ones((2, 3))), matrix(np.ones((2, 4))), k=1)

    def test_similarities_descend(self):
        rng = np.random.default_rng(15)
        g = matrix(rng.standard_normal((25, 4)))
        q = matrix(rng.standard_normal((6, 4)), ids=tuple(f"q{j}" for j in range(6)))
        res = cosine_knn(q, g, k=10)
        assert np.all(np.diff(res.similarities, axis=1) <= 1e-15)



class TestTopKAboveOne:
    """k > 1 against `brute_knn` on galleries wide enough for the chunk-max bound.

    `top_k` cuts each row into min(n_g, 4k) strided chunks, bounds the k-th
    best cell by the k-th largest chunk maximum, and sorts only the cells at
    or above it.  These layouts reach each part of that: unsampled tail
    columns, ties on the k-th slot, rows with too few finite cells or finite
    chunks, all -inf rows and k = n_g.
    """

    PALETTE = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0], [-1, 1, 1], [1, -1, 0], [0, 0, -1]])
    WINDOW = np.arange(448, 576)  # query rows on both sides of the 512-row block edge

    def tied(self, rng, n, ids=None):
        # power-of-two scales keep duplicated directions bit-equal after normalization
        rows = self.PALETTE[rng.integers(len(self.PALETTE), size=n)] * rng.choice([1, 2, 4], (n, 1))
        return matrix(rows, ids=ids)

    @staticmethod
    def check(got, want, rows=slice(None)):
        (idx, sim), (ref_idx, ref_sim) = got, want
        assert np.array_equal(idx[rows], ref_idx)
        assert np.array_equal(np.isneginf(sim[rows]), np.isneginf(ref_sim))
        assert np.allclose(sim[rows], ref_sim, atol=1e-12)

    def test_wide_gallery_with_unsampled_tail_matches_brute_force(self):
        rng = np.random.default_rng(21)
        n_g, d = 470, 6
        q = matrix(rng.standard_normal((600, d)), ids=tuple(f"q{j}" for j in range(600)))
        g_rows = rng.standard_normal((n_g, d))
        g_rows[-26:] = q.data[self.WINDOW[::5]] + 0.01 * rng.standard_normal((26, d))
        g = matrix(g_rows)
        idx, sim = brute_knn(q.data[self.WINDOW], g.data, 37)
        for k in (2, 5, 10, 37):
            tail = n_g % (4 * k)  # columns past the last whole stride go unsampled
            assert n_g >= 4 * k and tail
            assert (idx[:, 0] >= n_g - tail).any()  # some best cells sit in the tail
            for threads in (1, 2):
                res = cosine_knn(q, g, k, threads=threads)
                self.check((res.indices, res.similarities), (idx[:, :k], sim[:, :k]), self.WINDOW)

    def test_ties_on_the_kth_slot_across_a_block_edge_match_brute_force(self):
        rng = np.random.default_rng(22)
        g = self.tied(rng, 430)
        q = self.tied(rng, 700, ids=tuple(f"q{j}" for j in range(700)))
        window = list(self.WINDOW)
        cases = [(q, g, False, brute_knn(q.data[window], g.data, 51)),
                 (q, q, True, brute_knn(q.data[window], q.data, 51, exclude=window))]
        for queries, gallery, exclude, (idx, sim) in cases:
            for k in (2, 5, 10, 50):
                assert (sim[:, k - 1] == sim[:, k]).all()  # ties across the k-th slot
                for threads in (1, 2):
                    res = cosine_knn(queries, gallery, k, exclude_self=exclude, threads=threads)
                    self.check((res.indices, res.similarities), (idx[:, :k], sim[:, :k]),
                               self.WINDOW)

    def test_groups_leaving_few_finite_cells_or_chunks_match_brute_force(self):
        # k = 10 on 470 columns: 40 chunks of stride 40, the last 30 columns
        # unsampled.  In `spread`, a group-0 query keeps 15 finite cells in
        # 3 chunks (columns = 3 mod 40, and 7, 100, 469); in `scarce` it keeps
        # 5 finite cells, fewer than k.  Queries of other groups keep most cells.
        rng = np.random.default_rng(23)
        n_g, k = 470, 10
        g_rows, q_rows = rng.standard_normal((n_g, 5)), rng.standard_normal((600, 5))
        spread = np.zeros(n_g, dtype=np.intp)
        spread[3::40] = 1
        spread[[7, 100, 469]] = 2
        scarce = np.zeros(n_g, dtype=np.intp)
        scarce[[0, 40, 80, 120, 469]] = 1
        assert np.unique(np.flatnonzero(spread[:440]) % 40).size == 3
        assert np.count_nonzero(spread) == 15 and np.count_nonzero(scarce) == 5
        q_group = rng.integers(3, size=600)
        assert (q_group[self.WINDOW] == 0).sum() > 20
        for g_group in (spread, scarce):
            want = brute_knn(q_rows[self.WINDOW], g_rows, k, groups=(q_group[self.WINDOW], g_group))
            for threads in (1, 2):
                got = top_k(unit_rows(q_rows), unit_rows(g_rows), k, q_group, g_group, threads)
                self.check(got, want, self.WINDOW)

    def test_all_neg_inf_rows_and_k_equal_to_gallery_size(self):
        # query rows 500-519 have group 9: with `lone`, every gallery row does
        # too, so those rows are all -inf; with `mostly`, they keep 7 cells
        rng = np.random.default_rng(24)
        g_rows, q_rows = self.tied(rng, 37).data, self.tied(rng, 530).data
        q_group = rng.integers(3, size=530)
        q_group[500:520] = 9
        lone = np.full(37, 9)
        mostly = np.where(np.arange(37) < 30, 9, rng.integers(3, size=37))
        layouts = ((lone, q_group), (mostly, q_group), (np.arange(37), np.full(530, -1)))
        rows = np.arange(490, 530)
        for k in (2, 10, 37):  # 37 = n_g
            for g_group, groups in layouts:
                want = brute_knn(q_rows[rows], g_rows, k, groups=(groups[rows], g_group))
                assert np.isneginf(want[1][10:30]).all() == (g_group is lone)
                for threads in (1, 2):
                    got = top_k(unit_rows(q_rows), unit_rows(g_rows), k, groups, g_group, threads)
                    self.check(got, want, rows)


class TestBlockLoop:
    """`top_k`'s per-call buffers, worker count and index strike of same-group cells."""

    N_G = 47  # not a multiple of 4k for k = 2 or 10

    @staticmethod
    def layouts(rng, n_q, n_g):
        """(name, q_group, g_group): groups that are negative or absent from the
        gallery, groups of a few rows, and one group owning every gallery row."""
        mixed = rng.integers(-3, 12, size=n_q)  # -3..-1 and 8..11 are absent
        yield "mixed", mixed, rng.integers(8, size=n_g)
        yield "self", np.full(n_q, -1), np.arange(n_g)  # cosine_knn without exclusion
        yield "one_group", rng.integers(2, size=n_q), np.ones(n_g, dtype=np.intp)

    def test_block_edges_and_groups_match_brute_force_at_1_2_3_threads(self):
        rng = np.random.default_rng(31)
        q_rows = rng.standard_normal((1100, 4))
        q_rows[::7] = np.round(q_rows[::7])  # some exact ties
        q_rows[~q_rows.any(axis=1), 0] = 1.0
        g_rows = np.round(rng.standard_normal((self.N_G, 4)), 1)
        for name, q_group, g_group in self.layouts(rng, 1100, self.N_G):
            want_idx, want_sim = brute_knn(q_rows, g_rows, 10, groups=(q_group, g_group))
            for n_q in (0, 1, 511, 512, 513, 1100):
                q = unit_rows(q_rows[:n_q])
                for k, threads in itertools.product((1, 2, 10), (1, 2, 3)):
                    idx, sim = top_k(q, unit_rows(g_rows), k, q_group[:n_q], g_group, threads)
                    assert idx.shape == sim.shape == (n_q, k), (name, n_q, k, threads)
                    TestTopKAboveOne.check((idx, sim), (want_idx[:n_q, :k], want_sim[:n_q, :k]))

    def test_one_worker_runs_on_the_calling_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("one worker needs no thread pool")

        rng = np.random.default_rng(32)
        g = unit_rows(rng.standard_normal((30, 3)))
        queries = {n_q: unit_rows(rng.standard_normal((n_q, 3))) for n_q in (0, 1, 512, 513, 600)}
        want = {n_q: top_k(q, g, 2, np.full(n_q, -1), np.arange(30), 2)
                for n_q, q in queries.items()}
        monkeypatch.setattr(embedstore, "ThreadPoolExecutor", refuse)
        for threads, n_q in ((1, 600), (1, 513), (2, 512), (3, 1), (2, 0)):
            got = top_k(queries[n_q], g, 2, np.full(n_q, -1), np.arange(30), threads)
            assert all(np.array_equal(a, b) for a, b in zip(got, want[n_q])), (threads, n_q)
        with pytest.raises(AssertionError, match="no thread pool"):  # two blocks, two workers
            top_k(queries[513], g, 2, np.full(513, -1), np.arange(30), 2)

    def test_strike_of_one_group_owning_the_gallery_stays_within_a_mask_per_worker(self):
        # 3,000 rows in one group: every cell is struck.  A masked assignment
        # holds a block and a b x N bool mask per worker; the index strike may
        # add one more mask each, where unbounded index arrays would take 16
        # bytes per struck cell.
        rng = np.random.default_rng(33)
        n, threads = 3000, 2
        q, g = unit_rows(rng.standard_normal((n, 8))), unit_rows(rng.standard_normal((n, 8)))
        groups = np.zeros(n, dtype=np.intp)
        block, mask = 512 * n * 8, 512 * n
        tracemalloc.start()
        try:
            idx, sim = top_k(q, g, 1, groups, groups, threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isneginf(sim).all() and not idx.any()
        assert peak <= threads * (block + 2 * mask), peak

    @staticmethod
    def budget(threads, k, n_g):
        """Traced bytes `top_k` may hold: per worker, 9 bytes per cell of its
        512 x SLAB buffer (the float64 block, then its fold or the strike's
        index pieces) and 64 float64 per row and unit of k (running maxima,
        candidates); plus 64 bytes per gallery row for the group index."""
        return threads * (9 * 512 * embedstore.SLAB + 512 * 512 * k) + 64 * n_g

    def test_slab_edges_and_straddling_groups_match_brute_force_at_1_2_3_threads(self):
        # galleries one column short of a slab, one slab, one column over, and
        # past two slabs; groups of 7 consecutive columns straddle each slab
        # edge, and the checked query rows sit on both sides of query row 512
        S = embedstore.SLAB
        rng = np.random.default_rng(34)
        rows = np.r_[0:4, 506:518]
        q_rows = rng.standard_normal((520, 4))
        q = unit_rows(q_rows)
        for n_g in (S - 1, S, S + 1, 2 * S + 13):
            g_rows = rng.standard_normal((n_g, 4))
            runs = rng.integers(n_g // 7 + 3, size=520)  # groups past n_g // 7 are absent
            runs[rows[::2]] = [(S - 1) // 7, S // 7] * 4  # the group(s) at column S - 1 and S
            layouts = {"runs": (runs, np.arange(n_g) // 7),
                       "self": (np.full(520, -1), np.arange(n_g))}
            for q_group, g_group in layouts.values():
                want_idx, want_sim = brute_knn(q_rows[rows], g_rows, 10,
                                               groups=(q_group[rows], g_group))
                for k in (1, 2, 10):
                    got = [top_k(q, unit_rows(g_rows), k, q_group, g_group, threads)
                           for threads in (1, 2, 3)]
                    for idx, sim in got[1:]:
                        assert np.array_equal(idx, got[0][0]) and np.array_equal(sim, got[0][1])
                    TestTopKAboveOne.check(got[0], (want_idx[:, :k], want_sim[:, :k]), rows)

    def test_exact_tie_across_a_slab_edge_goes_to_the_smaller_index(self):
        # e0 at columns S - 1 and S scores exactly 1 against e0 in any slab;
        # every other column points away from it.  Query 1 strikes column
        # S - 1 (group 5) and query 2 strikes column S (group 6)
        S = embedstore.SLAB
        rng = np.random.default_rng(35)
        g_rows = rng.standard_normal((S + 9, 4))
        g_rows[:, 0] = -np.abs(g_rows[:, 0])
        g_rows[[S - 1, S]] = [1, 0, 0, 0]
        g_group = np.zeros(S + 9, dtype=np.intp)
        g_group[S - 1], g_group[S] = 5, 6
        q_rows = np.array([[1.0, 0, 0, 0], [2, 0, 0, 0], [1, 0, 0, 0]])
        q_group = np.array([1, 5, 6])
        q, g = unit_rows(q_rows), unit_rows(g_rows)
        want_idx, want_sim = brute_knn(q_rows, g_rows, 10, groups=(q_group, g_group))
        assert want_idx[:, 0].tolist() == [S - 1, S, S - 1]
        assert want_idx[0, :2].tolist() == [S - 1, S] and (want_sim[0, :2] == 1.0).all()
        for k, threads in itertools.product((1, 2, 10), (1, 2, 3)):
            idx, sim = top_k(q, g, k, q_group, g_group, threads)
            assert np.array_equal(idx, want_idx[:, :k]), (k, threads)
            assert np.array_equal(sim, want_sim[:, :k]), (k, threads)

    def test_k_above_the_slab_width_matches_brute_force(self):
        # k = S + 5 on 2S + 13 columns: the bound stays -inf until k maxima
        # are finite.  Group-9 queries keep 1,109 finite cells, fewer than k,
        # so their top k ends in -inf cells from the first columns
        S = embedstore.SLAB
        rng = np.random.default_rng(36)
        n_g, k = 2 * S + 13, S + 5
        q_rows, g_rows = rng.standard_normal((24, 3)), rng.standard_normal((n_g, 3))
        g_group = np.where(np.arange(n_g) < 3000, 9, rng.integers(4, size=n_g))
        q_group = rng.integers(4, size=24)
        q_group[::5] = 9
        want = brute_knn(q_rows, g_rows, k, groups=(q_group, g_group))
        assert np.isneginf(want[1][0, -1]) and np.isfinite(want[1][1, -1])
        for threads in (1, 2):
            got = top_k(unit_rows(q_rows), unit_rows(g_rows), k, q_group, g_group, threads)
            TestTopKAboveOne.check(got, want)

    @pytest.mark.parametrize("slab", [8, 16, 64])
    def test_narrow_slabs_match_brute_force(self, monkeypatch, slab):
        # many slab edges on a 47-column gallery, k = 10 and 47 above the slab
        # width, and groups of every layout, at one to three threads
        monkeypatch.setattr(embedstore, "SLAB", slab)
        rng = np.random.default_rng(39)
        q_rows, g_rows = rng.standard_normal((530, 4)), rng.standard_normal((self.N_G, 4))
        rows = np.r_[0:5, 505:530]
        for name, q_group, g_group in self.layouts(rng, 530, self.N_G):
            want_idx, want_sim = brute_knn(q_rows[rows], g_rows, self.N_G,
                                           groups=(q_group[rows], g_group))
            for k, threads in itertools.product((1, 2, 10, self.N_G), (1, 2, 3)):
                got = top_k(unit_rows(q_rows), unit_rows(g_rows), k, q_group, g_group, threads)
                TestTopKAboveOne.check(got, (want_idx[:, :k], want_sim[:, :k]), rows)

    @pytest.mark.parametrize("k", [1, 10])
    def test_memory_stays_bounded_in_the_gallery_size(self, k):
        # 600 queries against 4,096 and 16,384 gallery rows in branches of
        # about 20: a 512 x n_g block per worker would take 9 bytes per cell
        rng = np.random.default_rng(37)
        threads = 2
        q = unit_rows(rng.standard_normal((600, 8)))
        peaks = {}
        for n_g in (4096, 16384):
            g = unit_rows(rng.standard_normal((n_g, 8)))
            q_group, g_group = rng.integers(n_g // 20, size=600), rng.integers(n_g // 20, size=n_g)
            tracemalloc.start()
            try:
                top_k(q, g, k, q_group, g_group, threads)
                peaks[n_g] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peaks[n_g] <= self.budget(threads, k, n_g), (n_g, peaks[n_g])
        assert peaks[16384] - peaks[4096] <= 128 * (16384 - 4096), peaks  # index arrays only

    def test_rows_with_no_finite_cell_keep_only_their_first_k_columns(self):
        # one group owns a 3,000-row gallery: its queries are all -inf, and
        # their top 10 are columns 0-9.  Only those columns may be candidates,
        # not every cell of the row; every 50th query sees the whole gallery
        rng = np.random.default_rng(38)
        n, k, threads = 3000, 10, 2
        q_rows, g_rows = rng.standard_normal((n, 8)), rng.standard_normal((n, 8))
        g_group = np.zeros(n, dtype=np.intp)
        q_group = (np.arange(n) % 50 == 0).astype(np.intp)
        tracemalloc.start()
        try:
            got = top_k(unit_rows(q_rows), unit_rows(g_rows), k, q_group, g_group, threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = np.r_[0:3, 498:512, 2998:3000]
        want = brute_knn(q_rows[rows], g_rows, k, groups=(q_group[rows], g_group))
        TestTopKAboveOne.check(got, want, rows)
        assert (got[0][q_group == 0] == np.arange(k)).all()
        assert peak <= self.budget(threads, k, n), peak
