import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from splitmetric.embedstore import unit_rows
from splitmetric.losses import (
    LOSS_KINDS,
    LOSSES,
    Batch,
    CenterBank,
    LossError,
    LossParams,
    LossResult,
    ProxyBank,
    compute_loss,
    triplet_loss,
)

SHARP = LossParams(supcon_tau=1e-3, proxynca_temperature=1e-3, circle_gamma=300.0,
                   multisim_beta=500.0, softtriple_gamma=1e-3)


def unit_batch(rng, b=10, d=6, classes=3):
    emb = rng.standard_normal((b, d))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    labels = rng.integers(classes, size=b)
    # force at least one positive pair and one negative pair
    labels[0] = labels[1] = 0
    labels[2] = 1
    return Batch(emb, labels)


def make_bank(rng, kind, classes, d, j=3):
    if kind == "proxynca":
        v = rng.standard_normal((classes, d))
        return ProxyBank(v / np.linalg.norm(v, axis=1, keepdims=True))
    if kind == "softtriple":
        v = rng.standard_normal((classes * j, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return CenterBank(v.reshape(classes, j, d))
    return None


# -- reference implementations: value-only, plain loops -------------------


def lse(vals):
    m = max(vals)
    return m + math.log(sum(math.exp(v - m) for v in vals))


def ref_triplet(emb, labels, margin):
    s = emb @ emb.T
    terms = []
    for a in range(len(labels)):
        for p in range(len(labels)):
            for n in range(len(labels)):
                if p == a or n == a:
                    continue
                if labels[p] != labels[a] or labels[n] == labels[a]:
                    continue
                terms.append(max(0.0, s[a, n] - s[a, p] + margin))
    return sum(terms) / len(terms) if terms else 0.0


def reference_triplet(batch, params):
    """The B x B x B triplet kernel that the per-positive-pair one replaced."""
    emb, labels = batch.embeddings, batch.labels
    same = labels[:, None] == labels[None, :]
    off = ~np.eye(labels.shape[0], dtype=bool)
    s, pos, neg = emb @ emb.T, same & off, (~same) & off
    h = s[:, None, :] - s[:, :, None] + params.triplet_margin
    valid = pos[:, :, None] & neg[:, None, :]
    count = int(valid.sum())
    if count == 0:
        return 0.0, np.zeros_like(emb)
    active = valid & (h > 0.0)
    value = float(np.sum(np.where(active, h, 0.0))) / count
    g = np.zeros(valid.shape[:2])
    g += active.sum(axis=1) / count
    g -= active.sum(axis=2) / count
    return value, (g + g.T) @ emb


def dense_triplet_cases(rng, count=400):
    """(family, batch, margin): balanced, singleton, one-class, tied, margin-0."""
    families = ("balanced", "singleton", "one_class", "tied", "margin0")
    for case in range(count):
        family = families[case % len(families)]
        d = int(rng.integers(2, 9))
        if family in ("balanced", "margin0"):
            m, k = int(rng.integers(1, 9)), int(rng.integers(2, 5))
            labels = rng.permutation(np.repeat(rng.permutation(40)[:m], k))
        elif family == "one_class":
            labels = np.full(int(rng.integers(2, 12)), int(rng.integers(5)))
        else:
            b = int(rng.integers(2, 30))
            labels = rng.integers(0, int(rng.integers(1, b + 1)), size=b)
        emb = unit_rows(rng.standard_normal((labels.size, d)))
        if family == "tied":  # coarse rows: many exactly equal similarities and hinges
            emb = rng.integers(-1, 2, size=emb.shape).astype(float)
            emb[~emb.any(axis=1), 0] = 1.0
            emb = unit_rows(emb)
        margin = 0.0 if family == "margin0" or (family == "tied" and case % 2) else 0.1
        yield family, Batch(emb, labels), margin


def ref_circle(emb, labels, m, gamma):
    s = emb @ emb.T
    b = len(labels)
    total = 0.0
    for i in range(b):
        ns = [s[i, j] for j in range(b) if j != i and labels[j] != labels[i]]
        ps = [s[i, j] for j in range(b) if j != i and labels[j] == labels[i]]
        if not ns or not ps:
            continue
        a_n = [gamma * max(0.0, v + m) * (v - m) for v in ns]
        a_p = [-gamma * max(0.0, 1.0 + m - v) * (v - (1.0 - m)) for v in ps]
        t = lse(a_n) + lse(a_p)
        total += math.log1p(math.exp(t)) if t < 30 else t + math.log1p(math.exp(-t))
    return total / b


def ref_multisim(emb, labels, alpha, beta, lam, eps):
    s = emb @ emb.T
    b = len(labels)
    rows = []
    for i in range(b):
        ps = [s[i, j] for j in range(b) if j != i and labels[j] == labels[i]]
        ns = [s[i, j] for j in range(b) if j != i and labels[j] != labels[i]]
        if not ps or not ns:
            continue
        keep_n = [v for v in ns if v > min(ps) - eps]
        keep_p = [v for v in ps if v < max(ns) + eps]
        if not keep_n and not keep_p:
            continue
        row = 0.0
        if keep_p:
            row += math.log1p(sum(math.exp(-alpha * (v - lam)) for v in keep_p)) / alpha
        if keep_n:
            row += math.log1p(sum(math.exp(beta * (v - lam)) for v in keep_n)) / beta
        rows.append(row)
    return sum(rows) / len(rows) if rows else 0.0


def ref_supcon(emb, labels, tau):
    s = emb @ emb.T / tau
    b = len(labels)
    vals = []
    for i in range(b):
        positives = [j for j in range(b) if j != i and labels[j] == labels[i]]
        if not positives:
            continue
        z = lse([s[i, j] for j in range(b) if j != i])
        vals.append(-sum(s[i, p] - z for p in positives) / len(positives))
    return sum(vals) / len(vals) if vals else 0.0


def ref_proxynca(emb, labels, proxies, t):
    vals = []
    for i, y in enumerate(labels):
        logits = [-float(((emb[i] - p) ** 2).sum()) / t for p in proxies]
        vals.append(-(logits[y] - lse(logits)))
    return sum(vals) / len(vals)


def ref_softtriple(emb, labels, w, lam, gamma, delta, tau_reg):
    n_classes, n_centers, _ = w.shape
    vals = []
    for i, y in enumerate(labels):
        sims = []
        for c in range(n_classes):
            qs = [float(emb[i] @ w[c, j]) for j in range(n_centers)]
            m = max(v / gamma for v in qs)
            ex = [math.exp(v / gamma - m) for v in qs]
            sims.append(sum(e / sum(ex) * q for e, q in zip(ex, qs)))
        z = [lam * sims[c] - (lam * delta if c == y else 0.0) for c in range(n_classes)]
        vals.append(-(z[y] - lse(z)))
    loss = sum(vals) / len(labels)
    if n_centers >= 2 and tau_reg != 0.0:
        reg = sum(
            math.sqrt(max(2.0 - 2.0 * float(w[c, j] @ w[c, jj]), 1e-30))
            for c in range(n_classes)
            for j in range(n_centers)
            for jj in range(j + 1, n_centers)
        )
        loss += tau_reg * reg / (n_classes * n_centers * (n_centers - 1))
    return loss


# -- params / batch wiring -------------------------------------------------


class TestParams:
    def test_defaults(self):
        p = LossParams()
        assert p.triplet_margin == 0.1
        assert (p.circle_m, p.circle_gamma) == (0.4, 80.0)
        assert (p.multisim_alpha, p.multisim_beta) == (2.0, 50.0)
        assert (p.multisim_lambda, p.multisim_epsilon) == (1.0, 0.1)
        assert p.supcon_tau == 0.05
        assert p.proxynca_temperature == pytest.approx(1.0 / 9.0)
        assert (p.softtriple_lambda, p.softtriple_gamma) == (20.0, 0.1)
        assert (p.softtriple_delta, p.softtriple_tau_reg) == (0.01, 0.2)
        assert p.softtriple_centers == 5

    def test_validate_rejects_nonpositive(self):
        with pytest.raises(LossError):
            LossParams(supcon_tau=0.0).validate()
        with pytest.raises(LossError):
            LossParams(triplet_margin=-0.5).validate()
        with pytest.raises(LossError):
            LossParams(softtriple_centers=0).validate()

    @pytest.mark.parametrize("field, value", [
        ("supcon_tau", "0.1"), ("triplet_margin", float("nan")), ("supcon_tau", True),
        ("softtriple_centers", 2.5), ("softtriple_centers", 2.0), ("circle_m", float("-inf")),
        ("multisim_epsilon", None),
    ])
    def test_validate_rejects_values_that_are_not_finite_numbers(self, field, value):
        with pytest.raises(LossError, match=field):
            LossParams(**{field: value}).validate()

    @pytest.mark.parametrize("value", [10**23, -2**63 - 1, 2**63])
    def test_validate_rejects_ints_beyond_int64(self, value):
        with pytest.raises(LossError, match="softtriple_centers must fit in int64"):
            LossParams(softtriple_centers=value).validate()

    def test_validate_accepts_numpy_scalars(self):
        LossParams(supcon_tau=np.float64(0.2), softtriple_centers=np.int64(3)).validate()

    def test_json_round_trip(self, tmp_path):
        import json

        p = tmp_path / "p.json"
        p.write_text(json.dumps({"supcon_tau": 0.2, "triplet_margin": 0.3}))
        loaded = LossParams.from_json(p)
        assert loaded.supcon_tau == 0.2 and loaded.triplet_margin == 0.3
        assert loaded.circle_gamma == 80.0  # untouched default

    def test_json_unknown_key(self, tmp_path):
        p = tmp_path / "p.json"
        p.write_text('{"no_such_knob": 1}')
        with pytest.raises(LossError, match="no_such_knob"):
            LossParams.from_json(p)


class TestBatch:
    def test_single_row_rejected(self):
        with pytest.raises(LossError, match="2 rows"):
            Batch(np.ones((1, 4)), np.array([0]))

    def test_non_finite_row_rejected(self):
        emb = np.ones((4, 3))
        emb[2, 1] = np.nan
        emb[3, 0] = np.inf
        with pytest.raises(LossError, match="row 2 has non-finite"):
            Batch(emb, np.array([0, 0, 1, 1]))

    def test_shape_mismatch(self):
        with pytest.raises(LossError):
            Batch(np.ones((3, 4)), np.array([0, 1]))

    @pytest.mark.parametrize("bank, shape, message", [
        (ProxyBank, (2, 3, 4), "proxy bank must be C x d"),
        (CenterBank, (2, 3), "center bank must be C x J x d"),
    ], ids=["proxy", "center"])
    def test_bank_of_the_wrong_rank_rejected(self, bank, shape, message):
        with pytest.raises(LossError, match=f"^{message}$"):
            bank(np.ones(shape))

    def test_dispatcher_needs_bank(self):
        batch = unit_batch(np.random.default_rng(0))
        with pytest.raises(LossError, match="ProxyBank"):
            compute_loss("proxynca", batch, LossParams())
        with pytest.raises(LossError, match="CenterBank"):
            compute_loss("softtriple", batch, LossParams())

    def test_unknown_kind(self):
        batch = unit_batch(np.random.default_rng(0))
        with pytest.raises(LossError, match="unknown"):
            compute_loss("contrastive", batch, LossParams())

    def test_kinds_are_the_table(self):
        assert set(LOSS_KINDS) == set(LOSSES)


# -- pinned small-batch values --------------------------------------------


class TestTriplet:
    def test_inactive_hinge_is_zero(self):
        batch = Batch(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([0, 0, 1]))
        res = compute_loss("triplet", batch, LossParams(triplet_margin=0.1))
        assert res.value == 0.0
        assert np.all(res.grad_embeddings == 0.0)

    def test_active_pair_averages_both_triplets(self):
        # (0,1,2) violates by 1.1, (1,0,2) by 0.1; mean over the two valid
        # triplets, not just the active worst one
        batch = Batch(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), np.array([0, 0, 1]))
        res = compute_loss("triplet", batch, LossParams(triplet_margin=0.1))
        assert res.value == pytest.approx(0.6, abs=1e-12)

    def test_single_class_batch_is_zero(self):
        rng = np.random.default_rng(1)
        emb = rng.standard_normal((5, 4))
        res = compute_loss("triplet", Batch(emb, np.zeros(5, dtype=int)), LossParams())
        assert res.value == 0.0 and np.all(res.grad_embeddings == 0.0)

    def test_matches_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            batch = unit_batch(rng, b=8, d=5)
            got = compute_loss("triplet", batch, LossParams(triplet_margin=0.2)).value
            want = ref_triplet(batch.embeddings, batch.labels, 0.2)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_matches_dense_kernel(self):
        """Same gradient bytes as the B x B x B kernel; the value only re-associates."""
        families = set()
        for family, batch, margin in dense_triplet_cases(np.random.default_rng(17)):
            families.add(family)
            params = LossParams(triplet_margin=margin)
            want_value, want_grad = reference_triplet(batch, params)
            got = compute_loss("triplet", batch, params)
            assert got.grad_embeddings.tobytes() == want_grad.tobytes(), family
            assert abs(got.value - want_value) <= 1e-14 * abs(want_value), family
        assert len(families) == 5

    def test_memory_stays_below_one_b_cubed_array(self):
        b = 128
        rng = np.random.default_rng(18)
        batch = Batch(unit_rows(rng.standard_normal((b, 8))), np.repeat(np.arange(16), 8))
        tracemalloc.start()
        try:
            compute_loss("triplet", batch, LossParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < b**3 * 8, peak  # one B x B x B float64 array is 16 MiB


class TestCircle:
    def test_matches_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            batch = unit_batch(rng, b=9, d=5)
            got = compute_loss("circle", batch, LossParams()).value
            want = ref_circle(batch.embeddings, batch.labels, 0.4, 80.0)
            assert got == pytest.approx(want, rel=1e-10)

    def test_anchor_without_negatives_contributes_zero(self):
        batch = Batch(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 0]))
        res = compute_loss("circle", batch, LossParams())
        assert res.value == 0.0 and np.all(res.grad_embeddings == 0.0)


class TestMultisim:
    def test_matches_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            batch = unit_batch(rng, b=9, d=5)
            got = compute_loss("multisim", batch, LossParams()).value
            want = ref_multisim(batch.embeddings, batch.labels, 2.0, 50.0, 1.0, 0.1)
            assert got == pytest.approx(want, rel=1e-10)

    def test_well_separated_batch_mines_nothing(self):
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        batch = Batch(emb, np.array([0, 0, 1, 1]))
        res = compute_loss("multisim", batch, LossParams())
        assert res.value == 0.0 and np.all(res.grad_embeddings == 0.0)


class TestSupcon:
    def test_two_identical_positives_zero(self):
        batch = Batch(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0, 0]))
        res = compute_loss("supcon", batch, LossParams())
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_no_positives_anywhere_is_zero(self):
        batch = Batch(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
        res = compute_loss("supcon", batch, LossParams())
        assert res.value == 0.0 and np.all(res.grad_embeddings == 0.0)

    def test_matches_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            batch = unit_batch(rng, b=10, d=6)
            got = compute_loss("supcon", batch, LossParams()).value
            want = ref_supcon(batch.embeddings, batch.labels, 0.05)
            assert got == pytest.approx(want, rel=1e-10)


class TestProxyNCA:
    def test_pinned_two_proxy_value(self):
        # squared distances 0 and 2 at unit temperature
        batch = Batch(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0, 0]))
        bank = ProxyBank(np.array([[1.0, 0.0], [0.0, 1.0]]))
        res = compute_loss("proxynca", batch, LossParams(proxynca_temperature=1.0), bank)
        assert res.value == pytest.approx(math.log1p(math.exp(-2.0)), abs=1e-12)

    def test_matches_reference(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            batch = unit_batch(rng, b=8, d=5, classes=4)
            bank = make_bank(rng, "proxynca", 4, 5)
            got = compute_loss("proxynca", batch, LossParams(), bank).value
            want = ref_proxynca(batch.embeddings, batch.labels, bank.vectors, 1.0 / 9.0)
            assert got == pytest.approx(want, rel=1e-10)

    def test_label_outside_bank(self):
        batch = Batch(np.ones((2, 3)), np.array([0, 7]))
        bank = ProxyBank(np.ones((2, 3)))
        with pytest.raises(LossError, match="missing proxy"):
            compute_loss("proxynca", batch, LossParams(), bank)

    def test_dimension_mismatch(self):
        batch = Batch(np.ones((2, 3)), np.array([0, 1]))
        with pytest.raises(LossError, match="d="):
            compute_loss("proxynca", batch, LossParams(), ProxyBank(np.ones((2, 4))))


class TestSoftTriple:
    def test_single_center_reduces_to_plain_logits(self):
        rng = np.random.default_rng(7)
        batch = unit_batch(rng, b=6, d=4, classes=3)
        v = rng.standard_normal((3, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        bank = CenterBank(v[:, None, :])
        params = LossParams(softtriple_tau_reg=0.0)
        got = compute_loss("softtriple", batch, params, bank).value
        # with one center per class the relaxation is exact: s_ic = x_i . w_c
        s = batch.embeddings @ v.T
        z = 20.0 * s
        z[np.arange(6), batch.labels] -= 20.0 * 0.01
        want = float(np.mean([-(z[i, y] - lse(list(z[i]))) for i, y in enumerate(batch.labels)]))
        assert got == pytest.approx(want, rel=1e-10)

    def test_single_class_without_regularizer_is_zero(self):
        rng = np.random.default_rng(8)
        batch = Batch(rng.standard_normal((4, 3)), np.zeros(4, dtype=int))
        bank = make_bank(rng, "softtriple", 1, 3, j=2)
        res = compute_loss("softtriple", batch, LossParams(softtriple_tau_reg=0.0), bank)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_matches_reference(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            batch = unit_batch(rng, b=8, d=5, classes=3)
            bank = make_bank(rng, "softtriple", 3, 5, j=3)
            got = compute_loss("softtriple", batch, LossParams(), bank).value
            want = ref_softtriple(batch.embeddings, batch.labels, bank.vectors,
                                  20.0, 0.1, 0.01, 0.2)
            assert got == pytest.approx(want, rel=1e-10)

    def test_regularizer_grows_value(self):
        rng = np.random.default_rng(10)
        batch = unit_batch(rng, b=6, d=4, classes=2)
        bank = make_bank(rng, "softtriple", 2, 4, j=3)
        off = compute_loss("softtriple", batch, LossParams(softtriple_tau_reg=0.0), bank).value
        on = compute_loss("softtriple", batch, LossParams(), bank).value
        assert on > off

    def test_aux_gradient_shape(self):
        rng = np.random.default_rng(11)
        batch = unit_batch(rng, b=6, d=4, classes=2)
        bank = make_bank(rng, "softtriple", 2, 4, j=3)
        res = compute_loss("softtriple", batch, LossParams(), bank)
        assert res.grad_aux.shape == (2, 3, 4)


# -- invariants shared by every kind --------------------------------------


class TestInvariants:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_nonnegative_and_finite(self, kind):
        rng = np.random.default_rng(20)
        for _ in range(6):
            batch = unit_batch(rng, b=10, d=6, classes=3)
            bank = make_bank(rng, kind, 3, 6)
            res = compute_loss(kind, batch, LossParams(), bank)
            assert res.value >= 0.0
            assert np.isfinite(res.value)
            assert np.all(np.isfinite(res.grad_embeddings))
            if res.grad_aux is not None:
                assert np.all(np.isfinite(res.grad_aux))

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_permutation_equivariance(self, kind):
        rng = np.random.default_rng(21)
        batch = unit_batch(rng, b=9, d=5, classes=3)
        bank = make_bank(rng, kind, 3, 5)
        perm = rng.permutation(9)
        permuted = Batch(batch.embeddings[perm], batch.labels[perm])
        a = compute_loss(kind, batch, LossParams(), bank)
        b = compute_loss(kind, permuted, LossParams(), bank)
        assert b.value == pytest.approx(a.value, rel=1e-12, abs=1e-12)
        assert np.allclose(b.grad_embeddings, a.grad_embeddings[perm], atol=1e-12)

    @pytest.mark.parametrize("kind", ("triplet", "circle", "multisim", "supcon"))
    def test_label_renaming_is_exactly_neutral(self, kind):
        rng = np.random.default_rng(22)
        batch = unit_batch(rng, b=9, d=5, classes=3)
        renamed = Batch(batch.embeddings, np.array([[17, 3, 99][int(y)] for y in batch.labels]))
        a = compute_loss(kind, batch, LossParams())
        b = compute_loss(kind, renamed, LossParams())
        assert a.value == b.value
        assert np.array_equal(a.grad_embeddings, b.grad_embeddings)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_sharp_hyperparameters_stay_finite(self, kind):
        rng = np.random.default_rng(23)
        batch = unit_batch(rng, b=8, d=5, classes=3)
        bank = make_bank(rng, kind, 3, 5)
        res = compute_loss(kind, batch, SHARP, bank)
        assert np.isfinite(res.value)
        assert np.all(np.isfinite(res.grad_embeddings))

    @pytest.mark.parametrize("kind", ("triplet", "circle", "multisim", "supcon"))
    def test_degenerate_batches_are_exactly_zero(self, kind):
        rng = np.random.default_rng(24)
        emb = rng.standard_normal((6, 4))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        one_class = Batch(emb, np.zeros(6, dtype=int))
        all_distinct = Batch(emb, np.arange(6))
        # all-singleton labels starve every kind of positives; a single class
        # starves the contrastive kinds of negatives but supcon still trains
        batches = (all_distinct,) if kind == "supcon" else (one_class, all_distinct)
        for batch in batches:
            res = compute_loss(kind, batch, LossParams())
            assert res.value == 0.0
            assert np.all(res.grad_embeddings == 0.0)


class TestGradients:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_finite_difference(self, kind):
        rng = np.random.default_rng(30)
        for trial in range(4):
            batch = unit_batch(rng, b=10, d=6, classes=3)
            bank = make_bank(rng, kind, 3, 6)
            err = finite_diff_check(kind, batch, LossParams(), bank=bank, rng=rng)
            assert err < 1e-4, (kind, trial, err)

    def test_raises_when_no_redraw_clears_the_kink_window(self):
        # 128 triplet rows in 6-d: every one of the 51 draws has a hinge within 4e-5
        emb = unit_rows(np.random.default_rng(516).standard_normal((128, 6)))
        batch = Batch(emb, np.repeat(np.arange(16), 8))
        with pytest.raises(LossError, match=r"after 50 redraws: kink distance \S+ is inside "
                                            r"the window 4e-05"):
            finite_diff_check("triplet", batch, LossParams(), rng=np.random.default_rng(7))

    def test_catches_a_sign_flipped_gradient(self, monkeypatch):
        def flipped(batch, params):
            res = triplet_loss(batch, params)
            return LossResult(res.value, -res.grad_embeddings)

        monkeypatch.setitem(LOSSES, "triplet", dataclasses.replace(LOSSES["triplet"],
                                                                   kernel=flipped))
        rng = np.random.default_rng(30)
        err = finite_diff_check("triplet", unit_batch(rng), LossParams(), rng=rng)
        assert err > 1.0, err  # |-g - g| / |g| = 2 wherever the gradient is nonzero


# -- per-anchor references: the loops the whole-matrix kernels replaced ------
#
# These are the earlier per-anchor implementations, kept verbatim in
# structure so that each vectorised kernel can be checked against them: value
# and gradients within 1e-12 relative.  The loop kink distances are the
# gradient checker's own kink rules.


def loop_masks(labels):
    same = labels[:, None] == labels[None, :]
    off = ~np.eye(labels.shape[0], dtype=bool)
    return same & off, (~same) & off


def loop_log1p_sumexp(values):
    if values.size == 0:
        return 0.0, values
    m = max(0.0, float(np.max(values)))
    ex = np.exp(values - m)
    denom = np.exp(-m) + float(np.sum(ex))
    return m + np.log(denom), ex / denom


def loop_masked_lse(row, mask):
    vals = row[mask]
    m = float(np.max(vals))
    ex = np.exp(vals - m)
    total = float(np.sum(ex))
    weights = np.zeros_like(row)
    weights[mask] = ex / total
    return m + np.log(total), weights


def loop_circle(batch, params):
    emb, labels = batch.embeddings, batch.labels
    m, gamma = params.circle_m, params.circle_gamma
    pos, neg = loop_masks(labels)
    s = emb @ emb.T
    b = batch.size
    a_n = gamma * np.maximum(0.0, s + m) * (s - m)
    a_p = -gamma * np.maximum(0.0, 1.0 + m - s) * (s - (1.0 - m))
    da_n = np.where(s + m > 0.0, 2.0 * gamma * s, 0.0)
    da_p = np.where(1.0 + m - s > 0.0, 2.0 * gamma * (s - 1.0), 0.0)
    value = 0.0
    g = np.zeros_like(s)
    for i in range(b):
        if not (pos[i].any() and neg[i].any()):
            continue
        lse_n, w_n = loop_masked_lse(a_n[i], neg[i])
        lse_p, w_p = loop_masked_lse(a_p[i], pos[i])
        t = lse_n + lse_p
        value += np.logaddexp(0.0, t)
        sg = 1.0 / (1.0 + np.exp(-t))
        g[i] += sg * (w_n * da_n[i] + w_p * da_p[i])
    value /= b
    g /= b
    return float(value), (g + g.T) @ emb, None


def loop_multisim(batch, params):
    emb, labels = batch.embeddings, batch.labels
    alpha, beta = params.multisim_alpha, params.multisim_beta
    lam, eps = params.multisim_lambda, params.multisim_epsilon
    pos, neg = loop_masks(labels)
    s = emb @ emb.T
    per_anchor = []
    g = np.zeros_like(s)
    for i in range(batch.size):
        if not (pos[i].any() and neg[i].any()):
            continue
        min_pos = float(np.min(s[i][pos[i]]))
        max_neg = float(np.max(s[i][neg[i]]))
        keep_n = neg[i] & (s[i] > min_pos - eps)
        keep_p = pos[i] & (s[i] < max_neg + eps)
        if not (keep_n.any() or keep_p.any()):
            continue
        row = 0.0
        if keep_p.any():
            lp, w_p = loop_log1p_sumexp(-alpha * (s[i][keep_p] - lam))
            row += lp / alpha
            g[i][keep_p] += -w_p
        if keep_n.any():
            ln, w_n = loop_log1p_sumexp(beta * (s[i][keep_n] - lam))
            row += ln / beta
            g[i][keep_n] += w_n
        per_anchor.append(row)
    if not per_anchor:
        return 0.0, np.zeros_like(emb), None
    m_count = len(per_anchor)
    g /= m_count
    return float(np.sum(per_anchor)) / m_count, (g + g.T) @ emb, None


def loop_supcon(batch, params):
    emb, labels = batch.embeddings, batch.labels
    tau = params.supcon_tau
    pos, _ = loop_masks(labels)
    off = ~np.eye(batch.size, dtype=bool)
    s = (emb @ emb.T) / tau
    eligible = [i for i in range(batch.size) if pos[i].any()]
    if not eligible:
        return 0.0, np.zeros_like(emb), None
    value = 0.0
    g = np.zeros_like(s)
    for i in eligible:
        lse, w = loop_masked_lse(s[i], off[i])
        p_count = int(pos[i].sum())
        value += -(float(np.sum(s[i][pos[i]])) - p_count * lse) / p_count
        g[i] += w - pos[i] / p_count
    value /= len(eligible)
    g /= len(eligible) * tau
    return float(value), (g + g.T) @ emb, None


def loop_softtriple(batch, bank, params):
    emb, labels = batch.embeddings, batch.labels
    w = bank.vectors
    n_classes, n_centers = w.shape[0], w.shape[1]
    lam, gamma = params.softtriple_lambda, params.softtriple_gamma
    delta, tau_reg = params.softtriple_delta, params.softtriple_tau_reg
    b = batch.size
    q = np.einsum("id,cjd->icj", emb, w)
    qs = q / gamma
    qs -= qs.max(axis=2, keepdims=True)
    r = np.exp(qs)
    r /= r.sum(axis=2, keepdims=True)
    sim = np.sum(r * q, axis=2)
    z = lam * sim
    z[np.arange(b), labels] -= lam * delta
    rows = np.arange(b)
    shift = z - z.max(axis=1, keepdims=True)
    ex = np.exp(shift)
    resid = ex / ex.sum(axis=1, keepdims=True)
    resid[rows, labels] -= 1.0
    value = float(-np.mean(shift[rows, labels] - np.log(ex.sum(axis=1))))
    dsim = lam * (resid / b)
    dq = dsim[:, :, None] * r * (1.0 + (q - sim[:, :, None]) / gamma)
    grad_emb = np.einsum("icj,cjd->id", dq, w)
    grad_w = np.einsum("icj,id->cjd", dq, emb)
    if n_centers >= 2 and tau_reg != 0.0:
        denom = n_classes * n_centers * (n_centers - 1)
        reg = 0.0
        for j in range(n_centers):
            for jj in range(j + 1, n_centers):
                dots = np.einsum("cd,cd->c", w[:, j, :], w[:, jj, :])
                chord = np.sqrt(np.maximum(2.0 - 2.0 * dots, 1e-30))
                reg += float(np.sum(chord))
                coef = -tau_reg / (denom * chord)
                grad_w[:, j, :] += coef[:, None] * w[:, jj, :]
                grad_w[:, jj, :] += coef[:, None] * w[:, j, :]
        value += tau_reg * reg / denom
    return value, grad_emb, grad_w


def loop_triplet_kink(batch, params):
    emb = batch.embeddings
    pos, neg = loop_masks(batch.labels)
    s = emb @ emb.T
    h = s[:, None, :] - s[:, :, None] + params.triplet_margin
    valid = pos[:, :, None] & neg[:, None, :]
    return float(np.min(np.abs(h[valid]))) if valid.any() else np.inf


def loop_multisim_kink(batch, params):
    emb = batch.embeddings
    pos, neg = loop_masks(batch.labels)
    s = emb @ emb.T
    eps = params.multisim_epsilon
    dist = np.inf
    for i in range(batch.size):
        if not (pos[i].any() and neg[i].any()):
            continue
        min_pos = float(np.min(s[i][pos[i]]))
        max_neg = float(np.max(s[i][neg[i]]))
        dist = min(dist, float(np.min(np.abs(s[i][neg[i]] - (min_pos - eps)))))
        dist = min(dist, float(np.min(np.abs(s[i][pos[i]] - (max_neg + eps)))))
    return dist


def loop_circle_kink(batch, params):
    emb = batch.embeddings
    _, neg = loop_masks(batch.labels)
    s = emb @ emb.T
    dist = np.inf
    for i in range(batch.size):
        if neg[i].any():
            dist = min(dist, float(np.min(np.abs(s[i][neg[i]] + params.circle_m))))
    return dist


def loop_softtriple_kink(bank):
    # a chord sqrt(2-2t) below 0.05 makes the regularizer too curved to difference
    w = bank.vectors
    for j in range(w.shape[1]):
        for jj in range(j + 1, w.shape[1]):
            dots = np.einsum("cd,cd->c", w[:, j, :], w[:, jj, :])
            if float(np.min(np.sqrt(np.maximum(2.0 - 2.0 * dots, 0.0)))) < 0.05:
                return 0.0
    return np.inf


LOOP_KINKS = {"triplet": loop_triplet_kink, "circle": loop_circle_kink,
              "multisim": loop_multisim_kink}


def kink_distance(kind, batch, params, bank):
    """How far, in similarity units, the batch and bank sit from the loss's
    nearest non-smooth point; supcon and proxynca are smooth."""
    if kind == "softtriple":
        return loop_softtriple_kink(bank)
    return LOOP_KINKS[kind](batch, params) if kind in LOOP_KINKS else np.inf


def finite_diff_check(kind, batch, params, eps=1e-5, bank=None, rng=None):
    """Relative error between analytic and central-difference gradients.

    The embedding and aux surfaces form one flat gradient vector; the report
    is max|analytic - numeric| / max(1e-12, max|numeric|), i.e. the largest
    coordinate discrepancy measured against the gradient's own scale.  (A
    per-coordinate quotient would demand more absolute precision than the
    float64 difference quotient can deliver on near-zero coordinates.)
    Batches (and banks) sitting closer to a hinge/mining kink than the
    difference step can resolve are redrawn from ``rng`` first, up to 50 times;
    if the last redraw still sits on a kink, `LossError` is raised.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    window = max(1e-6, 4.0 * eps)
    for redraws in range(51):
        kink = kink_distance(kind, batch, params, bank)
        if kink >= window:
            break
        if redraws == 50:
            raise LossError(f"{kind} batch sits on a kink after 50 redraws: kink distance "
                            f"{kink:.3g} is inside the window {window:.3g}")
        batch = Batch(unit_rows(rng.standard_normal(batch.embeddings.shape)), batch.labels)
        if bank is not None:
            bank = type(bank)(unit_rows(rng.standard_normal(bank.vectors.shape)))

    result = compute_loss(kind, batch, params, bank)

    def value(emb, at_bank):
        return compute_loss(kind, Batch(emb, batch.labels), params, at_bank).value

    def sweep(base, value_of):
        flat = base.reshape(-1)
        numeric = np.empty_like(flat)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = value_of(base)
            flat[idx] = orig - eps
            down = value_of(base)
            flat[idx] = orig
            numeric[idx] = (up - down) / (2.0 * eps)
        return numeric

    analytic = [result.grad_embeddings.reshape(-1)]
    numeric = [sweep(batch.embeddings.copy(), lambda emb: value(emb, bank))]
    if bank is not None and result.grad_aux is not None:
        analytic.append(result.grad_aux.reshape(-1))
        numeric.append(sweep(bank.vectors.copy(),
                             lambda aux: value(batch.embeddings, type(bank)(aux))))
    a = np.concatenate(analytic)
    n = np.concatenate(numeric)
    return float(np.max(np.abs(a - n)) / max(1e-12, float(np.max(np.abs(n)))))


LOOP_KERNELS = {"circle": loop_circle, "multisim": loop_multisim, "supcon": loop_supcon}
ONE_SIDED_EPS = 0.1


def one_sided_rows(rng, b, d):
    """b rows whose anchor (row 0, label 0) mines only its positive (row 1)
    or only its hardest negative (row 2).  In exact arithmetic an anchor
    keeps its hardest negative iff it keeps its hardest positive (both mean
    min_pos < max_neg + eps), so only rounding separates the two sides: here
    s_01 and s_02 sit on the epsilon boundary, where fl(s_01 - eps) and
    fl(s_02 + eps) round to opposite sides.  Rows 3.. are negatives of the
    anchor well below row 2."""
    while True:
        s_02 = float(rng.uniform(-0.9, 0.8))
        s_01 = s_02 + ONE_SIDED_EPS
        steps = int(rng.integers(-3, 4))
        for _ in range(abs(steps)):
            s_01 = float(np.nextafter(s_01, np.sign(steps) * np.inf))
        if (s_02 > s_01 - ONE_SIDED_EPS) != (s_01 < s_02 + ONE_SIDED_EPS):
            break
    rows = rng.standard_normal((b, d))
    rows[0] = 0.0
    rows[:, 0] = [1.0, s_01, s_02] + [-2.0] * (b - 3)
    labels = np.concatenate([[0, 0, 1], rng.integers(1, 3, size=b - 3)])
    return rows, labels


def reference_batches(count=1200):
    """Seeded (family, batch, params) triples covering balanced m x k batches,
    random labels with singletons, one-class batches, one-sided multisim rows
    and the sharp hyperparameters."""
    rng = np.random.default_rng(515)
    families = ("balanced", "random", "one_class", "one_sided", "sharp")
    for case in range(count):
        family = families[case % len(families)]
        d = int(rng.integers(2, 9))
        if family in ("balanced", "sharp"):
            m, k = int(rng.integers(1, 7)), int(rng.integers(2, 5))
            labels = rng.permutation(np.repeat(rng.permutation(40)[:m], k))
        elif family == "random":
            b = int(rng.integers(2, 25))
            labels = rng.integers(0, int(rng.integers(1, b + 1)), size=b)
        elif family == "one_class":
            labels = np.full(int(rng.integers(2, 12)), int(rng.integers(5)))
        if family == "one_sided":
            emb, labels = one_sided_rows(rng, int(rng.integers(3, 12)), d)
        else:
            emb = unit_rows(rng.standard_normal((labels.size, d)))
        yield family, Batch(emb, labels), SHARP if family == "sharp" else LossParams()


def reference_banks(rng, n_classes, d):
    """Center banks with J = 1..4, some with near-coincident or equal centers."""
    j = int(rng.integers(1, 5))
    w = unit_rows(rng.standard_normal((n_classes, j, d)))
    if j >= 2 and rng.random() < 0.5:
        gap = 10.0 ** -float(rng.integers(1, 9))
        w[:, 1] = unit_rows(w[:, 0] + gap * rng.standard_normal((n_classes, d)))
    if j >= 2 and rng.random() < 0.1:
        w[0, -1] = w[0, 0]
    return CenterBank(w)


def close(got, want, rel=1e-12):
    """Agreement within rel of the reference's own scale (exact zeros stay zero)."""
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want), initial=0.0)) <= rel * float(
        np.max(np.abs(want), initial=0.0))


class TestAgainstPerAnchorReference:
    def test_pair_kernels_match(self):
        families = set()
        for family, batch, params in reference_batches():
            families.add(family)
            for kind, loop in LOOP_KERNELS.items():
                want_value, want_grad, _ = loop(batch, params)
                got = compute_loss(kind, batch, params)
                assert close(got.value, want_value), (kind, family, got.value, want_value)
                assert close(got.grad_embeddings, want_grad), (kind, family)
                assert got.grad_aux is None
        assert len(families) == 5

    def test_one_sided_multisim_rows_are_covered(self):
        """The one-sided family really mines one side only on its anchor row."""
        seen = {"pos_only": 0, "neg_only": 0}
        for family, batch, params in reference_batches():
            if family != "one_sided":
                continue
            s = batch.embeddings @ batch.embeddings.T
            pos, neg = loop_masks(batch.labels)
            min_pos, max_neg = s[0][pos[0]].min(), s[0][neg[0]].max()
            keep_n = (s[0][neg[0]] > min_pos - ONE_SIDED_EPS).any()
            keep_p = (s[0][pos[0]] < max_neg + ONE_SIDED_EPS).any()
            if keep_p and not keep_n:
                seen["pos_only"] += 1
            if keep_n and not keep_p:
                seen["neg_only"] += 1
        assert min(seen.values()) >= 10, seen

    def test_softtriple_matches(self):
        rng = np.random.default_rng(516)
        decisions = set()
        for case, (_, batch, params) in enumerate(reference_batches()):
            bank = reference_banks(rng, int(batch.labels.max()) + 1, batch.embeddings.shape[1])
            if case % 7 == 0:
                params = LossParams(softtriple_tau_reg=0.0)
            want_value, want_emb, want_w = loop_softtriple(batch, bank, params)
            got = compute_loss("softtriple", batch, params, bank)
            assert close(got.value, want_value), (case, got.value, want_value)
            assert close(got.grad_embeddings, want_emb), case
            assert close(got.grad_aux, want_w), case
            decisions.add(loop_softtriple_kink(bank))
        assert decisions == {0.0, np.inf}

    @pytest.mark.parametrize("n_classes, d", [(190, 2), (190, 8), (1000, 2), (1000, 8)])
    def test_softtriple_matches_at_training_bank_sizes(self, n_classes, d):
        """8 x 4 batches against banks of a training run's size, J = 5: banks seeded
        as `train` seeds them (jittered copies of a class mean) alternate with
        independent random centers."""
        rng = np.random.default_rng(517 + n_classes + d)
        params = LossParams()
        for draw in range(60):
            labels = np.repeat(rng.choice(n_classes, size=8, replace=False), 4)
            batch = Batch(unit_rows(rng.standard_normal((32, d))), labels)
            means = unit_rows(rng.standard_normal((n_classes, d)))
            bank = (CenterBank.seeded(means, params, rng) if draw % 2 == 0
                    else CenterBank(unit_rows(rng.standard_normal((n_classes, 5, d)))))
            want_value, want_emb, want_w = loop_softtriple(batch, bank, params)
            got = compute_loss("softtriple", batch, params, bank)
            assert close(got.value, want_value), (draw, got.value, want_value)
            assert close(got.grad_embeddings, want_emb), draw
            assert close(got.grad_aux, want_w), draw
