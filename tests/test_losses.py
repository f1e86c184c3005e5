import math

import numpy as np
import pytest

from splitmetric.losses import (
    LOSS_KINDS,
    LOSSES,
    Batch,
    CenterBank,
    LossError,
    LossParams,
    ProxyBank,
    compute_loss,
    finite_diff_check,
)


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

    def test_shape_mismatch(self):
        with pytest.raises(LossError):
            Batch(np.ones((3, 4)), np.array([0, 1]))

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
        params = LossParams(
            supcon_tau=1e-3,
            proxynca_temperature=1e-3,
            circle_gamma=300.0,
            multisim_beta=500.0,
            softtriple_gamma=1e-3,
        )
        res = compute_loss(kind, batch, params, bank)
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
