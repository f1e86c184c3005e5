import numpy as np
import pytest

from splitmetric.catalog import Catalog, ImageRecord
from splitmetric.splitgen import (
    SPLIT_NAMES,
    CheckResult,
    ConstraintReport,
    SplitAssignment,
    SplitConfig,
    SplitError,
    generate_splits,
    load_assignment,
    save_assignment,
    verify_splits,
)
from splitmetric.synth import generate, standard_corpus_config
from test_acceptance import _random_catalog, _random_split_config, _skewed_catalog, _small_catalog


def make_catalog(rng, n_chains=None, unknown_frac=0.1, size_lo=3, size_hi=40):
    """Random heterogeneous catalog built directly from records."""
    n_chains = n_chains or int(rng.integers(4, 14))
    records = []
    img = 0
    for c in range(n_chains):
        unknown = rng.random() < unknown_frac
        for b in range(int(rng.integers(2, 9))):
            branch = f"c{c:02d}b{b}"
            for _ in range(int(rng.integers(size_lo, size_hi + 1))):
                records.append(
                    ImageRecord(f"i{img:05d}", branch, None if unknown else f"c{c:02d}")
                )
                img += 1
    return Catalog.from_records(records)


def make_config(rng):
    t2 = int(rng.integers(1, 4))
    div = int(rng.integers(2, 6))
    return SplitConfig(
        seed=int(rng.integers(10_000)),
        uu_chain_fraction=float(rng.uniform(0.08, 0.35)),
        su_branch_fraction=float(rng.uniform(0.08, 0.35)),
        t1=div * t2 + int(rng.integers(0, 8)),
        t2=t2,
        ss_divisor=div,
    )


def recheck(catalog, assignment, config):
    """Constraint recomputation with plain set algebra, separate from the
    package's own verifier."""
    asg = assignment.assignment
    branch_of = catalog.branch_of()
    chain_of = catalog.branch_chain_map()
    by = {name: set() for name in SPLIT_NAMES}
    for image, name in asg.items():
        assert name in SPLIT_NAMES
        by[name].add(image)

    # partition: every catalog image exactly once
    assert set(asg) == set(branch_of)
    assert sum(len(v) for v in by.values()) == len(branch_of)

    # unknown-chain images all land in test_unk and nothing else does
    unknown = {i for i, b in branch_of.items() if chain_of[b] is None}
    assert by["test_unk"] == unknown

    def branches(name):
        return {branch_of[i] for i in by[name]}

    def chains(name):
        return {chain_of[b] for b in branches(name) if chain_of[b] is not None}

    trainish = by["train"] | by["val_ss"] | by["val_su"] | by["val_uu"]
    trainish_branches = {branch_of[i] for i in trainish}
    trainish_chains = {chain_of[b] for b in trainish_branches if chain_of[b] is not None}

    # held-out branches/chains never leak back
    assert not branches("test_su") & trainish_branches
    assert not chains("test_su") - chains("train")
    assert not chains("test_uu") & trainish_chains
    assert not branches("val_su") & branches("train")
    assert not chains("val_uu") & chains("train")

    # per-branch holdout sizes stay inside the configured band; the val carve
    # draws from what the test carve left
    held_by = {}
    for name in ("test_ss", "val_ss"):
        held = held_by[name] = {}
        for i in by[name]:
            held.setdefault(branch_of[i], []).append(i)
        pool = by["train"] | (trainish if name == "test_ss" else by["train"])
        for b, images in held.items():
            total = len(catalog.branch_index[b])
            if name == "val_ss":
                total -= len(held_by["test_ss"].get(b, ()))
            donors = [i for i in pool if branch_of[i] == b]
            assert len(donors) >= 1, (name, b)
            assert len(images) >= config.t2, (name, b)
            assert total >= config.t1, (name, b)
            assert len(images) <= total // config.ss_divisor, (name, b)

    # the val carve leaves the test splits their train support
    assert not branches("val_su") & branches("test_ss")
    assert not chains("val_uu") & (chains("test_ss") | chains("test_su"))

    # chains that survive both whole-chain holdouts all reach train
    known = set(catalog.chain_index)
    assert chains("train") == known - chains("test_uu") - chains("val_uu")


def reference_verify(catalog, assignment):
    """The closure-based verifier the one count table replaced, kept as its
    reference; it maps branches to chains with a pass over the records."""
    branch_of = catalog.branch_of()
    branch_chain = {}
    for rec in catalog.records:
        branch_chain.setdefault(rec.branch_id, rec.chain_id)
    t2 = assignment.config.t2 if assignment.config is not None else 1
    sets = {name: set(images) for name, images in assignment.by_split().items()}

    def branches(name):
        return {branch_of[i] for i in sets[name] if i in branch_of}

    def chains(name):
        return {branch_chain[b] for b in branches(name) if branch_chain[b] is not None}

    checks = []
    catalog_ids = set(branch_of)
    assigned_ids = set(assignment.assignment)
    bad_names = sorted({n for n in assignment.assignment.values() if n not in SPLIT_NAMES})
    offenders_a = sorted(catalog_ids ^ assigned_ids) + bad_names
    checks.append(CheckResult("a_total_disjoint", not offenders_a, tuple(offenders_a)))

    trainval = sets["train"] | sets["val_ss"] | sets["val_su"] | sets["val_uu"]
    trainval_branches = {branch_of[i] for i in trainval if i in branch_of}
    train_branches = branches("train")
    train_chains = chains("train")

    def ss_check(name):
        bad = []
        per_branch = {}
        for i in sets[name]:
            if i in branch_of:
                per_branch[branch_of[i]] = per_branch.get(branch_of[i], 0) + 1
        train_count = {}
        for i in sets["train"]:
            if i in branch_of:
                train_count[branch_of[i]] = train_count.get(branch_of[i], 0) + 1
        for b, k in sorted(per_branch.items()):
            if train_count.get(b, 0) < 1:
                bad.append(b)
            elif k < t2:
                bad.append(b)
        return bad

    bad_b = ss_check("test_ss")
    checks.append(CheckResult("b_test_ss_support", not bad_b, tuple(bad_b)))
    bad_c = sorted(branches("test_su") & trainval_branches) + sorted(chains("test_su") - train_chains)
    checks.append(CheckResult("c_test_su_isolation", not bad_c, tuple(bad_c)))
    trainval_chains = {branch_chain[b] for b in trainval_branches if branch_chain[b] is not None}
    bad_d = sorted(chains("test_uu") & trainval_chains)
    checks.append(CheckResult("d_test_uu_isolation", not bad_d, tuple(bad_d)))
    bad_e = sorted(sets["test_unk"] ^ catalog.unknown_images())
    checks.append(CheckResult("e_test_unk_exact", not bad_e, tuple(bad_e)))
    bad_f = ss_check("val_ss")
    checks.append(CheckResult("f_val_ss_support", not bad_f, tuple(bad_f)))
    bad_fsu = sorted(branches("val_su") & train_branches) + sorted(chains("val_su") - train_chains)
    checks.append(CheckResult("f_val_su_isolation", not bad_fsu, tuple(bad_fsu)))
    bad_fuu = sorted(chains("val_uu") & train_chains)
    checks.append(CheckResult("f_val_uu_isolation", not bad_fuu, tuple(bad_fuu)))
    expected = set(catalog.chain_index) - chains("test_uu") - chains("val_uu")
    bad_g = sorted(train_chains ^ expected)
    checks.append(CheckResult("g_train_chain_coverage", not bad_g, tuple(bad_g)))

    counts = {}
    for name in SPLIT_NAMES:
        images = sets[name]
        bs = {branch_of[i] for i in images if i in branch_of}
        cs = {branch_chain[b] for b in bs if branch_chain.get(b) is not None}
        counts[name] = {"images": len(images), "branches": len(bs), "chains": len(cs)}
    return ConstraintReport(checks=tuple(checks), counts=counts)


def fuzz_cases(small=186, random=6, skewed=8):
    """(case, catalog, config) from the acceptance gate's catalog generators."""
    rng = np.random.default_rng(700)
    for trial in range(small):
        catalog = _small_catalog(rng)
        while len(catalog.chain_index) < 2:
            catalog = _small_catalog(rng)
        yield f"small{trial}", catalog, _random_split_config(rng)
    for trial in range(random):
        yield f"fuzz{trial}", _random_catalog(rng), _random_split_config(rng)
    skewed_catalog = _skewed_catalog()
    for seed in range(skewed):
        config = SplitConfig(seed=seed, uu_chain_fraction=0.2, su_branch_fraction=0.2, t1=10, t2=2)
        yield f"skewed{seed}", skewed_catalog, config


def mutations(catalog, assignment, seed):
    """(case, mapping): the carve itself, then seeded breaks of it.  Each
    ``to_<name>`` case moves some images of one branch, plus one random image,
    to that name, ``val_unk`` included."""
    rng = np.random.default_rng(seed)
    ids = sorted(assignment)
    branches = sorted(catalog.branch_index)
    yield "carved", assignment
    for target in SPLIT_NAMES + ("val_unk",):
        images = catalog.branch_index[branches[int(rng.integers(len(branches)))]]
        picked = rng.choice(len(images), size=int(rng.integers(1, len(images) + 1)), replace=False)
        moved = dict(assignment)
        for image in [images[j] for j in picked] + [ids[int(rng.integers(len(ids)))]]:
            moved[image] = target
        yield f"to_{target}", moved
    dropped = dict(assignment)
    del dropped[ids[int(rng.integers(len(ids)))]]
    yield "dropped", dropped
    yield "foreign", {**assignment, "zz_not_in_catalog": SPLIT_NAMES[int(rng.integers(8))]}


class TestProperties:
    def test_random_catalogs_pass_all_constraints(self):
        rng = np.random.default_rng(100)
        for trial in range(12):
            catalog = make_catalog(rng)
            config = make_config(rng)
            assignment = generate_splits(catalog, config)
            report = verify_splits(catalog, assignment)
            assert report.passed, (trial, [c.name for c in report.checks if not c.passed])
            recheck(catalog, assignment, config)

    def test_determinism(self):
        rng = np.random.default_rng(200)
        catalog = make_catalog(rng, n_chains=10)
        config = make_config(rng)
        a = generate_splits(catalog, config)
        b = generate_splits(catalog, config)
        assert a.assignment == b.assignment

    def test_seed_changes_assignment(self):
        rng = np.random.default_rng(201)
        catalog = make_catalog(rng, n_chains=12)
        base = make_config(rng)
        alt = SplitConfig(base.seed + 1, base.uu_chain_fraction, base.su_branch_fraction,
                          base.t1, base.t2, base.ss_divisor)
        assert generate_splits(catalog, base).assignment != generate_splits(catalog, alt).assignment

    def test_uniform_corpus_leaves_val_su_and_val_uu_empty(self):
        # when every branch clears t1, every surviving branch donates images,
        # which protects all of its chains from the second carve
        cat, _ = generate(standard_corpus_config(seed=3, d_in=8))
        config = SplitConfig(seed=0, uu_chain_fraction=0.15, su_branch_fraction=0.15, t1=10, t2=2)
        counts = verify_splits(cat, generate_splits(cat, config)).counts
        assert counts["val_su"]["images"] == 0
        assert counts["val_uu"]["images"] == 0
        for name in ("train", "val_ss", "test_ss", "test_su", "test_uu", "test_unk"):
            assert counts[name]["images"] > 0, name

    def test_heterogeneous_catalog_fills_every_split(self):
        # small branches escape the image-holdout stage, leaving their chains
        # unprotected, so the second carve can take whole chains and branches
        rng = np.random.default_rng(77)
        records = []
        img = 0
        for c in range(18):
            for b in range(int(rng.integers(3, 7))):
                size = int(rng.integers(3, 8)) if rng.random() < 0.7 else int(rng.integers(12, 30))
                for _ in range(size):
                    records.append(ImageRecord(f"i{img:05d}", f"c{c:02d}b{b}", f"c{c:02d}"))
                    img += 1
        for j in range(10):  # one unknown-chain branch
            records.append(ImageRecord(f"u{j:03d}", "unk_b", None))
        catalog = Catalog.from_records(records)

        filled = set()
        full_row_seed = None
        for seed in range(40):
            config = SplitConfig(seed=seed, uu_chain_fraction=0.2, su_branch_fraction=0.2, t1=10, t2=2)
            counts = verify_splits(catalog, generate_splits(catalog, config)).counts
            nonzero = {n for n in SPLIT_NAMES if counts[n]["images"] > 0}
            filled |= nonzero
            if nonzero == set(SPLIT_NAMES) and full_row_seed is None:
                full_row_seed = seed
        assert filled == set(SPLIT_NAMES)
        assert full_row_seed is not None  # one seed fills all eight at once

    def test_no_unknown_catalog(self):
        rng = np.random.default_rng(300)
        catalog = make_catalog(rng, n_chains=8, unknown_frac=0.0)
        assignment = generate_splits(catalog, make_config(rng))
        assert verify_splits(catalog, assignment).passed
        assert assignment.images_of("test_unk") == ()


class TestReference:
    def test_verify_matches_reference_on_fuzz_catalogs_and_mutations(self):
        # the config rides on every other case, so each catalog and each
        # mutation is checked both with it and with none (t2 = 1)
        failing, attached_seen = set(), set()
        for n, (case, catalog, config) in enumerate(fuzz_cases()):
            carved = generate_splits(catalog, config).assignment
            for m, (mutation, mapping) in enumerate(mutations(catalog, carved, n)):
                attached = config if (n + m) % 2 == 0 else None
                assignment = SplitAssignment(mapping, attached)
                report = verify_splits(catalog, assignment).to_json_dict()
                assert report == reference_verify(catalog, assignment).to_json_dict(), (case, mutation)
                failing.update(c["name"] for c in report["checks"] if not c["passed"])
                attached_seen.add((mutation, attached is None))
        assert n + 1 >= 200
        assert failing == {c.name for c in verify_splits(catalog, assignment).checks}
        assert len(attached_seen) == 2 * (m + 1)


class TestChecks:
    @pytest.fixture()
    def case(self):
        rng = np.random.default_rng(400)
        catalog = make_catalog(rng, n_chains=10, unknown_frac=0.2)
        config = SplitConfig(seed=5, uu_chain_fraction=0.2, su_branch_fraction=0.2, t1=8, t2=2, ss_divisor=4)
        return catalog, generate_splits(catalog, config)

    def failing(self, report):
        return {c.name: c for c in report.checks if not c.passed}

    def test_moving_uu_image_to_train_fails_chain_isolation(self, case):
        catalog, assignment = case
        chain_of = catalog.branch_chain_map()
        branch_of = catalog.branch_of()
        victim = assignment.images_of("test_uu")[0]
        broken = dict(assignment.assignment)
        broken[victim] = "train"
        report = verify_splits(catalog, SplitAssignment(broken, assignment.config))
        bad = self.failing(report)
        assert "d_test_uu_isolation" in bad
        assert chain_of[branch_of[victim]] in bad["d_test_uu_isolation"].offenders

    def test_unknown_split_name_fails_validity(self, case):
        catalog, assignment = case
        broken = dict(assignment.assignment)
        broken[next(iter(broken))] = "val_unk"
        report = verify_splits(catalog, SplitAssignment(broken, assignment.config))
        bad = self.failing(report)
        assert "a_total_disjoint" in bad
        assert "val_unk" in bad["a_total_disjoint"].offenders

    def test_missing_image_fails_totality(self, case):
        catalog, assignment = case
        broken = dict(assignment.assignment)
        gone = next(iter(broken))
        del broken[gone]
        report = verify_splits(catalog, SplitAssignment(broken, assignment.config))
        assert gone in self.failing(report)["a_total_disjoint"].offenders

    def test_moving_su_image_to_train_fails_branch_isolation(self, case):
        catalog, assignment = case
        broken = dict(assignment.assignment)
        victim = assignment.images_of("test_su")[0]
        broken[victim] = "train"
        report = verify_splits(catalog, SplitAssignment(broken, assignment.config))
        assert "c_test_su_isolation" in self.failing(report)

    def test_starving_ss_branch_fails_support(self, case):
        catalog, assignment = case
        branch_of = catalog.branch_of()
        held = assignment.images_of("test_ss")
        target = branch_of[held[0]]
        broken = dict(assignment.assignment)
        for image, name in assignment.assignment.items():
            if name == "train" and branch_of[image] == target:
                broken[image] = "val_ss"  # drain the branch's train images
        report = verify_splits(catalog, SplitAssignment(broken, assignment.config))
        assert target in self.failing(report)["b_test_ss_support"].offenders


class TestConfig:
    def test_threshold_coupling(self):
        with pytest.raises(SplitError, match="t1"):
            SplitConfig(0, 0.1, 0.1, t1=9, t2=2, ss_divisor=5).validate()
        SplitConfig(0, 0.1, 0.1, t1=10, t2=2, ss_divisor=5).validate()

    def test_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(SplitError):
                SplitConfig(0, bad, 0.1, t1=10, t2=2).validate()
            with pytest.raises(SplitError):
                SplitConfig(0, 0.1, bad, t1=10, t2=2).validate()

    def test_validate_rejects_values_of_the_wrong_type(self):
        base = dict(seed=0, uu_chain_fraction=0.2, su_branch_fraction=0.2, t1=10, t2=2)
        for field, value in (("t1", 10.5), ("ss_divisor", 2.5), ("t2", True), ("seed", 1.5),
                             ("seed", "3")):
            config = SplitConfig(**{**base, field: value})
            with pytest.raises(SplitError, match=field):
                config.validate()
            catalog = make_catalog(np.random.default_rng(1), n_chains=6)
            with pytest.raises(SplitError, match=field):
                generate_splits(catalog, config)

    def test_validate_rejects_fractions_that_are_not_finite_numbers(self):
        for value in (float("nan"), float("inf"), True, "0.2", None):
            with pytest.raises(SplitError, match="uu_chain_fraction"):
                SplitConfig(0, value, 0.2, t1=10, t2=2).validate()
            with pytest.raises(SplitError, match="su_branch_fraction"):
                SplitConfig(0, 0.2, value, t1=10, t2=2).validate()

    def test_numpy_scalars_accepted_and_carve_like_python_numbers(self):
        catalog = make_catalog(np.random.default_rng(2), n_chains=8)
        plain = SplitConfig(3, 0.2, 0.25, t1=10, t2=2, ss_divisor=4)
        numpy = SplitConfig(np.int64(3), np.float64(0.2), np.float32(0.25), t1=np.int32(10),
                            t2=np.uint8(2), ss_divisor=np.int64(4))
        numpy.validate()
        assert generate_splits(catalog, numpy).assignment == generate_splits(catalog, plain).assignment

    def test_divisor_floor(self):
        with pytest.raises(SplitError, match="ss_divisor"):
            SplitConfig(0, 0.1, 0.1, t1=10, t2=2, ss_divisor=1).validate()

    def test_too_few_chains(self):
        catalog = Catalog.from_records([ImageRecord(f"i{j}", "b0", "c0") for j in range(20)])
        with pytest.raises(SplitError, match="chains"):
            generate_splits(catalog, SplitConfig(0, 0.2, 0.2, t1=10, t2=2))

    def test_empty_catalog(self):
        with pytest.raises(SplitError, match="empty"):
            generate_splits(Catalog.from_records(()), SplitConfig(0, 0.2, 0.2, t1=10, t2=2))


class TestIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(500)
        catalog = make_catalog(rng)
        config = make_config(rng)
        assignment = generate_splits(catalog, config)
        p = tmp_path / "splits.csv"
        save_assignment(assignment, p)
        back = load_assignment(p, config)
        assert back.assignment == assignment.assignment
        assert back.config == config

    def test_load_rejects_bad_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("image,name\na,train\n")
        with pytest.raises(SplitError, match="header"):
            load_assignment(p)

    def test_load_rejects_unknown_name(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("image_id,split\na,val_unk\n")
        with pytest.raises(SplitError, match="val_unk"):
            load_assignment(p)

    def test_load_skips_blank_lines(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("image_id,split\na,train\n\nb,test_ss\n\n")
        assert load_assignment(p).assignment == {"a": "train", "b": "test_ss"}

    def test_load_rejects_duplicate_image(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("image_id,split\na,train\na,test_ss\n")
        with pytest.raises(SplitError, match="duplicate"):
            load_assignment(p)

    def test_report_counts_keys(self):
        rng = np.random.default_rng(600)
        catalog = make_catalog(rng)
        counts = verify_splits(catalog, generate_splits(catalog, make_config(rng))).counts
        assert set(counts) == set(SPLIT_NAMES)
        for row in counts.values():
            assert set(row) == {"images", "branches", "chains"}
