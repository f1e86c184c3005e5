import json

import numpy as np
import pytest

from splitmetric import write_json
from splitmetric.catalog import (
    CSV_HEADER,
    Catalog,
    CatalogError,
    DedupReport,
    ImageRecord,
    dedup_merge,
    load_catalog,
    save_catalog,
    stats,
)
from splitmetric.synth import generate, standard_corpus_config


def rec(image_id, branch, chain=None, key=None):
    return ImageRecord(image_id=image_id, branch_id=branch, chain_id=chain, content_key=key)


def write(tmp_path, text, name="catalog.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def reference_dedup(catalog):
    """The union-find `dedup_merge` that the one-pass version replaced."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra

    by_key = {}
    for r in catalog.records:
        if r.content_key is not None:
            by_key.setdefault(r.content_key, []).append(r)
    for key in sorted(by_key):
        branches = sorted({r.branch_id for r in by_key[key]})
        for other in branches[1:]:
            union(branches[0], other)
    groups = {}
    for r in catalog.records:
        members = groups.setdefault(find(r.branch_id), [])
        if r.branch_id not in members:
            members.append(r.branch_id)
    branch_chain = catalog.branch_chain_map()
    merged_groups, skipped, target = [], [], {}
    for root in sorted(groups):
        members = sorted(groups[root])
        if len(members) == 1:
            continue
        chains = sorted({branch_chain[b] for b in members if branch_chain[b] is not None})
        if len(chains) > 1:
            skipped.append({"branches": members, "chains": chains})
            continue
        merged_groups.append(tuple(members))
        for b in members:
            target[b] = members[0]
    kept_key = {}
    for r in catalog.records:
        if r.content_key is not None:
            slot = (target.get(r.branch_id, r.branch_id), r.content_key)
            if slot not in kept_key or r.image_id < kept_key[slot]:
                kept_key[slot] = r.image_id
    out, dropped = [], []
    for r in catalog.records:
        new_branch = target.get(r.branch_id, r.branch_id)
        if r.content_key is not None and kept_key[(new_branch, r.content_key)] != r.image_id:
            dropped.append(r.image_id)
            continue
        new_chain = r.chain_id
        if r.branch_id in target:
            known = [b for b in groups[find(r.branch_id)] if branch_chain[b] is not None]
            new_chain = branch_chain[known[0]] if known else None
        out.append(ImageRecord(r.image_id, new_branch, new_chain, r.content_key))
    report = DedupReport(tuple(merged_groups), tuple(sorted(dropped)), tuple(skipped))
    return Catalog.from_records(out), report


def random_keyed_catalog(rng):
    """Up to 80 records on up to 25 branches: unknown chains, keys shared
    within a branch, across branches and across chains."""
    n_branches = int(rng.integers(1, 26))
    chain_of = {}
    for b in range(n_branches):
        draw = rng.random()
        chain_of[f"b{b:02d}"] = (None if draw < 0.3
                                 else f"c{int(rng.integers(int(rng.integers(1, 6))))}")
    n_keys = int(rng.integers(1, 40))
    key_rate = rng.random()
    records = []
    for i in rng.permutation(int(rng.integers(0, 81))):
        branch = f"b{int(rng.integers(n_branches)):02d}"
        key = f"k{int(rng.integers(n_keys)):02d}" if rng.random() < key_rate else None
        records.append(rec(f"i{int(i):02d}", branch, chain_of[branch], key))
    return Catalog.from_records(records)


def test_image_record_fields_defaults_and_repr():
    r = ImageRecord("a", "b1")
    assert (r.image_id, r.branch_id, r.chain_id, r.content_key) == ("a", "b1", None, None)
    assert repr(r) == "ImageRecord(image_id='a', branch_id='b1', chain_id=None, content_key=None)"


class TestLoad:
    def test_three_row_file(self, tmp_path):
        p = write(tmp_path, "image_id,branch_id,chain_id\na.jpg,b1,c1\nb.jpg,b1,c1\nc.jpg,b2,\n")
        cat = load_catalog(p)
        assert len(cat.records) == 3
        assert set(cat.branch_index) == {"b1", "b2"}
        assert tuple(cat.chain_index) == ("c1",)
        assert cat.unknown_branches == frozenset({"b2"})

    def test_header_only(self, tmp_path):
        cat = load_catalog(write(tmp_path, "image_id,branch_id\n"))
        assert cat.records == ()

    def test_duplicate_id_rejected(self, tmp_path):
        p = write(tmp_path, "image_id,branch_id,chain_id\nx,b1,c1\n\ny,b1,c1\nx,b9,c2\n")
        with pytest.raises(CatalogError) as err:
            load_catalog(p)
        assert str(err.value) == f"{p}:5: duplicate image_id: 'x'"  # the blank line counts

    def test_conflicting_chain_rejected(self, tmp_path):
        p = write(tmp_path, "image_id,branch_id,chain_id\na,b1,c1\nb,b1,c2\n")
        with pytest.raises(CatalogError) as err:
            load_catalog(p)
        assert str(err.value) == f"{p}:3: branch 'b1' has conflicting chain ids: 'c1' vs 'c2'"

    def test_a_bad_csv_row_keeps_its_one_prefix(self, tmp_path):
        p = write(tmp_path, "image_id,branch_id\na,b1\nb,\"" + "k" * 200_000 + "\"\n")
        with pytest.raises(CatalogError) as err:
            load_catalog(p)
        assert str(err.value).startswith(f"{p}: line 3: field larger than field limit")

    def test_bad_header(self, tmp_path):
        with pytest.raises(CatalogError, match="header"):
            load_catalog(write(tmp_path, "id,branch\na,b1\n"))

    def test_empty_file_has_no_header(self, tmp_path):
        p = write(tmp_path, "")
        with pytest.raises(CatalogError) as err:
            load_catalog(p)
        assert str(err.value) == f"{p}: missing header"

    def test_too_many_columns_names_the_line(self, tmp_path):
        p = write(tmp_path, "image_id,branch_id\na,b1\n\nb,b1,c1,k1,extra\n")
        with pytest.raises(CatalogError) as err:
            load_catalog(p)
        assert str(err.value) == f"{p}:4: too many columns"  # the blank line counts

    @pytest.mark.parametrize("row", ["a,b1,c1", "a,b1,c1,k", "a,b1,,"])
    def test_cells_past_a_short_header_are_refused(self, tmp_path, row):
        p = write(tmp_path, f"image_id,branch_id\nx,b0\n{row}\n")
        with pytest.raises(CatalogError) as err:
            load_catalog(p)
        assert str(err.value) == f"{p}:3: too many columns"

    @pytest.mark.parametrize("row", ["a", " a ,  ", ",b1,c1", "  ,b1", "a,,c1,k1"])
    def test_missing_image_or_branch_names_the_line(self, tmp_path, row):
        p = write(tmp_path, f"image_id,branch_id,chain_id,content_key\nx,b0\n{row}\n")
        column = "branch_id" if row.split(",")[0].strip() else "image_id"
        with pytest.raises(CatalogError) as err:
            load_catalog(p)
        assert str(err.value) == f"{p}:3: {column} '' is not a non-empty, unpadded str"

    def test_short_rows_are_padded_and_cells_stripped(self, tmp_path):
        p = write(tmp_path, "image_id,branch_id,chain_id,content_key\n"
                            " a , b1 \n\n   \nb,b2, c1 \nc,b3,,k\n")
        assert load_catalog(p).records == (
            rec("a", "b1"), rec("b", "b2", "c1"), rec("c", "b3", None, "k"),
        )

    def test_four_columns_with_content_key(self, tmp_path):
        p = write(tmp_path, "image_id,branch_id,chain_id,content_key\na,b1,c1,k1\nb,b2,,\n")
        cat = load_catalog(p)
        assert cat.records[0].content_key == "k1"
        assert cat.records[1].content_key is None

    def test_round_trip_identity(self, tmp_path):
        records = (
            rec("a", "b1", "c1", "k1"),
            rec("b", "b1", "c1"),
            rec("c", "b2"),
        )
        cat = Catalog.from_records(records)
        p = tmp_path / "out.csv"
        save_catalog(cat, p)
        again = load_catalog(p)
        assert again.records == cat.records
        # serialize -> load -> serialize is byte-stable
        p2 = tmp_path / "out2.csv"
        save_catalog(again, p2)
        assert p.read_bytes() == p2.read_bytes()


class TestSave:
    """`save_catalog` only writes: a record that a catalog CSV would not hold
    as itself is refused by `Catalog.from_records`, so no such catalog exists."""

    @pytest.mark.parametrize("record, column", [
        (rec(" a", "b1"), "image_id"), (rec("a\n", "b1"), "image_id"), (rec("", "b1"), "image_id"),
        (rec("a", "b1 "), "branch_id"), (rec("a", ""), "branch_id"),
        (rec("a", "b1", ""), "chain_id"), (rec("a", "b1", " c1"), "chain_id"),
        (rec("a", "b1", "c1", ""), "content_key"), (rec("a", "b1", "c1", "k\t"), "content_key"),
        (rec(7, "b1"), "image_id"), (rec("a", ["b1"]), "branch_id"),
    ], ids=["padded_id", "newline_id", "empty_id", "padded_branch", "empty_branch",
            "empty_chain", "padded_chain", "empty_key", "padded_key", "int_id", "list_branch"])
    def test_field_that_would_not_load_back_is_refused(self, record, column):
        value = record[CSV_HEADER.index(column)]
        with pytest.raises(CatalogError) as err:
            Catalog.from_records([rec("z", "b0", "c0", "k0"), record])
        assert str(err.value) == f"{column} {value!r} is not a non-empty, unpadded str"

    def test_records_are_read_once(self):
        cat = Catalog.from_records(ImageRecord(f"i{j}", "b0", "c0") for j in range(3))
        assert cat.records == tuple(ImageRecord(f"i{j}", "b0", "c0") for j in range(3))
        assert cat.branch_index == {"b0": ("i0", "i1", "i2")}

    def test_records_that_load_back_merged_are_refused(self):
        with pytest.raises(CatalogError, match="^image_id ' a' "):
            Catalog.from_records([rec(" a", "b1", ""), rec("b", "b1 ", "", ""),
                                  rec("c", "b2", "c1")])

    def test_synth_corpus_round_trips_byte_for_byte(self, tmp_path):
        cat, _ = generate(standard_corpus_config(seed=3))
        save_catalog(cat, tmp_path / "a.csv")
        again = load_catalog(tmp_path / "a.csv")
        save_catalog(again, tmp_path / "b.csv")
        assert again.records == cat.records
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestDedup:
    def test_cross_branch_merge(self):
        cat = Catalog.from_records((rec("i1", "b1", "c1", "k"), rec("i2", "b2", "c1", "k")))
        merged, report = dedup_merge(cat)
        assert {r.branch_id for r in merged.records} == {"b1"}
        assert [r.image_id for r in merged.records] == ["i1"]
        assert report.merged_groups == (("b1", "b2"),)
        assert report.dropped == ("i2",)
        assert report.skipped == ()

    def test_no_shared_keys_is_identity(self):
        cat = Catalog.from_records((rec("i1", "b1", "c1", "k1"), rec("i2", "b2", "c2", "k2")))
        merged, report = dedup_merge(cat)
        assert merged.records == cat.records
        assert report.merged_groups == () and report.dropped == ()

    def test_chain_conflict_skipped(self):
        cat = Catalog.from_records((rec("i1", "b1", "c1", "k"), rec("i2", "b2", "c2", "k")))
        merged, report = dedup_merge(cat)
        assert merged.records == cat.records  # conflicting merge left alone
        assert len(report.skipped) == 1
        entry = report.skipped[0]
        assert sorted(entry["branches"]) == ["b1", "b2"]
        assert sorted(entry["chains"]) == ["c1", "c2"]

    def test_merge_target_is_smallest_id(self):
        cat = Catalog.from_records((
            rec("i1", "b9", "c1", "k"),
            rec("i2", "b2", None, "k"),
            rec("i3", "b5", "c1", "k2"),
            rec("i4", "b2", None, "k2"),
        ))
        merged, _ = dedup_merge(cat)
        # b9-b2 share k, b5-b2 share k2 -> one group {b2,b5,b9}, target b2
        assert {r.branch_id for r in merged.records} == {"b2"}

    def test_merged_group_keeps_known_chain(self):
        cat = Catalog.from_records((rec("i1", "b1", None, "k"), rec("i2", "b2", "c7", "k")))
        merged, _ = dedup_merge(cat)
        assert merged.records[0].chain_id == "c7"

    def test_records_without_key_pass_through(self):
        cat = Catalog.from_records((rec("i1", "b1", "c1"), rec("i2", "b1", "c1")))
        merged, report = dedup_merge(cat)
        assert merged.records == cat.records
        assert report.dropped == ()

    def test_idempotent(self):
        rng = np.random.default_rng(42)
        records = []
        chain_of = {}
        for i in range(200):
            branch = f"b{rng.integers(40):02d}"
            if branch not in chain_of:
                chain_of[branch] = f"c{rng.integers(8)}" if rng.random() < 0.8 else None
            key = f"k{rng.integers(60):02d}" if rng.random() < 0.7 else None
            records.append(rec(f"i{i:03d}", branch, chain_of[branch], key))
        cat = Catalog.from_records(tuple(records))
        once, _ = dedup_merge(cat)
        twice, report2 = dedup_merge(once)
        assert twice.records == once.records
        assert report2.merged_groups == () and report2.dropped == ()

    def test_retained_key_set_per_class_unchanged(self):
        cat = Catalog.from_records((
            rec("i1", "b1", "c1", "k1"),
            rec("i2", "b2", "c1", "k1"),
            rec("i3", "b2", "c1", "k2"),
        ))
        merged, _ = dedup_merge(cat)
        keys = {r.content_key for r in merged.records}
        assert keys == {"k1", "k2"}

    def test_matches_reference_on_random_catalogs(self):
        rng = np.random.default_rng(2026)
        merges = skips = drops = 0
        for _ in range(1200):
            catalog = random_keyed_catalog(rng)
            merged, report = dedup_merge(catalog)
            want, want_report = reference_dedup(catalog)
            assert merged.records == want.records
            assert report == want_report
            assert report.to_json_dict() == want_report.to_json_dict()
            merges += len(report.merged_groups)
            skips += len(report.skipped)
            drops += len(report.dropped)
        assert min(merges, skips, drops) > 100  # every decision is exercised

    def test_report_json_shape(self, tmp_path):
        cat = Catalog.from_records((rec("i1", "b1", "c1", "k"), rec("i2", "b2", "c1", "k")))
        _, report = dedup_merge(cat)
        p = tmp_path / "report.json"
        write_json(p, report.to_json_dict())
        payload = json.loads(p.read_text())
        assert set(payload) == {"merged_groups", "dropped", "skipped"}
        assert payload["merged_groups"] == [["b1", "b2"]]
        assert payload["dropped"] == ["i2"]


class TestStats:
    def test_counts(self):
        cat = Catalog.from_records((rec("a", "b1", "c1"), rec("b", "b1", "c1"), rec("c", "b2")))
        s = stats(cat)
        assert (s.images, s.branches, s.chains) == (3, 2, 1)
        assert s.branch_size_histogram == {1: 1, 2: 1}

    def test_empty(self):
        s = stats(Catalog.from_records(()))
        assert (s.images, s.branches, s.chains) == (0, 0, 0)

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            records = []
            chain_of = {}
            for i in range(int(rng.integers(5, 120))):
                b = f"b{rng.integers(25):02d}"
                if b not in chain_of:
                    chain_of[b] = f"c{rng.integers(6)}" if rng.random() < 0.8 else None
                records.append(rec(f"i{i:03d}", b, chain_of[b]))
            cat = Catalog.from_records(tuple(records))
            s = stats(cat)
            assert s.images == len(records)
            assert s.branches == len({r.branch_id for r in records})
            assert s.chains == len({r.chain_id for r in records if r.chain_id is not None})
            for size, count in s.branch_size_histogram.items():
                sizes = {}
                for r in records:
                    sizes[r.branch_id] = sizes.get(r.branch_id, 0) + 1
                assert count == sum(1 for v in sizes.values() if v == size)


class TestViews:
    @staticmethod
    def record_pass(catalog):
        """branch -> chain from each branch's first record, as a reference."""
        out = {}
        for r in catalog.records:
            out.setdefault(r.branch_id, r.chain_id)
        return out

    def test_branch_chain_map_matches_a_pass_over_the_records(self):
        from splitmetric.synth import generate, standard_corpus_config
        from test_acceptance import _small_catalog

        rng = np.random.default_rng(11)
        catalogs = [_small_catalog(rng) for _ in range(200)]
        catalogs.append(generate(standard_corpus_config(seed=0))[0])
        # records out of branch order, unknown branches
        catalogs.append(Catalog.from_records((rec("z", "b2"), rec("a", "b1", "c1"),
                                              rec("m", "b3"), rec("q", "b2"))))
        for catalog in catalogs:
            assert catalog.branch_chain_map() == self.record_pass(catalog)


class TestFileParity:
    """A catalog means the same in the library and in its CSV."""

    @staticmethod
    def through_a_file(catalog, path):
        save_catalog(catalog, path)
        return load_catalog(path)

    def test_catalogs_load_back_as_themselves(self, tmp_path):
        from test_digests import digests

        rng = np.random.default_rng(25)
        catalogs = [c for _, c in digests.dedup_cases()]
        catalogs += [random_keyed_catalog(rng) for _ in range(200)]
        for catalog in catalogs:
            again = self.through_a_file(catalog, tmp_path / "c.csv")
            assert again.records == catalog.records
            assert again.chain_index == catalog.chain_index
            assert again.unknown_branches == catalog.unknown_branches
            (merged, report), (want, want_report) = dedup_merge(again), dedup_merge(catalog)
            assert (merged.records, report) == (want.records, want_report)

    def test_splits_carve_the_same_from_a_file(self, tmp_path):
        from splitmetric.splitgen import generate_splits
        from test_splitgen import fuzz_cases

        for case, catalog, config in fuzz_cases():
            again = self.through_a_file(catalog, tmp_path / "c.csv")
            assert (generate_splits(again, config).assignment
                    == generate_splits(catalog, config).assignment), case

    def test_an_empty_string_chain_is_refused(self):
        """Read back from a file, chain ``''`` would be an unknown chain, and
        `SplitConfig()`'s carve would put 106 of these 192 images elsewhere."""
        records = [rec(f"c{c}_b{b}_i{i:02d}", f"c{c}_b{b}", "" if c == 0 else f"c{c}")
                   for c in range(4) for b in range(4) for i in range(12)]
        with pytest.raises(CatalogError, match="^chain_id '' is not"):
            Catalog.from_records(records)

    def test_an_int_id_is_refused(self):
        records = [rec(f"i{j}", f"b{j % 4}", "c0") for j in range(40)]
        records[7] = rec(7, "b3", "c0")
        with pytest.raises(CatalogError, match="^image_id 7 is not"):
            Catalog.from_records(records)
