"""Image catalogs with a branch (class) / chain (super-class) hierarchy.

A catalog is the universe of image ids, each belonging to exactly one branch;
branches optionally belong to a chain.  A branch whose chain is not known is an
"unknown-chain" branch.  Catalogs are immutable after construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from . import read_csv, write_csv


class CatalogError(ValueError):
    pass


CSV_HEADER = ("image_id", "branch_id", "chain_id", "content_key")


class ImageRecord(NamedTuple):
    image_id: str
    branch_id: str
    chain_id: str | None = None
    content_key: str | None = None


@dataclass(frozen=True)
class Catalog:
    records: tuple[ImageRecord, ...]
    branch_index: dict[str, tuple[str, ...]] = field(compare=False)
    chain_index: dict[str, tuple[str, ...]] = field(compare=False)
    unknown_branches: frozenset[str] = field(compare=False)

    @classmethod
    def from_records(cls, records) -> "Catalog":
        """The catalog of ``records``, any iterable, read once: ids and branches are non-empty,
        unpadded ``str``, chains and keys ``None`` or such a string, as a CSV holds them; the
        first bad field raises."""

        def check(name: str, value) -> None:
            if not (isinstance(value, str) and value == value.strip() != ""):
                raise CatalogError(f"{name} {value!r} is not a non-empty, unpadded str")

        seen_ids: set[str] = set()
        branch_images: dict[str, list[str]] = {}
        branch_chain: dict[str, str | None] = {}
        taken: list[ImageRecord] = []
        for record in records:
            image_id, branch_id, chain_id, content_key = record
            check("image_id", image_id)
            check("branch_id", branch_id)  # before it is hashed
            if branch_id not in branch_chain:  # a branch's chain is checked once
                if chain_id is not None:
                    check("chain_id", chain_id)
                branch_chain[branch_id], branch_images[branch_id] = chain_id, []
            elif branch_chain[branch_id] != chain_id:
                raise CatalogError(f"branch {branch_id!r} has conflicting chain ids: "
                                   f"{branch_chain[branch_id]!r} vs {chain_id!r}")
            if content_key is not None:
                check("content_key", content_key)
            if image_id in seen_ids:
                raise CatalogError(f"duplicate image_id: {image_id!r}")
            seen_ids.add(image_id)
            branch_images[branch_id].append(image_id)
            taken.append(record)
        chain_branches: dict[str, list[str]] = {}
        for branch, chain in sorted(branch_chain.items()):
            if chain is not None:
                chain_branches.setdefault(chain, []).append(branch)
        return cls(
            records=tuple(taken),
            branch_index={b: tuple(ids) for b, ids in sorted(branch_images.items())},
            chain_index={c: tuple(bs) for c, bs in sorted(chain_branches.items())},
            unknown_branches=frozenset(b for b, c in branch_chain.items() if c is None),
        )

    # -- derived views ----------------------------------------------------

    def branch_of(self) -> dict[str, str]:
        return {r.image_id: r.branch_id for r in self.records}

    def branch_chain_map(self) -> dict[str, str | None]:
        out: dict[str, str | None] = {b: c for c, bs in self.chain_index.items() for b in bs}
        out.update(dict.fromkeys(self.unknown_branches))
        return out

    def unknown_images(self) -> frozenset[str]:
        return frozenset(i for b in self.unknown_branches for i in self.branch_index[b])


@dataclass(frozen=True, slots=True)
class CatalogStats:
    images: int
    branches: int
    chains: int
    branch_size_histogram: dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "images": self.images,
            "branches": self.branches,
            "chains": self.chains,
            "branch_size_histogram": {str(k): v for k, v in sorted(self.branch_size_histogram.items())},
        }


@dataclass(frozen=True, slots=True)
class DedupReport:
    merged_groups: tuple[tuple[str, ...], ...]
    dropped: tuple[str, ...]
    skipped: tuple[dict, ...]

    def to_json_dict(self) -> dict:
        return {
            "merged_groups": [list(g) for g in self.merged_groups],
            "dropped": list(self.dropped),
            "skipped": list(self.skipped),
        }


def load_catalog(path: str | Path) -> Catalog:
    """Read a catalog CSV (header ``image_id,branch_id,chain_id,content_key``
    or a prefix of it naming at least two columns; no row has more cells)."""
    reader = read_csv(path, CatalogError)
    header = next(reader, None)
    if header is None:
        raise CatalogError(f"{path}: missing header")
    header = [h.strip() for h in header]
    if len(header) < 2 or tuple(header) != CSV_HEADER[: len(header)]:
        raise CatalogError(f"{path}: bad header {header!r}, expected prefix of {','.join(CSV_HEADER)}")
    width = len(header)
    line = None  # the line of the record that `from_records` holds, while it holds one

    def parsed():
        nonlocal line
        for lineno, row in enumerate(reader, start=2):
            n = len(row)
            if n < 4:
                if n == 0 or (n == 1 and not row[0].strip()):
                    continue
                row += [""] * (4 - n)
            elif n > 4:
                del row[4:]
            if n > width:  # a cell past the header's names would be read as a chain or key
                raise CatalogError(f"{path}:{lineno}: too many columns")
            image_id, branch_id, chain_id, content_key = map(str.strip, row)
            line = lineno
            yield ImageRecord(image_id, branch_id, chain_id or None, content_key or None)
            line = None

    try:
        return Catalog.from_records(parsed())
    except CatalogError as exc:
        if line is None:  # a parse refusal, which names its place itself
            raise
        raise CatalogError(f"{path}:{line}: {exc}") from None


def save_catalog(catalog: Catalog, path: str | Path) -> None:
    """Write the catalog CSV; `Catalog.from_records` made sure that it loads back as itself."""
    write_csv(path, CSV_HEADER, catalog.records)  # None is written as an empty cell


def dedup_merge(catalog: Catalog) -> tuple[Catalog, DedupReport]:
    """Merge branches that share image content and drop the extra copies.

    Branches connected by a shared ``content_key`` collapse into one branch
    (the lexicographically smallest id of the group).  Groups whose members
    carry two different known chains are ambiguous: they are reported under
    ``skipped`` and left untouched.  Within every surviving branch, one image
    per content_key is kept (smallest image_id); records without a
    content_key always pass through.
    """
    root = {b: b for b in catalog.branch_index}

    def find(b: str) -> str:
        while root[b] != b:
            root[b] = root[root[b]]
            b = root[b]
        return b

    # each keyed record links its branch to the first branch seen with the key;
    # the smaller root wins, so a group's root is its smallest branch id
    first_branch: dict[str, str] = {}
    for rec in catalog.records:
        if rec.content_key is not None:
            a = find(first_branch.setdefault(rec.content_key, rec.branch_id))
            b = find(rec.branch_id)
            root[max(a, b)] = min(a, b)
    groups: dict[str, list[str]] = {}
    for b in sorted(catalog.branch_index):
        groups.setdefault(find(b), []).append(b)

    branch_chain = catalog.branch_chain_map()
    merged_groups: list[tuple[str, ...]] = []
    skipped: list[dict] = []
    target: dict[str, tuple[str, str | None]] = {}  # branch -> (merged branch, its chain)
    for members in groups.values():
        if len(members) == 1:
            continue
        chains = sorted({branch_chain[b] for b in members} - {None})
        if len(chains) > 1:
            skipped.append({"branches": members, "chains": chains})
            continue
        merged_groups.append(tuple(members))
        target.update(dict.fromkeys(members, (members[0], chains[0] if chains else None)))

    # first pass fixes, per (branch, content_key), the surviving image id
    kept_key: dict[tuple[str, str], str] = {}
    for rec in catalog.records:
        if rec.content_key is not None:
            slot = (target.get(rec.branch_id, (rec.branch_id, None))[0], rec.content_key)
            kept_key[slot] = min(kept_key.get(slot, rec.image_id), rec.image_id)
    out_records: list[ImageRecord] = []
    dropped: list[str] = []
    for rec in catalog.records:
        branch, chain = target.get(rec.branch_id, (rec.branch_id, rec.chain_id))
        if rec.content_key is not None and kept_key[(branch, rec.content_key)] != rec.image_id:
            dropped.append(rec.image_id)
        elif (branch, chain) == (rec.branch_id, rec.chain_id):
            out_records.append(rec)
        else:
            out_records.append(ImageRecord(rec.image_id, branch, chain, rec.content_key))

    report = DedupReport(tuple(merged_groups), tuple(sorted(dropped)), tuple(skipped))
    return Catalog.from_records(out_records), report


def stats(catalog: Catalog) -> CatalogStats:
    return CatalogStats(
        images=len(catalog.records),
        branches=len(catalog.branch_index),
        chains=len(catalog.chain_index),
        branch_size_histogram=dict(Counter(map(len, catalog.branch_index.values()))),
    )
