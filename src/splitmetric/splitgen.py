"""Seen/unseen split generation over a branch/chain hierarchy.

Eight split names partition a catalog: ``train``, three validation splits and
four test splits.  Difficulty grades by what training saw: ``*_ss`` images
come from branches whose other images stay in train, ``*_su`` from held-out
branches of chains still present in train, ``*_uu`` from fully held-out
chains, and ``test_unk`` holds every unknown-chain image.  Validation splits
are carved from the train portion by the same recipe; there is deliberately
no ``val_unk``.

One carve stage serves both rounds: ``_carve_stage`` draws the uu chains, su
branches and ss images of one stage, assigns them, and hands the images it
leaves to the next round (test, then val, then the final train fill).  The
verifier builds one table, a count of images per branch in each split, and
every check and every reported count reads it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import check_fields, read_csv, seeded_rng, write_csv
from .catalog import Catalog

SPLIT_NAMES = (
    "train",
    "val_ss",
    "val_su",
    "val_uu",
    "test_ss",
    "test_su",
    "test_uu",
    "test_unk",
)


class SplitError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class SplitConfig:
    """The carve recipe; the defaults are the CLI `split` recipe."""

    seed: int = 0
    uu_chain_fraction: float = 0.15
    su_branch_fraction: float = 0.15
    t1: int = 10
    t2: int = 2
    ss_divisor: int = 5

    def validate(self) -> None:
        check_fields(self, SplitError)
        if not 0.0 < self.uu_chain_fraction < 1.0:
            raise SplitError("uu_chain_fraction must be in (0,1)")
        if not 0.0 < self.su_branch_fraction < 1.0:
            raise SplitError("su_branch_fraction must be in (0,1)")
        if self.t2 < 1:
            raise SplitError("t2 must be >= 1")
        if self.ss_divisor < 2:
            # divisor 1 would let a branch send every image to the ss split
            raise SplitError("ss_divisor must be >= 2")
        if self.t1 < self.ss_divisor * self.t2:
            raise SplitError("t1 must be >= ss_divisor * t2")


@dataclass(frozen=True)
class SplitAssignment:
    assignment: dict[str, str]
    config: SplitConfig | None = None

    def by_split(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {name: [] for name in SPLIT_NAMES}
        for image in sorted(self.assignment):
            name = self.assignment[image]
            out.setdefault(name, []).append(image)
        return {name: tuple(images) for name, images in out.items()}

    def images_of(self, split: str) -> tuple[str, ...]:
        return tuple(i for i in sorted(self.assignment) if self.assignment[i] == split)


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    offenders: tuple[str, ...]


@dataclass(frozen=True)
class ConstraintReport:
    checks: tuple[CheckResult, ...]
    counts: dict[str, dict[str, int]]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "offenders": list(c.offenders)} for c in self.checks
            ],
            "counts": {name: dict(self.counts[name]) for name in SPLIT_NAMES},
        }


def _carve_stage(
    rng: np.random.Generator,
    pool: dict[str, list[str]],
    branch_chain: dict[str, str | None],
    config: SplitConfig,
    assignment: dict[str, str],
    stage: str,
    protected_chains: frozenset[str] = frozenset(),
    protected_branches: frozenset[str] = frozenset(),
) -> tuple[dict[str, list[str]], set[str], set[str]]:
    """One round of the carve over ``pool`` (branch -> sorted images).

    Assigns the ``<stage>_uu``, ``<stage>_su`` and ``<stage>_ss`` images and
    returns the images left in each remaining branch, plus the su branches and
    the ss branches (those that gave up images) that a later stage must
    protect.  Protected chains never go uu; protected branches never go su.
    """
    chains = sorted({branch_chain[b] for b in pool})
    if not chains:
        raise SplitError(f"{stage}: empty chain pool")

    # whole-chain holdout: every branch of a sampled chain leaves the pool
    uu_candidates = [c for c in chains if c not in protected_chains]
    n_uu = math.ceil(config.uu_chain_fraction * len(chains))
    n_uu = min(n_uu, len(uu_candidates), len(chains) - 1)
    uu_chains: set[str] = set()
    if n_uu > 0:
        picked = rng.choice(len(uu_candidates), size=n_uu, replace=False)
        uu_chains = {uu_candidates[i] for i in picked}

    # branch holdout, constrained so every remaining chain keeps >= 1 branch
    rest = sorted(b for b in pool if branch_chain[b] not in uu_chains)
    chain_remaining = Counter(branch_chain[b] for b in rest)
    quota = math.ceil(config.su_branch_fraction * len(rest))
    candidates = [b for b in rest if b not in protected_branches]
    su_branches: set[str] = set()
    while len(su_branches) < quota and candidates:
        j = int(rng.integers(len(candidates)))
        b = candidates.pop(j)
        c = branch_chain[b]
        if chain_remaining[c] >= 2:  # never strip a chain's last branch
            su_branches.add(b)
            chain_remaining[c] -= 1

    # per-branch image holdout for branches big enough to spare t2..N/div,
    # drawn in sorted branch order after every uu and su draw
    left: dict[str, list[str]] = {}
    ss_branches: set[str] = set()
    for b in sorted(pool):
        images = pool[b]
        n = len(images)
        if branch_chain[b] in uu_chains:
            assignment.update(dict.fromkeys(images, f"{stage}_uu"))
        elif b in su_branches:
            assignment.update(dict.fromkeys(images, f"{stage}_su"))
        elif n < config.t1:
            left[b] = images
        else:
            k = int(rng.integers(config.t2, n // config.ss_divisor + 1))
            picked = sorted(rng.choice(n, size=k, replace=False).tolist())
            held = dict.fromkeys([images[j] for j in picked], f"{stage}_ss")
            assignment.update(held)
            left[b] = [image for image in images if image not in held]
            ss_branches.add(b)
    return left, su_branches, ss_branches


def generate_splits(catalog: Catalog, config: SplitConfig) -> SplitAssignment:
    """Deterministic split of every catalog image into the eight names."""
    config.validate()
    if not catalog.records:
        raise SplitError("catalog is empty")
    if len(catalog.chain_index) < 2:
        raise SplitError("need at least 2 known chains")

    rng = seeded_rng(config.seed)
    branch_chain = catalog.branch_chain_map()
    assignment = {
        image: "test_unk" for b in sorted(catalog.unknown_branches) for image in catalog.branch_index[b]
    }
    known = {
        b: sorted(images) for b, images in catalog.branch_index.items() if b not in catalog.unknown_branches
    }
    left, su_branches, ss_branches = _carve_stage(rng, known, branch_chain, config, assignment, "test")

    # the val carve must not starve the test splits of their train support:
    # chains holding a test_ss or test_su branch stay out of val_uu, and
    # test_ss branches stay out of val_su
    protected_chains = frozenset(branch_chain[b] for b in su_branches | ss_branches)
    left, _, _ = _carve_stage(
        rng, left, branch_chain, config, assignment, "val", protected_chains, frozenset(ss_branches)
    )
    for images in left.values():
        assignment.update(dict.fromkeys(images, "train"))
    return SplitAssignment(assignment=assignment, config=config)


def verify_splits(catalog: Catalog, assignment: SplitAssignment) -> ConstraintReport:
    """Re-derive every structural constraint from one table, the images per
    branch in each split; failures are report entries, never exceptions."""
    branch_of = catalog.branch_of()
    branch_chain = catalog.branch_chain_map()
    t2 = assignment.config.t2 if assignment.config is not None else 1
    images = assignment.by_split()
    table = {name: Counter(branch_of[i] for i in ids if i in branch_of) for name, ids in images.items()}
    chains = {name: {branch_chain[b] for b in table[name]} - {None} for name in SPLIT_NAMES}
    trainval = ("train", "val_ss", "val_su", "val_uu")
    trainval_branches = set().union(*(table[name] for name in trainval))
    trainval_chains = set().union(*(chains[name] for name in trainval))
    train = table["train"]

    def support(name: str) -> list[str]:
        # every ss branch keeps a train image and holds at least t2 images
        return [b for b, k in sorted(table[name].items()) if train[b] < 1 or k < t2]

    def isolation(name: str, seen_branches) -> list[str]:
        # a held-out branch is unseen, yet its chain is in train
        return sorted(table[name].keys() & seen_branches) + sorted(chains[name] - chains["train"])

    # the chains surviving both whole-chain holdouts must all reach train
    expected = set(catalog.chain_index) - chains["test_uu"] - chains["val_uu"]
    offenders = {
        "a_total_disjoint": sorted(set(branch_of) ^ set(assignment.assignment))
        + sorted(set(images) - set(SPLIT_NAMES)),
        "b_test_ss_support": support("test_ss"),
        "c_test_su_isolation": isolation("test_su", trainval_branches),
        "d_test_uu_isolation": sorted(chains["test_uu"] & trainval_chains),
        "e_test_unk_exact": sorted(set(images["test_unk"]) ^ catalog.unknown_images()),
        "f_val_ss_support": support("val_ss"),
        "f_val_su_isolation": isolation("val_su", train.keys()),
        "f_val_uu_isolation": sorted(chains["val_uu"] & chains["train"]),
        "g_train_chain_coverage": sorted(chains["train"] ^ expected),
    }
    checks = tuple(CheckResult(name, not bad, tuple(bad)) for name, bad in offenders.items())
    counts = {
        name: {"images": len(images[name]), "branches": len(table[name]), "chains": len(chains[name])}
        for name in SPLIT_NAMES
    }
    return ConstraintReport(checks=checks, counts=counts)


def save_assignment(assignment: SplitAssignment, path: str | Path) -> None:
    write_csv(path, ["image_id", "split"], sorted(assignment.assignment.items()))  # ids are unique


def load_assignment(path: str | Path, config: SplitConfig | None = None) -> SplitAssignment:
    mapping: dict[str, str] = {}
    reader = read_csv(path, SplitError)
    if [h.strip() for h in next(reader, ())] != ["image_id", "split"]:
        raise SplitError(f"{path}: bad header, expected image_id,split")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise SplitError(f"{path}:{lineno}: expected 2 columns")
        image, name = row[0].strip(), row[1].strip()
        if name not in SPLIT_NAMES:
            raise SplitError(f"{path}:{lineno}: unknown split name {name!r}")
        if image in mapping:
            raise SplitError(f"{path}:{lineno}: duplicate image {image!r}")
        mapping[image] = name
    return SplitAssignment(assignment=mapping, config=config)
