"""Seen/unseen split generation over a branch/chain hierarchy.

Eight split names partition a catalog: ``train``, three validation splits and
four test splits.  Difficulty grades by what training saw: ``*_ss`` images
come from branches whose other images stay in train, ``*_su`` from held-out
branches of chains still present in train, ``*_uu`` from fully held-out
chains, and ``test_unk`` holds every unknown-chain image.  Validation splits
are carved from the train portion by the same recipe; there is deliberately
no ``val_unk``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
    seed: int
    uu_chain_fraction: float
    su_branch_fraction: float
    t1: int
    t2: int
    ss_divisor: int = 5

    def validate(self) -> None:
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

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "uu_chain_fraction": self.uu_chain_fraction,
            "su_branch_fraction": self.su_branch_fraction,
            "t1": self.t1,
            "t2": self.t2,
            "ss_divisor": self.ss_divisor,
        }


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
    branch_images: dict[str, list[str]],
    branch_chain: dict[str, str],
    config: SplitConfig,
    uu_blocked: frozenset[str],
    su_blocked: frozenset[str],
    stage: str,
) -> tuple[set[str], set[str], dict[str, list[str]]]:
    """One round of the carve: returns (uu chains, su branches, ss draws)."""
    chains = sorted({branch_chain[b] for b in branch_images})
    if not chains:
        raise SplitError(f"{stage}: empty chain pool")

    # whole-chain holdout: every branch of a sampled chain leaves the pool
    uu_candidates = [c for c in chains if c not in uu_blocked]
    n_uu = math.ceil(config.uu_chain_fraction * len(chains))
    n_uu = min(n_uu, len(uu_candidates), len(chains) - 1)
    uu_chains: set[str] = set()
    if n_uu > 0:
        picked = rng.choice(len(uu_candidates), size=n_uu, replace=False)
        uu_chains = {uu_candidates[i] for i in picked}

    # branch holdout, constrained so every remaining chain keeps >= 1 branch
    rest = sorted(b for b in branch_images if branch_chain[b] not in uu_chains)
    chain_remaining: dict[str, int] = {}
    for b in rest:
        chain_remaining[branch_chain[b]] = chain_remaining.get(branch_chain[b], 0) + 1
    quota = math.ceil(config.su_branch_fraction * len(rest))
    candidates = [b for b in rest if b not in su_blocked]
    su_branches: set[str] = set()
    while len(su_branches) < quota and candidates:
        j = int(rng.integers(len(candidates)))
        b = candidates.pop(j)
        c = branch_chain[b]
        if chain_remaining[c] >= 2:  # never strip a chain's last branch
            su_branches.add(b)
            chain_remaining[c] -= 1

    # per-branch image holdout for branches big enough to spare t2..N/div
    ss_draws: dict[str, list[str]] = {}
    for b in rest:
        if b in su_branches:
            continue
        images = branch_images[b]
        n = len(images)
        if n < config.t1:
            continue
        hi = n // config.ss_divisor
        k = int(rng.integers(config.t2, hi + 1))
        picked = rng.choice(n, size=k, replace=False)
        ss_draws[b] = [images[i] for i in sorted(picked)]
    return uu_chains, su_branches, ss_draws


def generate_splits(catalog: Catalog, config: SplitConfig) -> SplitAssignment:
    """Deterministic split of every catalog image into the eight names."""
    config.validate()
    if not catalog.records:
        raise SplitError("catalog is empty")
    if len(catalog.chain_index) < 2:
        raise SplitError("need at least 2 known chains")

    rng = np.random.default_rng(config.seed & 0xFFFFFFFFFFFFFFFF)
    assignment: dict[str, str] = {}
    branch_chain_all = catalog.branch_chain_map()

    for b in sorted(catalog.unknown_branches):
        for image in catalog.branch_index[b]:
            assignment[image] = "test_unk"

    known_branches = {
        b: sorted(catalog.branch_index[b]) for b in catalog.branch_index if b not in catalog.unknown_branches
    }
    branch_chain = {b: branch_chain_all[b] for b in known_branches}

    uu_chains, su_branches, ss_draws = _carve_stage(
        rng, known_branches, branch_chain, config, frozenset(), frozenset(), "test"
    )
    train_pool: dict[str, list[str]] = {}
    for b in sorted(known_branches):
        images = known_branches[b]
        if branch_chain[b] in uu_chains:
            for image in images:
                assignment[image] = "test_uu"
        elif b in su_branches:
            for image in images:
                assignment[image] = "test_su"
        else:
            held = set(ss_draws.get(b, ()))
            for image in images:
                if image in held:
                    assignment[image] = "test_ss"
            train_pool[b] = [i for i in images if i not in held]

    # the val carve must not starve the test splits of their train support:
    # chains holding a test_ss or test_su branch stay out of val_uu, and
    # test_ss branches stay out of val_su
    protected_chains = frozenset(branch_chain[b] for b in su_branches) | frozenset(
        branch_chain[b] for b in ss_draws
    )
    protected_branches = frozenset(ss_draws)

    val_uu, val_su, val_ss = _carve_stage(
        rng, train_pool, branch_chain, config, protected_chains, protected_branches, "val"
    )
    for b in sorted(train_pool):
        images = train_pool[b]
        if branch_chain[b] in val_uu:
            for image in images:
                assignment[image] = "val_uu"
        elif b in val_su:
            for image in images:
                assignment[image] = "val_su"
        else:
            held = set(val_ss.get(b, ()))
            for image in images:
                assignment[image] = "val_ss" if image in held else "train"

    return SplitAssignment(assignment=assignment, config=config)


def verify_splits(catalog: Catalog, assignment: SplitAssignment) -> ConstraintReport:
    """Re-derive every structural constraint from raw sets; failures are report
    entries, never exceptions."""
    branch_of = catalog.branch_of()
    branch_chain = catalog.branch_chain_map()
    t2 = assignment.config.t2 if assignment.config is not None else 1
    sets = {name: set(images) for name, images in assignment.by_split().items()}

    def branches(name: str) -> set[str]:
        return {branch_of[i] for i in sets[name] if i in branch_of}

    def chains(name: str) -> set[str]:
        return {branch_chain[b] for b in branches(name) if branch_chain[b] is not None}

    checks: list[CheckResult] = []
    catalog_ids = set(branch_of)
    assigned_ids = set(assignment.assignment)
    bad_names = sorted({n for n in assignment.assignment.values() if n not in SPLIT_NAMES})
    offenders_a = sorted(catalog_ids ^ assigned_ids) + bad_names
    checks.append(CheckResult("a_total_disjoint", not offenders_a, tuple(offenders_a)))

    trainval = sets["train"] | sets["val_ss"] | sets["val_su"] | sets["val_uu"]
    trainval_branches = {branch_of[i] for i in trainval if i in branch_of}
    train_branches = branches("train")
    train_chains = chains("train")

    def ss_check(name: str) -> list[str]:
        bad: list[str] = []
        per_branch: dict[str, int] = {}
        for i in sets[name]:
            if i in branch_of:
                per_branch[branch_of[i]] = per_branch.get(branch_of[i], 0) + 1
        train_count: dict[str, int] = {}
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

    unknown = catalog.unknown_images()
    bad_e = sorted((sets["test_unk"] ^ unknown))
    checks.append(CheckResult("e_test_unk_exact", not bad_e, tuple(bad_e)))

    bad_f = ss_check("val_ss")
    checks.append(CheckResult("f_val_ss_support", not bad_f, tuple(bad_f)))
    bad_fsu = sorted(branches("val_su") & train_branches) + sorted(chains("val_su") - train_chains)
    checks.append(CheckResult("f_val_su_isolation", not bad_fsu, tuple(bad_fsu)))
    bad_fuu = sorted(chains("val_uu") & train_chains)
    checks.append(CheckResult("f_val_uu_isolation", not bad_fuu, tuple(bad_fuu)))

    # the chains surviving both whole-chain holdouts must all reach train
    expected = set(catalog.chain_index) - chains("test_uu") - chains("val_uu")
    bad_g = sorted(train_chains ^ expected)
    checks.append(CheckResult("g_train_chain_coverage", not bad_g, tuple(bad_g)))

    counts: dict[str, dict[str, int]] = {}
    for name in SPLIT_NAMES:
        images = sets[name]
        bs = {branch_of[i] for i in images if i in branch_of}
        cs = {branch_chain[b] for b in bs if branch_chain.get(b) is not None}
        counts[name] = {"images": len(images), "branches": len(bs), "chains": len(cs)}

    return ConstraintReport(checks=tuple(checks), counts=counts)


def save_assignment(assignment: SplitAssignment, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["image_id", "split"])
        for image in sorted(assignment.assignment):
            writer.writerow([image, assignment.assignment[image]])


def load_assignment(path: str | Path, config: SplitConfig | None = None) -> SplitAssignment:
    path = Path(path)
    mapping: dict[str, str] = {}
    with path.open("r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["image_id", "split"]:
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


def save_report(report: ConstraintReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_json_dict(), indent=2) + "\n", encoding="utf-8")
