"""Compression/inertia analysis: classification, certificates, searches.

A subgroup H is compressed when no overgroup has smaller rank, and inert
when no intersection H meet K has rank above rank(K).  Both properties
quantify over all finitely generated K, so this module provides three
kinds of partial evidence:

  * classify: which group shapes make every fixed subgroup compressed
    (cases euc1/euc2/euc4) or inert (euc1/euc2);
  * one-sided certificates for compression via root closure plus a
    rank comparison against the abelianized image;
  * bounded counterexample searches and seeded random samplers whose
    findings are exact witnesses, never heuristics: every rank that
    enters a comparison must carry an exact certificate, and candidates
    with inexact certificates are skipped rather than guessed.

The searches exploit one monotonicity fact: ranks of subgroups of a
finitely generated abelian group never exceed the ambient rank, so a
candidate overgroup whose abelianized image already has rank >= rank(H)
can be discarded without computing its exact rank.

Many candidate generator sets generate the same subgroup, and whether a
candidate K is a witness depends only on K.  So each search keeps a
per-call memo keyed on the canonical Subgroup: a K met before is
skipped (it was checked the first time and gave no witness), and ranks
of meets and sampled subgroups are computed once.  Before combining, the
searches also drop every pool element whose inverse comes earlier in the
pool: a subgroup contains g exactly when it contains g^-1, so a
combination using the later one generates the same K as a
lexicographically earlier combination.  Neither changes which witness
is found first.  The memos are locals of one call; nothing is kept
between calls.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .groupcore import Element, GroupSpec, format_element, parse_word
from .intlat import IntMatrix, Lattice, abelian_subgroup_rank, hnf, snf, solve_linear
from .morphism import (
    Endomorphism,
    apply,
    endo_from_words,
    fixed_subgroup,
    is_automorphism,
    random_endo,
)
from .subgroup import (
    RankCertificate,
    Subgroup,
    abelianization,
    containment,
    from_generators,
    generator_words,
    index,
    intersect,
    is_sqrt_closed,
    membership,
    rank,
    special_subgroup,
)

# ------------------------------------------------------------- classification

CASES = ("euc1", "euc2", "euc3", "euc4", "other-euclidean")


@dataclass(frozen=True)
class Classification:
    case: str
    compressed_all: bool
    inert_all: bool


def classify(spec: GroupSpec) -> Classification:
    """Which shape the group has, and whether all fixed subgroups of
    endomorphism families are compressed / inert there."""
    l, p, q = spec.klein_count, spec.free_rank, spec.torsion_count
    if l == 0:
        case = "euc1"
    elif l == 1 and p == 0:
        case = "euc2"
    elif l == 1 and p >= 1 and q == 1:
        case = "euc3"
    elif q == 0:
        case = "euc4"
    else:
        case = "other-euclidean"
    return Classification(
        case,
        compressed_all=case in ("euc1", "euc2", "euc4"),
        inert_all=case in ("euc1", "euc2"),
    )


# ----------------------------------------------------- abelian image and rank


def _abelian_image(
    gens: Sequence[Element],
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Images of gens in the abelianization of the ambient group, as
    (2-torsion parts, free parts): a-exponents mod 2 and torsion bits
    are 2-torsion, b- and free exponents are free coordinates."""
    bits = [tuple(s % 2 for s, _ in g.klein) + g.tor for g in gens]
    free = [tuple(t for _, t in g.klein) + g.free for g in gens]
    return bits, free


def abelian_image_rank(gens: Sequence[Element]) -> int:
    """Rank of the image of <gens> in the abelianization of the ambient
    group."""
    return abelian_subgroup_rank(*_abelian_image(gens))


def _memo_rank():
    """rank() memoised on the canonical subgroup, for one search call."""
    cache: dict[Subgroup, RankCertificate] = {}

    def memo(s: Subgroup) -> RankCertificate:
        cert = cache.get(s)
        if cert is None:
            cert = cache[s] = rank(s)
        return cert

    return memo


@dataclass(frozen=True)
class CompressionCertificate:
    """Certifies compression: the subgroup is closed under square roots
    and its abelianized image keeps full rank, so every overgroup has
    rank at least rank(subgroup)."""

    subgroup: Subgroup
    rank_cert: RankCertificate
    abelian_image_rank: int


def check_compressed_certificate(h: Subgroup) -> Optional[CompressionCertificate]:
    """One-sided compression check; None means "not certified", never
    "not compressed"."""
    if h.spec.torsion_count != 0:
        raise ValueError("certificate route requires a torsion-free spec")
    if not is_sqrt_closed(h):
        return None
    cert = rank(h)
    if not cert.exact:
        return None
    img = abelian_image_rank(h.stored_generators())
    if img != cert.value:
        return None
    return CompressionCertificate(h, cert, img)


# ------------------------------------------------------------------ witnesses


@dataclass(frozen=True)
class Witness:
    """A concrete rank violation.  compression: h <= k with
    rank(k) < rank(h).  inertia: rank(h meet k) > rank(k)."""

    kind: str
    h: Subgroup
    k: Subgroup
    h_rank: RankCertificate
    k_rank: RankCertificate
    meet: Optional[Subgroup] = None
    meet_rank: Optional[RankCertificate] = None


def revalidate_witness(w: Witness) -> bool:
    """Recompute everything the witness claims, from scratch."""
    kr = rank(w.k)
    if not kr.exact or kr != w.k_rank:
        return False
    if w.kind == "compression":
        hr = rank(w.h)
        if not (hr.exact and hr == w.h_rank):
            return False
        return containment(w.h, w.k) and kr.value < hr.value
    if w.kind == "inertia":
        if w.meet is None or w.meet_rank is None:
            return False
        meet = intersect(w.h, w.k)
        if meet != w.meet:
            return False
        mr = rank(meet)
        return mr.exact and mr == w.meet_rank and mr.value > kr.value
    return False


def describe_witness(w: Witness) -> str:
    lines = [f"kind: {w.kind}"]
    lines.append("H = " + ", ".join(generator_words(w.h)))
    lines.append("K = " + ", ".join(generator_words(w.k)))
    if w.kind == "compression":
        lines.append(f"rank(H) = {w.h_rank.lower}, rank(K) = {w.k_rank.lower}")
    else:
        lines.append("H meet K = " + ", ".join(generator_words(w.meet)))
        lines.append(
            f"rank(H meet K) = {w.meet_rank.lower}, rank(K) = {w.k_rank.lower}"
        )
    return "\n".join(lines)


def enumerate_candidate_elements(spec: GroupSpec, max_word_len: int) -> list[Element]:
    """Deterministic candidate pool: words by length, letters ordered by
    generator index with the positive letter first; duplicates (as group
    elements) keep their first occurrence, the identity is dropped."""
    letters = []
    for g in spec.generators():
        letters.append(g)
        letters.append(g.inv())
    seen = set()
    out = []
    for length in range(1, max_word_len + 1):
        for combo in itertools.product(letters, repeat=length):
            g = spec.identity()
            for letter in combo:
                g = g * letter
            if g.is_identity() or g in seen:
                continue
            seen.add(g)
            out.append(g)
    return out


def _drop_later_inverses(pool: Sequence[Element]) -> list[Element]:
    """pool without the elements whose inverse comes earlier in it."""
    earlier = set()
    kept = []
    for g in pool:
        if g.inv() not in earlier:
            kept.append(g)
        earlier.add(g)
    return kept


def search_compression_counterexample(
    h: Subgroup, max_word_len: int = 3, max_extra_gens: int = 1
) -> Optional[Witness]:
    """First overgroup K = <h, W> (W a tuple of candidate words, smallest
    first) whose exact rank drops below rank(h); None if the bounded
    search is exhausted or the abelian-image screen proves none exists."""
    h_rank = rank(h)
    if not h_rank.exact:
        raise ValueError("search requires an exact rank certificate for h")
    base = h.stored_generators()
    base_bits, base_free = _abelian_image(base)
    if abelian_subgroup_rank(base_bits, base_free) >= h_rank.value:
        # every overgroup keeps at least this rank; no witness can exist
        return None
    pool = _drop_later_inverses(enumerate_candidate_elements(h.spec, max_word_len))
    pool_bits, pool_free = _abelian_image(pool)
    seen: set[Subgroup] = set()
    for size in range(1, max_extra_gens + 1):
        for idx in itertools.combinations(range(len(pool)), size):
            bits = base_bits + [pool_bits[i] for i in idx]
            free = base_free + [pool_free[i] for i in idx]
            if abelian_subgroup_rank(bits, free) >= h_rank.value:
                continue
            k = from_generators(h.spec, base + [pool[i] for i in idx])
            if k in seen:
                continue
            seen.add(k)
            if not containment(h, k):
                continue
            k_rank = rank(k)
            if not k_rank.exact or k_rank.value >= h_rank.value:
                continue
            return Witness("compression", h, k, h_rank, k_rank)
    return None


def search_inertia_counterexample(
    h: Subgroup, max_word_len: int = 3, max_gens: int = 3
) -> Optional[Witness]:
    """First K generated by candidate words (fewest generators first)
    with rank(h meet K) > rank(K), both ranks exact; None if exhausted."""
    h_rank = rank(h)
    meet_rank_of = _memo_rank()
    pool = _drop_later_inverses(enumerate_candidate_elements(h.spec, max_word_len))
    seen: set[Subgroup] = set()
    for size in range(1, max_gens + 1):
        for combo in itertools.combinations(pool, size):
            k = from_generators(h.spec, list(combo))
            if k in seen:
                continue
            seen.add(k)
            k_rank = rank(k)
            if not k_rank.exact:
                continue
            meet = intersect(h, k)
            meet_rank = meet_rank_of(meet)
            if not meet_rank.exact:
                continue
            if meet_rank.value > k_rank.value:
                return Witness(
                    "inertia", h, k, h_rank, k_rank, meet=meet, meet_rank=meet_rank
                )
    return None


# ------------------------------------------------------------ random sampling


def _random_word(spec: GroupSpec, rng: random.Random, word_len: int) -> Element:
    gens = spec.generators()
    g = spec.identity()
    if not gens:
        return g
    for _ in range(rng.randint(1, word_len)):
        base = rng.choice(gens)
        g = g * (base if rng.random() < 0.5 else base.inv())
    return g


def random_subgroup(
    spec: GroupSpec, rng: random.Random, gen_bound: int = 3, word_len: int = 4
) -> Subgroup:
    count = rng.randint(1, gen_bound)
    return from_generators(
        spec, [_random_word(spec, rng, word_len) for _ in range(count)]
    )


@dataclass(frozen=True)
class InertiaReport:
    spec: GroupSpec
    trials: int
    checked: int
    skipped: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [
            "inertia-sample trials={} checked={} skipped={} violations={}".format(
                self.trials, self.checked, self.skipped, len(self.violations)
            )
        ]
        lines.extend(self.violations)
        return "\n".join(lines)


def sample_inertia_property(
    spec: GroupSpec,
    trials: int,
    gen_bound: int = 3,
    word_len: int = 4,
    seed: int = 0,
    injected_pairs: Sequence[tuple[Subgroup, Subgroup]] = (),
) -> InertiaReport:
    """Randomized check of rank(H meet K) <= rank(K) on seeded pairs.

    Pairs whose rank certificates are not all exact are skipped and
    counted.  injected_pairs are checked before the random stream (they
    do not count as trials) so known adversarial pairs can be replayed.
    """
    rng = random.Random(seed)
    rank_of = _memo_rank()
    checked = skipped = 0
    violations = []

    def run_pair(h: Subgroup, k: Subgroup):
        nonlocal checked, skipped
        k_rank = rank_of(k)
        meet = intersect(h, k)
        meet_rank = rank_of(meet)
        if not (k_rank.exact and meet_rank.exact):
            skipped += 1
            return
        checked += 1
        if meet_rank.value > k_rank.value:
            violations.append(
                "violation H=[{}] K=[{}] meet_rank={} k_rank={}".format(
                    ", ".join(generator_words(h)),
                    ", ".join(generator_words(k)),
                    meet_rank.value,
                    k_rank.value,
                )
            )

    for h, k in injected_pairs:
        run_pair(h, k)
    for _ in range(trials):
        h = random_subgroup(spec, rng, gen_bound, word_len)
        k = random_subgroup(spec, rng, gen_bound, word_len)
        run_pair(h, k)
    return InertiaReport(spec, trials, checked, skipped, tuple(violations))


# ------------------------------------------------------------ the check suite


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    expected: str
    actual: str

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.check_id} {status} expected={self.expected} actual={self.actual}"


@dataclass(frozen=True)
class SuiteReport:
    scale: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [c.render() for c in self.checks]
        good = sum(1 for c in self.checks if c.passed)
        lines.append(f"TOTAL {good}/{len(self.checks)}")
        return "\n".join(lines)


def _run_check(checks, check_id, expected, body):
    try:
        actual = body()
    except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
        actual = f"error:{type(exc).__name__}"
    checks.append(CheckResult(check_id, actual == expected, expected, actual))


def _suite_flip_rule():
    spec = GroupSpec(1, 0, 0)
    return format_element(parse_word(spec, "b1 a1"))


def _suite_twist_fix():
    spec = GroupSpec(1, 2, 1)
    phi = endo_from_words(
        spec,
        {"a1": "a1 d1", "b1": "b1 a1", "c1": "c1 d1", "c2": "c2^-1", "d1": "d1"},
    )
    auto = is_automorphism(phi)
    fix = fixed_subgroup(phi).subgroup
    expected = from_generators(
        spec, [parse_word(spec, w) for w in ("a1^2", "b1^2", "a1 c1", "d1")]
    )
    cert = rank(fix)
    free, torsion = abelianization(fix)
    w = search_compression_counterexample(fix, max_word_len=3, max_extra_gens=2)
    k_expected = from_generators(
        spec, [parse_word(spec, s) for s in ("a1 c1", "b1", "d1")]
    )
    return "auto={},fix={},rank={},ab={}+{},K={},k_rank={}".format(
        auto,
        fix == expected,
        cert.value if cert.exact else "inexact",
        free,
        ".".join(map(str, torsion)),
        "none" if w is None else (w.k == k_expected),
        "none" if w is None else w.k_rank.value,
    )


def _suite_shear_meet():
    spec = GroupSpec(1, 1, 0)
    phi = endo_from_words(spec, {"b1": "b1 a1"}, fill_identity=True)
    fix = fixed_subgroup(phi).subgroup
    expected_fix = from_generators(
        spec, [parse_word(spec, w) for w in ("a1", "b1^2", "c1")]
    )
    other = from_generators(spec, [parse_word(spec, w) for w in ("a1 c1", "b1")])
    meet = intersect(fix, other)
    expected_meet = from_generators(
        spec, [parse_word(spec, w) for w in ("a1 c1", "a1^2", "b1^2")]
    )
    return "fix={},rank={},meet={},meet_rank={},k_rank={},index={}".format(
        fix == expected_fix,
        rank(fix).value,
        meet == expected_meet,
        rank(meet).value,
        rank(other).value,
        index(meet, fix),
    )


def _suite_two_block_inertia():
    spec = GroupSpec(2, 0, 0)
    phi = endo_from_words(spec, {"b1": "b1 a1", "b2": "b2^-1"}, fill_identity=True)
    fix = fixed_subgroup(phi).subgroup
    expected_fix = from_generators(
        spec, [parse_word(spec, w) for w in ("a1", "b1^2", "a2")]
    )
    w = search_inertia_counterexample(fix, max_word_len=3, max_gens=2)
    k_expected = from_generators(spec, [parse_word(spec, s) for s in ("a1 a2", "b1")])
    return "auto={},fix={},rank={},witness={},K={},ranks={}".format(
        is_automorphism(phi),
        fix == expected_fix,
        rank(fix).value,
        w is not None,
        "none" if w is None else (w.k == k_expected),
        "none" if w is None else f"{w.meet_rank.value}>{w.k_rank.value}",
    )


def _suite_even_powers():
    spec = GroupSpec(1, 1, 0)
    mixed = from_generators(spec, [parse_word(spec, w) for w in ("a1 c1", "b1")])
    m1 = membership(parse_word(spec, "a1^2"), mixed)
    m2 = membership(parse_word(spec, "c1^2"), mixed)
    h = from_generators(spec, [parse_word(spec, w) for w in ("a1^2", "b1^2", "c1^2")])
    cert = rank(h)
    w = search_compression_counterexample(h, max_word_len=3, max_extra_gens=2)
    return "members={}/{},rank={},K={},k_rank={}".format(
        m1,
        m2,
        cert.value if cert.exact else "inexact",
        "none" if w is None else (w.k == mixed),
        "none" if w is None else w.k_rank.value,
    )


def _suite_inertia_sampling(scale):
    trials = 500 if scale == "full" else 40
    parts = []
    for q in range(4):
        spec = GroupSpec(1, 0, q)
        report = sample_inertia_property(spec, trials, seed=100 + q)
        ratio_ok = report.checked >= 0.9 * (report.checked + report.skipped)
        parts.append(f"q{q}:viol={len(report.violations)},exact_ok={ratio_ok}")
    return ";".join(parts)


def _suite_fix_compression_sweep(scale):
    count = 200 if scale == "full" else 10
    shapes = [(1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0)]
    bad_sqrt = bad_cert = bad_search = 0
    for si, shape in enumerate(shapes):
        spec = GroupSpec(*shape)
        for i in range(count):
            phi = random_endo(spec, seed=1000 * si + i)
            fix = fixed_subgroup(phi).subgroup
            if not is_sqrt_closed(fix):
                bad_sqrt += 1
                continue
            if check_compressed_certificate(fix) is None:
                bad_cert += 1
            if search_compression_counterexample(fix, 3, 1) is not None:
                bad_search += 1
    return f"sqrt_fail={bad_sqrt},cert_fail={bad_cert},witness_found={bad_search}"


def _suite_fix_box_oracle(scale):
    count = 50 if scale == "full" else 6
    shapes = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (2, 0, 0), (1, 2, 0), (1, 0, 2)]
    mismatches = 0
    for i in range(count):
        spec = GroupSpec(*shapes[i % len(shapes)])
        phi = random_endo(spec, seed=5000 + i)
        fix = fixed_subgroup(phi).subgroup
        ranges = []
        for _ in range(spec.klein_count):
            ranges.append(range(-3, 4))
            ranges.append(range(-3, 4))
        ranges.extend(range(-3, 4) for _ in range(spec.free_rank))
        ranges.extend(range(2) for _ in range(spec.torsion_count))
        l = spec.klein_count
        for coords in itertools.product(*ranges):
            klein = tuple(
                (coords[2 * j], coords[2 * j + 1]) for j in range(l)
            )
            free = tuple(coords[2 * l: 2 * l + spec.free_rank])
            tor = tuple(coords[2 * l + spec.free_rank:])
            g = Element(spec, klein, free, tor)
            if (apply(phi, g) == g) != membership(g, fix):
                mismatches += 1
    return f"mismatches={mismatches}"


def _suite_classification_table():
    bad = 0
    for l in range(4):
        for p in range(4):
            for q in range(4):
                got = classify(GroupSpec(l, p, q))
                compressed = l == 0 or (l == 1 and p == 0) or q == 0
                inert = l == 0 or (l == 1 and p == 0)
                if got.compressed_all != compressed or got.inert_all != inert:
                    bad += 1
                if got.case not in CASES:
                    bad += 1
    return f"mismatches={bad}"


def _suite_kernel_properties(scale):
    mat_trials = 1000 if scale == "full" else 100
    elt_trials = 1000 if scale == "full" else 200
    rng = random.Random(42)
    bad = 0
    for _ in range(mat_trials):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        entries = [
            [rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)
        ]
        m = IntMatrix.from_rows(entries, cols)
        lat, _ = hnf(m)
        if not all(lat.contains(r) for r in entries):
            bad += 1
        shuffled = list(entries)
        rng.shuffle(shuffled)
        if rows >= 2:
            q = rng.randint(-2, 2)
            shuffled[0] = [x + q * y for x, y in zip(shuffled[0], shuffled[1])]
        lat2, _ = hnf(IntMatrix.from_rows(shuffled, cols))
        if lat2 != lat:
            bad += 1
        factors, _ = snf(m)
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                bad += 1
        x = [rng.randint(-4, 4) for _ in range(cols)]
        b_vec = tuple(sum(r[j] * x[j] for j in range(cols)) for r in entries)
        sol = solve_linear(m, b_vec)
        if sol is None or not sol.contains(x):
            bad += 1
    specs = [GroupSpec(1, 1, 0), GroupSpec(2, 0, 1), GroupSpec(1, 2, 1)]
    for _ in range(elt_trials):
        spec = rng.choice(specs)
        g = _random_word(spec, rng, 4)
        h = _random_word(spec, rng, 4)
        k = _random_word(spec, rng, 4)
        if (g * h) * k != g * (h * k):
            bad += 1
        if not (g * g.inv()).is_identity():
            bad += 1
        if g ** 3 != g * g * g:
            bad += 1
        if parse_word(spec, format_element(g)) != g:
            bad += 1
    return f"failures={bad}"


def paper_suite(scale: str = "quick") -> SuiteReport:
    """Run the worked-example and property checks; scale is "quick"
    (small randomized batches) or "full" (the complete budgets)."""
    if scale not in ("quick", "full"):
        raise ValueError("scale must be 'quick' or 'full'")
    checks: list[CheckResult] = []
    _run_check(checks, "normal-form-flip", "a1^-1 b1", _suite_flip_rule)
    _run_check(
        checks,
        "twist-fix-rank4",
        "auto=True,fix=True,rank=4,ab=3+2,K=True,k_rank=3",
        _suite_twist_fix,
    )
    _run_check(
        checks,
        "shear-fix-meet",
        "fix=True,rank=3,meet=True,meet_rank=3,k_rank=2,index=2",
        _suite_shear_meet,
    )
    _run_check(
        checks,
        "two-block-inertia",
        "auto=True,fix=True,rank=3,witness=True,K=True,ranks=3>2",
        _suite_two_block_inertia,
    )
    _run_check(
        checks,
        "even-powers-compression",
        "members=True/True,rank=3,K=True,k_rank=2",
        _suite_even_powers,
    )
    _run_check(
        checks,
        "inertia-sampling",
        ";".join(f"q{q}:viol=0,exact_ok=True" for q in range(4)),
        lambda: _suite_inertia_sampling(scale),
    )
    _run_check(
        checks,
        "fix-compression-sweep",
        "sqrt_fail=0,cert_fail=0,witness_found=0",
        lambda: _suite_fix_compression_sweep(scale),
    )
    _run_check(
        checks,
        "fix-box-oracle",
        "mismatches=0",
        lambda: _suite_fix_box_oracle(scale),
    )
    _run_check(checks, "classification-table", "mismatches=0", _suite_classification_table)
    _run_check(
        checks,
        "kernel-properties",
        "failures=0",
        lambda: _suite_kernel_properties(scale),
    )
    return SuiteReport(scale, tuple(checks))
