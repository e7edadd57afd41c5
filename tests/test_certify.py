"""Classification, certificates, searches, sampler, and the check suite."""

import random
from dataclasses import replace

import pytest

from fixlab.certify import (
    CASES,
    Classification,
    check_compressed_certificate,
    classify,
    enumerate_candidate_elements,
    paper_suite,
    random_subgroup,
    revalidate_witness,
    sample_inertia_property,
    search_compression_counterexample,
    search_inertia_counterexample,
)
from fixlab.groupcore import Element, GroupSpec, format_element, parse_word
from fixlab.morphism import endo_from_words, fixed_subgroup
from fixlab.subgroup import RankCertificate, from_generators, rank, special_subgroup
from oracles import (
    reference_compression_search,
    reference_inertia_sample,
    reference_inertia_search,
)

KF = GroupSpec(1, 1, 0)
K = GroupSpec(1, 0, 0)


def sub(spec, *words):
    return from_generators(spec, [parse_word(spec, w) for w in words])


def fix_of(spec, **words):
    phi = endo_from_words(spec, words, fill_identity=True)
    return fixed_subgroup(phi).subgroup


# ------------------------------------------------------------- classification


def test_classify_frozen_cases():
    assert classify(GroupSpec(0, 2, 3)) == Classification("euc1", True, True)
    assert classify(GroupSpec(0, 0, 0)) == Classification("euc1", True, True)
    assert classify(GroupSpec(1, 0, 2)) == Classification("euc2", True, True)
    assert classify(GroupSpec(1, 0, 0)) == Classification("euc2", True, True)
    assert classify(GroupSpec(1, 1, 1)) == Classification("euc3", False, False)
    assert classify(GroupSpec(2, 0, 0)) == Classification("euc4", True, False)
    assert classify(GroupSpec(1, 1, 0)) == Classification("euc4", True, False)
    assert classify(GroupSpec(2, 1, 1)) == Classification("other-euclidean", False, False)
    assert classify(GroupSpec(1, 2, 2)) == Classification("other-euclidean", False, False)


def test_classify_full_table_consistency():
    for l in range(4):
        for p in range(4):
            for q in range(4):
                got = classify(GroupSpec(l, p, q))
                assert got.case in CASES
                assert got.compressed_all == (
                    l == 0 or (l == 1 and p == 0) or q == 0
                )
                assert got.inert_all == (l == 0 or (l == 1 and p == 0))
                assert got.compressed_all == (got.case in ("euc1", "euc2", "euc4"))
                assert got.inert_all == (got.case in ("euc1", "euc2"))


# --------------------------------------------------------------- certificates


def test_full_group_is_certified():
    cert = check_compressed_certificate(special_subgroup(KF, "full"))
    assert cert is not None
    assert cert.rank_cert.value == 3
    assert cert.abelian_image_rank == 3


def test_fixed_subgroup_is_certified():
    h = fix_of(KF, b1="b1 a1")
    cert = check_compressed_certificate(h)
    assert cert is not None
    assert cert.rank_cert.value == 3


def test_even_powers_subgroup_is_not_certified():
    assert check_compressed_certificate(sub(KF, "a1^2", "b1^2", "c1^2")) is None
    # not sqrt closed either
    assert check_compressed_certificate(sub(K, "a1^2", "b1")) is None


def test_certificate_requires_torsion_free_spec():
    spec = GroupSpec(1, 0, 1)
    with pytest.raises(ValueError):
        check_compressed_certificate(special_subgroup(spec, "full"))


# ------------------------------------------------------------------- searches


def test_candidate_enumeration_order_is_frozen():
    pool = enumerate_candidate_elements(K, 2)
    words = [format_element(g) for g in pool]
    assert words == [
        "a1",
        "a1^-1",
        "b1",
        "b1^-1",
        "a1^2",
        "a1 b1",
        "a1 b1^-1",
        "a1^-2",
        "a1^-1 b1",
        "a1^-1 b1^-1",
        "b1^2",
        "b1^-2",
    ]


def test_compression_search_on_twist_fix():
    spec = GroupSpec(1, 2, 1)
    h = sub(spec, "a1^2", "b1^2", "a1 c1", "d1")
    w = search_compression_counterexample(h, max_word_len=3, max_extra_gens=1)
    assert w is not None
    assert w.k == sub(spec, "a1 c1", "b1", "d1")
    assert (w.h_rank.value, w.k_rank.value) == (4, 3)
    assert revalidate_witness(w)


def test_compression_search_on_even_powers():
    h = sub(KF, "a1^2", "b1^2", "c1^2")
    w = search_compression_counterexample(h, max_word_len=3, max_extra_gens=2)
    assert w is not None
    assert w.k == sub(KF, "a1 c1", "b1")
    assert (w.h_rank.value, w.k_rank.value) == (3, 2)
    assert revalidate_witness(w)


def test_compression_search_screens_out_certified_subgroups():
    # the whole group has no proper overgroup at all
    assert search_compression_counterexample(special_subgroup(K, "full"), 2, 2) is None
    # certified fix: the abelian-image screen proves absence immediately
    h = fix_of(KF, b1="b1 a1")
    assert search_compression_counterexample(h, 3, 2) is None


def test_inertia_search_on_shear_fix():
    h = sub(KF, "a1", "b1^2", "c1")
    w = search_inertia_counterexample(h, max_word_len=2, max_gens=2)
    assert w is not None
    assert w.k == sub(KF, "a1 c1", "b1")
    assert w.meet == sub(KF, "a1 c1", "a1^2", "b1^2")
    assert (w.meet_rank.value, w.k_rank.value) == (3, 2)
    assert revalidate_witness(w)


def test_inertia_search_on_two_block_fix():
    spec = GroupSpec(2, 0, 0)
    h = sub(spec, "a1", "b1^2", "a2")
    w = search_inertia_counterexample(h, max_word_len=2, max_gens=2)
    assert w is not None
    assert w.k == sub(spec, "a1 a2", "b1")
    assert w.meet_rank.value == 3 and w.k_rank.value == 2
    assert revalidate_witness(w)


def test_inertia_search_finds_nothing_for_full_group():
    assert search_inertia_counterexample(special_subgroup(K, "full"), 1, 2) is None


def test_tampered_witnesses_fail_revalidation():
    h = sub(KF, "a1", "b1^2", "c1")
    w = search_inertia_counterexample(h, max_word_len=2, max_gens=2)
    assert not revalidate_witness(replace(w, k_rank=RankCertificate(5, 5, True, ())))
    assert not revalidate_witness(replace(w, meet=sub(KF, "a1")))
    assert not revalidate_witness(replace(w, kind="compression"))


# -------------------------------------------------------------------- sampler


def test_inertia_sampler_is_deterministic():
    spec = GroupSpec(1, 0, 1)
    r1 = sample_inertia_property(spec, 25, seed=7)
    r2 = sample_inertia_property(spec, 25, seed=7)
    assert r1.render() == r2.render()
    assert r1.passed and not r1.violations
    assert r1.checked + r1.skipped == 25


def test_inertia_sampler_holds_on_torsion_and_abelian_specs():
    assert sample_inertia_property(GroupSpec(1, 0, 2), 40, seed=3).passed
    assert sample_inertia_property(GroupSpec(0, 2, 0), 40, seed=3).passed


def test_inertia_sampler_reports_injected_violation():
    h = sub(KF, "a1", "b1^2", "c1")
    k = sub(KF, "a1 c1", "b1")
    report = sample_inertia_property(KF, 5, seed=1, injected_pairs=[(h, k)])
    assert len(report.violations) == 1
    assert "meet_rank=3 k_rank=2" in report.violations[0]
    assert not report.passed
    assert "violations=1" in report.render()


# ------------------------------------------------ searches against the oracle

SEARCH_CASES = [
    # two-block inertia and twist-fix compression from the paper suite
    ("inertia", GroupSpec(2, 0, 0), ("a1", "b1^2", "a2"), 3, 2),
    ("compression", GroupSpec(1, 2, 1), ("a1^2", "b1^2", "a1 c1", "d1"), 3, 2),
    # the README examples, at the CLI's default bounds
    ("compression", KF, ("a1^2", "b1^2", "c1^2"), 3, 3),
    ("inertia", KF, ("a1", "b1^2", "c1"), 3, 3),
    # no witness within bounds
    ("inertia", K, ("a1", "b1"), 2, 2),
    ("inertia", GroupSpec(1, 0, 1), ("a1", "b1"), 2, 2),
    ("inertia", GroupSpec(2, 0, 0), ("a1", "b1"), 1, 3),
    ("compression", K, ("a1^2", "b1"), 2, 2),
    ("compression", KF, ("a1", "b1^2", "c1"), 2, 2),
]


@pytest.mark.parametrize("kind,spec,words,word_len,gens", SEARCH_CASES)
def test_search_matches_reference(kind, spec, words, word_len, gens):
    h = sub(spec, *words)
    if kind == "inertia":
        got = search_inertia_counterexample(h, word_len, gens)
        want = reference_inertia_search(h, word_len, gens)
    else:
        got = search_compression_counterexample(h, word_len, gens)
        want = reference_compression_search(h, word_len, gens)
    assert got == want


def test_searches_match_reference_on_random_subgroups():
    # seed 33 draws one subgroup with an inertia witness at these bounds
    rng = random.Random(33)
    for spec in (K, KF, GroupSpec(1, 0, 1)):
        for _ in range(2):
            h = random_subgroup(spec, rng, gen_bound=2, word_len=3)
            assert search_inertia_counterexample(h, 2, 2) == reference_inertia_search(
                h, 2, 2
            )
            if rank(h).exact:
                assert search_compression_counterexample(
                    h, 2, 2
                ) == reference_compression_search(h, 2, 2)


@pytest.mark.parametrize(
    "spec,seed", [(GroupSpec(1, 0, 2), 5), (GroupSpec(2, 0, 1), 6), (GroupSpec(1, 1, 1), 7)]
)
def test_sampler_matches_reference(spec, seed):
    assert sample_inertia_property(spec, 30, seed=seed) == reference_inertia_sample(
        spec, 30, seed=seed
    )


# ------------------------------------------------------------------ the suite


def test_quick_suite_passes_and_renders():
    report = paper_suite("quick")
    assert report.passed
    lines = report.render().splitlines()
    assert lines[0].startswith("CHECK normal-form-flip PASS ")
    assert all(
        line.startswith("CHECK ") and (" PASS " in line or " FAIL " in line)
        for line in lines[:-1]
    )
    assert lines[-1] == f"TOTAL {len(lines) - 1}/{len(lines) - 1}"


def test_suite_is_deterministic():
    assert paper_suite("quick").render() == paper_suite("quick").render()


def test_suite_rejects_unknown_scale():
    with pytest.raises(ValueError):
        paper_suite("huge")


def test_suite_catches_broken_multiplication(monkeypatch):
    def bad_mul(self, other):
        if self.spec != other.spec:
            raise ValueError("spec mismatch")
        klein = tuple(
            (s1 + s2, t1 + t2) for (s1, t1), (s2, t2) in zip(self.klein, other.klein)
        )
        free = tuple(x + y for x, y in zip(self.free, other.free))
        tor = tuple(x ^ y for x, y in zip(self.tor, other.tor))
        return Element(self.spec, klein, free, tor)

    monkeypatch.setattr(Element, "__mul__", bad_mul)
    report = paper_suite("quick")
    assert not report.passed
    assert not report.checks[0].passed
    assert report.checks[0].check_id == "normal-form-flip"
