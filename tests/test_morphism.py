"""Endomorphism construction, application, and fixed subgroups.

The fixed-subgroup oracle is blunt: walk a word ball and compare
membership against pointwise phi(g) == g.
"""

import random

import pytest

from fixlab.groupcore import GroupSpec, format_element, parse_word
from fixlab.morphism import (
    Endomorphism,
    apply,
    compose,
    describe_endo,
    endo_from_words,
    fixed_family,
    fixed_subgroup,
    identity_endo,
    is_automorphism,
    random_endo,
)
from fixlab.subgroup import (
    from_generators,
    generator_words,
    membership,
    rank,
    special_subgroup,
)

from oracles import fixed_subgroup_sweep, word_ball

KF = GroupSpec(1, 1, 0)
K = GroupSpec(1, 0, 0)
KD = GroupSpec(1, 0, 1)
BIG = GroupSpec(1, 2, 1)  # Klein x Z^2 x Z/2


def endo(spec, **words):
    return endo_from_words(spec, {k: v for k, v in words.items()}, fill_identity=True)


def sub(spec, *words):
    return from_generators(spec, [parse_word(spec, w) for w in words])


TWIST = endo(BIG, a1="a1 d1", b1="b1 a1", c1="c1 d1", c2="c2^-1")
TWIST_INV = endo(BIG, a1="a1 d1", b1="b1 a1^-1 d1", c1="c1 d1", c2="c2^-1")
SHEAR = endo(KF, b1="b1 a1")  # a -> a, b -> ba, c -> c


def test_flip_relation_is_enforced():
    with pytest.raises(ValueError, match="flip relation"):
        endo(K, a1="b1", b1="a1")


def test_cross_factor_commuting_is_enforced():
    with pytest.raises(ValueError, match="must commute"):
        endo(KF, c1="a1")


def test_torsion_square_is_enforced():
    with pytest.raises(ValueError, match="square"):
        endo(KD, d1="a1")


def test_image_count_and_spec_are_checked():
    with pytest.raises(ValueError, match="expected"):
        Endomorphism(K, (K.identity(),))
    with pytest.raises(ValueError, match="different group"):
        Endomorphism(K, (KF.identity(), KF.identity()))
    with pytest.raises(ValueError, match="unknown generators"):
        endo_from_words(K, {"c1": "a1"}, fill_identity=True)
    with pytest.raises(ValueError, match="no image"):
        endo_from_words(K, {"a1": "a1"})


def test_apply_is_a_homomorphism():
    rng = random.Random(3)
    ball = sorted(word_ball(BIG.generators(), 2), key=lambda g: g.sort_key())
    for _ in range(150):
        g, h = rng.choice(ball), rng.choice(ball)
        assert apply(TWIST, g * h) == apply(TWIST, g) * apply(TWIST, h)


def test_apply_frozen_values():
    # phi(a^-1 b) = (a d)^-1 (b a) = a^-1 b a d = a^-2 b d
    assert format_element(apply(TWIST, parse_word(BIG, "b1 a1"))) == "a1^-2 b1 d1"
    assert format_element(apply(SHEAR, parse_word(KF, "b1^2"))) == "b1^2"
    assert format_element(apply(SHEAR, parse_word(KF, "b1"))) == "a1^-1 b1"


def test_identity_endo_and_compose():
    ident = identity_endo(BIG)
    assert compose(TWIST, TWIST_INV) == ident
    assert compose(TWIST_INV, TWIST) == ident
    assert compose(ident, TWIST) == TWIST
    with pytest.raises(ValueError):
        compose(SHEAR, identity_endo(K))


def test_automorphism_detection():
    assert is_automorphism(TWIST)
    assert is_automorphism(TWIST_INV)
    assert is_automorphism(SHEAR)
    assert not is_automorphism(endo(KF, c1="1"))
    assert not is_automorphism(endo(K, a1="a1^2"))


def test_fixed_subgroup_of_shear():
    out = fixed_subgroup(SHEAR)
    assert out.subgroup == sub(KF, "a1", "b1^2", "c1")
    # parity classes with odd b-exponent die; the other four survive
    assert out.solved_classes == 4
    assert len(out.class_reps) == 3
    # phi_bar fixes the classes spanned by the a1 and c1 bits
    assert out.classes_tried == 4


def test_classes_tried_counts_the_classes_phi_bar_fixes():
    # the identity fixes every class; the trivial group has one class
    assert fixed_subgroup(identity_endo(KD)).classes_tried == 8
    assert fixed_subgroup(identity_endo(BIG)).classes_tried == 32
    trivial = fixed_subgroup(identity_endo(GroupSpec(0, 0, 0)))
    assert trivial.classes_tried == 1 and trivial.solved_classes == 1
    # a1 -> a1 d1 moves the a1 bit into d1: only classes with a1 even
    assert fixed_subgroup(endo(KD, a1="a1 d1")).classes_tried == 4


def test_fixed_subgroup_of_two_factor_shear():
    spec = GroupSpec(2, 0, 0)
    phi = endo(spec, b1="b1 a1", b2="b2^-1")
    assert fixed_subgroup(phi).subgroup == sub(spec, "a1", "b1^2", "a2")


def test_fixed_subgroup_of_decorated_twist():
    out = fixed_subgroup(TWIST)
    expected = sub(BIG, "a1^2", "b1^2", "a1 c1", "d1")
    assert out.subgroup == expected
    cert = rank(out.subgroup)
    assert cert.exact and cert.value == 4


def test_fixed_subgroup_of_identity_is_everything():
    assert fixed_subgroup(identity_endo(KD)).subgroup == special_subgroup(KD, "full")


def test_fixed_subgroup_matches_pointwise_oracle():
    cases = [
        (KF, SHEAR, 3),
        (KF, endo(KF, c1="1"), 3),
        (KD, endo(KD, a1="a1 d1"), 3),
        (K, endo(K, a1="a1^-1"), 4),
    ]
    for spec, phi, radius in cases:
        fix = fixed_subgroup(phi).subgroup
        for g in word_ball(spec.generators(), radius):
            assert membership(g, fix) == (apply(phi, g) == g), describe_endo(phi)


def test_fixed_subgroup_of_random_endos_matches_oracle():
    for spec in (KF, KD):
        for seed in range(8):
            phi = random_endo(spec, seed=seed)
            fix = fixed_subgroup(phi).subgroup
            for g in word_ball(spec.generators(), 2):
                assert membership(g, fix) == (apply(phi, g) == g), describe_endo(phi)


def _elementary_moves(spec):
    """The elementary automorphisms that the fix-sweep benchmark composes:
    b_i -> b_i a_i and b_i -> b_i^-1 per Klein factor, c_j -> c_j^-1 and
    c_j -> c_j d_k per free factor."""
    moves = []
    for i in range(1, spec.klein_count + 1):
        moves += [{f"b{i}": f"b{i} a{i}"}, {f"b{i}": f"b{i}^-1"}]
    for j in range(1, spec.free_rank + 1):
        moves.append({f"c{j}": f"c{j}^-1"})
        moves += [{f"c{j}": f"c{j} d{k}"} for k in range(1, spec.torsion_count + 1)]
    return [endo_from_words(spec, m, fill_identity=True) for m in moves]


def _differential_maps():
    shapes = [(0, 0, 0), (0, 2, 0), (0, 0, 3), (1, 0, 0), (1, 1, 1), (2, 1, 1), (3, 0, 2)]
    rng = random.Random(5)
    for shape in shapes:
        spec = GroupSpec(*shape)
        yield identity_endo(spec)
        flips = {f"b{i}": f"b{i}^-1" for i in range(1, spec.klein_count + 1)}
        yield endo_from_words(spec, flips, fill_identity=True)
        moves = _elementary_moves(spec)
        yield from moves
        for _ in range(2 if moves else 0):
            out = identity_endo(spec)
            for move in rng.sample(moves, len(moves)):
                out = compose(move, out)
            yield out
        for seed in range(6):
            yield random_endo(spec, seed=seed, max_word_len=2)
    # fixed points a1^3 b1^t, t odd, in classes with an odd b1 exponent:
    # the a1 part of their offset depends on the signs of the system
    yield endo(K, a1="a1^-1", b1="a1^6 b1")
    yield endo(BIG, a1="a1^-1", b1="a1^6 b1 c2", c1="c1 d1")


def test_fixed_subgroup_matches_the_full_class_sweep():
    for phi in _differential_maps():
        new, old = fixed_subgroup(phi), fixed_subgroup_sweep(phi)
        assert new.subgroup == old.subgroup, describe_endo(phi)
        assert generator_words(new.subgroup) == generator_words(old.subgroup)
        assert new.class_reps == old.class_reps, describe_endo(phi)
        assert new.solved_classes == old.solved_classes, describe_endo(phi)


def test_random_endo_is_deterministic_and_valid():
    e1 = random_endo(BIG, seed=11)
    e2 = random_endo(BIG, seed=11)
    assert e1 == e2
    assert random_endo(BIG, seed=12) != e1 or True  # different seed may differ
    ball = sorted(word_ball(BIG.generators(), 1), key=lambda g: g.sort_key())
    rng = random.Random(0)
    for _ in range(40):
        g, h = rng.choice(ball), rng.choice(ball)
        assert apply(e1, g * h) == apply(e1, g) * apply(e1, h)


def test_fixed_family_intersects_fixed_subgroups():
    kill_c = endo(KF, c1="1")
    assert fixed_family([SHEAR, kill_c]) == sub(KF, "a1", "b1^2")
    assert fixed_family([SHEAR]) == sub(KF, "a1", "b1^2", "c1")
    with pytest.raises(ValueError):
        fixed_family([])
    with pytest.raises(ValueError):
        fixed_family([SHEAR, identity_endo(K)])


def test_describe_endo_round_trips_names():
    text = describe_endo(SHEAR)
    assert text == "a1 -> a1, b1 -> a1^-1 b1, c1 -> c1"
