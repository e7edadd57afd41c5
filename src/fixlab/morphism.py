"""Endomorphisms by generator images, and exact fixed subgroups.

An endomorphism is a tuple of images, one per generator in the order of
GroupSpec.generator_names().  The constructor checks the defining
relations (flip relation per Klein factor, squares of torsion images,
cross-factor commuting), so every constructed value really is a
homomorphism.

Fixed subgroups are computed exactly by splitting the group along all
exponent parities.  Fixed points can only lie in parity classes that the
induced map phi_bar on (Z/2)^(2l+p+q) fixes, and those classes are found
by GF(2) elimination instead of a sweep over all 2^(2l+p+q).  Writing
each exponent as (parity + 2 * unknown) makes every exponent of phi(g)
affine in the unknowns, because the sign twists (-1)^t only ever see
parity constants, so each such class contributes one integer linear
system, built directly from phi of the class's base element and the
images of the generators' squares.  Class-0 kernel vectors plus one
canonical solution per solvable class generate the fixed subgroup.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .groupcore import (
    Element,
    GroupSpec,
    conjugation_signs,
    format_element,
    parity_class,
    parse_word,
)
from .intlat import IntMatrix, solve_linear
from .subgroup import Subgroup, from_generators, intersect, special_subgroup


@dataclass(frozen=True)
class Endomorphism:
    spec: GroupSpec
    images: tuple[Element, ...]

    def __post_init__(self):
        names = self.spec.generator_names()
        if len(self.images) != len(names):
            raise ValueError(
                f"expected {len(names)} images, got {len(self.images)}"
            )
        for name, img in zip(names, self.images):
            if img.spec != self.spec:
                raise ValueError(f"image of {name} lives in a different group")
        by_name = dict(zip(names, self.images))
        l, p, q = self.spec.klein_count, self.spec.free_rank, self.spec.torsion_count
        for i in range(1, l + 1):
            va, vb = by_name[f"a{i}"], by_name[f"b{i}"]
            if not (vb * va * vb.inv() * va).is_identity():
                raise ValueError(
                    f"images of a{i} and b{i} violate the flip relation"
                )
        for k in range(1, q + 1):
            vd = by_name[f"d{k}"]
            if not (vd * vd).is_identity():
                raise ValueError(f"image of d{k} must square to the identity")
        factors = [[f"a{i}", f"b{i}"] for i in range(1, l + 1)]
        factors += [[f"c{j}"] for j in range(1, p + 1)]
        factors += [[f"d{k}"] for k in range(1, q + 1)]
        for fi, f1 in enumerate(factors):
            for f2 in factors[fi + 1:]:
                for x in f1:
                    for y in f2:
                        gx, gy = by_name[x], by_name[y]
                        if gx * gy != gy * gx:
                            raise ValueError(
                                f"images of {x} and {y} must commute"
                            )


def apply(endo: Endomorphism, g: Element) -> Element:
    """phi(g), evaluated on the normal form of g."""
    if g.spec != endo.spec:
        raise ValueError("element does not match the endomorphism's spec")
    l, p = endo.spec.klein_count, endo.spec.free_rank
    out = endo.spec.identity()
    for i, (s, t) in enumerate(g.klein):
        out = out * endo.images[2 * i] ** s
        out = out * endo.images[2 * i + 1] ** t
    for j, n in enumerate(g.free):
        out = out * endo.images[2 * l + j] ** n
    for k, e in enumerate(g.tor):
        if e:
            out = out * endo.images[2 * l + p + k]
    return out


def identity_endo(spec: GroupSpec) -> Endomorphism:
    return Endomorphism(spec, tuple(spec.generators()))


def compose(outer: Endomorphism, inner: Endomorphism) -> Endomorphism:
    """outer after inner."""
    if outer.spec != inner.spec:
        raise ValueError("endomorphisms live on different groups")
    return Endomorphism(outer.spec, tuple(apply(outer, g) for g in inner.images))


def endo_from_words(
    spec: GroupSpec,
    mapping: Mapping[str, str],
    fill_identity: bool = False,
) -> Endomorphism:
    """Build an endomorphism from generator-name -> word strings; with
    fill_identity, unmapped generators go to themselves."""
    names = spec.generator_names()
    unknown = set(mapping) - set(names)
    if unknown:
        raise ValueError(f"unknown generators in mapping: {sorted(unknown)}")
    images = []
    for name in names:
        if name in mapping:
            images.append(parse_word(spec, mapping[name]))
        elif fill_identity:
            images.append(spec.generator(name))
        else:
            raise ValueError(f"no image given for generator {name}")
    return Endomorphism(spec, tuple(images))


def is_automorphism(endo: Endomorphism) -> bool:
    """Surjectivity test; these groups are Hopfian, so onto means
    bijective."""
    return from_generators(endo.spec, endo.images) == special_subgroup(
        endo.spec, "full"
    )


def random_endo(
    spec: GroupSpec,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
    max_word_len: int = 3,
    attempts: int = 2000,
) -> Endomorphism:
    """Rejection-sample a valid endomorphism from random generator words."""
    if rng is None:
        rng = random.Random(seed)
    gens = spec.generators()
    if not gens:
        return identity_endo(spec)
    for _ in range(attempts):
        images = []
        for _ in gens:
            g = spec.identity()
            for _ in range(rng.randint(0, max_word_len)):
                base = rng.choice(gens)
                g = g * (base if rng.random() < 0.5 else base.inv())
            images.append(g)
        try:
            return Endomorphism(spec, tuple(images))
        except ValueError:
            continue
    raise RuntimeError(f"no valid endomorphism found in {attempts} attempts")


# ------------------------------------------------------------ fixed subgroups
#
# The parity class map is a homomorphism onto (Z/2)^(2l+p+q), so phi
# induces the GF(2)-linear map phi_bar whose column j is the parity class
# of images[j].  A fixed point's class is fixed by phi_bar, so only the
# classes in ker(phi_bar + I) are solved.
#
# Inside a class, every element is g = g0 * prod u_j^x_j: g0 carries the
# class bits as its exponents and u_j is the square of generator j, taken
# as a_i^-2 when b_i's bit is odd so that g0 * u_j raises exponent j by
# two.  Squares have only even exponents, and on such elements the
# exponents add, so phi(g) = phi(g0) * w with w's exponents
# sum x_j * exponents(phi(u_j)).  Multiplying by phi(g0) flips w's
# a-exponents where phi(g0) has an odd b-exponent, and phi(g0) lies in
# the class of g0, so the same sign vector acts on rows and columns.


def _exponents(g: Element) -> list[int]:
    """The 2l + p integer exponents of g in normal-form order."""
    return [e for pair in g.klein for e in pair] + list(g.free)


def _fixed_classes(endo: Endomorphism) -> list[tuple[int, ...]]:
    """ker(phi_bar + I) by GF(2) elimination, in lexicographic order
    (the order of FixResult.class_reps)."""
    n = endo.spec.parity_dim
    cols = [parity_class(img) for img in endo.images]
    rows = [[cols[j][r] ^ (r == j) for j in range(n)] for r in range(n)]
    pivots = []
    for c in range(n):
        k = len(pivots)
        pr = next((r for r in range(k, n) if rows[r][c]), None)
        if pr is None:
            continue
        rows[k], rows[pr] = rows[pr], rows[k]
        for r in range(n):
            if r != k and rows[r][c]:
                rows[r] = [x ^ y for x, y in zip(rows[r], rows[k])]
        pivots.append(c)
    span = {(0,) * n}
    for f in range(n):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = 1
        for k, c in enumerate(pivots):
            v[c] = rows[k][f]
        span |= {tuple(x ^ y for x, y in zip(w, v)) for w in span}
    return sorted(span)


@dataclass(frozen=True)
class FixResult:
    """Fixed subgroup plus the per-parity-class evidence: one canonical
    fixed element per solvable nonzero class, the count of solvable
    classes including the zero class, and the count of classes whose
    system was built (the 2^dim ker(phi_bar + I) classes that phi_bar
    fixes)."""

    subgroup: Subgroup
    class_reps: tuple[Element, ...]
    solved_classes: int
    classes_tried: int = 0


def fixed_subgroup(endo: Endomorphism) -> FixResult:
    spec = endo.spec
    l, p = spec.klein_count, spec.free_rank
    n_unk = spec.exponent_dim
    squares = [_exponents(img * img) for img in endo.images[:n_unk]]

    def element_at(bits: Sequence[int], xhat: Sequence[int]) -> Element:
        klein = tuple(
            (bits[2 * i] + 2 * xhat[2 * i], bits[2 * i + 1] + 2 * xhat[2 * i + 1])
            for i in range(l)
        )
        free = tuple(bits[2 * l + j] + 2 * xhat[2 * l + j] for j in range(p))
        return Element(spec, klein, free, tuple(bits[2 * l + p:]))

    gens = []
    class_reps = []
    solved = 0
    classes = _fixed_classes(endo)
    for bits in classes:
        g0 = element_at(bits, (0,) * n_unk)
        image = _exponents(apply(endo, g0))
        signs = conjugation_signs(g0)
        rows = [
            [signs[r] * signs[j] * squares[j][r] - 2 * (r == j) for j in range(n_unk)]
            for r in range(n_unk)
        ]
        rhs = [bits[r] - image[r] for r in range(n_unk)]
        sol = solve_linear(IntMatrix.from_rows(rows, n_unk), rhs)
        if sol is None:
            continue
        solved += 1
        if not any(bits):
            if any(sol.offset):
                raise ArithmeticError("the identity's parity class has no fixed identity")
            for row in sol.lattice.basis.entries:
                gens.append(element_at(bits, row))
        else:
            rep = element_at(bits, sol.offset)
            class_reps.append(rep)
            gens.append(rep)
    return FixResult(
        from_generators(spec, gens), tuple(class_reps), solved, len(classes)
    )


def fixed_family(endos: Iterable[Endomorphism]) -> Subgroup:
    """Common fixed subgroup of a family; empty family fixes everything."""
    endos = list(endos)
    if not endos:
        raise ValueError("need at least one endomorphism")
    out = fixed_subgroup(endos[0]).subgroup
    for endo in endos[1:]:
        if endo.spec != endos[0].spec:
            raise ValueError("family members live on different groups")
        out = intersect(out, fixed_subgroup(endo).subgroup)
    return out


def describe_endo(endo: Endomorphism) -> str:
    parts = [
        f"{name} -> {format_element(img)}"
        for name, img in zip(endo.spec.generator_names(), endo.images)
    ]
    return ", ".join(parts)
