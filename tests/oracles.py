"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own algorithms: membership is
checked by bounded coefficient search, determinants by cofactor
expansion, and subgroups by enumerating bounded products of generators.
Slow but obviously correct on small inputs.

The reference searches and sampler are the plain loops that the
certify module's searches speed up: every combination of the full
candidate pool, every rank recomputed, nothing remembered.

The reference fixed-subgroup sweep at the end solves every one of the
2^(2l+p+q) parity classes, building each class's linear system with a
symbolic algebra of affine integer forms instead of the morphism
module's direct matrix over the classes that phi fixes.
"""

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from fixlab.certify import (
    InertiaReport,
    Witness,
    enumerate_candidate_elements,
    random_subgroup,
)
from fixlab.groupcore import Element, GroupSpec
from fixlab.intlat import IntMatrix, solve_linear
from fixlab.morphism import FixResult
from fixlab.subgroup import from_generators, generator_words, intersect, rank


def span_box(rows, dim, bound):
    """All integer combinations of rows (vectors of length dim) with
    every coefficient in [-bound, bound], as a set of tuples."""
    rows = [tuple(r) for r in rows]
    reach = set()
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(rows)):
        acc = [0] * dim
        for c, row in zip(coeffs, rows):
            if c:
                acc = [a + c * b for a, b in zip(acc, row)]
        reach.add(tuple(acc))
    return reach


def in_span_box(rows, vec, bound):
    """Is vec an integer combination of rows with all coefficients in
    [-bound, bound]?  Exhaustive search."""
    return tuple(vec) in span_box(rows, len(vec), bound)


def det_cofactor(rows):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def box_vectors(dim, bound):
    """All integer vectors in [-bound, bound]^dim."""
    return itertools.product(range(-bound, bound + 1), repeat=dim)


def affine_identity():
    """Klein-bottle elements act on the plane by x -> (-1)^t x + s,
    y -> y + t.  Represent such a map as ((mxx,), (vx, vy)) and compose
    maps instead of using the group's multiplication formula."""
    return (1, (0, 0))


def affine_compose(f, g):
    # (f o g)(w) = M_f (M_g w + v_g) + v_f
    mf, vf = f
    mg, vg = g
    return (mf * mg, (mf * vg[0] + vf[0], vg[1] + vf[1]))


def affine_inverse(f):
    m, v = f
    return (m, (-m * v[0], -v[1]))


def affine_of_letter(kind, power):
    # a = pure x-translation, b = x-flip with unit y-translation
    if kind == "a":
        base = (1, (1, 0))
    else:
        base = (-1, (0, 1))
    out = affine_identity()
    step = base if power >= 0 else affine_inverse(base)
    for _ in range(abs(power)):
        out = affine_compose(out, step)
    return out


def affine_normal_form(f):
    """Read (s, t) off an affine map and check internal consistency."""
    m, (vx, vy) = f
    assert m == (-1) ** (vy % 2)
    return (vx, vy)


def word_ball(gens, radius):
    """All elements expressible as products of at most `radius` factors
    drawn from gens and their inverses (plus the identity).

    Returns a set of group elements; gens must be nonempty unless the
    caller only wants the identity, in which case pass the identity's
    spec explicitly via an element list of length >= 1.
    """
    letters = []
    for g in gens:
        letters.append(g)
        letters.append(g.inv())
    ball = set()
    if gens:
        ident = gens[0].spec.identity()
    else:
        return ball
    ball.add(ident)
    frontier = {ident}
    for _ in range(radius):
        nxt = set()
        for x in frontier:
            for letter in letters:
                y = x * letter
                if y not in ball:
                    ball.add(y)
                    nxt.add(y)
        frontier = nxt
        if not frontier:
            break
    return ball


def reference_inertia_search(h, max_word_len, max_gens):
    """First K over the full candidate pool, fewest generators first,
    with rank(h meet K) > rank(K), both ranks exact; None if none."""
    h_rank = rank(h)
    pool = enumerate_candidate_elements(h.spec, max_word_len)
    for size in range(1, max_gens + 1):
        for combo in itertools.combinations(pool, size):
            k = from_generators(h.spec, list(combo))
            k_rank = rank(k)
            meet = intersect(h, k)
            meet_rank = rank(meet)
            if k_rank.exact and meet_rank.exact and meet_rank.value > k_rank.value:
                return Witness(
                    "inertia", h, k, h_rank, k_rank, meet=meet, meet_rank=meet_rank
                )
    return None


def reference_compression_search(h, max_word_len, max_extra_gens):
    """First overgroup K = <h, W> over the full candidate pool, fewest
    extra generators first, with exact rank(K) < rank(h); None if none.
    No abelian-image screen: every candidate's rank is computed."""
    h_rank = rank(h)
    base = h.stored_generators()
    pool = enumerate_candidate_elements(h.spec, max_word_len)
    for size in range(1, max_extra_gens + 1):
        for combo in itertools.combinations(pool, size):
            k = from_generators(h.spec, base + list(combo))
            k_rank = rank(k)
            if k_rank.exact and k_rank.value < h_rank.value:
                return Witness("compression", h, k, h_rank, k_rank)
    return None


def reference_inertia_sample(spec, trials, gen_bound=3, word_len=4, seed=0):
    """sample_inertia_property without injected pairs, every rank
    recomputed."""
    rng = random.Random(seed)
    checked = skipped = 0
    violations = []
    for _ in range(trials):
        h = random_subgroup(spec, rng, gen_bound, word_len)
        k = random_subgroup(spec, rng, gen_bound, word_len)
        k_rank = rank(k)
        meet_rank = rank(intersect(h, k))
        if not (k_rank.exact and meet_rank.exact):
            skipped += 1
            continue
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
    return InertiaReport(spec, trials, checked, skipped, tuple(violations))


# ------------------------------------------------------------ fixed subgroups
#
# Affine integer forms (c0, c1, ..., cN): value c0 + sum ci * xi.  All
# exponent substitutions are parity + 2 * unknown, so every form carries
# even unknown coefficients; parities of form values are therefore class
# constants, which is what keeps the Klein sign twists linear.


def _form_const(c: int, n: int) -> tuple[int, ...]:
    return (c,) + (0,) * n


def _form_add(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(f, g))


def _form_scale(f: Sequence[int], k: int) -> tuple[int, ...]:
    return tuple(k * x for x in f)


def _form_parity(f: Sequence[int]) -> int:
    assert all(c % 2 == 0 for c in f[1:]), "unknown coefficient must be even"
    return f[0] % 2


@dataclass
class _SymElement:
    """Group element whose exponents are affine forms (torsion bits stay
    plain ints)."""

    klein: list[tuple[tuple[int, ...], tuple[int, ...]]]
    free: list[tuple[int, ...]]
    tor: list[int]


def _sym_identity(spec: GroupSpec, n: int) -> _SymElement:
    zero = _form_const(0, n)
    return _SymElement(
        [(zero, zero) for _ in range(spec.klein_count)],
        [zero for _ in range(spec.free_rank)],
        [0] * spec.torsion_count,
    )


def _sym_mul(x: _SymElement, y: _SymElement) -> _SymElement:
    klein = []
    for (s1, t1), (s2, t2) in zip(x.klein, y.klein):
        sign = -1 if _form_parity(t1) else 1
        klein.append((_form_add(s1, _form_scale(s2, sign)), _form_add(t1, t2)))
    free = [_form_add(f1, f2) for f1, f2 in zip(x.free, y.free)]
    tor = [e1 ^ e2 for e1, e2 in zip(x.tor, y.tor)]
    return _SymElement(klein, free, tor)


def _sym_pow(g: Element, k_form: Sequence[int], n: int) -> _SymElement:
    """Concrete element raised to an affine exponent (which must have
    even unknown coefficients)."""
    k_parity = _form_parity(k_form)
    klein = []
    for s, t in g.klein:
        if t % 2 == 0:
            klein.append((_form_scale(k_form, s), _form_scale(k_form, t)))
        else:
            klein.append((_form_const(s * k_parity, n), _form_scale(k_form, t)))
    free = [_form_scale(k_form, v) for v in g.free]
    tor = [e * k_parity for e in g.tor]
    return _SymElement(klein, free, tor)


def fixed_subgroup_sweep(endo):
    """morphism.fixed_subgroup by the blind sweep: every parity class's
    system built from affine forms and solved, fixed by phi or not."""
    spec = endo.spec
    l, p, q = spec.klein_count, spec.free_rank, spec.torsion_count
    n_unk = 2 * l + p

    def unknown_form(slot: int, parity: int) -> tuple[int, ...]:
        coeffs = [0] * n_unk
        coeffs[slot] = 2
        return (parity,) + tuple(coeffs)

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
    for bits in itertools.product((0, 1), repeat=2 * l + p + q):
        exp_forms = [unknown_form(slot, bits[slot]) for slot in range(n_unk)]
        phi = _sym_identity(spec, n_unk)
        for i in range(l):
            phi = _sym_mul(phi, _sym_pow(endo.images[2 * i], exp_forms[2 * i], n_unk))
            phi = _sym_mul(
                phi, _sym_pow(endo.images[2 * i + 1], exp_forms[2 * i + 1], n_unk)
            )
        for j in range(p):
            phi = _sym_mul(
                phi, _sym_pow(endo.images[2 * l + j], exp_forms[2 * l + j], n_unk)
            )
        one = _form_const(1, n_unk)
        for k in range(q):
            if bits[2 * l + p + k]:
                phi = _sym_mul(phi, _sym_pow(endo.images[2 * l + p + k], one, n_unk))

        if phi.tor != list(bits[2 * l + p:]):
            continue
        phi_forms = []
        for s_form, t_form in phi.klein:
            phi_forms.append(s_form)
            phi_forms.append(t_form)
        phi_forms.extend(phi.free)
        rows = []
        rhs = []
        for f_phi, f_g in zip(phi_forms, exp_forms):
            rows.append([a - b for a, b in zip(f_phi[1:], f_g[1:])])
            rhs.append(f_g[0] - f_phi[0])
        sol = solve_linear(IntMatrix.from_rows(rows, n_unk), tuple(rhs))
        if sol is None:
            continue
        solved += 1
        if not any(bits):
            assert not any(sol.offset), "identity must be fixed"
            for row in sol.lattice.basis.entries:
                gens.append(element_at(bits, row))
        else:
            rep = element_at(bits, sol.offset)
            class_reps.append(rep)
            gens.append(rep)
    return FixResult(from_generators(spec, gens), tuple(class_reps), solved)
