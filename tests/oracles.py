"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own algorithms: membership is
checked by bounded coefficient search, determinants by cofactor
expansion, and subgroups by enumerating bounded products of generators.
Slow but obviously correct on small inputs.

The reference searches and sampler at the end are the plain loops that
the certify module's searches speed up: every combination of the full
candidate pool, every rank recomputed, nothing remembered.
"""

import itertools
import random

from fixlab.certify import (
    InertiaReport,
    Witness,
    enumerate_candidate_elements,
    random_subgroup,
)
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
