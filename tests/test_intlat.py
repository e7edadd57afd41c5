import random

import pytest

from fixlab.intlat import (
    AffineLattice,
    IntMatrix,
    Lattice,
    abelian_subgroup_rank,
    affine_meet,
    hnf,
    kernel,
    lattice_index,
    lattice_join,
    lattice_meet,
    left_kernel,
    snf,
    snf_generators,
    solve_linear,
    xgcd,
)
from oracles import box_vectors, det_cofactor, in_span_box, span_box


def mat(rows, ncols=None):
    return IntMatrix.from_rows(rows, ncols)


def test_xgcd_bezout():
    rng = random.Random(1)
    for _ in range(500):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert x * a + y * b == g
        if a or b:
            assert a % g == 0 and b % g == 0


def test_hnf_frozen_examples():
    lat, _ = hnf(mat([(2, 4), (1, 1)]))
    assert lat.basis.entries == ((1, 1), (0, 2))
    lat, _ = hnf(mat([(2, 0), (0, 2), (1, 1)]))
    assert lat.basis.entries == ((1, 1), (0, 2))
    lat, _ = hnf(mat([(1, 0), (0, 1)]))
    assert lat.basis.entries == ((1, 0), (0, 1))


def test_hnf_span_agrees_with_box_oracle():
    rows = [(2, 4), (1, 1)]
    lat, _ = hnf(mat(rows))
    # every original row is in the reported lattice and vice versa
    for r in rows:
        assert lat.contains(r)
    for b in lat.basis.entries:
        assert in_span_box(rows, b, 6)


def test_hnf_transform_is_unimodular_change_of_basis():
    rng = random.Random(2)
    for _ in range(60):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        lat, u = hnf(mat(rows, nc))
        assert abs(det_cofactor([list(r) for r in u.entries])) == 1
        # u @ rows == basis rows stacked over zero rows
        prod = [
            tuple(sum(u.entries[i][k] * rows[k][j] for k in range(nr)) for j in range(nc))
            for i in range(nr)
        ]
        expect = list(lat.basis.entries) + [tuple([0] * nc)] * (nr - lat.rank)
        assert prod == expect


def test_hnf_is_canonical_under_span_preserving_changes():
    rng = random.Random(3)
    for _ in range(80):
        nc = rng.randint(1, 4)
        nr = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        lat = Lattice.span(nc, rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        # add a random multiple of one row to another
        if nr >= 2:
            i, j = rng.sample(range(nr), 2)
            q = rng.randint(-3, 3)
            shuffled[i] = [a + q * b for a, b in zip(shuffled[i], shuffled[j])]
        assert Lattice.span(nc, shuffled) == lat
        # canonical form round-trips
        assert Lattice.span(nc, lat.basis.entries) == lat


def test_hnf_canonical_shape():
    rng = random.Random(4)
    for _ in range(100):
        nc = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(rng.randint(0, 5))]
        lat = Lattice.span(nc, rows)
        pivots = lat.pivot_columns()
        assert list(pivots) == sorted(pivots)
        for i, (row, c) in enumerate(zip(lat.basis.entries, pivots)):
            assert row[c] > 0
            assert all(v == 0 for v in row[:c])
            for above in lat.basis.entries[:i]:
                assert 0 <= above[c] < row[c]


def test_membership_matches_box_oracle():
    rng = random.Random(5)
    for _ in range(60):
        nc = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(rng.randint(1, 3))]
        lat = Lattice.span(nc, rows)
        reach = span_box(rows, nc, 8)
        for vec in box_vectors(nc, 3):
            assert lat.contains(vec) == (vec in reach), (rows, vec)


def test_coords_of_reconstructs():
    rng = random.Random(6)
    for _ in range(200):
        nc = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(rng.randint(1, 4))]
        lat = Lattice.span(nc, rows)
        coeffs = [rng.randint(-4, 4) for _ in lat.basis.entries]
        vec = [0] * nc
        for c, row in zip(coeffs, lat.basis.entries):
            vec = [a + c * b for a, b in zip(vec, row)]
        got = lat.coords_of(vec)
        assert got == tuple(coeffs)
        off = list(vec)
        off[rng.randrange(nc)] += 1
        if not lat.contains(off):
            assert lat.coords_of(off) is None


def test_reduce_is_canonical_coset_representative():
    rng = random.Random(7)
    for _ in range(200):
        nc = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(rng.randint(1, 4))]
        lat = Lattice.span(nc, rows)
        v = [rng.randint(-9, 9) for _ in range(nc)]
        red = lat.reduce(v)
        assert lat.contains([a - b for a, b in zip(v, red)])
        shift = list(red)
        for c, row in zip([rng.randint(-3, 3) for _ in lat.basis.entries], lat.basis.entries):
            shift = [a + c * b for a, b in zip(shift, row)]
        assert lat.reduce(shift) == red


def test_snf_frozen_examples():
    factors, free = snf(mat([(2, 0), (0, 3)]))
    assert factors == (1, 6) and free == 0
    factors, free = snf(mat([(1, 0, 0), (0, 2, 0), (0, 0, 4)]))
    assert factors == (1, 2, 4) and free == 0
    factors, free = snf(mat([(0, 0, 0), (0, 0, 0)], 3))
    assert factors == () and free == 3
    factors, free = snf(IntMatrix(2, ()))
    assert factors == () and free == 2


def test_snf_divisibility_and_determinant():
    rng = random.Random(8)
    for _ in range(80):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        d = det_cofactor(rows)
        factors, free = snf(mat(rows, n))
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        if d != 0:
            assert free == 0
            prod = 1
            for f in factors:
                prod *= f
            assert prod == abs(d)
        else:
            assert free >= 1


def test_snf_invariant_under_unimodular_changes():
    rng = random.Random(9)
    for _ in range(60):
        nr = rng.randint(1, 3)
        nc = rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        base = snf(mat(rows, nc))
        work = [r[:] for r in rows]
        if nr >= 2:
            i, j = rng.sample(range(nr), 2)
            q = rng.randint(-2, 2)
            work[i] = [a + q * b for a, b in zip(work[i], work[j])]
        if nc >= 2:
            i, j = rng.sample(range(nc), 2)
            q = rng.randint(-2, 2)
            for r in work:
                r[i] += q * r[j]
        assert snf(mat(work, nc)) == base


def test_snf_generators_orders():
    rng = random.Random(10)
    for _ in range(60):
        nr = rng.randint(0, 3)
        nc = rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        m = mat(rows, nc)
        lat = Lattice.span(nc, rows)
        factors, free = snf(m)
        gens = snf_generators(m)
        assert len(gens) == sum(1 for f in factors if f > 1) + free
        for order, vec in gens:
            if order:
                assert lat.contains([order * v for v in vec])
                for k in range(1, order):
                    assert not lat.contains([k * v for v in vec])
            else:
                for k in range(1, 4):
                    assert not lat.contains([k * v for v in vec])


def test_solve_linear_frozen_examples():
    sol = solve_linear(mat([(1, 1)]), (3,))
    assert sol is not None
    assert sol.offset == (0, 3)
    assert sol.lattice.basis.entries == ((1, -1),)
    assert solve_linear(mat([(2,)]), (3,)) is None
    sol = solve_linear(mat([(2, 0), (0, 2)]), (4, 6))
    assert sol == AffineLattice.make((2, 3), Lattice.zero(2))


def test_solve_linear_random():
    rng = random.Random(11)
    for _ in range(120):
        nr = rng.randint(1, 3)
        nc = rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        a = mat(rows, nc)
        x = [rng.randint(-3, 3) for _ in range(nc)]
        b = [sum(r[j] * x[j] for j in range(nc)) for r in rows]
        sol = solve_linear(a, b)
        assert sol is not None
        assert sol.contains(x)
        # offset and offset + basis vectors all solve
        for cand in [sol.offset] + [
            tuple(o + v for o, v in zip(sol.offset, row)) for row in sol.lattice.basis.entries
        ]:
            assert [sum(r[j] * cand[j] for j in range(nc)) for r in rows] == b
        # unsolvable systems really have no small solutions
        b2 = [v + rng.randint(-2, 2) for v in b]
        if solve_linear(a, b2) is None:
            for cand in box_vectors(nc, 4):
                assert [sum(r[j] * cand[j] for j in range(nc)) for r in rows] != b2


def test_kernel_complete_in_box():
    rng = random.Random(12)
    for _ in range(60):
        nr = rng.randint(1, 3)
        nc = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        a = mat(rows, nc)
        ker = kernel(a)
        for v in ker.basis.entries:
            assert all(sum(r[j] * v[j] for j in range(nc)) == 0 for r in rows)
        for v in box_vectors(nc, 3):
            if all(sum(r[j] * v[j] for j in range(nc)) == 0 for r in rows):
                assert ker.contains(v)


def test_lattice_meet_frozen_examples():
    two = Lattice.span(2, [(2, 0), (0, 2)])
    three = Lattice.span(2, [(3, 0), (0, 3)])
    assert lattice_meet(two, three) == Lattice.span(2, [(6, 0), (0, 6)])
    assert lattice_meet(Lattice.span(2, [(1, 1)]), Lattice.span(2, [(1, -1)])) == Lattice.zero(2)
    got = lattice_meet(Lattice.span(2, [(2, 0), (0, 1)]), Lattice.span(2, [(1, 1)]))
    assert got == Lattice.span(2, [(2, 2)])
    # box oracle cross-check of the last example
    l1 = Lattice.span(2, [(2, 0), (0, 1)])
    l2 = Lattice.span(2, [(1, 1)])
    for v in box_vectors(2, 6):
        assert got.contains(v) == (l1.contains(v) and l2.contains(v))


def test_lattice_meet_random():
    rng = random.Random(13)
    for _ in range(50):
        nc = rng.randint(1, 3)
        r1 = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(rng.randint(0, 3))]
        r2 = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(rng.randint(0, 3))]
        l1 = Lattice.span(nc, r1)
        l2 = Lattice.span(nc, r2)
        meet = lattice_meet(l1, l2)
        for v in meet.basis.entries:
            assert l1.contains(v) and l2.contains(v)
        for v in box_vectors(nc, 4):
            assert meet.contains(v) == (l1.contains(v) and l2.contains(v))


def test_affine_meet_frozen_examples():
    c1 = AffineLattice.make((1, 0), Lattice.span(2, [(0, 1)]))
    c2 = AffineLattice.make((0, 0), Lattice.span(2, [(1, 1)]))
    got = affine_meet(c1, c2)
    assert got == AffineLattice.make((1, 1), Lattice.zero(2))
    odd = AffineLattice.make((1, 0), Lattice.span(2, [(2, 0)]))
    even = AffineLattice.make((0, 0), Lattice.span(2, [(2, 0)]))
    assert affine_meet(odd, even) is None
    assert affine_meet(odd, odd) == odd


def test_affine_meet_random():
    rng = random.Random(14)
    for _ in range(60):
        nc = rng.randint(1, 3)
        c1 = AffineLattice.make(
            [rng.randint(-2, 2) for _ in range(nc)],
            Lattice.span(nc, [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(rng.randint(0, 2))]),
        )
        c2 = AffineLattice.make(
            [rng.randint(-2, 2) for _ in range(nc)],
            Lattice.span(nc, [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(rng.randint(0, 2))]),
        )
        got = affine_meet(c1, c2)
        for v in box_vectors(nc, 4):
            both = c1.contains(v) and c2.contains(v)
            if got is None:
                assert not both
            else:
                assert got.contains(v) == both


def test_lattice_join_and_index():
    full = Lattice.full(2)
    doubled = Lattice.span(2, [(2, 0), (0, 2)])
    assert lattice_join(doubled, Lattice.span(2, [(1, 1)])) == Lattice.span(2, [(1, 1), (0, 2)])
    assert lattice_index(doubled, full) == 4
    assert lattice_index(Lattice.span(2, [(1, 1), (0, 3)]), full) == 3
    assert lattice_index(full, full) == 1
    assert lattice_index(Lattice.span(2, [(1, 0)]), full) is None
    assert lattice_index(Lattice.zero(2), Lattice.zero(2)) == 1
    with pytest.raises(ValueError):
        lattice_index(Lattice.span(2, [(1, 1)]), doubled)


def test_lattice_index_matches_determinant():
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randint(1, 3)
        sup_rows = []
        while True:
            sup_rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if det_cofactor(sup_rows) != 0:
                break
        c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        dc = det_cofactor(c)
        if dc == 0:
            continue
        sub_rows = [
            [sum(c[i][k] * sup_rows[k][j] for k in range(n)) for j in range(n)] for i in range(n)
        ]
        sup = Lattice.span(n, sup_rows)
        sub = Lattice.span(n, sub_rows)
        assert lattice_index(sub, sup) == abs(dc)


def test_left_kernel_rows_annihilate():
    rng = random.Random(16)
    for _ in range(60):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        m = mat(rows, nc)
        lk = left_kernel(m)
        for w in lk.basis.entries:
            assert all(sum(w[i] * rows[i][j] for i in range(nr)) == 0 for j in range(nc))
        assert lk.rank == nr - Lattice.span(nc, rows).rank


def test_abelian_subgroup_rank_known_values():
    # subgroup of Z generated by 2 and 3 is Z
    assert abelian_subgroup_rank([(), ()], [(2,), (3,)]) == 1
    # Z2 alone
    assert abelian_subgroup_rank([(1,)], [()]) == 1
    # Z2 x Z needs two generators
    assert abelian_subgroup_rank([(1,), (0,)], [(0,), (1,)]) == 2
    # a glued generator (1 mod 2, 1) is cyclic infinite
    assert abelian_subgroup_rank([(1,)], [(1,)]) == 1
    assert abelian_subgroup_rank([(1,)], [(2,)]) == 1
    # (1,0) and (1,2) generate Z2 x 2Z
    assert abelian_subgroup_rank([(1,), (1,)], [(0,), (2,)]) == 2
    # redundant free generators
    assert abelian_subgroup_rank([(), ()], [(2,), (4,)]) == 1
    assert abelian_subgroup_rank([], []) == 0
    # three independent directions
    assert abelian_subgroup_rank(
        [(0,), (0,), (1,)], [(1, 0), (0, 1), (0, 0)]
    ) == 3
