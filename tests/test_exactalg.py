import random
from fractions import Fraction as Q
from itertools import product

import pytest

from equiconf.errors import InputError
from equiconf.exactalg import (
    Matrix,
    PolyRing,
    Quotient,
    _reduce,
    col_space,
    elementary_symmetric,
    poly_from_json,
    rat,
    sylvester,
    upoly_str,
)
from equiconf.oracles import (
    charpoly_without,
    dense_rref,
    dense_solve,
    eigen_projector,
    subspace_intersection,
    subspace_leq,
    subspace_preimage,
    subspace_sum,
)


def rand_matrix(rng, nrows, ncols, span=4):
    return Matrix([[Q(rng.randint(-span, span)) for _ in range(ncols)]
                   for _ in range(nrows)])


def test_rat_parsing():
    assert rat("3/4") == Q(3, 4)
    assert rat("-7") == Q(-7)
    assert rat(Q(1, 2)) == Q(1, 2)
    with pytest.raises(InputError):
        rat("1/0")
    with pytest.raises(InputError):
        rat("x")


def test_kernel_identity_is_trivial():
    assert Matrix.identity(2).kernel_basis().columns() == []


def test_kernel_zero_map():
    vecs = Matrix.zero(2, 3).kernel_basis().columns()
    assert vecs == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_kernel_rank_one():
    vecs = Matrix([[1, 1], [1, 1]]).kernel_basis().columns()
    assert vecs == [(1, -1)]


def test_solve_identity_and_zero():
    assert Matrix.identity(3).solve([1, 2, 3]) == (1, 2, 3)
    assert Matrix.zero(2, 2).solve([1, 0]) is None
    assert Matrix([[2]]).solve([1]) == (Q(1, 2),)
    with pytest.raises(InputError):
        Matrix.identity(2).solve([1, 2, 3])


def test_rank_nullity_randomized():
    rng = random.Random(7)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert m.rank() + m.kernel_basis().ncols == m.ncols


def times(m, x):
    """m x as a tuple, by the product with a one-column matrix."""
    return (m * Matrix.from_columns([x], nrows=m.ncols)).columns()[0]


def test_solve_found_solutions_are_exact():
    rng = random.Random(11)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        x = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m.ncols)]
        b = times(m, x)
        sol = m.solve(b)
        assert sol is not None
        assert times(m, sol) == b


# ---------------------------------------------------------------------------
# the sparse kernel against the dense elimination of `oracles`


def battery(seed, count=80):
    """Seeded matrices: 0/+-1 entries at 3-40 % fill, dense non-unit
    rationals, duplicated and zero rows, and the empty and zero shapes."""
    rng = random.Random(seed)
    out = [Matrix.zero(0, 3), Matrix.zero(3, 0), Matrix.zero(0, 0),
           Matrix.zero(3, 4), Matrix([[0, 0], [0, 0], [0, 0]])]
    for t in range(count):
        if t % 2:
            nr, nc = rng.randint(1, 12), rng.randint(1, 12)
            fill = rng.choice((0.03, 0.1, 0.25, 0.4))
            rows = [[Q(rng.choice((-1, 1))) if rng.random() < fill else Q(0)
                     for _ in range(nc)] for _ in range(nr)]
        else:
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[Q(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(nc)]
                    for _ in range(nr)]
        if rng.random() < 0.3:
            rows.append(list(rng.choice(rows)))
        if rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), [Q(0)] * nc)
        out.append(Matrix(rows))
    return out


def dense_matvec(m, v):
    return tuple(sum((a * b for a, b in zip(row, v)), Q(0)) for row in m.rows)


def dense_kernel(m):
    """The kernel by dense elimination, renormalized by a second one."""
    red, pivots = dense_rref(m.rows, m.ncols)
    vecs = []
    for f in (c for c in range(m.ncols) if c not in pivots):
        v = [Q(0)] * m.ncols
        v[f] = Q(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        vecs.append(v)
    return dense_rref(vecs, m.ncols)[0]


def dense_span(cols, dim):
    """Columns of the reduced column-echelon basis of a span."""
    red, pivots = dense_rref(cols, dim)
    return red[:len(pivots)]


def dense_leq(a, b):
    """span(a) <= span(b) by ranks: rank [b | a] == rank b."""
    return len(dense_rref(b.columns() + a.columns(), b.nrows)[1]) == \
        len(dense_rref(b.columns(), b.nrows)[1])


def dense_product(a, b):
    return tuple(tuple(sum((row[k] * b.rows[k][j] for k in range(a.ncols)), Q(0))
                       for j in range(b.ncols)) for row in a.rows)


def dense_det(rows):
    a, det = [list(r) for r in rows], Q(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c]), None)
        if p is None:
            return Q(0)
        if p != c:
            a[c], a[p], det = a[p], a[c], -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def stores_no_zeros(*mats):
    return all(x for m in mats for r in m.sparse_rows for x in r.values())


def dense_intersection(a, b):
    stacked = Matrix([ra + tuple(-x for x in rb) for ra, rb in zip(a.rows, b.rows)],
                     ncols=a.ncols + b.ncols)
    return dense_span([dense_matvec(a, v[:a.ncols]) for v in dense_kernel(stacked)],
                      a.nrows)


def dense_preimage(d, s):
    stacked = Matrix([rd + tuple(-x for x in rs) for rd, rs in zip(d.rows, s.rows)],
                     ncols=d.ncols + s.ncols)
    return dense_span([v[:d.ncols] for v in dense_kernel(stacked)], d.ncols)


def only_fractions(*values):
    """Every number in nested tuples, lists and matrices is a Fraction."""
    for v in values:
        if isinstance(v, Matrix):
            v = v.rows
        if isinstance(v, (tuple, list)):
            if not only_fractions(*v):
                return False
        elif type(v) is not Q:
            return False
    return True


def test_kernel_matches_dense_oracle():
    rng = random.Random(21)
    for m in battery(21):
        # the row space reaches the elimination through `col_space`
        red = col_space(list(m.rows), dim=m.ncols)
        ref, ref_pivots = dense_rref(m.rows, m.ncols)
        assert red.columns() == ref[:len(ref_pivots)]
        assert tuple(min(c) for c in red.sparse_columns()) == ref_pivots
        assert m.rank() == len(ref_pivots)
        kernel = m.kernel_basis()
        assert kernel.columns() == dense_kernel(m)
        assert m.rank() + kernel.ncols == m.ncols
        assert (m * kernel).is_zero() and kernel.nrows == m.ncols
        x = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m.ncols)]
        for b in (times(m, x), [Q(rng.randint(-2, 2)) for _ in range(m.nrows)]):
            sol = m.solve(b)
            assert sol == dense_solve(m.columns(), b)
            assert sol is None or times(m, sol) == tuple(b)
        assert times(m, x) == dense_matvec(m, x)
        # arithmetic against dense references computed from `.rows`
        mt = Matrix.from_columns(list(m.rows), nrows=m.ncols)
        o = Matrix([[Q(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(m.ncols)]
                    for _ in range(m.nrows)], ncols=m.ncols)
        c = Q(rng.randint(-3, 3), rng.randint(1, 3))
        dense = {"+": tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(m.rows, o.rows)),
                 "-": tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(m.rows, o.rows)),
                 "neg": tuple(tuple(-a for a in r) for r in m.rows),
                 "scale": tuple(tuple(c * a for a in r) for r in m.rows),
                 "m mt": dense_product(m, mt), "mt m": dense_product(mt, m)}
        got = {"+": m + o, "-": m - o, "neg": -m, "scale": m.scale(c),
               "m mt": m * mt, "mt m": mt * m}
        assert {k: v.rows for k, v in got.items()} == dense
        square = got["m mt"]
        assert square.trace() == sum((square.rows[i][i] for i in range(m.nrows)), Q(0))
        p = square.charpoly()
        assert len(p) == m.nrows + 1 and p[-1] == 1
        for t in range(m.nrows + 1):  # p(t) = det(tI - M) at nrows + 1 points
            assert sum((a * t ** k for k, a in enumerate(p)), Q(0)) == dense_det(
                [[(t if i == j else 0) - y for j, y in enumerate(row)]
                 for i, row in enumerate(square.rows)])
        # no stored zeros: cancelling results equal and hash like the zero matrix
        zero = Matrix.zero(m.nrows, m.ncols)
        for z in (m - m, m + (-m), m.scale(0), m * Matrix.zero(m.ncols, m.ncols)):
            assert z == zero and hash(z) == hash(zero) and z.is_zero()
        assert stores_no_zeros(red, kernel, mt, o, *got.values())
        # every way of building the same matrix compares and hashes equal
        rebuilt = Matrix.from_columns(m.columns(), nrows=m.nrows)
        for twin in (Matrix(m.rows, ncols=m.ncols), rebuilt, -(-m),
                     Matrix.identity(m.nrows) * m, m * Matrix.identity(m.ncols)):
            assert twin == m and hash(twin) == hash(m)
        assert rebuilt * mt == square and hash(rebuilt * mt) == hash(square)
        assert only_fractions(red, kernel, m.solve(times(m, x)), times(m, x), p,
                              *got.values())


def int_battery(seed, count=60):
    """Seeded sparse int rows, as (rows, ncols), with entries -1, +-2 and 3
    beside 1: the entries of the d_2n matrices, whose eliminations run on
    ints. The first four lead with -1, 2, -2 and 3 in every order."""
    rng = random.Random(seed)
    out = [([{0: lead, 1: 1, 2: lead}], 3) for lead in (-1, 2, -2, 3)]
    for _ in range(count):
        nr, nc = rng.randint(1, 10), rng.randint(1, 10)
        fill = rng.choice((0.1, 0.25, 0.5))
        out.append(([{j: rng.choice((-1, 1, -1, 1, -2, 2, 3)) for j in range(nc)
                      if rng.random() < fill} for _ in range(nr)], nc))
    return out


def test_int_rows_match_the_fraction_route():
    # rank, kernel and solve of int rows agree with the same rows of
    # Fractions and with the dense oracle; the eliminations hold ints and
    # Fractions only, and every answer holds Fractions only. Each reduction
    # and its pivots are the same for a shuffle of the rows.
    rng, shuffle = random.Random(31), random.Random(32).shuffle
    for rows, ncols in int_battery(31):
        m = Matrix._of([dict(r) for r in rows], ncols)
        f = Matrix._of([{j: Q(x) for j, x in r.items()} for r in rows], ncols)
        for lead in (min, max):
            red, pivots = _reduce([dict(r) for r in rows], lead)
            assert all(type(x) in (int, Q) for r in red for x in r.values())
            assert (red, pivots) == _reduce([dict(r) for r in f.sparse_rows], lead)
            shuffled = [dict(r) for r in rows]
            shuffle(shuffled)
            assert (red, pivots) == _reduce([dict(r) for r in shuffled], lead)
            assert pivots == _reduce(shuffled, lead, full=False)[1]
        rank = m.rank()
        assert type(rank) is int and rank == f.rank() == len(dense_rref(f.rows, ncols)[1])
        kernel = m.kernel_basis()
        assert kernel == f.kernel_basis() and kernel.columns() == dense_kernel(f)
        x = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
        for b in (times(f, x), [Q(rng.randint(-2, 2)) for _ in rows]):
            sol = m.solve(b)
            assert sol == f.solve(b) == dense_solve(f.columns(), b)
            assert only_fractions(sol or ())
        # the transpose, built from int columns
        cols = Matrix._of_columns([dict(r) for r in rows], ncols)
        assert cols.rank() == rank
        assert cols.kernel_basis() == Matrix.from_columns(rows, nrows=ncols).kernel_basis()
        assert only_fractions(kernel, cols.kernel_basis())


def test_subspaces_match_dense_oracle():
    rng = random.Random(22)
    mats = battery(22)
    outcomes = []
    for m in mats:
        dim = m.nrows
        a = col_space(m)
        assert a.columns() == dense_span(m.columns(), dim)
        assert col_space(a) is a
        others = [o for o in mats if o.nrows == dim]
        for o in rng.sample(others, min(2, len(others))):
            b = col_space(o)
            for x, y in ((a, b), (m, o)):  # canonical and raw spanning sets
                cap = subspace_intersection(x, y)
                total = subspace_sum(x, y)
                assert cap.nrows == total.nrows == dim
                assert cap.columns() == dense_intersection(x, y)
                assert total.columns() == dense_span(x.columns() + y.columns(), dim)
                assert total.ncols + cap.ncols == a.ncols + b.ncols
                assert subspace_leq(cap, a) and subspace_leq(cap, b)
                for s, t in ((x, y), (y, x), (total, x), (x, total)):
                    outcomes.append(subspace_leq(s, t))
                    assert outcomes[-1] == dense_leq(s, t)
                assert only_fractions(cap, total)
            for s in (b, o, Matrix.zero(dim, 0)):
                for d in (m, o):
                    pre = subspace_preimage(d, s)
                    assert pre.nrows == d.ncols
                    assert pre.columns() == dense_preimage(d, s)
                    assert subspace_leq(d * pre, s)
                    assert only_fractions(pre)
        # single columns, inside and outside the span
        for c in m.columns():
            one = Matrix.from_columns([c], nrows=dim)
            outcomes.append(subspace_leq(one, b))
            assert outcomes[-1] == dense_leq(one, b)
    assert set(outcomes) == {True, False}


def test_quotient_coordinates_match_dense_oracle():
    rng = random.Random(23)
    mats = battery(23)
    for m in mats:
        z = col_space(m)
        others = [o for o in mats if o.nrows == m.nrows]
        d = subspace_intersection(z, col_space(rng.choice(others)))
        for total in (z, m):  # canonical, and raw with dependent columns
            q = Quotient(total, d)
            span, reps = list(d.columns()), []
            for c in total.columns():
                if dense_solve(span, c) is None:
                    reps.append(c)
                    span.append(c)
            assert q.reps.columns() == reps and q.dim == len(reps)
            vs = [dense_matvec(total, [Q(rng.randint(-3, 3)) for _ in range(total.ncols)])
                  for _ in range(3)]
            coords = q.matrix_of(Matrix.from_columns(vs, nrows=m.nrows))
            assert coords.nrows == q.dim and coords.ncols == 3
            for v, got in zip(vs, coords.columns()):
                assert got == dense_solve(list(d.columns()) + reps, v)[d.ncols:]
            assert only_fractions(q.reps, coords)
            outside = [c for c in Matrix.identity(m.nrows).columns()
                       if dense_solve(list(d.columns()) + reps, c) is None]
            if outside:
                with pytest.raises(InputError):
                    q.matrix_of(Matrix.from_columns(vs + outside[:1], nrows=m.nrows))


def test_charpoly_diagonal():
    m = Matrix([[2, 0], [0, 3]])
    # (t-2)(t-3) = t^2 - 5t + 6
    assert m.charpoly() == (Q(6), Q(-5), Q(1))


def test_projectors_diagonal():
    xi = Q(4)
    m = Matrix([[xi, 0], [0, xi * xi]])
    p1, p2 = eigen_projector(m, xi), eigen_projector(m, xi * xi)
    assert p1 == Matrix([[1, 0], [0, 0]])
    assert p2 == Matrix([[0, 0], [0, 1]])


def test_projectors_jordan_block():
    xi = Q(4)
    m = Matrix([[xi, 1], [0, xi]])
    p = eigen_projector(m, xi)
    assert p == Matrix.identity(2)


def test_leftover_eigenvalue_factor_is_named():
    m = Matrix([[2, 0], [0, 3]])
    rest = m.off_eigenvalue(Q(2))
    assert rest.nrows == 1  # the one factor t - 2 is gone
    assert upoly_str(rest.charpoly()) == "t - 3"


def random_with_eigenvalues(rng, diag):
    """An upper triangular matrix with the given diagonal and random entries
    above it, conjugated by random shears S = I + c E_ij (S^-1 = 2I - S)."""
    n = len(diag)
    m = Matrix([[diag[i] if i == j else rng.choice([0, 1, -2, Q(1, 3)]) if i < j else 0
                 for j in range(n)] for i in range(n)])
    return conjugated(rng, m)


def conjugated(rng, m):
    """S m S^-1 for a random product of shears S = I + c E_ij."""
    n = m.nrows
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        shear = Matrix.identity(n) + Matrix([{j: rng.choice([1, -1, 2, Q(1, 2)])}
                                             if a == i else {} for a in range(n)], n)
        m = shear * m * (Matrix.identity(n).scale(2) - shear)
    return m


def test_off_eigenvalue_divides_the_charpoly():
    """`off_eigenvalue(lam).charpoly()` against the charpoly divided by
    t - lam while it divides, on seeded matrices: random small entries, and
    conjugated triangular ones whose eigenvalues repeat lam and others."""
    rng = random.Random(14)
    lams = (Q(0), Q(1), Q(2), Q(-1))
    split = 0  # pairs where lam is one eigenvalue among others
    for t in range(160):
        n = rng.randint(0, 5)
        if t % 2:
            m = Matrix([[rng.choice([0, 0, 1, -1, 2, Q(1, 2)]) for _ in range(n)]
                        for _ in range(n)], n)
        else:
            m = random_with_eigenvalues(rng, [rng.choice(lams + (Q(3), Q(-1, 2)))
                                              for _ in range(n)])
        for lam in lams:
            rest = m.off_eigenvalue(lam)
            want = charpoly_without(m, lam)
            assert rest.charpoly() == want
            assert rest.nrows == rest.ncols == len(want) - 1
            split += 0 < rest.nrows < n
    assert split > 100


def squared_off_eigenvalue(m, lam):
    """`Matrix.off_eigenvalue` as first defined: (m - lam)^k squared until
    k >= dim, zero or not, and the image read through `col_space`."""
    n = m.nrows
    power, k = m - Matrix.identity(n).scale(lam), 1
    while k < n:
        power, k = power * power, 2 * k
    img = col_space(power)
    rows = (m * img).sparse_rows
    return Matrix._of([rows[min(c)] for c in img.sparse_columns()], img.ncols)


def test_off_eigenvalue_matches_the_squaring_definition():
    # the one-pass shift and the stop at a zero power change no output:
    # random matrices, conjugated triangular ones, and lam + N with N^2 = 0
    # at n >= 4 (N upper block triangular, conjugated), alone or beside the
    # eigenvalue 3, where off_eigenvalue(lam) leaves nothing or (3)
    rng = random.Random(15)
    lams = (Q(0), Q(1), Q(2), Q(-1, 2))
    cases = []  # (matrix, lam of its nilpotent part and the rest, or None)
    for t in range(120):
        n = rng.randint(0, 6)
        if t % 3 == 0:
            cases.append((rand_matrix(rng, n, n, span=2), None))
        elif t % 3 == 1:
            cases.append((random_with_eigenvalues(rng, [rng.choice(lams) for _ in range(n)]),
                          None))
        else:
            n, lam = rng.randint(4, 7), rng.choice(lams)
            half = rng.randint(1, n - 1)
            nil = Matrix([[rng.choice([1, -2, Q(1, 3)]) if i < half <= j else 0
                           for j in range(n)] for i in range(n)])
            assert (nil * nil).is_zero() and not nil.is_zero()
            base = Matrix.identity(n).scale(lam) + nil
            rest = rng.choice((Matrix.identity(0), Matrix([[3]])))
            if rest.nrows:
                base = Matrix([list(r) + [0] for r in base.rows] + [[0] * n + [3]])
            cases.append((conjugated(rng, base), (lam, rest)))
    for m, known in cases:
        for lam in lams:
            got = m.off_eigenvalue(lam)
            assert got == squared_off_eigenvalue(m, lam)
            if known is not None and known[0] == lam:
                assert got == known[1]
    assert sum(known is not None for _, known in cases) == 40
    with pytest.raises(InputError):
        Matrix.zero(2, 3).off_eigenvalue(0)


def test_rank_of_distinct_leads_matches_dense_oracle():
    # rows with pairwise distinct leading columns are counted; repeated
    # leads, zero rows and int rows go to the elimination
    rng = random.Random(16)
    distinct = 0
    for t in range(200):
        nr, nc = rng.randint(0, 7), rng.randint(1, 7)
        rows = []
        for _ in range(nr):
            lead = rng.randrange(nc)
            row = {j: rng.choice((1, -1, 2, 3)) for j in range(lead + 1, nc)
                   if rng.random() < 0.4}
            rows.append({lead: rng.choice((1, -2, 3))} | row if rng.random() < 0.85 else {})
        if t % 3 == 0 and rows:  # repeat a lead
            rows.append(dict(rng.choice(rows)) if t % 2 else
                        {min(rows[0] or {0: 1}): 1, nc - 1: 5})
        for m in (Matrix._of([dict(r) for r in rows], nc),
                  Matrix._of([{j: Q(x, 2) for j, x in r.items()} for r in rows], nc)):
            want = len(dense_rref(m.rows, nc)[1])
            assert m.rank() == want == len(_reduce([dict(r) for r in m.sparse_rows],
                                                   full=False)[1])
            assert type(m.rank()) is int
        leads = [min(r) for r in rows if r]
        distinct += len(set(leads)) == len(leads)
    assert 40 < distinct < 160


def test_projector_identities_randomized():
    rng = random.Random(3)
    for _ in range(15):
        # conjugated block-diagonal matrix with known eigenvalues
        eigs = rng.sample([Q(1), Q(2), Q(-1), Q(3), Q(5)], rng.randint(1, 3))
        blocks = []
        for lam in eigs:
            size = rng.randint(1, 2)
            block = [[lam if i == j else (Q(1) if j == i + 1 else Q(0))
                      for j in range(size)] for i in range(size)]
            blocks.append(block)
        n = sum(len(b) for b in blocks)
        rows, off = [], 0
        full = [[Q(0)] * n for _ in range(n)]
        for b in blocks:
            for i, row in enumerate(b):
                for j, x in enumerate(row):
                    full[off + i][off + j] = x
            off += len(b)
        m = Matrix(full)
        while True:
            g = rand_matrix(rng, n, n, span=2)
            if g.rank() == n:
                break
        ginv_cols = [g.solve([Q(1) if i == j else Q(0) for i in range(n)])
                     for j in range(n)]
        ginv = Matrix.from_columns(ginv_cols, nrows=n)
        m = g * m * ginv
        projs = [eigen_projector(m, lam) for lam in eigs]
        total = Matrix.zero(n, n)
        for p in projs:
            assert p * p == p
            assert m * p == p * m
            total = total + p
        assert total == Matrix.identity(n)


def test_subspace_operations():
    e1 = [1, 0, 0]
    e2 = [0, 1, 0]
    e3 = [0, 0, 1]
    a = col_space([e1, e2], dim=3)
    b = col_space([e2, e3], dim=3)
    cap = subspace_intersection(a, b)
    assert cap.columns() == [(0, 1, 0)]
    tot = subspace_sum(a, b)
    assert tot.ncols == 3
    assert subspace_leq(a, tot)
    assert subspace_leq(Matrix.from_columns([[2, -5, 0]]), a)
    assert not subspace_leq(Matrix.from_columns([[0, 0, 1]]), a)


def test_subspace_preimage():
    d = Matrix([[1, 0], [0, 0]])  # projects to the x-axis
    s = col_space([[1, 0]], dim=2)
    pre = subspace_preimage(d, s)
    assert pre.ncols == 2  # everything maps into the line
    zero = subspace_preimage(d, Matrix.zero(2, 0))
    assert zero.columns() == [(0, 1)]


def test_quotient_coordinates():
    z = col_space([[1, 0, 0], [0, 1, 0]], dim=3)
    d = col_space([[1, 0, 0]], dim=3)
    q = Quotient(z, d)
    assert q.dim == 1
    assert q.matrix_of(Matrix.from_columns([[5, 7, 0]])).columns() == [(7,)]


def test_eigen_projector_without_full_splitting():
    lam = Q(4)
    # block diagonal: Jordan(lam) + a rotation-like block with no rational roots
    m = Matrix([[lam, 1, 0, 0],
                [0, lam, 0, 0],
                [0, 0, 0, -1],
                [0, 0, 1, 0]])
    p = eigen_projector(m, lam)
    assert p * p == p
    assert m * p == p * m
    assert p.rank() == 2
    assert eigen_projector(m, Q(5)).is_zero()


def test_sylvester_operator_matches_its_definition():
    # the operator applied to X, flattened row by row, is phi_w X - X phi_v
    rng = random.Random(12)
    for _ in range(30):
        nv, nw = rng.randint(1, 3), rng.randint(1, 3)
        phi_v, phi_w, x = rand_matrix(rng, nv, nv), rand_matrix(rng, nw, nw), \
            rand_matrix(rng, nw, nv)
        want = phi_w * x - x * phi_v
        got = times(sylvester(phi_w, phi_v), [e for row in x.rows for e in row])
        assert got == tuple(e for row in want.rows for e in row)
    with pytest.raises(InputError):
        sylvester(Matrix.identity(2), Matrix([[1, 2]]))


def test_polynomial_arithmetic_and_grading():
    ring = PolyRing([("q1", 2), ("q2", 2)])
    q1, q2 = ring.gens()
    f = (q1 + q2) ** 2
    assert f == q1 * q1 + q1 * q2 * 2 + q2 * q2
    assert {f.monomial_degree(e) for e in f.terms} == {4}
    assert str(q1 * q1 - q2) == "-q2 + q1^2"


def test_polynomial_multiplication_commutes_randomized():
    ring = PolyRing([("a", 2), ("b", 4), ("c", 2)])
    rng = random.Random(5)

    def rand_poly():
        out = ring.zero()
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            out = out + ring.monomial(exps, rng.randint(-3, 3))
        return out

    for _ in range(25):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        # the degrees of a product are sums of the degrees of its factors
        assert {f.monomial_degree(e) for e in (f * g).terms} <= \
            {f.monomial_degree(a) + g.monomial_degree(b) for a in f.terms for b in g.terms}


def test_monomial_enumeration_by_graded_degree():
    ring = PolyRing([("q1", 2), ("q2", 2)])
    assert ring.dim_of_degree(4) == 3
    assert ring.dim_of_degree(3) == 0
    mixed = PolyRing([("p1", 4), ("e", 4)])
    assert mixed.dim_of_degree(8) == 3


def test_monomial_counts_match_the_enumeration():
    rng = random.Random(19)
    for size in range(5):
        for _ in range(6):
            ring = PolyRing([(f"g{i}", rng.randint(1, 6)) for i in range(size)])
            counts = ring.monomial_counts(30)
            assert counts == [len(ring.exponents_of_degree(d)) for d in range(31)], ring
            assert [ring.dim_of_degree(d) for d in range(31)] == counts
            assert ring.dim_of_degree(-1) == 0


def test_exponents_of_degree_match_a_filtered_product():
    # every exponent tuple of the degree, in descending lexicographic order
    for gens in ([], [("a", 1)], [("a", 3)], [("q1", 2), ("q2", 2)],
                 [("a", 2), ("b", 3), ("c", 1)], [("p1", 4), ("p2", 8), ("e", 6)]):
        ring = PolyRing(gens)
        for d in range(-2, 15):
            ranges = [range(max(d, 0) // deg, -1, -1) for deg in ring.degrees]
            want = [e for e in product(*ranges)
                    if d >= 0 and sum(x * deg for x, deg in zip(e, ring.degrees)) == d]
            assert want == sorted(want, reverse=True)
            assert ring.exponents_of_degree(d) == want, (gens, d)


def test_polynomial_substitution():
    src = PolyRing([("p1", 4)])
    dst = PolyRing([("q1", 2), ("q2", 2)])
    q1, q2 = dst.gens()
    image = q1 * q1 + q2 * q2
    f = src.gen("p1") ** 2
    assert f.substitute(dst, {"p1": image}) == image * image


def test_polynomial_json_round_trip():
    ring = PolyRing([("q1", 2), ("q2", 2)])
    q1, q2 = ring.gens()
    f = q1 * q2 * Q(3, 2) - q2 ** 3
    assert poly_from_json(f.to_json(), ring) == f


def test_elementary_symmetric():
    ring = PolyRing([("q1", 2), ("q2", 2)])
    q1, q2 = ring.gens()
    assert elementary_symmetric([q1, q2], 1) == q1 + q2
    assert elementary_symmetric([q1, q2], 2) == q1 * q2


def test_upoly_str():
    assert upoly_str((Q(6), Q(-5), Q(1))) == "t^2 - 5*t + 6"
