import random
from fractions import Fraction as Q

import pytest

from equiconf.errors import InputError
from equiconf.exactalg import (
    Matrix,
    PolyRing,
    Quotient,
    col_space,
    eigen_projector,
    elementary_symmetric,
    equivariant_hom_dims,
    poly_from_json,
    rat,
    strip_linear_factor,
    subspace_contains,
    subspace_intersection,
    subspace_leq,
    subspace_preimage,
    subspace_sum,
    upoly_monic,
    upoly_str,
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
    assert Matrix.identity(2).kernel_basis() == []


def test_kernel_zero_map():
    vecs = Matrix.zero(2, 3).kernel_basis()
    assert vecs == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_kernel_rank_one():
    vecs = Matrix([[1, 1], [1, 1]]).kernel_basis()
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
        assert m.rank() + len(m.kernel_basis()) == m.ncols


def test_solve_found_solutions_are_exact():
    rng = random.Random(11)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        x = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m.ncols)]
        b = m.matvec(x)
        sol = m.solve(b)
        assert sol is not None
        assert m.matvec(sol) == b


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
    k, rest = strip_linear_factor(m.charpoly(), Q(2))
    assert k == 1
    assert upoly_str(upoly_monic(rest)) == "t - 3"


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
    assert subspace_contains(a, [2, -5, 0])
    assert not subspace_contains(a, [0, 0, 1])


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
    assert q.coords([5, 7, 0]) == (7,)


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


def test_hom_vanishing_distinct_weights():
    xi = Q(4)
    hom, ext = equivariant_hom_dims(Matrix([[xi]]), Matrix([[xi * xi]]))
    assert (hom, ext) == (0, 0)


def test_hom_same_weight_nonzero():
    xi = Q(4)
    hom, ext = equivariant_hom_dims(Matrix([[xi]]), Matrix([[xi]]))
    assert (hom, ext) == (1, 1)


def test_polynomial_arithmetic_and_grading():
    ring = PolyRing([("q1", 2), ("q2", 2)])
    q1, q2 = ring.gens()
    f = (q1 + q2) ** 2
    assert f == q1 * q1 + q1 * q2 * 2 + q2 * q2
    assert f.degree() == 4
    assert f.is_homogeneous()
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
        if f.is_homogeneous() and g.is_homogeneous() and not f.is_zero() \
                and not g.is_zero() and not (f * g).is_zero():
            assert (f * g).degree() == f.degree() + g.degree()


def test_monomial_enumeration_by_graded_degree():
    ring = PolyRing([("q1", 2), ("q2", 2)])
    assert ring.dim_of_degree(4) == 3
    assert ring.dim_of_degree(3) == 0
    mixed = PolyRing([("p1", 4), ("e", 4)])
    assert mixed.dim_of_degree(8) == 3


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
