import hashlib
import itertools
import math
import random
from fractions import Fraction as Q

import pytest

from equiconf import charclasses as cc, equieven, equiodd, oracles
from equiconf.errors import CapacityError, InputError
from equiconf.exactalg import Polynomial


def invariant_basis(spec, degree, convention="standard"):
    """The degree-d Weyl invariants of Q[q_1..q_n] as Polynomials: the
    `orbit_rows` of the words of length 0, which `invariant_dimension` counts."""
    ring = cc.torus_ring(spec.rank)
    (rows,) = cc.orbit_rows(cc.weyl_group(spec, convention), [(ring.exponents_of_degree(degree), 0)])
    return [Polynomial(ring, row) for row in rows]


def test_weyl_group_orders():
    assert len(cc.weyl_group(cc.GroupSpec("torus", 3))) == 1
    for n in range(1, 4):
        fact = math.factorial(n)
        assert len(cc.weyl_group(cc.GroupSpec("o_even", n))) == 2 ** n * fact
        assert len(cc.weyl_group(cc.GroupSpec("so_even", n))) == 2 ** (n - 1) * fact
        assert len(cc.weyl_group(cc.GroupSpec("so_odd", n))) == 2 ** n * fact
        assert len(cc.weyl_group(cc.GroupSpec("o_odd", n))) == 2 ** (n + 1) * fact
        assert len(cc.weyl_group(cc.GroupSpec("u", n))) == fact


def test_weyl_group_small_examples():
    assert cc.weyl_group(cc.GroupSpec("so_even", 1)) == (cc.weyl_identity(1),)
    assert len(cc.weyl_group(cc.GroupSpec("o_even", 1))) == 2
    so4 = cc.weyl_group(cc.GroupSpec("so_even", 2))
    assert len(so4) == 4
    assert all(w.eps_product() == 1 for w in so4)


def test_weyl_group_paper_convention():
    so4_paper = cc.weyl_group(cc.GroupSpec("so_even", 2), convention="paper")
    assert len(so4_paper) == 4
    assert all(w.sign_of_sigma() * w.eps_product() == 1 for w in so4_paper)
    assert set(so4_paper) != set(cc.weyl_group(cc.GroupSpec("so_even", 2)))


def test_capacity_bound():
    with pytest.raises(CapacityError):
        cc.weyl_group(cc.GroupSpec("o_even", 6))


def test_weyl_action_basics():
    ring = cc.torus_ring(2)
    q1, q2 = ring.gens()
    f = q1 * q1 + q2 * 2
    ident = cc.weyl_identity(2)
    assert cc.weyl_action(ident, f) == f
    flip = cc.WeylElement((1, 2), (-1, 1))
    assert cc.weyl_action(flip, q1 * q2) == -(q1 * q2)
    swap = cc.WeylElement((2, 1), (1, 1))
    assert cc.weyl_action(swap, f) == q2 * q2 + q1 * 2


def test_weyl_action_is_group_action():
    rng = random.Random(13)
    ring = cc.torus_ring(3)
    group = cc.weyl_group(cc.GroupSpec("o_odd", 3))
    for _ in range(20):
        w1 = rng.choice(group)
        w2 = rng.choice(group)
        f = ring.zero()
        for _ in range(3):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            f = f + ring.monomial(exps, rng.randint(-2, 2))
        assert cc.weyl_action(w1 * w2, f) == cc.weyl_action(w1, cc.weyl_action(w2, f))


def test_weyl_action_is_the_substitution():
    # every element of every family's Weyl group at ranks 1-3, under both
    # conventions, acts as the ring map q_i -> eps_i q_sigma(i), rebuilt by
    # `substitute`; its image keeps one term per term (it is injective)
    rng = random.Random(31)
    for n in (1, 2, 3):
        ring = cc.torus_ring(n)
        monomials = list(itertools.product(range(6 if n == 1 else 4), repeat=n))
        polys = [Polynomial(ring, {exps: Q(rng.choice((-5, -2, -1, 1, 3, 4)), rng.randint(1, 3))
                                   for exps in rng.sample(monomials, 4)})
                 for _ in range(4)]
        exponents = {e for f in polys for exps in f.terms for e in exps}
        assert {1, 2, 3} <= exponents
        for family in cc.FAMILIES:
            for convention in cc.CONVENTIONS:
                for w in cc.weyl_group(cc.GroupSpec(family, n), convention):
                    images = {f"q{i}": ring.gen(f"q{s}").scale(e)
                              for i, (s, e) in enumerate(zip(w.sigma, w.eps), start=1)}
                    for f in polys:
                        image = cc.weyl_action(w, f)
                        assert image == f.substitute(ring, images), (family, convention, w)
                        assert len(image.terms) == len(f.terms) == 4


def test_invariant_basis_examples():
    ring = cc.torus_ring(2)
    q1, q2 = ring.gens()
    so5 = invariant_basis(cc.GroupSpec("so_odd", 2), 4)
    assert len(so5) == 1
    assert so5[0] == q1 * q1 + q2 * q2
    so4 = invariant_basis(cc.GroupSpec("so_even", 2), 4)
    assert len(so4) == 2
    o4 = invariant_basis(cc.GroupSpec("o_even", 2), 4)
    assert len(o4) == 1
    assert o4[0] == q1 * q1 + q2 * q2
    # under the paper convention q1*q2 stops being an SO(4) invariant
    assert cc.invariant_dimension(cc.GroupSpec("so_even", 2), 4, "paper") == 1


def test_invariant_hilbert_series_match_free_rings():
    for family in ("torus", "so_odd", "o_odd", "so_even", "o_even", "u"):
        for rank in range(1, 4):
            spec = cc.GroupSpec(family, rank)
            ring = cc.char_ring(spec)
            for degree in range(0, 17, 2):
                assert cc.invariant_dimension(spec, degree) == \
                    ring.dim_of_degree(degree), (family, rank, degree)


def test_char_ring_generators_and_degrees():
    so4 = cc.char_ring(cc.GroupSpec("so_even", 2))
    assert so4.names == ("p1", "e") and so4.degrees == (4, 4)
    so6 = cc.char_ring(cc.GroupSpec("so_even", 3))
    assert so6.names == ("p1", "p2", "e") and so6.degrees == (4, 8, 6)
    o5 = cc.char_ring(cc.GroupSpec("o_odd", 2))
    assert o5.names == ("p1", "p2") and o5.degrees == (4, 8)
    u2 = cc.char_ring(cc.GroupSpec("u", 2))
    assert u2.names == ("c1", "c2") and u2.degrees == (2, 4)


def test_restriction_o4_to_so4():
    o4 = cc.GroupSpec("o_even", 2)
    so4 = cc.GroupSpec("so_even", 2)
    p2 = cc.char_ring(o4).gen("p2")
    e = cc.char_ring(so4).gen("e")
    assert cc.restriction_map(o4, so4, p2) == e * e
    p1 = cc.char_ring(o4).gen("p1")
    assert cc.restriction_map(o4, so4, p1) == cc.char_ring(so4).gen("p1")


def test_restriction_so4_to_so3():
    so4 = cc.GroupSpec("so_even", 2)
    so3 = cc.GroupSpec("so_odd", 1)
    e = cc.char_ring(so4).gen("e")
    assert cc.restriction_map(so4, so3, e).is_zero()
    p1 = cc.char_ring(so4).gen("p1")
    assert cc.restriction_map(so4, so3, p1) == cc.char_ring(so3).gen("p1")


def test_restriction_to_torus():
    so4 = cc.GroupSpec("so_even", 2)
    torus = cc.GroupSpec("torus", 2)
    ring = cc.torus_ring(2)
    q1, q2 = ring.gens()
    assert cc.restriction_map(so4, torus, cc.char_ring(so4).gen("e")) == q1 * q2
    assert cc.restriction_map(so4, torus, cc.char_ring(so4).gen("p1")) == \
        q1 * q1 + q2 * q2
    u2 = cc.GroupSpec("u", 2)
    assert cc.restriction_map(u2, torus, cc.char_ring(u2).gen("c1")) == q1 + q2
    assert cc.restriction_map(u2, torus, cc.char_ring(u2).gen("c2")) == q1 * q2
    o5 = cc.GroupSpec("o_odd", 2)
    assert cc.restriction_map(o5, torus, cc.char_ring(o5).gen("p2")) == \
        (q1 * q1) * (q2 * q2)


def test_restriction_composition_through_so():
    # torus restriction of O(2n) factors through SO(2n) on every generator
    for n in (1, 2, 3):
        o_spec = cc.GroupSpec("o_even", n)
        so_spec = cc.GroupSpec("so_even", n)
        torus = cc.GroupSpec("torus", n)
        for name in cc.char_ring(o_spec).names:
            f = cc.char_ring(o_spec).gen(name)
            direct = cc.restriction_map(o_spec, torus, f)
            via_so = cc.restriction_map(so_spec, torus,
                                        cc.restriction_map(o_spec, so_spec, f))
            assert direct == via_so, (n, name)


def test_restriction_unsupported_pair():
    with pytest.raises(InputError):
        cc.restriction_map(cc.GroupSpec("so_odd", 2), cc.GroupSpec("so_even", 2),
                           cc.char_ring(cc.GroupSpec("so_odd", 2)).gen("p1"))


def test_torus_invariants_under_eta():
    # The residual reflection acts trivially on the torus variables: the odd
    # special and full orthogonal groups have identical torus invariants.
    for rank in (1, 2):
        for degree in range(0, 13, 2):
            assert cc.invariant_dimension(cc.GroupSpec("so_odd", rank), degree) == \
                cc.invariant_dimension(cc.GroupSpec("o_odd", rank), degree)


def _check_fixed_basis(group, basis, act, got):
    """`got` equals the averaging oracle, is fixed, and has the mean-trace dimension."""
    assert got == oracles.averaged_fixed_basis(group, basis, act)
    for b in got:
        assert all(act(w, b) == b for w in group)
    # the trace of w on a monomial basis sums its diagonal coefficients
    trace = 0
    for x in basis:
        ((edges, c),) = x.terms.items()
        (exps,) = c.terms
        for w in group:
            image = act(w, x).terms.get(edges)
            trace += image.coefficient(exps) if image else 0
    assert Q(trace, len(group)) == len(got)


def test_fixed_bases_match_the_averaging_oracle():
    # invariants of Q[q] are checked as coefficients of the empty graph
    for family in cc.FAMILIES:
        for rank in (1, 2, 3):
            spec = cc.GroupSpec(family, rank)
            ring = cc.torus_ring(rank)
            for convention in cc.CONVENTIONS:
                group = cc.weyl_group(spec, convention)
                for degree in range(11):
                    basis = [equiodd.EquiElement(0, rank, {(): ring.monomial(e)})
                             for e in ring.exponents_of_degree(degree)]
                    got = [equiodd.EquiElement(0, rank, {(): f})
                           for f in invariant_basis(spec, degree, convention)]
                    _check_fixed_basis(group, basis, equiodd.weyl_action_equi, got)
                    assert cc.invariant_dimension(spec, degree, convention) == len(got)
                    if family not in ("so_odd", "o_odd", "so_even", "o_even"):
                        continue
                    for ell in (2, 3, 4):
                        if family.endswith("odd"):
                            basis = [m.as_element()
                                     for m in equiodd.torus_basis(ell, rank, degree)]
                            got = equiodd.fixed_point_basis(spec, ell, degree, convention)
                            act = equiodd.weyl_action_equi
                            assert equiodd.fixed_point_dimension(spec, ell, degree,
                                                                 convention) == len(got)
                        else:
                            unit = equieven.zero("torus", ell, rank)
                            basis = [unit.from_coordinates([key], [Q(1)]) for key
                                     in equieven.page_basis("torus", ell, rank, degree)]
                            got = equieven.weyl_fixed_page_basis(family, ell, rank, degree,
                                                                 convention)
                            act = oracles.weyl_page_action
                        _check_fixed_basis(group, basis, act, got)

    # a degree the sign check empties: x12 is SO(4)-fixed, but O(4) holds det = -1
    assert equieven.weyl_fixed_page_basis("so_even", 2, 2, 3) != []
    assert equieven.weyl_fixed_page_basis("o_even", 2, 2, 3) == []


def test_fixed_bases_keep_their_order_and_bytes():
    # the three Weyl-fixed bases as printed, element by element, for both
    # conventions, up to word length 5; the digest was taken when each basis
    # was read off signed orbit sums of its (word, exponents) keys
    lines = []
    for convention in cc.CONVENTIONS:
        for rank in (1, 2, 3):
            for degree in range(13):
                for family in cc.FAMILIES:
                    lines += map(str, invariant_basis(cc.GroupSpec(family, rank), degree,
                                                      convention))
                for ell in range(6):
                    for family in ("so_odd", "o_odd"):
                        lines += map(str, equiodd.fixed_point_basis(
                            cc.GroupSpec(family, rank), ell, degree, convention))
                    for family in ("so_even", "o_even"):
                        lines += map(str, equieven.weyl_fixed_page_basis(
                            family, ell, rank, degree, convention))
    assert len(lines) == 6852
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "8ea24dc88ba5b52c19e208b1e3ddee6ec672cd279c53c7160abd0473d6a4f896"
