"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line; the assertions carry the same
condition, so the pytest verdict and the printed line always agree.
"""

import random
from fractions import Fraction as Q

from equiconf import confring, equieven, equiodd, oracles, specseq, verify
from equiconf.charclasses import GroupSpec
from equiconf.exactalg import Matrix


def report(number, title, ok):
    print(f"[criterion {number:2d}] {title}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {title}"


def test_criterion_1_two_points_r3_circle():
    # Q[x,q]/x(x-q): independent model has basis {q^b, x q^b}
    expected = [1 if d == 0 else (2 if d % 2 == 0 else 0) for d in range(13)]
    got = [equiodd.torus_dimension(2, 1, d) for d in range(13)]
    report(1, "Conf_2(R^3) with the circle: dims match Q[x,q]/x(x-q) up to 12",
           got == expected)


def test_criterion_2_so3_fixed_points():
    expected = [1 if d % 2 == 0 else 0 for d in range(13)]
    got = [equiodd.fixed_point_dimension(GroupSpec("so_odd", 1), 2, d)
           for d in range(13)]
    report(2, "SO(3) fixed points: a polynomial ring on one degree-2 class",
           got == expected)


def test_criterion_3_conf2_r4_torus_page():
    # d4(x) = q1 q2, and the surviving page is Q[q1,q2]/(q1 q2) up to degree 16
    x = equieven.x_generator("torus", 2, 2, 1, 2)
    ring = equieven.page_ring("torus", 2)
    q1, q2 = ring.gens()
    d_ok = equieven.d2n(x) == equieven.unit("torus", 2, 2).scale_poly(q1 * q2)
    golden = equieven.as_filtered_complex("torus", 2, 2, 18)
    e3 = specseq.page(golden, 3)
    has_d = any(not m.is_zero() for m in e3.differentials.values())
    e4 = specseq.page(golden, 4).total_degree_dims()
    dims_ok = all(e4.get(n, 0) == (1 if n == 0 else (2 if n % 2 == 0 else 0))
                  for n in range(17))
    report(3, "Conf_2(R^4) torus page: d4(x) = q1 q2 and E5 = Q[q1,q2]/(q1 q2)",
           d_ok and has_d and dims_ok)


def test_criterion_4_so4_o4_two_points():
    expected = [1 if d % 4 == 0 else 0 for d in range(17)]
    nonzero = {d: x for d, x in enumerate(expected) if x}
    so = equieven.equivariant_cohomology_even("so", 2, 2, 16).dims
    o = equieven.equivariant_cohomology_even("o", 2, 2, 16).dims
    so_fixed = equieven.fixed_page_cohomology_dims("so_even", 2, 2, 16)
    o_fixed = equieven.fixed_page_cohomology_dims("o_even", 2, 2, 16)
    table_ok = so == nonzero and o == nonzero \
        and [so_fixed[d] for d in range(17)] == expected \
        and [o_fixed[d] for d in range(17)] == expected
    model = equieven.equivariant_cohomology_even("o", 2, 2, 16)
    d4_zero = all(equieven.d2n(elem).is_zero()
                  for items in model.elements.values() for _, elem in items)
    report(4, "SO(4) and O(4) on Conf_2(R^4): Q on one degree-4 class; "
              "d4 = 0 on the O(4) model", table_ok and d4_zero)


def test_criterion_5_poincare_polynomials():
    formula_ok = all(
        oracles.poincare_polynomial(k, n) == confring.poincare_formula(k, n)
        for k in range(2, 7) for n in range(2, 6))
    oracle_ok = all(
        confring.dimension(k, n, d) == oracles.quotient_dimension(k, n, d)
        for k in range(2, 5) for n in range(2, 6)
        for d in range(confring.top_degree(k, n) + 2))
    report(5, "Poincare polynomials equal prod_j (1 + j t^(n-1)), "
              "oracle-validated for k <= 4", formula_ok and oracle_ok)


def test_criterion_6_leray_hirsch():
    ok = all(equiodd.torus_dimension(ell, n, d) ==
             equiodd.leray_hirsch_dimension(ell, n, d)
             for ell in range(0, 6) for n in (1, 2) for d in range(13))
    report(6, "Leray-Hirsch: torus Hilbert series equals "
              "prod(1 + j t^(2n)) / (1 - t^2)^n", ok)


def test_criterion_7_relations_reduce_to_zero():
    engine_ok = True
    for ell in range(3, 6):
        for n in (1, 2):
            for i in range(1, ell + 1):
                for j in range(1, ell + 1):
                    for k in range(1, ell + 1):
                        if len({i, j, k}) == 3:
                            if not equiodd.modified_arnold(ell, n, i, j, k).is_zero():
                                engine_ok = False
    for ell in range(2, 6):
        for n in (1, 2):
            pn = equiodd.unit(ell, n).scale_poly(equiodd.p_top(n))
            for j in range(2, ell + 1):
                for i in range(1, j):
                    y = equiodd.generator(ell, n, i, j)
                    if y * y != pn:
                        engine_ok = False
    oracle_ok = True
    for ell in range(3, 6):
        for n in (1, 2):
            admissible = [(m.edges, m.q_exps)
                          for m in equiodd.torus_basis(ell, n, 4 * n)]
            pn_key = ((), tuple([2] * n))
            for (a, b, c) in ((1, 2, 3), (2, 3, min(ell, 4)), (1, 3, ell)):
                if len({a, b, c}) != 3 or max(a, b, c) > ell:
                    continue
                combo = {}

                def add(reduction, sign):
                    for key, val in reduction.items():
                        combo[key] = combo.get(key, Q(0)) + sign * val

                add(oracles.graph_reduce(ell, n, [(a, b), (b, c)], admissible), 1)
                add(oracles.graph_reduce(ell, n, [(b, c), (a, c)], admissible), -1)
                add(oracles.graph_reduce(ell, n, [(a, c), (a, b)], admissible), -1)
                combo[pn_key] = combo.get(pn_key, Q(0)) + 1
                if any(v != 0 for v in combo.values()):
                    oracle_ok = False
            for j in range(2, ell + 1):
                for i in range(1, j):
                    red = oracles.graph_reduce(ell, n, [(i, j), (i, j)], admissible)
                    if red != {pn_key: Q(1)}:
                        oracle_ok = False
    report(7, "modified three-term and double-edge relations vanish "
              "(rewrite engine and ideal-span oracle, l <= 5)",
           engine_ok and oracle_ok)


def test_criterion_8_decalage_page_shift():
    rng = random.Random(505)
    samples = 50
    ok = True
    for _ in range(samples):
        A = verify.random_filtered_complex(rng, strict=True)
        D = specseq.decalage(A)
        e0d, e1a = specseq.page(D, 0), specseq.page(A, 1)
        keys = set(e0d.dims()) | {(i + n, n) for (i, n) in e1a.dims()}
        for (i, n) in keys:
            if e0d.dim(i, n) != e1a.dim(i - n, n):
                ok = False
    report(8, f"decalage page shift dim E0(Dec A) = dim E1(A) "
              f"on {samples} randomized complexes", ok)


def test_criterion_9_formality_witnesses():
    rng = random.Random(909)
    xi = Q(3)
    samples = 50
    ok = True
    for t in range(samples):
        alpha = [Q(1), Q(2), Q(1, 2)][t % 3]
        A, h_dims, _ = verify.random_pure_complex(rng, xi, alpha)
        witness = specseq.formality_witness(A, specseq.WeightSpec(xi, alpha, 0))
        if not witness.verified:
            ok = False
        if {n: m.ncols for n, m in witness.inclusions.items()} != h_dims:
            ok = False
    impure_ok = True
    for t in range(12):
        A, _, spot = verify.random_pure_complex(rng, xi, Q(1), impure=True)
        result = specseq.purity_check(A, specseq.WeightSpec(xi, Q(1), 0))
        if result.ok or result.violation[0] != spot:
            impure_ok = False
    report(9, f"formality witnesses verified on {samples} pure complexes; "
              "impure inputs refused at the right bidegree", ok and impure_ok)


def test_criterion_10_hom_vanishing():
    xi = Q(4)
    pairs = [
        (Matrix([[xi]]), Matrix([[xi * xi]])),
        (Matrix([[xi, 1], [0, xi]]), Matrix([[xi ** 3]])),
        (Matrix([[xi * xi]]), Matrix([[xi]])),
    ]
    ok = all(verify.equivariant_hom_dims(v, w) == (0, 0) for v, w in pairs)
    sanity = verify.equivariant_hom_dims(Matrix([[xi]]), Matrix([[xi]])) == (1, 1)
    report(10, "Hom and first derived term vanish between distinct pure "
               "weights (Sylvester solve)", ok and sanity)


def test_criterion_11_even_case_consistency():
    ok = True
    for group in ("so", "o", "u"):
        for ell in (1, 2, 3, 4):
            rep = equieven.verify_page_cohomology(group, ell, 2, 12)
            if not rep.passed:
                ok = False
    report(11, "page cohomology equals the equivariant models for "
               "SO(4), O(4), U(2), l <= 4, degrees <= 12", ok)
