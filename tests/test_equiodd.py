import json
import random
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest

from equiconf import confring, equieven, equiodd, oracles
from equiconf.charclasses import GroupSpec, WeylElement, weyl_group
from equiconf.errors import InputError


def test_square_of_generator_is_p_n():
    y = equiodd.generator(2, 1, 1, 2)
    assert y * y == equiodd.unit(2, 1).scale_poly(equiodd.p_top(1))
    y2 = equiodd.generator(2, 2, 1, 2)
    assert y2 * y2 == equiodd.unit(2, 2).scale_poly(equiodd.p_top(2))


def test_unit_and_antisymmetry():
    y = equiodd.generator(3, 1, 1, 2)
    assert equiodd.unit(3, 1) * y == y
    assert equiodd.generator(3, 1, 2, 1) == -y


def test_repeated_maximum_matches_graph_oracle():
    # frozen from the ideal-span oracle:
    # y13*y23 = y12*y23 - y12*y13 + q1^2 (l=3, n=1)
    got = equiodd.generator(3, 1, 1, 3) * equiodd.generator(3, 1, 2, 3)
    expected = (equiodd.generator(3, 1, 1, 2) * equiodd.generator(3, 1, 2, 3)
                - equiodd.generator(3, 1, 1, 2) * equiodd.generator(3, 1, 1, 3)
                + equiodd.unit(3, 1).scale_poly(equiodd.p_top(1)))
    assert got == expected
    admissible = [(m.edges, m.q_exps) for m in equiodd.torus_basis(3, 1, 4)]
    oracle = oracles.graph_reduce(3, 1, [(1, 3), (2, 3)], admissible)
    assert oracle == {((), (2,)): Q(1),
                      (((1, 2), (1, 3)), (0,)): Q(-1),
                      (((1, 2), (2, 3)), (0,)): Q(1)}


def test_engine_matches_oracle_on_random_products():
    rng = random.Random(41)
    for _ in range(12):
        ell = rng.randint(3, 4)
        n = rng.randint(1, 2)
        edges = []
        for _ in range(2):
            i, j = rng.sample(range(1, ell + 1), 2)
            e, s = equiodd.normalize_edge(ell, i, j)
            edges.append(e)
        prod = equiodd.unit(ell, n)
        for e in edges:
            prod = prod * equiodd.generator(ell, n, *e)
        admissible = [(m.edges, m.q_exps)
                      for m in equiodd.torus_basis(ell, n, 4 * n)]
        oracle = oracles.graph_reduce(ell, n, edges, admissible)
        rebuilt = equiodd.zero(ell, n)
        for (graph, qexps), c in oracle.items():
            mono = equiodd.GraphMonomial(ell, n, graph, qexps)
            rebuilt = rebuilt + mono.as_element().scale(c)
        assert rebuilt == prod


def test_pair_rule_counts_match_oracle_at_higher_powers():
    """Seeded 3- and 4-edge words with a repeated edge, whose normal forms
    carry p_n^k with k >= 2, against the ideal-span oracle, and the counts
    against random redex orders. At p_n = 0 (the terms of full length) the
    pair rule is the plain presentation of Conf_l(R^(2n+1))."""
    rng = random.Random(2026)
    top = 0
    shapes = ((3, 1, 3), (3, 1, 4), (3, 2, 3), (3, 2, 4), (3, 3, 3), (4, 1, 3), (4, 2, 3))
    for ell, n, length in shapes * 2:
        pool = [(i, j) for j in range(2, ell + 1) for i in range(1, j)]
        word = [rng.choice(pool) for _ in range(length - 1)]
        word.append(rng.choice(word))
        for w in (word[:-1], word):
            full = {g: m for g, m in confring.word_counts(ell, 2 * n + 1, w, pair=True).items()
                    if len(g) == len(w)}
            assert full == confring.word_counts(ell, 2 * n + 1, w)
        counts = confring.word_counts(ell, 2 * n + 1, word, pair=True)
        for _ in range(3):
            assert confring.word_counts(ell, 2 * n + 1, word, rng, pair=True) == counts
        admissible = [(m.edges, m.q_exps)
                      for m in equiodd.torus_basis(ell, n, 2 * n * length)]
        oracle = oracles.graph_reduce(ell, n, word, admissible)
        assert {(g, (length - len(g),) * n): m for g, m in counts.items()} == oracle
        reduced = equiodd.reduce_graph(ell, n, word, equiodd.qring(n).one())
        assert {(g, e): c for g, p in reduced.items() for e, c in p.terms.items()} == oracle
        top = max([top] + [length - len(g) for g in counts])
    assert top >= 4  # some word carries p_n^2


def test_product_commutative_and_associative():
    rng = random.Random(5)
    ring = equiodd.qring(1)
    for _ in range(10):
        ell = rng.randint(2, 4)

        def rand_elem():
            i, j = rng.sample(range(1, ell + 1), 2)
            out = equiodd.generator(ell, 1, i, j)
            if rng.random() < 0.5:
                out = out.scale_poly(ring.gen("q1"))
            return out

        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_torus_basis_examples():
    basis = equiodd.torus_basis(2, 1, 2)
    assert [(m.edges, m.q_exps) for m in basis] == [((), (1,)), (((1, 2),), (0,))]
    assert equiodd.torus_dimension(2, 1, 0) == 1
    # frozen: the enumeration and the series both give 6 in degree 4 at l=3, n=1
    assert equiodd.torus_dimension(3, 1, 4) == 6
    assert equiodd.leray_hirsch_dimension(3, 1, 4) == 6


def test_leray_hirsch_identity():
    for ell in range(0, 7):
        for n in (1, 2, 3):
            for d in range(0, max(8 * n + 5, 15)):
                assert equiodd.torus_dimension(ell, n, d) == \
                    equiodd.leray_hirsch_dimension(ell, n, d), (ell, n, d)


def test_torus_dimensions_match_graph_ideal_oracle():
    for ell in (2, 3):
        for n in (1, 2):
            for d in range(0, 4 * n + 3):
                assert equiodd.torus_dimension(ell, n, d) == \
                    oracles.graph_quotient_dimension(ell, n, d), (ell, n, d)


def test_modified_arnold_vanishes_all_triples():
    for ell in range(3, 6):
        for n in (1, 2):
            for i in range(1, ell + 1):
                for j in range(1, ell + 1):
                    for k in range(1, ell + 1):
                        if len({i, j, k}) == 3:
                            assert equiodd.modified_arnold(ell, n, i, j, k).is_zero()


def test_double_edge_rule_all_pairs():
    for ell in range(2, 6):
        pn = equiodd.unit(ell, 1).scale_poly(equiodd.p_top(1))
        for j in range(2, ell + 1):
            for i in range(1, j):
                y = equiodd.generator(ell, 1, i, j)
                assert y * y == pn


def test_reduction_confluence_random_order():
    rng = random.Random(77)
    for _ in range(40):
        ell = rng.randint(3, 5)
        n = rng.randint(1, 2)
        word = []
        for _ in range(rng.randint(2, 3)):
            i, j = rng.sample(range(1, ell + 1), 2)
            e, _ = equiodd.normalize_edge(ell, i, j)
            word.append(e)
        coeff = equiodd.qring(n).one()
        reference = equiodd.reduce_graph(ell, n, word, coeff)
        shuffled = equiodd.reduce_graph(ell, n, word, coeff, rng=rng)
        assert reference == shuffled


def test_weyl_action_examples():
    ring = equiodd.qring(1)
    a = equiodd.generator(2, 1, 1, 2).scale_poly(ring.gen("q1"))
    w = WeylElement((1,), (-1,), -1)  # so_odd element, eta determined
    assert equiodd.weyl_action_equi(w, a) == -a
    central = WeylElement((1,), (1,), -1)
    y = equiodd.generator(2, 1, 1, 2)
    assert equiodd.weyl_action_equi(central, y) == -y
    ident = WeylElement((1,), (1,), 1)
    assert equiodd.weyl_action_equi(ident, a) == a


def test_weyl_action_is_ring_automorphism():
    rng = random.Random(3)
    group = weyl_group(GroupSpec("o_odd", 1))
    ring = equiodd.qring(1)
    for _ in range(15):
        w = rng.choice(group)
        i, j = rng.sample(range(1, 4), 2)
        u, v = rng.sample(range(1, 4), 2)
        a = equiodd.generator(3, 1, i, j).scale_poly(ring.gen("q1") ** rng.randint(0, 1))
        b = equiodd.generator(3, 1, u, v)
        assert equiodd.weyl_action_equi(w, a * b) == \
            equiodd.weyl_action_equi(w, a) * equiodd.weyl_action_equi(w, b)


def test_so3_fixed_points_hilbert():
    so3 = GroupSpec("so_odd", 1)
    assert [equiodd.fixed_point_dimension(so3, 2, d) for d in range(0, 9, 2)] == \
        [1, 1, 1, 1, 1]
    basis = equiodd.fixed_point_basis(so3, 2, 2)
    assert len(basis) == 1 and str(basis[0]) == "y12"


def test_o3_fixed_points_hilbert():
    o3 = GroupSpec("o_odd", 1)
    assert [equiodd.fixed_point_dimension(o3, 2, d) for d in range(0, 9, 2)] == \
        [1, 0, 1, 0, 1]


def test_so_fixed_points_match_y_p_span():
    # the Weyl-fixed subspace is spanned by products of admissible graphs
    # with Pontryagin-class polynomials (images p_u = e_u(q^2))
    from equiconf.charclasses import torus_images
    from equiconf.exactalg import Matrix, PolyRing

    for ell, n, maxdeg in ((2, 1, 10), (3, 1, 8), (2, 2, 12), (3, 2, 12)):
        spec = GroupSpec("so_odd", n)
        images = torus_images(spec)
        pring = PolyRing([(f"p{u}", 4 * u) for u in range(1, n + 1)])
        for degree in range(0, maxdeg + 1, 2):
            fixed = equiodd.fixed_point_basis(spec, ell, degree)
            basis = [(m.edges, m.q_exps) for m in equiodd.torus_basis(ell, n, degree)]
            index = {key: t for t, key in enumerate(basis)}
            span_rows = []
            m = 0
            while 2 * n * m <= degree:
                for edges in confring.basis_keys(ell, 2 * n + 1, 2 * n * m):
                    for pexp in pring.exponents_of_degree(degree - 2 * n * m):
                        coeff = equiodd.qring(n).one()
                        for u, e in enumerate(pexp, start=1):
                            coeff = coeff * images[f"p{u}"] ** e
                        elem = equiodd.EquiElement(ell, n, {edges: coeff})
                        span_rows.append(oracles.coordinates(elem, index))
                m += 1
            span_dim = Matrix(span_rows, ncols=len(basis)).rank()
            assert span_dim == len(fixed), (ell, n, degree)
            if fixed:
                fixed_rows = [oracles.coordinates(e, index) for e in fixed]
                both = Matrix(span_rows + fixed_rows, ncols=len(basis)).rank()
                assert both == span_dim  # containment in both directions


def test_o_odd_vector_space_formula():
    # dims at degree d equal sum_j dim Q[p_1..p_n]_(d-4jn) * #graphs(2j edges)
    from equiconf.exactalg import PolyRing

    for ell, n, maxdeg in ((2, 1, 10), (3, 1, 10), (2, 2, 12), (4, 1, 12)):
        spec = GroupSpec("o_odd", n)
        pring = PolyRing([(f"p{u}", 4 * u) for u in range(1, n + 1)])
        for d in range(0, maxdeg + 1, 2):
            expected = 0
            j = 0
            while 4 * j * n <= d:
                expected += pring.dim_of_degree(d - 4 * j * n) * \
                    confring.dimension(ell, 2 * n + 1, 2 * n * (2 * j))
                j += 1
            assert equiodd.fixed_point_dimension(spec, ell, d) == expected, (ell, n, d)


def test_so5_two_points_matches_presentation_dims():
    # Q[y, p1, p2]/(y^2 - p2) with |y| = 4, |p1| = 4, |p2| = 8
    so5 = GroupSpec("so_odd", 2)
    dims = [equiodd.fixed_point_dimension(so5, 2, d) for d in range(0, 13, 2)]
    assert dims == [1, 0, 2, 0, 3, 0, 4]
    # under the alternative sign convention the generator y is not fixed;
    # the two index-2 subgroups genuinely differ (documented behavior)
    paper = [equiodd.fixed_point_dimension(so5, 2, d, "paper")
             for d in range(0, 13, 2)]
    assert paper == [1, 0, 1, 0, 3, 0, 3]


def test_nonequivariant_restriction():
    y12 = equiodd.generator(3, 1, 1, 2)
    y13 = equiodd.generator(3, 1, 1, 3)
    assert equiodd.nonequivariant_restriction(y12) == \
        confring.generator(3, 3, 1, 2).scale(2)
    assert equiodd.nonequivariant_restriction(y12 * y13) == \
        confring.normal_form(3, 3, [(1, 2), (1, 3)], 4)
    q1 = equiodd.unit(2, 1).scale_poly(equiodd.qring(1).gen("q1"))
    assert equiodd.nonequivariant_restriction(q1).is_zero()


def test_restriction_is_ring_map_and_kills_modified_arnold():
    rng = random.Random(11)
    for _ in range(10):
        ell = rng.randint(3, 4)
        i, j = rng.sample(range(1, ell + 1), 2)
        u, v = rng.sample(range(1, ell + 1), 2)
        a = equiodd.generator(ell, 1, i, j)
        b = equiodd.generator(ell, 1, u, v)
        assert equiodd.nonequivariant_restriction(a * b) == \
            equiodd.nonequivariant_restriction(a) * equiodd.nonequivariant_restriction(b)
    # modified Arnold restricts to 4x the classical relation; both vanish
    rel = equiodd.modified_arnold(4, 1, 1, 2, 3)
    assert equiodd.nonequivariant_restriction(rel).is_zero()


def test_label_action_examples():
    y = equiodd.generator(2, 1, 1, 2)
    assert confring.label_action((2, 1), y) == -y
    assert confring.label_action((1, 2), y) == y
    cycle = (2, 3, 1)
    assert confring.label_action(cycle, equiodd.generator(3, 1, 1, 2)) == \
        equiodd.generator(3, 1, 2, 3)


def test_label_action_consistent_with_restriction():
    rng = random.Random(19)
    for _ in range(10):
        ell = rng.randint(2, 4)
        sigma = list(range(1, ell + 1))
        rng.shuffle(sigma)
        sigma = tuple(sigma)
        i, j = rng.sample(range(1, ell + 1), 2)
        a = equiodd.generator(ell, 1, i, j)
        lhs = equiodd.nonequivariant_restriction(confring.label_action(sigma, a))
        rhs = confring.label_action(sigma, equiodd.nonequivariant_restriction(a))
        assert lhs == rhs


def test_json_and_dot():
    a = equiodd.generator(3, 1, 1, 3) * equiodd.generator(3, 1, 2, 3)
    assert equiodd.EquiElement.from_json(a.to_json()) == a
    dot = a.to_dot()
    assert dot.count("graph term") == len(a.terms)
    assert "1 -- 2" in dot


def test_degenerate_points():
    assert equiodd.torus_dimension(1, 1, 4) == 1  # Q[q1] only
    assert equiodd.torus_dimension(0, 2, 0) == 1


def test_input_errors():
    with pytest.raises(InputError):
        equiodd.generator(2, 1, 1, 3)
    with pytest.raises(InputError):
        equiodd.generator(2, 1, 1, 1)
    with pytest.raises(InputError):
        equiodd.generator(2, 1, 1, 2) * equiodd.generator(2, 2, 1, 2)
    with pytest.raises(InputError):
        confring.label_action((1, 1), equiodd.generator(2, 1, 1, 2))
    with pytest.raises(InputError, match="different rings"):
        equiodd.reduce_graph(2, 1, [(1, 2)], equiodd.qring(2).one())
    # edges must be canonical, (i, j) with 1 <= i < j <= points
    for edges in ([(1, 9), (2, 9)], [(2, 1)], [(0, 2)], [(2, 2)], [(1, 2, 3)]):
        with pytest.raises(InputError, match="is not"):
            equiodd.reduce_graph(3, 1, edges, equiodd.qring(1).one())


def test_from_json_refuses_a_huge_halfdim_before_building_its_ring(monkeypatch):
    data = equiodd.generator(3, 1, 1, 2).to_json()
    data["halfdim"] = 10 ** 9

    def refuse(n):
        raise AssertionError(f"a ring with {n} generators was built")

    monkeypatch.setattr(equiodd, "qring", refuse)
    start = time.perf_counter()
    with pytest.raises(InputError, match="variables"):
        equiodd.EquiElement.from_json(data)
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# the graph calculus and the element algebra against a committed golden


GRAPH_GOLDEN = Path(__file__).resolve().parent / "golden" / "graph_algebra.json"


def random_poly(rng, ring):
    """One to three random terms with coefficients in +-1, 2, -1/2 and 3/4."""
    out = ring.zero()
    for _ in range(rng.randint(1, 3)):
        out = out + ring.monomial([rng.randint(0, 2) for _ in ring.names],
                                  rng.choice((1, -1, 2, Q(-1, 2), Q(3, 4))))
    return out if not out.is_zero() else ring.const(3)


def random_graph(rng, ell, length, double=False):
    """`length` canonical edges on `ell` points, repeats allowed; with
    `double` the first edge is repeated, so the word holds a double edge."""
    pool = [(i, j) for j in range(2, ell + 1) for i in range(1, j)]
    edges = [rng.choice(pool) for _ in range(length - double)]
    return edges + edges[:1] if double else edges


def graph_element(rng, ell, n, length, double=False):
    edges = random_graph(rng, ell, length, double)
    coeff = random_poly(rng, equiodd.qring(n))
    return equiodd.EquiElement(ell, n, equiodd.reduce_graph(ell, n, edges, coeff))


def page_element(rng, group, ell, n, length):
    ring = equieven.page_ring(group, n)
    out = equieven.zero(group, ell, n)
    for _ in range(2):
        term = equieven.unit(group, ell, n)
        for _ in range(length):
            i, j = rng.sample(range(1, ell + 1), 2)
            term = term * equieven.x_generator(group, ell, n, i, j)
        out = out + term.scale_poly(random_poly(rng, ring))
    return out


def graph_golden_cases():
    """(name, element): seeded `reduce_graph` outputs with double edges,
    Equi and page products, relabelings, Weyl actions, restrictions and
    d_2n, for n = 1, 2, 3, all with non-unit polynomial coefficients."""
    rng = random.Random("graph-algebra")

    def permutation(ell):
        sigma = list(range(1, ell + 1))
        rng.shuffle(sigma)
        return tuple(sigma)

    for n in (1, 2, 3):
        for ell in (3, 4, 5):
            for length in (2, 3, 4):
                for double in (False, True):
                    edges = random_graph(rng, ell, length, double)
                    coeff = random_poly(rng, equiodd.qring(n))
                    out = equiodd.reduce_graph(ell, n, edges, coeff)
                    yield (f"reduce_graph n={n} l={ell} edges={edges} coeff={coeff}",
                           equiodd.EquiElement(ell, n, out))
    for n in (1, 2, 3):
        for l1, l2 in ((1, 1), (1, 2), (2, 2), (2, 3)):
            ell = rng.choice((3, 4, 5))
            a = graph_element(rng, ell, n, l1, double=l1 == 2)
            b = graph_element(rng, ell, n, l2)
            name = f"n={n} l={ell} edges={l1}+{l2}"
            prod = a * b
            yield f"equi product {name}", prod
            sigma = permutation(ell)
            yield f"equi label_action {sigma} {name}", confring.label_action(sigma, prod)
            for family in ("so_odd", "o_odd"):
                w = rng.choice(weyl_group(GroupSpec(family, n)))
                yield (f"weyl_action_equi {family} {w.sigma} {w.eps} {w.eta} {name}",
                       equiodd.weyl_action_equi(w, prod))
            yield f"nonequivariant_restriction {name}", equiodd.nonequivariant_restriction(prod)
    for group in ("torus", "so", "u"):
        for n in (1, 2, 3):
            ell = rng.choice((3, 4))
            a = page_element(rng, group, ell, n, 1)
            b = page_element(rng, group, ell, n, rng.randint(1, 2))
            name = f"{group} n={n} l={ell}"
            prod = a * b
            yield f"page product {name}", prod
            sigma = permutation(ell)
            yield f"page label_action {sigma} {name}", confring.label_action(sigma, prod)
            yield f"d2n {name}", equieven.d2n(prod)


def graph_golden_text():
    return "{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps({'str': str(x), 'json': x.to_json()})}"
        for name, x in graph_golden_cases()) + "\n}\n"


def test_graph_algebra_matches_golden():
    assert graph_golden_text() == GRAPH_GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GRAPH_GOLDEN.write_text(graph_golden_text(), encoding="utf-8")
