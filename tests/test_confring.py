import hashlib
import random
from fractions import Fraction as Q

import pytest

from equiconf import confring, equiodd, oracles
from equiconf.errors import InputError


def test_square_vanishes():
    assert confring.normal_form(2, 3, [(1, 2), (1, 2)]).is_zero()
    assert confring.normal_form(2, 4, [(1, 2), (1, 2)]).is_zero()


def test_generator_symmetry_follows_parity():
    # x_ji = (-1)^n x_ij
    assert confring.normal_form(2, 4, [(2, 1)]) == confring.generator(2, 4, 1, 2)
    assert confring.normal_form(2, 3, [(2, 1)]) == -confring.generator(2, 3, 1, 2)


def test_normal_form_repeated_maximum_matches_oracle():
    # frozen from the ideal-span oracle: x13*x23 -> x12*x23 - x12*x13  (k=3, n=3)
    got = confring.normal_form(3, 3, [(1, 3), (2, 3)])
    expected = (confring.normal_form(3, 3, [(1, 2), (2, 3)])
                - confring.normal_form(3, 3, [(1, 2), (1, 3)]))
    assert got == expected
    assert got == oracles.oracle_element(3, 3, [(1, 3), (2, 3)])


def test_normal_form_is_idempotent():
    rng = random.Random(2)
    for _ in range(30):
        k = rng.randint(2, 5)
        n = rng.randint(2, 5)
        word = [(rng.randint(1, k), rng.randint(1, k)) for _ in range(rng.randint(1, 4))]
        word = [(i, j) for i, j in word if i != j]
        if not word:
            continue
        a = confring.normal_form(k, n, word)
        renorm = confring.zero(k, n)
        for edges, c in a.terms.items():
            renorm = renorm + confring.normal_form(k, n, list(edges), c)
        assert renorm == a


def test_index_out_of_range():
    with pytest.raises(InputError):
        confring.normal_form(3, 3, [(1, 4)])
    with pytest.raises(InputError):
        confring.normal_form(3, 3, [(2, 2)])
    # the refusals of normal_form: a bad generator, then a bad coefficient,
    # then an index that is no int, also at coefficient 0
    for word, coeff, message in (
            ([(2, 2)], 1, "generator index out of range: (2, 2) with 3 points"),
            ([(1.0, 2), (0, 1)], 1, "generator index out of range: (0, 1) with 3 points"),
            ([(1, 2), (1, 4)], 0, "generator index out of range: (1, 4) with 3 points"),
            ([(1.0, 2)], 1.5, "not a rational: 1.5"),
            ([(2, 1), (1.0, 3)], 1, "edge (1.0, 3) is not (i, j) with 1 <= i < j <= 3"),
            ([(True, 2)], 0, "edge (True, 2) is not (i, j) with 1 <= i < j <= 3")):
        with pytest.raises(InputError) as exc:
            confring.normal_form(3, 3, word, coeff)
        assert str(exc.value) == message
    assert confring.normal_form(3, 3, [(1, 3), (2, 3)], 0).is_zero()
    assert confring.normal_form(3, 3, [(3, 1)], "0").terms == {}
    # reduce_word takes canonical edges, (i, j) with 1 <= i < j <= points
    for word in ([(2, 1)], [(1, 4)], [(0, 2)], [(2, 2)], [(1, 2), (3,)]):
        with pytest.raises(InputError, match="is not"):
            confring.reduce_word(3, 3, word)


def test_basis_small_cases():
    assert confring.basis_keys(2, 3, 2) == [((1, 2),)]
    assert confring.basis_keys(3, 3, 4) == [((1, 2), (1, 3)), ((1, 2), (2, 3))]
    assert confring.basis_keys(3, 3, 3) == []
    assert confring.basis_keys(1, 4, 0) == [()]
    assert confring.basis_keys(1, 4, 3) == []


def test_poincare_polynomials():
    for poincare in (confring.poincare_formula, oracles.poincare_polynomial):
        assert str(poincare(2, 5)) == "1 + t^4"
        assert str(poincare(3, 3)) == "1 + 3*t^2 + 2*t^4"
        assert str(poincare(4, 2)) == "1 + 6*t + 11*t^2 + 6*t^3"


def test_edge_word_counts_match_the_basis():
    for k in range(8):
        counts = confring.edge_word_counts(k)
        assert len(counts) == max(k, 1)
        for n in (2, 3, 4):
            assert counts == [len(confring.basis_keys(k, n, m * (n - 1)))
                              for m in range(len(counts))]
            assert confring.basis_keys(k, n, len(counts) * (n - 1)) == []


def test_poincare_matches_product_formula():
    for k in range(2, 7):
        for n in range(2, 6):
            assert oracles.poincare_polynomial(k, n) == confring.poincare_formula(k, n)


def test_dimensions_match_ideal_span_oracle():
    for k in range(2, 5):
        for n in range(2, 6):
            for d in range(confring.top_degree(k, n) + 2):
                assert confring.dimension(k, n, d) == oracles.quotient_dimension(k, n, d)


def test_product_unit_and_commutativity():
    one = confring.unit(3, 4)
    x12 = confring.generator(3, 4, 1, 2)
    x13 = confring.generator(3, 4, 1, 3)
    assert one * x12 == x12
    # odd-degree generators anticommute (n even)
    assert x12 * x13 == -(x13 * x12)
    y12 = confring.generator(3, 3, 1, 2)
    y13 = confring.generator(3, 3, 1, 3)
    assert y12 * y13 == y13 * y12


def test_product_ring_mismatch():
    with pytest.raises(InputError):
        confring.generator(3, 4, 1, 2) * confring.generator(3, 3, 1, 2)
    with pytest.raises(InputError):
        confring.generator(3, 4, 1, 2) * confring.generator(4, 4, 1, 2)


def test_graded_commutativity_randomized():
    rng = random.Random(9)
    for _ in range(25):
        k = rng.randint(2, 5)
        n = rng.randint(2, 5)
        da = rng.randint(1, 2)
        db = rng.randint(1, 2)

        def rand_elem(length):
            word = []
            for _ in range(length):
                i, j = rng.sample(range(1, k + 1), 2)
                word.append((i, j))
            return confring.normal_form(k, n, word, rng.randint(1, 3))

        a, b = rand_elem(da), rand_elem(db)
        sign = (-1) ** (da * db * (n - 1) * (n - 1))
        assert a * b == (b * a).scale(sign)


def test_arnold_relation_vanishes_all_triples():
    for k in range(3, 6):
        for n in (3, 4):
            for a in range(1, k + 1):
                for b in range(1, k + 1):
                    for c in range(1, k + 1):
                        if len({a, b, c}) == 3:
                            assert confring.arnold_relation(k, n, a, b, c).is_zero()


def test_confluence_random_rewrite_order():
    rng = random.Random(31)
    for k in range(3, 6):
        for n in (3, 4):
            for _ in range(25):
                word = []
                for _ in range(rng.randint(2, 4)):
                    i, j = rng.sample(range(1, k + 1), 2)
                    word.append((i, j))
                canonical = [confring.normalize_generator(k, i, j, n)[0] for i, j in word]
                reference = confring.reduce_word(k, n, canonical)
                shuffled = confring.reduce_word(k, n, canonical, rng=rng)
                assert reference == shuffled


def test_word_counts_keep_their_redex_order():
    # one loop reduces both calculi: over seeded conf words (n = 2..5) and
    # graph words with a repeated edge (the pair rule), the results, their
    # insertion order and the rng stream after each seeded call hash to the
    # digest taken when the two calculi had a rewrite loop each
    rng = random.Random(30)
    digest = hashlib.sha256()

    def feed(counts):
        digest.update(repr(list(counts.items())).encode())

    shapes = [(k, n, False) for n in (2, 3, 4, 5) for k in (4, 6, 8)]
    shapes += [(ell, 2 * n + 1, True) for n in (1, 2) for ell in (3, 4, 6)]
    for k, n, pair in shapes:
        pool = [(i, j) for j in range(2, k + 1) for i in range(1, j)]
        for length in range(2, 7):
            word = [rng.choice(pool) for _ in range(length - pair)]
            if pair:
                word.append(rng.choice(word))
            feed(confring.word_counts(k, n, word, pair=pair))
            for _ in range(2):
                feed(confring.word_counts(k, n, word, rng, pair))
                digest.update(repr(rng.getstate()).encode())
    assert digest.hexdigest() == \
        "8eb7a3bc5cf2006241e0407bac672a1e4449a4c238f9344f397a61006c769f5b"


def test_reduce_word_matches_the_ideal_span_oracle():
    # `reduce_word` scales the integer `word_counts`; with any redex order
    # and coefficient it must equal the oracle's normal form times the
    # coefficient, with Fraction values, and nothing for a zero coefficient
    rng = random.Random(41)
    seen = set()
    for _ in range(150):
        k, n = rng.randint(2, 5), rng.randint(2, 5)
        # the dense oracle grows steeply with the word length at k = 5
        length = rng.randint(0, 4 if k < 5 else 2)
        word = [tuple(rng.sample(range(1, k + 1), 2)) for _ in range(length)]
        canonical, sign = [], 1
        for i, j in word:
            edge, s = confring.normalize_generator(k, i, j, n)
            canonical.append(edge)
            sign *= s
        counts = confring.word_counts(k, n, canonical)
        assert all(type(c) is int and c for c in counts.values())
        assert confring.word_counts(k, n, canonical, rng=rng) == counts
        want = oracles.reduce_word(k, n, word)
        for coeff in (Q(0), Q(1), Q(-1), Q(3, 5)):
            redex = rng if rng.random() < 0.5 else None
            got = confring.reduce_word(k, n, canonical, coeff * sign, redex)
            assert got == {e: coeff * c for e, c in want.items() if coeff}
            assert all(type(c) is Q for c in got.values())
            if not coeff:
                assert got == {}
        seen.add(len(want))
    assert {0, 1, 2} <= seen


def test_label_action_parity():
    # x_12 -> x_21 = (-1)^n x_12 under the transposition
    swap = (2, 1)
    assert confring.label_action(swap, confring.generator(2, 4, 1, 2)) == \
        confring.generator(2, 4, 1, 2)
    assert confring.label_action(swap, confring.generator(2, 3, 1, 2)) == \
        -confring.generator(2, 3, 1, 2)


def test_label_action_identity_and_composition():
    rng = random.Random(17)
    for _ in range(15):
        k = rng.randint(2, 5)
        n = rng.randint(2, 5)
        word = []
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(1, k + 1), 2)
            word.append((i, j))
        a = confring.normal_form(k, n, word)
        ident = tuple(range(1, k + 1))
        assert confring.label_action(ident, a) == a
        sigma = list(range(1, k + 1))
        rng.shuffle(sigma)
        tau = list(range(1, k + 1))
        rng.shuffle(tau)
        composed = tuple(sigma[t - 1] for t in tau)
        assert confring.label_action(composed, a) == \
            confring.label_action(tuple(sigma), confring.label_action(tuple(tau), a))


def test_label_action_is_ring_map():
    rng = random.Random(23)
    for _ in range(15):
        k = rng.randint(3, 5)
        n = rng.randint(2, 4)

        def rand_elem():
            i, j = rng.sample(range(1, k + 1), 2)
            u, v = rng.sample(range(1, k + 1), 2)
            return confring.normal_form(k, n, [(i, j), (u, v)], rng.randint(1, 2))

        a, b = rand_elem(), rand_elem()
        sigma = list(range(1, k + 1))
        rng.shuffle(sigma)
        sigma = tuple(sigma)
        assert confring.label_action(sigma, a * b) == \
            confring.label_action(sigma, a) * confring.label_action(sigma, b)


def test_label_action_rejects_non_bijections():
    with pytest.raises(InputError):
        confring.label_action((1, 1), confring.generator(2, 3, 1, 2))


def test_json_round_trip():
    a = confring.normal_form(3, 3, [(1, 3), (2, 3)], Q(3, 2))
    assert confring.ConfElement.from_json(a.to_json()) == a
    assert confring.ConfElement.from_json(confring.zero(2, 3).to_json()).is_zero()


def test_degenerate_point_counts():
    assert confring.dimension(0, 3, 0) == 1
    assert confring.dimension(1, 3, 0) == 1
    for k in (0, 1):
        assert str(confring.poincare_formula(k, 3)) == "1"
        assert str(oracles.poincare_polynomial(k, 3)) == "1"


@pytest.mark.parametrize("factor", [2, -3])
def test_products_apply_any_multiplicity(factor):
    # the rewrite loops return multiplicities +-1 on every product of basis
    # words tried, so only scaled `counts` reach `_reduce`'s general branch:
    # each product is then exactly `factor` times the ordinary one
    def scaled(cls):
        class Scaled(cls):
            def counts(self, word, rng=None):
                return {g: factor * m for g, m in super().counts(word, rng).items()}
        return lambda a: Scaled(*a.header, a.terms)

    lift = scaled(confring.ConfElement)
    for n in (2, 3):
        x = lambda i, j: confring.generator(4, n, i, j)  # noqa: E731
        a = x(1, 3).scale(Q(2, 3)) + x(2, 4) - x(1, 2).scale(5)
        b = x(2, 3) - x(1, 4).scale(Q(-7, 2)) + x(3, 4)
        ordinary = a * b
        assert ordinary.terms and (lift(a) * lift(b)).terms == \
            {w: factor * c for w, c in ordinary.terms.items()}
    # polynomial coefficients, with a double edge traded for p_n
    q1 = equiodd.qring(2).gen("q1")
    y = lambda i, j: equiodd.generator(4, 2, i, j)  # noqa: E731
    a = y(1, 3).scale_poly(q1) + y(1, 2).scale(Q(2, 3)) - y(2, 4)
    b = y(2, 3) + y(1, 3).scale(3) - y(1, 2).scale_poly(q1 * q1)
    ordinary, lift = a * b, scaled(equiodd.EquiElement)
    assert ordinary.terms and (lift(a) * lift(b)).terms == \
        {w: c.scale(factor) for w, c in ordinary.terms.items()}
