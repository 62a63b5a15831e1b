import hashlib
import json
import math
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from equiconf import confring, equieven as ev, equiodd, exactalg, oracles
from equiconf.charclasses import BASIS_BOUND, MODEL_BOUND, GroupSpec
from equiconf.cli import main
from equiconf.errors import CapacityError, InputError
from equiconf.exactalg import Matrix, col_space
from equiconf.oracles import from_columns


def test_d_of_generator_is_euler_image():
    x = ev.x_generator("so", 2, 2, 1, 2)
    assert ev.d2n(x) == ev.unit("so", 2, 2).scale_poly(ev.euler_image("so", 2))
    xu = ev.x_generator("u", 2, 2, 1, 2)
    assert ev.d2n(xu) == ev.unit("u", 2, 2).scale_poly(ev.euler_image("u", 2))


def test_d_leibniz_example():
    x12 = ev.x_generator("so", 3, 2, 1, 2)
    x13 = ev.x_generator("so", 3, 2, 1, 3)
    e = ev.euler_image("so", 2)
    expected = x13.scale_poly(e) - x12.scale_poly(e)
    assert ev.d2n(x12 * x13) == expected


def test_d_squared_zero_on_bases():
    for group in ("torus", "so", "u"):
        for ell in (2, 3, 4):
            for degree in range(0, 10):
                for key in ev.page_basis(group, ell, 2, degree):
                    elem = ev.zero(group, ell, 2).from_coordinates([key], [Q(1)])
                    assert ev.d2n(ev.d2n(elem)).is_zero()


def test_d_leibniz_randomized():
    rng = random.Random(8)
    for _ in range(15):
        ell = rng.randint(2, 4)
        group = rng.choice(("torus", "so", "u"))

        def rand_elem(edges_count):
            out = ev.unit(group, ell, 2)
            for _ in range(edges_count):
                i, j = rng.sample(range(1, ell + 1), 2)
                out = out * ev.x_generator(group, ell, 2, i, j)
            if out.is_zero():
                return out
            ring = ev.page_ring(group, 2)
            return out.scale_poly(ring.gen(ring.names[rng.randrange(len(ring.names))]))

        da = rng.randint(1, 2)
        a, b = rand_elem(da), rand_elem(rng.randint(1, 2))
        sign = -1 if (da * (2 * 2 - 1)) % 2 == 1 else 1
        lhs = ev.d2n(a * b)
        rhs = ev.d2n(a) * b + (a * ev.d2n(b)).scale(sign)
        assert lhs == rhs


def test_kernel_examples():
    assert ev.kernel_K(2, 2, 8).dims == {0: 1}
    summary = ev.kernel_K(3, 2, 8)
    assert summary.dims == {0: 1, 3: 2}
    # frozen: the echelonized kernel basis in degree 3
    assert [str(b) for b in summary.basis[3]] == ["x12 - x23", "x13 - x23"]
    # same span as the alternative representatives {x12 - x13, x13 - x23}
    keys = confring.basis_keys(3, 4, 3)
    index = {key: t for t, key in enumerate(keys)}
    span = Matrix([oracles.coordinates(b, index) for b in summary.basis[3]], ncols=len(keys))
    alt = Matrix([
        oracles.coordinates(confring.generator(3, 4, 1, 2) - confring.generator(3, 4, 1, 3),
                            index),
        oracles.coordinates(confring.generator(3, 4, 1, 3) - confring.generator(3, 4, 2, 3),
                            index)],
        ncols=len(keys))
    assert col_space(list(span.rows), dim=span.ncols) == col_space(list(alt.rows), dim=alt.ncols)
    assert ev.kernel_K(1, 2, 8).dims == {0: 1}


def test_kernel_closed_under_product():
    summary = ev.kernel_K(4, 2, 9)
    elems = [b for d in sorted(summary.basis) for b in summary.basis[d]]
    for a in elems:
        for b in elems:
            prod = a * b
            if prod.is_zero():
                continue
            page = ev.PageElement("so", 4, 2,
                                  {e: ev.page_ring("so", 2).const(c)
                                   for e, c in prod.terms.items()})
            assert ev.d2n(page).is_zero()


def test_so4_and_o4_models_on_two_points():
    m = ev.equivariant_cohomology_even("so", 2, 2, 16)
    assert m.dims == {d: 1 for d in range(0, 17, 4)}
    mo = ev.equivariant_cohomology_even("o", 2, 2, 16)
    assert mo.dims == m.dims


def test_u2_model_on_two_points():
    mu = ev.equivariant_cohomology_even("u", 2, 2, 8)
    assert mu.dims == {0: 1, 2: 1, 4: 1, 6: 1, 8: 1}


def test_so4_model_three_points_degree3():
    m = ev.equivariant_cohomology_even("so", 3, 2, 3)
    assert m.dims.get(3, 0) == 2


def test_verify_page_cohomology_matches_models():
    for group in ("so", "o", "u"):
        for ell in (1, 2, 3, 4):
            report = ev.verify_page_cohomology(group, ell, 2, 12)
            assert report.passed, (group, ell, report.rows)


def test_verify_page_cohomology_five_points():
    for group in ("so", "o", "u"):
        assert ev.verify_page_cohomology(group, 5, 2, 12).passed


def test_model_count_matches_the_built_model():
    # the dims verify_page_cohomology counts are the dims of the model
    # equivariant_cohomology_even builds, within the page-model cap
    for group in ("so", "o", "u"):
        for ell in range(7):
            for n in (1, 2, 3):
                for top in range(13):
                    assert ev.model_dims(group, ell, n, top) == \
                        ev.equivariant_cohomology_even(group, ell, n, top).dims


def _exact_kernel_counts(ell):
    """K_0 = 1 and K_m = e_m - K_(m-1): the word-length dims of K when the
    edge-removal derivation is exact."""
    kernel = [1]
    for e in confring.edge_word_counts(ell)[1:]:
        kernel.append(e - kernel[-1])
    return kernel


def test_kernel_dims_follow_exactness_at_every_word_length():
    # h(a) = x_12 a contracts the edge-removal derivation, so ker = im in
    # every word length, up to the top one; K_m also counts the admissible
    # words with no edge ending at point 2, prod_(j=2)^(ell-1) (1 + j t)
    for ell in range(2, 7):
        kernel = _exact_kernel_counts(ell)
        expected = [1] + [0] * (ell - 1)
        for j in range(2, ell):
            for m in range(j - 1, 0, -1):
                expected[m] += j * expected[m - 1]
        assert kernel == expected, ell
        for n in (1, 2, 3):
            fiber = 2 * n - 1
            assert ev.kernel_K(ell, n, fiber * (ell - 1)).dims == \
                {fiber * m: k for m, k in enumerate(kernel) if k}, (ell, n)


def test_page_cohomology_is_the_kernel_times_the_ring_mod_e():
    # E is a non-zero-divisor of degree 2n and ker = im in the configuration
    # column, so H(page, d_2n) = K (x) R/(E), degree by degree
    top = 10
    for group in ("torus", "so", "u"):
        for n in (1, 2, 3):
            ring = ev.page_ring(group, n).monomial_counts(top)
            rbar = [ring[d] - (ring[d - 2 * n] if d >= 2 * n else 0) for d in range(top + 1)]
            fiber = 2 * n - 1
            for ell in range(2, 6):
                kernel = _exact_kernel_counts(ell)
                expected = {d: sum(k * rbar[d - fiber * m] for m, k in enumerate(kernel)
                                   if fiber * m <= d) for d in range(top + 1)}
                assert ev.page_cohomology_dims(group, ell, n, top) == expected, \
                    (group, ell, n)


def test_model_dims_builds_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a basis or ranked a matrix")

    monkeypatch.setattr(confring, "basis_keys", refuse)
    monkeypatch.setattr(ev, "page_basis", refuse)
    monkeypatch.setattr(Matrix, "rank", refuse)
    table = [[group, ell, sorted(ev.model_dims(group, ell, 2, 12).items())]
             for group in ("so", "o", "u") for ell in range(9)]
    # the digest of the same table when each dim of K was the number of
    # columns minus the rank of a boundary matrix
    assert hashlib.sha256(json.dumps(table).encode()).hexdigest() == \
        "cfe083949e55271fd4722c20619faad0a26e844bd91936e4fdd278af6c3abf77"
    # the eliminations do reach the patched functions
    for call, args in ((ev.kernel_K, (3, 2, 3)), (ev.page_cohomology_dims, ("so", 3, 2, 3))):
        with pytest.raises(AssertionError, match="built a basis"):
            call(*args)


def test_verify_page_cohomology_counts_the_model(monkeypatch):
    # the check builds no page element and converts no rational; building
    # the model does both, which shows the counters count
    calls = {"rat": 0, "PageElement": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module in (exactalg, confring, ev):
        monkeypatch.setattr(module, "rat", counted("rat", module.rat))
    monkeypatch.setattr(ev.PageElement, "__init__",
                        counted("PageElement", ev.PageElement.__init__))
    for group in ("so", "o", "u"):
        for ell in (1, 3, 5):
            assert ev.verify_page_cohomology(group, ell, 2, 12).passed
    assert calls == {"rat": 0, "PageElement": 0}
    ev.equivariant_cohomology_even("so", 3, 2, 12)
    assert calls["rat"] and calls["PageElement"]


def test_d2n_builders_do_no_rewriting(monkeypatch):
    # the boundary of a basis word is read off it, with no normal form;
    # the rewriting oracle does call the counted function
    calls = []
    word_counts = confring.word_counts

    def counted(*args):
        calls.append(args)
        return word_counts(*args)

    monkeypatch.setattr(confring, "word_counts", counted)
    for ell in (1, 3, 5):
        ev.kernel_K(ell, 2, 12)
        for group in ("so", "o", "u"):
            assert ev.verify_page_cohomology(group, ell, 2, 12).passed
        for family in ("so_even", "o_even"):
            ev.fixed_page_cohomology_dims(family, ell, 2, 12)
    assert calls == []
    oracles.boundary_by_rewriting(3, 4, ((1, 2), (2, 3)))
    assert calls


def _outcome(call, *args):
    """The result of a call, or its refusal as (type name, message)."""
    try:
        return call(*args)
    except (InputError, CapacityError) as exc:
        return type(exc).__name__, str(exc)


def test_kernel_bases_keep_their_order_and_bytes():
    # every kernel element as printed, with its header and the order of its
    # terms, at every word length for l <= 6 and n <= 3, refusals included;
    # the digest was taken when each element was built and checked by
    # `from_coordinates`
    lines = []
    cases = [(ell, n, (2 * n - 1) * max(ell - 1, 0)) for ell in range(7) for n in (1, 2, 3)]
    for case in cases + [(-1, 2, 3), (3, 0, 3), (65, 2, 3), (9, 2, 15)]:
        summary = _outcome(ev.kernel_K, *case)
        if type(summary) is tuple:
            lines.append(f"{case} {summary}")
            continue
        for d, elems in sorted(summary.basis.items()):
            lines += [f"{case} {d} {e.header} {list(e.terms)} {e}" for e in elems]
    assert len(lines) == 1318
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "37650d936d4a2138cfec7f57ec2d364b3d705032c4cd8961efe0a6f63d650183"


def test_fixed_bases_check_their_header_once():
    # the elements are built unchecked, so the call checks the header once
    # when it builds any; a degree with no fixed element refuses nothing
    so_odd = GroupSpec("so_odd", 1)
    for call, args in ((ev.weyl_fixed_page_basis, ("so_even", 65, 1, 1)),
                       (equiodd.fixed_point_basis, (so_odd, 65, 0))):
        with pytest.raises(CapacityError, match="^65 points exceed the bound 64$"):
            call(*args)
    assert ev.weyl_fixed_page_basis("so_even", 65, 1, -1) == []
    assert equiodd.fixed_point_basis(so_odd, 65, 3) == []


def test_kernel_coefficients_are_exact_rationals():
    # the boundary matrices are eliminated as ints; each coefficient of K's
    # basis is exactly an int or a Fraction, never a float or a bool
    for ell in range(6):
        for n in (1, 2, 3):
            for elems in ev.kernel_K(ell, n, 12).basis.values():
                assert all(type(c) in (int, Q) for e in elems for c in e.terms.values())


# bad headers: an unknown group, n = 0, a negative point count, and past
# POINT_BOUND and MODEL_BOUND
REFUSED_PAGES = (("bogus", 3, 2, 5), ("so", 3, 0, 5), ("u", -1, 2, 5), ("o", 65, 1, 1),
                 ("so", 9, 2, 12))


def test_page_cohomology_matches_the_whole_page_elimination(monkeypatch):
    # E is a non-zero-divisor, so d_2n = boundary (x) E is ranked word length
    # by word length; the oracle ranks d_2n on the whole page in each degree
    cases = [(group, ell, n, top) for group in ("torus", "so", "o", "u")
             for ell in range(7) for n in (1, 2, 3) for top in (-1, 0, 4, 10)]
    cases += REFUSED_PAGES
    want = [_outcome(oracles.page_cohomology_by_elimination, *case) for case in cases]
    assert sum(type(w) is tuple for w in want) == len(REFUSED_PAGES)

    def refuse(*args):
        raise AssertionError("enumerated a page basis")

    monkeypatch.setattr(ev, "page_basis", refuse)
    assert [_outcome(ev.page_cohomology_dims, *case) for case in cases] == want


def test_page_bases_are_enumerated_once_per_degree(monkeypatch):
    calls = []
    basis = ev.page_basis

    def counted(group, ell, n, degree):
        calls.append(degree)
        return basis(group, ell, n, degree)

    monkeypatch.setattr(ev, "page_basis", counted)
    A = ev.as_filtered_complex("torus", 4, 2, 12, xi=2)
    assert sorted(calls) == list(range(13))
    # the complex is unchanged: d, filtration and phi hash as they did when
    # `differential_matrix` enumerated both of its bases itself
    text = json.dumps(A.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == \
        "26898b9e8c89340ab795a343379a787f847db06595b9a91dc914eeb6acfb933c"
    # the page and its Weyl-fixed part are counted in tensor form, words
    # times coefficient monomials or orbit rows, with no page basis, and the
    # fixed part has the dimensions of the SO/O models
    calls.clear()
    dims = ev.page_cohomology_dims("so", 4, 2, 12)
    assert calls == []
    assert [dims[d] for d in range(13)] == [1, 0, 0, 5, 1, 0, 6, 5, 1, 0, 6, 5, 1]
    for family, group in (("so_even", "so"), ("o_even", "o")):
        calls.clear()
        fixed = ev.fixed_page_cohomology_dims(family, 4, 2, 12)
        assert calls == []
        assert fixed == ev.page_cohomology_dims(group, 4, 2, 12)


def test_u_model_filtered_complex_golden():
    # the complex-coordinates collapse pattern: top Chern class kills the
    # configuration generator, leaving Q[c1] as the surviving page
    golden = ev.as_filtered_complex("u", 2, 2, 14, xi=Q(2))
    from equiconf import specseq as ss

    spec = ss.WeightSpec(Q(2), Q(1, 3), 3)
    assert all(ss.purity_check(golden, spec, at_page=p).ok for p in (1, 2, 3, 4))
    e4 = ss.page(golden, 4).total_degree_dims()
    assert [e4.get(n, 0) for n in range(13)] == \
        [1 if n % 2 == 0 else 0 for n in range(13)]


def test_model_embeds_as_subcomplex_with_zero_differential():
    for group in ("so", "o", "u"):
        model = ev.equivariant_cohomology_even(group, 3, 2, 9)
        for d, items in model.elements.items():
            for _, elem in items:
                assert ev.d2n(elem).is_zero()


def test_model_embedding_is_multiplicative():
    rng = random.Random(4)
    model = ev.equivariant_cohomology_even("so", 3, 2, 9)
    flat = [e for d in sorted(model.elements) for _, e in model.elements[d]]
    summary = ev.kernel_K(3, 2, 9)
    ring = ev.page_ring("so", 2)
    p1 = ring.gen("p1")
    for _ in range(10):
        a = rng.choice(flat)
        b = rng.choice(flat)
        # the product of embedded model elements is again coefficient x kernel
        prod = a * b
        assert ev.d2n(prod).is_zero()
    # coefficient-class times kernel-class products agree with page products
    k3 = summary.basis[3][0]
    emb = ev.PageElement("so", 3, 2,
                         {e: ring.const(c) for e, c in k3.terms.items()})
    assert (emb.scale_poly(p1)) * emb == (emb * emb).scale_poly(p1)


def test_torus_page_cohomology_is_quotient_by_euler():
    dims = ev.page_cohomology_dims("torus", 2, 2, 16)
    expected = {d: (1 if d == 0 else (2 if d % 2 == 0 else 0)) for d in range(17)}
    assert dims == expected


def test_torus_restriction_even():
    n = 2
    so = ev.unit("so", 2, n)
    ring = ev.page_ring("so", n)
    tring = ev.page_ring("torus", n)
    q1, q2 = tring.gens()
    e_res = ev.torus_restriction_even(so.scale_poly(ring.gen("e")))
    assert e_res == ev.unit("torus", 2, n).scale_poly(q1 * q2)
    p_res = ev.torus_restriction_even(so.scale_poly(ring.gen("p1")))
    assert p_res == ev.unit("torus", 2, n).scale_poly(q1 * q1 + q2 * q2)
    # restriction intertwines the differentials
    x = ev.x_generator("so", 2, n, 1, 2)
    assert ev.torus_restriction_even(ev.d2n(x)) == ev.d2n(ev.torus_restriction_even(x))


def test_torus_restriction_intertwines_on_bases():
    for ell in (2, 3):
        for degree in range(0, 8):
            for key in ev.page_basis("so", ell, 2, degree):
                elem = ev.zero("so", ell, 2).from_coordinates([key], [Q(1)])
                assert ev.torus_restriction_even(ev.d2n(elem)) == \
                    ev.d2n(ev.torus_restriction_even(elem))


def test_weyl_fixed_page_so4():
    # degree-4 fixed space of the torus page: q1^2 + q2^2 and q1*q2
    fixed = ev.weyl_fixed_page_basis("so_even", 2, 2, 4)
    assert [str(e) for e in fixed] == ["(q2^2 + q1^2)", "q1*q2"]
    # x itself is fixed
    fixed3 = ev.weyl_fixed_page_basis("so_even", 2, 2, 3)
    assert [str(e) for e in fixed3] == ["x12"]
    # O(4): x flips, so degree 3 is empty, and degree 7 is spanned by q1q2*x
    assert ev.weyl_fixed_page_basis("o_even", 2, 2, 3) == []
    fixed7 = ev.weyl_fixed_page_basis("o_even", 2, 2, 7)
    assert [str(e) for e in fixed7] == ["(q1*q2)*x12"]


def test_fixed_page_cohomology_matches_models():
    so_dims = ev.fixed_page_cohomology_dims("so_even", 2, 2, 16)
    o_dims = ev.fixed_page_cohomology_dims("o_even", 2, 2, 16)
    expected = {d: (1 if d % 4 == 0 else 0) for d in range(17)}
    assert so_dims == expected
    assert o_dims == expected


def test_kernel_even_part_equals_involution_fixed_space():
    # two computations of K^(C2): intersect with even word length, versus the
    # fixed space of the sign involution x_ij -> -x_ij acting on K degreewise
    summary = ev.kernel_K(4, 2, 9)
    even = ev.kernel_even_part(summary)
    fiber = 2 * 2 - 1
    for d, elems in summary.basis.items():
        flipped = [confring.ConfElement(
            4, 4, {e: c * ((-1) ** len(e)) for e, c in b.terms.items()})
            for b in elems]
        fixed_count = sum(1 for a, b in zip(elems, flipped) if a == b)
        assert fixed_count == even.dims.get(d, 0), d
        assert ((d // fiber) % 2 == 0) == (fixed_count == len(elems))


def test_even_page_low_rank_models():
    # n = 1: ambient R^2, coefficient rings Q[e] and Q[c1]
    assert ev.kernel_K(3, 1, 4).dims == {0: 1, 1: 2}
    for group in ("so", "o", "u"):
        assert ev.verify_page_cohomology(group, 3, 1, 6).passed


def test_even_page_rank_three_models():
    # n = 3: ambient R^6, x of degree 5, coefficients Q[p1, p2, e] / Q[c1..c3]
    for group in ("so", "o", "u"):
        assert ev.verify_page_cohomology(group, 2, 3, 14).passed
    assert ev.verify_page_cohomology("so", 3, 3, 12).passed


def test_o_parity_page_equals_involution_fixed_space():
    # even (e-exponent + word length) monomial count equals the dimension of
    # the fixed space of the involution x -> -x, e -> -e computed by averaging
    for ell in (2, 3):
        for degree in range(0, 10):
            basis = ev.page_basis("so", ell, 2, degree)
            fixed = 0
            for edges, exps in basis:
                ring = ev.page_ring("so", 2)
                e_exp = exps[ring.names.index("e")]
                if (e_exp + len(edges)) % 2 == 0:
                    fixed += 1
            assert fixed == ev.page_dimension("o", ell, 2, degree)


def test_graded_dimensions_match_the_page_bases():
    for ell in range(7):
        for n in (1, 2, 3):
            for group in ("torus", "so", "u"):
                counts = confring.graded_dimensions(ell, 2 * n - 1, ev.page_ring(group, n), 14)
                assert counts == [ev.page_dimension(group, ell, n, d) for d in range(15)], \
                    (group, ell, n)
                if group == "so":
                    # the "o" page is sized by the "so" page that holds it
                    assert all(ev.page_dimension("o", ell, n, d) <= counts[d]
                               for d in range(15))


# over MODEL_BOUND monomials in a degree, by the closed form: e_5(1..8) =
# 67284 and e_4(1..8) = 22449 configuration columns at 9 points, 10185 torus
# monomials in degree 29 at l=6, n=3, 1219752 in degree 30 at l=9, n=2
PAST_THE_MODEL_BOUND = (
    (ev.kernel_K, 9, 2, 15), (ev.kernel_K, 9, 2, 12),
    (ev.page_cohomology_dims, "so", 9, 2, 12), (ev.model_dims, "so", 9, 2, 12),
    (ev.model_dims, "u", 1, 64, 70), (ev.verify_page_cohomology, "o", 9, 2, 12),
    (ev.equivariant_cohomology_even, "u", 9, 2, 12),
    (ev.as_filtered_complex, "torus", 6, 3, 30), (ev.as_filtered_complex, "torus", 9, 2, 30),
    (ev.as_filtered_complex, "torus", 2, 64, 64),
    (ev.fixed_page_cohomology_dims, "so_even", 6, 3, 30),
    (ev.weyl_fixed_page_basis, "so_even", 2, 5, 60),
)


def test_capacity_errors():
    # the bound replaced a shape cap, ell <= 6 and n <= 3, that sized nothing
    for call, *args in PAST_THE_MODEL_BOUND:
        with pytest.raises(CapacityError, match=f"more than the bound {MODEL_BOUND}$"):
            call(*args)
    with pytest.raises(CapacityError, match=f"more than the bound {BASIS_BOUND}$"):
        equiodd.torus_basis(3, 64, 40)


def test_entry_points_refuse_before_enumerating(monkeypatch):
    def enumerated(*args):
        raise AssertionError("enumerated before the size check")

    monkeypatch.setattr(ev, "page_basis", enumerated)
    monkeypatch.setattr(confring, "basis_keys", enumerated)
    for call, *args in PAST_THE_MODEL_BOUND:
        with pytest.raises(CapacityError):
            call(*args)
    with pytest.raises(CapacityError):
        equiodd.torus_basis(3, 64, 40)
    # `equi hilbert` builds its top degree first, the largest even one
    assert main(["equi", "hilbert", "--points", "3", "--halfdim", "64",
                 "--max-degree", "30"]) == 2
    with pytest.raises(AssertionError):
        ev.kernel_K(3, 2, 3)
    with pytest.raises(AssertionError):
        ev.as_filtered_complex("so", 2, 2, 2)


def test_models_past_the_old_cap_are_admitted():
    assert ev.verify_page_cohomology("so", 7, 2, 12).passed
    # l=8: at most 8064 page monomials (torus; 6773 so, 7417 u) and 6769
    # configuration columns in a degree up to 13
    for group in ("torus", "so", "o", "u", None):
        ev.check_capacity(group, 8, 2, range(14))
    # max dim 231: edges and the Euler class have degree 127 and 128, so degree
    # 64 holds the 231 partitions of 16 into the p_u, of degree 4u
    A = ev.as_filtered_complex("so", 2, 64, 64)
    assert max(A.spaces.values()) == 231


def test_page_element_json_round_trip():
    x12 = ev.x_generator("so", 3, 2, 1, 2)
    x13 = ev.x_generator("so", 3, 2, 1, 3)
    elem = (x12 * x13).scale_poly(ev.page_ring("so", 2).gen("p1"))
    again = ev.PageElement.from_json(elem.to_json())
    assert again == elem


MODELS_GOLDEN = Path(__file__).parent / "golden" / "equivariant_models.txt"


def model_lines():
    """One line per model element: group, l, n, degree, label and element."""
    lines = []
    for group in ("so", "o", "u"):
        for ell in (2, 3, 4):
            for n in (1, 2, 3):
                model = ev.equivariant_cohomology_even(group, ell, n, 10)
                for d, items in sorted(model.elements.items()):
                    lines += [f"{group} l={ell} n={n} d={d}: {label} = {elem}"
                              for label, elem in items]
    return "\n".join(lines) + "\n"


def test_model_elements_match_golden():
    # the labels and elements the verify suites read, for so/o/u at l = 2-4,
    # n = 1-3 and every degree up to 10
    assert model_lines() == MODELS_GOLDEN.read_text()


def test_differential_matrix_matches_the_element_oracle():
    # the integer monomial columns against d2n on page elements, for every
    # group, l <= 5, n <= 3 and degree <= 12
    nonzero = set()
    for group in ("torus", "so", "o", "u"):
        for ell in range(6):
            for n in (1, 2, 3):
                bases = [ev.page_basis(group, ell, n, d) for d in range(14)]
                for d in range(13):
                    got = ev.differential_matrix(group, ell, n, d, bases[d], bases[d + 1])
                    assert got == oracles.differential_matrix_by_elements(
                        group, ell, n, d, bases[d], bases[d + 1])
                    assert all(type(x) is int for c in got.sparse_columns for x in c.values())
                    if not got.is_zero():
                        nonzero.add(group)
    assert nonzero == {"torus", "so", "o", "u"}


def test_boundary_matches_the_rewriting_oracle():
    # every admissible word for l <= 6, n <= 3: removing an edge from a
    # basis word leaves a basis word, so no sub-word needs rewriting
    words = 0
    for ell in range(7):
        for n in (1, 2, 3):
            fiber = 2 * n - 1
            for m in range(max(ell, 1)):
                for key in confring.basis_keys(ell, 2 * n, fiber * m):
                    assert ev.boundary(key) == oracles.boundary_by_rewriting(ell, 2 * n, key)
                    words += 1
    assert words == 3 * sum(math.factorial(ell) for ell in range(7))


def fixed_page_dims_by_elements(family, ell, n, max_degree, convention):
    """H(W-fixed torus page, d_2n) by d2n on the fixed page elements."""
    fixed = [ev.weyl_fixed_page_basis(family, ell, n, d, convention)
             for d in range(max_degree + 1)]
    ranks = [0]
    for d, elems in enumerate(fixed):
        index = {key: t for t, key in enumerate(ev.page_basis("torus", ell, n, d + 1))}
        cols = [oracles.coordinates(ev.d2n(e), index) for e in elems]
        ranks.append(from_columns(cols, nrows=len(index)).rank() if cols else 0)
    return {d: len(fixed[d]) - ranks[d + 1] - ranks[d] for d in range(max_degree + 1)}


def test_fixed_page_cohomology_matches_the_element_route():
    # up to word length 4 at n = 1 and 2, and 3 at n = 3 (fiber degree 2n - 1)
    for family in ("so_even", "o_even"):
        for convention in ("standard", "paper"):
            for ell in range(6):
                for n, top in ((1, 8), (2, 12), (3, 16)):
                    assert ev.fixed_page_cohomology_dims(family, ell, n, top, convention) == \
                        fixed_page_dims_by_elements(family, ell, n, top, convention)
