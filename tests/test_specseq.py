import hashlib
import json
import random
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from equiconf import equieven, exactalg, oracles
from equiconf import specseq as ss
from equiconf import verify
from equiconf.cli import main
from equiconf.errors import InputError, PurityViolation, WitnessError
from equiconf.exactalg import Matrix, col_space
from equiconf.oracles import from_columns


def two_term(levels_e, levels_f):
    """A^0 = Q e -> A^1 = Q f with the given filtration levels."""
    top = max(levels_e, levels_f) + 1
    filt = {
        0: [Matrix.identity(1) if i >= levels_e else col_space([], dim=1)
            for i in range(top + 1)],
        1: [Matrix.identity(1) if i >= levels_f else col_space([], dim=1)
            for i in range(top + 1)],
    }
    return ss.FilteredComplex({0: 1, 1: 1}, {0: Matrix([[1]])}, filt)


def test_validation_rejects_bad_data():
    with pytest.raises(InputError):
        # d does not preserve the filtration: level(e) = 0 but level(f) = 1
        bad = two_term(0, 1)
    ok = two_term(1, 0)
    assert ok.validate()
    with pytest.raises(InputError):
        ss.FilteredComplex({0: 1, 1: 1},
                           {0: Matrix([[1]]), 1: Matrix([[1]])},
                           {0: [Matrix.identity(1)], 1: [Matrix.identity(1)]})


E1, E2 = [1, 0], [0, 1]
ID1, ID2 = Matrix.identity(1), Matrix.identity(2)
SWAP = Matrix([[0, 1], [1, 0]])


def span(*cols, dim=2):
    return col_space(list(cols), dim=dim)


# one malformed complex per `FilteredComplex.validate` message, plus complexes
# with two defects, where the message of the check that runs first must win
MALFORMED = [
    ("shape", ({0: 1, 1: 1}, {0: Matrix([[1, 0]])}, {0: [ID1], 1: [ID1]}, None),
     "differential shape mismatch at degree 0"),
    ("d_squared", ({0: 1, 1: 1, 2: 1}, {0: ID1, 1: ID1}, {0: [ID1], 1: [ID1], 2: [ID1]},
                   None),
     "d o d != 0 at degree 0"),
    ("missing", ({0: 1}, {}, {}, None), "missing filtration at degree 0"),
    ("nested", ({0: 2}, {}, {0: [span(E1), span(E2), ID2]}, None),
     "filtration not nested at degree 0"),
    ("exhaustive", ({0: 2}, {}, {0: [span(), span(E1)]}, None),
     "filtration not exhaustive at degree 0"),
    ("d_preserves", ({0: 1, 1: 1}, {0: ID1},
                     {0: [span(dim=1), ID1, ID1], 1: [span(dim=1), span(dim=1), ID1]}, None),
     "differential does not preserve W_1 at degree 0"),
    ("aut_shape", ({0: 1}, {}, {0: [ID1]}, {0: Matrix([[1, 0]])}),
     "automorphism shape mismatch at degree 0"),
    ("aut_invertible", ({0: 1}, {}, {0: [ID1]}, {0: Matrix([[0]])}),
     "automorphism not invertible at degree 0"),
    ("aut_commutes", ({0: 1, 1: 1}, {0: ID1}, {0: [ID1], 1: [ID1]},
                      {0: Matrix([[2]]), 1: Matrix([[3]])}),
     "automorphism does not commute with d at 0"),
    ("aut_preserves", ({0: 2}, {}, {0: [span(), span(E1), ID2]}, {0: SWAP}),
     "automorphism does not preserve W_1 at degree 0"),
    ("nested_before_exhaustive", ({0: 2}, {}, {0: [span(E2), span(E1)]}, None),
     "filtration not nested at degree 0"),
    ("d_before_aut", ({0: 1, 1: 1}, {0: ID1}, {0: [ID1, ID1], 1: [span(dim=1), ID1]},
                      {0: Matrix([[0]]), 1: ID1}),
     "differential does not preserve W_0 at degree 0"),
]


@pytest.mark.parametrize("args,message", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_validate_messages(args, message):
    spaces, d, filtration, phi = args
    with pytest.raises(InputError) as info:
        ss.FilteredComplex(spaces, d, filtration, phi)
    assert str(info.value) == message


@pytest.mark.parametrize("dim", [2.5, Q(5, 2), -1, True, "1", None])
def test_constructor_refuses_bad_dimensions(dim):
    # the JSON reader's message, also for API callers: 2.5 was read as 2
    # and -1 was refused as a filtration level shape mismatch
    for build in (lambda: ss.canonical_filtration({0: dim}, {}),
                  lambda: ss.FilteredComplex({0: dim}, {}, {0: [ID1]}, validate=False)):
        with pytest.raises(InputError) as info:
            build()
        assert str(info.value) == "dimension at degree 0 must be a non-negative integer"


@pytest.mark.parametrize("args,message", [case[1:] for case in MALFORMED
                                          if case[0] != "missing"],
                         ids=[case[0] for case in MALFORMED if case[0] != "missing"])
def test_malformed_complex_files_exit_2(args, message, capsys, tmp_path):
    # each case as a complex file (JSON cannot leave a degree's filtration
    # out: a file with none is refused before validation) through the CLI:
    # exit 2, the one-line message on stderr, nothing on stdout
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(ss.FilteredComplex(*args, validate=False).to_json()))
    for command in (["page", "--page", "1"], ["decalage"]):
        assert main(["ss", *command, "--input", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: malformed filtered complex: {message}\n")


def test_canonical_filtration_golden_cases():
    # zero differential: tau_i A^n = A^n for n <= i, else 0
    tau = ss.canonical_filtration({0: 1, 2: 1}, {})
    assert tau.W(0, 0).ncols == 1
    assert tau.W(2, 1).ncols == 0
    assert tau.W(2, 2).ncols == 1
    # acyclic complex: tau_0 A^0 = ker d = 0
    tau = ss.canonical_filtration({0: 1, 1: 1}, {0: Matrix([[1]])})
    assert tau.W(0, 0).ncols == 0
    assert tau.W(0, 1).ncols == 1


def test_W_off_the_ends_is_the_empty_or_full_span():
    A = ss.canonical_filtration({0: 2, 2: 1}, {})
    for n, dim in ((0, 2), (1, 0), (2, 1), (5, 0)):
        assert A.W(n, -1) == Matrix.zero(dim, 0)
        assert A.W(n, 9) == Matrix.identity(dim)
        assert A.W(n, 9) == A.W(n, 10)


def test_matrix_levels_are_canonicalized():
    A = ss.FilteredComplex({0: 2}, {}, {0: [Matrix([[1], [1]]), Matrix([[1, 0], [1, 1]])]})
    assert A.W(0, 0) == Matrix([[1], [1]])
    assert A.W(0, 1) == ID2
    # a level already in reduced column echelon form is kept as it is
    units = from_columns([{0: 1}, {2: 1}], nrows=3)
    assert ss.FilteredComplex({0: 3}, {}, {0: [units, Matrix.identity(3)]}).W(0, 0) is units
    with pytest.raises(InputError, match="^filtration level shape mismatch at degree 0$"):
        ss.FilteredComplex({0: 2}, {}, {0: [Matrix.identity(3)]}, validate=False)


def test_page_of_trivial_filtration():
    # single-jump filtration: E0 concentrated in one column, E1 = cohomology
    A = ss.FilteredComplex(
        {0: 1, 1: 1}, {0: Matrix([[1]])},
        {0: [Matrix.identity(1)], 1: [Matrix.identity(1)]})
    e0 = ss.page(A, 0)
    assert e0.dims() == {(0, 0): 1, (0, 1): 1}
    assert not ss.page(A, 1).dims()  # acyclic


def test_two_step_filtration_of_acyclic_complex():
    # W_0 = image line in degree 1: nonzero d1 and E2 = 0
    A = two_term(1, 0)
    e1 = ss.page(A, 1)
    assert e1.dims() == {(1, 0): 1, (0, 1): 1}
    d1 = e1.differentials[1, 0]
    assert d1.nrows == 1 and d1.ncols == 1 and not d1.is_zero()
    assert not ss.page(A, 2).dims()


def test_pair_dies_exactly_at_its_level_drop():
    A = two_term(3, 1)
    for r in range(0, 3):
        assert sum(ss.page(A, r).dims().values()) == 2
    assert not ss.page(A, 3).dims()


def test_page_dimension_recursion_and_stabilization():
    rng = random.Random(6)
    for _ in range(20):
        A = verify.random_filtered_complex(rng)
        for r in (0, 1, 2):
            pg = ss.page(A, r)
            nxt = ss.page(A, r + 1)
            assert ss.page_cohomology_dims(pg) == nxt.dims()
            for key, mat in pg.differentials.items():
                i, n = key
                nxt_mat = pg.differentials.get((i - pg.r, n + 1))
                if nxt_mat is not None:
                    assert (nxt_mat * mat).is_zero()
        top = A.top_level
        assert ss.page(A, top + 1).dims() == ss.page(A, top + 2).dims()


def test_decalage_zero_differential_is_shift():
    rng = random.Random(9)
    A = verify.random_filtered_complex(rng)
    zero_d = ss.FilteredComplex(A.spaces, {}, A.filtration)
    D = ss.decalage(zero_d)
    for n in zero_d.degrees():
        for i in range(D.top_level + 1):
            assert D.W(n, i) == zero_d.W(n, i - n)


def test_decalage_page_shift_randomized():
    rng = random.Random(14)
    for _ in range(15):
        A = verify.random_filtered_complex(rng, strict=True)
        D = ss.decalage(A)
        D.validate()
        e0d, e1a = ss.page(D, 0), ss.page(A, 1)
        keys = set(e0d.dims()) | {(i + n, n) for (i, n) in e1a.dims()}
        for (i, n) in keys:
            assert e0d.dim(i, n) == e1a.dim(i - n, n)
    for _ in range(15):
        A = verify.random_filtered_complex(rng)
        D = ss.decalage(A)
        e1d, e2a = ss.page(D, 1), ss.page(A, 2)
        keys = set(e1d.dims()) | {(i + n, n) for (i, n) in e2a.dims()}
        for (i, n) in keys:
            assert e1d.dim(i, n) == e2a.dim(i - n, n)


def test_double_decalage_shifts_pages_by_two():
    rng = random.Random(27)
    for _ in range(10):
        A = verify.random_filtered_complex(rng)
        DD = ss.decalage(ss.decalage(A))
        e1dd, e3a = ss.page(DD, 1), ss.page(A, 3)
        keys = set(e1dd.dims()) | {(i + 2 * n, n) for (i, n) in e3a.dims()}
        for (i, n) in keys:
            assert e1dd.dim(i, n) == e3a.dim(i - 2 * n, n)


def test_decalage_same_level_pair_is_only_quasi_iso():
    A = two_term(1, 1)
    D = ss.decalage(A)
    assert sum(ss.page(D, 0).dims().values()) == 2
    assert not ss.page(A, 1).dims()
    assert not ss.page_cohomology_dims(ss.page(D, 0))


def test_weight_spec_validation():
    with pytest.raises(InputError):
        ss.WeightSpec(Q(1), Q(1), 0)
    with pytest.raises(InputError):
        ss.WeightSpec(Q(-1), Q(1), 0)
    with pytest.raises(InputError):
        ss.WeightSpec(Q(4), Q(0), 0)
    spec = ss.WeightSpec(Q(4), Q(1, 3), 3)
    assert spec.weight(3, 1) == Q(2)  # alpha*(i + n r) = (3 + 3)/3


def test_purity_certificate_single_point():
    A = ss.canonical_filtration({0: 1}, {}, {0: Matrix([[1]])})
    result = ss.purity_check(A, ss.WeightSpec(Q(4), Q(1), 0))
    assert result.ok
    assert result.records == (((0, 0), Q(0), 1),)


def test_purity_two_degrees_diagonal():
    xi = Q(4)
    A = ss.canonical_filtration(
        {0: 1, 2: 1}, {}, {0: Matrix([[1]]), 2: Matrix([[xi * xi]])})
    assert ss.purity_check(A, ss.WeightSpec(xi, Q(1), 0)).ok
    # spoiled: phi = 2 xi^2 on H^2
    B = ss.canonical_filtration(
        {0: 1, 2: 1}, {}, {0: Matrix([[1]]), 2: Matrix([[2 * xi * xi]])})
    result = ss.purity_check(B, ss.WeightSpec(xi, Q(1), 0))
    assert not result.ok
    assert result.violation[0] == (-2, 4)
    assert result.violation[1] == "t - 32"


# phi on H^2 of a complex with d = 0, weight 2, so xi^2 = 9 is the only
# allowed eigenvalue; the factor is what remains of the charpoly, any degree
@pytest.mark.parametrize("phi, factor", [
    ([[0, -1], [1, 0]], "t^2 + 1"),
    ([[3, 0], [0, 3]], "t^2 - 6*t + 9"),
    ([[9, 1, 0], [0, 9, 0], [0, 0, 3]], "t - 3"),
    ([[9, 1], [0, 9]], None),
    ([[0, 2], [1, 0]], "t^2 - 2"),
    ([[9, 0, 0], [0, 0, 2], [0, 1, 0]], "t^2 - 2"),
])
def test_purity_names_factors_of_any_degree(phi, factor):
    A = ss.canonical_filtration({2: len(phi)}, {}, {2: Matrix(phi)})
    result = ss.purity_check(A, ss.WeightSpec(Q(3), Q(1), 0))
    if factor is None:
        assert result.ok and result.violation is None
    else:
        assert result.violation == ((-2, 4), factor,
                                    f"eigenvalue outside xi^2: factor {factor}")


def test_purity_requires_phi():
    A = ss.canonical_filtration({0: 1}, {})
    with pytest.raises(InputError):
        ss.purity_check(A, ss.WeightSpec(Q(4), Q(1), 0))


def test_purity_at_page_bounds():
    A = ss.canonical_filtration({0: 1}, {}, {0: Matrix([[1]])})
    with pytest.raises(InputError):
        ss.purity_check(A, ss.WeightSpec(Q(4), Q(1), 0), at_page=2)


def test_negative_slope_weights():
    rng = random.Random(88)
    xi = Q(3)
    A, _, _ = verify.random_pure_complex(rng, xi, Q(-1))
    assert ss.purity_check(A, ss.WeightSpec(xi, Q(-1), 0)).ok
    witness = ss.formality_witness(A, ss.WeightSpec(xi, Q(-1), 0))
    assert witness.verified


def test_purity_non_integral_weight_requires_vanishing():
    xi = Q(4)
    A = ss.canonical_filtration({1: 1}, {}, {1: Matrix([[xi]])})
    result = ss.purity_check(A, ss.WeightSpec(xi, Q(1, 2), 0))
    assert not result.ok
    assert "non-integral" in result.violation[2]


def test_witness_zero_differential_is_identity():
    A = ss.canonical_filtration({0: 2}, {}, {0: Matrix.identity(2)})
    witness = ss.formality_witness(A, ss.WeightSpec(Q(3), Q(1), 0))
    assert witness.verified
    assert witness.inclusions[0] == Matrix.identity(2)


def test_witness_four_dimensional_example():
    # A^0 = Q^2, A^1 = Q^2, rank-one d; phi has eigenvalue 1 on surviving H^0,
    # xi on surviving H^1, and 7 paired across the acyclic part.
    xi = Q(3)
    d = Matrix([[0, 1], [0, 0]])
    phi = {0: Matrix([[1, 0], [0, 7]]),
           1: Matrix([[7, 0], [0, xi]])}
    A = ss.canonical_filtration({0: 2, 1: 2}, {0: d}, phi)
    witness = ss.formality_witness(A, ss.WeightSpec(xi, Q(1), 0))
    assert witness.verified
    assert witness.inclusions[0].ncols == 1
    assert witness.inclusions[1].ncols == 1
    data = witness.to_json()
    assert data["verified"] is True


def test_witness_refuses_impure_input():
    xi = Q(3)
    A = ss.canonical_filtration({0: 1}, {}, {0: Matrix([[7]])})
    with pytest.raises(PurityViolation):
        ss.formality_witness(A, ss.WeightSpec(xi, Q(1), 0))


def test_witness_jordan_obstruction_is_refused():
    # ker d^1 = A^1 is a Jordan block tying im d to the surviving class; no
    # strict equivariant section exists and the construction must say so.
    xi = Q(3)
    d = Matrix([[0], [1]])  # A^0 = Q -> A^1 = Q^2, image = second coordinate
    phi = {0: Matrix([[xi]]), 1: Matrix([[xi, 0], [1, xi]])}
    A = ss.canonical_filtration({0: 1, 1: 2}, {0: d}, phi)
    assert ss.purity_check(A, ss.WeightSpec(xi, Q(1), 0)).ok
    with pytest.raises(WitnessError):
        ss.formality_witness(A, ss.WeightSpec(xi, Q(1), 0))


def test_witness_randomized_pure_battery():
    rng = random.Random(21)
    xi = Q(3)
    for t in range(20):
        alpha = [Q(1), Q(2), Q(1, 2)][t % 3]
        A, h_dims, _ = verify.random_pure_complex(rng, xi, alpha)
        witness = ss.formality_witness(A, ss.WeightSpec(xi, alpha, 0))
        assert witness.verified
        assert {n: m.ncols for n, m in witness.inclusions.items()} == h_dims


def test_purity_staircase_monotonicity():
    rng = random.Random(33)
    xi = Q(3)
    for _ in range(10):
        r = rng.randint(1, 3)
        A = verify.random_staircase_complex(rng, xi, Q(1), r)
        spec = ss.WeightSpec(xi, Q(1), r)
        for p in range(1, r + 2):
            assert ss.purity_check(A, spec, at_page=p).ok


def test_off_eigenvalue_on_page_spots():
    """`Matrix.off_eigenvalue`, which the purity check reads, against the
    charpoly divided by t - lam (`oracles.charpoly_without`) on phi at every
    spot of every page of seeded pure, impure and staircase complexes and of
    a torus page model."""
    rng = random.Random(41)
    xi = Q(3)
    complexes = [equieven.as_filtered_complex("torus", 3, 2, 8, xi=xi)]
    for t in range(24):
        alpha = [Q(1), Q(2), Q(1, 2)][t % 3]
        complexes.append(verify.random_pure_complex(rng, xi, alpha)[0])
        complexes.append(verify.random_pure_complex(rng, xi, alpha, impure=True)[0])
        complexes.append(verify.random_staircase_complex(rng, xi, Q(1), 1 + t % 3))
    pairs = split = 0
    for A in complexes:
        for r in range(A.top_level + 2):
            pg = ss.page(A, r)
            for i, n in pg.spots:
                m = pg.aut(i, n)
                for lam in (xi, xi * xi, Q(1), Q(-1, 2)):
                    rest = m.off_eigenvalue(lam)
                    assert rest.charpoly() == oracles.charpoly_without(m, lam)
                    pairs += 1
                    split += 0 < rest.nrows < m.nrows
    assert pairs > 3000 and split > 80


def test_page_automorphism_commutes_with_page_differential():
    rng = random.Random(55)
    xi = Q(3)
    for _ in range(8):
        r = rng.randint(1, 3)
        A = verify.random_staircase_complex(rng, xi, Q(1), r)
        pg = ss.page(A, r)
        for (i, n), mat in pg.differentials.items():
            tgt = (i - r, n + 1)
            if tgt in pg.spots:
                assert mat * pg.aut(i, n) == pg.aut(*tgt) * mat


def test_witness_with_jordan_block_on_cohomology():
    # phi may be non-semisimple on the surviving cohomology itself; the
    # section solve handles that as long as boundaries are not entangled
    xi = Q(3)
    jordan = Matrix([[xi, 1], [0, xi]])
    A = ss.canonical_filtration({1: 2}, {}, {1: jordan})
    witness = ss.formality_witness(A, ss.WeightSpec(xi, Q(1), 0))
    assert witness.verified
    assert witness.induced[1] == jordan


def test_hom_vanishing_desk_case():
    xi = Q(4)
    assert verify.equivariant_hom_dims(Matrix([[xi]]), Matrix([[xi * xi]])) == (0, 0)
    assert verify.equivariant_hom_dims(Matrix([[xi]]), Matrix([[xi]])) == (1, 1)


def test_filtered_complex_json_round_trip():
    rng = random.Random(2)
    A = verify.random_filtered_complex(rng)
    again = ss.complex_from_json(A.to_json())
    assert again.spaces == A.spaces
    for n in A.degrees():
        assert again.diff(n) == A.diff(n)
        for i in range(A.top_level + 1):
            assert again.W(n, i) == A.W(n, i)
    B, _, _ = verify.random_pure_complex(rng, Q(3), Q(1))
    again = ss.complex_from_json(B.to_json())
    assert again.phi is not None
    for n in B.degrees():
        assert again.aut(n) == B.aut(n)


# the even page models of the benchmark's `pages` workload:
# (group, points, halfdim, max_degree)
PAGE_MODELS = (
    ("torus", 2, 2, 4), ("torus", 3, 2, 4), ("torus", 2, 3, 4),
    ("so", 2, 2, 4), ("so", 2, 2, 8), ("so", 2, 3, 8), ("so", 3, 2, 6), ("so", 3, 3, 4),
    ("u", 2, 2, 6), ("u", 2, 3, 4), ("u", 3, 2, 4), ("u", 3, 3, 4),
)


def assert_pages_match_oracle(A, pages):
    """`page` and `decalage` against the subquotient formulas of `oracles`:
    equal dims, d_r ranks and phi charpolys per spot; phi_r d_r = d_r phi_r."""
    for r in pages:
        new, old = ss.page(A, r), oracles.subquotient_page(A, r)
        assert new.r == r and new.dims() == old.dims()
        assert set(new.spots) == set(old.spots)
        # a spot has a d_r entry exactly when its target spot is live
        assert set(new.differentials) == set(old.differentials) \
            == {(i, n) for (i, n) in new.spots if (i - r, n + 1) in new.spots}
        for (i, n) in new.spots:
            if (i, n) in new.differentials:
                assert new.differentials[i, n].rank() == old.differentials[i, n].rank()
            if A.phi is not None:
                assert new.aut(i, n).charpoly() == old.aut(i, n).charpoly()
                if (i - r, n + 1) in new.spots:
                    d_r = new.differentials[i, n]
                    assert new.aut(i - r, n + 1) * d_r == d_r * new.aut(i, n)
    assert ss.decalage(A).to_json() == oracles.subquotient_decalage(A).to_json()


def test_pages_match_the_subquotient_oracle():
    rng = random.Random(91)
    for group, ell, n, top in PAGE_MODELS:
        A = equieven.as_filtered_complex(group, ell, n, top, xi=rng.choice((2, 3, -2)))
        assert_pages_match_oracle(A, range(A.top_level + 3))
    for t in range(50):
        xi = rng.choice((Q(2), Q(3), Q(-2)))
        complexes = (
            verify.random_filtered_complex(rng, strict=t % 2 == 0),
            verify.random_pure_complex(rng, xi, (Q(1), Q(2), Q(1, 2))[t % 3],
                                       impure=t % 4 == 1)[0],
            verify.random_staircase_complex(rng, xi, Q(1), 1 + t % 3))
        for A in complexes:
            assert_pages_match_oracle(A, range(A.top_level + 3))


def test_large_torus_pages_match_the_subquotient_oracle():
    # max dim 51, ten filtration levels
    A = equieven.as_filtered_complex("torus", 4, 2, 12, xi=2)
    assert A.top_level == 9 and max(A.spaces.values()) == 51
    assert_pages_match_oracle(A, range(6))


def test_pages_of_raw_level_spans_match_the_subquotient_oracle():
    # levels given as spanning Matrices that are not canonical: a scaled
    # line, and a full level whose columns lead at the same index
    line, full = from_columns([[2, 2]]), from_columns([[1, 1], [1, 0]])
    A = ss.FilteredComplex({0: 2, 1: 2}, {0: Matrix([[1, 1], [0, 0]])},
                           {0: [line, full], 1: [from_columns([[3, 0]]), full]},
                           {0: Matrix([[2, 0], [0, 2]]), 1: Matrix([[2, 0], [0, 5]])})
    assert_pages_match_oracle(A, range(4))
    assert ss.page(A, 0).differentials[0, 0] == Matrix([[1]])
    assert ss.page(A, 1).dims() == {(1, 0): 1, (1, 1): 1}


def seeded_battery(seed, count):
    """The even page models, then `count` rounds of seeded random complexes:
    strict, general, pure, impure and staircase."""
    rng = random.Random(seed)
    out = [equieven.as_filtered_complex(group, ell, n, top, xi=rng.choice((2, 3, -2)))
           for group, ell, n, top in PAGE_MODELS]
    for t in range(count):
        xi = rng.choice((Q(2), Q(3), Q(-2)))
        out += [verify.random_filtered_complex(rng, strict=t % 2 == 0),
                verify.random_pure_complex(rng, xi, (Q(1), Q(2), Q(1, 2))[t % 3],
                                           impure=t % 4 == 1)[0],
                verify.random_staircase_complex(rng, xi, Q(1), 1 + t % 3)]
    return out


def reachable_numbers(value, seen):
    """Every number reachable from value: the entries of matrices (a bool
    among them too), the coefficients of polynomials, the items of
    containers and the attributes of result objects, bool flags aside."""
    if isinstance(value, (bool, str)) or value is None or callable(value):
        return
    if isinstance(value, (int, float, Q)):
        yield value
        return
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, Matrix):
        yield from (x for c in value.sparse_columns for x in c.values())
        return
    if isinstance(value, exactalg.Polynomial):
        items = value.terms.values()
    elif isinstance(value, dict):
        items = [*value, *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        items = value
    else:
        items = [getattr(value, name, None) for cls in type(value).__mro__
                 for name in getattr(cls, "__slots__", ())]
        items += list(getattr(value, "__dict__", {}).values())
    for v in items:
        yield from reachable_numbers(v, seen)


def test_no_float_reaches_any_result():
    # integral numbers are ints and the rest Fractions: through pages,
    # decalage, purity, witnesses, charpoly, off_eigenvalue, solve, Quotient
    # and the dense oracles, on int and Fraction xi and alpha = +-1/3, +-2,
    # every number of every result is exactly an int or a Fraction
    rng = random.Random(53)
    xis, alphas = (2, Q(1, 2), -3, Q(5, 3)), (Q(1, 3), Q(-1, 3), 2, -2)
    complexes = [(A, rng.choice(xis)) for A in seeded_battery(53, 4)]
    complexes += [(equieven.as_filtered_complex(group, ell, n, top, xi=xi), xi)
                  for (group, ell, n, top), xi in zip(PAGE_MODELS[::3], xis)]
    complexes += [(verify.random_pure_complex(rng, xi, alpha)[0], xi)
                  for xi, alpha in zip(xis, alphas)]
    results, witnesses = [], 0
    for A, xi in complexes:
        results += [A, ss.decalage(A)]
        for r in range(3):
            pg = ss.page(A, r)
            results += [pg.dims(), pg.differentials, ss.page_cohomology_dims(pg)]
            if A.phi is not None:
                results.append([pg.aut(i, n) for i, n in pg.spots])
        for alpha in alphas if A.phi is not None else ():
            spec = ss.WeightSpec(xi, alpha, 1)
            results.append(ss.purity_check(A, spec))
            try:
                results.append(ss.formality_witness(A, ss.WeightSpec(xi, alpha, 0)))
                witnesses += 1
            except (PurityViolation, WitnessError) as exc:
                results.append(exc.args)
        for n in A.degrees():
            d = A.diff(n)
            if A.phi is not None:
                phi = A.aut(n)
                results += [phi.charpoly(), phi.off_eigenvalue(xi),
                            phi.off_eigenvalue(Q(xi) ** -2)]
            x = [rng.choice((1, -2, Q(1, 3))) for _ in range(d.ncols)]
            for b in ((d * from_columns([x], nrows=d.ncols)).columns()[0],
                      [rng.randint(-2, 2) for _ in range(d.nrows)]):
                results += [d.solve(b), oracles.dense_solve(d.columns(), b)]
            results.append(oracles.dense_rref(d.rows, d.ncols))
            z, quo = ss.cohomology_quotient(A, n)
            results += [z, quo, quo.matrix_of(z)]
    numbers = list(reachable_numbers(results, set()))
    assert {type(x) for x in numbers} == {int, Q}
    assert witnesses


def stored(*mats):
    """A deep copy of the stored columns of each matrix, in entry order."""
    return [[list(c.items()) for c in m.sparse_columns] for m in mats]


def test_reading_a_complex_leaves_its_matrices_unchanged():
    # matrices share their column dicts, and a complex shares its levels'
    # columns with its flags and its d and phi with its truncation and its
    # decalage: validating it and reading its pages, decalage, purity checks
    # and witnesses write into none of them, nor into a matrix they return
    made, witnesses = [], 0

    def kept(*mats):
        made.extend((m, stored(m)) for m in mats)

    def matrices(A):
        return [*A.d.values(), *(A.phi or {}).values(),
                *(lvl for levels in A.filtration.values() for lvl in levels)]

    for A in seeded_battery(43, 6):
        kept(*matrices(A))
        A.validate()
        dec = ss.decalage(A)
        kept(*matrices(dec))
        assert dec.validate()
        for B in (A, dec):
            for r in range(B.top_level + 2):
                pg = ss.page(B, r)
                kept(*pg.differentials.values())
                if B.phi is not None:
                    kept(*(pg.aut(i, n) for i, n in pg.spots))
        if A.phi is None:
            continue
        T = ss.canonical_filtration(A.spaces, A.d, A.phi)
        kept(*matrices(T))
        for xi, alpha in ((Q(2), Q(1)), (Q(3), Q(2)), (Q(-2), Q(1, 2)), (Q(3), Q(1))):
            ss.purity_check(A, ss.WeightSpec(xi, alpha, A.top_level))
            for B in (A, T):
                try:
                    w = ss.formality_witness(B, ss.WeightSpec(xi, alpha, 0))
                except (PurityViolation, WitnessError):
                    continue
                kept(*w.inclusions.values(), *w.induced.values())
                witnesses += 1
    assert witnesses
    assert [stored(m) for m, _ in made] == [before for _, before in made]


def test_page_builds_no_matrix_until_read(monkeypatch):
    # a page counts its spots: no matrix and no adapted basis is built until
    # d_r or phi_r is read
    battery = seeded_battery(23, 6)
    calls = []
    of_columns, flag_basis = Matrix._of_columns, ss.flag_basis
    monkeypatch.setattr(Matrix, "_of_columns", classmethod(
        lambda cls, cols, nrows: calls.append("_of_columns") or of_columns(cols, nrows)))
    monkeypatch.setattr(ss, "flag_basis", lambda spans: calls.append("flag_basis")
                        or flag_basis(spans))
    pages = [ss.page(A, r) for A in battery for r in range(A.top_level + 2)]
    assert calls == []
    assert any(pg.differentials for pg in pages) and calls  # reading d_r builds it


def test_each_complex_reduces_its_barcode_once(monkeypatch):
    # every page, decalage and purity check of a complex reads the barcode
    # kept on it: one reduction per complex, and none for a complex that is
    # only built and validated; the pages still match the subquotient oracle
    calls, barcode = [], ss._barcode
    monkeypatch.setattr(ss, "_barcode", lambda A: calls.append(A) or barcode(A))
    battery = seeded_battery(37, 6)
    for A in battery:
        assert A.validate()
    assert calls == []
    for A in battery:
        calls.clear()
        pages = [ss.page(A, r) for r in range(A.top_level + 3)]
        for pg in pages:
            assert pg.differentials is not None
            if A.phi is not None:
                for i, n in pg.spots:
                    pg.aut(i, n)
        dec = ss.decalage(A)
        if A.phi is not None:
            ss.purity_check(A, ss.WeightSpec(Q(2), Q(1), A.top_level))
        assert len(calls) == 1 and calls[0] is A
        assert all(pg._source.barcode is A.barcode for pg in pages)
        assert [pg.dims() for pg in pages] \
            == [oracles.subquotient_page(A, r).dims() for r in range(A.top_level + 3)]
        assert dec.to_json() == oracles.subquotient_decalage(A).to_json()
    # a canonical complex is its own truncation: after its purity check the
    # witness reduces no barcode; the same complex read from JSON is not
    # marked, and its witness reduces one new truncation's barcode
    B, _, _ = verify.random_pure_complex(random.Random(37), Q(3), Q(1))
    spec = ss.WeightSpec(Q(3), Q(1), 0)
    assert ss.purity_check(B, spec).ok
    calls.clear()
    assert ss.formality_witness(B, spec).verified
    assert calls == []
    again = ss.complex_from_json(B.to_json())
    assert ss.formality_witness(again, spec).verified
    assert len(calls) == 1 and calls[0] is not again and calls[0] is not B


def test_repeated_levels_are_canonicalized_once(monkeypatch):
    # a run of levels that are the same object or equal, passed as Matrices
    # or vectors or read from JSON, is spanned by one `col_space` call
    calls = []
    fn = ss.col_space
    monkeypatch.setattr(ss, "col_space", lambda *a, **k: calls.append(a[0]) or fn(*a, **k))
    line, full = from_columns([[2, 0]]), Matrix.identity(2)
    A = ss.FilteredComplex({0: 2}, {}, {0: [line, line, full, full, full]})
    assert calls == [line, full]
    levels = A.filtration[0]
    assert levels[0] is levels[1] and levels[2] is levels[3] is levels[4]
    calls.clear()
    vecs = [[1, 1]]
    ss.FilteredComplex({0: 2}, {}, {0: [vecs, vecs, [[1, 0], [0, 1]]]})
    assert len(calls) == 2
    for group, ell, n, top in PAGE_MODELS:
        calls.clear()
        A = equieven.as_filtered_complex(group, ell, n, top, xi=2)
        runs = {n: sum(1 for i, lvl in enumerate(levels) if i == 0 or lvl != levels[i - 1])
                for n, levels in A.filtration.items()}
        assert len(calls) == sum(runs.values())
        for n, levels in A.filtration.items():
            assert len({id(lvl) for lvl in levels}) == runs[n]
        data = A.to_json()
        calls.clear()
        assert ss.complex_from_json(data).to_json() == data
        assert len(calls) == sum(runs.values())


def test_equal_levels_share_one_matrix_and_unfit_levels_are_refused(tmp_path, capsys):
    # equal levels that are separate objects share one canonical Matrix
    full = Matrix.identity(2)
    for first, second in ((from_columns([[2, 0]]), from_columns([[2, 0]])),
                          ([[1, 1]], [[1, 1]])):
        levels = ss.FilteredComplex({0: 2}, {}, {0: [first, second, full]}).filtration[0]
        assert levels[0] is levels[1] and levels[2] is full
    # every degree's levels must fit it, one of dimension 0 too
    with pytest.raises(InputError, match="^filtration level shape mismatch at degree 1$"):
        ss.FilteredComplex({0: 1}, {}, {0: [Matrix.identity(1)], 1: [Matrix.identity(1)]})
    with pytest.raises(InputError, match=r"^a vector of the span does not lie in Q\^0$"):
        ss.FilteredComplex({0: 1}, {}, {0: [Matrix.identity(1)], 1: [[[1]]]})
    assert ss.FilteredComplex({0: 1, 1: 0}, {}, {0: [Matrix.identity(1)],
                                                 1: [Matrix.zero(0, 0)]}).filtration \
        == {0: (Matrix.identity(1),)}
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"degrees": {"0": 1, "1": 0},
                                "filtration": {"0": [[["1"]]], "1": [[["1"]]]}}))
    assert main(["ss", "page", "--input", str(path), "--page", "1"]) == 2
    assert capsys.readouterr() == \
        ("", "error: malformed filtered complex: a vector of the span does not lie in Q^0\n")


def test_a_page_reads_phi_only_at_live_spots():
    A = ss.FilteredComplex({0: 1}, {}, {0: [Matrix.identity(1)]}, phi={0: Matrix([[3]])})
    pg = ss.page(A, 0)
    assert pg.aut(0, 0) == Matrix([[3]])
    assert pg.aut(1, 0) == pg.aut(0, 1) == Matrix.identity(0)
    bare = ss.page(ss.FilteredComplex(A.spaces, {}, A.filtration), 0)
    for spot in ((0, 0), (1, 0)):
        with pytest.raises(InputError, match="^page carries no automorphism$"):
            bare.aut(*spot)


def json_digest(complexes):
    """sha256 of the key-sorted JSON of each complex, in order."""
    h = hashlib.sha256()
    for A in complexes:
        h.update(json.dumps(A.to_json(), sort_keys=True).encode())
    return h.hexdigest()


def test_page_model_json_is_unchanged_by_level_sharing():
    # digests of the models as serialized before levels were shared
    assert json_digest(equieven.as_filtered_complex(*model, xi=(2, 3, -2)[k % 3])
                       for k, model in enumerate(PAGE_MODELS)) \
        == "4239253d39411eed26f59b893c9498e97097fb9890d612a189f9100ef79dffb1"
    assert json_digest([equieven.as_filtered_complex("torus", 5, 2, 12, xi=2)]) \
        == "52c44422534ffaec18906d15970e8f6efb259c56fab44ed7a17d499c31e45723"


def test_decalage_json_is_unchanged_by_flags():
    # digests of the decalages as serialized when each level was spanned
    # on its own
    assert json_digest(ss.decalage(equieven.as_filtered_complex(*model, xi=(2, 3, -2)[k % 3]))
                       for k, model in enumerate(PAGE_MODELS)) \
        == "fae990a12faf7c498dc69fb0843f541156634683f352edf2853fd8195a282a73"
    battery = seeded_battery(41, 8)
    assert json_digest([ss.decalage(A) for A in battery]
                       + [ss.decalage(ss.decalage(A)) for A in battery]) \
        == "2b6648c322a44b7d731363871d774c89fb6c9dbd68e5862799959f8df18b88a6"


@pytest.mark.parametrize("level,err", [
    ([[1.0]], "malformed filtered complex: not a rational: 1.0"),
    ([["x"]], "malformed filtered complex: bad rational literal 'x'"),
    ([[True]], None),
])
def test_a_level_like_the_one_before_is_still_read_in_full(level, err, capsys, tmp_path):
    # a level is compared with the previous one after its entries are read,
    # so a float or a bad string is refused and a bool read as before
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"degrees": {"0": 1}, "filtration": {"0": [[[1]], level]}}))
    code = main(["ss", "page", "--input", str(path), "--page", "0"])
    if err is None:
        assert (code, capsys.readouterr()) == (0, ("E_0^(0,0) dim 1\n", ""))
    else:
        assert (code, capsys.readouterr()) == (2, ("", f"error: {err}\n"))


def read_in_order(pg, keys, when, has_phi):
    """(d_r, phi_r) of pg: phi_r read at keys in order, d_r after `when` of
    them; d_r is read once and kept."""
    auts = {key: pg.aut(*key) for key in keys[:when]} if has_phi else {}
    diffs = pg.differentials
    if has_phi:
        auts |= {key: pg.aut(*key) for key in keys[when:]}
    assert pg.differentials is diffs
    return diffs, auts


def test_page_matrices_do_not_depend_on_the_read_order():
    # d_r at once and phi_r spot by spot, read in any order, give the same
    # matrices; those agree with the subquotient oracle as in
    # `assert_pages_match_oracle` (the oracle's spot bases differ, so ranks,
    # charpolys and phi_r d_r = d_r phi_r are compared)
    rng = random.Random(29)
    for A in seeded_battery(29, 6):
        for r in range(A.top_level + 3):
            keys = sorted(ss.page(A, r).spots)
            has_phi = A.phi is not None
            diffs, auts = read_in_order(ss.page(A, r), keys, 0, has_phi)
            for when in (len(keys), len(keys) // 2, 1):
                rng.shuffle(keys)
                assert read_in_order(ss.page(A, r), keys, when, has_phi) == (diffs, auts)
            old = oracles.subquotient_page(A, r)
            assert set(diffs) == set(old.differentials)
            for key, d_r in diffs.items():
                assert d_r.rank() == old.differentials[key].rank()
            for (i, n), mat in auts.items():
                assert mat.charpoly() == old.aut(i, n).charpoly()
                if (i, n) in diffs:
                    assert auts[i - r, n + 1] * diffs[i, n] == diffs[i, n] * mat


def test_complexes_built_unchecked_store_their_flags():
    # a constructed complex, a truncation and a canonical filtration keep
    # `flag_basis` of their levels (the witness reads the truncation's); a
    # decalage keeps an adapted basis of its levels: the elements of level
    # at most t span level t, the levels never decrease, and each element
    # is filed under its own first index
    for A in seeded_battery(31, 10):
        for B in (A, ss._truncation(A), ss.canonical_filtration(A.spaces, A.d, A.phi)):
            assert B.flags == {n: ss.flag_basis(levels) for n, levels in B.filtration.items()}
        T = ss._truncation(A)  # its levels are canonical as built
        assert T.filtration == ss.FilteredComplex(T.spaces, T.d, T.filtration, T.phi,
                                                  validate=False).filtration
        for B in (ss.decalage(A), ss.decalage(ss.decalage(A))):
            assert B.flags.keys() == B.filtration.keys() == A.flags.keys()
            for n, (level, basis, lead) in B.flags.items():
                levels = B.filtration[n]
                assert len(levels) == B.top_level + 1
                for t, lvl in enumerate(levels):
                    assert col_space([v for v, s in zip(basis, level) if s <= t],
                                     dim=B.dim(n)) == lvl
                assert level == sorted(level) and len(basis) == len(lead) == B.dim(n)
                assert all(lead[min(v)] == (k, v) for k, v in enumerate(basis))
            assert B.validate()


def test_decalage_spans_each_distinct_level_once(monkeypatch):
    # a decalage, and the decalage of a decalage, build their flags by one
    # triangular pass (no `flag_basis`) and then span each distinct
    # nonempty level once, off the flags; an empty level is the canonical
    # empty span with no elimination
    spans, calls = [], []
    fn = exactalg.col_space
    monkeypatch.setattr(exactalg, "col_space", lambda *a, **k:
                        spans.append(fn(*a, **k)) or spans[-1])
    for name in ("col_space", "flag_basis"):
        fn_ss = getattr(ss, name)
        monkeypatch.setattr(ss, name, lambda *a, fn=fn_ss, name=name, **k:
                            calls.append(name) or fn(*a, **k))
    for A in seeded_battery(43, 3):
        for _ in range(2):
            A.barcode
            spans.clear()
            calls.clear()
            A = ss.decalage(A)
            assert calls == []
            distinct = {id(lvl): lvl for levels in A.filtration.values() for lvl in levels}
            assert sorted(map(id, spans)) == sorted(i for i, lvl in distinct.items() if lvl.ncols)
            for lvl in distinct.values():
                if not lvl.ncols:
                    empty = fn([], dim=lvl.nrows)
                    assert lvl == empty and lvl.columns() == empty.columns()
                    assert fn(lvl) is lvl


def test_json_read_parses_each_literal_once(monkeypatch):
    # one `rat` call per distinct string of the read; non-strings go to
    # `rat` unchanged, so ints and bools are read and floats refused as before
    A = equieven.as_filtered_complex("torus", 2, 2, 8, xi=3)
    data = A.to_json()

    def strings(value):
        if isinstance(value, list):
            return set().union(*map(strings, value))
        return {value} if isinstance(value, str) else set()
    calls, rat = [], ss.rat
    monkeypatch.setattr(ss, "rat", lambda x: calls.append(x) or rat(x))
    again = ss.complex_from_json(data)
    assert sorted(calls) == sorted(strings([list(data[key].values())
                                            for key in ("d", "phi", "filtration")]))
    assert len(calls) < 20
    assert again.to_json() == data
    pair = {"degrees": {"0": 1, "1": 1}, "filtration": {"0": [[["1"]]], "1": [[["1"]]]}}
    for entry, outcome in ((True, [["1"]]), (1, [["1"]]), ("2/4", [["1/2"]]),
                           (1.0, "malformed filtered complex: not a rational: 1.0"),
                           ("x", "malformed filtered complex: bad rational literal 'x'")):
        try:
            got = ss.mat_json(ss.complex_from_json({**pair, "d": {"0": [[entry]]}}).diff(0))
        except InputError as exc:
            got = str(exc)
        assert got == outcome


def outcome(check, A):
    """True when `check` accepts A, else the message of its InputError."""
    try:
        return check(A)
    except InputError as exc:
        return str(exc)


def perturbed(m, rng):
    """m with one seeded entry changed by a nonzero integer."""
    rows = m.sparse_rows()
    i, j = rng.randrange(m.nrows), rng.randrange(m.ncols)
    rows[i][j] = rows[i].get(j, 0) + rng.choice((-2, -1, 1, 2))
    return Matrix(rows, ncols=m.ncols)


def mutated(A, rng, defects):
    """A copy of A, built without validation, with `defects` seeded defects:
    a column dropped from a level, two levels swapped, one entry of d or phi
    perturbed, or phi made singular."""
    d, phi = dict(A.d), None if A.phi is None else {n: A.aut(n) for n in A.degrees()}
    filtration = {n: list(levels) for n, levels in A.filtration.items()}
    for _ in range(defects):
        kinds = ["drop", "swap"] + ["d"] * bool(d) + ["phi", "singular"] * bool(phi)
        kind, n = rng.choice(kinds), rng.choice(A.degrees())
        levels = filtration[n]
        if kind == "drop":
            t = rng.choice([t for t, lvl in enumerate(levels) if lvl.ncols] or [0])
            cols = list(levels[t].sparse_columns)
            if cols:
                del cols[rng.randrange(len(cols))]
            levels[t] = from_columns(cols, nrows=A.dim(n))
        elif kind == "swap":
            s, t = rng.randrange(len(levels)), rng.randrange(len(levels))
            levels[s], levels[t] = levels[t], levels[s]
        elif kind == "d":
            n = rng.choice(sorted(d))
            d[n] = perturbed(d[n], rng)
        elif kind == "phi":
            phi[n] = perturbed(phi[n], rng)
        else:  # the images of two basis vectors made equal
            cols = list(phi[n].sparse_columns)
            cols[rng.randrange(len(cols))] = cols[rng.randrange(len(cols))]
            phi[n] = from_columns(cols, nrows=A.dim(n))
    return ss.FilteredComplex(A.spaces, d, filtration, phi, validate=False)


def test_validate_matches_the_level_by_level_oracle():
    # the adapted-basis checks of `validate` against one `subspace_leq` per
    # level: the same verdict and the same message, on valid complexes and
    # on seeded mutations of them with one or two defects
    rng = random.Random(57)
    bases = []
    for group, ell, n, top in PAGE_MODELS:
        A = equieven.as_filtered_complex(group, ell, n, top, xi=rng.choice((2, 3, -2)))
        bases += [A, ss.decalage(A)]
    for t in range(20):
        xi = rng.choice((Q(2), Q(3), Q(-2)))
        seeded = [verify.random_filtered_complex(rng, strict=t % 2 == 0),
                  verify.random_pure_complex(rng, xi, (Q(1), Q(2), Q(1, 2))[t % 3])[0],
                  verify.random_staircase_complex(rng, xi, Q(1), 1 + t % 3)]
        bases += seeded + [ss.decalage(A) for A in seeded]
    # the complexes the engine builds unchecked: decalages, and truncations
    bases += [ss.canonical_filtration(A.spaces, A.d, A.phi) for A in bases]
    cases = [ss.FilteredComplex(*args, validate=False) for _, args, _ in MALFORMED]
    # degree 1 has more levels than degree 0, and they are not nested: d is
    # checked only against the levels that degree 0 has
    cases.append(ss.FilteredComplex({0: 1, 1: 1}, {0: ID1},
                                    {0: [ID1], 1: [ID1, span(dim=1), ID1]}, validate=False))
    for A in bases:
        cases += [A] + [mutated(A, rng, 1 + k % 2) for k in range(4)]
    seen = set()
    for B in cases:
        got = outcome(ss.FilteredComplex.validate, B)
        assert got == outcome(oracles.validate_by_levels, B)
        seen.add(got if got is True else got.split(" at ")[0].split(" W_")[0])
    # every check accepts or rejects some case
    assert seen == {True} | {message.split(" at ")[0].split(" W_")[0]
                             for *_, message in MALFORMED}


def test_derived_complexes_are_not_validated_again(monkeypatch):
    # the input of canonical_filtration is checked once; the truncation
    # inside formality_witness and the decalage of a checked complex are
    # valid by construction and are not checked at all
    A = verify.random_pure_complex(random.Random(3), Q(3), Q(1))[0]
    # not a truncation, so that the witness builds one
    U = ss.FilteredComplex(A.spaces, A.d, A.filtration, A.phi)
    calls, validate = [], ss.FilteredComplex.validate
    monkeypatch.setattr(ss.FilteredComplex, "validate",
                        lambda self: calls.append(self) or validate(self))
    counts = {}
    for name, run in (
            ("canonical_filtration", lambda: ss.canonical_filtration(A.spaces, A.d, A.phi)),
            ("formality_witness", lambda: ss.formality_witness(U, ss.WeightSpec(3, 1, 0))),
            ("decalage", lambda: ss.decalage(A))):
        calls.clear()
        run()
        counts[name] = len(calls)
    assert counts == {"canonical_filtration": 1, "formality_witness": 0, "decalage": 0}


def marked_battery(seed):
    """(truncation, spec): the truncations of `seeded_battery(seed, 4)` with
    xi = 2 and alpha = 1, then 20 seeded pure and impure complexes, which are
    truncations as built, with their own xi and alpha."""
    out = [(ss._truncation(A), ss.WeightSpec(Q(2), Q(1), 0)) for A in seeded_battery(seed, 4)]
    rng = random.Random(seed)
    for t in range(20):
        xi, alpha = rng.choice((Q(2), Q(3), Q(-2))), (Q(1), Q(2), Q(1, 2))[t % 3]
        A, _, _ = verify.random_pure_complex(rng, xi, alpha, impure=t % 2 == 1)
        out.append((A, ss.WeightSpec(xi, alpha, 0)))
    return out


def witness_outcome(A, spec):
    """The JSON of `formality_witness(A, spec)`, or the type and message of
    its refusal, with the spot and factor of a purity violation."""
    try:
        return ss.formality_witness(A, spec).to_json()
    except (InputError, PurityViolation, WitnessError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "spot", None), \
            getattr(exc, "factor", None)


def test_a_truncation_is_its_own_truncation(monkeypatch):
    # truncating a truncation rebuilds its levels and flags, so the witness
    # reads a truncation as it stands: it gives the same witness or refusal
    # as on an unmarked JSON copy, which it truncates, on every call
    truncations, truncation = [], ss._truncation
    monkeypatch.setattr(ss, "_truncation", lambda A: truncations.append(A) or truncation(A))
    outcomes = set()
    for T, spec in marked_battery(41):
        again = truncation(T)
        assert T._truncated and again._truncated
        assert again.filtration == T.filtration and again.flags == T.flags
        copy = ss.complex_from_json(T.to_json())
        assert not copy._truncated
        truncations.clear()
        want = witness_outcome(copy, spec)
        assert truncations == ([copy] if T.phi is not None else [])
        assert witness_outcome(T, spec) == want == witness_outcome(T, spec)
        assert truncations == ([copy] if T.phi is not None else [])
        outcomes.add("verified" if isinstance(want, dict) else want[0])
    assert outcomes == {"verified", "InputError", "PurityViolation"}


def test_each_complex_builds_phi_once_per_element(monkeypatch):
    # phi of each barcode element is solved once per complex: every page
    # with phi_r read at every spot, two purity checks, then the witness of
    # a truncation, which reads the coordinates its pages built
    solvers, built, solver = [], [], ss._phi_solver
    monkeypatch.setattr(ss, "_phi_solver", lambda A, n: solvers.append((A, n)) or (
        lambda k, solve=solver(A, n): built.append((A, n, k)) or solve(k)))
    for T, spec in marked_battery(43):
        if T.phi is None:
            continue
        for A in (ss.FilteredComplex(T.spaces, T.d, T.filtration, T.phi, validate=False), T):
            for r in range(A.top_level + 3):
                pg = ss.page(A, r)
                for i, n in pg.spots:
                    pg.aut(i, n)
            early = ss.WeightSpec(spec.xi, spec.alpha, 1)
            ss.purity_check(A, early)
            ss.purity_check(A, early, at_page=0)
            # page 0 keeps every element live
            assert {(n, k) for B, n, k in built if B is A} \
                == {(n, k) for n, dim in A.spaces.items() for k in range(dim)}
        count = len(built)
        witness_outcome(T, spec)
        assert len(built) == count
    assert built and len(built) == len({(id(A), n, k) for A, n, k in built})
    assert len(solvers) == len({(id(A), n) for A, n in solvers})


# ---------------------------------------------------------------------------
# formality witnesses against a committed golden


WITNESS_GOLDEN = Path(__file__).resolve().parent / "golden" / "witnesses.json"


def obstructed(degree, size, xi=Q(3)):
    """A canonical complex whose automorphism on A^degree is one Jordan block
    of the given size, e_j -> lam e_j + e_(j+1), with d A^(degree-1) the
    last basis vector: the block ties the boundaries to the cohomology, so
    no equivariant section exists. A^0 carries a class of its own when
    degree > 1."""
    lam = xi ** degree
    jordan = Matrix([[lam if i == j else int(i == j + 1) for j in range(size)]
                     for i in range(size)])
    spaces = {degree - 1: 1, degree: size}
    phi = {degree - 1: Matrix([[lam]]), degree: jordan}
    if degree > 1:
        spaces[0], phi[0] = 1, ID1
    return ss.canonical_filtration(spaces, {degree - 1: Matrix([[0]] * (size - 1) + [[1]])},
                                   phi)


def witness_cases():
    """(name, complex, spec): seeded pure complexes (xi = 3, seeds 0-4, 20
    each per slope), seeded impure ones, and the Jordan obstructions."""
    xi = Q(3)
    for alpha in (Q(1), Q(2), Q(1, 2)):
        for seed in range(5):
            rng = random.Random(seed)
            for t in range(20):
                A, _, _ = verify.random_pure_complex(rng, xi, alpha)
                yield f"pure alpha={alpha} seed={seed} draw={t}", A, ss.WeightSpec(xi, alpha, 0)
    for seed in range(5):
        rng = random.Random(seed)
        for t in range(4):
            A, _, _ = verify.random_pure_complex(rng, xi, Q(1), impure=True)
            yield f"impure seed={seed} draw={t}", A, ss.WeightSpec(xi, Q(1), 0)
    for degree in (1, 2):
        for size in (2, 3):
            yield (f"jordan degree={degree} size={size}", obstructed(degree, size, xi),
                   ss.WeightSpec(xi, Q(1), 0))


def witness_json(route, A, spec):
    """The JSON of route(A, spec), or the type and message of its refusal."""
    try:
        return route(A, spec).to_json()
    except (PurityViolation, WitnessError) as exc:
        return {"refused": type(exc).__name__, "message": str(exc)}


def witness_golden_text(route):
    return "{\n" + ",\n".join(f"{json.dumps(name)}: {json.dumps(witness_json(route, A, spec))}"
                               for name, A, spec in witness_cases()) + "\n}\n"


def read_matrix(rows):
    return Matrix([[Q(x) for x in row] for row in rows])


def assert_witnesses_agree(A, got, want):
    """got and want, two `witness_json`s of A: the same refusal, or the same
    transcript and induced maps, and inclusions that are equal wherever
    Hom_phi(H^n, B^n) = 0 and elsewhere differ by a map D into B^n with
    phi D = D phibar. Returns (n, whether the inclusions differ) for each
    degree n where Hom_phi(H^n, B^n) != 0."""
    if "refused" in got or "refused" in want:
        assert got == want
        return []
    for key in ("verified", "transcript", "cohomology_automorphism"):
        assert got[key] == want[key]
    assert got["inclusions"].keys() == want["inclusions"].keys()
    free = []
    for key, inc in want["inclusions"].items():
        n = int(key)
        phi_bar = read_matrix(got["cohomology_automorphism"][key])
        b = col_space(A.diff(n - 1))
        phi_b = from_columns([oracles.dense_solve(b.columns(), v)
                                     for v in (A.aut(n) * b).columns()], nrows=b.ncols)
        if verify.equivariant_hom_dims(phi_bar, phi_b)[0] == 0:
            assert got["inclusions"][key] == inc
            continue
        gap = read_matrix(got["inclusions"][key]) - read_matrix(inc)
        assert oracles.subspace_leq(gap, b)
        assert A.aut(n) * gap == gap * phi_bar
        free.append((n, not gap.is_zero()))
    return free


def test_eigenspace_witnesses_match_golden():
    assert witness_golden_text(oracles.witness_by_eigenspaces) == \
        WITNESS_GOLDEN.read_text(encoding="utf-8")


def test_witnesses_match_golden():
    golden = json.loads(WITNESS_GOLDEN.read_text(encoding="utf-8"))
    free = [(name, n, differs) for name, A, spec in witness_cases()
            for n, differs in assert_witnesses_agree(
                A, witness_json(ss.formality_witness, A, spec), golden[name])]
    # the sections are unique but in a few degrees, and differ in one
    assert [(name, n) for name, n, differs in free if differs] == \
        [("pure alpha=1 seed=1 draw=15", 1)]


def test_witness_matches_the_eigenspace_oracle():
    rng = random.Random(64)
    cases = [(obstructed(degree, size, xi), Q(1), xi)
             for degree in (1, 2) for size in (2, 3) for xi in (Q(3), Q(-2))]
    # A^0 -> A^1 = Q^2 onto e2 with phi = xi on both: any e1 + y e2 is a section
    cases.append((ss.canonical_filtration({0: 1, 1: 2}, {0: Matrix([[0], [1]])},
                                          {0: Matrix([[3]]), 1: Matrix([[3, 0], [0, 3]])}),
                  Q(1), Q(3)))
    for t in range(120):
        xi, alpha = rng.choice((Q(2), Q(3), Q(-2))), (Q(1), Q(2), Q(1, 2), Q(-1))[t % 4]
        A, _, _ = verify.random_pure_complex(rng, xi, alpha, impure=t % 10 == 9)
        cases.append((A, alpha, xi))
    outcomes, free = set(), 0
    for A, alpha, xi in cases:
        spec = ss.WeightSpec(xi, alpha, 0)
        got = witness_json(ss.formality_witness, A, spec)
        free += len(assert_witnesses_agree(
            A, got, witness_json(oracles.witness_by_eigenspaces, A, spec)))
        outcomes.add(got.get("refused", "verified"))
    assert outcomes == {"verified", "PurityViolation", "WitnessError"}
    assert free  # some section is not unique


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    WITNESS_GOLDEN.write_text(witness_golden_text(oracles.witness_by_eigenspaces),
                              encoding="utf-8")
