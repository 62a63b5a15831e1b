"""Ideal-span oracles: degreewise linear algebra on relation ideals.

These reductions never touch the rewrite engines; they realize each ring as
(free graded-commutative algebra) / (span of relation multiples) degree by
degree and solve linear systems. The verify suites and the test suite use
them to cross-check the normal forms and all dimension counts.

The matrices of the page differential d_2n are rebuilt here through the
element algebra (`d2n` on `PageElement`s), as the reference for the integer
monomial columns of `equieven`. The page cohomology is ranked on the whole
page, one elimination per degree, as the reference for the tensor form of
`equieven.page_cohomology_dims`. The edge-removal boundary of a basis word is
rebuilt by rewriting each sub-word to normal form, as the reference for
`equieven.boundary`, which needs no rewriting. The Weyl-fixed bases are
also rebuilt here the slow way, by averaging each basis element over the
group through the polynomial ring maps.

Spectral pages and decalage are rebuilt straight from the cycle/boundary
subquotients, one `Quotient` per spot, as the reference for the barcode
basis that `specseq` reads them off, and a filtered complex is validated one
filtration level at a time, as the reference for `FilteredComplex.validate`.
These use the subspace operations of `exactalg`, but none of the barcode or
adapted-basis code. The formality witness is rebuilt inside the generalized
eigenspaces of the cycles, by a projector, an intersection and one Kronecker
solve per degree, as the reference for the Sylvester solve on the barcode;
it shares only the purity check and the transcript with `specseq`. That
purity check reads each spot's characteristic polynomial off the Fitting
split, `Matrix.off_eigenvalue`; `charpoly_without` divides the whole
characteristic polynomial by t - lam instead, as its reference.

The linear systems go through `dense_rref`, plain Gauss-Jordan elimination
on dense Fraction rows. It shares no code with the sparse kernel behind
`exactalg.Matrix`, so it is also the reference the tests check that kernel
against.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cache, partial
from itertools import combinations, combinations_with_replacement

from .charclasses import weyl_action
from .errors import InputError, PurityViolation, WitnessError
from .exactalg import Matrix, PolyRing, Quotient, _reduce, col_space, rat
from .specseq import (FilteredComplex, SpectralPage, WeightSpec, canonical_filtration,
                      certified_witness, cohomology_quotient, purity_check)
from . import confring, equieven


def from_columns(cols, nrows=None):
    """The Matrix with the given columns, dense or {row: value} dicts, and
    `nrows` rows (by default the length of the first): the transpose of the
    Matrix with them as its rows."""
    m = Matrix(cols, ncols=nrows)
    return Matrix._of_columns(m.sparse_rows(), m.ncols)


def dense_rref(rows, ncols):
    """Reduced row echelon form of dense Fraction rows: (rows, pivot columns)."""
    m = [list(r) for r in rows]
    nr, nc = len(m), ncols
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Q(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return [tuple(row) for row in m], tuple(pivots)


def dense_solve(cols, b):
    """Some x with sum_t x[t] * cols[t] = b (free unknowns 0), or None."""
    red, pivots = dense_rref([tuple(c[i] for c in cols) + (b[i],)
                              for i in range(len(b))], len(cols) + 1)
    if len(cols) in pivots:
        return None
    x = [Q(0)] * len(cols)
    for r, p in enumerate(pivots):
        x[p] = red[r][len(cols)]
    return tuple(x)


def all_edges(k):
    return [(i, j) for j in range(2, k + 1) for i in range(1, j)]


# ---------------------------------------------------------------------------
# configuration ring oracle


def free_basis(k, n, m):
    """Word-length-m monomial keys of the free graded-commutative algebra."""
    edges = all_edges(k)
    if n % 2 == 1:
        combos = combinations_with_replacement(edges, m)
    else:
        combos = combinations(edges, m)
    return [tuple(sorted(c, key=confring.edge_key)) for c in combos]


def canonicalize_free(word, n):
    """(sign, key) of a product of canonical edges in the free algebra."""
    sign, edges = confring.koszul_sort(word, n)
    if n % 2 == 0:
        for t in range(len(edges) - 1):
            if edges[t] == edges[t + 1]:
                return 0, None
    return sign, edges


def relation_words(k, n):
    """Relation elements as {key: coeff} dicts in canonical free keys."""
    rels = []
    # the three-term relation, in canonical generators: same shape for both parities
    for a, b, c in combinations(range(1, k + 1), 3):
        rels.append({((a, b), (b, c)): Q(1),
                     ((a, c), (b, c)): Q(-1),
                     ((a, b), (a, c)): Q(-1)})
    if n % 2 == 1:
        for e in all_edges(k):
            rels.append({(e, e): Q(1)})
    return rels


def relation_span_columns(k, n, m, index):
    """Columns spanning the relation ideal in word length m."""
    cols = []
    if m < 2:
        return cols
    for mu in free_basis(k, n, m - 2):
        for rel in relation_words(k, n):
            col = [Q(0)] * len(index)
            nonzero = False
            for word, coeff in rel.items():
                sign, key = canonicalize_free(mu + word, n)
                if sign == 0:
                    continue
                col[index[key]] += coeff * sign
                nonzero = True
            if nonzero:
                cols.append(col)
    return cols


def quotient_dimension(k, n, degree):
    """dim of (free algebra / relation ideal) in the given degree."""
    if degree == 0:
        return 1
    if degree % (n - 1) != 0:
        return 0
    m = degree // (n - 1)
    fb = free_basis(k, n, m)
    if not fb:
        return 0
    index = {key: t for t, key in enumerate(fb)}
    cols = relation_span_columns(k, n, m, index)
    if not cols:
        return len(fb)
    return len(fb) - len(dense_rref(cols, len(fb))[1])


def reduce_word(k, n, word):
    """Normal form of a raw generator word, computed by linear algebra only.

    Returns {admissible key: coeff}, expressing the word's class in the
    admissible basis of the quotient by the relation ideal.
    """
    sign0 = 1
    canonical = []
    for i, j in word:
        e, s = confring.normalize_generator(k, i, j, n)
        canonical.append(e)
        sign0 *= s
    m = len(canonical)
    fb = free_basis(k, n, m)
    index = {key: t for t, key in enumerate(fb)}
    target = [Q(0)] * len(fb)
    sgn, key = canonicalize_free(tuple(canonical), n)
    if sgn:
        target[index[key]] = Q(sign0 * sgn)
    admissible = confring.basis_keys(k, n, m * (n - 1))
    adm_cols = []
    for keys in admissible:
        col = [Q(0)] * len(fb)
        col[index[keys]] = Q(1)
        adm_cols.append(col)
    rel_cols = relation_span_columns(k, n, m, index)
    sol = dense_solve(adm_cols + rel_cols, target)
    if sol is None:
        raise InputError("ideal-span oracle: inconsistent system")
    return {keys: sol[t] for t, keys in enumerate(admissible) if sol[t] != 0}


def oracle_element(k, n, word):
    """reduce_word packaged as a ConfElement for direct comparisons."""
    return confring.ConfElement(k, n, reduce_word(k, n, word))


# ---------------------------------------------------------------------------
# equivariant graph-ring oracle (odd ambient dimension 2n+1)


def graph_free_basis(ell, n, degree):
    """Keys (y_exps, q_exps) of the free ring Q[q][y_e] in a total degree."""
    edges = all_edges(ell)
    qring = PolyRing([(f"q{u}", 2) for u in range(1, n + 1)])
    out = []
    m = 0
    while 2 * n * m <= degree:
        rest = degree - 2 * n * m
        qexps = qring.exponents_of_degree(rest)
        for combo in combinations_with_replacement(range(len(edges)), m):
            yexps = [0] * len(edges)
            for t in combo:
                yexps[t] += 1
            for qe in qexps:
                out.append((tuple(yexps), qe))
        m += 1
    return out


def graph_relations(ell, n):
    """Relation elements as {(y_exps, q_exps): coeff}; all of degree 4n."""
    edges = all_edges(ell)
    eidx = {e: t for t, e in enumerate(edges)}
    nz = len(edges)

    def ymono(*involved):
        v = [0] * nz
        for e in involved:
            v[eidx[e]] += 1
        return tuple(v)

    pn_q = tuple([2] * n)  # (q_1 ... q_n)^2
    q0 = tuple([0] * n)
    rels = []
    for e in edges:
        rels.append({(ymono(e, e), q0): Q(1), (ymono(), pn_q): Q(-1)})
    for a, b, c in combinations(range(1, ell + 1), 3):
        rels.append({(ymono((a, b), (b, c)), q0): Q(1),
                     (ymono((a, c), (b, c)), q0): Q(-1),
                     (ymono((a, b), (a, c)), q0): Q(-1),
                     (ymono(), pn_q): Q(1)})
    return rels


def graph_relation_span(ell, n, degree, index):
    cols = []
    if degree < 4 * n:
        return cols
    multipliers = graph_free_basis(ell, n, degree - 4 * n)
    rels = graph_relations(ell, n)
    for my, mq in multipliers:
        for rel in rels:
            col = [Q(0)] * len(index)
            for (ry, rq), coeff in rel.items():
                key = (tuple(a + b for a, b in zip(my, ry)),
                       tuple(a + b for a, b in zip(mq, rq)))
                col[index[key]] += coeff
            cols.append(col)
    return cols


def graph_quotient_dimension(ell, n, degree):
    if degree % 2 == 1:
        return 0
    fb = graph_free_basis(ell, n, degree)
    if not fb:
        return 0
    index = {key: t for t, key in enumerate(fb)}
    cols = graph_relation_span(ell, n, degree, index)
    if not cols:
        return len(fb)
    return len(fb) - len(dense_rref(cols, len(fb))[1])


def graph_reduce(ell, n, factors, admissible):
    """Reduce a product of edge generators against the graph relation ideal.

    `factors` lists edges (i < j); `admissible` lists (graph edge tuple,
    q exponent tuple) pairs forming a basis of the target degree. Returns
    {admissible pair: coeff}.
    """
    edges = all_edges(ell)
    eidx = {e: t for t, e in enumerate(edges)}
    degree = 2 * n * len(factors)
    fb = graph_free_basis(ell, n, degree)
    index = {key: t for t, key in enumerate(fb)}
    yexps = [0] * len(edges)
    for e in factors:
        yexps[eidx[e]] += 1
    q0 = tuple([0] * n)
    target = [Q(0)] * len(fb)
    target[index[(tuple(yexps), q0)]] = Q(1)
    adm_cols = []
    for graph, qexps in admissible:
        col = [Q(0)] * len(fb)
        yv = [0] * len(edges)
        for e in graph:
            yv[eidx[e]] += 1
        col[index[(tuple(yv), tuple(qexps))]] = Q(1)
        adm_cols.append(col)
    rel_cols = graph_relation_span(ell, n, degree, index)
    sol = dense_solve(adm_cols + rel_cols, target)
    if sol is None:
        raise InputError("graph ideal-span oracle: inconsistent system")
    return {pair: sol[t] for t, pair in enumerate(admissible) if sol[t] != 0}


def poincare_polynomial(k, n):
    """Sum over degrees of dim H^d(Conf_k(R^n)) t^d, by enumerating the
    admissible basis (k! monomials): the cross-check of
    `confring.poincare_formula`."""
    ring = PolyRing([("t", 1)])
    out = ring.zero()
    for d in range(confring.top_degree(k, n) + 1):
        c = confring.dimension(k, n, d)
        if c:
            out = out + ring.monomial((d,), c)
    return out


# ---------------------------------------------------------------------------
# page differentials through the element algebra


def boundary_by_rewriting(ell, ambient, edges):
    """`equieven.boundary` through the rewrite engine: the sum over t of
    (-1)^t times the `confring.word_counts` of the word without its t-th
    edge, as {admissible word: nonzero int}."""
    out = {}
    for t in range(len(edges)):
        for word, c in confring.word_counts(ell, ambient, edges[:t] + edges[t + 1:]).items():
            v = out.get(word, 0) + (-c if t % 2 else c)
            if v:
                out[word] = v
            else:
                out.pop(word, None)
    return out


def page_cohomology_by_elimination(group, ell, n, max_degree):
    """`equieven.page_cohomology_dims` on the whole page: the page basis of
    each degree, d_2n between them from the integer monomial columns, and
    one rank per degree, with no splitting by word length."""
    equieven.check_capacity(group, ell, n, range(max_degree + 2))
    dims = {}
    img = 0  # rank of d_2n into the degree
    src = equieven.page_basis(group, ell, n, 0)
    for d in range(max_degree + 1):
        dst = equieven.page_basis(group, ell, n, d + 1)
        rank = Matrix._of_columns(equieven._monomial_columns(group, ell, n, src, dst),
                                  len(dst)).rank()
        dims[d] = len(src) - rank - img
        img, src = rank, dst
    return dims


def coordinates(elem, index):
    """Sparse coordinates {position: coefficient} of an element in a basis,
    given as the map `index` from each basis key to its position.

    A key is an edge word for rational coefficients, and an (edge word,
    exponent tuple) pair for polynomial ones.
    """
    vec = {}
    if elem.ring is None:
        monomials = elem.terms.items()
    else:
        monomials = [((edges, exps), v) for edges, c in elem.terms.items()
                     for exps, v in c.terms.items()]
    for key, v in monomials:
        if key not in index:
            raise InputError("element does not lie in the span of the given basis")
        vec[index[key]] = v
    return vec


def differential_matrix_by_elements(group, ell, n, degree, src, dst):
    """`equieven.differential_matrix` column by column: d2n of the page
    element of each basis key of `src`, in the coordinates of `dst`."""
    index = {key: t for t, key in enumerate(dst)}
    cols = [coordinates(equieven.d2n(equieven.zero(group, ell, n)
                                     .from_coordinates([key], [Q(1)])), index) for key in src]
    return from_columns(cols, nrows=len(dst))


# ---------------------------------------------------------------------------
# Weyl-fixed bases by group averaging


def weyl_page_action(w, a):
    """Weyl action on the torus page: coefficients twist, x picks up det."""
    sign = w.eps_product()
    return equieven.PageElement("torus", a.points, a.halfdim, {
        edges: weyl_action(w, c).scale(sign if len(edges) % 2 else 1)
        for edges, c in a.terms.items()})


def averaged_fixed_basis(group, basis, act):
    """Reduced echelon basis of the span of the group averages of `basis`.

    `basis` lists the monomials of one degree, as elements with polynomial
    coefficients, and `act(w, x)` is the ring map of w.
    """
    keys = [(edges, exps) for x in basis for edges, c in x.terms.items() for exps in c.terms]
    index = {key: t for t, key in enumerate(keys)}
    rows = []
    for x in basis:
        total = x.scale(0)
        for w in group:
            total = total + act(w, x)
        coords = coordinates(total.scale(Q(1, len(group))), index)
        if coords:
            rows.append([coords.get(t, Q(0)) for t in range(len(keys))])
    red, pivots = dense_rref(rows, len(keys))
    return [basis[0].from_coordinates(keys, row) for row in red[:len(pivots)]]


# ---------------------------------------------------------------------------
# spectral pages from the subquotient formula


def subspace_intersection(a: Matrix, b: Matrix):
    if a.nrows != b.nrows:
        raise InputError("ambient dimension mismatch")
    if a.ncols == 0 or b.ncols == 0:
        return Matrix.zero(a.nrows, 0)
    # Zassenhaus: reduce the rows (x | x) for x in A and (y | 0) for y in B;
    # the reduced rows whose left half vanishes are (0 | basis of A cap B)
    dim = a.nrows
    rows = [r | {dim + i: x for i, x in r.items()} for r in a.sparse_columns]
    red, pivots = _reduce(rows + [dict(r) for r in b.sparse_columns])
    return Matrix._of_columns([{i - dim: x for i, x in r.items()}
                               for r, p in zip(red, pivots) if p >= dim], dim)


def subspace_sum(a: Matrix, b: Matrix):
    """Canonical basis of span(a) + span(b)."""
    if a.nrows != b.nrows:
        raise InputError("ambient dimension mismatch")
    return col_space(a.sparse_columns + b.sparse_columns, dim=a.nrows)


def subspace_leq(a: Matrix, b: Matrix):
    """Whether span(a) lies in span(b): adding the columns of a to those of b
    leaves the canonical span of b as it is."""
    if a.nrows != b.nrows:
        raise InputError("ambient dimension mismatch")
    return subspace_sum(a, b) == col_space(b)


def subspace_preimage(d: Matrix, s: Matrix):
    """Canonical basis of {x : d*x in span(s)} inside the source of d."""
    if d.nrows != s.nrows:
        raise InputError("ambient dimension mismatch")
    # pairs (x, y) with d x + s y = 0; the reduced kernel vectors that lead
    # inside x restrict to the reduced basis of the preimage
    n = d.ncols
    both = Matrix._of_columns(d.sparse_columns + s.sparse_columns, d.nrows)
    return from_columns([{i: x for i, x in v.items() if i < n}
                         for v in both.kernel_basis().sparse_columns if min(v) < n], nrows=n)


def cycles(A, r, i, n):
    """Z_r(i, n) = W_i A^n cap d^(-1)(W_(i-r) A^(n+1))."""
    return subspace_intersection(A.W(n, i),
                                 subspace_preimage(A.diff(n), A.W(n + 1, i - r)))


def subquotient_page(A, r):
    """The r-th page as the subquotients

        E_r(i, n) = Z_r(i, n) / (Z_(r-1)(i-1, n) + d Z_(r-1)(i+r-1, n-1)),

    one `Quotient` per spot, each kept on the page as its dimension; the
    reference for `specseq.page`."""
    if r < 0:
        raise InputError("page index must be non-negative")
    Z = cache(partial(cycles, A))
    spots = {}
    diffs = {}
    phis = {} if A.phi is not None else None
    for n in A.degrees():
        for i in range(A.top_level + 1):
            z = Z(r, i, n)
            if z.ncols == 0:
                continue
            term1 = Z(r - 1, i - 1, n) if r >= 1 else A.W(n, i - 1)
            if n - 1 in A.spaces:
                src = Z(r - 1, i + r - 1, n - 1) if r >= 1 else A.W(n - 1, i + r - 1)
                # d src lies in W_i A^n already: src is W_(i-1) at r = 0 and
                # lies in d^(-1) W_i past it
                term2 = A.diff(n - 1) * src
            else:
                term2 = Matrix.zero(A.dim(n), 0)
            quo = Quotient(z, subspace_sum(term1, term2))
            if quo.dim:
                spots[(i, n)] = quo
    for (i, n), quo in spots.items():
        target = spots.get((i - r, n + 1))
        if target is not None:
            diffs[(i, n)] = target.matrix_of(A.diff(n) * quo.reps)
        if phis is not None:
            phis[(i, n)] = quo.matrix_of(A.aut(n) * quo.reps)
    return SpectralPage(r, {spot: quo.dim for spot, quo in spots.items()}, diffs, phis)


def subquotient_decalage(A):
    """Dec W_i A^n = Z_1(i - n, n), each level by `cycles`; the reference for
    `specseq.decalage`."""
    new_top = A.top_level + max(A.max_degree(), 0) + 1
    filtration = {n: [cycles(A, 1, i - n, n) for i in range(new_top + 1)]
                  for n in A.degrees()}
    return FilteredComplex(A.spaces, A.d, filtration,
                           None if A.phi is None else dict(A.phi))


def validate_by_levels(A):
    """`FilteredComplex.validate` one level at a time: every check of
    nestedness, of d and of phi preserving the filtration is a `subspace_leq`
    per level; the reference for the adapted-basis checks."""
    for n in A.spaces:
        mat = A.diff(n)
        if (mat.nrows, mat.ncols) != (A.dim(n + 1), A.dim(n)):
            raise InputError(f"differential shape mismatch at degree {n}")
        if not (A.diff(n + 1) * mat).is_zero():
            raise InputError(f"d o d != 0 at degree {n}")
        levels = A.filtration.get(n)
        if not levels:
            raise InputError(f"missing filtration at degree {n}")
        for t in range(len(levels) - 1):
            if not subspace_leq(levels[t], levels[t + 1]):
                raise InputError(f"filtration not nested at degree {n}")
        if levels[-1].ncols != A.dim(n):
            raise InputError(f"filtration not exhaustive at degree {n}")
        for t, lvl in enumerate(levels):
            if not subspace_leq(mat * lvl, A.W(n + 1, t)):
                raise InputError(f"differential does not preserve W_{t} at degree {n}")
        if A.phi is not None:
            aut = A.aut(n)
            if (aut.nrows, aut.ncols) != (A.dim(n), A.dim(n)):
                raise InputError(f"automorphism shape mismatch at degree {n}")
            if aut.rank() != A.dim(n):
                raise InputError(f"automorphism not invertible at degree {n}")
            if not (A.diff(n) * aut == A.aut(n + 1) * A.diff(n)):
                raise InputError(f"automorphism does not commute with d at {n}")
            for t, lvl in enumerate(levels):
                if not subspace_leq(aut * lvl, lvl):
                    raise InputError(f"automorphism does not preserve W_{t} at degree {n}")
    return True


# ---------------------------------------------------------------------------
# formality witnesses inside the generalized eigenspaces


def witness_by_eigenspaces(A, spec):
    """`specseq.formality_witness` by one Kronecker solve per degree inside
    the generalized lam-eigenspace of the cycles, with Z, B and H rebuilt by
    `cohomology_quotient`; the reference for the barcode route. Where
    Hom_phi(H^n, B^n) != 0 the two may pick different sections."""
    if A.phi is None:
        raise InputError("formality witness needs an automorphism")
    base = canonical_filtration(A.spaces, A.d, A.phi)
    check = purity_check(base, WeightSpec(spec.xi, spec.alpha, 0))
    if not check.ok:
        raise PurityViolation(
            f"purity fails at bidegree {check.violation[0]}: {check.violation[2]}",
            spot=check.violation[0], factor=check.violation[1])
    inclusions = {}
    induced = {}
    for n in range(base.max_degree() + 1):
        dim = base.dim(n)
        if dim == 0:
            continue
        z, quo = cohomology_quotient(base, n)
        if quo.dim == 0:
            continue
        w = spec.alpha * n
        lam = spec.xi ** int(w)
        phi_n = base.aut(n)
        # restrict to the generalized lam-eigenspace; equivariance forces it
        proj = eigen_projector(phi_n, lam)
        z_lam = subspace_intersection(z, col_space(proj))
        phi_bar = quo.matrix_of(phi_n * quo.reps)
        section = solve_equivariant_section(z_lam, quo, phi_n, phi_bar)
        if section is None:
            raise WitnessError(
                f"no phi-equivariant section exists in degree {n}: phi has a "
                f"Jordan block linking the boundaries to the cohomology")
        inclusions[n] = section
        induced[n] = phi_bar
    return certified_witness(base, inclusions, induced)


def solve_equivariant_section(z_lam: Matrix, quo: Quotient, phi_n: Matrix,
                              phi_bar: Matrix):
    """Solve for S with columns in span(z_lam), coords(S) = id, phi S = S phi_bar.

    The unknown is X with S = z_lam * X; both constraint families are linear
    in X, so existence reduces to one exact solve. Returns None when the
    system is inconsistent (no strict equivariant section exists).
    """
    h = quo.dim
    zc = z_lam.ncols
    if zc == 0:
        return None
    # unknown X[c, k] is c * h + k; first coords(S) = id, then phi S = S phi_bar
    coords = quo.matrix_of(z_lam).sparse_rows()
    rows = [{c * h + k: x for c, x in coords[t].items()} for k in range(h) for t in range(h)]
    rhs = [Q(1) if t == k else Q(0) for k in range(h) for t in range(h)]
    phi_z, z_rows = (phi_n * z_lam).sparse_rows(), z_lam.sparse_rows()
    bar_cols = phi_bar.sparse_columns
    for k in range(h):
        for a, z_row in enumerate(z_rows):
            row = {c * h + k: x for c, x in phi_z[a].items()}
            for t, coeff in bar_cols[k].items():
                for c, x in z_row.items():
                    row[c * h + t] = row.get(c * h + t, Q(0)) - coeff * x
            rows.append(row)
            rhs.append(Q(0))
    sol = Matrix(rows, ncols=zc * h).solve(rhs)
    if sol is None:
        return None
    return z_lam * Matrix([sol[c * h:(c + 1) * h] for c in range(zc)])


def eigen_projector(m: Matrix, lam):
    """Projector onto the generalized lam-eigenspace of m, along the sum of
    the other generalized eigenspaces (the zero matrix when lam is not an
    eigenvalue).

    With N = (m - lam)^k for any k >= dim, Q^dim = ker N + im N (Fitting), and
    the projector sends each vector to its ker N part in that splitting.
    """
    lam = rat(lam)
    n = m.nrows
    power, k = m - Matrix.identity(n).scale(lam), 1
    while k < n:
        power, k = power * power, 2 * k
    ker = power.kernel_basis()
    return ker * Quotient(ker, col_space(power)).matrix_of(Matrix.identity(n))


def charpoly_without(m: Matrix, lam):
    """The characteristic polynomial of m with every factor t - lam divided
    out, by synthetic division while the remainder is 0; the reference for
    `Matrix.off_eigenvalue(lam).charpoly()`."""
    lam = rat(lam)
    p = m.charpoly()
    while len(p) > 1:
        acc, quo = Q(0), []
        for c in reversed(p):
            acc = acc * lam + c
            quo.append(acc)
        if acc:
            break
        p = tuple(reversed(quo[:-1]))
    return p
