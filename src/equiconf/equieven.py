"""The even-dimensional page model: H*(BG) (x) H*(Conf_l(R^2n)) with d_2n.

One differential graded algebra per structure group. The coefficient ring and
the image E of the configuration generators under the differential are:

    torus   Q[q_1..q_n],            E = q_1...q_n
    so      Q[p_1..p_{n-1}, e],     E = e
    u       Q[c_1..c_n],            E = c_n

d_2n is the unique coefficient-linear derivation with d(x_ij) = E; the full
orthogonal group is handled as the fixed subspace of the sign involution
x_ij -> -x_ij, e -> -e on the "so" page (forced by d-equivariance). K denotes
the kernel of the differential restricted to the configuration column; the
equivariant cohomology models are  Q[p_1..p_{n-1}] (x) K  for SO(2n),
Q[p_1..p_{n-1}] (x) K^{C2}  for O(2n) (even word length), and
Q[c_1..c_{n-1}] (x) K  for U(n).

E is a monomial for every group, so d(g (x) m) = dg (x) mE for an edge word
g and a coefficient monomial m, where dg is the edge-removal derivation
`boundary`. Removing an edge from an admissible word leaves an admissible
word, so the boundary of a basis word is read off it with signs +-1 and
no rewriting; `oracles.boundary_by_rewriting` keeps the route through the
normal form of each sub-word. Every matrix of d_2n (`differential_matrix`)
or of the boundary alone (`kernel_K`, the page cohomology counts) is built
from these integer columns, d_2n shifting the coefficient exponents by E's;
the ranks and kernels eliminate them as `int` rows, and
`differential_matrix` returns them as they are, an `int` matrix. `d2n` and
`PageElement` are the element algebra, and `oracles` builds the matrices
through them as the reference. The page is a tensor product, words (x)
coefficient monomials, and so is its Weyl-fixed torus part, words (x) orbit
rows. E is a non-zero-divisor, so d_2n = boundary (x) E is block diagonal on
either, with rank rank(boundary_w) per coefficient basis vector:
`page_cohomology_dims` and `fixed_page_cohomology_dims` rank one `boundary`
matrix per word length (`_boundaries`, which `kernel_K` shares) and count
the rest.

`model_dims` counts the model instead of building it, for both
`verify_page_cohomology` and the `even hilbert` command. For l >= 2 the
edge-removal derivation is exact: h(a) = x_12 a is a contracting homotopy,
dh + hd = id (Arnold, Math. Notes 1969; F. Cohen, LNM 533, 1976). So K in
word length m has dimension K_m = e_m - K_(m-1), K_0 = 1, for e_m the
number of admissible words of m edges (for O(2n) only the even m count),
and the model has dimension sum_m K_m * dim Q[p]_(d-(2n-1)m) in degree d.
The count enumerates no basis and ranks no matrix. `kernel_K` and
`equivariant_cohomology_even` stay eliminations, and are the count's
references; so is `page_cohomology_dims`, which eliminates each boundary_w
and does not use exactness. `oracles.page_cohomology_by_elimination` ranks
d_2n on the whole page, one elimination per degree, as its reference.

Every entry point that builds a basis (`kernel_K`,
`equivariant_cohomology_even`, `as_filtered_complex`,
`weyl_fixed_page_basis`) first sizes each degree it will enumerate by the
closed form `confring.graded_dimensions`, in one pass per call, and refuses
a degree past `charclasses.MODEL_BOUND` monomials with a `CapacityError`;
`model_dims`, `page_cohomology_dims` and `fixed_page_cohomology_dims` build
no page basis, but keep the refusals of the page they count. The
enumerators `page_basis` and `confring.basis_keys` stay unchecked: they run
hundreds of times per model. `kernel_K` and the Weyl-fixed bases check the
element header once per call and build their elements unchecked
(`_unchecked`): every term is an admissible word with a nonzero coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

from . import charclasses, confring
from .charclasses import GroupSpec, WeylElement, char_ring, orbit_rows, torus_ring, weyl_group
from .errors import InputError
from .exactalg import Matrix, PolyRing, Polynomial, accumulate, rat, shift_terms


def page_ring(group, n):
    if group == "torus":
        return torus_ring(n)
    if group in ("so", "o"):
        return char_ring(GroupSpec("so_even", n))
    if group == "u":
        return char_ring(GroupSpec("u", n))
    raise InputError(f"unknown page group {group!r}")


def euler_image(group, n):
    """The coefficient E with d(x_ij) = E for the given structure group."""
    ring = page_ring(group, n)
    if group == "torus":
        return ring.monomial((1,) * n)
    if group in ("so", "o"):
        return ring.gen("e")
    return ring.gen(f"c{n}")


class PageElement(confring.EdgeCombination):
    """Element of the page algebra: coefficient polynomials times x-monomials."""

    __slots__ = ("group", "points", "halfdim")
    FIELDS = (("group", str), ("points", int), ("halfdim", int))

    def __init__(self, group, points, halfdim, terms):
        if group not in ("torus", "so", "u"):
            raise InputError("page elements live in the torus, so, or u page")
        if halfdim < 1:
            raise InputError("halfdim must be at least 1")
        self.group = group
        self.points = points
        self.halfdim = halfdim
        super().__init__(terms)

    @classmethod
    def _unchecked(cls, group, points, halfdim, terms):
        """The element of a header checked by its builder and admissible, nonzero terms."""
        a = object.__new__(cls)
        a.group, a.points, a.halfdim, a.terms = group, points, halfdim, terms
        return a

    @property
    def ambient(self):
        return 2 * self.halfdim

    @property
    def ring(self):
        return page_ring(self.group, self.halfdim)


def zero(group, ell, n):
    """The zero page element; the "o" page is the fixed part of the "so" page."""
    return PageElement("so" if group == "o" else group, ell, n, {})


def unit(group, ell, n):
    return PageElement(group, ell, n, {(): page_ring(group, n).one()})


def x_generator(group, ell, n, i, j):
    edge, sign = confring.normalize_generator(ell, i, j, 2 * n)
    return PageElement(group, ell, n, {(edge,): page_ring(group, n).const(sign)})


def d2n(a: PageElement):
    """The derivation with d(coefficients) = 0 and d(x_ij) = E, by Leibniz;
    E is a monomial, so c * E is an exponent shift of c."""
    (shift,) = euler_image(a.group, a.halfdim).terms
    ring = a.ring
    terms = {}
    for edges, c in a.terms.items():
        c = Polynomial(ring, shift_terms(c.terms, shift))
        for t in range(len(edges)):
            accumulate(terms, {edges[:t] + edges[t + 1:]: -c if t % 2 else c})
    return a._new(terms)


# ---------------------------------------------------------------------------
# page bases and the sign involution for the full orthogonal group


def check_capacity(group, ell, n, degrees):
    """Refuse a `group` page (None: the configuration column) past MODEL_BOUND."""
    ring = PolyRing(()) if group is None else page_ring(group, n)
    confring.check_args(ell, 2 * n)
    sizes = confring.graded_dimensions(ell, 2 * n - 1, ring, max(degrees, default=0))
    for d in degrees:
        charclasses.check_basis_size(sizes[d] if d >= 0 else 0, d, charclasses.MODEL_BOUND)


def page_basis(group, ell, n, degree):
    """Monomial basis [(edge tuple, coeff exponents)] of the page in a degree.

    For group "o" only the monomials fixed by the sign involution
    (e-exponent + word length even) are kept.
    """
    ring = page_ring(group, n)
    fiber = 2 * n - 1
    out = []
    for m in _word_lengths(ell, n, degree):
        graphs = confring.basis_keys(ell, 2 * n, fiber * m)
        for exps in ring.exponents_of_degree(degree - fiber * m):
            if group != "o" or (exps[ring.names.index("e")] + m) % 2 == 0:
                for g in graphs:
                    out.append((g, exps))
    return out


def _word_lengths(ell, n, degree):
    """The word lengths of the page up to `degree`: 0 up to the top one, ell - 1,
    as far as the fiber degree 2n - 1 allows."""
    return range(min(max(ell - 1, 0), degree // (2 * n - 1)) + 1)


def page_dimension(group, ell, n, degree):
    return len(page_basis(group, ell, n, degree))


def boundary(edges):
    """The edge-removal derivation on an admissible word (a basis key):
    the sum over t of (-1)^t times the word without its t-th edge, as
    {word: +-1}. Removing an edge from an admissible word leaves one, so no
    rewriting is needed; `oracles.boundary_by_rewriting` takes the normal
    form of each sub-word instead, and is the reference."""
    return {edges[:t] + edges[t + 1:]: -1 if t % 2 else 1 for t in range(len(edges))}


def _boundaries(ell, n, max_degree):
    """(words, `int` matrix of `boundary` on them) for each word length w of
    `_word_lengths`: the admissible words of w edges and the columns of their
    boundaries in the words of w - 1 edges; w = 0 has one zero column."""
    below = {}
    for w in _word_lengths(ell, n, max_degree):
        words = confring.basis_keys(ell, 2 * n, (2 * n - 1) * w)
        yield words, Matrix._of_columns([{below[word]: c for word, c in boundary(key).items()}
                                         for key in words], len(below))
        below = {word: t for t, word in enumerate(words)}


def _tensor_dims(ell, n, max_degree, coefficients):
    """H(sum over w of Words_w (x) C_w, boundary (x) E) in degrees 0..max_degree,
    for C_w of dimension `coefficients(c, w & 1)` in degree c and E a
    non-zero-divisor of the coefficients, so that multiplying by it is
    injective: d_2n out of degree d has rank sum_w rank(boundary_w) times
    dim C_w in degree d - (2n-1)w. One `int` elimination per word length."""
    fiber = 2 * n - 1
    dims = [0] * (max_degree + 2)
    for w, (words, matrix) in enumerate(_boundaries(ell, n, max_degree)):
        rank = matrix.rank()
        # each coefficient adds e_w - rank_w in its degree, and takes rank_w off the next
        for d in range(fiber * w, max_degree + 1):
            r = coefficients(d - fiber * w, w & 1)
            dims[d] += (len(words) - rank) * r
            dims[d + 1] -= rank * r
    return dict(enumerate(dims[:-1]))


def _monomial_columns(group, ell, n, src, dst):
    """d_2n of each page basis key of `src` as {position in `dst`: int}:
    d(g (x) m) = dg (x) mE, with E's exponents added to m's. The boundary
    of each edge word is worked out once per call."""
    (shift,) = euler_image(group, n).terms
    index = {key: t for t, key in enumerate(dst)}
    boundaries = {}
    cols = []
    for edges, exps in src:
        if edges not in boundaries:
            boundaries[edges] = boundary(edges)
        target = tuple(map(add, exps, shift))
        cols.append({index[word, target]: c for word, c in boundaries[edges].items()})
    return cols


def differential_matrix(group, ell, n, degree, src, dst):
    """Matrix of d_2n from the degree slice to the next one; `src` and `dst`
    are the page bases of the two degrees."""
    return Matrix._of_columns(_monomial_columns(group, ell, n, src, dst), len(dst))


def page_cohomology_dims(group, ell, n, max_degree):
    """Degreewise dimension of H(page, d_2n), in tensor form: the page is the
    sum over word lengths w of Words_w (x) Q[coefficients], and E is a
    monomial, so a non-zero-divisor, and d_2n = boundary (x) E is ranked by
    `_tensor_dims`, with no page basis. For "o" the coefficient monomials of
    Words_w are those with e-exponent + w even: Q[p_1..p_(n-1), e^2] for even
    w, e times it for odd w. `oracles.page_cohomology_by_elimination` ranks
    d_2n on the whole page instead, and is the reference."""
    check_capacity(group, ell, n, range(max_degree + 2))
    if group == "o":
        even = char_ring(GroupSpec("o_even", n)).monomial_counts(max_degree)
        counts = (even, [0] * (2 * n) + even)
    else:
        counts = (page_ring(group, n).monomial_counts(max_degree),) * 2
    return _tensor_dims(ell, n, max_degree, lambda c, odd: counts[odd][c])


# ---------------------------------------------------------------------------
# the configuration-column kernel K and the equivariant models


@dataclass(frozen=True)
class KernelSummary:
    """Degreewise basis of K = ker(d_2n) inside H*(Conf_l(R^2n))."""

    points: int
    halfdim: int
    max_degree: int
    dims: dict
    basis: dict  # degree -> list of ConfElement


def kernel_K(ell, n, max_degree):
    """K is cut out by the edge-removal derivation alone (d(x_ij) = E): in
    each degree d > 0, the reduced kernel of the `boundary` of the basis keys
    of H^d(Conf_l(R^2n)) into degree d - (2n-1), eliminated as `int` rows.
    The derivation is exact, so `model_dims` counts these dimensions."""
    check_capacity(None, ell, n, range(max_degree + 1))
    fiber = 2 * n - 1
    dims = {0: 1}
    basis = {0: [confring.unit(ell, 2 * n)]}  # the one checked header of the call
    make = confring.ConfElement._unchecked
    for w, (words, matrix) in enumerate(_boundaries(ell, n, max_degree)):
        if w and (kern := matrix.kernel_basis()).ncols:
            dims[fiber * w] = kern.ncols
            basis[fiber * w] = [make(ell, 2 * n, {words[p]: c for p, c in v.items()})
                                for v in kern.sparse_columns]
    return KernelSummary(ell, n, max_degree, dims, basis)


def kernel_even_part(summary: KernelSummary):
    """K^(C2): the intersection of K with the even word-length degrees."""
    fiber = 2 * summary.halfdim - 1
    dims = {}
    basis = {}
    for d, elems in summary.basis.items():
        if (d // fiber) % 2 == 0:
            dims[d] = summary.dims[d]
            basis[d] = elems
    return KernelSummary(summary.points, summary.halfdim, summary.max_degree,
                         dims, basis)


@dataclass(frozen=True)
class EquivariantModel:
    """Model basis of the even equivariant cohomology, embedded in the page."""

    group: str
    points: int
    halfdim: int
    max_degree: int
    dims: dict
    elements: dict = field(repr=False)  # degree -> list of (label, PageElement)


def model_coefficient_ring(group, n):
    """The subring of coefficients surviving to the answer."""
    if group in ("so", "o"):
        return PolyRing([(f"p{u}", 4 * u) for u in range(1, n)])
    if group == "u":
        return PolyRing([(f"c{u}", 2 * u) for u in range(1, n)])
    raise InputError("models exist for the so, o, and u pages")


def equivariant_cohomology_even(group, ell, n, max_degree):
    """Basis of the equivariant cohomology model, with its page embedding."""
    if group not in ("so", "o", "u"):
        raise InputError("models exist for the so, o, and u pages")
    check_capacity(group, ell, n, range(max_degree + 1))
    if ell <= 1:
        # a point: the differential vanishes and the answer is all of H*(BG)
        dims, elements = {}, {}
        for d in range(max_degree + 1):
            items = []
            for key in page_basis(group, ell, n, d):
                elem = zero(group, ell, n).from_coordinates([key], [1])
                items.append((str(elem), elem))
            if items:
                dims[d] = len(items)
                elements[d] = items
        return EquivariantModel(group, ell, n, max_degree, dims, elements)
    summary = kernel_K(ell, n, max_degree)
    if group == "o":
        summary = kernel_even_part(summary)
    sub = model_coefficient_ring(group, n)
    ring = page_ring(group, n)
    images = {name: ring.gen(name) for name in sub.names}
    # the labelled coefficient monomials of each degree, in the page ring
    coeffs = [[(str(sub.monomial(exps)) if any(exps) else "1",
                sub.monomial(exps).substitute(ring, images))
               for exps in sub.exponents_of_degree(cd)] for cd in range(max_degree + 1)]
    dims = {}
    elements = {}
    page_group = "so" if group == "o" else group
    for d in range(max_degree + 1):
        out = []
        for cd in range(0, d + 1):
            kd = d - cd
            if kd not in summary.dims:
                continue
            for coeff_label, coeff in coeffs[cd]:
                for t, kelem in enumerate(summary.basis[kd]):
                    label = f"{coeff_label} * K{kd}[{t}]"
                    embedded = PageElement(
                        page_group, ell, n,
                        {edges: coeff.scale(c) for edges, c in kelem.terms.items()})
                    out.append((label, embedded))
        if out:
            dims[d] = len(out)
            elements[d] = out
    return EquivariantModel(group, ell, n, max_degree, dims, elements)


@dataclass(frozen=True)
class PageReport:
    """Comparison of page cohomology against the tensor model, degreewise."""

    group: str
    points: int
    halfdim: int
    rows: tuple  # (degree, page dim, model dim)

    @property
    def passed(self):
        return all(a == b for _, a, b in self.rows)

    def to_json(self):
        return {"group": self.group, "points": self.points,
                "halfdim": self.halfdim, "passed": self.passed,
                "rows": [{"degree": d, "page": a, "model": b, "match": a == b}
                         for d, a, b in self.rows]}


def model_dims(group, ell, n, max_degree):
    """The nonzero `equivariant_cohomology_even(...).dims`, counted as the
    module docstring says: K_m = e_m - K_(m-1) by exactness, spaced by the
    fiber degree 2n-1 and convolved with the coefficient counts. For
    ell <= 1, d = 0 and the model is H*(BG) itself."""
    if group not in ("so", "o", "u"):
        raise InputError("models exist for the so, o, and u pages")
    check_capacity(group if ell <= 1 else None, ell, n, range(max_degree + 1))
    kernel = [1]
    for e in confring.edge_word_counts(ell)[1:]:
        kernel.append(e - kernel[-1])
    if group == "o":
        kernel = [k if m % 2 == 0 else 0 for m, k in enumerate(kernel)]
    ring = model_coefficient_ring(group, n) if ell > 1 else \
        char_ring(GroupSpec({"so": "so_even", "o": "o_even", "u": "u"}[group], n))
    dims = confring.spaced_dimensions(kernel, 2 * n - 1, ring, max_degree)
    return {d: x for d, x in enumerate(dims) if x}


def verify_page_cohomology(group, ell, n, max_degree):
    """Two independent routes to the same dimensions; never silently passes.
    The model dims are counted by `model_dims`, from the exactness of the
    configuration boundary, with no basis and no matrix. The page dims are
    read off the rank of each boundary_w, eliminated, by
    `page_cohomology_dims`, which does not use exactness."""
    model = model_dims(group, ell, n, max_degree)
    page = page_cohomology_dims(group, ell, n, max_degree)
    rows = tuple((d, page.get(d, 0), model.get(d, 0)) for d in range(max_degree + 1))
    return PageReport(group, ell, n, rows)


# ---------------------------------------------------------------------------
# torus restriction and the Weyl-fixed page for SO(2n)/O(2n)


def as_filtered_complex(group, ell, n, max_degree, xi=None):
    """Package the page dga as a filtered complex, filtered by fiber degree.

    Degrees above max_degree are truncated, so only conclusions below
    max_degree - (2n-1) are safe near the top. With `xi` an automorphism is
    attached acting on a monomial of coefficient degree c and word length w
    by xi^(c + 2n*w), the weight pattern of the motivic-style scaling.
    """
    from .specseq import FilteredComplex

    check_capacity(group, ell, n, range(max_degree + 1))
    fiber = 2 * n - 1
    spaces = {}
    bases = {}
    for d in range(max_degree + 1):
        bases[d] = page_basis(group, ell, n, d)
        if bases[d]:
            spaces[d] = len(bases[d])
    dmats = {}
    for d in range(max_degree):
        if spaces.get(d) and spaces.get(d + 1):
            dmats[d] = differential_matrix(group, ell, n, d, bases[d], bases[d + 1])
    top_level = fiber * max(ell - 1, 0)
    filtration = {}
    ring = page_ring(group, n)
    for d, basis in bases.items():
        if not basis:
            continue
        # W_i holds the words of length at most i // fiber: one Matrix per
        # length, repeated as the same object for the constructor to share
        levels = [Matrix._of_columns([{t: 1} for t, (edges, _) in enumerate(basis)
                                      if len(edges) <= m], len(basis))
                  for m in range(top_level // fiber + 1)]
        filtration[d] = [levels[i // fiber] for i in range(top_level + 1)]
    phi = None
    if xi is not None:
        xi = rat(xi)
        phi = {}
        for d, basis in bases.items():
            if not basis:
                continue
            # a monomial of word length w has coefficient degree d - fiber * w
            phi[d] = Matrix([{t: xi ** (d - fiber * len(edges) + 2 * n * len(edges))}
                             for t, (edges, _) in enumerate(basis)], ncols=len(basis))
    return FilteredComplex(spaces, dmats, filtration, phi)


def torus_restriction_even(a: PageElement):
    """Apply the classifying-space restriction to the coefficients."""
    if a.group == "torus":
        return a
    n = a.halfdim
    source = GroupSpec("so_even" if a.group == "so" else "u", n)
    from .charclasses import torus_images
    images = torus_images(source)
    ring = torus_ring(n)
    return PageElement("torus", a.points, n,
                       {e: c.substitute(ring, images) for e, c in a.terms.items()})


def weyl_fixed_page_basis(family, ell, n, degree, convention="standard"):
    """Echelonized basis of the W(G(2n))-fixed torus page in one degree; W
    twists the coefficients and scales each x by det = prod eps: the
    `orbit_rows` times the words of their length, in the `page_basis` order."""
    check_capacity("torus", ell, n, (degree,))
    fiber = 2 * n - 1
    lengths = _word_lengths(ell, n, degree)
    rows = _page_rows(family, n, convention, [(degree - fiber * m, m & 1) for m in lengths])
    out = []
    for m in lengths:
        words = confring.basis_keys(ell, 2 * n, fiber * m)
        for row in rows[degree - fiber * m, m & 1]:
            poly = Polynomial(torus_ring(n), row)
            out.extend(PageElement._unchecked("torus", ell, n, {edges: poly}) for edges in words)
    if out:
        zero("torus", ell, n)  # the header check of a built element, once per call
    return out


def _page_rows(family, n, convention, slices):
    """{(coefficient degree, word-length parity): `orbit_rows`} of the torus page."""
    if family not in ("so_even", "o_even"):
        raise InputError("fixed pages are computed for so_even or o_even")
    exponents = [(torus_ring(n).exponents_of_degree(c), odd) for c, odd in slices]
    return dict(zip(slices, orbit_rows(weyl_group(GroupSpec(family, n), convention), exponents,
                                       WeylElement.eps_product)))


def fixed_page_cohomology_dims(family, ell, n, max_degree, convention="standard"):
    """H(W-fixed torus page, d_2n) dimensions. The page is the sum over word
    lengths w of Words_w (x) Q[q]^(det^w), with d_2n = boundary (x) E, for
    E = q_1...q_n a det-semi-invariant non-zero-divisor: `_tensor_dims` with
    the orbit rows in coefficient degree c at parity w as C_w."""
    check_capacity("torus", ell, n, range(max_degree + 2))
    fiber = 2 * n - 1
    # parity 0 reaches every coefficient degree at w = 0, parity 1 at w = 1
    parities = min(len(_word_lengths(ell, n, max_degree)), 2)
    rows = _page_rows(family, n, convention, [(c, odd) for odd in range(parities)
                                              for c in range(max_degree - fiber * odd + 1)])
    return _tensor_dims(ell, n, max_degree, lambda c, odd: len(rows[c, odd]))
