"""Torus-equivariant cohomology of Conf_l(R^(2n+1)) as a graph calculus.

Elements are Q[q_1..q_n]-combinations of simple graphs on l labeled vertices;
an edge {i,j} is the class y_ij of degree 2n, antisymmetric in its indices.
Normal form: every vertex is the larger endpoint of at most one edge. The two
rewrite rules are the double-edge rule (drop both copies, multiply by
p_n = (q_1...q_n)^2) and, for a repeated maximum i < k < j,

    y_ij y_kj = y_ik y_kj - y_ik y_ij + p_n * (residual graph).

This is the presentation of `confring` (degree 2n is even, so edges
commute) with a p_n term added to its square and three-term rules, and
`confring.word_counts` with `pair` reduces it. Both rules have coefficients
+-1 and trade two edges for each p_n, so a word reduces with integer
multiplicities and no polynomial at all: an output graph that lost 2k edges
carries p_n^k. `EquiElement` selects the pair rule by its `pair_exps`;
`reduce_graph` and its products apply each coefficient once to these
counts, with p_n^k an exponent shift by (2k, ..., 2k).

Weyl elements act on the q-coefficients through their signed permutation and
scale each edge by eta * (product of eps); graphs themselves are fixed. That
sign is +1 on the special orthogonal subgroup and -1 on the residual central
reflection, matching the two-pole geometry of the 2-point Borel construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import charclasses, confring
from .charclasses import GroupSpec, WeylElement, orbit_rows, torus_ring, weyl_action, weyl_group
from .errors import InputError
from .exactalg import Polynomial


def qring(n):
    return torus_ring(n)


def p_top(n):
    """p_n = (q_1 ... q_n)^2, the image of the top Pontryagin class."""
    return qring(n).monomial((2,) * n)


def normalize_edge(ell, i, j):
    """Canonical (edge, sign) for y_ij; y_ji = -y_ij."""
    if not (1 <= i <= ell and 1 <= j <= ell) or i == j:
        raise InputError(f"edge index out of range: ({i}, {j}) with {ell} points")
    return ((i, j), 1) if i < j else ((j, i), -1)


def reduce_graph(ell, n, edges, coeff, rng=None):
    """Normal-form terms of a single multigraph with a polynomial coefficient:
    {admissible edge tuple: Polynomial}, the pair-rule `word_counts` (with
    the same `rng`) times coeff, p_n^k shifting its exponents by (2k, ..., 2k)."""
    edges = confring.check_edges(ell, edges)
    if coeff.ring != qring(n):
        raise InputError("polynomials from different rings")
    if coeff.is_zero():
        return {}
    return zero(ell, n)._reduce([(edges, coeff.terms)], rng).terms


@dataclass(frozen=True)
class GraphMonomial:
    """An admissible graph together with a monomial in the q variables."""

    points: int
    halfdim: int
    edges: tuple
    q_exps: tuple

    def as_element(self):
        ring = qring(self.halfdim)
        return EquiElement(self.points, self.halfdim,
                           {self.edges: ring.monomial(self.q_exps)})


class EquiElement(confring.EdgeCombination):
    """Normal-form element of the torus-equivariant configuration ring."""

    __slots__ = ("points", "halfdim")
    FIELDS = (("points", int), ("halfdim", int))
    letter = "y"

    def __init__(self, points, halfdim, terms):
        if halfdim < 1:
            raise InputError("halfdim must be at least 1")
        self.points = points
        self.halfdim = halfdim
        super().__init__(terms)

    @classmethod
    def _unchecked(cls, points, halfdim, terms):
        """The element of a header checked by its builder and admissible, nonzero terms."""
        a = object.__new__(cls)
        a.points, a.halfdim, a.terms = points, halfdim, terms
        return a

    @property
    def ambient(self):
        return 2 * self.halfdim + 1

    @property
    def ring(self):
        return qring(self.halfdim)

    @property
    def pair_exps(self):
        return (2,) * self.halfdim  # p_n

    def to_dot(self):
        """One DOT graph per monomial; the coefficient is the graph label."""
        blocks = []
        for t, (edges, c) in enumerate(self.sorted_terms()):
            lines = [f"graph term{t} {{", f'  label="{c}";']
            for v in range(1, self.points + 1):
                lines.append(f"  {v};")
            for i, j in edges:
                lines.append(f"  {i} -- {j};")
            lines.append("}")
            blocks.append("\n".join(lines))
        return "\n".join(blocks) if blocks else "graph zero {\n}"


def unit(ell, n):
    return EquiElement(ell, n, {(): qring(n).one()})


def zero(ell, n):
    return EquiElement(ell, n, {})


def generator(ell, n, i, j):
    edge, sign = normalize_edge(ell, i, j)
    return EquiElement(ell, n, {(edge,): qring(n).const(sign)})


def torus_basis(ell, n, degree):
    """All (admissible graph, q-monomial) pairs of the given total degree;
    the words of a length with no q-monomial are never enumerated."""
    return [GraphMonomial(ell, n, edges, e) for m, qexps in enumerate(_slices(ell, n, degree))
            if qexps for edges in confring.basis_keys(ell, 2 * n + 1, 2 * n * m) for e in qexps]


def _slices(ell, n, degree):
    """The q-exponents of degree - 2nm for each word length m, once sized."""
    if ell < 0 or n < 1 or degree < 0:
        raise InputError("need ell >= 0, n >= 1, degree >= 0")
    charclasses.check_basis_size(leray_hirsch_dimension(ell, n, degree), degree)
    return [qring(n).exponents_of_degree(degree - 2 * n * m)
            for m in range(min(max(ell - 1, 0), degree // (2 * n)) + 1)]


def torus_dimension(ell, n, degree):
    return len(torus_basis(ell, n, degree))


def leray_hirsch_dimension(ell, n, degree):
    """Coefficient of t^degree in prod_j (1 + j t^(2n)) / (1 - t^2)^n."""
    return confring.graded_dimensions(ell, 2 * n, torus_ring(n), degree)[-1] if degree >= 0 else 0


def weyl_action_equi(w: WeylElement, a: EquiElement):
    """Signed permutation on coefficients; each edge scales by eta * prod(eps)."""
    if len(w.sigma) != a.halfdim:
        raise InputError("Weyl element rank does not match the torus rank")
    edge_sign = w.eta * w.eps_product()
    out = {}
    for edges, c in a.terms.items():
        poly = weyl_action(w, c)
        if edge_sign == -1 and len(edges) % 2 == 1:
            poly = -poly
        out[edges] = poly
    return EquiElement(a.points, a.halfdim, out)


def fixed_point_basis(spec: GroupSpec, ell, degree, convention="standard"):
    """Echelonized basis of the Weyl-fixed subspace in one degree: the words
    of each length times their `orbit_rows`, words outer, as in `torus_basis`."""
    n, out = spec.rank, []
    for m, rows in _fixed_slices(spec, ell, degree, convention):
        if not rows:
            continue  # the size check counted no word of this length
        polys = [Polynomial(qring(n), row) for row in rows]
        for edges in confring.basis_keys(ell, 2 * n + 1, 2 * n * m):
            out.extend(EquiElement._unchecked(ell, n, {edges: poly}) for poly in polys)
    if out:
        zero(ell, n)  # the header check of a built element, once per call
    return out


def fixed_point_dimension(spec: GroupSpec, ell, degree, convention="standard"):
    """sum_m (words of length m) * (their orbit rows), with no element built."""
    counts = confring.edge_word_counts(ell)
    return sum(counts[m] * len(rows) for m, rows in _fixed_slices(spec, ell, degree, convention))


def _fixed_slices(spec, ell, degree, convention):
    """(m, orbit rows) per word length m; an edge scales by eta * prod(eps)."""
    if spec.family not in ("so_odd", "o_odd"):
        raise InputError("fixed points are computed for so_odd or o_odd only")
    slices = [(qexps, m & 1) for m, qexps in enumerate(_slices(ell, spec.rank, degree))]
    return enumerate(orbit_rows(weyl_group(spec, convention), slices,
                                lambda w: w.eta * w.eps_product()))


def nonequivariant_restriction(a: EquiElement):
    """Ring map sending each q_u to zero and y_ij to 2 x_ij."""
    ell, n = a.points, a.halfdim
    zero_exps = (0,) * n
    terms = {}
    for edges, c in a.terms.items():
        const = c.coefficient(zero_exps)
        if const != 0:
            terms[edges] = const * 2 ** len(edges)
    return confring.ConfElement(ell, 2 * n + 1, terms)


def modified_arnold(ell, n, i, j, k):
    """y_ij y_jk - y_jk y_ik - y_ik y_ij + p_n, which must reduce to zero."""
    yij = generator(ell, n, i, j)
    yjk = generator(ell, n, j, k)
    yik = generator(ell, n, i, k)
    pn = unit(ell, n).scale_poly(p_top(n))
    return yij * yjk - yjk * yik - yik * yij + pn
