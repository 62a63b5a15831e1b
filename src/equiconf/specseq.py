"""Filtered cochain complexes over Q: pages, decalage, purity, witnesses.

A FilteredComplex is a finite-dimensional non-negatively graded cochain
complex with an increasing exhaustive filtration (W_{-1} = 0) and an optional
automorphism phi commuting with everything. Its pages are the standard
cycle/boundary subquotients

    Z_r(i, n) = W_i A^n  cap  d^{-1}(W_{i-r} A^{n+1})
    E_r(i, n) = Z_r(i, n) / (Z_{r-1}(i-1, n) + d Z_{r-1}(i+r-1, n-1))

with d_r induced by d, mapping (i, n) to (i - r, n + 1). They are read off
one barcode basis per degree (a persistence reduction of d, over the adapted
basis that each complex keeps from construction), in which each Z_r, each
boundary term and each spot is spanned by basis elements. The barcode does
not depend on r: each complex reduces it once, at its first read, and keeps
it for every page, its decalage and its purity checks; it keeps phi of each
barcode element in barcode coordinates too, built at that element's first
read. A page counts the dimension of each spot; it builds d_r and phi_r in
those elements only when they are first read, and keeps no representatives
in the ambient space.
`oracles.subquotient_page` builds the subquotients themselves as the
cross-check. Spots are keyed by (filtration index i, total degree n); the
displayed bidegree is (-i, j) with j = n + i, so page r here is page r+1 in
Leray-Serre numbering.

Purity is checked against the weight alpha*((1-r)i + jr) = alpha*(i + n*r):
at a spot with integral weight w, the only eigenvalue of phi may be xi^w; at
non-integral weight the spot must vanish. The weight formula is pinned to the
target page in the WeightSpec; the inspected page may be earlier (purity is
inherited by subquotients, so passing early implies passing at the target).
A spot passes when phi restricted to the image of (phi - xi^w)^dim (the Fitting
split) is empty; else that restriction's charpoly is the factor named.

The formality witness of a pure complex is read off the barcode of its
canonical filtration too, the same one its purity check reads: the classes,
the boundaries and phi on both come from barcode elements, and the section
takes one Sylvester solve per degree. A complex built with its canonical
filtration (`canonical_filtration`) is its own truncation, so its witness
reads the barcode and the phi coordinates that its purity checks kept.
`oracles.witness_by_eigenspaces` builds it inside the generalized
eigenspaces as the cross-check.

A complex is checked in full once, where it enters: by the FilteredComplex
constructor, by `complex_from_json` and by `canonical_filtration`. The
complexes built from a checked one, its truncation and its decalage, keep
its d and phi and are valid by construction, so they are not checked again;
the tests hold them to `validate`.

A complex keeps each filtration level as the canonical basis of its span
(`filtration`) and each degree's filtration as one adapted basis, its flags.
The constructor is the one place that canonicalizes levels (`col_space`,
which returns a canonical basis as it stands): a level that is the same
object as the one before it, or equal to it, shares its canonical basis, so
each run of equal levels is spanned once. `complex_from_json` passes it the
levels as read, and the page models their repeated levels. The truncation
takes its flags from its levels (`flag_basis`); the decalage builds its
flags first, by one triangular reduction of the barcode elements in the
order in which they enter its levels, then one span per distinct level.
A complex is never mutated after construction, since its flags, its levels
and its kept barcode describe one filtration and one d.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction as Q

from .charclasses import DEGREE_BOUND
from .errors import InputError, PurityViolation, WitnessError
from .exactalg import (
    ONE,
    Matrix,
    Quotient,
    col_space,
    combine,
    eliminate,
    flag_basis,
    flag_spans,
    rat,
    sylvester,
    upoly_str,
)


class FilteredComplex:
    """Explicit filtered cochain complex. Each filtration level is kept as
    the canonical basis of its span (`filtration`), and each degree's
    filtration also as one adapted basis, `flags[n]` = (level, basis, lead)
    as `flag_basis` returns it: the elements of level at most t span W_t,
    the levels never decrease, and `lead` maps the first index of each
    element to (k, basis[k]). `validate` and the barcode read the flags.

    The constructor takes levels of every degree, canonicalizes each with
    `col_space` (a level that is the same object as the one before it, or
    equal to it, shares its canonical basis), refuses a level that does not
    fit its degree, and reads the flags off the levels. The truncation and
    the decalage are built from their flags and levels together
    (`_unchecked`). The barcode is reduced at its first read (`barcode`)
    and kept; a complex that is only validated never reduces it. phi of
    each barcode element, in barcode coordinates, is likewise built at its
    first read (`barcode_phi`) and kept, for every page and the witness. A truncation is marked
    (`_truncated`): it is its own truncation.

    A complex must never be mutated after construction: its flags, its
    levels and its kept barcode and phi describe one filtration, one d and
    one phi."""

    __slots__ = ("spaces", "d", "filtration", "phi", "top_level", "flags", "_bars",
                 "_phis", "_truncated")

    def __init__(self, spaces, d, filtration, phi=None, validate=True):
        self.spaces = {int(n): dim for n, dim in spaces.items() if _dimension(n, dim)}
        self.d = {}
        for n, mat in d.items():
            n = int(n)
            if not isinstance(mat, Matrix):
                mat = Matrix(mat)
            if mat.nrows or mat.ncols:
                self.d[n] = mat
        self.filtration = {}
        for n, levels in filtration.items():
            n = int(n)
            levels = self._levels(n, levels)
            if self.dim(n):
                self.filtration[n] = levels
        # after the levels, so that a fault in a level is the one reported
        if any(n < 0 for n in self.spaces):
            raise InputError("degrees must be non-negative")
        self.phi = None
        if phi is not None:
            self.phi = {}
            for n, mat in phi.items():
                n = int(n)
                if not isinstance(mat, Matrix):
                    mat = Matrix(mat)
                if self.dim(n):
                    self.phi[n] = mat
        self.top_level = max((len(lv) - 1 for lv in self.filtration.values()),
                             default=0)
        self.flags = {n: flag_basis(levels) for n, levels in self.filtration.items()}
        self._bars, self._phis, self._truncated = None, {}, False
        if validate:
            self.validate()

    @classmethod
    def _unchecked(cls, spaces, d, filtration, flags, phi):
        """The complex with the canonical levels `filtration` and their
        adapted bases `flags`, unchecked; spaces, d and phi are taken as a
        constructed complex keeps them."""
        A = object.__new__(cls)
        A.spaces, A.d, A.filtration, A.flags, A.phi = spaces, d, filtration, flags, phi
        A.top_level = max((len(lv) - 1 for lv in filtration.values()), default=0)
        A._bars, A._phis, A._truncated = None, {}, False
        return A

    def _levels(self, n, levels):
        """The canonical bases (`col_space`) of the levels of degree n, each
        a Matrix whose columns span it or its vectors: a level that is the
        same object as the one before it, or equal to it, shares its
        canonical basis. A level that does not fit degree n is refused."""
        out, prev = [], None
        for lvl in levels:
            if out and (lvl is prev or lvl == prev):
                out.append(out[-1])
            elif isinstance(lvl, Matrix) and lvl.nrows != self.dim(n):
                raise InputError(f"filtration level shape mismatch at degree {n}")
            else:
                out.append(col_space(lvl, dim=self.dim(n)))
            prev = lvl
        return tuple(out)

    # -- basic accessors ----------------------------------------------------

    def dim(self, n):
        return self.spaces.get(n, 0)

    def degrees(self):
        return sorted(self.spaces)

    def max_degree(self):
        return max(self.spaces, default=-1)

    def diff(self, n):
        mat = self.d.get(n)
        if mat is None:
            return Matrix.zero(self.dim(n + 1), self.dim(n))
        return mat

    def aut(self, n):
        if self.phi is None:
            raise InputError("complex carries no automorphism")
        mat = self.phi.get(n)
        if mat is None:
            return Matrix.identity(self.dim(n))
        return mat

    def W(self, n, i):
        """The canonical basis matrix of W_i A^n; off the ends of the
        filtration, the empty or the full span, built on each call."""
        if i < 0:
            return Matrix.zero(self.dim(n), 0)
        levels = self.filtration.get(n)
        if levels is None or i >= len(levels):
            return Matrix.identity(self.dim(n))
        return levels[i]

    @property
    def barcode(self):
        """`_barcode(self)`, reduced at the first read and kept."""
        if self._bars is None:
            self._bars = _barcode(self)
        return self._bars

    def barcode_phi(self, n, k):
        """phi of barcode element k of degree n in barcode coordinates {j: x},
        not to be mutated: `_phi_solver(self, n)` at the first read of each
        element, then kept like the barcode."""
        if n not in self._phis:
            self._phis[n] = {}, _phi_solver(self, n)
        coords, solve = self._phis[n]
        if k not in coords:
            coords[k] = solve(k)
        return coords[k]

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Check the complex degree by degree and raise an InputError that
        names the first failure: shapes, d o d = 0, a nested and exhaustive
        filtration that d preserves, then an invertible phi that commutes with
        d and preserves the filtration.

        The filtration checks read the adapted basis of each degree
        (`flags`): a vector lies in W_t exactly when its triangular
        expansion at the leads of that basis uses only elements of level at
        most t. So d preserves every W_t when no basis element of degree n is
        sent to a higher level of degree n + 1, and the first W_t it fails
        is the lowest level of an element that is; phi likewise within
        degree n. Nestedness and exhaustiveness are read off the canonical
        levels, which are in echelon form already."""
        flags = {n: self.flags[n] if _nested(levels) else None
                 for n, levels in self.filtration.items()}
        for n in self.spaces:
            mat = self.diff(n)
            if (mat.nrows, mat.ncols) != (self.dim(n + 1), self.dim(n)):
                raise InputError(f"differential shape mismatch at degree {n}")
            nxt = self.diff(n + 1)
            if not (nxt * mat).is_zero():
                raise InputError(f"d o d != 0 at degree {n}")
            levels = self.filtration.get(n)
            if not levels:
                raise InputError(f"missing filtration at degree {n}")
            if flags[n] is None:
                raise InputError(f"filtration not nested at degree {n}")
            if levels[-1].ncols != self.dim(n):
                raise InputError(f"filtration not exhaustive at degree {n}")
            level, basis, _ = flags[n]
            dcols = mat.sparse_columns()
            t = _escape([combine(dcols, b) for b in basis], level,
                        self.filtration.get(n + 1, ())[:len(levels)], flags.get(n + 1))
            if t is not None:
                raise InputError(f"differential does not preserve W_{t} at degree {n}")
            if self.phi is not None:
                aut = self.aut(n)
                if (aut.nrows, aut.ncols) != (self.dim(n), self.dim(n)):
                    raise InputError(f"automorphism shape mismatch at degree {n}")
                if aut.rank() != self.dim(n):
                    raise InputError(f"automorphism not invertible at degree {n}")
                if not (self.diff(n) * aut == self.aut(n + 1) * self.diff(n)):
                    raise InputError(f"automorphism does not commute with d at {n}")
                cols = aut.sparse_columns()
                t = _escape([combine(cols, b) for b in basis], level, levels, flags[n])
                if t is not None:
                    raise InputError(f"automorphism does not preserve W_{t} at degree {n}")
        return True

    # -- cohomology of the underlying complex --------------------------------

    def cohomology_dims(self):
        out = {}
        img = 0  # rank of d_(n-1)
        for n in range(self.max_degree() + 1):
            rank = self.diff(n).rank()
            h = self.dim(n) - rank - img
            if h:
                out[n] = h
            img = rank
        return out

    # -- serialization -------------------------------------------------------

    def to_json(self):
        data = {"degrees": {str(n): self.dim(n) for n in self.degrees()},
                "d": {str(n): mat_json(self.diff(n)) for n in self.degrees()
                      if self.dim(n + 1)},
                "filtration": {str(n): [[ [str(x) for x in col]
                                          for col in lvl.columns()]
                                        for lvl in self.filtration[n]]
                               for n in self.degrees()}}
        if self.phi is not None:
            data["phi"] = {str(n): mat_json(self.aut(n)) for n in self.degrees()}
        return data


def mat_json(m):
    """A Matrix as JSON: its rows of rational strings."""
    return [[str(x) for x in row] for row in m.rows]


def _nested(levels):
    """Whether each canonical span of `levels` lies in the next one."""
    for lo, hi in zip(levels, levels[1:]):
        if lo is hi:
            continue
        if lo.ncols >= hi.ncols:
            if lo != hi:  # canonical spans of one dimension are nested only when equal
                return False
        elif lo.ncols:
            lead = flag_basis((hi,))[2]
            if any(eliminate(v, min, lead)[0] for v in lo.sparse_columns()):
                return False
    return True


def _escape(images, level, levels, flag):
    """The least t at which an image images[k] with level[k] <= t lies
    outside W_t, where W_t is levels[t] and the whole space past the last
    level, or None. `flag` is the `flag_basis` of nested levels, or None."""
    if not levels:
        return None
    if flag is not None:
        target, _, lead = flag
        for k, v in enumerate(images):
            rest, used = eliminate(v, min, lead)
            # the least t with v in W_t; past the last level W_t is everything
            if (len(levels) if rest else max(map(target.__getitem__, used), default=-1)) \
                    > level[k]:
                return level[k]
        return None
    # levels that are not nested: one membership test per level
    for t, span in enumerate(levels):
        lead = flag_basis((span,))[2]
        if any(eliminate(dict(v), min, lead)[0] for v, s in zip(images, level) if s <= t):
            return t
    return None


def json_map(value, what):
    """`value` if it is a JSON object, else an InputError naming `what`."""
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a JSON object")
    return value


@contextmanager
def reading(what):
    """Report a KeyError, TypeError or ValueError (InputError included) raised
    while reading JSON as an InputError: malformed `what`."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {what}: {exc}") from exc


def read_complex(data, literal=None):
    """(spaces, d, phi) of a complex in the JSON of `to_json`, phi None where
    it has none; call it inside `reading`. Each dimension must be a
    non-negative integer and each degree at most DEGREE_BOUND. `validate`
    checks the shape of every block at a degree of positive dimension; the
    blocks at other degrees, which it never reaches, are checked here.
    `literal` reads each matrix entry, a new `_literals()` by default."""
    literal = literal or _literals()
    spaces = {int(k): dim for k, dim in json_map(data["degrees"], "degrees").items()}
    for n, dim in spaces.items():
        _dimension(n, dim)
        if n > DEGREE_BOUND:
            raise InputError(f"degree {n} exceeds the bound {DEGREE_BOUND}")
    d = {int(k): _matrix(rows, literal)
         for k, rows in json_map(data.get("d", {}), "d").items()}
    for n, mat in d.items():
        if not spaces.get(n) and (mat.ncols or mat.nrows not in (0, spaces.get(n + 1, 0))):
            raise InputError(f"differential shape mismatch at degree {n}")
    if "phi" not in data:
        return spaces, d, None
    phi = {int(k): _matrix(rows, literal) for k, rows in json_map(data["phi"], "phi").items()}
    for n, mat in phi.items():
        if mat.nrows and not spaces.get(n):
            raise InputError(f"automorphism shape mismatch at degree {n}")
    return spaces, d, phi


def _dimension(n, dim):
    """dim, unless it is not a non-negative int (bools are refused too)."""
    if type(dim) is not int or dim < 0:
        raise InputError(f"dimension at degree {n} must be a non-negative integer")
    return dim


def _literals():
    """`rat` that parses each distinct string once, for one read: a complex
    in JSON repeats a few literals, "0" most, thousands of times. Other
    values go straight to `rat`."""
    parsed = {}

    def literal(x):
        if type(x) is not str:
            return rat(x)
        q = parsed.get(x)
        if q is None:
            q = parsed[x] = rat(x)
        return q
    return literal


def _matrix(rows, literal):
    return Matrix([[literal(x) for x in row] for row in rows])


def complex_from_json(data):
    data = json_map(data, "a filtered complex")
    literal = _literals()
    with reading("filtered complex"):
        spaces, d, phi = read_complex(data, literal)
        # each degree's levels are read only as the constructor reaches them
        # (`for lvl in one` is lazy), so the first fault of the input is the
        # one reported
        filtration = {k: ([[literal(x) for x in col] for col in lvl]
                          for one in (levels,) for lvl in one)
                      for k, levels in json_map(data.get("filtration", {}),
                                                "filtration").items()}
        if not filtration:
            raise InputError("input complex carries no filtration")
        return FilteredComplex(spaces, d, filtration, phi)


def canonical_filtration(spaces, d, phi=None):
    """The complex (spaces, d, phi) with its truncation filtration, after one
    check of the input as a complex with a single level per degree: shapes,
    d o d = 0 and phi. The truncation needs no second check."""
    return _truncation(FilteredComplex(
        spaces, d, {n: (Matrix.identity(_dimension(n, dim)),) for n, dim in spaces.items()},
        phi))


def _truncation(A: FilteredComplex):
    """A with its truncation filtration: tau_i A^n is A^n below degree i,
    ker d at i and 0 above. The levels are canonical as they stand, and its
    flag in degree n is their `flag_basis`: the kernel basis at level n and
    then, below the top degree, the unit vectors off its leads at level
    n + 1. Built unchecked, for it is valid whenever A is: d and phi are
    A's; 0 <= ker d <= A^n makes the levels nested and exhaustive; d sends
    A^(i-1) into ker d, so it preserves them; and phi preserves ker d
    because it commutes with d. The result is marked `_truncated`: it reads
    only A's spaces, d and phi, so truncating it again rebuilds the same
    levels and flags, and `formality_witness` reads it as it stands."""
    top = max(A.spaces, default=0)
    filtration = {}
    for n, dim in A.spaces.items():
        kernel, full, empty = A.diff(n).kernel_basis(), Matrix.identity(dim), Matrix.zero(dim, 0)
        filtration[n] = tuple(full if n < i else kernel if n == i else empty
                              for i in range(top + 1))
    flags = {n: flag_basis(levels) for n, levels in filtration.items()}
    T = FilteredComplex._unchecked(A.spaces, A.d, filtration, flags, A.phi)
    T._truncated = True
    return T


# ---------------------------------------------------------------------------
# pages


class SpectralPage:
    """One page: the dimension of each live spot, and the induced
    differentials and automorphisms in a basis of each spot.

    A page read off a barcode (`page`) holds only its complex: every page of
    a complex reads the one barcode kept on it after its first read, and the
    phi coordinates of its elements kept there (`barcode_phi`). It builds a
    matrix only when that is first read, then keeps it: every d_r at the
    first read of `differentials`, phi_r one spot at a time in `aut`. So the
    complex must never be mutated while its pages are in use; its repeated
    levels are shared objects as well. `oracles.subquotient_page` passes all
    its matrices in."""

    __slots__ = ("r", "spots", "_differentials", "_phi", "_source", "_live")

    def __init__(self, r, spots, differentials, phi, source=None):
        self.r = r
        self.spots = spots                  # (i, n) -> dimension, live spots only
        self._differentials = differentials  # (i, n) -> Matrix to (i-r, n+1), or None
        self._phi = phi                     # (i, n) -> Matrix, None without phi
        self._source = source               # the complex of a barcode page
        self._live = {}                     # per degree, built on first read

    def dim(self, i, n):
        return self.spots.get((i, n), 0)

    def dims(self):
        return dict(self.spots)

    def display_dims(self):
        """{(-i, j): dim} in the paper's bidegree convention (j = n + i)."""
        return {(-i, n + i): dim for (i, n), dim in self.spots.items()}

    def total_degree_dims(self):
        out = {}
        for (i, n), dim in self.spots.items():
            out[n] = out.get(n, 0) + dim
        return out

    def _elements(self, n):
        """{i: the live barcode elements of level i and degree n, in order}."""
        live = self._live.get(n)
        if live is None:
            live = self._live[n] = {}
            level, *_, gap = self._source.barcode[n]
            for k, t in enumerate(level):
                if gap.get(k, self.r) >= self.r:
                    live.setdefault(t, []).append(k)
        return live

    @property
    def differentials(self):
        """(i, n) -> the Matrix of d_r to (i - r, n + 1), at each live spot
        whose target is live. On the barcode d_r sends the source of each
        pair that drops exactly r levels to its target."""
        if self._differentials is None:
            r, bars, diffs = self.r, self._source.barcode, {}
            for i, n in self.spots:
                if (i - r, n + 1) in self.spots:
                    low, gap = bars[n][4:]
                    target = self._elements(n + 1)[i - r]
                    row = {k: t for t, k in enumerate(target)}
                    diffs[(i, n)] = Matrix._of_columns(
                        [{row[low[k]]: ONE} if k in low and gap[k] == r else {}
                         for k in self._elements(n)[i]], len(target))
            self._differentials = diffs
        return self._differentials

    def aut(self, i, n):
        """The Matrix of phi_r at spot (i, n), empty at a spot that is not live."""
        if self._phi is None:
            raise InputError("page carries no automorphism")
        if (i, n) not in self.spots:
            return Matrix.identity(0)
        mat = self._phi.get((i, n))
        if mat is None:
            ks = self._elements(n)[i]
            row = {k: t for t, k in enumerate(ks)}
            mat = self._phi[(i, n)] = Matrix._of_columns(
                [{row[j]: c for j, c in self._source.barcode_phi(n, k).items() if j in row}
                 for k in ks], len(ks))
        return mat


def _barcode(A: FilteredComplex):
    """{n: (level, basis, lead, cols, low, gap)}, the barcode basis of each
    degree n by one persistence reduction of d in filtration order. Read it
    through `A.barcode`, which runs this once per complex.

    Position k runs over the adapted basis `basis` of `A.flags[n]`, where
    basis[k] has level level[k] and `lead` maps its first index to
    (k, basis[k]). cols[k] is barcode element k in the adapted basis; d
    sends it to element low[k] of degree n + 1 when k is a source, else to
    0. `gap` holds the level drop of each pair at both its ends."""
    bars, cleared = {}, {}
    for n in A.degrees():
        level, basis, lead = A.flags[n]
        nxt, dcols = A.flags.get(n + 1), A.diff(n).sparse_columns()
        cols, low, gap, table, targets = [], {}, {}, {}, {}
        for k, b in enumerate(basis):
            if k in cleared:  # d x for a source x of degree n - 1: a cycle
                gap[k], col = cleared[k]
                cols.append(col)
                continue
            # d b in the adapted basis of degree n + 1, beside the entry ~k
            # (negative) for b; clear its last entry while an earlier column
            # ends there
            w = eliminate(combine(dcols, b), min, nxt[2])[1] if nxt else {}
            w[~k] = ONE
            w = eliminate(w, max, table)[0]
            cols.append({~j: x for j, x in w.items() if j < 0})
            if (end := max(w)) >= 0:
                table[end] = k, w
                low[k], gap[k] = end, level[k] - nxt[0][end]
                targets[end] = gap[k], {j: x for j, x in w.items() if j >= 0}
        bars[n] = level, basis, lead, cols, low, gap
        cleared = targets
    return bars


def _phi_solver(A: FilteredComplex, n):
    """The map sending k to phi of barcode element k of degree n in barcode
    coordinates {j: x}: two triangular solves, at the leads of the adapted
    basis and then at the last entries of the barcode columns. Read it
    through `A.barcode_phi`, which keeps each element's coordinates."""
    _, basis, lead, cols, *_ = A.barcode[n]
    aut, upper = A.aut(n).sparse_columns(), {j: (j, c) for j, c in enumerate(cols)}
    return lambda k: eliminate(eliminate(combine(aut, combine(basis, cols[k])), min, lead)[1],
                               max, upper)[1]


def page(A: FilteredComplex, r):
    """The r-th page of the spectral sequence of the filtered complex.

    Spot (i, n) is spanned by the level-i barcode elements of degree n that
    are in no pair or in one that drops at least r levels; d_r sends the
    source of each pair that drops exactly r levels to its target. The page
    counts each spot's dimension here, off the kept barcode of A; d_r and
    phi_r are built in these elements when first read."""
    if r < 0:
        raise InputError("page index must be non-negative")
    spots = {}
    for n, (level, *_, gap) in A.barcode.items():
        for k, t in enumerate(level):
            if gap.get(k, r) >= r:
                spots[(t, n)] = spots.get((t, n), 0) + 1
    return SpectralPage(r, spots, None, None if A.phi is None else {}, A)


def page_cohomology_dims(pg: SpectralPage):
    """Dimension of H(E_r, d_r) at each spot; equals the next page's table."""
    out = {}
    ranks = {key: mat.rank() for key, mat in pg.differentials.items()}
    for (i, n), dim in pg.spots.items():
        ker = dim - ranks.get((i, n), 0)
        img = ranks.get((i + pg.r, n - 1), 0)
        if ker - img:
            out[(i, n)] = ker - img
    return out


def decalage(A: FilteredComplex):
    """Deligne's decalage: Dec W_i A^n = W_(i-n) A^n cap d^(-1) W_(i-n-1),
    which is Z_1(i - n, n), the span of the barcode elements of level at most
    i - n whose differential has level at most i - n - 1. Its flag in degree
    n takes the barcode elements in the order of the level i at which they
    enter, each reduced at the leads of those before it, and its levels
    are spanned off that flag.

    Built unchecked, for it is valid whenever A is: d and phi are A's; the
    levels grow with i and reach A^n at the top; d sends Z_1(i - n, n) into
    the cycles of W_(i-n-1) A^(n+1), which is Dec W_i A^(n+1); and phi
    preserves each level because it preserves W and commutes with d."""
    new_top = A.top_level + max(A.max_degree(), 0) + 1
    filtration, flags = {}, {}
    for n, (level, basis, _, cols, low, gap) in A.barcode.items():
        # an element enters Dec W_i at i = n + its level, or one level later
        # when it is the source of a pair that drops no level
        enter = [t + (k in low and gap[k] == 0) + n for k, t in enumerate(level)]
        new_level, new_basis, lead = [], [], {}
        for k in sorted(range(len(cols)), key=enter.__getitem__):
            # the barcode elements are independent: no remainder vanishes
            v = eliminate(combine(basis, cols[k]), min, lead)[0]
            lead[min(v)] = len(new_basis), v
            new_level.append(enter[k])
            new_basis.append(v)
        flags[n] = new_level, new_basis, lead
        filtration[n] = flag_spans(new_level, new_basis, A.dim(n), new_top + 1)
    return FilteredComplex._unchecked(A.spaces, A.d, filtration, flags, A.phi)


# ---------------------------------------------------------------------------
# purity and formality witnesses


@dataclass(frozen=True)
class WeightSpec:
    """xi (not 0 or +-1), the slope alpha (nonzero), and the target page."""

    xi: Q
    alpha: Q
    page: int

    def __post_init__(self):
        object.__setattr__(self, "xi", rat(self.xi))
        object.__setattr__(self, "alpha", rat(self.alpha))
        if self.xi in (0, 1, -1):
            raise InputError("xi must avoid 0, 1 and -1")
        if self.alpha == 0:
            raise InputError("alpha must be nonzero")
        if self.page < 0:
            raise InputError("page must be non-negative")

    def weight(self, i, n):
        """alpha*((1-r)i + jr) with j = n + i reduces to alpha*(i + n*r)."""
        return self.alpha * (i + n * self.page)


@dataclass(frozen=True)
class PurityResult:
    """Certificate (every spot with its weight and dimension) or violation."""

    ok: bool
    inspected_page: int
    records: tuple  # ((-i, j), weight or None, dim)
    violation: tuple = None  # ((-i, j), factor string, message)

    def to_json(self):
        data = {"ok": self.ok, "inspected_page": self.inspected_page,
                "records": [{"bidegree": list(spot),
                             "weight": None if w is None else str(w),
                             "dim": dim}
                            for spot, w, dim in self.records]}
        if self.violation is not None:
            spot, factor, message = self.violation
            data["violation"] = {"bidegree": list(spot), "factor": factor,
                                 "message": message}
        return data


def purity_check(A: FilteredComplex, spec: WeightSpec, at_page=None):
    """Check purity of the automorphism eigenvalues on a page.

    Inspects E_{r+1} for the target page r = spec.page by default; `at_page`
    may name an earlier page. The weight formula stays pinned to the target
    page, so purity observed on an earlier page is inherited by the later
    subquotients.
    """
    if A.phi is None:
        raise InputError("purity check needs an automorphism")
    inspect = spec.page + 1 if at_page is None else at_page
    if not 0 <= inspect <= spec.page + 1:
        raise InputError("inspected page must be between 0 and the target page + 1")
    pg = page(A, inspect)
    records = []
    violation = None
    for (i, n) in sorted(pg.spots, key=lambda t: (t[1], t[0])):
        dim = pg.dim(i, n)
        w = spec.weight(i, n)
        spot = (-i, n + i)
        if w.denominator != 1:
            records.append((spot, None, dim))
            if dim and violation is None:
                violation = (spot, None,
                             f"nonzero space of dimension {dim} at "
                             f"non-integral weight {w}")
            continue
        records.append((spot, w, dim))
        if violation is None:
            rest = pg.aut(i, n).off_eigenvalue(spec.xi ** int(w))
            if rest.nrows:
                factor = upoly_str(rest.charpoly())
                violation = (spot, factor,
                             f"eigenvalue outside xi^{int(w)}: factor {factor}")
    return PurityResult(violation is None, pg.r, tuple(records), violation)


@dataclass(frozen=True)
class FormalityWitness:
    """A phi-equivariant chain inclusion of the cohomology, with transcript."""

    inclusions: dict   # degree -> Matrix (dim A^n x dim H^n)
    induced: dict      # degree -> Matrix of phi on H^n
    transcript: tuple  # (check name, passed) pairs

    @property
    def verified(self):
        return all(ok for _, ok in self.transcript)

    def to_json(self):
        return {"verified": self.verified,
                "transcript": [{"check": name, "pass": ok}
                               for name, ok in self.transcript],
                "inclusions": {str(n): mat_json(m)
                               for n, m in sorted(self.inclusions.items())},
                "cohomology_automorphism": {str(n): mat_json(m)
                                            for n, m in sorted(self.induced.items())}}


def formality_witness(A: FilteredComplex, spec: WeightSpec):
    """Construct the inclusion H(A) -> A for a pure complex (target page 0).

    Requires purity of H^n(A) of weight alpha*n under the canonical
    filtration; refuses with the violation otherwise. Everything is read off
    one barcode of the canonical filtration: A's own, with the phi
    coordinates kept on A, when A is a truncation (every `canonical_filtration`
    is), else that of a new truncation of A. In degree n the classes R are
    the unpaired elements and the targets T of the pairs of degree n - 1
    span the boundaries B, so phi R = R phibar + T M and phi T = T P. The
    section R + T Y is equivariant exactly when P Y - Y phibar = -M, one
    Sylvester solve; when Hom_phi(H^n, B^n) != 0 the solve has free unknowns,
    set to 0, and the section is one of several. Inputs where no
    equivariant section exists (a Jordan block of phi tying the boundaries
    to surviving cohomology) raise WitnessError.
    """
    if A.phi is None:
        raise InputError("formality witness needs an automorphism")
    base = A if A._truncated else _truncation(A)
    bars = base.barcode
    check = purity_check(base, WeightSpec(spec.xi, spec.alpha, 0), at_page=1)
    if not check.ok:
        raise PurityViolation(
            f"purity fails at bidegree {check.violation[0]}: {check.violation[2]}",
            spot=check.violation[0], factor=check.violation[1])
    inclusions, induced = {}, {}
    for n, (_, basis, _, cols, low, gap) in bars.items():
        # gap marks both ends of every pair: the classes are in no pair, and
        # the targets are the ends that are no source
        classes = [k for k in range(len(cols)) if k not in gap]
        if not classes:
            continue
        targets = [k for k in gap if k not in low]
        h, t = len(classes), len(targets)
        vecs = [combine(basis, cols[k]) for k in classes + targets]
        row_r = {k: a for a, k in enumerate(classes)}
        row_t = {k: a for a, k in enumerate(targets)}
        phi_r = [base.barcode_phi(n, k) for k in classes]
        phi_bar = Matrix._of_columns(
            [{row_r[k]: x for k, x in c.items() if k in row_r} for c in phi_r], h)
        p = Matrix._of_columns([{row_t[j]: x for j, x in base.barcode_phi(n, k).items()}
                                for k in targets], t)
        # Y[c, d] is unknown c * h + d; the right-hand side is -M
        y = sylvester(p, phi_bar).solve({row_t[k] * h + d: -x for d, c in enumerate(phi_r)
                                         for k, x in c.items() if k in row_t})
        if y is None:
            raise WitnessError(
                f"no phi-equivariant section exists in degree {n}: phi has a "
                f"Jordan block linking the boundaries to the cohomology")
        inclusions[n] = Matrix._of_columns(
            [combine(vecs, {d: ONE} | {h + c: y[c * h + d] for c in range(t)})
             for d in range(h)], base.dim(n))
        induced[n] = phi_bar
    return certified_witness(base, inclusions, induced)


def certified_witness(A: FilteredComplex, inclusions, induced):
    """The FormalityWitness of the inclusions and induced maps of a complex
    A with its canonical filtration, after its transcript: in each degree a
    chain map, phi-equivariant, and an isomorphism on cohomology, checked
    against `cohomology_quotient`. Raises WitnessError if a check fails."""
    transcript = []
    for n, inc in sorted(inclusions.items()):
        d_img = A.diff(n) * inc
        transcript.append((f"chain map in degree {n}", d_img.is_zero()))
        lhs = A.aut(n) * inc
        rhs = inc * induced[n]
        transcript.append((f"phi-equivariance in degree {n}", lhs == rhs))
        _, quo = cohomology_quotient(A, n)
        transcript.append((f"induced isomorphism in degree {n}",
                           quo.matrix_of(inc) == Matrix.identity(quo.dim)))
    witness = FormalityWitness(inclusions, induced, tuple(transcript))
    if not witness.verified:
        raise WitnessError("witness verification failed; see transcript")
    return witness


def cohomology_quotient(A: FilteredComplex, n):
    """(Z, Z/B) in degree n: the cycles and the cohomology with its coordinates."""
    dim = A.dim(n)
    z = A.diff(n).kernel_basis()
    b = col_space(A.diff(n - 1)) if n > 0 and A.dim(n - 1) else Matrix.zero(dim, 0)
    return z, Quotient(z, b)
