"""Exact linear and polynomial algebra over Q.

Exact rationals; no floating point anywhere. A number is an `int` when it
is integral and a `Fraction` otherwise, as `rat` reads it, and every
division goes through `div`, which never divides two `int`s to a float: the
0/+-1 differentials, integral powers of xi and rewrite multiplicities stay
on `int` arithmetic. A `Matrix` stores sparse columns, one `{row: value}`
dict of the nonzero entries of each column, and no zeros; the dicts are
never mutated, so matrices share them. Products, sums and the subspace
operations work on these columns directly (column j of A * B combines the
columns of A) and skip the zeros that fill most matrices here; the
routines that eliminate rows (`rank`, `kernel_basis`, `solve`, `sylvester`
and `Quotient`) read the one transposition, `sparse_rows()`. The dense
`rows` and `columns()` are derived, read-only views for printing, JSON and
tests. Subspaces are
canonical reduced column-echelon spans, so equal subspaces have equal
representations and every output is reproducible across runs. Four
primitives work on sparse dicts: `accumulate`, the one in-place sum that
drops zeros; `combine`, a linear combination of sparse vectors;
`eliminate`, the one forward elimination through a pivot table (in
`_reduce` for ranks, kernels, solves, spans and quotients, in `specseq` for
the barcode, décalage and validation); and `_transpose`, which no other
module uses. The tests check this kernel against `oracles.dense_rref`, a
separate dense elimination.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import InputError


def rat(x):
    """An int, Fraction or 'p/q' string as an exact rational: an `int` when
    it is integral (a bool reads as 0 or 1), else a `Fraction`."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        try:
            x = Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {x!r}") from exc
    elif not isinstance(x, Fraction):
        raise InputError(f"not a rational: {x!r}")
    return x.numerator if x.denominator == 1 else x


def div(a, b):
    """a / b, exact: the one division of the package. Two `int`s divide to
    an `int` when b divides a, else to a `Fraction`, never to a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


# ---------------------------------------------------------------------------
# matrices


def _entries(v, n, what):
    """The nonzero entries {index: `rat`} of a vector of length n, given
    as a dense sequence or as an {index: value} dict; InputError(what) if
    it does not fit."""
    if isinstance(v, dict):
        out = {i: x for i, x in zip(v, map(rat, v.values())) if x}
        if out and not (0 <= min(out) and max(out) < n):
            raise InputError(what)
        return out
    v = tuple(map(rat, v))
    if len(v) != n:
        raise InputError(what)
    return {i: x for i, x in enumerate(v) if x}


def _transpose(vecs, n):
    """Sparse columns of the matrix with sparse rows `vecs` and n columns,
    or sparse rows of the one with sparse columns `vecs` and n rows, in
    O(nnz + n) (Gustavson's permuted transposition)."""
    out = [{} for _ in range(n)]
    for i, r in enumerate(vecs):
        for j, x in r.items():
            out[j][i] = x
    return out


class Matrix:
    """Immutable matrix over Q. `sparse_columns[j]` maps each row of a
    nonzero entry of column j to that entry, an `int` or a `Fraction`; these
    dicts are never mutated, so matrices share them."""

    __slots__ = ("sparse_columns", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        """Rows are dense sequences or {column: value} dicts. `ncols`
        defaults to the length of the first row; dict rows need it."""
        rows = list(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        self.sparse_columns = tuple(_transpose(
            [_entries(r, ncols, "ragged matrix") for r in rows], ncols))
        self.nrows, self.ncols = len(rows), ncols

    @classmethod
    def _of_columns(cls, cols, nrows):  # cols: sparse columns without zeros, unchecked
        m = object.__new__(cls)
        m.sparse_columns = cols if type(cols) is tuple else tuple(cols)
        m.nrows, m.ncols = nrows, len(m.sparse_columns)
        return m

    @classmethod
    def zero(cls, nrows, ncols):
        return cls._of_columns(({},) * ncols, nrows)

    @classmethod
    def identity(cls, n):
        return cls._of_columns(({i: 1} for i in range(n)), n)

    def sparse_rows(self):
        """New {column: value} dicts of the nonzero entries of each row, the
        one transposition, for the routines that eliminate rows."""
        return _transpose(self.sparse_columns, self.nrows)

    @property
    def rows(self):
        """Dense view: a tuple of row tuples."""
        return tuple(zip(*self.columns())) if self.ncols else ((),) * self.nrows

    def columns(self):
        rows = range(self.nrows)
        return [tuple(c.get(i, 0) for i in rows) for c in self.sparse_columns]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.sparse_columns == other.sparse_columns \
            and self.nrows == other.nrows and self.ncols == other.ncols

    def __hash__(self):
        return hash((tuple(frozenset(c.items()) for c in self.sparse_columns),
                     self.nrows, self.ncols))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InputError("shape mismatch in matrix addition")
        out = []
        for c, s in zip(self.sparse_columns, other.sparse_columns):
            if c and s:
                c = dict(c)
                accumulate(c, s)
                out.append(c)
            else:
                out.append(c or s)
        return Matrix._of_columns(out, self.nrows)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix._of_columns(({i: -x for i, x in c.items()} for c in self.sparse_columns),
                                  self.nrows)

    def scale(self, c):
        c = rat(c)
        if not c:
            return Matrix.zero(self.nrows, self.ncols)
        return Matrix._of_columns(({i: c * x for i, x in v.items()} for v in self.sparse_columns),
                                  self.nrows)

    def __mul__(self, other):
        """Column-wise sparse product: column j of the result combines the
        columns of self with the entries of column j of other."""
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise InputError("shape mismatch in matrix product")
        cols = self.sparse_columns
        return Matrix._of_columns([combine(cols, v) for v in other.sparse_columns], self.nrows)

    def is_zero(self):
        return not any(self.sparse_columns)

    def trace(self):
        if self.nrows != self.ncols:
            raise InputError("trace of non-square matrix")
        return sum(c.get(j, 0) for j, c in enumerate(self.sparse_columns))

    def rank(self):
        """The rank: the count of nonzero rows when their leads are distinct
        (an echelon form up to order; no elimination), else by `_reduce` of
        the rows. Row leads, not column leads: the `_boundaries` matrices of
        `equieven` meet this shortcut by rows."""
        rows = [r for r in self.sparse_rows() if r]
        if len({min(r) for r in rows}) == len(rows):
            return len(rows)
        return len(_reduce(rows, full=False)[1])

    def kernel_basis(self):
        """Canonical basis matrix of ker(self), like `col_space`'s, written
        column by column off one right-to-left reduction of the rows: the
        t-th free column f has the kernel vector e_f - sum_p red_p[f] e_p,
        over the pivots p whose reduced row holds f, all right of f. Each
        column is written in ascending row order."""
        red, pivots = _reduce(self.sparse_rows(), max)
        by_pivot = dict(zip(pivots, red))
        cols = {}
        for j in range(self.ncols):
            r = by_pivot.get(j)
            if r is None:
                cols[j] = {j: 1}
                continue
            del r[j]
            for f, x in r.items():
                cols[f][j] = -x
        return Matrix._of_columns(cols.values(), self.ncols)

    def solve(self, b):
        """Some x with self*x = b, or None when the system is inconsistent."""
        b = _entries(b, self.nrows, "shape mismatch in solve")
        n, rows = self.ncols, self.sparse_rows()
        for i, x in b.items():
            rows[i][n] = x
        red, pivots = _reduce(rows)
        if n in pivots:
            return None
        x = [0] * n
        for r, p in zip(red, pivots):
            x[p] = r.get(n, 0)
        return tuple(x)

    def charpoly(self):
        """Characteristic polynomial det(tI - self), coefficients low to high."""
        if self.nrows != self.ncols:
            raise InputError("charpoly of non-square matrix")
        n = self.nrows
        # Faddeev-LeVerrier; exact over Q
        coeffs = [0] * (n + 1)
        coeffs[n] = 1
        m = Matrix.identity(n)
        for k in range(1, n + 1):
            m = self * m
            c = div(-m.trace(), k)
            coeffs[n - k] = c
            m = m + Matrix.identity(n).scale(c)
        return tuple(coeffs)

    def off_eigenvalue(self, lam):
        """self restricted to its generalized eigenspaces for eigenvalues other
        than lam: the image of (self - lam)^k for k >= dim (Fitting), reached
        by squaring, in the canonical `col_space` basis read at its leads. Its
        charpoly is self's with every factor t - lam divided out, so it is
        empty exactly when lam is the only eigenvalue: the squaring stops at
        a zero power, which gives the 0x0 matrix."""
        n, lam = self.nrows, rat(lam)
        if self.ncols != n:
            raise InputError("off_eigenvalue of non-square matrix")
        shifted = []
        for j, c in enumerate(self.sparse_columns):
            c = dict(c)
            if y := c.pop(j, 0) - lam:
                c[j] = y
            shifted.append(c)
        power, k = Matrix._of_columns(shifted, n), 1
        while k < n and not power.is_zero():
            power, k = power * power, 2 * k
        if power.is_zero():
            return Matrix.identity(0)
        img = col_space(power)
        leads = {min(c): t for t, c in enumerate(img.sparse_columns)}
        return Matrix._of_columns([{leads[i]: x for i, x in c.items() if i in leads}
                                   for c in (self * img).sparse_columns], img.ncols)


def _reduce(rows, lead=min, full=True):
    """Echelon form of sparse rows (consumed), leading at `lead`: min, or max
    for right to left. Shortest first, `eliminate` clears each row through the
    pivot table, and what is left becomes the pivot row of its lead, scaled to
    lead 1 (negated, or divided through `div`). `full` then clears the other
    pivots from each pivot row, from the last lead back.
    Unique for any row order. Returns pivot rows and leads, in lead order."""
    table = {}
    for w in sorted(rows, key=len):
        w = eliminate(w, lead, table)[0]
        if w:
            p = lead(w)
            x = w.pop(p)
            if x == -1:
                w = {j: -y for j, y in w.items()}
            elif x != 1:
                w = {j: div(y, x) for j, y in w.items()}
            w[p] = 1
            table[p] = p, w
    pivots = sorted(table, reverse=lead is max)
    if full:
        for p in reversed(pivots):
            r = table[p][1]
            for c in [c for c in r if c != p and c in table]:
                f = -r[c]
                for j, x in table[c][1].items():
                    r[j] = y = r[j] + f * x if j in r else f * x
                    if not y:
                        del r[j]
    return [table[p][1] for p in pivots], pivots


# ---------------------------------------------------------------------------
# characteristic polynomials, as tuples of rationals, lowest degree first


def signed_sum(terms):
    """Text of a sum of (rational coefficient, monomial text) terms, the
    monomial "" for a constant: a coefficient of +-1 is dropped before a
    monomial, and minus signs fold into the joins. "0" for no terms."""
    out = ""
    for c, mono in terms:
        if not mono:
            term = str(c)
        elif c == 1:
            term = mono
        elif c == -1:
            term = f"-{mono}"
        else:
            term = f"{c}*{mono}"
        if not out:
            out = term
        else:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out or "0"


def upoly_str(p, var="t"):
    """Text of a nonzero polynomial in var, highest degree first."""
    return signed_sum((p[e], "" if e == 0 else var if e == 1 else f"{var}^{e}")
                      for e in range(len(p) - 1, -1, -1) if p[e])


def sylvester(phi_w: Matrix, phi_v: Matrix):
    """The Sylvester operator X -> phi_w X - X phi_v on the linear maps
    X: V -> W, as a matrix whose unknown c * dim V + d is the entry X[c, d]."""
    nv, nw = phi_v.nrows, phi_w.nrows
    if phi_v.ncols != nv or phi_w.ncols != nw:
        raise InputError("automorphism matrices must be square")
    v_rows = phi_v.sparse_rows()
    cols = []
    for c in range(nw):
        for d in range(nv):
            # column (c, d): phi_w[a, c] at row (a, d), minus phi_v[d, b] at row (c, b)
            col = {a * nv + d: x for a, x in phi_w.sparse_columns[c].items()}
            for b, x in v_rows[d].items():
                y = col.pop(c * nv + b, 0) - x
                if y:
                    col[c * nv + b] = y
            cols.append(col)
    return Matrix._of_columns(cols, nw * nv)


# ---------------------------------------------------------------------------
# subspaces as canonical column spans


def col_space(columns, dim=None):
    """Canonical basis matrix (reduced column echelon) of the span of the
    columns of a Matrix, or of a list of vectors of Q^dim: dense, or
    {index: value} dicts. `dim` defaults to the length of the first one.
    A Matrix that is its own canonical basis is returned as it is; the
    check reads its sparse columns: each leads (has its first entry) with
    a 1, below the lead of the column before it, and no column holds
    another column's lead."""
    if isinstance(columns, Matrix):
        cols, leads, last = columns.sparse_columns, set(), -1
        for c in cols:
            if not c or (p := min(c)) <= last or c[p] != 1:
                break
            leads.add(p)
            last = p
        else:
            if all(len(leads.intersection(c)) == 1 for c in cols):
                return columns
        vecs, dim = [dict(c) for c in cols], columns.nrows
    else:
        columns = list(columns)
        if dim is None:
            if not columns:
                raise InputError("empty span needs an ambient dimension")
            dim = len(columns[0])
        vecs = [_entries(c, dim, f"a vector of the span does not lie in Q^{dim}")
                for c in columns]
    return Matrix._of_columns(_reduce(vecs)[0], dim)


def flag_basis(spans):
    """(level, basis, lead): the basis adapted to a flag of nested canonical
    spans. basis[k] is a column of spans[level[k]] that leads (has its first
    entry) where no earlier span leads, in the order of level and then of
    that index, and lead maps the index to (k, basis[k]). The elements of
    level at most t are a basis of spans[t] with distinct leads, so a vector
    lies in spans[t] exactly when its triangular expansion at the leads,
    `eliminate(v, min, lead)`, leaves nothing and uses only elements of
    level at most t. No elimination is needed to build it."""
    level, basis, lead = [], [], {}
    for t, span in enumerate(spans):
        if span.ncols > len(basis):
            for v in span.sparse_columns:
                if (p := min(v)) not in lead:
                    lead[p] = len(basis), v
                    level.append(t)
                    basis.append(v)
    return level, basis, lead


def flag_spans(level, basis, dim, count):
    """The canonical basis matrices of levels 0..count-1 of an adapted
    basis of Q^dim, the inverse of `flag_basis`: level t is the `col_space`
    of the elements basis[k] (sparse vectors) with level[k] <= t, where
    level[k] never decreases. A run of levels of one dimension shares one
    Matrix, and levels with no element share the empty span."""
    out, k = [], 0
    for t in range(count):
        start = k
        while k < len(basis) and level[k] <= t:
            k += 1
        out.append(out[-1] if out and k == start else
                   col_space(basis[:k], dim=dim) if k else Matrix.zero(dim, 0))
    return tuple(out)


def accumulate(out, terms):
    """Add the sparse {key: value} dict `terms` into `out` in place, the one
    zero-dropping sum: a key whose sum is zero leaves `out`."""
    for e, c in terms.items():
        prev = out.get(e)
        total = c if prev is None else prev + c
        if total:
            out[e] = total
        else:
            out.pop(e, None)


def combine(cols, v):
    """The sum of x * cols[j] over the entries x at j of the sparse vector v,
    for sparse vectors cols[j]."""
    out = {}
    for j, x in v.items():
        if x == 1:
            for i, y in cols[j].items():
                out[i] = out[i] + y if i in out else y
        else:
            for i, y in cols[j].items():
                out[i] = out[i] + x * y if i in out else x * y
    return {i: z for i, z in out.items() if z}


def eliminate(w, pick, table):
    """Triangular elimination of the sparse vector w (consumed), the one
    forward elimination: while the index p = pick(w) has an entry
    table[p] = (key, v), v nonzero at p, subtract the multiple c of v that
    clears w[p]. Returns what is left of w and the multiple c for each key."""
    used = {}
    while w:
        p = pick(w)
        if p not in table:
            break
        key, v = table[p]
        c = used[key] = w[p] if v[p] == 1 else div(w[p], v[p])
        if len(v) == 1:
            del w[p]
            continue
        for j, x in v.items():
            if j not in w:
                w[j] = -c * x
            elif y := w[j] - c * x:
                w[j] = y
            else:
                del w[j]
    return w, used


class Quotient:
    """Coordinates on span(Z)/span(D) with canonical representatives."""

    __slots__ = ("sub", "reps", "dim", "_solver")

    def __init__(self, z: Matrix, d: Matrix):
        if z.nrows != d.nrows:
            raise InputError("ambient dimension mismatch")
        self.sub = d
        # a column of z is a representative when it is outside the span of d
        # and the columns before it: a pivot column of [d | z]
        n = d.ncols
        pivots = _reduce(_transpose(d.sparse_columns + z.sparse_columns, d.nrows),
                         full=False)[1]
        self.reps = Matrix._of_columns([z.sparse_columns[p - n] for p in pivots if p >= n],
                                       z.nrows)
        self.dim = self.reps.ncols
        self._solver = Matrix._of_columns(d.sparse_columns + self.reps.sparse_columns, d.nrows)

    def matrix_of(self, images: Matrix):
        """Quotient coordinates of the classes of the columns of `images`
        (e.g. a map given on the representatives), by one elimination of
        [D | reps | images]."""
        s = self._solver
        if images.nrows != s.nrows:
            raise InputError("ambient dimension mismatch")
        n = s.ncols
        red, pivots = _reduce(_transpose(s.sparse_columns + images.sparse_columns, s.nrows))
        if pivots and pivots[-1] >= n:
            raise InputError("vector not in the total space of the quotient")
        # the representatives are pivots of [D | reps]; the image part of
        # their reduced rows holds the coordinates
        by_pivot = dict(zip(pivots, red))
        return Matrix._of_columns(_transpose(
            [{k - n: x for k, x in by_pivot[p].items() if k >= n}
             for p in range(self.sub.ncols, n)], images.ncols), self.dim)


# ---------------------------------------------------------------------------
# graded multivariate polynomials


class PolyRing:
    """Polynomial ring over Q with named generators of fixed positive degree."""

    __slots__ = ("names", "degrees", "_index")

    def __init__(self, gens):
        gens = tuple((str(n), int(d)) for n, d in gens)
        names = tuple(n for n, _ in gens)
        if len(set(names)) != len(names):
            raise InputError("duplicate generator names")
        if any(d <= 0 for _, d in gens):
            raise InputError("generator degrees must be positive")
        self.names = names
        self.degrees = tuple(d for _, d in gens)
        self._index = {n: i for i, n in enumerate(names)}

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names \
            and self.degrees == other.degrees

    def __hash__(self):
        return hash((self.names, self.degrees))

    def __repr__(self):
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"PolyRing({gens})"

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = rat(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * len(self.names): c})

    def gen(self, name):
        if name not in self._index:
            raise InputError(f"unknown generator {name!r}")
        exps = [0] * len(self.names)
        exps[self._index[name]] = 1
        return Polynomial(self, {tuple(exps): 1})

    def gens(self):
        return [self.gen(n) for n in self.names]

    def monomial(self, exps, coeff=1):
        exps = tuple(int(e) for e in exps)
        if len(exps) != len(self.names) or any(e < 0 for e in exps):
            raise InputError("bad exponent vector")
        coeff = rat(coeff)
        return Polynomial(self, {exps: coeff} if coeff != 0 else {})

    def exponents_of_degree(self, d):
        """All exponent tuples of graded degree d, in descending lexicographic
        order: each prefix is extended by every exponent of the next
        generator, largest first, and the last exponent takes what is left."""
        if d < 0:
            return []
        if not self.degrees:
            return [()] if d == 0 else []
        *head, last = self.degrees
        level = [((), d)]  # (exponent prefix, degree still to place)
        for deg in head:
            level = [(acc + (e,), rem - e * deg) for acc, rem in level
                     for e in range(rem // deg, -1, -1)]
        return [acc + (rem // last,) for acc, rem in level if rem % last == 0]

    def monomial_counts(self, top):
        """The number of monomials in each degree 0..top, by coin change."""
        counts = [1] + [0] * top
        for deg in self.degrees:
            for d in range(deg, top + 1):
                counts[d] += counts[d - deg]
        return counts

    def dim_of_degree(self, d):
        return self.monomial_counts(d)[d] if d >= 0 else 0


class Polynomial:
    """Element of a PolyRing; sparse exponent-vector representation."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c != 0}

    def _check(self, other):
        if self.ring != other.ring:
            raise InputError("polynomials from different rings")

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.ring == other.ring \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        accumulate(out, other.terms)
        return Polynomial(self.ring, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def scale(self, c):
        c = rat(c)
        if c == 0:
            return self.ring.zero()
        return Polynomial(self.ring, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        return Polynomial(self.ring, mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise InputError("negative power")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def monomial_degree(self, exps):
        return sum(e * d for e, d in zip(exps, self.ring.degrees))

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    def substitute(self, target_ring, images):
        """Ring map sending generator name -> images[name] (a Polynomial)."""
        out = target_ring.zero()
        for e, c in self.terms.items():
            term = target_ring.const(c)
            for name, exp in zip(self.ring.names, e):
                if exp:
                    img = images[name]
                    if img.ring != target_ring:
                        raise InputError("image polynomial in the wrong ring")
                    term = term * img ** exp
            out = out + term
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda t: (self.monomial_degree(t[0]), t[0]))

    def __str__(self):
        return signed_sum((c, "*".join(f"{n}^{k}" if k > 1 else n
                                       for n, k in zip(self.ring.names, e) if k))
                          for e, c in self.sorted_terms())

    __repr__ = __str__

    def to_json(self):
        return {"vars": list(self.ring.names),
                "terms": [{"coeff": str(c), "exps": list(e)}
                          for e, c in self.sorted_terms()]}


def mul_terms(a, b):
    """The product of two polynomials given as {exponents: coefficient}
    dicts, as a plain dict (which may hold zero coefficients)."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return out


def shift_terms(a, exps):
    """The polynomial {exponents: coefficient} a times the monomial with
    the given exponents: an exponent shift."""
    return {tuple(map(add, e, exps)): c for e, c in a.items()}


def poly_from_json(data, ring):
    if not isinstance(data, dict):
        raise InputError("a polynomial must be a JSON object")
    if tuple(data.get("vars", ())) != ring.names:
        raise InputError("polynomial variables do not match the expected ring")
    out = ring.zero()
    for t in data.get("terms", []):
        out = out + ring.monomial(t["exps"], rat(t["coeff"]))
    return out


def elementary_symmetric(polys, k):
    """k-th elementary symmetric polynomial of the given ring elements."""
    if k < 0 or k > len(polys):
        raise InputError("elementary symmetric index out of range")
    if k == 0:
        if not polys:
            raise InputError("need at least one polynomial to locate the ring")
        return polys[0].ring.one()
    out = None
    from itertools import combinations
    for combo in combinations(polys, k):
        term = combo[0]
        for p in combo[1:]:
            term = term * p
        out = term if out is None else out + term
    return out
