"""Exact linear and polynomial algebra over Q.

Exact rationals; no floating point anywhere. The d_2n eliminations run on
`int` rows, and every `Matrix` that leaves the kernel holds `Fraction`s. A
`Matrix` stores sparse rows, one `{column: Fraction}` dict of the nonzero
entries of each row, and no zeros. Eliminations, products and the subspace
operations work on these rows directly and skip the zeros that fill most
matrices here. The dense `rows` and `columns()` are derived, read-only
views for printing, JSON and tests. Subspaces are canonical reduced
column-echelon spans, so equal subspaces have equal representations and every
output is reproducible across runs. Four primitives work on sparse dicts:
`accumulate`, the one in-place sum that drops zeros; `combine`, a linear
combination of sparse vectors; `eliminate`, the one forward elimination
through a pivot table (in `_reduce` for ranks, kernels, solves, spans and
quotients, in `specseq` for the barcode, décalage and validation); and
`_transpose`. The tests check this kernel against `oracles.dense_rref`, a
separate dense elimination.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import InputError

Q = Fraction


def rat(x) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {x!r}") from exc
    raise InputError(f"not a rational: {x!r}")


# ---------------------------------------------------------------------------
# matrices

ZERO, ONE = Q(0), Q(1)


def _entries(v, n, what):
    """The nonzero entries {index: Fraction} of a vector of length n, given
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


def _transpose(rows, n):
    """Sparse rows of the transpose of a matrix with sparse rows `rows` and
    n columns, in O(nnz + n) (Gustavson's permuted transposition)."""
    out = [{} for _ in range(n)]
    for i, r in enumerate(rows):
        for j, x in r.items():
            out[j][i] = x
    return out


class Matrix:
    """Immutable matrix over Q. `sparse_rows[i]` maps each column of a
    nonzero entry of row i to that entry; these dicts are never mutated.
    Built by `_of` or `_of_columns`, the entries may be `int`s: such a
    matrix serves `rank`, `kernel_basis` and `solve`, whose answers are
    counts and `Fraction`s."""

    __slots__ = ("sparse_rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        """Rows are dense sequences or {column: value} dicts. `ncols`
        defaults to the length of the first row; dict rows need it."""
        rows = list(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        self.sparse_rows = tuple(_entries(r, ncols, "ragged matrix") for r in rows)
        self.nrows, self.ncols = len(rows), ncols

    @classmethod
    def _of(cls, rows, ncols):  # rows: sparse rows without zeros, unchecked
        m = object.__new__(cls)
        m.sparse_rows = rows if type(rows) is tuple else tuple(rows)
        m.nrows, m.ncols = len(m.sparse_rows), ncols
        return m

    @classmethod
    def _of_columns(cls, cols, nrows):  # cols: sparse columns without zeros, unchecked
        return cls._of(_transpose(cols, nrows), len(cols))

    @classmethod
    def zero(cls, nrows, ncols):
        return cls._of(({},) * nrows, ncols)

    @classmethod
    def identity(cls, n):
        return cls._of(({i: ONE} for i in range(n)), n)

    @classmethod
    def from_columns(cls, cols, nrows=None):
        """The matrix with the given columns: dense, or {row: value} dicts."""
        cols = list(cols)
        if nrows is None:
            if not cols:
                raise InputError("from_columns with no columns needs nrows")
            nrows = len(cols[0])
        return cls._of(_transpose([_entries(c, nrows, "ragged columns") for c in cols],
                                  nrows), len(cols))

    def sparse_columns(self):
        """New {row: value} dicts of the nonzero entries of each column."""
        return _transpose(self.sparse_rows, self.ncols)

    @property
    def rows(self):
        """Dense view: a tuple of row tuples."""
        cols = range(self.ncols)
        return tuple(tuple(r.get(j, ZERO) for j in cols) for r in self.sparse_rows)

    def columns(self):
        return list(zip(*self.rows)) if self.nrows else [()] * self.ncols

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.sparse_rows == other.sparse_rows \
            and self.nrows == other.nrows and self.ncols == other.ncols

    def __hash__(self):
        return hash((tuple(frozenset(r.items()) for r in self.sparse_rows),
                     self.nrows, self.ncols))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InputError("shape mismatch in matrix addition")
        out = []
        for r, s in zip(self.sparse_rows, other.sparse_rows):
            if r and s:
                r = dict(r)
                accumulate(r, s)
                out.append(r)
            else:
                out.append(r or s)
        return Matrix._of(out, self.ncols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix._of(({j: -x for j, x in r.items()} for r in self.sparse_rows), self.ncols)

    def scale(self, c):
        c = rat(c)
        if not c:
            return Matrix.zero(self.nrows, self.ncols)
        return Matrix._of(({j: c * x for j, x in r.items()} for r in self.sparse_rows),
                          self.ncols)

    def __mul__(self, other):
        """Row-wise sparse product: row i of the result sums x * (row k of
        other) over the entries x at (i, k) of self."""
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise InputError("shape mismatch in matrix product")
        rows = other.sparse_rows
        out = []
        for r in self.sparse_rows:
            acc = {}
            for k, x in r.items():
                for j, y in rows[k].items():
                    acc[j] = acc[j] + x * y if j in acc else x * y
            out.append({j: z for j, z in acc.items() if z})
        return Matrix._of(out, other.ncols)

    def is_zero(self):
        return not any(self.sparse_rows)

    def trace(self):
        if self.nrows != self.ncols:
            raise InputError("trace of non-square matrix")
        return sum((r.get(i, ZERO) for i, r in enumerate(self.sparse_rows)), ZERO)

    def rank(self):
        """The rank: the count of nonzero rows when their leads are distinct
        (an echelon form up to order; no copy, no elimination), else by `_reduce`."""
        rows = [r for r in self.sparse_rows if r]
        if len({min(r) for r in rows}) == len(rows):
            return len(rows)
        return len(_reduce([dict(r) for r in rows], full=False)[1])

    def kernel_basis(self):
        """Canonical basis matrix of ker(self), like `col_space`'s, written
        row by row off one right-to-left reduction: the t-th free column f
        has the kernel vector e_f - sum_p red_p[f] e_p, so row f is {t: 1},
        and pivot p's row holds -red_p[f] at t for each free f of its
        reduced row, all left of p. The entries are `Fraction`s, also for
        `int` rows."""
        red, pivots = _reduce([dict(r) for r in self.sparse_rows], max)
        by_pivot = dict(zip(pivots, red))
        place, out = {}, []
        for j in range(self.ncols):
            r = by_pivot.get(j)
            if r is None:
                place[j] = t = len(place)
                out.append({t: ONE})
            else:
                del r[j]
                out.append({place[f]: -x if type(x) is Fraction else Fraction(-x)
                            for f, x in r.items()})
        return Matrix._of(out, len(place))

    def solve(self, b):
        """Some x with self*x = b, or None when the system is inconsistent."""
        b = _entries(b, self.nrows, "shape mismatch in solve")
        n = self.ncols
        red, pivots = _reduce([r | {n: b[i]} if i in b else dict(r)
                               for i, r in enumerate(self.sparse_rows)])
        if n in pivots:
            return None
        x = [ZERO] * n
        for r, p in zip(red, pivots):
            x[p] = r.get(n, ZERO)
        return tuple(x)

    def charpoly(self):
        """Characteristic polynomial det(tI - self), coefficients low to high."""
        if self.nrows != self.ncols:
            raise InputError("charpoly of non-square matrix")
        n = self.nrows
        # Faddeev-LeVerrier; exact over Q
        coeffs = [Q(0)] * (n + 1)
        coeffs[n] = Q(1)
        m = Matrix.identity(n)
        for k in range(1, n + 1):
            m = self * m
            c = -m.trace() / k
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
        for i, r in enumerate(self.sparse_rows):
            r = dict(r)
            if y := r.pop(i, ZERO) - lam:
                r[i] = y
            shifted.append(r)
        power, k = Matrix._of(shifted, n), 1
        while k < n and not power.is_zero():
            power, k = power * power, 2 * k
        if power.is_zero():
            return Matrix.identity(0)
        img = col_space(power)
        rows = (self * img).sparse_rows
        return Matrix._of([rows[min(c)] for c in img.sparse_columns()], img.ncols)


def _reduce(rows, lead=min, full=True):
    """Echelon form of sparse rows (consumed), leading at `lead`: min, or max
    for right to left. Shortest first, `eliminate` clears each row through the
    pivot table, and what is left becomes the pivot row of its lead, scaled to
    lead 1 (negated, or divided as a `Fraction`: never `int / int`). `full`
    then clears the other pivots from each pivot row, from the last lead back.
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
                x = Fraction(x)  # int / int would be a float
                w = {j: y / x for j, y in w.items()}
            w[p] = 1  # an int lead keeps `eliminate` off Fraction arithmetic
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
    for p in pivots:
        table[p][1][p] = ONE
    return [table[p][1] for p in pivots], pivots


# ---------------------------------------------------------------------------
# characteristic polynomials, as tuples of Fractions, lowest degree first


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
    v_cols = phi_v.sparse_columns()
    rows = []
    for a in range(nw):
        for b in range(nv):
            # row (a, b): phi_w[a, c] at X[c, b], minus phi_v[c, b] at X[a, c]
            row = {c * nv + b: x for c, x in phi_w.sparse_rows[a].items()}
            for c, x in v_cols[b].items():
                y = row.pop(a * nv + c, ZERO) - x
                if y:
                    row[a * nv + c] = y
            rows.append(row)
    return Matrix._of(rows, nw * nv)


# ---------------------------------------------------------------------------
# subspaces as canonical column spans


def _span(vecs, dim):
    """Canonical basis matrix of the span of sparse vectors (consumed) of Q^dim."""
    red = _reduce(vecs)[0]
    return Matrix._of(_transpose(red, dim), len(red))


def _beside(a: Matrix, b: Matrix):
    """New sparse rows of the block matrix [a | b]."""
    n = a.ncols
    return [r | {n + j: x for j, x in t.items()} for r, t in zip(a.sparse_rows, b.sparse_rows)]


def col_space(columns, dim=None):
    """Canonical basis matrix (reduced column echelon) of the span of the
    columns of a Matrix, or of a list of vectors of Q^dim: dense, or
    {index: value} dicts. `dim` defaults to the length of the first one.
    A Matrix that is its own canonical basis is returned as it is; the
    check reads each sparse row once: column c leads at a row {c: 1}, the
    columns lead in order, and no other row holds a column that has not led
    yet."""
    if isinstance(columns, Matrix):
        seen = 0  # the columns that have led so far
        for r in columns.sparse_rows:
            if seen in r:
                if len(r) > 1 or r[seen] != 1:
                    break
                seen += 1
            elif r and max(r) >= seen:
                break
        else:
            if seen == columns.ncols:
                return columns
        return _span(columns.sparse_columns(), columns.nrows)
    columns = list(columns)
    if dim is None:
        if not columns:
            raise InputError("empty span needs an ambient dimension")
        dim = len(columns[0])
    return _span([_entries(c, dim, f"a vector of the span does not lie in Q^{dim}")
                  for c in columns], dim)


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
            for v in span.sparse_columns():
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
        c = used[key] = w[p] if v[p] == 1 else w[p] / v[p]
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
        pivots = _reduce(_beside(d, z), full=False)[1]
        picked = {p - d.ncols: k for k, p in enumerate(p for p in pivots if p >= d.ncols)}
        self.dim = len(picked)
        self.reps = Matrix._of(({picked[t]: x for t, x in r.items() if t in picked}
                                for r in z.sparse_rows), self.dim)
        self._solver = Matrix._of(_beside(d, self.reps), d.ncols + self.dim)

    def matrix_of(self, images: Matrix):
        """Quotient coordinates of the classes of the columns of `images`
        (e.g. a map given on the representatives), by one elimination of
        [D | reps | images]."""
        s = self._solver
        if images.nrows != s.nrows:
            raise InputError("ambient dimension mismatch")
        red, pivots = _reduce(_beside(s, images))
        if pivots and pivots[-1] >= s.ncols:
            raise InputError("vector not in the total space of the quotient")
        # the representatives are pivots of [D | reps]; the image part of
        # their reduced rows holds the coordinates
        by_pivot = dict(zip(pivots, red))
        return Matrix._of(({k - s.ncols: x for k, x in by_pivot[p].items() if k >= s.ncols}
                           for p in range(self.sub.ncols, s.ncols)), images.ncols)


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
        return Polynomial(self, {tuple(exps): Q(1)})

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
        return self.terms.get(tuple(exps), Q(0))

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
