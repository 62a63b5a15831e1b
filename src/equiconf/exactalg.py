"""Exact linear and polynomial algebra over Q.

Everything runs on `fractions.Fraction`; no floating point anywhere. A
`Matrix` keeps dense rows, but its eliminations, products and matrix-vector
products work on sparse rows and skip the zeros that fill most matrices here.
Subspaces are canonical reduced column-echelon spans, so equal subspaces have
equal representations and every output is reproducible across runs. The tests
check this kernel against `oracles.dense_rref`, a separate dense elimination.
"""

from __future__ import annotations

from fractions import Fraction

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


class Matrix:
    """Immutable matrix of Fractions; `rows` is a dense tuple of row tuples."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        rows = tuple(tuple(rat(x) for x in row) for row in rows)
        if any(len(r) != len(rows[0]) for r in rows):
            raise InputError("ragged matrix")
        self.rows, self.nrows = rows, len(rows)
        self.ncols = len(rows[0]) if rows else (ncols or 0)

    @classmethod
    def _of(cls, rows, ncols):  # rows: equal-length tuples of Fractions, unchecked
        m = object.__new__(cls)
        m.rows, m.nrows = rows, len(rows)
        m.ncols = len(rows[0]) if rows else ncols
        return m

    @classmethod
    def zero(cls, nrows, ncols):
        return cls._of(((ZERO,) * ncols,) * nrows, ncols)

    @classmethod
    def identity(cls, n):
        return cls._of(tuple(tuple(ONE if i == j else ZERO for j in range(n))
                             for i in range(n)), n)

    @classmethod
    def from_columns(cls, cols, nrows=None):
        cols = [tuple(rat(x) for x in c) for c in cols]
        if any(len(c) != len(cols[0]) for c in cols):
            raise InputError("ragged columns")
        if not cols and nrows is None:
            raise InputError("from_columns with no columns needs nrows")
        return cls._of(tuple(zip(*cols)) if cols else ((),) * nrows, len(cols))

    def column(self, j):
        return tuple(row[j] for row in self.rows)

    def columns(self):
        return list(zip(*self.rows)) if self.rows else [()] * self.ncols

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows \
            and self.nrows == other.nrows and self.ncols == other.ncols

    def __hash__(self):
        return hash((self.rows, self.nrows, self.ncols))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InputError("shape mismatch in matrix addition")
        return Matrix._of(tuple(tuple(a + b if a and b else a or b for a, b in zip(r1, r2))
                                for r1, r2 in zip(self.rows, other.rows)), self.ncols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix._of(tuple(tuple(-a for a in r) for r in self.rows), self.ncols)

    def scale(self, c):
        c = rat(c)
        return Matrix._of(tuple(tuple(c * a if a else a for a in r) for r in self.rows),
                          self.ncols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise InputError("shape mismatch in matrix product")
        cols = [self.matvec(c) for c in other.columns()]
        return Matrix._of(tuple(zip(*cols)) if cols else ((),) * self.nrows, other.ncols)

    def matvec(self, v):
        if len(v) != self.ncols:
            raise InputError("shape mismatch in matrix-vector product")
        nz = [(j, x) for j, x in enumerate(map(rat, v)) if x]
        out = []
        for row in self.rows:
            terms = [row[j] * x for j, x in nz if row[j]]
            out.append(sum(terms[1:], terms[0]) if terms else ZERO)
        return tuple(out)

    def transpose(self):
        return Matrix._of(tuple(self.columns()), self.nrows)

    def is_zero(self):
        return not any(any(row) for row in self.rows)

    def trace(self):
        if self.nrows != self.ncols:
            raise InputError("trace of non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), ZERO)

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column tuple)."""
        red, pivots = _reduce(_sparse(self.rows), range(self.ncols))
        red += [{}] * (self.nrows - len(red))
        return Matrix._of(_dense(red, self.ncols), self.ncols), tuple(pivots)

    def rank(self):
        return len(_reduce(_sparse(self.rows), range(self.ncols), full=False)[1])

    def kernel_basis(self):
        """Basis of ker(self), echelon-normalized (leading entries 1)."""
        return list(_dense(_kernel(_sparse(self.rows), self.ncols), self.ncols))

    def solve(self, b):
        """Some x with self*x = b, or None when the system is inconsistent."""
        red, pivots = _reduce(self._augmented(b), range(self.ncols + 1))
        if self.ncols in pivots:
            return None
        x = [ZERO] * self.ncols
        for r, p in zip(red, pivots):
            x[p] = r.get(self.ncols, ZERO)
        return tuple(x)

    def _augmented(self, b):
        """Sparse rows of [self | b]."""
        if len(b) != self.nrows:
            raise InputError("shape mismatch in solve")
        rows = _sparse(self.rows)
        for r, x in zip(rows, map(rat, b)):
            if x:
                r[self.ncols] = x
        return rows

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


def _sparse(rows):
    """Rows as {column: Fraction} dicts of their nonzero entries."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _dense(rows, ncols):
    return tuple(tuple(r.get(j, ZERO) for j in range(ncols)) for r in rows)


def _reduce(rows, order, full=True):
    """Echelon form of sparse rows (consumed), pivoting over `order`.

    A pivot is the shortest row holding its column, scaled only if its lead
    is not 1, and subtracted only from the rows holding that column. `full`
    also clears it from earlier pivot rows (reduced form; ranks need only
    the pivots). Returns the pivot rows and their columns, in pivot order.
    """
    done, pivots = [], []
    for c in order:
        if not rows:
            break
        p = min((r for r in rows if c in r), key=len, default=None)
        if p is None:
            continue
        rows = [r for r in rows if r and r is not p]
        lead = p.pop(c)
        if lead != 1:
            p = {j: x / lead for j, x in p.items()}
        for r in rows + done if full else rows:
            if c in r:
                f = -r.pop(c)
                for j, x in p.items():
                    r[j] = y = r[j] + f * x if j in r else f * x
                    if not y:
                        del r[j]
        p[c] = ONE
        done.append(p)
        pivots.append(c)
    return done, pivots


def _kernel(rows, ncols):
    """Reduced echelon basis of the kernel of sparse rows, as sparse vectors:
    pivoting right to left leaves each free column f the kernel vector
    e_f - sum_p red_p[f] e_p, whose other entries lie right of f."""
    red, pivots = _reduce(rows, range(ncols - 1, -1, -1))
    pivset = set(pivots)
    out = []
    for f in range(ncols):
        if f not in pivset:
            v = {f: ONE}
            for r, p in zip(red, pivots):
                if f in r:
                    v[p] = -r[f]
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# univariate polynomials over Q (for characteristic polynomials)
# represented as tuples of Fractions, lowest degree first


def upoly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def upoly_deg(p):
    return len(p) - 1


def upoly_mul(p, q):
    if not p or not q:
        return ()
    out = [Q(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return upoly_trim(out)


def upoly_divmod(p, q):
    p, q = list(upoly_trim(p)), upoly_trim(q)
    if not q:
        raise InputError("division by zero polynomial")
    quo = [Q(0)] * max(0, len(p) - len(q) + 1)
    while len(p) >= len(q) and any(x != 0 for x in p):
        shift = len(p) - len(q)
        f = p[-1] / q[-1]
        quo[shift] = f
        for i, b in enumerate(q):
            p[shift + i] -= f * b
        while p and p[-1] == 0:
            p.pop()
    return upoly_trim(quo), upoly_trim(p)


def upoly_monic(p):
    p = upoly_trim(p)
    if not p:
        return p
    lead = p[-1]
    return tuple(x / lead for x in p)


def upoly_xgcd(p, q):
    """Extended gcd: returns (g, s, t) monic with s*p + t*q = g."""
    r0, r1 = upoly_trim(p), upoly_trim(q)
    s0, s1 = (Q(1),), ()
    t0, t1 = (), (Q(1),)
    while r1:
        quo, rem = upoly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, upoly_trim([a - b for a, b in zip_pad(s0, upoly_mul(quo, s1))])
        t0, t1 = t1, upoly_trim([a - b for a, b in zip_pad(t0, upoly_mul(quo, t1))])
    if not r0:
        return (), (), ()
    lead = r0[-1]
    return (tuple(x / lead for x in r0), tuple(x / lead for x in s0),
            tuple(x / lead for x in t0))


def zip_pad(p, q):
    n = max(len(p), len(q))
    p = tuple(p) + (Q(0),) * (n - len(p))
    q = tuple(q) + (Q(0),) * (n - len(q))
    return zip(p, q)


def upoly_eval_matrix(p, m: Matrix):
    out = Matrix.zero(m.nrows, m.ncols)
    power = Matrix.identity(m.nrows)
    for c in p:
        if c != 0:
            out = out + power.scale(c)
        power = power * m
    return out


def upoly_str(p, var="t"):
    p = upoly_trim(p)
    if not p:
        return "0"
    parts = []
    for e in range(len(p) - 1, -1, -1):
        c = p[e]
        if c == 0:
            continue
        if e == 0:
            term = str(c)
        else:
            base = var if e == 1 else f"{var}^{e}"
            if c == 1:
                term = base
            elif c == -1:
                term = f"-{base}"
            else:
                term = f"{c}*{base}"
        parts.append(term)
    s = parts[0]
    for term in parts[1:]:
        s += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return s


def strip_linear_factor(p, lam):
    """Largest k with (t - lam)^k | p; returns (k, p / (t - lam)^k)."""
    lam = rat(lam)
    k = 0
    lin = (-lam, Q(1))
    while upoly_deg(p) >= 1:
        quo, rem = upoly_divmod(p, lin)
        if rem:
            break
        p = quo
        k += 1
    return k, p


def eigen_projector(m: Matrix, lam):
    """Projector onto the generalized lam-eigenspace of m.

    Splits the characteristic polynomial as (t - lam)^k * g with g(lam) != 0;
    no factorization of g is needed. Returns the zero matrix when lam is not
    an eigenvalue.
    """
    lam = rat(lam)
    p = m.charpoly()
    k, g = strip_linear_factor(p, lam)
    if k == 0:
        return Matrix.zero(m.nrows, m.ncols)
    if len(g) == 1:
        return Matrix.identity(m.nrows)
    f_lam = (Q(1),)
    for _ in range(k):
        f_lam = upoly_mul(f_lam, (-lam, Q(1)))
    _, u, _ = upoly_xgcd(g, f_lam)  # u*g = 1 mod (t-lam)^k
    h = upoly_divmod(upoly_mul(u, g), p)[1]
    return upoly_eval_matrix(h, m)


def equivariant_hom_dims(phi_v: Matrix, phi_w: Matrix):
    """(dim Hom, dim Ext1) of (V, phi_v) -> (W, phi_w) over Q[phi].

    Both come from the Sylvester operator X -> phi_w X - X phi_v on the space
    of linear maps V -> W: Hom is its kernel, Ext1 its cokernel.
    """
    nv, nw = phi_v.nrows, phi_w.nrows
    if phi_v.ncols != nv or phi_w.ncols != nw:
        raise InputError("automorphism matrices must be square")
    rows = []
    for a in range(nw):
        for b in range(nv):
            row = [Q(0)] * (nw * nv)
            for c in range(nw):
                row[c * nv + b] += phi_w.rows[a][c]
            for c in range(nv):
                row[a * nv + c] -= phi_v.rows[c][b]
            rows.append(row)
    r = Matrix._of(tuple(map(tuple, rows)), nw * nv).rank()
    return nw * nv - r, nw * nv - r


# ---------------------------------------------------------------------------
# subspaces as canonical column spans


def _columns_of(vecs, dim):
    """The matrix whose columns are the sparse vectors `vecs` of Q^dim."""
    return Matrix._of(tuple(tuple(v.get(i, ZERO) for v in vecs) for i in range(dim)), len(vecs))


def col_space(columns, dim=None):
    """Canonical basis matrix (reduced column echelon) of a column span."""
    if isinstance(columns, Matrix):
        dim, columns = columns.nrows, columns.columns()
    cols = [tuple(rat(x) for x in c) for c in columns]
    if cols:
        dim = len(cols[0])
        if any(len(c) != dim for c in cols):
            raise InputError("ragged matrix")
    elif dim is None:
        raise InputError("empty span needs an ambient dimension")
    return _columns_of(_reduce(_sparse(cols), range(dim))[0], dim)


def subspace_sum(a: Matrix, b: Matrix):
    if a.nrows != b.nrows:
        raise InputError("ambient dimension mismatch")
    return col_space(a.columns() + b.columns(), dim=a.nrows)


def subspace_intersection(a: Matrix, b: Matrix):
    if a.nrows != b.nrows:
        raise InputError("ambient dimension mismatch")
    if a.ncols == 0 or b.ncols == 0:
        return Matrix.zero(a.nrows, 0)
    # Zassenhaus: reduce the rows (x | x) for x in A and (y | 0) for y in B;
    # the reduced rows whose left half vanishes are (0 | basis of A cap B)
    dim = a.nrows
    rows = [r | {dim + i: x for i, x in r.items()} for r in _sparse(a.columns())]
    red, pivots = _reduce(rows + _sparse(b.columns()), range(2 * dim))
    return _columns_of([{i - dim: x for i, x in r.items()}
                        for r, p in zip(red, pivots) if p >= dim], dim)


def subspace_preimage(d: Matrix, s: Matrix):
    """Canonical basis of {x : d*x in span(s)} inside the source of d."""
    if d.nrows != s.nrows:
        raise InputError("ambient dimension mismatch")
    # pairs (x, y) with d x = s y; the reduced kernel vectors that lead
    # inside x restrict to the reduced basis of the preimage
    n = d.ncols
    rows = [r | {n + k: -y for k, y in t.items()}
            for r, t in zip(_sparse(d.rows), _sparse(s.rows))]
    return _columns_of([v for v in _kernel(rows, n + s.ncols) if min(v) < n], n)


def subspace_contains(s: Matrix, v):
    if s.ncols == 0:
        return all(rat(x) == 0 for x in v)
    return s.ncols not in _reduce(s._augmented(v), range(s.ncols + 1), full=False)[1]


def subspace_leq(a: Matrix, b: Matrix):
    return all(subspace_contains(b, c) for c in a.columns())


class Quotient:
    """Coordinates on span(Z)/span(D) with canonical representatives."""

    __slots__ = ("ambient", "sub", "reps", "dim", "_solver")

    def __init__(self, z: Matrix, d: Matrix):
        if z.nrows != d.nrows:
            raise InputError("ambient dimension mismatch")
        self.ambient = z.nrows
        self.sub = d
        # a column of z is a representative when it is outside the span of d
        # and the columns before it: a pivot column of [d | z]
        pivots = _reduce(_sparse(r + t for r, t in zip(d.rows, z.rows)),
                         range(d.ncols + z.ncols), full=False)[1]
        picked = [p - d.ncols for p in pivots if p >= d.ncols]
        self.dim = len(picked)
        self.reps = Matrix._of(tuple(tuple(r[t] for t in picked) for r in z.rows), self.dim)
        self._solver = Matrix._of(tuple(r + t for r, t in zip(d.rows, self.reps.rows)),
                                  d.ncols + self.dim)

    def coords(self, v):
        """Coordinates of the class of v in the representative basis."""
        sol = self._solver.solve(v)
        if sol is None:
            raise InputError("vector not in the total space of the quotient")
        return tuple(sol[self.sub.ncols:])

    def matrix_of(self, images):
        """Matrix (in quotient coordinates) of a map given on representatives."""
        cols = [self.coords(w) for w in images]
        return Matrix.from_columns(cols, nrows=self.dim)


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

    @property
    def ngens(self):
        return len(self.names)

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
        return Polynomial(self, {(0,) * self.ngens: c})

    def gen(self, name):
        if name not in self._index:
            raise InputError(f"unknown generator {name!r}")
        exps = [0] * self.ngens
        exps[self._index[name]] = 1
        return Polynomial(self, {tuple(exps): Q(1)})

    def gens(self):
        return [self.gen(n) for n in self.names]

    def monomial(self, exps, coeff=1):
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.ngens or any(e < 0 for e in exps):
            raise InputError("bad exponent vector")
        coeff = rat(coeff)
        return Polynomial(self, {exps: coeff} if coeff != 0 else {})

    def exponents_of_degree(self, d):
        """All exponent tuples of graded degree d, in a fixed order."""
        if d < 0:
            return []
        out = []

        def rec(i, rem, acc):
            if i == self.ngens:
                if rem == 0:
                    out.append(tuple(acc))
                return
            deg = self.degrees[i]
            for e in range(rem // deg, -1, -1):
                rec(i + 1, rem - e * deg, acc + [e])

        rec(0, d, [])
        return out

    def monomials_of_degree(self, d):
        return [self.monomial(e) for e in self.exponents_of_degree(d)]

    def dim_of_degree(self, d):
        return len(self.exponents_of_degree(d))


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
        for e, c in other.terms.items():
            v = out.get(e, Q(0)) + c
            if v == 0:
                out.pop(e, None)
            else:
                out[e] = v
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
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e, Q(0)) + c1 * c2
                if v == 0:
                    out.pop(e, None)
                else:
                    out[e] = v
        return Polynomial(self.ring, out)

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

    def degree(self):
        """Top graded degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.monomial_degree(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {self.monomial_degree(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_part(self, d):
        return Polynomial(self.ring, {e: c for e, c in self.terms.items()
                                      if self.monomial_degree(e) == d})

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
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = [f"{n}^{k}" if k > 1 else n
                       for n, k in zip(self.ring.names, e) if k]
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        s = parts[0]
        for p in parts[1:]:
            s += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return s

    __repr__ = __str__

    def to_json(self):
        return {"vars": list(self.ring.names),
                "terms": [{"coeff": str(c), "exps": list(e)}
                          for e, c in self.sorted_terms()]}


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
