"""Cohomology rings of configuration spaces of R^n.

Generators x_ij (1 <= i < j <= k) of degree n-1, with x_ji = (-1)^n x_ij,
x_ij^2 = 0, and the three-term relation on every triple of points. Normal
form: products of generators whose edges have pairwise distinct larger
endpoints, edges sorted ascending by (max, min). A repeated maximum (i,j),(k,j)
with i < k rewrites, in canonical sorted words, to

    x_ij x_kj  =  x_ik x_kj - x_ik x_ij

which holds for both parities of n once Koszul signs are tracked by the sort.
`word_counts` is the one rewrite loop of the package: with `pair` it also
reduces the odd graph calculus of `equiodd`, these rules with a p_n term
added to the square and three-term rules.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction as Q
from itertools import product
from operator import attrgetter, itemgetter

from .charclasses import POINT_BOUND
from .errors import CapacityError, InputError
from .exactalg import (PolyRing, Polynomial, accumulate, mul_terms, poly_from_json, rat,
                       shift_terms, signed_sum)

Edge = tuple  # (i, j) with i < j


edge_key = itemgetter(1, 0)  # edges sort by (max, min); read at C speed


def normalize_generator(k, i, j, n):
    """Canonical (edge, sign) for a raw generator x_ij, any index order."""
    if not (1 <= i <= k and 1 <= j <= k) or i == j:
        raise InputError(f"generator index out of range: ({i}, {j}) with {k} points")
    if i < j:
        return (i, j), 1
    return (j, i), 1 if n % 2 == 0 else -1


def check_edges(k, edges):
    """The edges as a tuple; InputError unless each is (i, j), 1 <= i < j <= k."""
    edges = tuple(edges)
    for e in edges:
        if type(e) is not tuple or len(e) != 2 or type(e[0]) is not int \
                or type(e[1]) is not int or not 1 <= e[0] < e[1] <= k:
            raise InputError(f"edge {e!r} is not (i, j) with 1 <= i < j <= {k}")
    return edges


def koszul_sort(edges, n):
    """Sort edges by (max, min); returns (sign, tuple). Sign is Koszul."""
    if n % 2:  # generators of even degree n-1 commute
        return 1, tuple(sorted(edges, key=edge_key))
    edges = list(edges)
    sign = 1
    for i in range(1, len(edges)):
        # insertion sort: shift the larger edges before b up by one each
        b = edges[i]
        key = (b[1], b[0])
        j = i
        while j > 0 and (edges[j - 1][1], edges[j - 1][0]) > key:
            edges[j] = edges[j - 1]
            sign = -sign
            j -= 1
        edges[j] = b
    return sign, tuple(edges)


def word_counts(k, n, word, rng=None, pair=False):
    """Normal form of a single word of canonical edges, with integer
    multiplicities: a dict mapping admissible sorted edge tuples to nonzero
    ints. Every rewrite has coefficients +-1, so no fraction is needed.

    With `pair`, the rules are those of the odd graph calculus, where a
    square is a pair class p_n instead of zero: a square rewrites to the
    word without both edges, and each three-term rewrite gains the word
    without its redex. A word g then stands for p_n^m g, with
    m = (len(word) - len(g)) / 2, and at p_n = 0 (the terms of full length)
    the rules are those without `pair`.

    When `rng` is given, the redex processed at each step is chosen at
    random instead of leftmost; the result must not depend on this choice
    (confluence), which the verification suites exercise.
    """
    odd_degree = n % 2 == 0  # generators have degree n-1
    sign, word = koszul_sort(word, n)
    out = {}
    stack = [(word, sign)]
    while stack:
        edges, c = stack.pop()
        redexes = []
        dead = False
        for t in range(len(edges) - 1):
            a, b = edges[t], edges[t + 1]
            if a[1] == b[1]:
                if a == b and not pair:
                    dead = True  # x^2 = 0
                    break
                redexes.append(t)
        if dead:
            continue
        if not redexes:
            v = out.get(edges, 0) + c
            if v:
                out[edges] = v
            else:
                out.pop(edges, None)
            continue
        t = redexes[0] if rng is None else rng.choice(redexes)
        (i, j), (kk, _) = edges[t], edges[t + 1]
        if i == kk:  # a square, reached only with `pair`: y^2 = p_n
            stack.append((edges[:t] + edges[t + 2:], c))
            continue
        # x_ij x_kj = x_ik x_kj - x_ik x_ij  (i < k < j): both words stay
        # sorted but for x_ik, which moves left past the head edges after it
        p = bisect_right(edges, (kk, i), 0, t, key=edge_key)
        s = -c if odd_degree and (t - p) % 2 else c
        head = edges[:p] + ((i, kk),) + edges[p:t]
        stack.append((head + edges[t + 1:], s))
        stack.append((head + (edges[t],) + edges[t + 2:], -s))
        if pair:  # + p_n times the word without the redex
            stack.append((edges[:t] + edges[t + 2:], c))
    return out


def reduce_word(k, n, word, coeff=Q(1), rng=None):
    """Normal-form terms of coeff times a single word of canonical edges:
    a dict mapping admissible sorted edge tuples to Fraction coefficients,
    the `word_counts` (with the same `rng`) scaled by coeff."""
    word = check_edges(k, word)
    coeff = rat(coeff)
    if not coeff:
        return {}
    return {e: coeff * c for e, c in word_counts(k, n, word, rng).items()}


class EdgeCombination:
    """Sparse linear combination of admissible edge words.

    `terms` maps sorted edge tuples to nonzero coefficients: Fractions when
    `ring` is None, Polynomials of `ring` otherwise. The coefficient ring
    also selects the print format. Subclasses declare their header fields
    (`FIELDS`, as (name, JSON converter) pairs, also the constructor's
    leading arguments; every header has `points`, and a polynomial ring has
    `halfdim` generators), the ambient dimension (an edge has degree
    ambient - 1) and the print letter.

    `counts(word, rng)` is the `word_counts` of one edge word in the
    element's ring: its normal form with integer multiplicities and no
    coefficients, {admissible word g: int}. `pair_exps` selects the pair
    rule: where it is set (p_n in the odd graph calculus), a square is the
    monomial of those exponents, and g stands for that monomial to the power
    (len(word) - len(g)) / 2 times g. Products and `_from_words` apply each
    coefficient once to these multiplicities.
    """

    __slots__ = ("terms",)
    FIELDS = ()
    letter = "x"
    ring = None
    pair_exps = None

    def __init__(self, terms):
        if self.points < 0:
            raise InputError("negative point count")
        if self.points > POINT_BOUND:
            raise CapacityError(f"{self.points} points exceed the bound {POINT_BOUND}")
        self.terms = {e: c for e, c in terms.items() if c}

    def __init_subclass__(cls):
        # the header tuple, read at C speed: every result and check uses it
        cls.header = property(attrgetter(*(name for name, _ in cls.FIELDS)))

    def counts(self, word, rng=None):
        """The `word_counts` of an edge word in this element's ring."""
        return word_counts(self.points, self.ambient, word, rng, self.pair_exps is not None)

    def _new(self, terms):
        return type(self)(*self.header, terms)

    def _check(self, other):
        if type(other) is not type(self) or self.header != other.header:
            raise InputError("elements from different rings")

    def __eq__(self, other):
        return type(other) is type(self) and self.header == other.header \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.header, tuple(sorted(self.terms.items()))))

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        accumulate(out, other.terms)
        return self._new(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({e: -c for e, c in self.terms.items()})

    def scale(self, c):
        c = rat(c)
        return self._new({e: v * c for e, v in self.terms.items()})

    def scale_poly(self, poly):
        return self._new({e: p * poly for e, p in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, EdgeCombination):
            return self.scale(other)
        self._check(other)
        pairs = product(self.terms.items(), other.terms.items())
        if self.ring is None:
            return self._reduce((e1 + e2, c1 * c2) for (e1, c1), (e2, c2) in pairs)
        return self._reduce((e1 + e2, mul_terms(c1.terms, c2.terms))
                            for (e1, c1), (e2, c2) in pairs)

    __rmul__ = __mul__

    def _canonical(self, word):
        """(sorted-pair edge tuple, orientation sign) of a raw index-pair word."""
        canonical, sign = [], 1
        for i, j in word:
            e, s = normalize_generator(self.points, i, j, self.ambient)
            canonical.append(e)
            sign *= s
        return tuple(canonical), sign

    def _from_words(self, words):
        """Normal form of a sum of (raw index-pair word, coefficient) items."""
        items = []
        for word, c in words:
            canonical, sign = self._canonical(word)
            c = c if sign == 1 else -c
            items.append((canonical, c if self.ring is None else c.terms))
        return self._reduce(items)

    def _reduce(self, items, rng=None):
        """The element sum c * w over (sorted edge word w, coefficient c)
        items, a polynomial coefficient given as its {exponents: Fraction}
        dict. Each coefficient is applied once to the `counts` of its word
        (and shifted once per power of `pair_exps`), the sums stay plain dicts,
        and one Polynomial is built per output word."""
        counts = self.counts
        out = {}
        if self.ring is None:
            for word, c in items:
                for g, m in counts(word, rng).items():
                    v = c if m == 1 else -c if m == -1 else m * c
                    out[g] = out[g] + v if g in out else v
            return self._new(out)
        pair = self.pair_exps
        for word, c in items:
            shifted = {len(word): c}  # by output word length
            for g, m in counts(word, rng).items():
                size = len(g)
                if size not in shifted:
                    k = (len(word) - size) // 2
                    shifted[size] = shift_terms(c, [k * x for x in pair])
                acc = out.get(g)
                if acc is None:
                    acc = out[g] = {}
                for e, v in shifted[size].items():
                    if m != 1:
                        v = -v if m == -1 else m * v
                    acc[e] = acc[e] + v if e in acc else v
        ring = self.ring
        return self._new({g: Polynomial(ring, acc) for g, acc in out.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda t: (len(t[0]), tuple(edge_key(e) for e in t[0])))

    def __str__(self):
        terms = [(c, "*".join(f"{self.letter}{i}{j}" if i < 10 and j < 10
                              else f"{self.letter}{i}_{j}" for i, j in edges))
                 for edges, c in self.sorted_terms()]
        if self.ring is None:
            return signed_sum(terms)
        # polynomial coefficients stay whole, in parentheses where they are sums
        parts = []
        for c, mono in terms:
            coeff = str(c)
            if not mono:
                parts.append(f"({coeff})" if ("+" in coeff or " - " in coeff) else coeff)
            elif coeff == "1":
                parts.append(mono)
            else:
                parts.append(f"({coeff})*{mono}")
        return " + ".join(parts) or "0"

    __repr__ = __str__

    def to_json(self):
        scalar = self.ring is None
        data = {name: getattr(self, name) for name, _ in self.FIELDS}
        data["terms"] = [{"coeff": str(c) if scalar else c.to_json(),
                          "edges": [list(e) for e in edges]}
                         for edges, c in self.sorted_terms()]
        return data

    @classmethod
    def from_json(cls, data):
        """Parse `to_json` output; each term's edge word is put in normal form."""
        try:
            elem = cls(*(convert(data[name]) for name, convert in cls.FIELDS), {})
            terms, ring = data["terms"], None
            if cls.ring is not None and terms:
                # a coefficient ring has `halfdim` generators: refuse other
                # variable counts before building it, at a cost linear in
                # the JSON rather than in the header
                if any(len(t["coeff"]["vars"]) != elem.halfdim for t in terms):
                    raise InputError("polynomial variables do not match the expected ring")
                ring = elem.ring
            words = []
            for t in terms:
                word = []
                for pair in t["edges"]:
                    if not isinstance(pair, list) or len(pair) != 2:
                        raise InputError(f"edge {pair!r} is not a pair of point indices")
                    word.append((int(pair[0]), int(pair[1])))
                coeff = t["coeff"]
                words.append((word, rat(coeff) if ring is None
                              else poly_from_json(coeff, ring)))
            return elem._from_words(words)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed {cls.__name__}: {exc}") from exc

    def from_coordinates(self, keys, vec):
        """The element of this element's ring with the given coordinates."""
        ring = self.ring
        if ring is None:
            return self._new(dict(zip(keys, vec)))
        coeffs = {}
        for (edges, exps), c in zip(keys, vec):
            if c:
                coeffs.setdefault(edges, {})[exps] = c
        return self._new({e: Polynomial(ring, m) for e, m in coeffs.items()})


class ConfElement(EdgeCombination):
    """Q-linear combination of admissible edge monomials for Conf_k(R^n)."""

    __slots__ = ("points", "dim")
    FIELDS = (("points", int), ("dim", int))

    def __init__(self, points, dim, terms):
        if dim < 2:
            raise InputError("ambient dimension must be at least 2")
        self.points = points
        self.dim = dim
        super().__init__(terms)

    @classmethod
    def _unchecked(cls, points, dim, terms):
        """The element of a header checked by its builder and admissible, nonzero terms."""
        a = object.__new__(cls)
        a.points, a.dim, a.terms = points, dim, terms
        return a

    @property
    def ambient(self):
        return self.dim


def unit(k, n):
    return ConfElement(k, n, {(): Q(1)})


def zero(k, n):
    return ConfElement(k, n, {})


def generator(k, n, i, j):
    edge, sign = normalize_generator(k, i, j, n)
    return ConfElement(k, n, {(edge,): Q(sign)})


def normal_form(k, n, word, coeff=Q(1)):
    """Normal form of a raw product of generators, given as index pairs."""
    word, sign = zero(k, n)._canonical(word)
    return ConfElement(k, n, reduce_word(k, n, word, rat(coeff) * sign))


def check_args(k, n, degree=0):
    if k < 0 or n < 2 or degree < 0:
        raise InputError("need k >= 0, n >= 2, degree >= 0")


def basis_keys(k, n, degree):
    """The admissible edge words of the given degree, sorted by (max, min)
    edge by edge: each word is extended by every edge whose maximum exceeds
    its last one and leaves room for the edges still to come, so the words
    come out in order."""
    check_args(k, n, degree)
    if degree % (n - 1) != 0:
        return []
    m = degree // (n - 1)
    words = [()]
    for s in range(m):
        top = k - (m - 1 - s)
        words = [w + ((i, j),) for w in words
                 for j in range(w[-1][1] + 1 if w else 2, top + 1) for i in range(1, j)]
    return words


def dimension(k, n, degree):
    return len(basis_keys(k, n, degree))


def top_degree(k, n):
    return max(k - 1, 0) * (n - 1)


def edge_word_counts(k):
    """e_m(1, ..., k-1), the number of admissible words of m edges on k points."""
    counts = [1] + [0] * (k - 1)
    for j in range(1, k):  # times (1 + j t), in place from the top down
        for m in range(j, 0, -1):
            counts[m] += j * counts[m - 1]
    return counts


def graded_dimensions(points, fiber, ring, top):
    """dim ring (x) H*(Conf_points) in each degree d <= top: sum_m e_m dim ring_(d - fiber m)."""
    return spaced_dimensions(edge_word_counts(points), fiber, ring, top)


def spaced_dimensions(counts, fiber, ring, top):
    """sum_m counts[m] dim ring_(d - fiber m) in each degree d <= top."""
    ring_dims, sizes = ring.monomial_counts(top), [0] * (top + 1)
    for m, c in enumerate(counts):
        for d in range(fiber * m, top + 1):
            sizes[d] += c * ring_dims[d - fiber * m]
    return sizes


def poincare_formula(k, n):
    """The Poincare polynomial of Conf_k(R^n) in closed form: the product over
    j < k of (1 + j t^(n-1)) (Arnold 1969, F. Cohen 1976). The basis has k!
    monomials; `oracles.poincare_polynomial` counts them as a cross-check."""
    check_args(k, n)
    return Polynomial(PolyRing([("t", 1)]),
                      {(m * (n - 1),): Q(c) for m, c in enumerate(edge_word_counts(k))})


def label_action(sigma, a: EdgeCombination):
    """Ring automorphism induced by relabeling points by the permutation sigma.

    `sigma` is a tuple/list of images: point i goes to sigma[i-1]. Works on
    every element type; the relabeled words are renormalized with their
    orientation signs.
    """
    k = a.points
    sigma = tuple(int(x) for x in sigma)
    if len(sigma) != k or sorted(sigma) != list(range(1, k + 1)):
        raise InputError("not a permutation of the point labels")
    return a._from_words(([(sigma[i - 1], sigma[j - 1]) for i, j in edges], c)
                         for edges, c in a.terms.items())


def arnold_relation(k, n, a, b, c):
    """x_ab x_bc + x_bc x_ca + x_ca x_ab, which must reduce to zero."""
    return (normal_form(k, n, [(a, b), (b, c)])
            + normal_form(k, n, [(b, c), (c, a)])
            + normal_form(k, n, [(c, a), (a, b)]))
