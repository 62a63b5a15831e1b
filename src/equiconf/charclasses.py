"""Classifying-space cohomology rings, Weyl groups, and their invariants.

Weyl groups are stored as signed permutations (sigma, eps, eta); eta is the
residual reflection of odd orthogonal groups and acts trivially on the torus
variables. Two conventions for the special-orthogonal subgroups are exposed:
"standard" (even number of sign flips; eta = prod eps in the odd case) and
"paper" (an extra sign(sigma) factor in the constraint). Both are index-2
subgroups; "standard" is the default and is the one under which the torus
invariants reproduce the classical rings of Pontryagin/Euler classes.

A Weyl element sends a monomial basis key to a signed key, so every
Weyl-fixed basis (`invariant_basis`, `equiodd.fixed_point_basis`,
`equieven.weyl_fixed_page_basis`) is read off as signed orbit sums by
`fixed_rows`, without polynomial arithmetic or elimination. A Weyl element
moves only the exponents, so `fixed_rows` works out the signed orbit of each
(exponent vector, word-length parity) once per call, an orbit table that
every edge word with those exponents shares. The slow route
that averages each basis element over the group is
`oracles.averaged_fixed_basis`, the tests' reference.

The input bounds of the package live here, and `check_basis_size` is the
one size check: a basis sized by its closed form (the Poincare polynomial
of the configuration space times the monomial counts of the coefficient
ring) past BASIS_BOUND, for a listed basis, or MODEL_BOUND, for a page
model, is refused before it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from itertools import permutations, product as iter_product
from operator import itemgetter

from .errors import CapacityError, InputError
from .exactalg import PolyRing, Polynomial, elementary_symmetric

FAMILIES = ("torus", "so_odd", "o_odd", "so_even", "o_even", "u")
RANK_BOUND = 5
# the most points an element, an element JSON or a CLI --points may name: a
# DOT rendering writes one line per point
POINT_BOUND = 64
# the most torus generators a CLI --halfdim may name: monomial enumeration
# extends every exponent prefix once per generator
HALFDIM_BOUND = 64
# the highest degree a CLI --degree or --max-degree may name: the model
# commands enumerate every degree up to it
DEGREE_BOUND = 64
# the most monomials a listed basis (`conf basis`, `equiodd.torus_basis`) has
# in its degree: bases grow factorially in the points, so they are sized first
BASIS_BOUND = 100_000
# the most monomials an `equieven` page model has in a degree it builds
MODEL_BOUND = 10_000
CONVENTIONS = ("standard", "paper")
ONE, MINUS_ONE = Q(1), Q(-1)


def check_basis_size(size, degree, bound=BASIS_BOUND):
    """Refuse a basis that the closed form sizes past `bound`, before it is built."""
    if size > bound:
        raise CapacityError(f"the degree {degree} basis has {size} monomials, "
                            f"more than the bound {bound}")


@dataclass(frozen=True)
class GroupSpec:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}")
        if self.rank < 1:
            raise InputError("rank must be at least 1")


@dataclass(frozen=True)
class WeylElement:
    """Signed permutation (sigma, eps) with residual reflection sign eta."""

    sigma: tuple
    eps: tuple
    eta: int = 1

    def __post_init__(self):
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(1, n + 1)):
            raise InputError("sigma is not a permutation")
        if len(self.eps) != n or any(e not in (1, -1) for e in self.eps):
            raise InputError("eps must be a tuple of signs")
        if self.eta not in (1, -1):
            raise InputError("eta must be a sign")

    def __mul__(self, other):
        """Composition so that action(self * other) = action(self) o action(other)."""
        if len(self.sigma) != len(other.sigma):
            raise InputError("rank mismatch")
        sigma = tuple(self.sigma[other.sigma[i] - 1] for i in range(len(self.sigma)))
        eps = tuple(other.eps[i] * self.eps[other.sigma[i] - 1]
                    for i in range(len(self.sigma)))
        return WeylElement(sigma, eps, self.eta * other.eta)

    def sign_of_sigma(self):
        sign = 1
        seen = [False] * len(self.sigma)
        for i in range(len(self.sigma)):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.sigma[j] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def eps_product(self):
        out = 1
        for e in self.eps:
            out *= e
        return out


def weyl_identity(rank):
    return WeylElement(tuple(range(1, rank + 1)), (1,) * rank, 1)


@lru_cache(maxsize=None)
def weyl_group(spec: GroupSpec, convention="standard"):
    """Complete element list of the Weyl group of the given family."""
    if convention not in CONVENTIONS:
        raise InputError(f"unknown convention {convention!r}")
    n = spec.rank
    if n > RANK_BOUND:
        raise CapacityError(f"rank {n} exceeds the enumeration bound {RANK_BOUND}")
    if spec.family == "torus":
        return (weyl_identity(n),)
    if spec.family == "u":
        return tuple(WeylElement(sigma, (1,) * n, 1)
                     for sigma in permutations(range(1, n + 1)))
    out = []
    for sigma in permutations(range(1, n + 1)):
        for eps in iter_product((1, -1), repeat=n):
            w = WeylElement(sigma, eps, 1)
            prod_eps = w.eps_product()
            constraint = prod_eps if convention == "standard" \
                else w.sign_of_sigma() * prod_eps
            if spec.family == "o_even":
                out.append(w)
            elif spec.family == "so_even":
                if constraint == 1:
                    out.append(w)
            elif spec.family == "so_odd":
                out.append(WeylElement(sigma, eps, constraint))
            elif spec.family == "o_odd":
                out.append(WeylElement(sigma, eps, 1))
                out.append(WeylElement(sigma, eps, -1))
    return tuple(out)


@lru_cache(maxsize=None)
def torus_ring(n):
    return PolyRing([(f"q{u}", 2) for u in range(1, n + 1)])


@lru_cache(maxsize=None)
def char_ring(spec: GroupSpec):
    """The classifying-space cohomology ring presentation for the family."""
    n = spec.rank
    if spec.family == "torus":
        return torus_ring(n)
    if spec.family in ("so_odd", "o_odd", "o_even"):
        return PolyRing([(f"p{u}", 4 * u) for u in range(1, n + 1)])
    if spec.family == "so_even":
        gens = [(f"p{u}", 4 * u) for u in range(1, n)]
        gens.append(("e", 2 * n))
        return PolyRing(gens)
    if spec.family == "u":
        return PolyRing([(f"c{u}", 2 * u) for u in range(1, n + 1)])
    raise InputError(f"unknown family {spec.family!r}")


def weyl_action(w: WeylElement, f: Polynomial):
    """q_i -> eps_i q_{sigma(i)}, extended as a ring map; eta acts trivially."""
    n = len(w.sigma)
    ring = f.ring
    if ring != torus_ring(n):
        raise InputError("polynomial does not live in the matching torus ring")
    out = {}
    for exps, c in f.terms.items():
        new = [0] * n
        sign = 1
        for i, e in enumerate(exps):
            if e:
                new[w.sigma[i] - 1] += e
                if w.eps[i] == -1 and e % 2 == 1:
                    sign = -sign
        key = tuple(new)
        v = out.get(key, Q(0)) + sign * c
        if v == 0:
            out.pop(key, None)
        else:
            out[key] = v
    return Polynomial(ring, out)


def fixed_rows(group, keys, odd_sign=None):
    """Reduced echelon basis of the group-fixed span of monomial keys.

    A key is (edge word, exponent tuple). An element w sends it to the same
    word with the exponents permuted by sigma and the sign prod eps_i^e_i,
    times odd_sign(w) on an odd-length word. The group average of a key is
    therefore its signed orbit sum, or zero when two elements send it to one
    image with opposite signs. Orbits have disjoint supports, so the nonzero
    sums, scaled to lead 1 at their first key, are already the reduced
    echelon basis. Returns one (edge word, {exponents: Fraction(+-1)}) pair
    per nonzero orbit sum, ordered by first key: the row is that word times
    that polynomial.

    The sign is a parity: bit i of a key's mask is the parity of e_i, and
    bit n that of the word length; bit i of w's mask is set where eps_i = -1,
    and bit n where odd_sign(w) = -1. The sign is -1 exactly when the two
    masks share an odd number of bits. The image is an `itemgetter` of the
    exponents.

    A Weyl element changes only the exponents, so the signed orbit of a key
    depends on its exponents and its word-length parity alone. Each such
    orbit table is worked out once per call and serves every word; a key in
    the orbit of a key met before is skipped first. A key alone in its orbit
    lies in no other key's orbit, so it skips the `seen` set.
    """
    n = len(group[0].sigma)
    acts = []  # (image of the exponents, mask) per group element
    for w in group:
        flips = sum(1 << i for i, e in enumerate(w.eps) if e == -1)
        if odd_sign is not None and odd_sign(w) == -1:
            flips |= 1 << n
        # rank 1 has only the identity permutation, and itemgetter(0) gives no tuple
        inverse = sorted(range(n), key=w.sigma.__getitem__)
        acts.append((itemgetter(*inverse) if n > 1 else tuple, flips))
    tables = {}  # (exponents, word-length parity) -> (orbit, signed row or None)
    seen, rows = set(), []
    for key in keys:
        if key in seen:
            continue
        edges, exps = key
        odd = len(edges) & 1
        table = tables.get((exps, odd))
        if table is None:
            parity = odd << n | sum((e & 1) << i for i, e in enumerate(exps))
            bits, vanishes = {}, False
            for image, flips in acts:
                bit = (flips & parity).bit_count() & 1
                vanishes |= bits.setdefault(image(exps), bit) != bit
            table = tables[exps, odd] = (
                tuple(bits),
                None if vanishes else {e: MINUS_ONE if bit else ONE for e, bit in bits.items()})
        orbit, row = table
        if len(orbit) > 1:
            seen.update((edges, e) for e in orbit)
        if row is not None:
            rows.append((edges, dict(row)))
    return rows


def invariant_basis(spec: GroupSpec, degree, convention="standard"):
    """Echelonized basis of the degree-d Weyl invariants of Q[q_1..q_n]."""
    ring = torus_ring(spec.rank)
    keys = [((), e) for e in ring.exponents_of_degree(degree)]
    return [Polynomial(ring, row) for _, row in fixed_rows(weyl_group(spec, convention), keys)]


def invariant_dimension(spec: GroupSpec, degree, convention="standard"):
    return len(invariant_basis(spec, degree, convention))


def torus_images(spec: GroupSpec):
    """Images of the characteristic classes under restriction to the torus."""
    n = spec.rank
    qring = torus_ring(n)
    qs = qring.gens()
    images = {}
    if spec.family == "torus":
        return {name: qring.gen(name) for name in qring.names}
    if spec.family in ("so_odd", "o_odd", "o_even"):
        squares = [q * q for q in qs]
        for u in range(1, n + 1):
            images[f"p{u}"] = elementary_symmetric(squares, u)
        return images
    if spec.family == "so_even":
        squares = [q * q for q in qs]
        for u in range(1, n):
            images[f"p{u}"] = elementary_symmetric(squares, u)
        euler = qs[0]
        for q in qs[1:]:
            euler = euler * q
        images["e"] = euler
        return images
    if spec.family == "u":
        for u in range(1, n + 1):
            images[f"c{u}"] = elementary_symmetric(qs, u)
        return images
    raise InputError(f"unknown family {spec.family!r}")


def restriction_map(source: GroupSpec, target: GroupSpec, f: Polynomial):
    """The documented restriction maps between classifying-space rings."""
    if f.ring != char_ring(source):
        raise InputError("polynomial does not live in the source ring")
    if target.family == "torus":
        if target.rank != source.rank:
            raise InputError("torus restriction requires equal rank")
        return f.substitute(torus_ring(source.rank), torus_images(source))
    if source.family == "o_even" and target.family == "so_even" \
            and source.rank == target.rank:
        n = source.rank
        ring = char_ring(target)
        images = {f"p{u}": ring.gen(f"p{u}") for u in range(1, n)}
        images[f"p{n}"] = ring.gen("e") ** 2
        return f.substitute(ring, images)
    if source.family == "so_even" and target.family == "so_odd" \
            and target.rank == source.rank - 1:
        n = source.rank
        ring = char_ring(target)
        images = {f"p{u}": ring.gen(f"p{u}") for u in range(1, n)}
        images["e"] = ring.zero()
        return f.substitute(ring, images)
    raise InputError(
        f"unsupported restriction {source.family}({source.rank}) -> "
        f"{target.family}({target.rank})")
