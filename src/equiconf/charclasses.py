"""Classifying-space cohomology rings, Weyl groups, and their invariants.

Weyl groups are stored as signed permutations (sigma, eps, eta); eta is the
residual reflection of odd orthogonal groups and acts trivially on the torus
variables. Two conventions for the special-orthogonal subgroups are exposed:
"standard" (even number of sign flips; eta = prod eps in the odd case) and
"paper" (an extra sign(sigma) factor in the constraint). Both are index-2
subgroups; "standard" is the default and is the one under which the torus
invariants reproduce the classical rings of Pontryagin/Euler classes.

A Weyl element moves only the exponents of a monomial and scales its edge
word by a sign to the power of the word length, so every Weyl-fixed space
is edge words (x) signed orbit sums of the exponents, `orbit_rows`. The
fixed bases attach the words to the rows, and the fixed dimensions count
rows times words. The slow route that averages each basis element over the
group is `oracles.averaged_fixed_basis`, the tests' reference.

The input bounds of the package live here, and `check_basis_size` is the
one size check: a basis sized by its closed form (the Poincare polynomial
of the configuration space times the monomial counts of the coefficient
ring) past BASIS_BOUND, for a listed basis, or MODEL_BOUND, for a page
model, is refused before it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """q_i -> eps_i q_{sigma(i)}, extended as a ring map; eta acts trivially.
    A signed permutation of the exponents is injective, so each term has its
    own image and nothing cancels."""
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
                new[w.sigma[i] - 1] = e
                if w.eps[i] == -1 and e % 2 == 1:
                    sign = -sign
        out[tuple(new)] = c if sign == 1 else -c
    return Polynomial(ring, out)


def orbit_rows(group, slices, odd_sign=None):
    """Reduced echelon bases of the group-fixed spans of monomial slices.

    A slice, (exponent vectors, word-length parity), stands for the
    monomials of any one edge word of that parity. An element w sends one
    to the same word with the exponents permuted by sigma and the sign
    prod eps_i^e_i, times odd_sign(w) on an odd word, so the group average of
    a monomial is its signed orbit sum, or zero when two elements send it to
    one image with opposite signs. Disjoint orbits make the nonzero sums, led
    by 1 at their first vector, the reduced echelon basis. Returns one list
    of rows {exponents: +-1} per slice, in the order of first vectors.

    The sign is -1 when the masks of the vector (bit i: e_i odd; bit n: odd
    word) and of w (bit i: eps_i = -1; bit n: odd_sign(w) = -1) share an odd
    number of bits. The table of (image, mask) is built once per call.
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
    out = []
    for exponents, odd in slices:
        seen, rows = set(), []
        for exps in exponents:
            if exps in seen:
                continue
            parity = odd << n | sum((e & 1) << i for i, e in enumerate(exps))
            bits, vanishes = {}, False
            for image, flips in acts:
                bit = (flips & parity).bit_count() & 1
                vanishes |= bits.setdefault(image(exps), bit) != bit
            if len(bits) > 1:
                seen.update(bits)
            if not vanishes:
                rows.append({e: -1 if bit else 1 for e, bit in bits.items()})
        out.append(rows)
    return out


def invariant_dimension(spec: GroupSpec, degree, convention="standard"):
    """dim of the degree-d Weyl invariants of Q[q_1..q_n]: a count of `orbit_rows`."""
    ring = torus_ring(spec.rank)
    (rows,) = orbit_rows(weyl_group(spec, convention), [(ring.exponents_of_degree(degree), 0)])
    return len(rows)


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
