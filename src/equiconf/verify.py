"""Verification suites: golden examples plus randomized invariant batteries.

Each suite returns a SuiteReport listing every check with a pass flag and,
on failure, the mismatching values of its first failing case. The CLI exposes them under `verify
--suite NAME --seed N`; the acceptance tests drive the same functions, so
the command line and the test suite certify identical facts.

The randomized batteries draw seeded complexes of three families: filtered
complexes (`random_filtered_complex`), complexes whose cohomology is pure
(`random_pure_complex`) and staircase complexes pure at every early page
(`random_staircase_complex`). Each family only draws its split standard
form, its filtration levels and its eigenvalues; one split-model core,
`_split_model`, moves that form by random filtration-true shears into d,
phi and the filtration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import permutations
from math import factorial

from . import confring, equieven, equiodd, oracles, specseq
from .charclasses import (
    GroupSpec,
    char_ring,
    invariant_dimension,
    restriction_map,
    torus_ring,
    weyl_action,
    weyl_group,
)
from .errors import InputError
from .exactalg import Matrix, col_space, sylvester
from .specseq import WeightSpec, canonical_filtration

@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    details: dict = None

    def to_json(self):
        data = {"name": self.name, "pass": self.passed}
        if self.details:
            data["details"] = self.details
        return data


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self):
        return {"suite": self.suite, "seed": self.seed, "passed": self.passed,
                "checks": [c.to_json() for c in self.checks]}

    def to_text(self):
        lines = [f"suite {self.suite} (seed {self.seed}): "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            lines.append(f"  {'PASS' if c.passed else 'FAIL'}  {c.name}")
            if not c.passed and c.details:
                for k, v in sorted(c.details.items()):
                    lines.append(f"        {k}: {v}")
        return "\n".join(lines)


def _check(checks, name, passed, **details):
    checks.append(Check(name, bool(passed), details or None))


def _check_all(checks, name, failures):
    """One check over many cases: `failures` yields a dict of details for
    each failing case, and the check passes when it yields none, else it
    reports the first. It is drawn in full, so a check that draws from the
    random stream draws for every case."""
    failures = list(failures)
    _check(checks, name, not failures, **(failures[0] if failures else {}))


# ---------------------------------------------------------------------------
# random complex generators (exact, seed-deterministic)


# sizes of the random complexes: (total dimension budget, top degree)
FILTERED_SIZE, PURE_SIZE, STAIRCASE_SIZE = (10, 3), (8, 4), (8, 3)
MAX_LEVEL = 3     # top filtration level of random_filtered_complex
EXTRA_LEVELS = 1  # levels of random_staircase_complex above the page r
SAMPLES = 50      # random complexes per randomized decalage/purity check


def _random_shape(rng, max_total_dim, max_degree):
    """Dims, ranks, and coordinate roles of a split standard-form complex."""
    top = rng.randint(1, max_degree)
    dims = {}
    budget = max_total_dim
    for n in range(top + 1):
        d = rng.randint(0, min(3, budget))
        budget -= d
        if d:
            dims[n] = d
    if not dims:
        dims = {0: 1}
    ranks = {}
    prev = 0
    for n in range(top + 1):
        here = dims.get(n, 0)
        nxt = dims.get(n + 1, 0)
        cap = min(here - prev, nxt)
        ranks[n] = rng.randint(0, cap) if cap > 0 else 0
        prev = ranks[n]
    return dims, ranks


def _split_model(rng, dims, ranks, levels, top, eigenvalues):
    """(d, phi, filtration) of a split model moved by random shears.

    In the standard form d maps the trailing ranks[n] coordinates of degree n
    onto the leading ones of degree n + 1, coordinate t of degree n lies in
    filtration level levels[n][t] <= top, and phi is diagonal with entries
    eigenvalues[n] (no phi when None). Each degree is then moved by
    g = S_k ... S_1 for 2 * dim random shears S = 1 + c E_ab with
    levels[n][a] <= levels[n][b], which keep every level in place.
    """
    gs, ginvs = {}, {}
    for n, dim in dims.items():
        g = [[Q(1) if i == j else Q(0) for j in range(dim)] for i in range(dim)]
        ginv = [row[:] for row in g]
        for _ in range(2 * dim):
            a = rng.randrange(dim)
            b = rng.randrange(dim)
            if a == b or levels[n][a] > levels[n][b]:
                continue
            c = Q(rng.randint(-2, 2))
            if c:
                # g <- S g adds c * row b to row a; g^-1 <- g^-1 S^-1 subtracts
                # c * column a from column b
                g[a] = [x + c * y for x, y in zip(g[a], g[b])]
                for row in ginv:
                    row[b] -= c * row[a]
        gs[n], ginvs[n] = g, ginv
    d, filtration = {}, {}
    phi = None if eigenvalues is None else {}
    for n, dim in dims.items():
        g, ginv = gs[n], ginvs[n]
        if n + 1 in dims:
            rank = ranks[n]
            d[n] = Matrix([row[:rank] for row in gs[n + 1]], ncols=rank) \
                * Matrix(ginv[dim - rank:], ncols=dim)
        if phi is not None:
            phi[n] = Matrix([[x * lam for x, lam in zip(row, eigenvalues[n])]
                             for row in g]) * Matrix(ginv)
        filtration[n] = [col_space([col for col, lv in zip(zip(*g), levels[n]) if lv <= i],
                                   dim=dim)
                         for i in range(top + 1)]
    return d, phi, filtration


def random_filtered_complex(rng, strict=False):
    """A random filtered complex: split model, then filtration-true shears.

    With strict=True every acyclic pair drops at least one filtration level,
    which makes the induced differential on the associated graded vanish;
    that is the class on which the decalage comparison is an isomorphism
    already on the zeroth page (in general it is only a quasi-isomorphism).
    """
    dims, ranks = _random_shape(rng, *FILTERED_SIZE)
    levels = {n: [rng.randint(0, MAX_LEVEL) for _ in range(dim)]
              for n, dim in dims.items()}
    # pairs must not increase level along d
    gap = 1 if strict else 0
    for n, dim in dims.items():
        for t in range(ranks[n]):
            levels[n + 1][t] = lf = rng.randint(0, MAX_LEVEL - gap)
            levels[n][dim - ranks[n] + t] = rng.randint(lf + gap, MAX_LEVEL)
    d, _, filtration = _split_model(rng, dims, ranks, levels, MAX_LEVEL, None)
    return specseq.FilteredComplex(dims, d, filtration)


def random_pure_complex(rng, xi, alpha, impure=False):
    """A complex with phi whose cohomology is pure of weight alpha*n.

    Returns (complex with canonical filtration, cohomology dims, spoiled
    bidegree or None). With impure=True one surviving eigenvalue is scaled
    so the purity check must fail exactly there.
    """
    xi = Q(xi)
    alpha = Q(alpha)
    pool = [Q(2), Q(3), Q(5), Q(7), xi ** 2, Q(1, 2)]
    while True:
        dims, ranks = _random_shape(rng, *PURE_SIZE)
        eigenvalues = {}
        h_dims = {}
        for n, dim in dims.items():
            diag = [Q(1)] * dim
            # free coordinates sit between the image and coimage blocks
            start = ranks.get(n - 1, 0)
            h_dims[n] = dim - ranks[n] - start
            for t in range(h_dims[n]):
                diag[start + t] = xi ** int(alpha * n) \
                    if (alpha * n).denominator == 1 else pool[rng.randrange(4)]
            eigenvalues[n] = diag
        # pairs share an eigenvalue so that phi commutes with d
        for n, dim in dims.items():
            for t in range(ranks[n]):
                eigenvalues[n][dim - ranks[n] + t] = eigenvalues[n + 1][t] = \
                    pool[rng.randrange(len(pool))]
        spoiled = None
        if impure:
            candidates = [n for n, h in h_dims.items()
                          if h and (alpha * n).denominator == 1]
            if not candidates:
                continue
            n = rng.choice(candidates)
            eigenvalues[n][ranks.get(n - 1, 0)] *= 3
            spoiled = (-n, 2 * n)
        # degrees whose weight is non-integral must have no cohomology
        if all((alpha * n).denominator == 1 for n, h in h_dims.items() if h):
            break
    d, phi, _ = _split_model(rng, dims, ranks, {n: [0] * dim for n, dim in dims.items()},
                             0, eigenvalues)
    complex_ = canonical_filtration(dims, d, phi)
    return complex_, {n: h for n, h in h_dims.items() if h}, spoiled


def random_staircase_complex(rng, xi, alpha, r):
    """A filtered complex pure for the target-page weight at every early page.

    Acyclic pairs either stay at one level (killed on the first page) or drop
    exactly r levels with matching staircase eigenvalues; surviving classes
    carry xi^(alpha*(level + degree*r)). Such complexes pass the purity check
    inspected at any page from 1 to r+1.
    """
    xi = Q(xi)
    alpha = Q(alpha)
    if alpha.denominator != 1:
        raise InputError("the staircase generator wants an integer slope")
    dims, ranks = _random_shape(rng, *STAIRCASE_SIZE)
    top = r + EXTRA_LEVELS
    pool = [Q(2), Q(3), Q(5), Q(7)]
    levels = {n: [0] * dim for n, dim in dims.items()}
    eigenvalues = {n: [Q(1)] * dim for n, dim in dims.items()}
    for n, dim in dims.items():
        for t in range(ranks.get(n - 1, 0), dim - ranks[n]):
            levels[n][t] = i = rng.randint(0, top)
            eigenvalues[n][t] = xi ** int(alpha * (i + n * r))
    for n, dim in dims.items():
        for t in range(ranks[n]):
            if rng.random() < 0.5:
                lf = le = rng.randint(0, top)
                lam = pool[rng.randrange(len(pool))]
            else:
                lf = rng.randint(0, top - r)
                le = lf + r
                lam = xi ** int(alpha * (lf + (n + 1) * r))
            src = dim - ranks[n] + t
            levels[n][src], levels[n + 1][t] = le, lf
            eigenvalues[n][src] = eigenvalues[n + 1][t] = lam
    d, phi, filtration = _split_model(rng, dims, ranks, levels, top, eigenvalues)
    return specseq.FilteredComplex(dims, d, filtration, phi)


# ---------------------------------------------------------------------------
# suites


def suite_arnold(seed=0):
    rng = random.Random(seed)
    checks = []
    _check(checks, "x_ij^2 = 0 (both parities)",
           confring.normal_form(2, 3, [(1, 2), (1, 2)]).is_zero()
           and confring.normal_form(2, 4, [(1, 2), (1, 2)]).is_zero())
    _check(checks, "x_ji = (-1)^n x_ij",
           confring.normal_form(2, 4, [(2, 1)]) == confring.generator(2, 4, 1, 2)
           and confring.normal_form(2, 3, [(2, 1)]) == -confring.generator(2, 3, 1, 2))
    _check_all(checks, "three-term relation vanishes, all triples k <= 5",
               ({"at": str((k, n, a, b, c))}
                for k in range(3, 6) for n in (3, 4)
                for a, b, c in permutations(range(1, k + 1), 3)
                if not confring.arnold_relation(k, n, a, b, c).is_zero()))
    _check_all(checks, "dimension count = prod_j (1 + j t^(n-1)), k <= 6, n <= 5",
               ({"k": k, "n": n} for k in range(2, 7) for n in range(2, 6)
                if oracles.poincare_polynomial(k, n) != confring.poincare_formula(k, n)))
    _check_all(checks, "dimensions match the ideal-span oracle, k <= 4",
               ({"k": k, "n": n, "degree": d, "engine": engine, "oracle": oracle}
                for k in range(2, 5) for n in range(2, 6)
                for d in range(confring.top_degree(k, n) + 2)
                if (engine := confring.dimension(k, n, d))
                != (oracle := oracles.quotient_dimension(k, n, d))))

    def confluent(k, n):
        word = [confring.normalize_generator(k, *rng.sample(range(1, k + 1), 2), n)[0]
                for _ in range(rng.randint(2, 4))]
        return confring.reduce_word(k, n, word) == confring.reduce_word(k, n, word, rng=rng)

    cases = [(k, n) for k in range(2, 6) for n in range(2, 6) for _ in range(100)]
    _check_all(checks, f"confluence under random rewrite order ({len(cases)} words)",
               ({} for k, n in cases if not confluent(k, n)))
    sample = confring.normal_form(3, 3, [(1, 3), (2, 3)])
    _check(checks, "oracle normal form of x13*x23 (k=3, n=3)",
           sample == oracles.oracle_element(3, 3, [(1, 3), (2, 3)]),
           engine=str(sample))
    return SuiteReport("arnold", seed, tuple(checks))


def suite_leray_hirsch(seed=0):
    rng = random.Random(seed)
    checks = []
    _check_all(checks, "torus dimensions = prod(1 + j t^(2n)) / (1 - t^2)^n",
               ({"ell": ell, "n": n, "degree": d, "enumeration": enum, "series": series}
                for ell in range(0, 6) for n in (1, 2) for d in range(0, 13)
                if (enum := equiodd.torus_dimension(ell, n, d))
                != (series := equiodd.leray_hirsch_dimension(ell, n, d))))
    _check(checks, "modified three-term relation vanishes, all triples l <= 5",
           all(equiodd.modified_arnold(ell, n, i, j, k).is_zero()
               for ell in range(3, 6) for n in (1, 2)
               for i, j, k in permutations(range(1, ell + 1), 3)))
    _check(checks, "double edge contracts to p_n, all pairs l <= 5",
           all(equiodd.generator(ell, 1, i, j) * equiodd.generator(ell, 1, i, j)
               == equiodd.unit(ell, 1).scale_poly(equiodd.p_top(1))
               for ell in range(2, 6) for j in range(2, ell + 1) for i in range(1, j)))
    _check_all(checks, "graph dimensions match the ideal-span oracle",
               ({"ell": ell, "n": n, "degree": d, "enumeration": enum, "oracle": orac}
                for ell in (2, 3, 4, 5) for n in (1, 2) for d in (0, 2 * n, 4 * n)
                if (enum := equiodd.torus_dimension(ell, n, d))
                != (orac := oracles.graph_quotient_dimension(ell, n, d))))

    def oracle_product(ell, n):
        """y13 * y23 rebuilt from the oracle's reduction to admissible graphs."""
        admissible = [(m.edges, m.q_exps) for m in equiodd.torus_basis(ell, n, 4 * n)]
        out = equiodd.zero(ell, n)
        for (graph, qexps), c in oracles.graph_reduce(ell, n, [(1, 3), (2, 3)],
                                                      admissible).items():
            out = out + equiodd.GraphMonomial(ell, n, graph, qexps).as_element().scale(c)
        return out

    _check(checks, "engine reduction equals oracle reduction (y13*y23)",
           all(oracle_product(ell, n)
               == equiodd.generator(ell, n, 1, 3) * equiodd.generator(ell, n, 2, 3)
               for ell in (3, 4, 5) for n in (1, 2)))

    def confluent():
        ell, n = rng.randint(3, 5), rng.randint(1, 2)
        word = [equiodd.normalize_edge(ell, *rng.sample(range(1, ell + 1), 2))[0]
                for _ in range(rng.randint(2, 3))]
        one = equiodd.qring(n).one()
        return equiodd.reduce_graph(ell, n, word, one) == \
            equiodd.reduce_graph(ell, n, word, one, rng=rng)

    _check_all(checks, "graph reduction confluence under random order",
               ({} for _ in range(60) if not confluent()))
    return SuiteReport("leray-hirsch", seed, tuple(checks))


def suite_weyl(seed=0):
    rng = random.Random(seed)
    checks = []
    _check(checks, "Weyl group orders, ranks <= 3",
           all(len(weyl_group(GroupSpec(family, n))) == 2 ** (n + shift) * factorial(n)
               for n in range(1, 4)
               for family, shift in (("o_even", 0), ("so_even", -1), ("so_odd", 0),
                                     ("o_odd", 1))))
    _check_all(checks, "invariant Hilbert series match the free rings",
               ({"family": family, "rank": rank, "degree": degree,
                 "invariants": inv, "free ring": free}
                for family in ("torus", "so_odd", "o_odd", "so_even", "o_even", "u")
                for rank in range(1, 4) for degree in range(0, 17, 2)
                if (inv := invariant_dimension(GroupSpec(family, rank), degree))
                != (free := char_ring(GroupSpec(family, rank)).dim_of_degree(degree))))
    ring = torus_ring(3)
    group = weyl_group(GroupSpec("o_odd", 3))

    def draw():
        w1, w2 = rng.choice(group), rng.choice(group)
        f = ring.zero()
        for _ in range(3):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            f = f + ring.monomial(exps, rng.randint(-2, 2))
        return w1, w2, f

    # every case is drawn before any is checked
    _check(checks, "Weyl action is a group action (randomized)",
           all(weyl_action(w1 * w2, f) == weyl_action(w1, weyl_action(w2, f))
               for w1, w2, f in [draw() for _ in range(25)]))
    o4 = GroupSpec("o_even", 2)
    so4 = GroupSpec("so_even", 2)
    so3 = GroupSpec("so_odd", 1)
    torus2 = GroupSpec("torus", 2)
    e = char_ring(so4).gen("e")
    q1, q2 = torus_ring(2).gens()
    _check(checks, "p_2 restricts to e^2 under O(4) -> SO(4)",
           restriction_map(o4, so4, char_ring(o4).gen("p2")) == e * e)
    _check(checks, "e dies under SO(4) -> SO(3)",
           restriction_map(so4, so3, e).is_zero())
    _check(checks, "e restricts to q1 q2 on the torus",
           restriction_map(so4, torus2, e) == q1 * q2)
    _check(checks, "torus restriction factors through SO(4)",
           all(restriction_map(o4, torus2, f)
               == restriction_map(so4, torus2, restriction_map(o4, so4, f))
               for f in map(char_ring(o4).gen, char_ring(o4).names)))
    fixed4 = equieven.weyl_fixed_page_basis("so_even", 2, 2, 4)
    _check(checks, "SO(4)-fixed page in degree 4 is <q1^2 + q2^2, q1 q2>",
           [str(b) for b in fixed4] == ["(q2^2 + q1^2)", "q1*q2"],
           basis=[str(b) for b in fixed4])
    fixed3 = equieven.weyl_fixed_page_basis("so_even", 2, 2, 3)
    _check(checks, "the fiber class is SO(4)-fixed",
           [str(b) for b in fixed3] == ["x12"])
    so_dims = equieven.fixed_page_cohomology_dims("so_even", 2, 2, 16)
    want = {d: (1 if d % 4 == 0 else 0) for d in range(17)}
    _check(checks, "H(SO(4)-fixed page, d4) = Q[q1^2 + q2^2]",
           so_dims == want, got=str(so_dims))
    o_dims = equieven.fixed_page_cohomology_dims("o_even", 2, 2, 16)
    _check(checks, "H(O(4)-fixed page, d4) = Q[q1^2 + q2^2]",
           o_dims == want, got=str(o_dims))
    model = equieven.equivariant_cohomology_even("o", 2, 2, 12)
    _check(checks, "d4 vanishes identically on the embedded O(4) model",
           all(equieven.d2n(elem).is_zero()
               for items in model.elements.values() for _, elem in items))
    return SuiteReport("weyl", seed, tuple(checks))


def suite_even_page(seed=0):
    rng = random.Random(seed)
    checks = []

    def basis(group, ell, degree):
        return [equieven.zero(group, ell, 2).from_coordinates([key], [Q(1)])
                for key in equieven.page_basis(group, ell, 2, degree)]

    _check(checks, "d o d = 0 on degreewise bases",
           all(equieven.d2n(equieven.d2n(elem)).is_zero()
               for group in ("torus", "so", "u") for ell in (2, 3)
               for degree in range(0, 9) for elem in basis(group, ell, degree)))

    def draw():
        ell = rng.randint(2, 4)
        group = rng.choice(("torus", "so", "u"))
        ring = equieven.page_ring(group, 2)

        def rand_elem(edges_count):
            out = equieven.unit(group, ell, 2)
            for _ in range(edges_count):
                i, j = rng.sample(range(1, ell + 1), 2)
                out = out * equieven.x_generator(group, ell, 2, i, j)
            name = ring.names[rng.randrange(len(ring.names))]
            return out.scale_poly(ring.gen(name))

        da = rng.randint(1, 2)
        return rand_elem(da), rand_elem(rng.randint(1, 2)), -1 if (da * 3) % 2 == 1 else 1

    # every case is drawn before any is checked
    _check(checks, "graded Leibniz rule (randomized)",
           all(equieven.d2n(a * b) == equieven.d2n(a) * b + (a * equieven.d2n(b)).scale(sign)
               for a, b, sign in [draw() for _ in range(12)]))
    summary = equieven.kernel_K(3, 2, 8)
    _check(checks, "K(3 points, R^4) has dims 1, 2, 0 in degrees 0, 3, 6",
           summary.dims == {0: 1, 3: 2}, got=str(summary.dims))
    _check(checks, "K(2 points, R^4) is Q in degree 0",
           equieven.kernel_K(2, 2, 8).dims == {0: 1})
    _check_all(checks, "page cohomology matches the tensor models "
                       "(SO(4), O(4), U(2); l <= 4, degrees <= 12)",
               ({"group": group, "ell": ell,
                 "rows": str([r for r in report.rows if r[1] != r[2]])}
                for group in ("so", "o", "u") for ell in (1, 2, 3, 4)
                if not (report := equieven.verify_page_cohomology(group, ell, 2, 12)).passed))
    golden = equieven.as_filtered_complex("torus", 2, 2, 18)
    e1 = specseq.page(golden, 1)
    ring = torus_ring(2)
    _check(checks, "E1 of the R^4 torus model is Q[q1,q2] (x) H*(S^3)",
           all(e1.dim(0, n) == ring.dim_of_degree(n)
               and e1.dim(3, n) == ring.dim_of_degree(n - 3) for n in range(17)))
    e4 = specseq.page(golden, 4)
    totals = e4.total_degree_dims()
    _check(checks, "E5 (Leray-Serre numbering) is Q[q1,q2]/(q1 q2) up to degree 16",
           all(totals.get(n, 0) == (1 if n == 0 else (2 if n % 2 == 0 else 0))
               for n in range(17)),
           got=str({n: totals.get(n, 0) for n in range(17)}))
    model = equieven.equivariant_cohomology_even("so", 3, 2, 9)
    flat = [e for d in sorted(model.elements) for _, e in model.elements[d]]
    # every pair is drawn before any is checked
    _check(checks, "the model injection is multiplicative (products stay cycles)",
           all(equieven.d2n(a * b).is_zero()
               for a, b in [(rng.choice(flat), rng.choice(flat)) for _ in range(10)]))
    _check(checks, "torus restriction intertwines the differentials",
           all(equieven.torus_restriction_even(equieven.d2n(elem))
               == equieven.d2n(equieven.torus_restriction_even(elem))
               for ell in (2, 3) for degree in range(0, 8) for elem in basis("so", ell, degree)))
    return SuiteReport("even-page", seed, tuple(checks))


def _shifted_mismatches(dec, orig):
    """The spots (i, n) at which the dims `dec` of Dec A differ from the
    dims `orig` of A at (i - n, n)."""
    keys = set(dec) | {(i + n, n) for (i, n) in orig}
    return [(i, n) for (i, n) in keys if dec.get((i, n), 0) != orig.get((i - n, n), 0)]


def suite_decalage(seed=0):
    rng = random.Random(seed)
    checks = []

    def strict_failures():
        for t in range(SAMPLES):
            A = random_filtered_complex(rng, strict=True)
            e0d, e1a = specseq.page(specseq.decalage(A), 0).dims(), specseq.page(A, 1).dims()
            for i, n in _shifted_mismatches(e0d, e1a):
                yield {"sample": t, "spot": str((i, n)),
                       "decalage": e0d.get((i, n), 0), "original": e1a.get((i - n, n), 0)}

    _check_all(checks, f"dim E0(Dec A) = dim E1(A) after reindexing "
                       f"({SAMPLES} strict samples)", strict_failures())
    general = [random_filtered_complex(rng) for _ in range(SAMPLES)]
    pairs = [(A, specseq.decalage(A)) for A in general]
    _check_all(checks, "dim E1(Dec A) = dim E2(A) after reindexing (general samples)",
               ({"sample": t, "spot": str(spot)} for t, (A, D) in enumerate(pairs)
                for spot in _shifted_mismatches(specseq.page(D, 1).dims(),
                                                specseq.page(A, 2).dims())))
    # the zeroth-page comparison is a quasi-isomorphism: homology agrees
    _check(checks, "H(E0(Dec A), d0) = H(E1(A), d1): the quasi-isomorphism",
           not any(_shifted_mismatches(specseq.page_cohomology_dims(specseq.page(D, 0)),
                                       specseq.page_cohomology_dims(specseq.page(A, 1)))
                   for A, D in pairs))
    _check(checks, "pages stabilize past the filtration length",
           all(specseq.page(A, A.top_level + 1).dims()
               == specseq.page(A, A.top_level + 2).dims() for A in general))
    _check(checks, "stable page dimensions add up to H(A)",
           all(specseq.page(A, A.top_level + 1).total_degree_dims() == A.cohomology_dims()
               for A in general))
    # boundary of the zeroth-page statement: a same-level acyclic pair is a
    # quasi-isomorphism witness but not a spotwise isomorphism
    pair = specseq.FilteredComplex(
        {0: 1, 1: 1}, {0: Matrix([[1]])},
        {0: [col_space([], dim=1), Matrix.identity(1)],
         1: [col_space([], dim=1), Matrix.identity(1)]})
    e0d = specseq.page(specseq.decalage(pair), 0)
    _check(checks, "same-level pair: E0(Dec) is a quasi-isomorphism witness, "
                   "not an isomorphism (strictness is necessary)",
           sum(e0d.dims().values()) == 2 and not specseq.page(pair, 1).dims()
           and not specseq.page_cohomology_dims(e0d))
    # zero differential: Dec W_i A^n = W_(i-n) A^n on the nose
    A = random_filtered_complex(rng)
    zero_d = specseq.FilteredComplex(A.spaces, {}, A.filtration)
    D = specseq.decalage(zero_d)
    _check(checks, "decalage of a zero differential is the plain shift",
           all(D.W(n, i) == zero_d.W(n, i - n)
               for n in zero_d.degrees() for i in range(D.top_level + 1)))
    # canonical filtration goldens
    tau = canonical_filtration({0: 1, 1: 1}, {0: Matrix([[1]])})
    _check(checks, "canonical filtration of an acyclic complex",
           tau.W(0, 0).ncols == 0 and tau.W(0, 1).ncols == 1)
    return SuiteReport("decalage", seed, tuple(checks))


def equivariant_hom_dims(phi_v: Matrix, phi_w: Matrix):
    """(dim Hom, dim Ext1) of (V, phi_v) -> (W, phi_w) over Q[phi]: the
    kernel and the cokernel of `sylvester(phi_w, phi_v)`."""
    op = sylvester(phi_w, phi_v)
    dim = op.ncols - op.rank()
    return dim, dim


def suite_purity(seed=0):
    rng = random.Random(seed)
    checks = []
    xi = Q(3)
    alphas = [Q(1), Q(2), Q(1, 2)]

    def witness_failures():
        for t in range(SAMPLES):
            alpha = alphas[t % len(alphas)]
            A, h_dims, _ = random_pure_complex(rng, xi, alpha)
            spec = WeightSpec(xi, alpha, 0)
            result = specseq.purity_check(A, spec)
            if not result.ok:
                yield {"sample": t, "stage": "purity", "violation": str(result.violation)}
                continue
            try:
                witness = specseq.formality_witness(A, spec)
            except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
                yield {"sample": t, "stage": "witness", "error": str(exc)}
                continue
            if not witness.verified:
                yield {"sample": t, "stage": "verification"}
            if {n: m.ncols for n, m in witness.inclusions.items()} != h_dims:
                yield {"sample": t, "stage": "ranks"}

    _check_all(checks, f"formality witnesses on {SAMPLES} random pure complexes",
               witness_failures())

    def impure_failures():
        for t in range(12):
            A, _, spot = random_pure_complex(rng, xi, Q(1), impure=True)
            result = specseq.purity_check(A, WeightSpec(xi, Q(1), 0))
            if result.ok or result.violation[0] != spot:
                yield {"sample": t, "expected": str(spot),
                       "got": "pass" if result.ok else str(result.violation[0])}

    _check_all(checks, "impure inputs are refused at the right bidegree", impure_failures())
    hom, ext = equivariant_hom_dims(Matrix([[xi]]), Matrix([[xi ** 2]]))
    _check(checks, "Hom and Ext1 vanish between distinct pure weights",
           (hom, ext) == (0, 0))
    hom2, ext2 = equivariant_hom_dims(Matrix([[xi, 1], [0, xi]]),
                                      Matrix([[xi ** 3]]))
    _check(checks, "Hom and Ext1 vanish for a Jordan block of another weight",
           (hom2, ext2) == (0, 0))
    hom3, _ = equivariant_hom_dims(Matrix([[xi]]), Matrix([[xi]]))
    _check(checks, "equal weights do pair nontrivially (sanity)", hom3 == 1)

    def staircase_failures():
        for t in range(20):
            r = rng.randint(1, 3)
            A = random_staircase_complex(rng, xi, Q(1), r)
            for p in range(1, r + 2):
                res = specseq.purity_check(A, WeightSpec(xi, Q(1), r), at_page=p)
                if not res.ok:
                    yield {"sample": t, "page": p, "violation": str(res.violation)}

    _check_all(checks, "purity persists from early pages to the target page",
               staircase_failures())
    golden = equieven.as_filtered_complex("torus", 2, 2, 14, xi=xi)
    spec = WeightSpec(xi, Q(1, 3), 3)
    _check(checks, "the R^4 torus model is pure with slope 1/3 at page 3",
           all(specseq.purity_check(golden, spec, at_page=p).ok for p in (1, 2, 3, 4)))
    # zero differential: the witness is the identity inclusion
    ident = canonical_filtration({0: 2}, {}, {0: Matrix.identity(2)})
    witness = specseq.formality_witness(ident, WeightSpec(xi, Q(1), 0))
    _check(checks, "zero differential yields the identity witness",
           witness.inclusions[0] == Matrix.identity(2))
    return SuiteReport("purity", seed, tuple(checks))


SUITES = {
    "arnold": suite_arnold,
    "leray-hirsch": suite_leray_hirsch,
    "weyl": suite_weyl,
    "even-page": suite_even_page,
    "decalage": suite_decalage,
    "purity": suite_purity,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name, seed=0):
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return SUITES[name](seed)
