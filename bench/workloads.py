"""The four benchmark workloads: pages, dense, models and rewrite.

`BUILDERS[name](modules, seed, workdir, tiny)` makes one workload from its
seed: the operations of one pass, the untimed correctness check of their
outputs, and the input-size figures. Each operation is one call into the
public API of equiconf; its inputs are made here, before timing starts.
Every pass runs the same operations, so the mix of input sizes is fixed and
the seed only picks the contents (xi values, groups, words, complexes) and
the order.

The checks use routes independent of the operation under test: the next
page against the cohomology of the previous one, stable pages against
H(A), random-redex rewriting, the ideal-span oracles, Weyl-group traces and
tensor models. `oracles` and `verify` are only ever called here, never
timed as work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Any, Callable

from readme_cmds import (
    COMMANDS,
    PAGES_COMMANDS,
    README_COMMANDS,
    load_golden,
    mismatch,
    record,
    run as run_command,
    write_inputs,
)


@dataclass
class Op:
    """One timed call; `summary` condenses its output for pass-to-pass checks."""

    label: str
    run: Callable[[], Any]
    summary: Callable[[Any], Any]


@dataclass
class Workload:
    ops: list
    check: Callable[[dict], dict]  # pass-0 outputs by op index -> {index: why}
    sizes: dict
    # untimed golden comparisons: callables returning None or why they failed
    extra_checks: list = field(default_factory=list)


def _count(hist, key):
    hist[str(key)] = hist.get(str(key), 0) + 1


def _dims(pg):
    return tuple(sorted(pg.dims().items()))


def _levels(complex_):
    return tuple((n, tuple(lvl.ncols for lvl in levels))
                 for n, levels in sorted(complex_.filtration.items()))


def _page_chain_errors(specseq, complex_, pages):
    """E_{r+1} against H(E_r), and the stable page against H(A).

    `pages` maps r to the page; returns {r: why} for the pages that fail.
    """
    errors = {}
    for r in sorted(pages):
        if r + 1 in pages:
            if pages[r + 1].dims() != specseq.page_cohomology_dims(pages[r]):
                errors[r + 1] = f"dim E_{r + 1} differs from H(E_{r}, d_{r})"
    stable_r = complex_.top_level + 1
    stable = pages.get(stable_r) or specseq.page(complex_, stable_r)
    if stable.total_degree_dims() != complex_.cohomology_dims():
        errors[min(stable_r, max(pages))] = "stable page totals differ from H(A)"
    return errors


def _decalage_errors(specseq, dec, e1):
    """On strict inputs decalage shifts E1 to E0: E0(Dec A)(i, n) = E1(A)(i-n, n)."""
    e0 = specseq.page(dec, 0)
    keys = set(e0.dims()) | {(i + n, n) for (i, n) in e1.dims()}
    if any(e0.dim(i, n) != e1.dim(i - n, n) for (i, n) in keys):
        return "E0(Dec A) is not E1(A) shifted"
    return None


# ---------------------------------------------------------------------------
# pages: spectral pages of the even page models, plus the even complex and ss
# commands of the README on a smaller complex

PAGE_MODELS = (  # (group, points, halfdim, max_degree)
    ("torus", 2, 2, 4), ("torus", 3, 2, 4), ("torus", 2, 3, 4),
    ("so", 2, 2, 4), ("so", 2, 2, 8), ("so", 2, 3, 8), ("so", 3, 2, 6), ("so", 3, 3, 4),
    ("u", 2, 2, 6), ("u", 2, 3, 4), ("u", 3, 2, 4), ("u", 3, 3, 4),
)
TINY_PAGE_MODELS = (("torus", 2, 2, 6), ("so", 2, 3, 8))
PAGE_RANGE = range(6)
XI_CHOICES = (Q(2), Q(3), Q(-2), Q(-3))


def build_pages(m, seed, workdir, tiny=False):
    rng = random.Random(f"pages:{seed}")
    specseq, equieven = m["specseq"], m["equieven"]
    for n in (2, 3):
        equieven.page_ring("torus", n)
        equieven.page_ring("so", n)
        equieven.page_ring("u", n)
    write_inputs(m, workdir)
    ops, plan = [], []  # plan[i] = (model index or None, what)
    complexes = []
    sizes = {"models": [], "largest_complex_dim": 0}
    for idx, (group, ell, n, top) in enumerate(TINY_PAGE_MODELS if tiny else PAGE_MODELS):
        xi = rng.choice(XI_CHOICES)
        A = equieven.as_filtered_complex(group, ell, n, top, xi=xi)
        complexes.append(A)
        tag = f"{group} l={ell} n={n} D={top} xi={xi}"
        sizes["models"].append({"model": tag, "max_dim": max(A.spaces.values()),
                                "total_dim": sum(A.spaces.values()),
                                "levels": A.top_level + 1})
        sizes["largest_complex_dim"] = max(sizes["largest_complex_dim"],
                                           max(A.spaces.values()))
        ops.append(Op(f"as_filtered_complex {tag}",
                      lambda a=(group, ell, n, top, xi): m["equieven"].as_filtered_complex(
                          *a[:4], xi=a[4]),
                      lambda c: (tuple(sorted(c.spaces.items())), c.top_level)))
        plan.append((idx, "build"))
        for r in PAGE_RANGE:
            ops.append(Op(f"page r={r} {tag}",
                          lambda A=A, r=r: m["specseq"].page(A, r), _dims))
            plan.append((idx, r))
        ops.append(Op(f"decalage {tag}", lambda A=A: m["specseq"].decalage(A),
                      _levels))
        plan.append((idx, "decalage"))
        if group == "torus":
            # the torus models are pure of slope 1/(2n-1) at page 2n-1
            spec = specseq.WeightSpec(xi, Q(1, 2 * n - 1), 2 * n - 1)
            ops.append(Op(f"purity_check {tag}",
                          lambda A=A, s=spec: m["specseq"].purity_check(A, s),
                          lambda res: (res.ok, res.records, res.violation)))
            plan.append((idx, "purity"))
    golden = load_golden()
    for cmd in PAGES_COMMANDS:
        ops.append(Op(f"cli {COMMANDS[cmd]}",
                      lambda cmd=cmd: run_command(m["cli"], cmd, workdir)[:2],
                      lambda out, cmd=cmd: record(cmd, *out, workdir)))
        plan.append((None, cmd))
    order = list(range(len(ops)))
    rng.shuffle(order)
    ops = [ops[i] for i in order]
    plan = [plan[i] for i in order]

    def check(results):
        errors = {}
        where = {step: i for i, step in enumerate(plan)}
        for idx, A in enumerate(complexes):
            built = results.get(where[(idx, "build")])
            if built is not None and not (
                    built.spaces == A.spaces and built.top_level == A.top_level
                    and all(built.diff(d) == A.diff(d) for d in A.degrees())
                    and all(built.aut(d) == A.aut(d) for d in A.degrees())):
                errors[where[(idx, "build")]] = "rebuilt complex differs"
            pages = {r: results[where[(idx, r)]] for r in PAGE_RANGE
                     if where[(idx, r)] in results}
            if pages:
                for r, why in _page_chain_errors(specseq, A, pages).items():
                    errors[where[(idx, r)]] = why
            dec = results.get(where[(idx, "decalage")])
            if dec is not None:
                why = _decalage_errors(specseq, dec, pages.get(1) or specseq.page(A, 1))
                if why:
                    errors[where[(idx, "decalage")]] = why
            i = where.get((idx, "purity"))
            if i in results and not results[i].ok:
                errors[i] = f"torus model not pure: {results[i].violation}"
        for cmd in PAGES_COMMANDS:
            i = where[(None, cmd)]
            if i in results:
                why = mismatch(golden[cmd], record(cmd, *results[i], workdir))
                if why:
                    errors[i] = why
        return errors

    def golden_check(cmd):
        return lambda: mismatch(golden[cmd], record(
            cmd, *run_command(m["cli"], cmd, workdir)[:2], workdir))

    extra = [golden_check(c) for c in README_COMMANDS]
    return Workload(ops, check, sizes, extra)


# ---------------------------------------------------------------------------
# dense: small dense random complexes with non-unit rationals

DENSE_KINDS = ("strict", "general", "pure", "impure", "staircase")
# The cost of one complex follows its work size, total dimension times the
# number of pages up to the stable one (top filtration level + 2). Per kind,
# DENSE_DRAWS complexes are drawn and, for each target work size, the unused
# one closest to it is kept. Every seed then gets nearly the same cost mix for
# the same set-up work. The targets lie close together, so that the median
# and the 90th percentile of a hundred latencies depend little on which
# complexes the seed drew, and they are work sizes that each generator makes
# often (strict and general complexes always have top level 3).
DENSE_TARGETS = {
    "strict": (10,) * 4 + (15,) * 6 + (20,) * 6 + (25,) * 4,
    "general": (10,) * 4 + (15,) * 6 + (20,) * 6 + (25,) * 4,
    "pure": (12,) * 6 + (16,) * 4 + (20,) * 6 + (24,) * 4,
    "impure": (12,) * 6 + (16,) * 4 + (20,) * 6 + (24,) * 4,
    "staircase": (12,) * 6 + (16,) * 4 + (20,) * 6 + (24,) * 4,
}
DENSE_DRAWS = 80
TINY_TARGETS, TINY_DRAWS = dict.fromkeys(DENSE_KINDS, (15,)), 2


def _draw(verify, rng, kind):
    """(complex, facts the check needs) for one complex of the given kind."""
    if kind in ("strict", "general"):
        return verify.random_filtered_complex(rng, strict=kind == "strict"), {}
    xi = rng.choice((Q(2), Q(3), Q(5)))
    if kind == "pure":
        alpha = rng.choice((Q(1), Q(2), Q(1, 2)))
        A, h_dims, _ = verify.random_pure_complex(rng, xi, alpha)
        return A, {"xi": xi, "alpha": alpha, "h_dims": h_dims}
    if kind == "impure":
        A, _, spot = verify.random_pure_complex(rng, xi, Q(1), impure=True)
        return A, {"xi": xi, "alpha": Q(1), "spoiled": spot}
    r = rng.randint(1, 3)
    return (verify.random_staircase_complex(rng, xi, Q(1), r),
            {"xi": xi, "alpha": Q(1), "r": r})


def _work_size(A):
    return sum(A.spaces.values()) * (A.top_level + 2)


def _dense_pipeline(m, A, kind, facts):
    specseq = m["specseq"]
    out = {"decalage": specseq.decalage(A),
           "pages": {r: specseq.page(A, r) for r in range(A.top_level + 2)}}
    if kind in ("pure", "impure"):
        spec = specseq.WeightSpec(facts["xi"], facts["alpha"], 0)
        out["purity"] = specseq.purity_check(A, spec)
        try:
            out["witness"] = specseq.formality_witness(A, spec)
        except m["errors"].PurityViolation as exc:
            out["refused"] = exc.spot
    elif kind == "staircase":
        spec = specseq.WeightSpec(facts["xi"], facts["alpha"], facts["r"])
        out["purity"] = specseq.purity_check(A, spec)
        out["purity_early"] = specseq.purity_check(A, spec, at_page=1)
    return out


def _dense_summary(out):
    witness = out.get("witness")
    return (_levels(out["decalage"]),
            tuple((r, _dims(pg)) for r, pg in out["pages"].items()),
            None if "purity" not in out else (out["purity"].ok, out["purity"].records),
            None if witness is None else
            tuple((n, mat.rows) for n, mat in sorted(witness.inclusions.items())),
            out.get("refused"))


def build_dense(m, seed, workdir, tiny=False):
    rng = random.Random(f"dense:{seed}")
    verify = m["verify"]
    targets, draws = (TINY_TARGETS, TINY_DRAWS) if tiny else (DENSE_TARGETS, DENSE_DRAWS)
    items = []
    for kind in DENSE_KINDS:
        pool = [_draw(verify, rng, kind) for _ in range(draws)]
        for target in targets[kind]:
            best = min(range(len(pool)), key=lambda t: abs(_work_size(pool[t][0]) - target))
            A, facts = pool.pop(best)
            items.append((kind, A, facts))
    rng.shuffle(items)
    ops = [Op(f"{kind} complex total_dim={sum(A.spaces.values())}",
              lambda A=A, kind=kind, facts=facts: _dense_pipeline(m, A, kind, facts),
              _dense_summary)
           for kind, A, facts in items]
    nnz = sum(1 for _, A, _ in items for mat in A.d.values()
              for row in mat.rows for x in row if x)
    entries = sum(mat.nrows * mat.ncols for _, A, _ in items for mat in A.d.values())
    sizes = {"complexes": len(items),
             "largest_complex_dim": max(sum(A.spaces.values()) for _, A, _ in items),
             "total_dim_histogram": {}, "work_size_histogram": {}, "kinds": {},
             "differential_entries": entries,
             "differential_nnz_ratio": nnz / entries if entries else 0.0}
    for kind, A, _ in items:
        _count(sizes["total_dim_histogram"], sum(A.spaces.values()))
        _count(sizes["work_size_histogram"], _work_size(A))
        _count(sizes["kinds"], kind)

    def check(results):
        specseq = m["specseq"]
        errors = {}
        for i, (kind, A, facts) in enumerate(items):
            out = results.get(i)
            if out is None:
                continue
            why = next(iter(_page_chain_errors(specseq, A, out["pages"]).values()), None)
            if why is None and kind == "strict":
                why = _decalage_errors(specseq, out["decalage"], out["pages"][1])
            if why is None and kind == "pure":
                witness = out.get("witness")
                if not out["purity"].ok or witness is None or not witness.verified:
                    why = "pure complex without a verified witness"
                elif {n: mat.ncols for n, mat in witness.inclusions.items()} != facts["h_dims"]:
                    why = "witness ranks differ from the generated cohomology"
            if why is None and kind == "impure":
                if out["purity"].ok or out["purity"].violation[0] != facts["spoiled"] \
                        or out.get("refused") != facts["spoiled"]:
                    why = f"impure complex not refused at {facts['spoiled']}"
            if why is None and kind == "staircase":
                if not (out["purity"].ok and out["purity_early"].ok):
                    why = "staircase complex not pure on its early pages"
            if why:
                errors[i] = why
        return errors

    return Workload(ops, check, sizes)


# ---------------------------------------------------------------------------
# models: the model builders at l = 4-6

# kernel_K slots are (points, halfdim, max_degree window): the degree inside
# the window is seeded and does not change the work, which is set by the
# largest multiple of the fiber degree 2n-1 below it; the other slots are
# (points, halfdim, max_degree) and, for fixed points, (rank, points, degree).
# Calls of more than about 0.1 s are left out, so that a pass stays short
# and every operation runs ten or more times in a run.
KERNEL_SLOTS = ((4, 2, (3, 5)), (4, 3, (5, 9)), (5, 2, (3, 5)), (5, 3, (5, 9)),
                (6, 2, (3, 5)), (6, 3, (5, 9)),
                (4, 2, (9, 14)), (4, 3, (10, 14)), (5, 2, (6, 8)), (5, 2, (9, 11)),
                (5, 3, (10, 14)))
VERIFY_SLOTS = ((4, 2, 4), (5, 2, 4), (6, 2, 4), (5, 3, 6), (4, 2, 6),
                (4, 2, 8), (4, 3, 8), (5, 2, 6), (5, 3, 10))
FIXED_PAGE_SLOTS = ((4, 2, 4), (5, 2, 4), (6, 2, 4), (4, 2, 8), (5, 2, 6),
                    (4, 2, 6), (5, 2, 8), (6, 2, 6))
FIXED_POINT_SLOTS = ((1, 4, 2), (1, 5, 2), (1, 6, 2), (2, 4, 4), (2, 5, 4), (2, 6, 4),
                     (1, 4, 4), (1, 5, 4), (1, 5, 6), (1, 6, 4),
                     (2, 4, 8), (2, 5, 8), (2, 6, 8))
# the convention can change the cost of a fixed-point basis tenfold, so
# every pass runs both rather than a seeded one
CONVENTIONS = ("standard", "paper")
KERNEL_COPIES = 2
TINY_SLOTS = (((4, 2, (9, 9)),), ((4, 2, 4),), ((4, 2, 4),), ((1, 4, 4),))


def _subring_hilbert(n, top):
    """dims of Q[p_1..p_(n-1)] (degrees 4u) up to `top`."""
    dims = [1] + [0] * top
    for u in range(1, n):
        for d in range(4 * u, top + 1):
            dims[d] += dims[d - 4 * u]
    return dims


def _fixed_dimension_by_trace(m, spec, ell, degree, convention):
    """dim of the Weyl-fixed slice as the mean trace of the group action.

    w = (sigma, eps, eta) sends q_i to eps_i q_sigma(i) and every edge to
    eta * prod(eps) times itself; a monomial contributes to the trace only
    when w fixes its exponent vector.
    """
    group = m["charclasses"].weyl_group(spec, convention)
    basis = m["equiodd"].torus_basis(ell, spec.rank, degree)
    total = 0
    for w in group:
        edge_sign = w.eta
        for e in w.eps:
            edge_sign *= e
        for mono in basis:
            moved = [0] * spec.rank
            sign = edge_sign ** len(mono.edges)
            for i, e in enumerate(mono.q_exps):
                moved[w.sigma[i] - 1] = e
                if e % 2:
                    sign *= w.eps[i]
            if tuple(moved) == mono.q_exps:
                total += sign
    if total % len(group):
        raise ArithmeticError("Weyl trace is not divisible by the group order")
    return total // len(group)


def build_models(m, seed, workdir, tiny=False):
    rng = random.Random(f"models:{seed}")
    equieven, equiodd, cc = m["equieven"], m["equiodd"], m["charclasses"]
    for family in ("so_even", "o_even", "so_odd", "o_odd", "u"):
        for rank in (1, 2, 3):
            for convention in ("standard", "paper"):
                cc.weyl_group(cc.GroupSpec(family, rank), convention)
            cc.char_ring(cc.GroupSpec(family, rank))
    slots = TINY_SLOTS if tiny else (KERNEL_SLOTS, VERIFY_SLOTS, FIXED_PAGE_SLOTS,
                                     FIXED_POINT_SLOTS)
    # every group, family and convention appears in every pass, so the seed
    # moves the kernel_K degrees and the order but not the amount of work
    groups = ("so",) if tiny else ("so", "o", "u")
    even_families = ("so_even",) if tiny else ("so_even", "o_even")
    odd_families = ("so_odd",) if tiny else ("so_odd", "o_odd")
    ops, plan = [], []
    for _ in range(1 if tiny else KERNEL_COPIES):
        for ell, n, (lo, hi) in slots[0]:
            top = rng.randint(lo, hi)
            ops.append(Op(f"kernel_K l={ell} n={n} D={top}",
                          lambda a=(ell, n, top): m["equieven"].kernel_K(*a),
                          lambda s: tuple(sorted(s.dims.items()))))
            plan.append(("kernel", ell, n, top))
    for ell, n, top in slots[1]:
        for group in groups:
            ops.append(Op(f"verify_page_cohomology {group} l={ell} n={n} D={top}",
                          lambda a=(group, ell, n, top): m["equieven"].verify_page_cohomology(*a),
                          lambda rep: rep.rows))
            plan.append(("verify", group, ell, n, top))
    for ell, n, top in slots[2]:
        for family in even_families:
            ops.append(Op(f"fixed_page_cohomology_dims {family} l={ell} n={n} D={top}",
                          lambda a=(family, ell, n, top):
                              m["equieven"].fixed_page_cohomology_dims(*a),
                          lambda dims: tuple(sorted(dims.items()))))
            plan.append(("fixed_page", family, ell, n, top))
    for rank, ell, degree in slots[3]:
        for family, convention in ((f, c) for f in odd_families for c in CONVENTIONS):
            spec = cc.GroupSpec(family, rank)
            ops.append(Op(f"fixed_point_basis {family}({rank}) l={ell} "
                          f"degree={degree} {convention}",
                          lambda a=(spec, ell, degree, convention):
                              m["equiodd"].fixed_point_basis(*a),
                          lambda basis: tuple(str(b) for b in basis)))
            plan.append(("fixed_point", spec, ell, degree, convention))
    order = list(range(len(ops)))
    rng.shuffle(order)
    ops = [ops[i] for i in order]
    plan = [plan[i] for i in order]

    def basis_dim(step):
        """Size of the largest degree slice the operation eliminates over."""
        if step[0] == "kernel":
            _, ell, n, top = step
            return max(m["confring"].dimension(ell, 2 * n, d) for d in range(top + 1))
        if step[0] == "fixed_point":
            _, spec, ell, degree, _ = step
            return len(equiodd.torus_basis(ell, spec.rank, degree))
        group = step[1] if step[0] == "verify" else "torus"
        return max(equieven.page_dimension(group, *step[2:4], d)
                   for d in range(step[4] + 2))

    sizes = {"operations": [[op.label, basis_dim(step)] for op, step in zip(ops, plan)]}
    sizes["largest_basis_dim"] = max(dim for _, dim in sizes["operations"])

    def check(results):
        errors = {}
        page_dims = {}
        models = {}
        for i, step in enumerate(plan):
            out = results.get(i)
            if out is None:
                continue
            kind = step[0]
            if kind == "kernel":
                _, ell, n, top = step
                key = ("so", ell, n, top)
                if key not in page_dims:
                    page_dims[key] = equieven.page_cohomology_dims(*key)
                page, sub = page_dims[key], _subring_hilbert(n, top)
                # H(page) = Q[p_1..p_(n-1)] (x) K: peel the coefficients off
                k_dims = []
                for d in range(top + 1):
                    k_dims.append(page.get(d, 0) - sum(sub[c] * k_dims[d - c]
                                                       for c in range(1, d + 1)))
                want = {d: v for d, v in enumerate(k_dims) if v}
                if out.dims != want:
                    errors[i] = f"kernel dims {out.dims} differ from the page route {want}"
            elif kind == "verify":
                if not out.passed:
                    errors[i] = "page cohomology differs from the tensor model"
            elif kind == "fixed_page":
                _, family, ell, n, top = step
                key = ("so" if family == "so_even" else "o", ell, n, top)
                if key not in models:
                    models[key] = equieven.equivariant_cohomology_even(*key)
                want = {d: models[key].dims.get(d, 0) for d in range(top + 1)}
                if out != want:
                    errors[i] = "fixed page cohomology differs from the model"
            else:
                _, spec, ell, degree, convention = step
                want = _fixed_dimension_by_trace(m, spec, ell, degree, convention)
                if len(out) != want:
                    errors[i] = f"fixed basis of size {len(out)}, trace says {want}"
        return errors

    return Workload(ops, check, sizes)


# ---------------------------------------------------------------------------
# rewrite: the rewrite engines and element algebra, no elimination

# Shapes (points, dimension, lengths) cycle through every combination, so
# that every seed gets the same shape mix; the seed picks the words, the
# coefficients and the group elements. Counts are multiples of the number of
# shapes. The cost of one operation varies a hundredfold with its content, so
# a pass holds thousands of them for the seed to average out.
REWRITE_COUNTS = {"normal_form": 400, "normal_form_small": 12, "conf_product": 576,
                  "label_action": 576, "reduce_graph": 768, "equi_product": 864,
                  "weyl_action": 576, "restriction": 576, "d2n": 576}
TINY_COUNTS = dict.fromkeys(REWRITE_COUNTS, 2)
ORACLE_SAMPLE = 6


def _shape(t, *axes):
    """The t-th combination of the axes, the first axis varying fastest."""
    out = []
    for axis in axes:
        out.append(axis[t % len(axis)])
        t //= len(axis)
    return out


def _raw_word(rng, k, m, distinct=True):
    """m edges on k points in random orientation (distinct edges by default)."""
    pool = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    edges = rng.sample(pool, m) if distinct else [rng.choice(pool) for _ in range(m)]
    return [e if rng.random() < 0.5 else (e[1], e[0]) for e in edges]


def _canonical(word, n):
    """Sorted-pair edges with the sign of x_ji = (-1)^n x_ij."""
    sign, out = 1, []
    for i, j in word:
        if i > j:
            i, j = j, i
            sign *= (-1) ** n
        out.append((i, j))
    return out, sign


def _random_poly(rng, ring):
    out = ring.zero()
    for _ in range(rng.randint(1, 3)):
        exps = [rng.randint(0, 2) for _ in ring.names]
        out = out + ring.monomial(exps, rng.choice((1, -1, 2, Q(1, 2), 3)))
    return out if not out.is_zero() else ring.one()


def _weyl_reference(w, a, equiodd):
    """The documented Weyl action, written out independently."""
    edge_sign = w.eta
    for e in w.eps:
        edge_sign *= e
    terms = {}
    for edges, poly in a.terms.items():
        coeffs = {}
        for exps, c in poly.terms.items():
            moved = [0] * len(exps)
            sign = edge_sign ** len(edges)
            for i, e in enumerate(exps):
                moved[w.sigma[i] - 1] = e
                if e % 2:
                    sign *= w.eps[i]
            coeffs[tuple(moved)] = sign * c
        terms[edges] = type(poly)(poly.ring, coeffs)
    return equiodd.EquiElement(a.points, a.halfdim, terms)


def build_rewrite(m, seed, workdir, tiny=False):
    rng = random.Random(f"rewrite:{seed}")
    confring, equiodd, equieven, cc = m["confring"], m["equiodd"], m["equieven"], m["charclasses"]
    for n in (1, 2):
        for family in ("so_odd", "o_odd"):
            cc.weyl_group(cc.GroupSpec(family, n))
        cc.torus_ring(n)
    for group in ("torus", "so", "u"):
        equieven.page_ring(group, 2)
    counts = TINY_COUNTS if tiny else REWRITE_COUNTS
    ops, plan = [], []
    sizes = {"word_length": {}, "points": {}, "graph_edges": {}, "page_word_length": {}}

    def add(label, run, summary, step):
        ops.append(Op(label, run, summary))
        plan.append(step)

    def conf_nf(k, n, word):
        canon, sign = _canonical(word, n)
        return confring.ConfElement(k, n, confring.reduce_word(k, n, canon, Q(sign)))

    for t in range(counts["normal_form"]):
        k, n, length = _shape(t, (7, 8), (2, 3), (3, 4, 5, 6, 7))
        word = _raw_word(rng, k, length)
        _count(sizes["word_length"], length)
        _count(sizes["points"], k)
        add(f"normal_form k={k} n={n} len={length}",
            lambda a=(k, n, word): m["confring"].normal_form(*a), str,
            ("nf", k, n, word))
    for t in range(counts["normal_form_small"]):
        k, n, length = 4, 2 + t % 2, 2 + (t // 2) % 2
        word = _raw_word(rng, k, length, distinct=False)
        add(f"normal_form k={k} n={n} len={length}",
            lambda a=(k, n, word): m["confring"].normal_form(*a), str,
            ("nf", k, n, word))
    for t in range(counts["conf_product"]):
        k, n, l1, l2 = _shape(t, (6, 7, 8), (2, 3), (2, 3), (2, 3, 4))
        w1, w2 = _raw_word(rng, k, l1), _raw_word(rng, k, l2)
        a, b = conf_nf(k, n, w1), conf_nf(k, n, w2)
        _count(sizes["word_length"], len(w1) + len(w2))
        add(f"conf product k={k} n={n} len={len(w1)}+{len(w2)}",
            lambda a=a, b=b: a * b, str, ("conf_prod", k, n, w1 + w2))
    for t in range(counts["label_action"]):
        k, n, length = _shape(t, (6, 7, 8), (2, 3), (3, 4, 5))
        word = _raw_word(rng, k, length)
        sigma = list(range(1, k + 1))
        rng.shuffle(sigma)
        a = conf_nf(k, n, word)
        add(f"label_action k={k} n={n} len={len(word)}",
            lambda s=tuple(sigma), a=a: m["confring"].label_action(s, a), str,
            ("label", k, n, word, sigma))
    for t in range(counts["reduce_graph"]):
        ell, n, length = _shape(t, (4, 5, 6), (1, 2), (2, 3, 4, 5))
        edges = _canonical(_raw_word(rng, ell, length, distinct=False), 1)[0]
        coeff = _random_poly(rng, equiodd.qring(n))
        _count(sizes["graph_edges"], length)
        add(f"reduce_graph l={ell} n={n} edges={length}",
            lambda a=(ell, n, edges, coeff): m["equiodd"].reduce_graph(*a),
            lambda out: sorted((e, str(c)) for e, c in out.items()),
            ("graph", ell, n, edges, coeff))

    def graph_factor(ell, n, length):
        edges = _canonical(_raw_word(rng, ell, length, distinct=False), 1)[0]
        coeff = _random_poly(rng, equiodd.qring(n))
        return edges, coeff, equiodd.EquiElement(ell, n, equiodd.reduce_graph(ell, n, edges, coeff))

    def weight(pair):
        """Coefficient terms of one factor times those of the other."""
        return (sum(len(c.terms) for c in pair[0][2].terms.values())
                * sum(len(c.terms) for c in pair[1][2].terms.values()))

    graph_elements = []
    for t in range(counts["equi_product"]):
        ell, n, l1, l2 = _shape(t, (4, 5, 6), (1, 2), (1, 2, 3), (1, 2, 3))
        # a few products cost a hundred times the typical one; the middle of
        # three draws by weight keeps that tail from deciding the pass time
        draws = sorted(((graph_factor(ell, n, l1), graph_factor(ell, n, l2))
                        for _ in range(3)), key=weight)
        (e1, c1, a), (e2, c2, b) = draws[1]
        graph_elements.append((a, b))
        _count(sizes["graph_edges"], len(e1) + len(e2))
        add(f"equi product l={ell} n={n} edges={len(e1)}+{len(e2)}",
            lambda a=a, b=b: a * b, str, ("equi_prod", ell, n, e1 + e2, c1 * c2))
    for t in range(counts["weyl_action"]):
        a = graph_elements[t % len(graph_elements)][0]
        spec = cc.GroupSpec(rng.choice(("so_odd", "o_odd")), a.halfdim)
        w = rng.choice(cc.weyl_group(spec))
        add(f"weyl_action_equi {spec.family}({a.halfdim}) l={a.points}",
            lambda w=w, a=a: m["equiodd"].weyl_action_equi(w, a), str,
            ("weyl", w, a))
    for t in range(counts["restriction"]):
        a, b = graph_elements[t % len(graph_elements)]
        prod = a * b
        add(f"nonequivariant_restriction l={a.points} n={a.halfdim}",
            lambda p=prod: m["equiodd"].nonequivariant_restriction(p), str,
            ("restrict", a, b, prod))
    for t in range(counts["d2n"]):
        group, ell, la, lb = _shape(t, ("torus", "so", "u"), (3, 4, 5), (1, 2), (1, 2))
        ring = equieven.page_ring(group, 2)
        factors = []
        for length in (la, lb):
            elem = equieven.unit(group, ell, 2)
            for _ in range(length):
                i, j = rng.sample(range(1, ell + 1), 2)
                elem = elem * equieven.x_generator(group, ell, 2, i, j)
            factors.append((length, elem.scale_poly(ring.gen(rng.choice(ring.names)))))
        (la, a), (lb, b) = factors
        _count(sizes["page_word_length"], la + lb)
        prod = a * b
        add(f"d2n {group} l={ell} len={la}+{lb}",
            lambda p=prod: m["equieven"].d2n(p), str, ("d2n", la, a, b, prod))
    order = list(range(len(ops)))
    rng.shuffle(order)
    ops = [ops[i] for i in order]
    plan = [plan[i] for i in order]
    oracle_steps = [i for i, step in enumerate(plan)
                    if step[0] == "nf" and step[1] == 4]
    oracle_sample = set(rng.sample(oracle_steps, min(ORACLE_SAMPLE, len(oracle_steps))))

    def check(results):
        oracles = m["oracles"]
        errors = {}
        for i, step in enumerate(plan):
            out = results.get(i)
            if out is None:
                continue
            redex = random.Random(f"redex:{seed}:{i}")
            kind = step[0]
            if kind in ("nf", "conf_prod", "label"):
                k, n, word = step[1:4]
                if kind == "label":
                    sigma = step[4]
                    word = [(sigma[a - 1], sigma[b - 1]) for a, b in word]
                canon, sign = _canonical(word, n)
                want = confring.reduce_word(k, n, canon, Q(sign), rng=redex)
                if out.terms != want:
                    errors[i] = f"{kind} differs from the random-redex reduction"
                elif i in oracle_sample and out.terms != oracles.reduce_word(k, n, word):
                    errors[i] = "normal form differs from the ideal-span oracle"
            elif kind in ("graph", "equi_prod"):
                ell, n, edges, coeff = step[1:]
                want = equiodd.reduce_graph(ell, n, edges, coeff, rng=redex)
                got = out if kind == "graph" else out.terms
                if got != want:
                    errors[i] = f"{kind} differs from the random-redex reduction"
            elif kind == "weyl":
                if out != _weyl_reference(step[1], step[2], equiodd):
                    errors[i] = "Weyl action differs from its definition"
            elif kind == "restrict":
                _, a, b, _ = step
                ra, rb = (confring.ConfElement(
                    x.points, 2 * x.halfdim + 1,
                    {e: c.coefficient((0,) * x.halfdim) * 2 ** len(e)
                     for e, c in x.terms.items()}) for x in (a, b))
                if out != ra * rb:
                    errors[i] = "restriction is not multiplicative"
            else:
                _, la, a, b, prod = step
                d = equieven.d2n
                leibniz = d(a) * b + (a * d(b)).scale((-1) ** la)
                if out != leibniz or not d(out).is_zero():
                    errors[i] = "d2n breaks the Leibniz rule or d o d = 0"
        return errors

    return Workload(ops, check, sizes)


BUILDERS = {"pages": build_pages, "dense": build_dense,
            "models": build_models, "rewrite": build_rewrite}
