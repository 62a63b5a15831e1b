"""Command-line front end: every computation behind one `equiconf` binary.

Subcommand tree: conf | equi | even | ss | verify | render, declared in one
table in `build_parser`: each command once, with its handler and its flags.
All numeric output is exact rationals; identical argv (and seed) produce
byte-identical output. Exit codes: 0 success, 1 verification failure, 2 input
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import confring, equieven, equiodd, specseq, verify
from .charclasses import (
    CONVENTIONS,
    DEGREE_BOUND,
    HALFDIM_BOUND,
    POINT_BOUND,
    GroupSpec,
    check_basis_size,
    torus_ring,
)
from .errors import CapacityError, InputError, PurityViolation, WitnessError
from .exactalg import rat


def parse_word(text):
    """Edge words like "1 3, 2 3" -> [(1, 3), (2, 3)]."""
    word = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.replace("-", " ").split()
        if len(parts) != 2 or not all(p.isdecimal() for p in parts):
            raise InputError(f"bad edge {chunk!r}; expected 'i j'")
        word.append((int(parts[0]), int(parts[1])))
    if not word:
        raise InputError("empty word")
    return word


def parse_perm(text):
    """Point images like "2,1,3" -> (2, 1, 3)."""
    parts = text.replace(",", " ").split()
    if not all(p.isdecimal() for p in parts):
        raise InputError(f"bad permutation {text!r}; expected images like '2,1,3'")
    return tuple(int(x) for x in parts)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def json_text(value, indent="\n"):
    """`json.dumps(value, indent=2, sort_keys=True)`, byte for byte, without
    the pure-Python encoder that `indent` selects: its nested closures leave
    reference cycles behind on every call. Keys are sorted before they are
    converted to strings, as `sort_keys` does, and `json.dumps` sees scalars
    only."""
    inner = indent + "  "
    if isinstance(value, dict):
        parts = [f"{json.dumps(k if isinstance(k, str) else json.dumps(k))}: {json_text(v, inner)}"
                 for k, v in sorted(value.items())]
        ends = "{}"
    elif isinstance(value, (list, tuple)):
        parts, ends = [json_text(v, inner) for v in value], "[]"
    else:
        return json.dumps(value)
    return ends[0] + ",".join(inner + p for p in parts) + indent + ends[1] if parts else ends


def emit(args, payload, text=None, dot=None):
    """Write `payload` as JSON, `text` (JSON if None) or `dot()` (a callable,
    where the result has a DOT rendering) to stdout or the --output file."""
    if args.format == "dot":
        if dot is None:
            raise InputError("this command has no DOT rendering")
        out = dot()
        out = out if out.endswith("\n") else out + "\n"
    elif args.format == "json" or text is None:
        out = json_text(payload) + "\n"
    else:
        out = text + "\n"
    if not args.output:
        sys.stdout.write(out)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    except OSError as exc:
        raise InputError(f"cannot write {args.output}: {exc}") from exc


def emit_element(args, elem):
    """An element as JSON, text or, for graph elements, DOT."""
    emit(args, elem.to_json(), text=str(elem), dot=getattr(elem, "to_dot", None))


# ---------------------------------------------------------------------------
# conf


def cmd_conf_poincare(args):
    poly = confring.poincare_formula(args.points, args.dim)
    emit(args, {"points": args.points, "dim": args.dim,
                "poincare": str(poly)}, text=str(poly))
    return 0


def cmd_conf_basis(args):
    poincare = confring.poincare_formula(args.points, args.dim)
    check_basis_size(poincare.coefficient((args.degree,)), args.degree)
    words = confring.basis_keys(args.points, args.dim, args.degree)
    payload = {"points": args.points, "dim": args.dim, "degree": args.degree,
               "dimension": len(words),
               "basis": [[list(e) for e in edges] for edges in words]}
    text = "\n".join(str(confring.ConfElement(args.points, args.dim, {edges: 1}))
                     for edges in words) or "(empty)"
    emit(args, payload, text=text)
    return 0


def cmd_conf_normal_form(args):
    word = parse_word(args.word)
    emit_element(args, confring.normal_form(args.points, args.dim, word, rat(args.coeff)))
    return 0


# ---------------------------------------------------------------------------
# conf and equi: products and label actions of element files

ELEMENTS = {"conf": confring.ConfElement, "equi": equiodd.EquiElement}


def cmd_product(args):
    element = ELEMENTS[args.command]
    lhs = element.from_json(load_json(args.lhs))
    rhs = element.from_json(load_json(args.rhs))
    emit_element(args, lhs * rhs)
    return 0


def cmd_act(args):
    elem = ELEMENTS[args.command].from_json(load_json(args.input))
    emit_element(args, confring.label_action(parse_perm(args.perm), elem))
    return 0


# ---------------------------------------------------------------------------
# equi (odd-dimensional equivariant ring)

ODD_GROUPS = {"so": "so_odd", "o": "o_odd"}


def cmd_equi_hilbert(args):
    # from the top, where the bases are largest, so a refusal comes first
    degrees = range(args.max_degree, -1, -1)
    if args.group == "torus":
        # counted in closed form; the `leray-hirsch` suite checks it against
        # the enumerated bases
        dims = confring.graded_dimensions(args.points, 2 * args.halfdim,
                                          torus_ring(args.halfdim), args.max_degree)
        for d in degrees:
            check_basis_size(dims[d], d)
    else:
        spec = GroupSpec(ODD_GROUPS[args.group], args.halfdim)
        dims = [equiodd.fixed_point_dimension(spec, args.points, d, args.weyl_convention)
                for d in degrees]
        dims.reverse()
    payload = {"points": args.points, "halfdim": args.halfdim,
               "group": args.group, "dims": dims}
    emit(args, payload, text=" ".join(str(x) for x in dims))
    return 0


def cmd_equi_basis(args):
    monos = equiodd.torus_basis(args.points, args.halfdim, args.degree)
    payload = {"points": args.points, "halfdim": args.halfdim,
               "degree": args.degree, "dimension": len(monos),
               "basis": [m.as_element().to_json() for m in monos]}
    text = "\n".join(str(m.as_element()) for m in monos) or "(empty)"
    emit(args, payload, text=text)
    return 0


def cmd_equi_normal_form(args):
    word = parse_word(args.word)
    elem = equiodd.unit(args.points, args.halfdim)
    for i, j in word:
        elem = elem * equiodd.generator(args.points, args.halfdim, i, j)
    emit_element(args, elem)
    return 0


def cmd_equi_restrict(args):
    elem = equiodd.EquiElement.from_json(load_json(args.input))
    emit_element(args, equiodd.nonequivariant_restriction(elem))
    return 0


# ---------------------------------------------------------------------------
# even (page model)


def cmd_even_kernel(args):
    summary = equieven.kernel_K(args.points, args.halfdim, args.max_degree)
    payload = {"points": args.points, "halfdim": args.halfdim,
               "dims": {str(d): summary.dims[d] for d in sorted(summary.dims)},
               "basis": {str(d): [b.to_json() for b in summary.basis[d]]
                         for d in sorted(summary.basis)}}
    lines = [f"degree {d}: dim {summary.dims[d]}: "
             + "; ".join(str(b) for b in summary.basis[d])
             for d in sorted(summary.dims)]
    emit(args, payload, text="\n".join(lines))
    return 0


def cmd_even_hilbert(args):
    model = equieven.model_dims(args.group, args.points, args.halfdim, args.max_degree)
    dims = [model.get(d, 0) for d in range(args.max_degree + 1)]
    payload = {"points": args.points, "halfdim": args.halfdim,
               "group": args.group, "dims": dims}
    emit(args, payload, text=" ".join(str(x) for x in dims))
    return 0


def cmd_even_verify_page(args):
    report = equieven.verify_page_cohomology(
        args.group, args.points, args.halfdim, args.max_degree)
    text = "\n".join(
        f"degree {d}: page {a} model {b} {'ok' if a == b else 'MISMATCH'}"
        for d, a, b in report.rows)
    emit(args, report.to_json(), text=text)
    return 0 if report.passed else 1


def cmd_even_complex(args):
    xi = rat(args.xi) if args.xi is not None else None
    complex_ = equieven.as_filtered_complex(
        args.group, args.points, args.halfdim, args.max_degree, xi=xi)
    emit(args, complex_.to_json())
    return 0


# ---------------------------------------------------------------------------
# ss (filtered complexes)


def cmd_ss_page(args):
    complex_ = specseq.complex_from_json(load_json(args.input))
    pg = specseq.page(complex_, args.page)
    dims = pg.display_dims()
    payload = {"page": args.page,
               "dims": [{"bidegree": [p, q], "dim": dims[(p, q)]}
                        for (p, q) in sorted(dims)],
               "total_degree_dims": {str(n): d for n, d
                                     in sorted(pg.total_degree_dims().items())}}
    text = "\n".join(f"E_{args.page}^({p},{q}) dim {dims[(p, q)]}"
                     for (p, q) in sorted(dims)) or "(zero page)"
    emit(args, payload, text=text)
    return 0


def cmd_ss_decalage(args):
    complex_ = specseq.complex_from_json(load_json(args.input))
    emit(args, specseq.decalage(complex_).to_json())
    return 0


def cmd_ss_canonical(args):
    data = specseq.json_map(load_json(args.input), "a complex")
    with specseq.reading("complex"):
        out = specseq.canonical_filtration(*specseq.read_complex(data))
    emit(args, out.to_json())
    return 0


def cmd_ss_purity(args):
    complex_ = specseq.complex_from_json(load_json(args.input))
    spec = specseq.WeightSpec(rat(args.xi), rat(args.alpha), args.page)
    result = specseq.purity_check(complex_, spec, at_page=args.at_page)
    text_lines = [f"purity: {'PASS' if result.ok else 'FAIL'} "
                  f"(inspected page {result.inspected_page})"]
    for spot, w, dim in result.records:
        text_lines.append(f"  E^({spot[0]},{spot[1]}): weight "
                          f"{'-' if w is None else w}, dim {dim}")
    if result.violation:
        text_lines.append(f"  violation at {result.violation[0]}: "
                          f"{result.violation[2]}")
    emit(args, result.to_json(), text="\n".join(text_lines))
    return 0 if result.ok else 1


def cmd_ss_witness(args):
    complex_ = specseq.complex_from_json(load_json(args.input))
    spec = specseq.WeightSpec(rat(args.xi), rat(args.alpha), 0)
    try:
        witness = specseq.formality_witness(complex_, spec)
    except (PurityViolation, WitnessError) as exc:
        refusal = "refused" if isinstance(exc, PurityViolation) else "no witness"
        emit(args, {"ok": False, "reason": str(exc)}, text=f"{refusal}: {exc}")
        return 1
    text = "\n".join(f"{name}: {'ok' if passed else 'FAIL'}"
                     for name, passed in witness.transcript)
    emit(args, witness.to_json(), text=text)
    return 0


# ---------------------------------------------------------------------------
# verify / render


def cmd_verify(args):
    report = verify.run_suite(args.suite, args.seed)
    emit(args, report.to_json(), text=report.to_text())
    return 0 if report.passed else 1


def cmd_render(args):
    elem = equiodd.EquiElement.from_json(load_json(args.input))
    emit(args, elem.to_json(), text=elem.to_dot(), dot=elem.to_dot)
    return 0


# ---------------------------------------------------------------------------
# parser

NEEDED = {"required": True}
NEEDED_INT = {"type": int, "required": True}
POINTS = ("--points", NEEDED_INT)
DIM = ("--dim", NEEDED_INT)
HALFDIM = ("--halfdim", NEEDED_INT)
DEGREE = ("--degree", NEEDED_INT)
MAX_DEGREE = ("--max-degree", NEEDED_INT)
PAGE = ("--page", NEEDED_INT)
INPUT = ("--input", NEEDED)
OPERANDS = (("--lhs", NEEDED), ("--rhs", NEEDED))
WEIGHT = (("--xi", NEEDED), ("--alpha", NEEDED))
EVEN_GROUP = ("--group", {"choices": ("so", "o", "u"), "required": True})
# every command takes these, after its own flags
COMMON = (("--format", {"choices": ("json", "text", "dot"), "default": "text"}),
          ("--output", {"metavar": "FILE"}))
HELP = {"conf": "non-equivariant configuration rings",
        "equi": "odd-dimensional equivariant rings",
        "even": "even-dimensional page models",
        "ss": "filtered complexes and spectral pages",
        "verify": "invariant batteries and golden examples",
        "render": "DOT rendering of graph elements"}


@lru_cache(maxsize=1)
def build_parser():
    """The argument parser; built once per process, since parsing never mutates it.

    One entry per command: its path, its handler and its own flags. The
    handlers are looked up here, when the parser is built.
    """
    commands = (
        ("conf poincare", cmd_conf_poincare, (POINTS, DIM)),
        ("conf basis", cmd_conf_basis, (POINTS, DIM, DEGREE)),
        ("conf normal-form", cmd_conf_normal_form,
         (POINTS, DIM, ("--word", {"required": True, "help": "e.g. '1 3, 2 3' for x13*x23"}),
          ("--coeff", {"default": "1"}))),
        ("conf product", cmd_product, OPERANDS),
        ("conf act", cmd_act, (("--perm", {"required": True, "help": "e.g. '2,1,3'"}), INPUT)),
        ("equi hilbert", cmd_equi_hilbert,
         (POINTS, HALFDIM, ("--group", {"choices": ("torus", "so", "o"), "default": "torus"}),
          MAX_DEGREE, ("--weyl-convention", {"choices": CONVENTIONS, "default": "standard"}))),
        ("equi basis", cmd_equi_basis, (POINTS, HALFDIM, DEGREE)),
        ("equi normal-form", cmd_equi_normal_form, (POINTS, HALFDIM, ("--word", NEEDED))),
        ("equi product", cmd_product, OPERANDS),
        ("equi restrict", cmd_equi_restrict, (INPUT,)),
        ("equi act", cmd_act, (("--perm", NEEDED), INPUT)),
        ("even kernel", cmd_even_kernel, (POINTS, HALFDIM, MAX_DEGREE)),
        ("even hilbert", cmd_even_hilbert, (EVEN_GROUP, POINTS, HALFDIM, MAX_DEGREE)),
        ("even verify-page", cmd_even_verify_page, (EVEN_GROUP, POINTS, HALFDIM, MAX_DEGREE)),
        ("even complex", cmd_even_complex,
         (("--group", {"choices": ("torus", "so", "u"), "required": True}), POINTS, HALFDIM,
          MAX_DEGREE, ("--xi", {"help": "rational P/Q; attach phi"}))),
        ("ss page", cmd_ss_page, (INPUT, PAGE)),
        ("ss decalage", cmd_ss_decalage, (INPUT,)),
        ("ss canonical", cmd_ss_canonical, (INPUT,)),
        ("ss purity", cmd_ss_purity,
         (INPUT, *WEIGHT, PAGE, ("--at-page", {"type": int}))),
        ("ss witness", cmd_ss_witness, (INPUT, *WEIGHT)),
        ("verify", cmd_verify, (("--suite", {"required": True, "choices": verify.SUITE_NAMES}),
                                ("--seed", {"type": int, "default": 0}))),
        ("render", cmd_render, (INPUT,)),
    )
    parser = argparse.ArgumentParser(
        prog="equiconf",
        description="Exact equivariant cohomology of configuration spaces "
                    "and a filtered-complex spectral-sequence kernel.")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for path, func, flags in commands:
        group, _, name = path.rpartition(" ")
        if group and group not in groups:
            groups[group] = sub.add_parser(group, help=HELP[group]).add_subparsers(
                dest="subcommand", required=True)
        leaf = groups[group].add_parser(name) if group else sub.add_parser(name, help=HELP[name])
        for flag, options in flags + COMMON:
            leaf.add_argument(flag, **options)
        leaf.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "points", 0) < 0:
            raise InputError(f"point count {args.points} is negative")
        if getattr(args, "points", 0) > POINT_BOUND:
            raise CapacityError(f"{args.points} points exceed the bound {POINT_BOUND}")
        if getattr(args, "halfdim", 1) < 1:
            raise InputError(f"halfdim {args.halfdim} is below 1")
        if getattr(args, "halfdim", 0) > HALFDIM_BOUND:
            raise CapacityError(f"halfdim {args.halfdim} exceeds the bound {HALFDIM_BOUND}")
        if getattr(args, "max_degree", 0) < 0:
            raise InputError(f"max degree {args.max_degree} is negative")
        degree = max(getattr(args, "degree", 0), getattr(args, "max_degree", 0))
        if degree > DEGREE_BOUND:
            raise CapacityError(f"degree {degree} exceeds the bound {DEGREE_BOUND}")
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        # exact results can outgrow the interpreter's int/str digit limit,
        # which stays as it is
        if "integer string conversion" not in str(exc):
            raise
        sys.stderr.write(f"error: a number has more than {sys.get_int_max_str_digits()} "
                         "digits, the interpreter's limit for integers written as text\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
