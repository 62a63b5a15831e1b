"""Command-line front end: every computation behind one `equiconf` binary.

Subcommand tree: conf | equi | even | ss | verify | render. All numeric
output is exact rationals; identical argv (and seed) produce byte-identical
output. Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import confring, equieven, equiodd, specseq, verify
from .charclasses import BASIS_BOUND, POINT_BOUND, GroupSpec
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


def emit(args, payload, text=None, dot=None):
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "dot":
        if dot is None:
            raise InputError("this command has no DOT rendering")
        out = dot if dot.endswith("\n") else dot + "\n"
    else:
        out = (text if text is not None
               else json.dumps(payload, indent=2, sort_keys=True)) + "\n"
    target = getattr(args, "output", None)
    if target:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def group_spec_from_flag(group, halfdim, odd):
    if group == "torus":
        return GroupSpec("torus", halfdim)
    if group == "so":
        return GroupSpec("so_odd" if odd else "so_even", halfdim)
    if group == "o":
        return GroupSpec("o_odd" if odd else "o_even", halfdim)
    if group == "u":
        return GroupSpec("u", halfdim)
    raise InputError(f"unknown group {group!r}")


# ---------------------------------------------------------------------------
# conf


def cmd_conf_poincare(args):
    poly = confring.poincare_formula(args.points, args.dim)
    emit(args, {"points": args.points, "dim": args.dim,
                "poincare": str(poly)}, text=str(poly))
    return 0


def cmd_conf_basis(args):
    size = confring.poincare_formula(args.points, args.dim).coefficient((args.degree,))
    if size > BASIS_BOUND:
        raise CapacityError(f"the degree {args.degree} basis has {size} monomials, "
                            f"more than the bound {BASIS_BOUND}")
    monos = confring.basis(args.points, args.dim, args.degree)
    payload = {"points": args.points, "dim": args.dim, "degree": args.degree,
               "dimension": len(monos),
               "basis": [[list(e) for e in m.edges] for m in monos]}
    text = "\n".join(str(m.as_element()) for m in monos) or "(empty)"
    emit(args, payload, text=text)
    return 0


def cmd_conf_normal_form(args):
    word = parse_word(args.word)
    elem = confring.normal_form(args.points, args.dim, word, rat(args.coeff))
    emit(args, elem.to_json(), text=str(elem))
    return 0


def cmd_conf_product(args):
    lhs = confring.ConfElement.from_json(load_json(args.lhs))
    rhs = confring.ConfElement.from_json(load_json(args.rhs))
    prod = lhs * rhs
    emit(args, prod.to_json(), text=str(prod))
    return 0


def cmd_conf_act(args):
    elem = confring.ConfElement.from_json(load_json(args.input))
    out = confring.label_action(parse_perm(args.perm), elem)
    emit(args, out.to_json(), text=str(out))
    return 0


# ---------------------------------------------------------------------------
# equi (odd-dimensional equivariant ring)


def cmd_equi_hilbert(args):
    dims = []
    if args.group == "torus":
        for d in range(args.max_degree + 1):
            dims.append(equiodd.torus_dimension(args.points, args.halfdim, d))
    else:
        spec = group_spec_from_flag(args.group, args.halfdim, odd=True)
        for d in range(args.max_degree + 1):
            dims.append(equiodd.fixed_point_dimension(
                spec, args.points, d, args.weyl_convention))
    payload = {"points": args.points, "halfdim": args.halfdim,
               "group": args.group, "dims": dims}
    text = " ".join(str(x) for x in dims)
    emit(args, payload, text=text)
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
    emit(args, elem.to_json(), text=str(elem), dot=elem.to_dot())
    return 0


def cmd_equi_product(args):
    lhs = equiodd.EquiElement.from_json(load_json(args.lhs))
    rhs = equiodd.EquiElement.from_json(load_json(args.rhs))
    prod = lhs * rhs
    emit(args, prod.to_json(), text=str(prod), dot=prod.to_dot())
    return 0


def cmd_equi_restrict(args):
    elem = equiodd.EquiElement.from_json(load_json(args.input))
    out = equiodd.nonequivariant_restriction(elem)
    emit(args, out.to_json(), text=str(out))
    return 0


def cmd_equi_act(args):
    elem = equiodd.EquiElement.from_json(load_json(args.input))
    out = confring.label_action(parse_perm(args.perm), elem)
    emit(args, out.to_json(), text=str(out), dot=out.to_dot())
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
    model = equieven.equivariant_cohomology_even(
        args.group, args.points, args.halfdim, args.max_degree)
    payload = {"points": args.points, "halfdim": args.halfdim,
               "group": args.group, "dims": model.dims_list()}
    emit(args, payload, text=" ".join(str(x) for x in model.dims_list()))
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
    out = specseq.decalage(complex_)
    emit(args, out.to_json())
    return 0


def cmd_ss_canonical(args):
    data = specseq.json_map(load_json(args.input), "a complex")
    try:
        out = specseq.canonical_filtration(
            {int(k): v for k, v in specseq.json_map(data["degrees"], "degrees").items()},
            {int(k): [[rat(x) for x in row] for row in rows]
             for k, rows in specseq.json_map(data.get("d", {}), "d").items()},
            None if "phi" not in data else
            {int(k): [[rat(x) for x in row] for row in rows]
             for k, rows in specseq.json_map(data["phi"], "phi").items()})
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed complex: {exc}") from exc
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
    except PurityViolation as exc:
        emit(args, {"ok": False, "reason": str(exc)},
             text=f"refused: {exc}")
        return 1
    except WitnessError as exc:
        emit(args, {"ok": False, "reason": str(exc)},
             text=f"no witness: {exc}")
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
    emit(args, elem.to_json(), text=elem.to_dot(), dot=elem.to_dot())
    return 0


# ---------------------------------------------------------------------------
# parser


def add_common(p, output=True):
    p.add_argument("--format", choices=("json", "text", "dot"), default="text")
    if output:
        p.add_argument("--output", metavar="FILE")


@lru_cache(maxsize=1)
def build_parser():
    """The argument parser; built once per process, since parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="equiconf",
        description="Exact equivariant cohomology of configuration spaces "
                    "and a filtered-complex spectral-sequence kernel.")
    sub = parser.add_subparsers(dest="command", required=True)

    conf = sub.add_parser("conf", help="non-equivariant configuration rings")
    conf_sub = conf.add_subparsers(dest="subcommand", required=True)
    p = conf_sub.add_parser("poincare")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_conf_poincare)
    p = conf_sub.add_parser("basis")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_conf_basis)
    p = conf_sub.add_parser("normal-form")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--word", required=True, help="e.g. '1 3, 2 3' for x13*x23")
    p.add_argument("--coeff", default="1")
    add_common(p)
    p.set_defaults(func=cmd_conf_normal_form)
    p = conf_sub.add_parser("product")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    add_common(p)
    p.set_defaults(func=cmd_conf_product)
    p = conf_sub.add_parser("act")
    p.add_argument("--perm", required=True, help="e.g. '2,1,3'")
    p.add_argument("--input", required=True)
    add_common(p)
    p.set_defaults(func=cmd_conf_act)

    equi = sub.add_parser("equi", help="odd-dimensional equivariant rings")
    equi_sub = equi.add_subparsers(dest="subcommand", required=True)
    p = equi_sub.add_parser("hilbert")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--halfdim", type=int, required=True)
    p.add_argument("--group", choices=("torus", "so", "o"), default="torus")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--weyl-convention", choices=("standard", "paper"),
                   default="standard")
    add_common(p)
    p.set_defaults(func=cmd_equi_hilbert)
    p = equi_sub.add_parser("basis")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--halfdim", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_equi_basis)
    p = equi_sub.add_parser("normal-form")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--halfdim", type=int, required=True)
    p.add_argument("--word", required=True)
    add_common(p)
    p.set_defaults(func=cmd_equi_normal_form)
    p = equi_sub.add_parser("product")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    add_common(p)
    p.set_defaults(func=cmd_equi_product)
    p = equi_sub.add_parser("restrict")
    p.add_argument("--input", required=True)
    add_common(p)
    p.set_defaults(func=cmd_equi_restrict)
    p = equi_sub.add_parser("act")
    p.add_argument("--perm", required=True)
    p.add_argument("--input", required=True)
    add_common(p)
    p.set_defaults(func=cmd_equi_act)

    even = sub.add_parser("even", help="even-dimensional page models")
    even_sub = even.add_subparsers(dest="subcommand", required=True)
    p = even_sub.add_parser("kernel")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--halfdim", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_even_kernel)
    p = even_sub.add_parser("hilbert")
    p.add_argument("--group", choices=("so", "o", "u"), required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--halfdim", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_even_hilbert)
    p = even_sub.add_parser("verify-page")
    p.add_argument("--group", choices=("so", "o", "u"), required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--halfdim", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_even_verify_page)
    p = even_sub.add_parser("complex")
    p.add_argument("--group", choices=("torus", "so", "u"), required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--halfdim", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--xi", default=None, help="rational P/Q; attach phi")
    add_common(p)
    p.set_defaults(func=cmd_even_complex)

    ss = sub.add_parser("ss", help="filtered complexes and spectral pages")
    ss_sub = ss.add_subparsers(dest="subcommand", required=True)
    p = ss_sub.add_parser("page")
    p.add_argument("--input", required=True)
    p.add_argument("--page", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_ss_page)
    p = ss_sub.add_parser("decalage")
    p.add_argument("--input", required=True)
    add_common(p)
    p.set_defaults(func=cmd_ss_decalage)
    p = ss_sub.add_parser("canonical")
    p.add_argument("--input", required=True)
    add_common(p)
    p.set_defaults(func=cmd_ss_canonical)
    p = ss_sub.add_parser("purity")
    p.add_argument("--input", required=True)
    p.add_argument("--xi", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--page", type=int, required=True)
    p.add_argument("--at-page", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_ss_purity)
    p = ss_sub.add_parser("witness")
    p.add_argument("--input", required=True)
    p.add_argument("--xi", required=True)
    p.add_argument("--alpha", required=True)
    add_common(p)
    p.set_defaults(func=cmd_ss_witness)

    p = sub.add_parser("verify", help="invariant batteries and golden examples")
    p.add_argument("--suite", required=True, choices=verify.SUITE_NAMES)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="DOT rendering of graph elements")
    p.add_argument("--input", required=True)
    add_common(p)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "points", 0) > POINT_BOUND:
            raise CapacityError(f"{args.points} points exceed the bound {POINT_BOUND}")
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
    except PurityViolation as exc:
        sys.stderr.write(f"purity violation: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
