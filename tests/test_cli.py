import copy
import gc
import json
import random

import pytest

from equiconf import confring, equieven, equiodd, specseq
from equiconf.charclasses import (BASIS_BOUND, DEGREE_BOUND, HALFDIM_BOUND, MODEL_BOUND,
                                  POINT_BOUND)
from equiconf.cli import json_text, main, parse_perm, parse_word
from equiconf.errors import InputError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_helpers():
    assert parse_word("1 3, 2 3") == [(1, 3), (2, 3)]
    assert parse_perm("2,1,3") == (2, 1, 3)
    with pytest.raises(InputError):
        parse_word("1")


def test_conf_poincare_text(capsys):
    code, out = run(capsys, "conf", "poincare", "--points", "3", "--dim", "3")
    assert code == 0
    assert out.strip() == "1 + 3*t^2 + 2*t^4"


def test_conf_normal_form_json_round_trip(capsys, tmp_path):
    code, out = run(capsys, "conf", "normal-form", "--points", "3", "--dim", "3",
                    "--word", "1 3, 2 3", "--format", "json")
    assert code == 0
    elem = confring.ConfElement.from_json(json.loads(out))
    assert elem == confring.normal_form(3, 3, [(1, 3), (2, 3)])


def test_equi_hilbert_so3(capsys):
    code, out = run(capsys, "equi", "hilbert", "--points", "2", "--halfdim", "1",
                    "--group", "so", "--max-degree", "8")
    assert code == 0
    assert out.split() == ["1", "0", "1", "0", "1", "0", "1", "0", "1"]


def test_equi_hilbert_torus_counts_without_enumerating(capsys, monkeypatch):
    # the torus counts come from the closed form, equal to the enumerated
    # bases, and a basis past BASIS_BOUND is refused from the top degree down
    want = {(ell, n): [equiodd.torus_dimension(ell, n, d) for d in range(9)]
            for ell in range(5) for n in (1, 2, 3)}
    monkeypatch.setattr(equiodd, "torus_basis", None)
    for (ell, n), dims in want.items():
        assert run(capsys, "equi", "hilbert", "--points", str(ell), "--halfdim", str(n),
                   "--max-degree", "8") == (0, " ".join(map(str, dims)) + "\n")
    # degrees 12 and 14 are both past the bound: 14 is named
    sizes = [equiodd.leray_hirsch_dimension(9, 1, d) for d in (12, 14)]
    assert min(sizes) > BASIS_BOUND
    assert main(["equi", "hilbert", "--points", "9", "--halfdim", "1",
                 "--max-degree", "14"]) == 2
    assert capsys.readouterr().err == (f"error: the degree 14 basis has {sizes[1]} "
                                       f"monomials, more than the bound {BASIS_BOUND}\n")


def test_equi_hilbert_o3_and_conventions(capsys):
    code, out = run(capsys, "equi", "hilbert", "--points", "2", "--halfdim", "1",
                    "--group", "o", "--max-degree", "8")
    assert code == 0
    assert out.split() == ["1", "0", "0", "0", "1", "0", "0", "0", "1"]
    code, out = run(capsys, "equi", "hilbert", "--points", "2", "--halfdim", "2",
                    "--group", "so", "--max-degree", "8",
                    "--weyl-convention", "paper")
    assert code == 0
    assert out.split() == ["1", "0", "0", "0", "1", "0", "0", "0", "3"]


def test_equi_product_and_render(capsys, tmp_path):
    y12 = tmp_path / "y12.json"
    code, _ = run(capsys, "equi", "normal-form", "--points", "2", "--halfdim", "1",
                  "--word", "1 2", "--format", "json", "--output", str(y12))
    assert code == 0
    code, out = run(capsys, "equi", "product", "--lhs", str(y12),
                    "--rhs", str(y12))
    assert code == 0
    assert out.strip() == "q1^2"
    code, out = run(capsys, "render", "--input", str(y12))
    assert code == 0
    assert "1 -- 2" in out


def test_equi_restrict(capsys, tmp_path):
    path = tmp_path / "elem.json"
    elem = equiodd.generator(3, 1, 1, 2) * equiodd.generator(3, 1, 1, 3)
    path.write_text(json.dumps(elem.to_json()))
    code, out = run(capsys, "equi", "restrict", "--input", str(path))
    assert code == 0
    assert out.strip() == "4*x12*x13"


def test_even_verify_page_exit_codes(capsys):
    code, _ = run(capsys, "even", "verify-page", "--group", "so", "--points", "2",
                  "--halfdim", "2", "--max-degree", "8")
    assert code == 0


@pytest.mark.parametrize("group,top,dims", [
    ("so", 16, [1 if d % 4 == 0 else 0 for d in range(17)]),
    ("o", 16, [1 if d % 4 == 0 else 0 for d in range(17)]),
    ("u", 8, [1, 0, 1, 0, 1, 0, 1, 0, 1]),
])
def test_even_hilbert_text_and_json(group, top, dims, capsys):
    argv = ("even", "hilbert", "--group", group, "--points", "2", "--halfdim", "2",
            "--max-degree", str(top))
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == " ".join(map(str, dims)) + "\n"
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"points": 2, "halfdim": 2, "group": group, "dims": dims}


def test_ss_chain_via_files(capsys, tmp_path):
    golden = tmp_path / "golden.json"
    code, _ = run(capsys, "even", "complex", "--group", "torus", "--points", "2",
                  "--halfdim", "2", "--max-degree", "12", "--xi", "2",
                  "--format", "json", "--output", str(golden))
    assert code == 0
    # the emitted complex re-parses (round-trip contract)
    parsed = specseq.complex_from_json(json.loads(golden.read_text()))
    assert parsed.phi is not None
    code, out = run(capsys, "ss", "page", "--input", str(golden),
                    "--page", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_degree_dims"]["0"] == 1
    assert payload["total_degree_dims"]["2"] == 2
    code, out = run(capsys, "ss", "purity", "--input", str(golden),
                    "--xi", "2", "--alpha", "1/3", "--page", "3")
    assert code == 0
    dec = tmp_path / "dec.json"
    code, _ = run(capsys, "ss", "decalage", "--input", str(golden),
                  "--format", "json", "--output", str(dec))
    assert code == 0
    assert specseq.complex_from_json(json.loads(dec.read_text())).spaces == \
        parsed.spaces


def test_json_output_leaves_no_reference_cycles(capsys, tmp_path):
    # the stdlib's indented encoder left 33 cyclic objects per call
    for value in ({"b": [1, 2.5, None], "a": {"y": (), "x": {}}, "é": "q\n\"", "c": []},
                  {3: True, 1: -2 ** 70}, {1.5: "x", 0.5: "y"}, {False: 0, True: 1},
                  [[], [{}], ({"k": "v"},)], "text", 7):
        assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)
    path = tmp_path / "complex.json"
    assert main(["even", "complex", "--group", "torus", "--points", "3", "--halfdim", "2",
                 "--max-degree", "8", "--xi", "2", "--format", "json",
                 "--output", str(path)]) == 0
    argv = ["ss", "decalage", "--input", str(path), "--format", "json"]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = main(argv)
        gc.collect()
        cyclic = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert code == 0 and cyclic == 0
    payload = specseq.decalage(specseq.complex_from_json(json.loads(path.read_text())))
    assert capsys.readouterr().out == json.dumps(payload.to_json(), indent=2,
                                                 sort_keys=True) + "\n"


def test_ss_witness_and_failures(capsys, tmp_path):
    ok = tmp_path / "pure.json"
    ok.write_text(json.dumps({
        "degrees": {"0": 1, "1": 1},
        "d": {"0": [["0"]]},
        "filtration": {"0": [[["1"]]], "1": [[["1"]]]},
        "phi": {"0": [["1"]], "1": [["3"]]}}))
    code, out = run(capsys, "ss", "witness", "--input", str(ok),
                    "--xi", "3", "--alpha", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["verified"] is True
    bad = tmp_path / "impure.json"
    bad.write_text(json.dumps({
        "degrees": {"0": 1},
        "d": {},
        "filtration": {"0": [[["1"]]]},
        "phi": {"0": [["7"]]}}))
    code, out = run(capsys, "ss", "witness", "--input", str(bad),
                    "--xi", "3", "--alpha", "1")
    assert code == 1
    # the purity check names the violating spot and its factor
    purity = ("ss", "purity", "--input", str(bad), "--xi", "3", "--alpha", "1", "--page", "0")
    code, out = run(capsys, *purity)
    assert code == 1
    assert out.splitlines()[-1] == \
        "  violation at (0, 0): eigenvalue outside xi^0: factor t - 7"
    code, out = run(capsys, *purity, "--format", "json")
    assert code == 1
    assert json.loads(out)["violation"] == {
        "bidegree": [0, 0], "factor": "t - 7",
        "message": "eigenvalue outside xi^0: factor t - 7"}


def test_ss_page_far_past_the_stable_page(capsys, tmp_path):
    # pages past the top filtration level + 1 all equal the stable page
    cx = tmp_path / "torus.json"
    assert main(["even", "complex", "--group", "torus", "--points", "2", "--halfdim", "2",
                 "--max-degree", "6", "--xi", "2", "--format", "json",
                 "--output", str(cx)]) == 0
    top = specseq.complex_from_json(json.loads(cx.read_text())).top_level
    code, stable = run(capsys, "ss", "page", "--input", str(cx), "--page", str(top + 1),
                       "--format", "json")
    assert code == 0
    code, far = run(capsys, "ss", "page", "--input", str(cx), "--page", "1000000",
                    "--format", "json")
    assert code == 0
    stable, far = json.loads(stable), json.loads(far)
    assert far.pop("page") == 1000000 and stable.pop("page") == top + 1
    assert far == stable and far["dims"]
    assert main(["ss", "page", "--input", str(cx), "--page", "-1"]) == 2
    assert capsys.readouterr().err == "error: page index must be non-negative\n"


def test_ss_canonical(capsys, tmp_path):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({
        "degrees": {"0": 1, "1": 2, "2": 1},
        "d": {"0": [["1"], ["0"]], "1": [["0", "2"]]},
        "phi": {"0": [["3"]], "1": [["3", "0"], ["0", "9"]], "2": [["9"]]}}))
    want = {"d": {"0": [["1"], ["0"]], "1": [["0", "2"]]},
            "degrees": {"0": 1, "1": 2, "2": 1},
            "filtration": {"0": [[], [["1"]], [["1"]]],
                           "1": [[], [["1", "0"]], [["1", "0"], ["0", "1"]]],
                           "2": [[], [], [["1"]]]},
            "phi": {"0": [["3"]], "1": [["3", "0"], ["0", "9"]], "2": [["9"]]}}
    # the command has no text rendering: both formats print the JSON
    for fmt in ("text", "json"):
        assert run(capsys, "ss", "canonical", "--input", str(path), "--format", fmt) == \
            (0, json.dumps(want, indent=2, sort_keys=True) + "\n")
    # an acyclic pair: tau_0 is ker d = 0 in degree 0
    path.write_text(json.dumps({"degrees": {"0": 1, "1": 1}, "d": {"0": [["1"]]}}))
    code, out = run(capsys, "ss", "canonical", "--input", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["filtration"]["0"] == [[], [["1"]]]
    for d in ({"0": [["x"]]}, [["1"]]):
        path.write_text(json.dumps({"degrees": {"0": 1, "1": 1}, "d": d}))
        assert main(["ss", "canonical", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    # a d of the wrong shape is named as such, before any product is taken
    for dims, d in (({"0": 1, "1": 1}, [["1", "0"]]), ({"0": 1, "1": 2}, [["1"]])):
        path.write_text(json.dumps({"degrees": dims, "d": {"0": d}}))
        assert main(["ss", "canonical", "--input", str(path)]) == 2
        assert capsys.readouterr().err == \
            "error: malformed complex: differential shape mismatch at degree 0\n"


NOT_A_DIMENSION = "dimension at degree 0 must be a non-negative integer"
MALFORMED_JSON = [
    ({"degrees": {"0": 1.9}}, NOT_A_DIMENSION),
    ({"degrees": {"0": True}}, NOT_A_DIMENSION),
    ({"degrees": {"0": -1}}, NOT_A_DIMENSION),
    ({"degrees": {"0": "1"}}, NOT_A_DIMENSION),
    ({"degrees": {"0": 1}, "d": {"0": [["5"]]}}, "differential shape mismatch at degree 0"),
    ({"degrees": {"0": 0, "1": 1}, "d": {"0": [["5"]]}},
     "differential shape mismatch at degree 0"),
    ({"degrees": {"0": 0, "1": 1}, "d": {"0": [[], []]}},
     "differential shape mismatch at degree 0"),
    ({"degrees": {"0": 1}, "d": {"3": [["1"]]}}, "differential shape mismatch at degree 3"),
    ({"degrees": {"0": 1}, "phi": {"5": [["7"]]}}, "automorphism shape mismatch at degree 5"),
    ({"degrees": {"0": 0}, "phi": {"0": [["7"]]}}, "automorphism shape mismatch at degree 0"),
    ({"degrees": {"100000000": 1}}, f"degree 100000000 exceeds the bound {DEGREE_BOUND}"),
    ({"degrees": {str(DEGREE_BOUND + 1): 1}},
     f"degree {DEGREE_BOUND + 1} exceeds the bound {DEGREE_BOUND}"),
    ({"degrees": {"-1": 1, "0": 1}, "phi": {"-1": [["3"]], "0": [["9"]]}},
     "degrees must be non-negative"),
]


@pytest.mark.parametrize("data,message", MALFORMED_JSON)
def test_malformed_complex_json_exits_2(data, message, capsys, tmp_path):
    # each complex as it stands for `ss canonical`, and with a one-level
    # filtration per degree for the commands that read a filtered complex
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(data))
    assert main(["ss", "canonical", "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: malformed complex: {message}\n")
    path.write_text(json.dumps({**data, "filtration": {n: [[["1"]]] for n in data["degrees"]}}))
    weights = ["--xi", "3", "--alpha", "1"]
    for command in (["decalage"], ["page", "--page", "1"], ["purity", *weights, "--page", "0"],
                    ["witness", *weights]):
        assert main(["ss", *command, "--input", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: malformed filtered complex: {message}\n")


def test_complex_json_at_the_bounds_is_read(capsys, tmp_path):
    # the top degree, and d blocks with no entries from a degree of
    # dimension 0: none, or one empty row per target dimension
    path = tmp_path / "complex.json"
    for data in ({"degrees": {str(DEGREE_BOUND): 1}},
                 {"degrees": {"0": 0, "1": 1}, "d": {"0": []}},
                 {"degrees": {"0": 0, "1": 1}, "d": {"0": [[]]}}):
        path.write_text(json.dumps(data))
        assert run(capsys, "ss", "canonical", "--input", str(path))[0] == 0


def test_verify_suite_exit_and_determinism(capsys):
    code, out1 = run(capsys, "verify", "--suite", "arnold", "--seed", "7",
                     "--format", "json")
    assert code == 0
    code, out2 = run(capsys, "verify", "--suite", "arnold", "--seed", "7",
                     "--format", "json")
    assert out1 == out2
    assert json.loads(out1)["passed"] is True


def test_input_errors_exit_2(capsys, tmp_path):
    def exit_code(*argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        return code

    assert exit_code("conf", "normal-form", "--points", "3", "--dim", "3",
                     "--word", "1 9") == 2
    assert exit_code("conf", "normal-form", "--points", "3", "--dim", "3",
                     "--word", "1 x") == 2
    # a coefficient past the interpreter's 4300-digit limit for printing
    huge = ("conf", "normal-form", "--points", "3", "--dim", "3", "--word", "1 2",
            "--coeff", "1e5000")
    assert exit_code(*huge) == 2
    main(list(huge))
    assert "4300 digits" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert exit_code("ss", "page", "--input", str(missing), "--page", "1") == 2
    not_json = tmp_path / "not.json"
    not_json.write_text("{degrees")
    assert exit_code("ss", "page", "--input", str(not_json), "--page", "1") == 2
    # a command with no DOT rendering
    assert exit_code("conf", "poincare", "--points", "3", "--dim", "3", "--format", "dot") == 2
    # an operand file with a negative point count
    negative = confring.generator(3, 3, 1, 2).to_json()
    negative["points"] = -1
    operand = tmp_path / "negative.json"
    operand.write_text(json.dumps(negative))
    assert exit_code("conf", "product", "--lhs", str(operand), "--rhs", str(operand)) == 2
    # an unwritable --output: a missing directory, or a directory
    for target in (tmp_path / "no-such-dir" / "x", tmp_path):
        argv = ("conf", "poincare", "--points", "3", "--dim", "3", "--output", str(target))
        assert exit_code(*argv) == 2
        main(list(argv))
        assert f"cannot write {target}" in capsys.readouterr().err
    # capacity errors, refused before any model is built: a degree past
    # MODEL_BOUND monomials (e_5(1..8) = 67284 configuration columns in degree
    # 15 at 9 points; about 2e25 torus monomials in degree 64 at halfdim 64)
    for argv in (("even", "kernel", "--points", "9", "--halfdim", "2", "--max-degree", "15"),
                 ("even", "complex", "--group", "torus", "--points", "9",
                  "--halfdim", "2", "--max-degree", "30"),
                 ("even", "complex", "--group", "torus", "--points", "2",
                  "--halfdim", "64", "--max-degree", "64"),
                 ("even", "hilbert", "--group", "so", "--points", "9", "--halfdim", "2",
                  "--max-degree", "12"),
                 ("even", "verify-page", "--group", "o", "--points", "9", "--halfdim", "2",
                  "--max-degree", "12")):
        assert exit_code(*argv) == 2
        main(list(argv))
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f"more than the bound {MODEL_BOUND}\n")
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(confring.generator(3, 3, 1, 2).to_json()))
    assert exit_code("conf", "act", "--perm", "a,1,3", "--input", str(conf)) == 2
    for kind, elem in (("conf", confring.generator(3, 3, 1, 2)),
                       ("equi", equiodd.generator(3, 1, 1, 2))):
        data = elem.to_json()
        data["terms"][0]["edges"] = [[1]]
        path = tmp_path / f"{kind}-arity.json"
        path.write_text(json.dumps(data))
        assert exit_code(kind, "act", "--perm", "1,2,3", "--input", str(path)) == 2
    # point counts past POINT_BOUND: a DOT rendering writes one line per point
    big = equiodd.generator(3, 1, 1, 2).to_json()
    big["points"] = 1000000
    path = tmp_path / "many-points.json"
    path.write_text(json.dumps(big))
    for argv in (("render", "--input", str(path)),
                 ("equi", "normal-form", "--points", str(POINT_BOUND + 1), "--halfdim", "1",
                  "--word", "1 2")):
        assert exit_code(*argv) == 2
        main(list(argv))
        assert f"bound {POINT_BOUND}" in capsys.readouterr().err
    # and what the CLI writes at the bound reads back
    assert exit_code("equi", "normal-form", "--points", str(POINT_BOUND), "--halfdim", "1",
                     "--word", "1 2", "--format", "json", "--output", str(path)) == 0
    assert exit_code("render", "--input", str(path)) == 0
    # a --halfdim past HALFDIM_BOUND: monomial enumeration takes a pass per generator
    for argv in (("equi", "hilbert", "--points", "3", "--halfdim", "2000", "--max-degree", "2"),
                 ("equi", "basis", "--points", "3", "--halfdim", "5000", "--degree", "2"),
                 ("even", "complex", "--group", "torus", "--points", "2", "--halfdim", "2000",
                  "--max-degree", "2"),
                 ("even", "kernel", "--points", "2", "--halfdim", str(HALFDIM_BOUND + 1),
                  "--max-degree", "2")):
        assert exit_code(*argv) == 2
        main(list(argv))
        assert f"bound {HALFDIM_BOUND}" in capsys.readouterr().err
    assert exit_code("equi", "hilbert", "--points", "3", "--halfdim", str(HALFDIM_BOUND),
                     "--max-degree", "6") == 0
    # and the lower bounds: a negative --max-degree, a --halfdim below 1
    for argv in (("even", "kernel", "--points", "3", "--halfdim", "1", "--max-degree", "-1"),
                 ("even", "hilbert", "--group", "so", "--points", "3", "--halfdim", "1",
                  "--max-degree", "-1"),
                 ("even", "verify-page", "--group", "o", "--points", "3", "--halfdim", "1",
                  "--max-degree", "-1"),
                 ("equi", "hilbert", "--points", "3", "--halfdim", "1", "--max-degree", "-1")):
        assert exit_code(*argv) == 2
        main(list(argv))
        assert "max degree -1 is negative" in capsys.readouterr().err
    for argv in (("even", "kernel", "--points", "3", "--halfdim", "0", "--max-degree", "4"),
                 ("even", "verify-page", "--group", "o", "--points", "0", "--halfdim", "-1",
                  "--max-degree", "4"),
                 ("even", "complex", "--group", "torus", "--points", "2", "--halfdim", "0",
                  "--max-degree", "2"),
                 ("equi", "basis", "--points", "3", "--halfdim", "0", "--degree", "2"),
                 ("equi", "normal-form", "--points", "3", "--halfdim", "0", "--word", "1 2")):
        assert exit_code(*argv) == 2
        main(list(argv))
        assert "is below 1" in capsys.readouterr().err
    assert exit_code("even", "kernel", "--points", "3", "--halfdim", "1",
                     "--max-degree", "0") == 0
    # a negative --points, refused with one message whatever the command
    for argv in (("even", "kernel", "--points", "-1", "--halfdim", "2", "--max-degree", "4"),
                 ("even", "hilbert", "--group", "so", "--points", "-2", "--halfdim", "2",
                  "--max-degree", "4"),
                 ("conf", "poincare", "--points", "-1", "--dim", "3"),
                 ("conf", "basis", "--points", "-1", "--dim", "3", "--degree", "0"),
                 ("equi", "hilbert", "--points", "-1", "--halfdim", "1", "--max-degree", "2")):
        assert exit_code(*argv) == 2
        main(list(argv))
        points = argv[argv.index("--points") + 1]
        assert capsys.readouterr().err == f"error: point count {points} is negative\n"
    assert exit_code("conf", "poincare", "--points", "0", "--dim", "3") == 0
    # `conf basis` reads its size off the closed form before it enumerates
    # (11! monomials here), and `conf poincare` prints the closed form
    too_many = ("conf", "basis", "--points", "12", "--dim", "3", "--degree", "22")
    assert exit_code(*too_many) == 2
    main(list(too_many))
    assert f"bound {BASIS_BOUND}" in capsys.readouterr().err
    assert exit_code("conf", "basis", "--points", "7", "--dim", "3", "--degree", "12") == 0
    # so do `equi basis` and `equi hilbert`, by the Leray-Hirsch series
    # (8.2e18 monomials in the degree 40 basis here)
    for argv in (("equi", "basis", "--points", "3", "--halfdim", "64", "--degree", "40"),
                 ("equi", "hilbert", "--points", "3", "--halfdim", "64", "--max-degree", "30"),
                 ("equi", "hilbert", "--points", "3", "--halfdim", "64", "--max-degree", "9")):
        assert exit_code(*argv) == 2
        main(list(argv))
        assert f"bound {BASIS_BOUND}" in capsys.readouterr().err
    assert exit_code("equi", "basis", "--points", "3", "--halfdim", "64", "--degree", "4") == 0
    # no q-monomial has an odd degree at halfdim 1, so no edge word is enumerated
    empty = ("equi", "basis", "--points", "18", "--halfdim", "1", "--degree", "9")
    assert exit_code(*empty) == 0
    main(list(empty))
    assert capsys.readouterr().out == "(empty)\n"
    # a --max-degree or --degree past DEGREE_BOUND: the model commands walk
    # every degree up to it, however small each one is
    for argv in (("equi", "hilbert", "--points", "3", "--halfdim", "1", "--max-degree", "100000"),
                 ("even", "hilbert", "--group", "so", "--points", "2", "--halfdim", "1",
                  "--max-degree", "100000"),
                 ("even", "complex", "--group", "torus", "--points", "2", "--halfdim", "1",
                  "--max-degree", "100000"),
                 ("equi", "basis", "--points", "3", "--halfdim", "1",
                  "--degree", str(DEGREE_BOUND + 1))):
        assert exit_code(*argv) == 2
        main(list(argv))
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"bound {DEGREE_BOUND}" in err
    assert exit_code("equi", "hilbert", "--points", "3", "--halfdim", "1",
                     "--max-degree", str(DEGREE_BOUND)) == 0
    assert exit_code("conf", "poincare", "--points", str(POINT_BOUND), "--dim", "3") == 0
    assert exit_code("conf", "poincare", "--points", "3", "--dim", "1") == 2
    # a 1x1 phi on a 2-dimensional degree is a shape error, not a rank defect
    cx = tmp_path / "phi-shape.json"
    cx.write_text(json.dumps({"degrees": {"0": 2}, "filtration": {"0": [[["1", "0"], ["0", "1"]]]},
                              "phi": {"0": [["2"]]}}))
    assert exit_code("ss", "page", "--input", str(cx), "--page", "1") == 2
    with pytest.raises(InputError, match="shape"):
        specseq.complex_from_json(json.loads(cx.read_text()))
    # crashes the fuzz test below found: a non-object map, an empty filtration
    for data in ({"degrees": "x"}, {"degrees": {"0": 1}, "filtration": {"0": []}}):
        cx.write_text(json.dumps(data))
        assert exit_code("ss", "decalage", "--input", str(cx)) == 2


WRONG_VALUES = (None, True, 1.5, -1, 0, 7, "x", "1/0", "", [], {}, [1], {"a": 1})
BAD_WORDS = ("1 x", "1", "1 2 3", "0 1", "9 1", "", ",", "a-b", "1 2, x", "1 1")
BAD_PERMS = ("a,1,3", "1,1,3", "", "0,1,2", "3,2", "1.5,2,3", "-1,2,3", "4,2,1")


def corrupt(rng, data):
    """A copy of JSON data with one node dropped, retyped or resized."""
    data = copy.deepcopy(data)
    slots = []

    def walk(node):
        keys = list(node) if isinstance(node, dict) else \
            range(len(node)) if isinstance(node, list) else ()
        for key in keys:
            slots.append((node, key))
            walk(node[key])

    walk(data)
    node, key = rng.choice(slots)
    value = node[key]
    action = rng.randrange(4)
    if action == 0 and isinstance(node, dict):
        del node[key]
    elif action == 1 and isinstance(value, list) and value:
        node[key] = value[:-1] if rng.random() < 0.5 else value + value[:1]
    elif action == 2 and isinstance(value, (int, str)) and not isinstance(value, bool):
        # out-of-range index or non-numeric string, never a larger size
        node[key] = rng.choice((-1, 0, 7)) if isinstance(value, int) else "abc"
    else:
        node[key] = rng.choice(WRONG_VALUES)
    return data


def test_cli_fuzz_exits_0_or_2(capsys, tmp_path):
    """Seeded corruptions of every input kind exit 0 or 2 and never raise."""
    rng = random.Random(20260)
    conf = [confring.normal_form(3, 3, [(1, 3), (2, 3)], "2/3").to_json(),
            (confring.generator(4, 2, 1, 2) + confring.generator(4, 2, 3, 4)).to_json()]
    equi = [(equiodd.generator(3, 1, 1, 2) * equiodd.generator(3, 1, 2, 3)).to_json(),
            equiodd.unit(2, 2).scale_poly(equiodd.qring(2).monomial((1, 1))).to_json()]
    cx = [equieven.as_filtered_complex("torus", 3, 1, 2, xi=2).to_json(),
          equieven.as_filtered_complex("torus", 2, 1, 3).to_json()]

    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    cases = []
    for t in range(25):
        cases.append(["conf", "normal-form", "--points", "3", "--dim", "3",
                      "--word", rng.choice(BAD_WORDS), "--coeff", rng.choice(("1", "x", "1/0"))])
        a = write(f"c{t}.json", corrupt(rng, rng.choice(conf)))
        cases.append(["conf", "product", "--lhs", a, "--rhs", write(f"cc{t}.json", rng.choice(conf))])
        cases.append(["conf", "act", "--perm", rng.choice(BAD_PERMS + ("2,1,3",)), "--input", a])
        e = write(f"e{t}.json", corrupt(rng, rng.choice(equi)))
        cases.append(["equi", "product", "--lhs", write(f"ee{t}.json", rng.choice(equi)), "--rhs", e])
        cases.append(["equi", "act", "--perm", rng.choice(BAD_PERMS + ("2,1,3",)), "--input", e])
        cases.append(["equi", "restrict", "--input", e])
        cases.append(["render", "--input", e, "--format", rng.choice(("text", "dot", "json"))])
        x = write(f"x{t}.json", corrupt(rng, rng.choice(cx)))
        cases.append(["ss", "page", "--input", x, "--page", str(rng.randrange(3))])
        cases.append(["ss", "decalage", "--input", x])
    codes = set()
    for argv in cases:
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 2), argv
        codes.add(code)
    assert codes == {0, 2}


def test_unknown_flags_exit_2(capsys):
    assert main(["conf", "poincare", "--points", "3", "--dim", "3",
                 "--bogus"]) == 2
    capsys.readouterr()


def test_json_outputs_reparse_structurally(capsys, tmp_path):
    # every elementary JSON emitter round-trips through its parser
    code, out = run(capsys, "equi", "basis", "--points", "3", "--halfdim", "1",
                    "--degree", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 6
    for item in payload["basis"]:
        elem = equiodd.EquiElement.from_json(item)
        assert elem.to_json() == item
