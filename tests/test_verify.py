"""The verify suites and the seeded random complex generators.

The generator golden pins every complex the three generators draw for seeds
0-4, so a change to how they consume the random stream shows up here. The
suite golden pins the JSON report of every suite at seeds 0 and 7. Regenerate
both (only when the generators or the suites are meant to change) with
`PYTHONPATH=src python tests/test_verify.py --write`.
"""

import json
import random
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from equiconf import confring, verify
from equiconf.errors import InputError
from equiconf.exactalg import Matrix


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_every_suite_passes(name):
    report = verify.run_suite(name, seed=0)
    assert report.passed, report.to_text()


def test_suite_reports_are_deterministic():
    a = verify.run_suite("decalage", seed=3)
    b = verify.run_suite("decalage", seed=3)
    assert json.dumps(a.to_json(), sort_keys=True) == \
        json.dumps(b.to_json(), sort_keys=True)


def test_unknown_suite_is_an_input_error():
    with pytest.raises(InputError):
        verify.run_suite("nope")


def test_report_text_contains_one_line_per_check():
    report = verify.run_suite("arnold", seed=1)
    lines = report.to_text().splitlines()
    assert len(lines) == len(report.checks) + 1
    assert all(line.strip().startswith(("PASS", "FAIL")) for line in lines[1:])


def test_a_failing_check_reports_its_first_case(monkeypatch):
    # two wrong dimensions, each one past the top degree, where only the
    # oracle comparison reads them
    real, wrong = confring.dimension, [(2, 2, 2), (3, 4, 7)]
    monkeypatch.setattr(confring, "dimension",
                        lambda k, n, d: real(k, n, d) + ((k, n, d) in wrong))
    report = verify.run_suite("arnold", seed=0)
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["dimensions match the ideal-span oracle, k <= 4"]
    assert failed[0].details == {"k": 2, "n": 2, "degree": 2, "engine": 1, "oracle": 0}


def test_random_generators_are_reproducible():
    a = verify.random_filtered_complex(random.Random(5))
    b = verify.random_filtered_complex(random.Random(5))
    assert a.spaces == b.spaces
    for n in a.degrees():
        assert a.diff(n) == b.diff(n)


GOLDEN = Path(__file__).resolve().parent / "golden" / "random_complexes.json"


def generated():
    """{name: JSON of the complex} for seeds 0-4, each from a fresh stream."""
    out = {}
    for seed in range(5):
        for strict in (False, True):
            A = verify.random_filtered_complex(random.Random(seed), strict=strict)
            out[f"filtered seed={seed} strict={strict}"] = A.to_json()
        for alpha in (Q(1), Q(1, 2)):
            for impure in (False, True):
                A, h_dims, spoiled = verify.random_pure_complex(
                    random.Random(seed), Q(3), alpha, impure=impure)
                out[f"pure seed={seed} alpha={alpha} impure={impure}"] = {
                    "complex": A.to_json(),
                    "h_dims": {str(n): h for n, h in sorted(h_dims.items())},
                    "spoiled": None if spoiled is None else list(spoiled)}
        for r in (1, 2):
            A = verify.random_staircase_complex(random.Random(seed), Q(3), Q(1), r)
            out[f"staircase seed={seed} r={r}"] = A.to_json()
    return out


def test_random_generators_match_golden():
    assert generated() == json.loads(GOLDEN.read_text(encoding="utf-8"))


SUITES_GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_suites.json"


def suite_reports():
    """{"name seed=s": JSON report} of every suite at seeds 0 and 7."""
    return {f"{name} seed={seed}": verify.run_suite(name, seed=seed).to_json()
            for name in verify.SUITE_NAMES for seed in (0, 7)}


def test_suite_reports_match_golden():
    assert suite_reports() == json.loads(SUITES_GOLDEN.read_text(encoding="utf-8"))


def test_hom_vanishing_distinct_weights():
    xi = Q(4)
    hom, ext = verify.equivariant_hom_dims(Matrix([[xi]]), Matrix([[xi * xi]]))
    assert (hom, ext) == (0, 0)


def test_hom_same_weight_nonzero():
    xi = Q(4)
    hom, ext = verify.equivariant_hom_dims(Matrix([[xi]]), Matrix([[xi]]))
    assert (hom, ext) == (1, 1)


def write(path, data):
    path.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                        for k, v in data.items())
                    + "\n}\n", encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    write(GOLDEN, generated())
    write(SUITES_GOLDEN, suite_reports())
