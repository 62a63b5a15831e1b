"""The README command-line examples, run in-process through `cli.main`.

The README's `even complex` / `ss` commands take about 2.5 s together, too
long to repeat in every timed pass; the `pages` workload therefore times the
same four commands on a smaller complex (`small.json`, `max_degree` 6), and
every README command runs once per run as an untimed golden check.

Their inputs are made deterministically: `golden.json` by the README's own
`even complex` command, `pure.json` from the literal complex below and
`element.json` from the graph calculus. Stdout, the exit code and every file
a command writes are compared byte for byte with `golden/readme.json`.

    python3 bench/readme_cmds.py --write   # regenerate the golden file

Regenerate only when a change is meant to alter the README outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "readme.json"

# argv of every README example; file names are resolved in the work directory
COMMANDS = (
    "conf poincare --points 3 --dim 3",
    "conf normal-form --points 3 --dim 3 --word 1_3,_2_3",
    "equi hilbert --points 2 --halfdim 1 --group so --max-degree 8",
    "equi normal-form --points 3 --halfdim 1 --word 1_3,_2_3 --format dot",
    "even kernel --points 3 --halfdim 2 --max-degree 9",
    "even verify-page --group u --points 2 --halfdim 2 --max-degree 12",
    "even complex --group torus --points 2 --halfdim 2 --max-degree 16 "
    "--xi 2 --format json --output golden.json",
    "ss page --input golden.json --page 4",
    "ss decalage --input golden.json --format json --output dec.json",
    "ss purity --input golden.json --xi 2 --alpha 1/3 --page 3",
    "ss witness --input pure.json --xi 3 --alpha 1",
    "verify --suite arnold --seed 7",
    "render --input element.json",
    # not in the README: its `even complex` / `ss` commands on a smaller complex
    "even complex --group torus --points 2 --halfdim 2 --max-degree 6 "
    "--xi 2 --format json --output small.json",
    "ss page --input small.json --page 3",
    "ss decalage --input small.json --format json --output small-dec.json",
    "ss purity --input small.json --xi 2 --alpha 1/3 --page 3",
)
README_COMMANDS = range(13)
# the `pages` workload times these; the README ones run only as golden checks
PAGES_COMMANDS = (13, 14, 15, 16)
# the commands that write the inputs of the others
INPUT_COMMANDS = (6, 13)
FILE_FLAGS = ("--input", "--output")

# a complex with phi whose cohomology is pure of weight n (xi = 3, alpha = 1)
PURE_COMPLEX = {
    "degrees": {"0": 3, "1": 3, "2": 2},
    "d": {"0": [["29", "0", "-12"], ["0", "1", "0"], ["-12", "0", "5"]],
          "1": [["0", "0", "0"], ["0", "0", "0"]]},
    "filtration": {
        "0": [[], [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
              [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
        "1": [[], [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
              [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
        "2": [[], [], [["1", "0"], ["0", "1"]]]},
    "phi": {"0": [["1/2", "0", "0"], ["0", "9", "0"], ["-5", "0", "3"]],
            "1": [["-119/2", "0", "-150"], ["0", "9", "0"], ["25", "0", "63"]],
            "2": [["9", "0"], ["0", "9"]]},
}


def argv_of(index, workdir):
    """The argv of one README command with its files inside `workdir`."""
    argv = [a.replace("_", " ") for a in COMMANDS[index].split()]
    return [os.path.join(workdir, a) if i and argv[i - 1] in FILE_FLAGS else a
            for i, a in enumerate(argv)]


def written_files(index):
    argv = COMMANDS[index].split()
    return [argv[i + 1] for i, a in enumerate(argv) if a == "--output"]


def run(cli, index, workdir):
    """Run one command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv_of(index, workdir))
    return code, out.getvalue(), err.getvalue()


def write_inputs(modules, workdir):
    """Make pure.json, element.json, golden.json and small.json in `workdir`."""
    equiodd = modules["equiodd"]
    element = equiodd.generator(3, 1, 1, 2) * equiodd.generator(3, 1, 1, 3)
    for name, data in (("pure.json", PURE_COMPLEX),
                       ("element.json", element.to_json())):
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
    for index in INPUT_COMMANDS:
        code, _, err = run(modules["cli"], index, workdir)
        if code != 0:
            raise RuntimeError(f"cannot run {COMMANDS[index]!r}: {err.strip()}")


def record(index, code, stdout, workdir):
    """What the golden file stores for one run of a command."""
    files = {}
    for name in written_files(index):
        with open(os.path.join(workdir, name), encoding="utf-8") as fh:
            files[name] = fh.read()
    return {"command": COMMANDS[index], "exit": code, "stdout": stdout,
            "files": files}


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["commands"]


def mismatch(golden, got):
    """None when `got` equals the golden record byte for byte, else why not."""
    if got["command"] != golden["command"]:
        return f"command {got['command']!r} is not {golden['command']!r}"
    for key in ("exit", "stdout"):
        if got[key] != golden[key]:
            return f"{golden['command']}: {key} differs from the golden output"
    for name, text in golden["files"].items():
        if got["files"].get(name) != text:
            return f"{golden['command']}: {name} differs from the golden file"
    return None


def main(argv):
    import tempfile

    if argv != ["--write"]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE.parent / "src"))
    from equiconf import cli, equiodd

    modules = {"cli": cli, "equiodd": equiodd}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        write_inputs(modules, workdir)
        records = [record(i, *run(cli, i, workdir)[:2], workdir)
                   for i in range(len(COMMANDS))]
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"commands": records}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} command outputs to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
