"""Every README command, run through `cli.main`, against the golden outputs.

The commands, their inputs and the golden file belong to the benchmark
(`bench/readme_cmds.py`, `bench/golden/readme.json`); this test only reads
them, so byte-identical stdout and written files are checked on every test
run, not only by the benchmark.
"""

import sys
from pathlib import Path

import pytest

from equiconf import cli, equiodd

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import readme_cmds  # noqa: E402

GOLDEN = readme_cmds.load_golden()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("readme")
    readme_cmds.write_inputs({"cli": cli, "equiodd": equiodd}, str(path))
    return str(path)


@pytest.mark.parametrize("index", range(len(readme_cmds.COMMANDS)),
                         ids=lambda i: f"{i}-" + "-".join(readme_cmds.COMMANDS[i].split()[:2]))
def test_readme_command_matches_golden(index, workdir):
    code, stdout, _ = readme_cmds.run(cli, index, workdir)
    got = readme_cmds.record(index, code, stdout, workdir)
    assert readme_cmds.mismatch(GOLDEN[index], got) is None
