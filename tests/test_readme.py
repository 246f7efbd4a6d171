"""The README's CLI block, with its sweep spec, and its library example run as written."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import trpca

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, lang=r"\w*"):
    """The first fenced block after ``heading``."""
    return re.search(rf"```{lang}\n(.*?)```", README.split(heading, 1)[1], re.S).group(1)


def _strict(line):
    """``line`` as JSON under RFC 8259, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON: {line}")
    return json.loads(line, parse_constant=reject)


def _run(argv, cwd):
    # the package the tests import, also from a working directory elsewhere
    src = str(Path(trpca.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_the_readme_cli_block_runs(tmp_path):
    # four trpca commands, run as python -m trpca; each exits 0, and every
    # line of stdout and of the report is strict JSON
    (tmp_path / "sweep.txt").write_text(_block("### Sweep spec format"))
    commands = [shlex.split(c, comments=True)
                for c in _block("## CLI").replace("\\\n", " ").splitlines()]
    commands = [c for c in commands if c]
    assert len(commands) == 4 and all(c[0] == "trpca" for c in commands), commands
    for argv in commands:
        run = _run(["-m", "trpca", *argv[1:]], tmp_path)
        assert run.returncode == 0, (shlex.join(argv), run.stderr)
        for line in run.stdout.splitlines():
            _strict(line)
    for line in (tmp_path / "run.jsonl").read_text().splitlines():
        _strict(line)


def test_the_readme_library_example_recovers_the_truth(tmp_path):
    run = _run(["-c", _block("## Library usage", "python")], tmp_path)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout.split()[-1]) <= 1e-10, run.stdout
