"""Golden artifacts: the exact bytes every subcommand prints and writes.

Each run below goes through cli.main in one temporary working directory,
with relative paths, so stdout and manifest.json hold no machine-specific
path.  golden_artifacts.json pins the exit code and the sha256 of stdout
and of every file in the run's --out directory.  Only wall times are
masked: solve's `c wall_time=` line and validation.csv's two time columns.

The module needs only the standard library, so any interpreter can check
the pinned bytes without pytest.  Regenerate only on purpose, and say so:

    PYTHONPATH=src python3 tests/test_golden_artifacts.py --check
    PYTHONPATH=src python3 tests/test_golden_artifacts.py --regenerate
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from satgp import cli

GOLDEN_FILE = Path(__file__).with_name("golden_artifacts.json")

# `gen` writes the bundled instance (harness.BUNDLED_3SAT) and its sibling.
BUNDLED = "gen/rand3sat_v50_c215_s7.cnf"
SIBLING = "gen/rand3sat_v50_c215_s8.cnf"
FORMULAS = {
    "sat.cnf": "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n",
    "presat.cnf": "p cnf 3 2\n1 0\n-1 2 0\n",
    "preunsat.cnf": "p cnf 1 2\n1 0\n-1 0\n",
}

# Run name -> argv without --out; each run writes into a directory named
# after it, and later runs read what earlier ones wrote.
RUNS = {
    "gen": ["gen", "--vars", "50", "--clauses", "215", "--seed", "7", "--count", "2"],
    "solve-sat": ["solve", "sat.cnf", "--model"],
    "solve-unsat": ["solve", BUNDLED, "--model"],
    "solve-presat": ["solve", "presat.cnf", "--model"],
    "solve-preunsat": ["solve", "preunsat.cnf", "--model"],
    "histogram": ["histogram", BUNDLED, "--samples", "50"],
    "evolve": ["evolve", BUNDLED, SIBLING, "--pop", "20", "--gens", "2"],
    "evolve-resumed": ["evolve", BUNDLED, SIBLING, "--pop", "20", "--gens", "4",
                       "--resume", "evolve/checkpoint.txt"],
    "reorder": ["reorder", BUNDLED],
    "validate": ["validate", "preset:add_lc", BUNDLED, SIBLING],
}


def _mask(name: str, text: str) -> str:
    if name == "stdout":
        return re.sub(r"(?m)^c wall_time=.*$", "c wall_time=*", text)
    if name == "validation.csv":  # comment line, header, then rows
        lines = text.split("\n")
        rows = [re.sub(r",[^,]*,[^,]*$", ",*,*", line) for line in lines[2:]]
        return "\n".join(lines[:2] + rows)
    return text


def _digest(name: str, text: str) -> str:
    return hashlib.sha256(_mask(name, text).encode()).hexdigest()


def artifact_digests() -> dict:
    """Run every entry of RUNS in order; run name -> {"exit": code,
    "stdout": sha256, file name: sha256 for each file it wrote}."""
    digests = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in FORMULAS.items():
                Path(name).write_text(text)
            for run, argv in RUNS.items():
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main([*argv, "--out", run])
                entry = {"exit": code, "stdout": _digest("stdout", out.getvalue())}
                for path in sorted(Path(run).iterdir()):
                    entry[path.name] = _digest(path.name, path.read_bytes().decode())
                digests[run] = entry
        finally:
            os.chdir(cwd)
    return digests


def test_golden_artifacts():
    assert artifact_digests() == json.loads(GOLDEN_FILE.read_text())


if __name__ == "__main__":
    if sys.argv[1:] == ["--regenerate"]:
        GOLDEN_FILE.write_text(json.dumps(artifact_digests(), indent=1) + "\n")
    elif sys.argv[1:] == ["--check"]:
        expected = json.loads(GOLDEN_FILE.read_text())
        got = artifact_digests()
        differ = [run for run in {**expected, **got} if got.get(run) != expected.get(run)]
        print(f"Python {sys.version.split()[0]}: artifacts of {len(expected)} runs,",
              f"differ: {', '.join(differ)}" if differ else "all match")
        sys.exit(1 if differ else 0)
    else:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_golden_artifacts.py"
                 " --check | --regenerate")
