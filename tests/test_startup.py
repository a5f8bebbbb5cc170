"""What a command loads at start-up.

Every command runs in a fresh interpreter, so the modules it imports are
paid for on every invocation.  The check runs in a child process because
pytest itself imports ``inspect`` and ``ast``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# dataclasses and the modules it pulls in (about 1 MB of peak RSS per run).
UNWANTED = ("dataclasses", "inspect", "ast", "dis", "tokenize")

CHILD = """
import io, sys
import bpcentre.cli_report
sys.stdout = io.StringIO()
code = bpcentre.cli_report.main(
    ["eta-table", "--max-weight", "2", "--format", "json", "--cache", sys.argv[1]])
sys.stdout = sys.__stdout__
print(code, *[name for name in sys.argv[2:] if name in sys.modules])
"""


def test_a_command_does_not_load_dataclasses(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "cache"), *UNWANTED],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.split() == ["0"], done.stdout


# Each command loads only the modules it runs: eta-table neither the verify
# and lattice modules nor the csv writer, and no command loads fractions (no
# command builds a Fraction) or the decimal module that fractions pulls in.
# Where CPython has its built-in SHA-256, no command loads hashlib, whose
# _hashlib loads OpenSSL's libcrypto (about 3.7 MB of peak RSS per run).
OPENSSL = ("hashlib", "_hashlib") if importlib.util.find_spec("_sha256") else ()
NOT_LOADED = [
    (["eta-table", "--max-weight", "4"],
     ("fractions", "decimal", "numbers", "csv", "bpcentre.op_calculus",
      "bpcentre.truncation_centre", "bpcentre.ktheory_lattice", *OPENSSL)),
    (["verify", "all", "--max-weight", "4", "--N", "2", "--heights", "1,2"],
     ("fractions", "decimal", "csv", *OPENSSL)),
    (["lattices", "--max-weight", "4", "--N", "2", "--heights", "1,2"],
     ("fractions", "decimal", "csv", *OPENSSL)),
]

COMMAND_CHILD = """
import io, json, sys
import bpcentre.cli_report
sys.stdout = io.StringIO()
code = bpcentre.cli_report.main(json.loads(sys.argv[1]))
sys.stdout = sys.__stdout__
print(code, *[name for name in sys.argv[2:] if name in sys.modules])
"""


@pytest.mark.parametrize("argv, unwanted", NOT_LOADED, ids=[argv[0] for argv, _ in NOT_LOADED])
def test_a_command_loads_only_what_it_runs(argv, unwanted, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [*argv, "--format", "json", "--cache", str(tmp_path / "cache")]
    done = subprocess.run(
        [sys.executable, "-c", COMMAND_CHILD, json.dumps(argv), *unwanted],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.split() == ["0"], done.stdout


# The markdown report walks the same items as the csv one, but writes no csv.
@pytest.mark.parametrize("argv", [argv for argv, _ in NOT_LOADED[1:]],
                         ids=[argv[0] for argv, _ in NOT_LOADED[1:]])
def test_a_markdown_report_does_not_load_csv(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [*argv, "--format", "markdown", "--cache", str(tmp_path / "cache")]
    done = subprocess.run(
        [sys.executable, "-c", COMMAND_CHILD, json.dumps(argv), "csv"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.split() == ["0"], done.stdout


# Without the built-in module, bp_hopf takes hashlib's SHA-256: the same digest.
FALLBACK_CHILD = """
import hashlib, sys
sys.modules["_sha256"] = None
from bpcentre import bp_hopf
table = bp_hopf.EtaRTable(3, 8)
print(bp_hopf.sha256 is hashlib.sha256, table.fingerprint(),
      hashlib.sha256(table.to_bytes()).hexdigest())
"""


def test_without_the_built_in_module_the_fingerprint_comes_from_hashlib():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", FALLBACK_CHILD],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    from_hashlib, fingerprint, digest = done.stdout.split()
    assert from_hashlib == "True" and fingerprint == digest, done.stdout
    from bpcentre.bp_hopf import EtaRTable
    assert fingerprint == EtaRTable(3, 8).fingerprint()


# python -m bpcentre runs main and exits with its code: 0 on success, 1 on a
# failed check, 2 on a usage error.
ENTRY_POINT_RUNS = [
    (["eta-table", "--max-weight", "2", "--format", "json"], 0),
    (["lattices", "--p", "3", "--max-weight", "2", "--N", "2", "--caps", "0,0"], 1),
    (["eta-table", "--p", "4"], 2),
]


@pytest.mark.parametrize("argv, code", ENTRY_POINT_RUNS, ids=["pass", "fail", "usage"])
def test_the_module_entry_point_returns_mains_exit_code(argv, code, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "bpcentre", *argv, "--cache", str(tmp_path / "cache")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == code, done.stdout + done.stderr
