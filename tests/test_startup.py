"""What a command loads at start-up.

Every command runs in a fresh interpreter, so the modules it imports are
paid for on every invocation.  The check runs in a child process because
pytest itself imports ``inspect`` and ``ast``.
"""

import os
import subprocess
import sys
from pathlib import Path

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
