"""The benchmark's tracer sees the layers that ``verify all`` runs.

``cli_report`` imports the verify and lattice modules inside the functions
that call them.  ``bench/tracing.py`` wraps a function where it is defined,
and such an import reads that binding at call time, so a traced run still
counts these calls; this test fails if a layer's metrics go blind.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_exports import TRACING, load_tracing

SRC = Path(__file__).resolve().parents[1] / "src"

LAYERS = ("op_calculus.mu_matrix", "truncation_centre.block_split", "ktheory_lattice.sg_window")


def test_traced_verify_all_counts_every_layer(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("BPCENTRE_CACHE", None)
    spans = tmp_path / "spans.json"
    argv = ["verify", "all", "--p", "3", "--max-weight", "4", "--N", "2",
            "--heights", "1,2", "--format", "json", "--cache", "cache"]
    done = subprocess.run([sys.executable, str(TRACING), str(spans), *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    dump = json.loads(spans.read_text())
    stats = load_tracing().span_stats(dump["names"], dump["spans"])
    assert [name for name in LAYERS if stats.get(name, {}).get("calls", 0) == 0] == []
