"""Every function in ``src/bpcentre`` is called by a command, or is listed here.

A fresh interpreter installs a profiler before ``import bpcentre``, runs
``eta-table``, ``verify all`` and ``lattices`` at p=3 W=8 N=4 heights 1,2 in
every format, and reports the functions of the package whose code never ran.
Those must be exactly the allow-list below, each with its reason, so a
helper that nothing calls fails the suite, and so does an allow-list entry
that a command has started to call.  Each oracle must also be used by some
other test, or it checks nothing.
"""

import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ORACLE = "a test oracle: the tests check the computed objects against it"
TRACED = "a name that bench/tracing.py wraps"

NEVER_CALLED = {
    "bp_hopf.GradedPoly.__setattr__": "the immutability guard",
    "bp_hopf.EtaRTable.to_payload": ORACLE,
    "bp_hopf.EtaRTable.to_bytes": ORACLE,
    "bp_hopf.EtaRTable.fingerprint": TRACED,
    "bp_hopf._coefficient_error": "an error path: a right-unit value that is not integral",
    "bp_hopf.mono_sort_key": ORACLE,
    "dvr_arith.commutant": ORACLE,
    "dvr_arith.mat_mul": ORACLE,
    "dvr_arith.reduce_mod_p_power": ORACLE,
    "dvr_arith.scalar_value": ORACLE,
    "monomial_order.compare": ORACLE,
    "op_calculus.action_matrix": ORACLE,
    "op_calculus.adams_matrix": ORACLE,
    "op_calculus.elementary_realize": TRACED,
    "op_calculus.functional_matrix": ORACLE,
    "truncation_centre.centre_commutant": ORACLE,
    "truncation_centre.projected_elementary": TRACED,
    "truncation_centre.iota_hat_n_window": ORACLE,
}

SCAN = r"""
import contextlib, io, json, os, sys, types

ran = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        ran.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(profile)
import bpcentre
from bpcentre.cli_report import main

for command in (["eta-table"], ["verify", "all"], ["lattices"]):
    for fmt in ("json", "csv", "markdown"):
        argv = [*command, "--p", "3", "--max-weight", "8", "--N", "4", "--heights", "1,2",
                "--format", fmt, "--cache", sys.argv[1]]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
sys.setprofile(None)

def functions(code, prefix):
    # Named code objects nested in code (defs and class bodies), qualified.
    for c in code.co_consts:
        if isinstance(c, types.CodeType) and not c.co_name.startswith("<"):
            yield prefix + c.co_name, c
            yield from functions(c, prefix + c.co_name + ".")

never = []
package = os.path.dirname(bpcentre.__file__)
for name in sorted(os.listdir(package)):
    if name.endswith(".py"):
        path = os.path.join(package, name)
        with open(path) as fh:
            module = compile(fh.read(), path, "exec")
        for qualname, c in functions(module, name[:-3] + "."):
            if (path, c.co_firstlineno, c.co_name) not in ran:
                never.append(qualname)
print(json.dumps(never))
"""


def test_only_listed_functions_are_never_called(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("BPCENTRE_CACHE", None)
    done = subprocess.run([sys.executable, "-c", SCAN, str(tmp_path / "cache")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    never = set(json.loads(done.stdout))
    assert sorted(never - NEVER_CALLED.keys()) == [], "never called and not listed"
    assert sorted(NEVER_CALLED.keys() - never) == [], "listed, but a command calls it"
    assert all(NEVER_CALLED.values())


def test_traced_entries_are_traced():
    from test_exports import load_tracing

    traced = {f"{module}.{path}" for module, paths in load_tracing().TRACED.items()
              for path in paths}
    assert {name for name, why in NEVER_CALLED.items() if why == TRACED} <= traced


def test_every_oracle_is_used_by_a_test():
    here = Path(__file__)
    names = set()
    for path in here.parent.glob("*.py"):
        if path != here:
            with path.open("rb") as fh:
                names |= {tok.string for tok in tokenize.tokenize(fh.readline)
                          if tok.type == tokenize.NAME}
    unused = [name for name, why in NEVER_CALLED.items()
              if why == ORACLE and name.rsplit(".", 1)[-1] not in names]
    assert unused == [], "an oracle that no test compares against"
