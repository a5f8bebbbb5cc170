"""Report bytes and exit codes are pinned for thirteen configurations: verify
all, lattices and eta-table in every format, the deeper p=3 lattices run (the
benchmark's lattices-deep) in every format, the stress lattices run (window
N=13, entries past 500 bits), the centre suite at p=3, 5 and 7 in json, the
benchmark's verify-warm and eta-table configurations in every format, a
congruence run whose caps stop the Adams span short, so that its report holds
FAIL items and the run exits 1, and a congruence run whose S_g does not
stabilize within its caps, so that its one check FAILs and the run exits 1,
both in every format.

Each file under ``tests/data`` is the standard output of one command run in
an empty directory with ``--cache cache``, so its cache section reads
``status: written`` and the relative cache path; a second run in the same
directory must print the same bytes with ``hit`` for ``written``.  To
regenerate one, run for example::

    python -m bpcentre verify all --p 3 --max-weight 8 --N 4 --heights 1,2,3 \\
        --format json --cache cache > tests/data/verify_p3_w8.json

in an empty directory, with ``src`` on the Python path.
"""

from pathlib import Path

import pytest

from bpcentre.cli_report import main

DATA = Path(__file__).resolve().parent / "data"

CONFIGS = {
    "verify_p3_w8": ["verify", "all", "--p", "3", "--max-weight", "8", "--N", "4",
                     "--heights", "1,2,3"],
    "lattices_p5_w8": ["lattices", "--p", "5", "--max-weight", "8", "--N", "4",
                       "--heights", "1,2"],
    # The lattices-deep benchmark configuration.
    "lattices_p3_w13": ["lattices", "--p", "3", "--max-weight", "13", "--N", "9",
                        "--heights", "1,2"],
    # The stress window: Adams and kernel entries grow past 500 bits.
    "lattices_p3_w16_n13": ["lattices", "--p", "3", "--max-weight", "16", "--N", "13",
                            "--heights", "1,2"],
    "eta_p5_w14": ["eta-table", "--p", "5", "--max-weight", "14"],
    # W=13 is the first weight with v_3; at height 3 the whole basis is R.
    "centre_p3_w13": ["verify", "centre", "--p", "3", "--max-weight", "13",
                      "--heights", "1,2,3"],
    # R blocks up to size 7 at p=5, and the centre at p=7.
    "centre_p5_w31": ["verify", "centre", "--p", "5", "--max-weight", "31",
                      "--heights", "1,2,3"],
    "centre_p7_w20": ["verify", "centre", "--p", "7", "--max-weight", "20",
                      "--heights", "1,2"],
    # The benchmark's verify-warm and eta-table configurations.
    "verify_p3_w16": ["verify", "all", "--p", "3", "--max-weight", "16", "--N", "5",
                      "--heights", "1,2,3"],
    "eta_p3_w20": ["eta-table", "--p", "3", "--max-weight", "20"],
    "eta_p5_w31": ["eta-table", "--p", "5", "--max-weight", "31"],
    # S_g misses the windows of k=3 and k=6: membership and closure FAIL,
    # while stabilization and both heights' inclusions PASS.
    "congruence_p3_w13_fail": ["verify", "congruence", "--p", "3", "--max-weight", "13",
                               "--N", "5", "--heights", "1,2", "--caps", "13,0"],
    # The Adams span does not stabilize: sg-stabilization FAILs with the
    # StabilizationError text, and no later congruence check runs.
    "congruence_p3_w8_unstable": ["verify", "congruence", "--p", "3", "--max-weight", "8",
                                  "--N", "4", "--heights", "1", "--caps", "1,0",
                                  "--margin", "10"],
}
# The exit code of each configuration: 1 when its report shows a FAIL, else 0.
EXIT_CODES = {name: 0 for name in CONFIGS} | {"congruence_p3_w13_fail": 1,
                                              "congruence_p3_w8_unstable": 1}
FORMATS = {"json": "json", "csv": "csv", "markdown": "md"}
CASES = [(name, fmt) for name in ("verify_p3_w8", "lattices_p5_w8", "eta_p5_w14",
                                  "verify_p3_w16", "lattices_p3_w13", "eta_p3_w20",
                                  "eta_p5_w31", "congruence_p3_w13_fail",
                                  "congruence_p3_w8_unstable")
         for fmt in FORMATS]
CASES += [(name, "json") for name in ("lattices_p3_w16_n13", "centre_p3_w13",
                                      "centre_p5_w31", "centre_p7_w20")]


# How each format prints the cache status, as written by a cold run.
WRITTEN = {"json": b'"status": "written"', "csv": b"cache,status,,,written",
           "markdown": b"- status: written"}


@pytest.mark.parametrize("name,fmt", CASES)
def test_report_bytes_match_golden(name, fmt, tmp_path, monkeypatch, capsys):
    """Cold, the report is the golden file; run again in the same directory,
    it is the golden file with the cache status ``hit`` for ``written``.
    Both runs exit with the configuration's code."""
    monkeypatch.chdir(tmp_path)
    golden = (DATA / f"{name}.{FORMATS[fmt]}").read_bytes()
    assert golden.count(WRITTEN[fmt]) == 1
    warm = golden.replace(WRITTEN[fmt], WRITTEN[fmt].replace(b"written", b"hit"))
    for expected in (golden, warm):
        code = main(CONFIGS[name] + ["--format", fmt, "--cache", "cache"])
        out = capsys.readouterr().out
        assert code == EXIT_CODES[name]
        assert out.encode("utf-8") == expected
