"""Report bytes are pinned for five configurations: verify all, lattices
and eta-table in every format, the deeper p=3 lattices run in json and
markdown, and the centre suite in json.

Each file under ``tests/data`` is the standard output of one command run in
an empty directory with ``--cache cache``, so its cache section reads
``status: written`` and the relative cache path.  To regenerate one, run
for example::

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
    "eta_p5_w14": ["eta-table", "--p", "5", "--max-weight", "14"],
    # W=13 is the first weight with v_3; at height 3 the whole basis is R.
    "centre_p3_w13": ["verify", "centre", "--p", "3", "--max-weight", "13",
                      "--heights", "1,2,3"],
}
FORMATS = {"json": "json", "csv": "csv", "markdown": "md"}
CASES = [(name, fmt) for name in ("verify_p3_w8", "lattices_p5_w8", "eta_p5_w14")
         for fmt in FORMATS]
CASES += [("lattices_p3_w13", "json"), ("lattices_p3_w13", "markdown"),
          ("centre_p3_w13", "json")]


@pytest.mark.parametrize("name,fmt", CASES)
def test_report_bytes_match_golden(name, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(CONFIGS[name] + ["--format", fmt, "--cache", "cache"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (DATA / f"{name}.{FORMATS[fmt]}").read_bytes()
