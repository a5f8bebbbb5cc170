import dataclasses
import json
import os
import re

import pytest

from bpcentre.cli_report import (
    ConfigError,
    RunConfig,
    main,
    render_report,
)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def base_args(tmp_path, extra=()):
    return list(extra) + ["--cache", str(tmp_path / "cache")]


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(p=2)
    with pytest.raises(ConfigError):
        RunConfig(p=9)
    with pytest.raises(ConfigError):
        RunConfig(max_weight=0)
    with pytest.raises(ConfigError):
        RunConfig(N=9, max_weight=8)
    with pytest.raises(ConfigError):
        RunConfig(heights=())
    with pytest.raises(ConfigError):
        RunConfig(format="yaml")
    with pytest.raises(ConfigError):
        RunConfig(heights=(1, 2, 1))


def test_eta_table_build_and_cache_hit(tmp_path, capsys):
    argv = ["eta-table", "--p", "3", "--max-weight", "6",
            "--cache", str(tmp_path / "cache")]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert "status: written" in out
    assert "eta_R(v_1) = v_1 + 3*t_1" in out
    cache_file = tmp_path / "cache" / "etaR_p3_hazewinkel_w6.json"
    assert cache_file.exists()
    first_bytes = cache_file.read_bytes()

    code, out2 = run_cli(capsys, argv)
    assert code == 0
    assert "status: hit" in out2
    assert cache_file.read_bytes() == first_bytes
    # identical apart from the hit/written line
    assert out.replace("status: written", "status: hit") == out2


def test_each_command_serializes_the_table_once(tmp_path, capsys, monkeypatch):
    from bpcentre.bp_hopf import EtaRTable

    real = EtaRTable._pieces
    calls = []

    def counted(self):
        calls.append((self.p, self.max_weight))
        return real(self)

    monkeypatch.setattr(EtaRTable, "_pieces", counted)
    flags = ["--p", "3", "--max-weight", "5", "--N", "2", "--cache", str(tmp_path / "cache")]
    for command in (["eta-table"], ["eta-table"], ["verify", "all"], ["lattices"]):
        calls.clear()
        assert run_cli(capsys, command + flags)[0] == 0
        assert calls == [(3, 5)], command


def test_even_prime_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eta-table", "--p", "2", "--cache", str(tmp_path / "cache")])
    assert exc.value.code == 2


def test_bad_caps_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lattices", "--caps", "oops", "--cache", str(tmp_path / "cache")])
    assert exc.value.code == 2


@pytest.mark.parametrize("option, value, message", [
    ("--heights", "x", "argument --heights: expected comma-separated integers, got 'x'"),
    ("--caps", "oops", "argument --caps: expected comma-separated integers, got 'oops'"),
    ("--caps", "1,2,3", "caps must be two non-negative integers M,S, got [1, 2, 3]"),
    ("--caps", "1", "caps must be two non-negative integers M,S, got [1]"),
])
def test_bad_list_option_is_usage_error_naming_it(option, value, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lattices", option, value, "--cache", str(tmp_path / "cache")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "invalid" not in err


def test_json_config_keys_are_the_run_config_fields(tmp_path, capsys):
    code, out = run_cli(capsys, ["verify", "triangular", "--max-weight", "2",
                                 "--format", "json", "--cache", str(tmp_path / "cache")])
    assert code == 0
    assert list(json.loads(out)["config"]) == [f.name for f in dataclasses.fields(RunConfig)]


def test_verify_suite_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nope"])
    assert exc.value.code == 2
    choices = re.search(r"choose from (.*)\)", capsys.readouterr().err).group(1)
    assert choices.replace("'", "").split(", ") == [
        "etaR", "triangular", "realize", "centre", "congruence", "all"]


def test_verify_triangular(tmp_path, capsys):
    argv = ["verify", "triangular", "--p", "3", "--max-weight", "6",
            "--cache", str(tmp_path / "cache")]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert "| PASS |" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("i, j", [(0, 0), (0, 1)], ids=["diagonal", "above the diagonal"])
def test_top_term_and_triangular_fail_on_a_perturbed_mu(i, j, monkeypatch):
    from bpcentre import cli_report
    from bpcentre.bp_hopf import EtaRTable

    table = EtaRTable(3, 4).populate()
    real = cli_report.mu_matrix

    def perturbed(r, table):
        basis, mu = real(r, table)
        if r != 4:
            return basis, mu
        rows = [list(row) for row in mu]
        rows[i][j] += 1
        return basis, tuple(map(tuple, rows))

    monkeypatch.setattr(cli_report, "mu_matrix", perturbed)
    config = RunConfig(max_weight=4, heights=(1,))
    checks = {c["id"]: c for suite in (cli_report.suite_etaR, cli_report.suite_triangular)
              for c in suite(config, table)}
    for r in range(5):
        for family in ("top-term", "triangular"):
            assert (checks[f"{family}/w={r}"]["status"] == "FAIL") == (r == 4), (family, r)
    assert "; mu[" in checks["triangular/w=4"]["witness"]


def test_verify_centre_json(tmp_path, capsys):
    argv = ["verify", "centre", "--p", "3", "--max-weight", "5",
            "--heights", "1,2", "--format", "json",
            "--cache", str(tmp_path / "cache")]
    code, out = run_cli(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert report["config"]["p"] == 3
    assert report["cache"]["status"] == "written"
    names = [s["name"] for s in report["suites"]]
    assert names == ["centre"]
    for check in report["suites"][0]["checks"]:
        assert check["status"] == "PASS"


def test_verify_all_small(tmp_path, capsys):
    argv = ["verify", "all", "--p", "3", "--max-weight", "4", "--N", "2",
            "--heights", "1", "--format", "json",
            "--cache", str(tmp_path / "cache")]
    code, out = run_cli(capsys, argv)
    assert code == 0
    report = json.loads(out)
    names = [s["name"] for s in report["suites"]]
    assert names == ["etaR", "triangular", "realize", "centre", "congruence"]
    for suite in report["suites"]:
        for check in suite["checks"]:
            assert check["status"] == "PASS", (suite["name"], check)


def test_lattices_report(tmp_path, capsys):
    argv = ["lattices", "--p", "3", "--max-weight", "5", "--N", "3",
            "--heights", "1,2", "--format", "json",
            "--cache", str(tmp_path / "cache")]
    code, out = run_cli(capsys, argv)
    assert code == 0
    report = json.loads(out)
    lat = report["lattices"]
    assert lat["inclusion"] is True
    assert lat["sg"] == [0, 0, 1, 2]
    assert lat["diagonal"]["1"] == [0, 0, 1, 2]
    assert lat["gap"]["1"] == 0


def test_lattices_n0(tmp_path, capsys):
    argv = ["lattices", "--p", "3", "--max-weight", "1", "--N", "0",
            "--heights", "1", "--format", "json",
            "--cache", str(tmp_path / "cache")]
    code, out = run_cli(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert report["lattices"]["sg"] == [0]
    assert report["lattices"]["diagonal"]["1"] == [0]


def test_lattices_stabilization_failure(tmp_path, capsys):
    argv = ["lattices", "--p", "3", "--max-weight", "6", "--N", "6",
            "--heights", "1", "--caps", "1,0", "--margin", "10",
            "--cache", str(tmp_path / "cache")]
    code, out = run_cli(capsys, argv)
    assert code == 1
    assert "FAIL stabilization" in out


def test_reports_are_deterministic(tmp_path, capsys):
    warm = ["eta-table", "--p", "3", "--max-weight", "5",
            "--cache", str(tmp_path / "cache")]
    assert run_cli(capsys, warm)[0] == 0
    for fmt in ("json", "csv", "markdown"):
        argv = ["verify", "triangular", "--p", "3", "--max-weight", "5",
                "--format", fmt, "--cache", str(tmp_path / "cache")]
        code1, out1 = run_cli(capsys, argv)
        code2, out2 = run_cli(capsys, argv)
        assert (code1, out1) == (code2, out2)


def test_csv_format(tmp_path, capsys):
    argv = ["verify", "triangular", "--p", "3", "--max-weight", "4",
            "--format", "csv", "--cache", str(tmp_path / "cache")]
    code, out = run_cli(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "section,name,id,status,witness"
    assert any(line.startswith("suite,triangular,") for line in lines)


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BPCENTRE_CACHE", str(tmp_path / "envcache"))
    code, out = run_cli(capsys, ["eta-table", "--p", "3", "--max-weight", "3"])
    assert code == 0
    assert (tmp_path / "envcache" / "etaR_p3_hazewinkel_w3.json").exists()


def test_corrupt_cache_fails_closed(tmp_path, capsys):
    from bpcentre.bp_hopf import EtaRTable

    zero_denominator = EtaRTable(3, 3).populate().to_payload()
    zero_denominator["entries"][1]["terms"][0]["coefficient_denominator"] = "0"
    cache_dir = tmp_path / "cache"
    os.makedirs(cache_dir)
    path = cache_dir / "etaR_p3_hazewinkel_w3.json"
    documents = [(json.dumps({"prime": 3}), "the header"),
                 (json.dumps(zero_denominator), "the header"),
                 (json.dumps(zero_denominator, indent=2) + "\n", "entry v^(1,)")]
    for document, part in documents:
        path.write_text(document)
        for command in (["eta-table"], ["verify", "all"], ["lattices"]):
            code, out = run_cli(capsys, command + ["--p", "3", "--max-weight", "3",
                                                   "--cache", str(cache_dir)])
            assert code == 1
            assert out.startswith(f"FAIL cache: cache {path}: {part} differs")


def _tamper(payload, how):
    """The p=3 W=4 cache document with one defect, and the part that differs
    from the canonical document."""
    v1_squared = next(e for e in payload["entries"] if e["v_exponents"] == [2])
    v1_fourth = next(e for e in payload["entries"] if e["v_exponents"] == [4])
    v1_t1 = next(t for t in v1_squared["terms"] if t["v_exponents"] == [1])
    v2 = next(e for e in payload["entries"] if e["v_exponents"] == [0, 1])
    # Defects of the t-free part, which is v^gamma in every genuine entry.
    if how == "empty terms":
        v2["terms"] = []
        return "entry v^(0, 1)"
    if how == "extra t-free term":
        v2["terms"].append({"v_exponents": [4], "t_exponents": [],
                            "coefficient_numerator": "1", "coefficient_denominator": "1"})
        return "entry v^(0, 1)"
    if how == "t-free coefficient":
        v2_t0 = next(t for t in v2["terms"] if t["v_exponents"] == [0, 1] and not t["t_exponents"])
        v2_t0["coefficient_numerator"] = "2"
        return "entry v^(0, 1)"
    if how == "convention":
        payload["convention"] = "araki"
        return "the header"
    if how in ("numerator number", "denominator number"):
        # int() would read the numerator -4.5 as -4, and the denominator 1.5 as 1
        number = -4.5 if how == "numerator number" else 1.5
        v1_t1["coefficient_" + how.split()[0]] = number
        return "entry v^(2,)"
    if how == "entry":  # a second, different v^(2,) after the last entry
        twin = json.loads(json.dumps(v1_squared))
        next(t for t in twin["terms"] if t["v_exponents"] == [1])["coefficient_numerator"] = "9"
        payload["entries"].append(twin)
        return "the end of the document"
    if how == "zero":
        v1_fourth["terms"].append({"v_exponents": [0, 1], "t_exponents": [],
                                   "coefficient_numerator": "0",
                                   "coefficient_denominator": "1"})
        return "entry v^(4,)"
    if how == "weight":
        v1_squared["terms"].append({"v_exponents": [3], "t_exponents": [],
                                    "coefficient_numerator": "1",
                                    "coefficient_denominator": "1"})
        return "entry v^(2,)"
    if how == "every weight":
        for term in v1_squared["terms"]:  # times v_1: homogeneous, but of weight 3
            term["v_exponents"] = [sum(term["v_exponents"]) + 1]
        return "entry v^(2,)"
    twin = dict(v1_t1, coefficient_numerator="9")
    if how == "normalised term":
        twin["v_exponents"] = [1, 0]
    v1_squared["terms"].append(twin)
    return "entry v^(2,)"


def _assert_document_fails(payload, part, tmp_path, capsys, **options):
    """Written as the writer lays it out, the document fails every command
    with exit 1, naming the cache path and the part that differs."""
    document = (json.dumps(payload, indent=2) + "\n").encode()
    _assert_cache_bytes_fail(document, part, tmp_path, capsys, **options)


def _assert_cache_bytes_fail(document, part, tmp_path, capsys, max_weight=4,
                             window=("--N", "2", "--heights", "1"),
                             lattice_window=("--N", "2", "--heights", "1")):
    """A cache file holding these bytes fails every command with exit 1,
    naming the cache path and the part that differs."""
    cache_dir = tmp_path / "cache"
    os.makedirs(cache_dir)
    path = cache_dir / f"etaR_p3_hazewinkel_w{max_weight}.json"
    path.write_bytes(document)
    flags = ["--p", "3", "--max-weight", str(max_weight), "--cache", str(cache_dir)]
    for command in (["eta-table"], ["verify", "all", *window], ["lattices", *lattice_window]):
        code, out = run_cli(capsys, command + flags)
        assert code == 1, (command, out)
        assert out == (f"FAIL cache: cache {path}: {part} differs from the table "
                       f"built for p=3, max_weight={max_weight}\n")


@pytest.mark.parametrize("how", ["entry", "term", "normalised term", "zero", "convention",
                                 "weight", "every weight", "empty terms",
                                 "extra t-free term", "t-free coefficient",
                                 "numerator number", "denominator number"])
def test_tampered_cache_documents_fail_closed(how, tmp_path, capsys):
    from bpcentre.bp_hopf import EtaRTable

    payload = EtaRTable(3, 4).populate().to_payload()
    part = _tamper(payload, how)
    _assert_document_fails(payload, part, tmp_path, capsys)


@pytest.mark.parametrize("edit,part", [
    (lambda doc: doc + b"\n", "the end of the document"),
    (lambda doc: doc + doc[-7:], "the end of the document"),
    (lambda doc: doc[:-1], "the end of the document"),
    (lambda doc: b"", "the header"),
    (lambda doc: doc[:-1] + b" ", "the end of the document"),
    (lambda doc: b" " + doc[1:], "the header"),
], ids=["newline appended", "end appended", "one byte short", "empty", "last byte",
        "first byte"])
def test_cache_bytes_off_the_canonical_document_fail_closed(edit, part, tmp_path, capsys):
    from bpcentre.bp_hopf import EtaRTable

    _assert_cache_bytes_fail(edit(EtaRTable(3, 4).to_bytes()), part, tmp_path, capsys)


@pytest.mark.parametrize("where", ["entry", "term"])
@pytest.mark.parametrize("one", [True, 1.0])
def test_non_integer_exponents_fail_closed(where, one, tmp_path, capsys):
    # true and 1.0 compare and hash equal to 1, but are not the bytes of 1.
    from bpcentre.bp_hopf import EtaRTable

    payload = EtaRTable(3, 4).populate().to_payload()
    v1_squared = next(e for e in payload["entries"] if e["v_exponents"] == [2])
    if where == "entry":
        v1_squared["v_exponents"] = [one]
    else:
        next(t for t in v1_squared["terms"] if t["v_exponents"] == [1])["v_exponents"] = [one]
    _assert_document_fails(payload, "entry v^(2,)", tmp_path, capsys)


@pytest.mark.parametrize("denominator", ["2", "-1", "5", "3"])
def test_cache_coefficient_over_anything_but_one_fails_closed(denominator, tmp_path, capsys):
    # -4/2 = -2 is an integer, but not the written -4; 3 would be non-integral.
    from bpcentre.bp_hopf import EtaRTable

    payload = EtaRTable(3, 4).populate().to_payload()
    v2 = next(e for e in payload["entries"] if e["v_exponents"] == [0, 1])
    v1_cubed_t1 = next(t for t in v2["terms"] if t["v_exponents"] == [3])
    assert v1_cubed_t1["coefficient_numerator"] == "-4"
    v1_cubed_t1["coefficient_denominator"] = denominator
    _assert_document_fails(payload, "entry v^(0, 1)", tmp_path, capsys)


def test_tampered_t_coefficient_fails_closed(tmp_path, capsys):
    """A changed coefficient of a term with t: v_1^3 t_1 in eta_R(v_2) read
    -1 instead of -4.  Before the cache was compared with a fresh build,
    every term check held and all three commands exited 0."""
    from bpcentre.bp_hopf import EtaRTable

    payload = EtaRTable(3, 13).populate().to_payload()
    v2 = next(e for e in payload["entries"] if e["v_exponents"] == [0, 1])
    v1_cubed_t1 = next(t for t in v2["terms"]
                       if (t["v_exponents"], t["t_exponents"]) == ([3], [1]))
    assert v1_cubed_t1["coefficient_numerator"] == "-4"
    v1_cubed_t1["coefficient_numerator"] = "-1"
    _assert_document_fails(payload, "entry v^(0, 1)", tmp_path, capsys, max_weight=13,
                           window=("--N", "5", "--heights", "1,2,3"),
                           lattice_window=("--N", "5", "--heights", "1,2"))


def test_non_canonical_cache_document_fails_closed(tmp_path, capsys):
    # The same table in compact JSON: no writer produces it, so it is no hit.
    import hashlib

    from bpcentre.bp_hopf import EtaRTable

    cache_dir = tmp_path / "cache"
    os.makedirs(cache_dir)
    path = cache_dir / "etaR_p3_hazewinkel_w6.json"
    path.write_text(json.dumps(EtaRTable(3, 6).to_payload()))
    canonical = EtaRTable(3, 6).fingerprint()
    assert hashlib.sha256(path.read_bytes()).hexdigest() != canonical
    with pytest.raises(ValueError, match=re.escape(f"cache {path}: the header differs")):
        EtaRTable(3, 6).load(path)
    argv = ["eta-table", "--p", "3", "--max-weight", "6", "--format", "json",
            "--cache", str(cache_dir)]
    code, out = run_cli(capsys, argv)
    assert code == 1
    assert out.startswith(f"FAIL cache: cache {path}: the header differs")


def test_run_config_window_defaults():
    assert RunConfig(max_weight=3).N == 3
    assert RunConfig(max_weight=13).N == 5
    assert RunConfig(max_weight=13, N=0).N == 0
    assert RunConfig(max_weight=3).caps == (11, 3)


def test_render_report_covers_lattices():
    report = {
        "config": {"p": 3},
        "suites": [{"name": "demo", "checks": [
            {"id": "x", "status": "PASS", "witness": "w"}]}],
        "lattices": {
            "sg": [0], "diagonal": {"1": [0]}, "inclusion": True,
            "gap": {"1": 0}, "stabilization": {"q": 2},
        },
    }
    md = render_report(report, "markdown")
    assert "inclusion S_g in diagonal: PASS" in md
    csv_text = render_report(report, "csv")
    assert "lattice,S_g,divisors" in csv_text


@pytest.mark.parametrize("q", [1, 3, 10])
def test_non_generator_q_is_rejected(q, tmp_path, capsys):
    with pytest.raises(ConfigError):
        RunConfig(p=3, q=q)
    with pytest.raises(SystemExit) as exc:
        main(base_args(tmp_path, ["lattices", "--p", "3", "--max-weight", "5",
                                  "--N", "5", "--heights", "1", "--q", str(q)]))
    assert exc.value.code == 2


@pytest.mark.parametrize("q", [2, 5])
def test_generator_q_is_accepted(q):
    assert RunConfig(p=3, q=q).q == q


def test_large_p_resolves_q_without_stepping_through_powers():
    assert RunConfig(p=10007).q == 5


def test_lattices_report_phi_keys(tmp_path, capsys):
    argv = ["lattices", "--p", "3", "--max-weight", "5", "--N", "5",
            "--heights", "1,2", "--format", "json",
            "--cache", str(tmp_path / "cache")]
    code, out = run_cli(capsys, argv)
    assert code == 0
    lat = json.loads(out)["lattices"]
    assert lat["phi_inclusion"] is True
    assert lat["phi"]["1"] == [0, 1, 2, 4, 5, 5]
    assert lat["phi_gap"] == {"1": 8, "2": 8}
    assert lat["gap"] == {"1": 0, "2": 0}


@pytest.mark.parametrize("window,caps,missing", [("13", "21,1", "[9, 18]"),
                                                 ("5", "13,0", "[3, 6]")])
def test_caps_that_stop_the_adams_span_short_fail_closed(window, caps, missing,
                                                         tmp_path, capsys):
    # Both caps stabilize, but S_g misses the windows of p^(s_cap+1) and
    # p^(s_cap+1)*q.
    args = ["--p", "3", "--max-weight", "13", "--N", window, "--heights", "1",
            "--caps", caps, "--cache", str(tmp_path / "cache")]
    code, out = run_cli(capsys, ["lattices", *args])
    assert code == 1
    assert out.startswith(f"FAIL closure: the Adams windows of k={missing} lie outside S_g "
                          f"for window {window}")
    if window == "5":
        code, out = run_cli(capsys, ["verify", "congruence", *args, "--format", "json"])
        assert code == 1
        checks = {c["id"]: c for c in json.loads(out)["suites"][0]["checks"]}
        assert checks["sg-closure/N=5"]["status"] == "FAIL"
        assert f"k={missing}" in checks["sg-closure/N=5"]["witness"]
        assert checks["sg-stabilization/N=5"]["status"] == "PASS"


def inject_window_outside_sg(monkeypatch):
    """Add the top unit window, which S_g lacks from N = 2 on, to L_phi."""
    from bpcentre import ktheory_lattice, truncation_centre
    from bpcentre.dvr_arith import echelon_lattice

    real = truncation_centre.phi_window_lattice

    def injected(N, n, table):
        unit = (0,) * N + (1,)
        return echelon_lattice(table.p, real(N, n, table).basis + (unit,), N + 1)

    for module in (ktheory_lattice, truncation_centre):
        monkeypatch.setattr(module, "phi_window_lattice", injected)


def test_phi_inclusion_check_can_fail(tmp_path, capsys, monkeypatch):
    inject_window_outside_sg(monkeypatch)
    args = ["--p", "3", "--max-weight", "5", "--N", "3", "--heights", "1",
            "--format", "json", "--cache", str(tmp_path / "cache")]
    code, out = run_cli(capsys, ["verify", "congruence", *args])
    assert code == 1
    status = {c["id"]: c["status"] for c in json.loads(out)["suites"][0]["checks"]}
    assert status["congruence-phi-inclusion/n=1/N=3"] == "FAIL"
    assert status["congruence-inclusion/n=1/N=3"] == "PASS"

    code, out = run_cli(capsys, ["lattices", *args])
    assert code == 1
    lat = json.loads(out)["lattices"]
    assert lat["phi_inclusion"] is False
    assert lat["phi_gap"] == {"1": None}
    assert lat["inclusion"] is True
    assert lat["gap"]["1"] > 0  # the diagonal lattice L_phi + S_g is larger than S_g


def test_truncated_cache_names_its_path(tmp_path, capsys):
    argv = ["eta-table", "--p", "3", "--max-weight", "8",
            "--cache", str(tmp_path / "cache")]
    assert run_cli(capsys, argv)[0] == 0
    cache_file = tmp_path / "cache" / "etaR_p3_hazewinkel_w8.json"
    cache_file.write_bytes(cache_file.read_bytes()[:500])
    for command in (argv, ["verify", "triangular", *argv[1:]]):
        code, out = run_cli(capsys, command)
        assert code == 1
        assert out.startswith(f"FAIL cache: cache {cache_file}: entry v^(")


def test_report_fingerprint_is_sha256_of_cache_bytes(tmp_path, capsys):
    import hashlib

    from bpcentre.bp_hopf import EtaRTable

    argv = ["eta-table", "--p", "3", "--max-weight", "6", "--format", "json",
            "--cache", str(tmp_path / "cache")]
    cache_file = tmp_path / "cache" / "etaR_p3_hazewinkel_w6.json"
    written = json.loads(run_cli(capsys, argv)[1])["cache"]
    hit = json.loads(run_cli(capsys, argv)[1])["cache"]
    assert (written["status"], hit["status"]) == ("written", "hit")
    expected = hashlib.sha256(EtaRTable(3, 6).to_bytes()).hexdigest()
    assert written["fingerprint"] == hit["fingerprint"] == expected
    assert hashlib.sha256(cache_file.read_bytes()).hexdigest() == expected


def test_block_order_check_can_fail(tmp_path, capsys, monkeypatch):
    from bpcentre import truncation_centre

    real = truncation_centre.in_ideal
    monkeypatch.setattr(truncation_centre, "in_ideal", lambda a, n: not real(a, n))
    argv = ["verify", "centre", "--p", "3", "--max-weight", "5", "--heights", "1",
            "--format", "json", "--cache", str(tmp_path / "cache")]
    code, out = run_cli(capsys, argv)
    assert code == 1
    checks = {c["id"]: c for c in json.loads(out)["suites"][0]["checks"]}
    assert len(checks) == 2 * 6
    # Weight 4 at p=3 holds v_1^4 (R) before v_2 (J); swapped, J comes first.
    for check_id in ("block-order/n=1/w=4", "centre/n=1/w=4"):
        assert checks[check_id]["status"] == "FAIL"
        assert "block order violated in weight 4" in checks[check_id]["witness"]


def perturb_column_solves(monkeypatch):
    """Add 1 to the first coefficient of every column solve."""
    from bpcentre import op_calculus

    real = op_calculus.solve_column

    def perturbed(*args):
        mu_bar, coeffs = real(*args)
        first = next(iter(coeffs))
        return mu_bar, {**coeffs, first: coeffs[first] + 1}

    monkeypatch.setattr(op_calculus, "solve_column", perturbed)


def test_bad_realization_fails_centre(tmp_path, capsys, monkeypatch):
    # The CLI builds a fresh table, so no verified realization is memoized.
    perturb_column_solves(monkeypatch)
    argv = ["verify", "centre", "--p", "3", "--max-weight", "4", "--heights", "1,2",
            "--format", "json", "--cache", str(tmp_path / "cache")]
    code, out = run_cli(capsys, argv)
    assert code == 1
    checks = json.loads(out)["suites"][0]["checks"]
    assert len(checks) == 2 * 5 * 2
    for check in checks:
        expected = "PASS" if check["id"].startswith("block-order/") else "FAIL"
        assert check["status"] == expected, check
        if expected == "FAIL":
            assert "realized combination" in check["witness"]


def test_bad_realization_fails_realize(tmp_path, capsys, monkeypatch):
    perturb_column_solves(monkeypatch)
    argv = ["verify", "realize", "--p", "3", "--max-weight", "4",
            "--format", "json", "--cache", str(tmp_path / "cache")]
    code, out = run_cli(capsys, argv)
    assert code == 1
    checks = json.loads(out)["suites"][0]["checks"]
    assert [c["id"] for c in checks] == [f"realize/w={r}" for r in range(5)]
    for check in checks:
        assert check["status"] == "FAIL", check
        assert "realized combination for column" in check["witness"]


def test_bad_realization_fails_lattices(tmp_path, capsys, monkeypatch):
    # L_phi is solved through the verified realizations, so a wrong column
    # solve fails the lattice command and the congruence comparisons.
    perturb_column_solves(monkeypatch)
    args = ["--p", "3", "--max-weight", "5", "--N", "3", "--cache", str(tmp_path / "cache")]
    code, out = run_cli(capsys, ["lattices", *args])
    assert code == 1
    assert out.startswith("FAIL consistency: realized combination for column ")

    code, out = run_cli(capsys, ["verify", "congruence", *args, "--format", "json"])
    assert code == 1
    checks = json.loads(out)["suites"][0]["checks"]
    failed = [c for c in checks if c["status"] == "FAIL"]
    assert [c["id"] for c in failed] == [
        f"congruence-{kind}/n={n}/N=3" for n in (1, 2) for kind in ("inclusion", "phi-inclusion")]
    for check in failed:
        assert check["witness"].startswith("realized combination for column "), check


def test_column_solve_runs_once_per_monomial(tmp_path, capsys, monkeypatch):
    from bpcentre import op_calculus
    from bpcentre.monomial_order import enumerate_weight

    real = op_calculus.solve_column
    columns = []

    def counted(basis, mu, b, p):
        columns.append(basis[b])
        return real(basis, mu, b, p)

    monkeypatch.setattr(op_calculus, "solve_column", counted)
    argv = ["verify", "all", "--p", "3", "--max-weight", "8", "--N", "4",
            "--heights", "1,2,3", "--format", "json", "--cache", str(tmp_path / "cache")]
    assert run_cli(capsys, argv)[0] == 0
    expected = [beta for r in range(9) for beta in enumerate_weight(r, 3)]
    assert sorted(columns) == sorted(expected)
    assert len(columns) == len(set(columns)) == 15


def test_triangular_fact_is_scanned_once_per_monomial(tmp_path, capsys, monkeypatch):
    # The top-term check reads mu_matrix, which the triangular, realize and
    # centre suites share: one pure-t scan of each eta_R(v^gamma) in all.
    from bpcentre.bp_hopf import GradedPoly

    real = GradedPoly.pure_t_terms
    scanned = []

    def counted(poly):
        scanned.append(poly)
        return real(poly)

    monkeypatch.setattr(GradedPoly, "pure_t_terms", counted)
    argv = ["verify", "all", "--p", "3", "--max-weight", "8", "--N", "4",
            "--heights", "1,2", "--format", "json", "--cache", str(tmp_path / "cache")]
    assert run_cli(capsys, argv)[0] == 0
    assert len(scanned) == 15


def test_centre_commutant_gets_the_adjacent_elementaries(tmp_path, capsys, monkeypatch):
    from bpcentre import truncation_centre

    real = truncation_centre.commutant
    families = []

    def counted(mats, size, p):
        families.append((len(mats), size))
        return real(mats, size, p)

    monkeypatch.setattr(truncation_centre, "commutant", counted)
    argv = ["verify", "centre", "--p", "3", "--max-weight", "8", "--heights", "1,2,3",
            "--format", "json", "--cache", str(tmp_path / "cache")]
    assert run_cli(capsys, argv)[0] == 0
    assert len(families) == 9 * 3
    assert max(size for _, size in families) >= 3
    # E_(a, a+1) and E_(a+1, a) for a + 1 < |R|: 2(|R| - 1) matrices per weight.
    assert all(count == 2 * (size - 1) for count, size in families), families


def test_centre_commutant_gets_int_matrices(tmp_path, capsys, monkeypatch):
    # mu_bar is a p-power int and the elementaries pad with 0, so the
    # commutant systems are built on ints, and its basis comes back in ints.
    from bpcentre import truncation_centre

    real = truncation_centre.commutant
    entries = []

    def recorded(mats, size, p):
        basis = real(mats, size, p)
        entries.extend(x for m in [*mats, *basis] for row in m for x in row)
        return basis

    monkeypatch.setattr(truncation_centre, "commutant", recorded)
    argv = ["verify", "centre", "--p", "3", "--max-weight", "8",
            "--cache", str(tmp_path / "cache")]
    assert run_cli(capsys, argv)[0] == 0
    assert entries
    assert {type(x) for x in entries} == {int}


def test_block_split_runs_once_per_weight_and_height(tmp_path, capsys, monkeypatch):
    from bpcentre import cli_report, truncation_centre

    real = truncation_centre.block_split
    splits = []

    def counted(r, n, p):
        splits.append((r, n))
        return real(r, n, p)

    # suite_centre calls it through its own import of the name.
    for module in (truncation_centre, cli_report):
        monkeypatch.setattr(module, "block_split", counted)
    argv = ["verify", "centre", "--p", "3", "--max-weight", "8", "--heights", "1,2,3",
            "--format", "json", "--cache", str(tmp_path / "cache")]
    assert run_cli(capsys, argv)[0] == 0
    assert sorted(splits) == [(r, n) for r in range(9) for n in (1, 2, 3)]


def swap_block_order(monkeypatch):
    """Flip the height ideal, so that weight 4 at p=3 lists J before R."""
    from bpcentre import truncation_centre

    real = truncation_centre.in_ideal
    monkeypatch.setattr(truncation_centre, "in_ideal", lambda a, n: not real(a, n))


def test_block_order_failure_fails_congruence_checks(tmp_path, capsys, monkeypatch):
    swap_block_order(monkeypatch)
    argv = ["verify", "all", "--p", "3", "--max-weight", "5", "--N", "4",
            "--heights", "1", "--format", "json", "--cache", str(tmp_path / "cache")]
    code, out = run_cli(capsys, argv)
    assert code == 1
    suites = {s["name"]: s["checks"] for s in json.loads(out)["suites"]}
    assert list(suites) == ["etaR", "triangular", "realize", "centre", "congruence"]
    congruence = {c["id"]: c for c in suites["congruence"]}
    for check_id in ("congruence-inclusion/n=1/N=4", "congruence-phi-inclusion/n=1/N=4"):
        assert congruence[check_id]["status"] == "FAIL"
        assert "block order violated in weight 4" in congruence[check_id]["witness"]
    assert congruence["sg-stabilization/N=4"]["status"] == "PASS"
    assert {c["id"]: c["status"] for c in suites["centre"]}["centre/n=1/w=4"] == "FAIL"


def test_block_order_failure_fails_lattices(tmp_path, capsys, monkeypatch):
    swap_block_order(monkeypatch)
    argv = ["lattices", "--p", "3", "--max-weight", "5", "--N", "4", "--heights", "1",
            "--cache", str(tmp_path / "cache")]
    code, out = run_cli(capsys, argv)
    assert code == 1
    assert out.startswith("FAIL consistency: block order violated in weight 4")


@pytest.mark.parametrize("rank, basis, witness", [
    (1, [((1, 0), (0, 2))], "commutant rank=1 scalar=False"),
    (2, [((1, 0), (0, 1)), ((2, 0), (0, 2))], "commutant rank=2 scalar=True"),
])
def test_centre_check_fails_on_rank_or_scalar(rank, basis, witness, tmp_path, capsys,
                                              monkeypatch):
    from bpcentre import cli_report

    monkeypatch.setattr(cli_report, "centre_commutant", lambda *args: (rank, basis))
    argv = ["verify", "centre", "--p", "3", "--max-weight", "2", "--heights", "1",
            "--format", "json", "--cache", str(tmp_path / "cache")]
    code, out = run_cli(capsys, argv)
    assert code == 1
    checks = json.loads(out)["suites"][0]["checks"]
    centre = [c for c in checks if c["id"].startswith("centre/")]
    assert [c["id"] for c in centre] == [f"centre/n=1/w={r}" for r in range(3)]
    for check in centre:
        assert (check["status"], check["witness"]) == ("FAIL", witness)
