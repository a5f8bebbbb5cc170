"""Command-line front end: build the right-unit cache, verify, compute lattices.

Commands
--------
``eta-table``  populate and persist the right-unit table, printing per-weight
               statistics; ``verify SUITE`` run one of the named check suites
               (etaR, triangular, realize, centre, congruence, all) and print
               a PASS/FAIL report; ``lattices`` compute the congruence and
               diagonal window lattices and their comparison.

Reports embed the full configuration and the cache fingerprint, and are byte
reproducible: identical configuration yields identical output.  Exit codes:
0 all checks passed, 1 a mathematical check failed or an internal
inconsistency was detected, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections import namedtuple

from .bp_hopf import (
    CONVENTION,
    CarryError,
    EtaRTable,
    GradedPoly,
    IntegralityError,
    check_integrality,
    coefficient_of_t,
)
from .dvr_arith import is_odd_prime, valuation
from .monomial_order import enumerate_weight, max_generator_index, unit_exp

# The verify and lattice modules are imported by the functions that call them, so
# eta-table never loads them; such an import reads the defining module's attribute.

CACHE_ENV_VAR = "BPCENTRE_CACHE"
SUITES = ("etaR", "triangular", "realize", "centre", "congruence")


class ConfigError(ValueError):
    pass


class RunConfig(namedtuple(
        "RunConfig", "p max_weight heights N cache_dir format",
        defaults=(3, 13, (1, 2), None, ".bpcentre-cache", "markdown"))):
    """One run's settings, named as the report's config keys and the options' dests."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not is_odd_prime(self.p):
            raise ConfigError(f"p must be an odd prime, got {self.p}")
        if self.max_weight < 1:
            raise ConfigError("max-weight must be at least 1")
        if self.N is not None and not (0 <= self.N <= self.max_weight):
            raise ConfigError("N must satisfy 0 <= N <= max-weight")
        if not self.heights or any(n < 1 for n in self.heights):
            raise ConfigError("heights must be positive integers")
        if len(set(self.heights)) != len(self.heights):
            raise ConfigError(f"heights must not repeat, got {list(self.heights)}")
        if not self.cache_dir:
            raise ConfigError("--cache must name a directory, got ''")
        if self.format not in ("json", "csv", "markdown"):
            raise ConfigError(f"unknown format {self.format!r}")
        # Resolve the default once; every consumer reads the resolved value.
        return self._replace(N=min(5, self.max_weight) if self.N is None else self.N)

    def cache_path(self) -> str:
        name = f"etaR_p{self.p}_{CONVENTION}_w{self.max_weight}.json"
        return os.path.join(self.cache_dir, name)


def load_or_build_table(config: RunConfig):
    """Return (table, cache section of the report).

    The table is always built and serialized once, a piece at a time.  An
    existing cache file is a hit only when it holds exactly those bytes
    (``EtaRTable.load`` raises ValueError otherwise); a missing one is
    written.  Either way the fingerprint is the SHA-256 of the canonical
    bytes, as ``load`` or ``save`` hashed them.
    """
    path = config.cache_path()
    table = EtaRTable(config.p, config.max_weight).populate()
    if os.path.exists(path):
        status, fingerprint = "hit", table.load(path)
    else:
        os.makedirs(config.cache_dir, exist_ok=True)
        status, fingerprint = "written", table.save(path)
    return table, {"path": path, "status": status, "fingerprint": fingerprint}


def weight_stats(table: EtaRTable, r: int):
    """(weight-r monomials, eta_R term count, largest coefficient valuation);
    table coefficients are non-zero, so each :func:`valuation` is finite."""
    p = table.p
    gammas = enumerate_weight(r, p)
    polys = [table.eta(gamma) for gamma in gammas]
    terms = sum(len(poly.terms) for poly in polys)
    max_val = max((valuation(c, p) for poly in polys for c in poly.terms.values()), default=0)
    return gammas, terms, max_val


def triangular_faults(r: int, table: EtaRTable):
    """(weight-r basis, row by row the entries of mu that break its shape:
    lower triangular with diagonal p^(sum of exponents))."""
    from .op_calculus import mu_matrix
    p = table.p
    basis, mu = mu_matrix(r, table)
    faults = []
    for i, gamma in enumerate(basis):
        for j, beta in enumerate(basis):
            value = mu[i][j]
            if i < j and value != 0:
                faults.append(f"mu[{gamma},{beta}]={value}!=0")
            if i == j and value != p ** sum(beta):
                faults.append(f"mu[{beta},{beta}]={value}")
    return basis, faults


def _check(checks: list, check_id: str, ok: bool, witness: str) -> None:
    checks.append({"id": check_id, "status": "PASS" if ok else "FAIL",
                   "witness": witness})


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def suite_etaR(config: RunConfig, table: EtaRTable) -> list[dict]:
    checks: list[dict] = []
    p = config.p
    expected_v1 = GradedPoly(p, {
        ((1,), ()): 1,
        ((), (1,)): p,
    }, table.layout)
    got = table.eta((1,))
    _check(checks, "eta-v1-exact", got == expected_v1, f"eta_R(v_1) = {got}")

    for r in range(config.max_weight + 1):
        gammas, term_count, max_val = weight_stats(table, r)
        bad = []
        for gamma in gammas:
            ok, offenders = check_integrality(table.eta(gamma))
            if not ok:
                bad.append((gamma, offenders[0]))
        witness = f"monomials={len(gammas)} terms={term_count} max_coeff_val={max_val}"
        if bad:
            witness += f" offender={bad[0]}"
        _check(checks, f"integrality/w={r}", not bad, witness)

    for r in range(config.max_weight + 1):
        # Pure-t terms have weight r: row i of mu holds all of eta_R(v^basis[i]).
        basis, faults = triangular_faults(r, table)
        counit_ok = all(coefficient_of_t(gamma, (), table)
                        == GradedPoly(p, {(gamma, ()): 1}, table.layout) for gamma in basis)
        _check(checks, f"top-term/w={r}", not faults,
               f"top pure-t coefficient is p^(sum gamma) on {len(basis)} monomials")
        _check(checks, f"counit/w={r}", counit_ok,
               "t -> 0 returns v^gamma exactly")
    return checks


def suite_triangular(config: RunConfig, table: EtaRTable) -> list[dict]:
    checks: list[dict] = []
    for r in range(config.max_weight + 1):
        basis, faults = triangular_faults(r, table)
        witness = f"pairs={len(basis)**2}" + ("; " + "; ".join(faults[:3]) if faults else "")
        _check(checks, f"triangular/w={r}", not faults, witness)
    return checks


def suite_realize(config: RunConfig, table: EtaRTable) -> list[dict]:
    from .op_calculus import ConsistencyError, realizations
    checks: list[dict] = []
    p = config.p
    for r in range(config.max_weight + 1):
        try:
            columns = realizations(r, table)
        except ConsistencyError as exc:
            _check(checks, f"realize/w={r}", False, str(exc))
            continue
        valuations = {str(beta): valuation(mu_bar, p)
                      for beta, (mu_bar, _) in columns.items()}
        _check(checks, f"realize/w={r}", True,
               "mu_bar valuations by column: " + json.dumps(valuations))
    return checks


def suite_centre(config: RunConfig, table: EtaRTable) -> list[dict]:
    """Block order and centre per (height, weight), the centre read off the
    verified mu_bar by the shift lemma of ``truncation_centre.centre_commutant``:
    c I when |R| <= 1 or no mu_bar of R vanishes.  An internal inconsistency
    (a violated block order, a realization that does not verify) FAILs the
    check it occurred in, with its message as the witness."""
    from .op_calculus import ConsistencyError, realizations
    from .truncation_centre import block_split
    checks: list[dict] = []
    for n in config.heights:
        for r in range(config.max_weight + 1):
            try:
                split = block_split(r, n, config.p)
            except ConsistencyError as exc:
                _check(checks, f"block-order/n={n}/w={r}", False, str(exc))
                _check(checks, f"centre/n={n}/w={r}", False, str(exc))
                continue
            _check(checks, f"block-order/n={n}/w={r}", True,
                   f"|R|={len(split.r_basis)} |J|={len(split.basis) - len(split.r_basis)}")
            try:
                mu_bar = [realizations(r, table)[beta][0] for beta in split.r_basis]
            except ConsistencyError as exc:
                _check(checks, f"centre/n={n}/w={r}", False, str(exc))
                continue
            ok = len(mu_bar) < 2 or 0 not in mu_bar
            vals = sorted(valuation(m, config.p) for m in mu_bar)
            span = f", mu_bar valuations {vals[0]}..{vals[-1]}" if vals else ""
            _check(checks, f"centre/n={n}/w={r}", ok, f"shift lemma: |R|={len(vals)}{span}" if ok
                   else f"mu_bar vanishes at {split.r_basis[mu_bar.index(0)]}")
    return checks


def suite_congruence(config: RunConfig, table: EtaRTable) -> list[dict]:
    from .ktheory_lattice import (ClosureError, StabilizationError, compare_with_diagonal_window,
                                  sg_closure, sg_membership, sg_window)
    from .op_calculus import ConsistencyError, adams_sequence
    checks: list[dict] = []
    p, N = config.p, config.N
    try:
        sg, cert = sg_window(p, N)
    except StabilizationError as exc:
        _check(checks, f"sg-stabilization/N={N}", False, str(exc))
        return checks
    _check(
        checks,
        f"sg-stabilization/N={N}",
        True,
        f"last_changed_a={cert.last_changed_a} stopped_at_a={cert.stopped_at_a}",
    )
    q = cert.q
    for k in (0, 1, q, q * q, p, p * q):
        member = sg_membership(adams_sequence(p, k, N), sg)
        _check(checks, f"sg-generator-membership/k={k}", member is not None,
               "verified certificate" if member is not None else "no certificate")
    try:
        keys = sg_closure((sg, cert))
        _check(checks, f"sg-closure/N={N}", True, f"windows of k={list(keys)} lie in S_g")
    except ClosureError as exc:
        _check(checks, f"sg-closure/N={N}", False, str(exc))
    if N >= 1:
        smaller, _ = sg_window(p, N - 1)
        nested = all(
            sg_membership(col[: N], smaller) is not None for col in sg.basis
        )
        _check(checks, f"sg-nesting/N={N}->{N - 1}", nested,
               "projections of the basis belong to the smaller window")
    for n in config.heights:
        try:
            report = compare_with_diagonal_window(N, n, table, sg)
        except ConsistencyError as exc:
            _check(checks, f"congruence-inclusion/n={n}/N={N}", False, str(exc))
            _check(checks, f"congruence-phi-inclusion/n={n}/N={N}", False, str(exc))
            continue
        sg_div = f"sg divisors {report['sg']}"
        _check(checks, f"congruence-inclusion/n={n}/N={N}", report["inclusion"],
               f"{sg_div} diagonal divisors {report['diagonal']} gap={report['gap']}")
        _check(checks, f"congruence-phi-inclusion/n={n}/N={N}", report["phi_inclusion"],
               f"phi divisors {report['phi']} {sg_div} gap={report['phi_gap']}")
    return checks


def run_suites(config: RunConfig, table: EtaRTable, suite: str) -> list[dict]:
    # Suite NAME is the module's ``suite_NAME``, looked up at call time, so a
    # wrapper bound to that name (as bench/tracing.py binds one) is what runs.
    names = SUITES if suite == "all" else (suite,)
    return [{"name": name, "checks": globals()[f"suite_{name}"](config, table)}
            for name in names]


# ---------------------------------------------------------------------------
# lattice report
# ---------------------------------------------------------------------------

def lattice_report(config: RunConfig, table: EtaRTable) -> dict:
    """The comparisons' keys over the heights: S_g once, inclusions as one flag."""
    from .ktheory_lattice import compare_with_diagonal_window, sg_closure, sg_window
    sg = sg_window(config.p, config.N)
    sg_closure(sg)
    comparisons = [compare_with_diagonal_window(config.N, n, table, sg[0])
                   for n in config.heights]
    report = {}
    for key in comparisons[0]:
        values = [c[key] for c in comparisons]
        report[key] = (values[0] if key == "sg" else all(values) if key.endswith("inclusion")
                       else dict(zip(map(str, config.heights), values)))
    report["stabilization"] = sg[1]._asdict()
    return report


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

# Lattice report keys: divisors by height, inclusion flag, gap by height, and
# the wording of the inclusion and gap lines.
LATTICE_COMPARISONS = (
    ("diagonal", "inclusion", "gap", "S_g in diagonal", "gap colength"),
    ("phi", "phi_inclusion", "phi_gap", "phi-only in S_g", "phi-only gap colength"),
)


def report_items(report: dict):
    """Each line of the report once, in order, as (csv rows, markdown lines).

    A heading and the stabilization line have no csv rows; a weight is three
    csv rows and one table line.  The csv and markdown renderings and the exit
    status all read these items.
    """
    yield [], ["", "## configuration", ""]
    for key, value in report["config"].items():
        yield [["config", key, "", "", json.dumps(value)]], [f"- {key}: {json.dumps(value)}"]
    if "cache" in report:
        yield [], ["", "## cache", ""]
        for key, value in report["cache"].items():
            yield [["cache", key, "", "", value]], [f"- {key}: {value}"]
    for suite in report["suites"]:
        yield [], ["", f"## suite: {suite['name']}", "",
                   "| check | status | witness |", "| --- | --- | --- |"]
        for check in suite["checks"]:
            witness = check["witness"].replace("|", "\\|")
            yield ([["suite", suite["name"], check["id"], check["status"], check["witness"]]],
                   [f"| {check['id']} | {check['status']} | {witness} |"])
    lat = report.get("lattices")
    if lat:
        yield [], ["", "## lattices", ""]
        yield ([["lattice", "S_g", "divisors", "", json.dumps(lat["sg"])]],
               [f"- S_g elementary divisors (p-exponents): {lat['sg']}"])
        for name, ok, gap, what, gap_name in LATTICE_COMPARISONS:
            for n, div in lat.get(name, {}).items():
                yield ([["lattice", f"{name}/n={n}", "divisors", "", json.dumps(div)]],
                       [f"- {name} window divisors at height {n}: {div}"])
            if ok in lat:
                status, gaps = "PASS" if lat[ok] else "FAIL", json.dumps(lat[gap])
                yield ([["lattice", ok.replace("_", "-"), "", status, gaps]],
                       [f"- inclusion {what}: {status}", f"- {gap_name} by height: {gaps}"])
        yield [], [f"- stabilization: {json.dumps(lat['stabilization'])}"]
    if "eta" in report:
        yield [], ["", "## right unit on the generators", ""]
        for row in report["eta"]:
            yield ([["eta", f"v_{row['index']}", "", "", row["value"]]],
                   [f"- eta_R(v_{row['index']}) = {row['value']}"])
        yield [], ["", "## per-weight statistics", "",
                   "| weight | monomials | terms | max coefficient valuation |",
                   "| --- | --- | --- | --- |"]
        keys = ("monomials", "terms", "max_coeff_val")
        for row in report["weights"]:
            yield ([["weight", f"w={row['weight']}", key, "", row[key]] for key in keys],
                   ["| " + " | ".join(str(row[key]) for key in ("weight", *keys)) + " |"])


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["section", "name", "id", "status", "witness"])
        for rows, _ in report_items(report):
            writer.writerows(rows)
        return buf.getvalue()
    lines = ["# bpcentre report"]
    for _, item_lines in report_items(report):
        lines += item_lines
    return "\n".join(lines) + "\n"


def overall_status(report: dict) -> int:
    """1 exactly when some report item's csv status field reads FAIL."""
    return int(any(row[3] == "FAIL" for rows, _ in report_items(report) for row in rows))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def eta_sections(config: RunConfig, table: EtaRTable) -> dict:
    """The eta-table report: eta_R on the generators, per-weight statistics."""
    weights = []
    for r in range(config.max_weight + 1):
        gammas, terms, max_val = weight_stats(table, r)
        weights.append(
            {"weight": r, "monomials": len(gammas), "terms": terms,
             "max_coeff_val": max_val}
        )
    eta_rows = [
        {"index": k, "value": str(table.eta(unit_exp(k)))}
        for k in range(1, max_generator_index(config.max_weight, config.p) + 1)
    ]
    return {"eta": eta_rows, "weights": weights}


def run_command(config: RunConfig, command: str, suite: str) -> int:
    """Load or build the table, print the command's report, return the exit code."""
    try:
        table, cache = load_or_build_table(config)
    except (IntegralityError, CarryError) as exc:
        sys.stdout.write(f"FAIL {type(exc).__name__.removesuffix('Error').lower()}: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stdout.write(f"FAIL cache: {exc}\n")
        return 1
    report = {"config": config._asdict(), "cache": cache, "suites": [],
              "lattices": None}
    if command == "eta-table":
        report.update(eta_sections(config, table))
    elif command == "verify":
        report["suites"] = run_suites(config, table, suite)
    else:
        from .ktheory_lattice import ClosureError, StabilizationError
        from .op_calculus import ConsistencyError
        try:
            report["lattices"] = lattice_report(config, table)
        except (StabilizationError, ClosureError, ConsistencyError) as exc:
            stage = type(exc).__name__.removesuffix("Error").lower()
            sys.stdout.write(f"FAIL {stage}: {exc}\n")
            return 1
    sys.stdout.write(render_report(report, config.format))
    return overall_status(report)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _ints(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated list; empty items are skipped."""
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=int, help="odd prime (default 3)")
    parser.add_argument("--max-weight", type=int,
                        help="weight bound for the right-unit table")
    parser.add_argument("--heights", type=_ints,
                        help="comma-separated truncation heights")
    parser.add_argument("--N", type=int,
                        help="window bound for the lattices (default min(5, max-weight))")
    parser.add_argument("--cache", type=str, dest="cache_dir",
                        default=(os.environ.get(CACHE_ENV_VAR)
                                 or RunConfig._field_defaults["cache_dir"]),
                        help=f"cache directory (or ${CACHE_ENV_VAR})")
    parser.add_argument("--format", type=str, choices=("json", "csv", "markdown"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bpcentre",
        description="Exact verification of degreewise operation algebra "
                    "on p-local bordism-type theories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("eta-table", "build and persist the right-unit cache"),
                       ("verify", "run a verification suite"),
                       ("lattices", "compute and compare window lattices")):
        # An option not given stays out of the namespace: RunConfig's default applies.
        child = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        if name == "verify":
            child.add_argument("suite", choices=(*SUITES, "all"))
        _add_common(child)

    options = vars(parser.parse_args(argv))
    command, suite = options.pop("command"), options.pop("suite", "all")
    try:
        config = RunConfig(**options)
    except ConfigError as exc:
        parser.error(str(exc))  # exits with code 2

    return run_command(config, command, suite)
