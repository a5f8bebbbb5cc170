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
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .bp_hopf import (
    EtaRTable,
    GradedPoly,
    IntegralityError,
    check_integrality,
    fingerprint_bytes,
)
from .dvr_arith import (
    generates_units_mod_p2,
    is_odd_prime,
    scalar_value,
    topological_generator,
    valuation,
)
from .ktheory_lattice import (
    ClosureError,
    StabilizationError,
    adams_sequence,
    compare_with_diagonal_window,
    default_caps,
    sg_closure,
    sg_membership,
    sg_window,
)
from .monomial_order import (
    enumerate_weight,
    max_generator_index,
    sort_key,
    unit_exp,
)
from .op_calculus import ConsistencyError, mu_matrix, realizations
from .truncation_centre import block_split, centre_commutant

CACHE_ENV_VAR = "BPCENTRE_CACHE"
SUITES = ("etaR", "triangular", "realize", "centre", "congruence", "all")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    p: int = 3
    max_weight: int = 13
    heights: tuple[int, ...] = (1, 2)
    window: int = 5
    q: int | None = None
    cache_dir: str = ".bpcentre-cache"
    fmt: str = "markdown"
    caps: tuple[int, int] | None = None
    margin: int = 4

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ConfigError(f"p must be an odd prime, got {self.p}")
        if self.q is not None and not generates_units_mod_p2(self.q, self.p):
            raise ConfigError(f"q must generate the units of Z/{self.p**2}, got {self.q}")
        if self.max_weight < 1:
            raise ConfigError("max-weight must be at least 1")
        if not (0 <= self.window <= self.max_weight):
            raise ConfigError("N must satisfy 0 <= N <= max-weight")
        if not self.heights or any(n < 1 for n in self.heights):
            raise ConfigError("heights must be positive integers")
        if len(set(self.heights)) != len(self.heights):
            raise ConfigError(f"heights must not repeat, got {list(self.heights)}")
        if self.fmt not in ("json", "csv", "markdown"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if self.margin < 1:
            raise ConfigError("margin must be positive")
        if self.caps is not None and (self.caps[0] < 0 or self.caps[1] < 0):
            raise ConfigError("caps must be non-negative")
        # Resolve the defaults once; every consumer reads the resolved values.
        if self.q is None:
            object.__setattr__(self, "q", topological_generator(self.p))
        if self.caps is None:
            object.__setattr__(self, "caps", default_caps(self.window))

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "max_weight": self.max_weight,
            "heights": list(self.heights),
            "N": self.window,
            "q": self.q,
            "cache_dir": self.cache_dir,
            "format": self.fmt,
            "caps": list(self.caps),
            "margin": self.margin,
        }

    def cache_path(self) -> str:
        name = f"etaR_p{self.p}_hazewinkel_w{self.max_weight}.json"
        return os.path.join(self.cache_dir, name)


def load_or_build_table(config: RunConfig):
    """Return (table, cache section of the report).

    Builds and persists the cache if absent.  A written cache is
    fingerprinted from the bytes just written, a loaded one from its
    canonical re-serialization.
    """
    path = config.cache_path()
    if os.path.exists(path):
        table = EtaRTable.load(path)
        if table.p != config.p or table.max_weight != config.max_weight:
            raise ValueError(f"cache {path} does not match the configuration")
        status, fingerprint = "hit", table.fingerprint()
    else:
        table = EtaRTable(config.p, config.max_weight).populate()
        os.makedirs(config.cache_dir, exist_ok=True)
        status, fingerprint = "written", fingerprint_bytes(table.save(path))
    return table, {"path": path, "status": status, "fingerprint": fingerprint}


def weight_stats(table: EtaRTable, r: int):
    """(weight-r monomials, eta_R term count, largest coefficient valuation).

    Table coefficients are non-zero ints and the table checked its prime, so
    each valuation is a plain division loop.
    """
    p = table.p
    gammas = enumerate_weight(r, p)
    terms, max_val = 0, 0
    for gamma in gammas:
        poly = table.eta(gamma)
        terms += len(poly.terms)
        for c in poly.terms.values():
            val = 0
            while c % p == 0:
                c //= p
                val += 1
            max_val = max(max_val, val)
    return gammas, terms, max_val


def _check(checks: list, check_id: str, ok: bool, witness: str) -> bool:
    checks.append({"id": check_id, "status": "PASS" if ok else "FAIL",
                   "witness": witness})
    return ok


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def suite_etaR(config: RunConfig, table: EtaRTable) -> list[dict]:
    checks: list[dict] = []
    p = config.p
    expected_v1 = GradedPoly(p, {
        ((1,), ()): Fraction(1),
        ((), (1,)): Fraction(p),
    })
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
        gammas = enumerate_weight(r, p)
        top_ok, counit_ok = True, True
        for gamma in gammas:
            poly = table.eta(gamma)
            pure = poly.pure_t_terms()
            expected_top = Fraction(p) ** sum(gamma)
            if pure.get(gamma) != expected_top:
                top_ok = False
            if any(sort_key(t) > sort_key(gamma) for t in pure):
                top_ok = False
            if poly.t_evaluated_at_zero() != GradedPoly.v_mono(p, gamma):
                counit_ok = False
        _check(checks, f"top-term/w={r}", top_ok,
               f"top pure-t coefficient is p^(sum gamma) on {len(gammas)} monomials")
        _check(checks, f"counit/w={r}", counit_ok,
               "t -> 0 returns v^gamma exactly")
    return checks


def suite_triangular(config: RunConfig, table: EtaRTable) -> list[dict]:
    checks: list[dict] = []
    p = config.p
    for r in range(config.max_weight + 1):
        basis, mu = mu_matrix(r, table)
        ok = True
        witness_parts = []
        for i, gamma in enumerate(basis):
            for j, beta in enumerate(basis):
                value = mu[i][j]
                if i < j and value != 0:
                    ok = False
                    witness_parts.append(f"mu[{gamma},{beta}]={value}!=0")
                if i == j and value != Fraction(p) ** sum(beta):
                    ok = False
                    witness_parts.append(f"mu[{beta},{beta}]={value}")
        witness = f"pairs={len(basis)**2}" + ("; " + "; ".join(witness_parts[:3])
                                              if witness_parts else "")
        _check(checks, f"triangular/w={r}", ok, witness)
    return checks


def suite_realize(config: RunConfig, table: EtaRTable) -> list[dict]:
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
    """Block order and centre per (height, weight); an internal inconsistency
    (a violated block order, a realization that does not verify) FAILs the
    check it occurred in, with its message as the witness."""
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
                   f"|R|={len(split.r_indices)} |J|={len(split.j_indices)}")
            try:
                rank, basis = centre_commutant(r, n, table, split)
            except ConsistencyError as exc:
                _check(checks, f"centre/n={n}/w={r}", False, str(exc))
                continue
            scalar = all(scalar_value(m) is not None for m in basis)
            _check(
                checks,
                f"centre/n={n}/w={r}",
                rank == 1 and scalar,
                f"commutant rank={rank} scalar={scalar}",
            )
    return checks


def suite_congruence(config: RunConfig, table: EtaRTable) -> list[dict]:
    checks: list[dict] = []
    p, q, N = config.p, config.q, config.window
    try:
        sg, cert = sg_window(p, N, q=q, caps=config.caps, margin=config.margin)
    except StabilizationError as exc:
        _check(checks, f"sg-stabilization/N={N}", False, str(exc))
        return checks
    _check(
        checks,
        f"sg-stabilization/N={N}",
        True,
        f"last_changed_a={cert.last_changed_a} stopped_at_a={cert.stopped_at_a}",
    )
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
        smaller, _ = sg_window(p, N - 1, q=q, caps=config.caps, margin=config.margin)
        nested = all(
            sg_membership(col[: N], smaller) is not None for col in sg.basis
        )
        _check(checks, f"sg-nesting/N={N}->{N - 1}", nested,
               "projections of the basis belong to the smaller window")
    for n in config.heights:
        try:
            report = compare_with_diagonal_window(N, n, table, (sg, cert))
        except ConsistencyError as exc:
            _check(checks, f"congruence-inclusion/n={n}/N={N}", False, str(exc))
            _check(checks, f"congruence-phi-inclusion/n={n}/N={N}", False, str(exc))
            continue
        sg_div = f"sg divisors {report['sg_divisors']}"
        _check(checks, f"congruence-inclusion/n={n}/N={N}", report["inclusion"],
               f"{sg_div} diagonal divisors {report['diagonal_divisors']} "
               f"gap={report['gap_colength']}")
        _check(checks, f"congruence-phi-inclusion/n={n}/N={N}", report["phi_inclusion"],
               f"phi divisors {report['phi_divisors']} {sg_div} "
               f"gap={report['phi_gap_colength']}")
    return checks


def run_suites(config: RunConfig, table: EtaRTable, suite: str) -> list[dict]:
    runners = {
        "etaR": suite_etaR,
        "triangular": suite_triangular,
        "realize": suite_realize,
        "centre": suite_centre,
        "congruence": suite_congruence,
    }
    names = list(runners) if suite == "all" else [suite]
    return [{"name": name, "checks": runners[name](config, table)} for name in names]


# ---------------------------------------------------------------------------
# lattice report
# ---------------------------------------------------------------------------

def lattice_report(config: RunConfig, table: EtaRTable) -> dict:
    p, q, N = config.p, config.q, config.window
    sg = sg_window(p, N, q=q, caps=config.caps, margin=config.margin)
    sg_closure(sg)
    comparisons = [
        compare_with_diagonal_window(N, n, table, sg)
        for n in config.heights
    ]

    def by_height(key: str) -> dict:
        return {str(c["height"]): c[key] for c in comparisons}

    return {
        "sg": list(sg[0].elementary_divisors),
        "diagonal": by_height("diagonal_divisors"),
        "inclusion": all(c["inclusion"] for c in comparisons),
        "gap": by_height("gap_colength"),
        "phi": by_height("phi_divisors"),
        "phi_inclusion": all(c["phi_inclusion"] for c in comparisons),
        "phi_gap": by_height("phi_gap_colength"),
        "stabilization": sg[1].summary(),
    }


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

# Lattice report keys: divisors by height, inclusion flag, gap by height, and
# the wording of the inclusion and gap lines.
LATTICE_COMPARISONS = (
    ("diagonal", "inclusion", "gap", "S_g in diagonal", "gap colength"),
    ("phi", "phi_inclusion", "phi_gap", "phi-only in S_g", "phi-only gap colength"),
)


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["section", "name", "id", "status", "witness"])
        for key, value in report["config"].items():
            writer.writerow(["config", key, "", "", json.dumps(value)])
        for key, value in report.get("cache", {}).items():
            writer.writerow(["cache", key, "", "", value])
        for suite in report["suites"]:
            for check in suite["checks"]:
                writer.writerow(
                    ["suite", suite["name"], check["id"], check["status"],
                     check["witness"]]
                )
        if report.get("lattices"):
            lat = report["lattices"]
            writer.writerow(["lattice", "S_g", "divisors", "", json.dumps(lat["sg"])])
            for name, ok, gap, _, _ in LATTICE_COMPARISONS:
                for n, div in lat.get(name, {}).items():
                    writer.writerow(
                        ["lattice", f"{name}/n={n}", "divisors", "", json.dumps(div)]
                    )
                if ok in lat:
                    writer.writerow(["lattice", ok.replace("_", "-"), "",
                                     "PASS" if lat[ok] else "FAIL", json.dumps(lat[gap])])
        for row in report.get("eta", ()):
            writer.writerow(["eta", f"v_{row['index']}", "", "", row["value"]])
        for row in report.get("weights", ()):
            for key in ("monomials", "terms", "max_coeff_val"):
                writer.writerow(["weight", f"w={row['weight']}", key, "", row[key]])
        return buf.getvalue()

    lines = ["# bpcentre report", "", "## configuration", ""]
    for key, value in report["config"].items():
        lines.append(f"- {key}: {json.dumps(value)}")
    if "cache" in report:
        lines += ["", "## cache", ""]
        for key, value in report["cache"].items():
            lines.append(f"- {key}: {value}")
    for suite in report["suites"]:
        lines += ["", f"## suite: {suite['name']}", "",
                  "| check | status | witness |", "| --- | --- | --- |"]
        for check in suite["checks"]:
            witness = check["witness"].replace("|", "\\|")
            lines.append(f"| {check['id']} | {check['status']} | {witness} |")
    if report.get("lattices"):
        lat = report["lattices"]
        lines += ["", "## lattices", ""]
        lines.append(f"- S_g elementary divisors (p-exponents): {lat['sg']}")
        for name, ok, gap, what, gap_name in LATTICE_COMPARISONS:
            for n, div in lat.get(name, {}).items():
                lines.append(f"- {name} window divisors at height {n}: {div}")
            if ok in lat:
                lines.append(f"- inclusion {what}: {'PASS' if lat[ok] else 'FAIL'}")
                lines.append(f"- {gap_name} by height: {json.dumps(lat[gap])}")
        lines.append(f"- stabilization: {json.dumps(lat['stabilization'])}")
    if "eta" in report:
        lines += ["", "## right unit on the generators", ""]
        for row in report["eta"]:
            lines.append(f"- eta_R(v_{row['index']}) = {row['value']}")
        lines += ["", "## per-weight statistics", "",
                  "| weight | monomials | terms | max coefficient valuation |",
                  "| --- | --- | --- | --- |"]
        for row in report["weights"]:
            lines.append(
                f"| {row['weight']} | {row['monomials']} | {row['terms']} "
                f"| {row['max_coeff_val']} |"
            )
    return "\n".join(lines) + "\n"


def overall_status(report: dict) -> int:
    for suite in report.get("suites", ()):
        for check in suite["checks"]:
            if check["status"] != "PASS":
                return 1
    lattices = report.get("lattices")
    if lattices is not None and not (
        lattices.get("inclusion", True) and lattices.get("phi_inclusion", True)
    ):
        return 1
    return 0


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


def run_command(config: RunConfig, command: str, suite: str = "all") -> int:
    """Load or build the table, print the command's report, return the exit code."""
    try:
        table, cache = load_or_build_table(config)
    except IntegralityError as exc:
        sys.stdout.write(f"FAIL integrality: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stdout.write(f"FAIL cache: {exc}\n")
        return 1
    report = {"config": config.as_dict(), "cache": cache, "suites": [],
              "lattices": None}
    if command == "eta-table":
        report.update(eta_sections(config, table))
    elif command == "verify":
        report["suites"] = run_suites(config, table, suite)
    else:
        try:
            report["lattices"] = lattice_report(config, table)
        except StabilizationError as exc:
            sys.stdout.write(f"FAIL stabilization: {exc}\n")
            return 1
        except ClosureError as exc:
            sys.stdout.write(f"FAIL closure: {exc}\n")
            return 1
        except ConsistencyError as exc:
            sys.stdout.write(f"FAIL consistency: {exc}\n")
            return 1
    sys.stdout.write(render_report(report, config.fmt))
    return overall_status(report)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=int, default=3, help="odd prime (default 3)")
    parser.add_argument("--max-weight", type=int, default=13,
                        help="weight bound for the right-unit table")
    parser.add_argument("--heights", type=str, default="1,2",
                        help="comma-separated truncation heights")
    parser.add_argument("--N", type=int, default=None, dest="window",
                        help="window bound for the lattices (default min(5, max-weight))")
    parser.add_argument("--q", type=int, default=None,
                        help="override the topological generator")
    parser.add_argument("--cache", type=str, default=None,
                        help=f"cache directory (or ${CACHE_ENV_VAR})")
    parser.add_argument("--format", type=str, default="markdown",
                        choices=("json", "csv", "markdown"))
    parser.add_argument("--caps", type=str, default=None,
                        help="generator caps as M,S for the Adams span")
    parser.add_argument("--margin", type=int, default=4,
                        help="stabilization margin for the Adams span")


def build_config(args: argparse.Namespace) -> RunConfig:
    try:
        heights = tuple(int(x) for x in args.heights.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"bad heights {args.heights!r}") from exc
    caps = None
    if args.caps is not None:
        try:
            m_cap, s_cap = (int(x) for x in args.caps.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad caps {args.caps!r}; expected M,S") from exc
        caps = (m_cap, s_cap)
    cache_dir = args.cache or os.environ.get(CACHE_ENV_VAR) or ".bpcentre-cache"
    window = args.window if args.window is not None else min(5, args.max_weight)
    return RunConfig(
        p=args.p,
        max_weight=args.max_weight,
        heights=heights,
        window=window,
        q=args.q,
        cache_dir=cache_dir,
        fmt=args.format,
        caps=caps,
        margin=args.margin,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bpcentre",
        description="Exact verification of degreewise operation algebra "
                    "on p-local bordism-type theories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eta = sub.add_parser("eta-table", help="build and persist the right-unit cache")
    _add_common(p_eta)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    _add_common(p_verify)

    p_lat = sub.add_parser("lattices", help="compute and compare window lattices")
    _add_common(p_lat)

    args = parser.parse_args(argv)
    try:
        config = build_config(args)
    except ConfigError as exc:
        parser.error(str(exc))  # exits with code 2

    return run_command(config, args.command, getattr(args, "suite", "all"))


if __name__ == "__main__":
    sys.exit(main())
