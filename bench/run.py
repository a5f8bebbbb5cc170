"""End-to-end benchmark of the bpcentre command line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload eta-cold --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all          # every workload, in turn

Each workload iteration runs its ``python -m bpcentre ...`` invocations one at
a time, each in a fresh child process (the program's in-process caches would
otherwise carry work across invocations that users pay for on every run).
Children get ``PYTHONPATH=<checkout>/src``, no ``BPCENTRE_CACHE``, a per-run
temp directory as working directory and an explicit relative ``--cache``.
Every JSON report is checked against values pinned in ``pins.json``; an
invocation that exits non-zero, reports a FAIL check or misses a pin counts
as failed, and any failure makes this script exit 1.

With ``--trace 0`` the children are timed from outside; with ``--trace 1``
untraced and traced iterations alternate, and the traced children
(``tracing.py``) give per-layer span statistics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402

PINS_PATH = BENCH_DIR / "pins.json"
RUN_ROOT = ROOT / ".bench_run"
CACHE_ARG = "cache"

# Warm workloads set up this many cache directories and spread their
# iterations over them; setup_s is the median of these set-ups.
SETUP_REPEATS = 3
# Medians need a few samples even when one iteration outlasts --seconds.
MIN_ITERATIONS = 3
# Every child is killed once the run has lasted this long.
RUN_DEADLINE_S = 170.0

# An iteration takes 1-2 s on a 2-core Xeon, so a run holds 15 or more:
# single invocations there vary by about +-20 %, in spells lasting several
# invocations, and only the median of many iterations is steady.
ETA_P3 = ("eta-table", "--p", "3", "--max-weight", "20")
ETA_P5 = ("eta-table", "--p", "5", "--max-weight", "31")
VERIFY = ("verify", "all", "--p", "3", "--max-weight", "16", "--N", "5",
          "--heights", "1,2,3")
LATTICES = ("lattices", "--p", "3", "--max-weight", "13", "--N", "9",
            "--heights", "1,2")


@dataclass(frozen=True)
class Workload:
    invocations: tuple[tuple[str, ...], ...]
    # eta-table invocations that write the caches the workload reads; a
    # workload without them starts every iteration from an empty cache dir.
    setup: tuple[tuple[str, ...], ...] = ()

    @property
    def warm(self) -> bool:
        return bool(self.setup)


WORKLOADS = {
    "eta-cold": Workload(invocations=(ETA_P3, ETA_P5)),
    "eta-warm": Workload(invocations=(ETA_P3, ETA_P5), setup=(ETA_P3, ETA_P5)),
    "verify-warm": Workload(
        invocations=(VERIFY,),
        setup=(("eta-table", "--p", "3", "--max-weight", "16"),),
    ),
    "lattices-deep": Workload(
        invocations=(LATTICES,),
        setup=(("eta-table", "--p", "3", "--max-weight", "13"),),
    ),
}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


def pin_key(argv) -> str:
    return " ".join(argv)


# ---------------------------------------------------------------------------
# correctness pins
# ---------------------------------------------------------------------------

def extract(report: dict) -> dict:
    """The pinned values of one ``--format json`` report."""
    out = {
        "check_ids": sorted(
            check["id"] for suite in report["suites"] for check in suite["checks"]
        ),
        "fingerprint": report["cache"]["fingerprint"],
    }
    if report.get("weights") is not None:
        out["weights"] = [
            {key: row[key] for key in ("weight", "monomials", "terms", "max_coeff_val")}
            for row in report["weights"]
        ]
    if report.get("lattices"):
        out["lattices"] = {
            key: report["lattices"][key] for key in ("sg", "diagonal", "inclusion", "gap")
        }
    return out


def pin_errors(pin: dict, report: dict) -> list[str]:
    """Mismatches of a report against its pin.  Check ids the pin does not
    know are allowed; every check present must PASS."""
    try:
        got = extract(report)
        statuses = [(check["id"], check["status"])
                    for suite in report["suites"] for check in suite["checks"]]
    except (KeyError, TypeError) as exc:
        return [f"report lacks {exc}"]
    errors = [f"check {cid} is {status}" for cid, status in statuses if status != "PASS"]
    for key, expected in pin.items():
        if key == "check_ids":
            missing = sorted(set(expected) - set(got["check_ids"]))
            if missing:
                errors.append(f"missing checks {missing[:5]} ({len(missing)} in all)")
        elif got.get(key) != expected:
            errors.append(f"{key} differs from the pin: got {json.dumps(got.get(key))[:200]}")
    return errors


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    argv: tuple[str, ...]
    errors: list[str]
    report: dict | None
    cpu_s: float
    maxrss_kb: int
    spans: dict | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BPCENTRE_CACHE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv, cwd: Path, deadline: float, trace_out: Path | None = None) -> Outcome:
    """Run one invocation to completion; its rusage comes from wait4."""
    cli = list(argv) + ["--cache", CACHE_ARG, "--format", "json"]
    if trace_out is None:
        cmd = [sys.executable, "-m", "bpcentre", *cli]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "tracing.py"), str(trace_out), *cli]
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
    # Popen.kill would poll, and so could reap the child before wait4 does.
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), _kill, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill(proc.pid)
        os.waitpid(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)

    errors, report = [], None
    if code != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        errors.append(f"exit code {code} {tail}")
    try:
        report = json.loads(out_path.read_text())
    except ValueError:
        errors.append("no JSON report on stdout")
    spans = None
    if trace_out is not None and trace_out.exists():
        spans = json.loads(trace_out.read_text())
        trace_out.unlink()
    return Outcome(tuple(argv), errors, report, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss, spans)


# ---------------------------------------------------------------------------
# one run of a workload
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    wall: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    traced_wall: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


class Runner:
    def __init__(self, name: str, workload: Workload, pins: dict, seed: int,
                 seconds: float, trace: bool, work_dir: Path):
        self.name, self.workload, self.pins = name, workload, pins
        self.rng = random.Random(seed)
        self.seconds, self.trace, self.work_dir = seconds, trace, work_dir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.result = RunResult()
        # Fingerprint of each cache file set-up wrote, by directory and path.
        self.written: dict[Path, dict[str, str]] = {}

    def record(self, outcome: Outcome, expect_status: str, written=None) -> None:
        errors = list(outcome.errors)
        report = outcome.report
        key = pin_key(outcome.argv)
        if report is not None:
            pin = self.pins.get(key)
            if pin is None:
                errors.append("no pin for this invocation")
            else:
                errors += pin_errors(pin, report)
            cache = report.get("cache", {})
            if cache.get("status") != expect_status:
                errors.append(f"cache status {cache.get('status')}, expected {expect_status}")
            if written is not None and cache.get("fingerprint") != written.get(cache.get("path")):
                errors.append("fingerprint differs from the one its set-up wrote")
        self.result.attempted += 1
        if errors:
            self.result.failed += 1
            print(f"FAIL [{self.name}] {key}: {'; '.join(errors)}", file=sys.stderr)

    def set_up(self) -> Path:
        """A fresh cache dir, with the workload's caches written into it.

        Set-up first imports the program once, so that bytecode compilation
        and cold file reads, which users do not pay on every run, stay out of
        the timed iterations.
        """
        start = time.perf_counter()
        cwd = Path(tempfile.mkdtemp(prefix="run-", dir=self.work_dir))
        subprocess.run([sys.executable, "-c", "import bpcentre.cli_report"],
                       cwd=cwd, env=child_env(), check=True, stdin=subprocess.DEVNULL,
                       timeout=max(1.0, self.deadline - time.monotonic()))
        outcomes = [run_child(argv, cwd, self.deadline) for argv in self.workload.setup]
        self.result.setup.append(time.perf_counter() - start)
        for outcome in outcomes:
            self.record(outcome, "written")
        if self.workload.warm:
            caches = [o.report.get("cache", {}) for o in outcomes if o.report is not None]
            self.written[cwd] = {c.get("path"): c.get("fingerprint") for c in caches}
        return cwd

    def iteration(self, cwd: Path, traced: bool) -> None:
        order = list(self.workload.invocations)
        self.rng.shuffle(order)
        outcomes = []
        start = time.perf_counter()
        for argv in order:
            trace_out = cwd / "spans.json" if traced else None
            outcomes.append(run_child(argv, cwd, self.deadline, trace_out))
        wall = time.perf_counter() - start
        expect = "hit" if self.workload.warm else "written"
        for outcome in outcomes:
            self.record(outcome, expect, self.written.get(cwd))
        res = self.result
        if traced:
            res.traced_wall.append(wall)
            res.layers.append(tracing.layer_metrics(
                [o.spans for o in outcomes if o.spans is not None]))
        else:
            res.wall.append(wall)
            res.cpu.append(sum(o.cpu_s for o in outcomes))
            res.rss_mb.append(max(o.maxrss_kb for o in outcomes) / 1024)

    def run(self) -> RunResult:
        dirs = [self.set_up() for _ in range(SETUP_REPEATS)] if self.workload.warm else []
        # In a traced run each step is an untraced and a traced iteration,
        # in seeded order, so the overhead ratio compares like with like.
        step_kinds = [False, True] if self.trace else [False]
        min_steps = 1 if self.trace else MIN_ITERATIONS
        steps, step_times = 0, []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if steps >= min_steps and elapsed + statistics.median(step_times) > self.seconds:
                break
            step_start = time.perf_counter()
            for traced in self.rng.sample(step_kinds, len(step_kinds)):
                if self.workload.warm:
                    self.iteration(self.rng.choice(dirs), traced)
                else:
                    cwd = self.set_up()
                    self.iteration(cwd, traced)
                    shutil.rmtree(cwd)
            steps += 1
            step_times.append(time.perf_counter() - step_start)
        return self.result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def high_percentile(samples):
    """The highest of p99 and p90 with at least ten samples beyond it."""
    for label, q in (("p99", 0.99), ("p90", 0.90)):
        if len(samples) * (1 - q) >= 10:
            cuts = statistics.quantiles(samples, n=100)
            return label, cuts[round(q * 100) - 1]
    return None


def layer_values(res: RunResult) -> dict[str, tuple[float, str]]:
    values = {
        name: (statistics.median(layer[name] for layer in res.layers),
               tracing.metric_unit(name))
        for name in tracing.LAYER_METRICS
    }
    values["trace.overhead_ratio"] = (
        statistics.median(res.traced_wall) / statistics.median(res.wall), "ratio")
    return values


def summarize(name: str, res: RunResult, trace: bool) -> dict:
    """Print the human-readable summary; return the result metrics."""
    print(f"== {name}: {res.attempted} invocations attempted, {res.failed} failed")
    print(f"  fail_frac    {res.failed / res.attempted:.4f}  "
          f"(of {res.attempted} attempted)")
    metrics = {}
    samples_by_metric = {"wall_s": res.wall, "cpu_s": res.cpu,
                         "peak_rss_mb": res.rss_mb, "setup_s": res.setup}
    for metric, unit in END_TO_END:
        samples = samples_by_metric[metric]
        value = statistics.median(samples)
        line = f"  {metric:<12} {value:.4f} {unit}  median of n={len(samples)}"
        high = high_percentile(samples)
        if high:
            line += f", {high[0]} {high[1]:.4f} {unit}"
        print(line)
        if not trace:
            metrics[metric] = {"value": value, "unit": unit}
    if trace:
        for metric, (value, unit) in layer_values(res).items():
            print(f"  {metric:<55} {value:.6g} {unit}  median of n={len(res.layers)}")
            metrics[metric] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bpcentre" / "cli_report.py").is_file():
        print(f"bpcentre sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pins = load_pins()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    RUN_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="bench-", dir=RUN_ROOT))
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            runner = Runner(name, WORKLOADS[name], pins, args.seed, args.seconds,
                            bool(args.trace), work_dir)
            res = runner.run()
            attempted += res.attempted
            failed += res.failed
            found = summarize(name, res, bool(args.trace))
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + key: value for key, value in found.items()})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            RUN_ROOT.rmdir()
        except OSError:
            pass
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
