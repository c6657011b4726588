"""qfidyn benchmark: seeded CLI workloads end to end, and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig2-ch8|qfi-ch10|fig1-2q|all \\
        --seed N --seconds S --trace 0|1

Every sample spawns `python -m qfidyn.cli ...` (through launch.py) with
PYTHONPATH=src in a fresh temporary directory, one child at a time (a closed
loop with one client), with the child's BLAS at its default thread count.
Every sample's tables are checked (checker.py) against a dense oracle computed once per seed before the
timed samples (oracle.py).

--trace 0 reports the end-to-end metrics, each the first quartile of its
samples: wall_s (full command), setup_s (the same command cut to one
temperature point), peak_rss_mb; failed runs are the result's `failed`
count.  --trace 1 alternates untraced and traced passes (tracer.py), then
makes one traced pass with BLAS pinned to one thread, and reports the
per-layer metrics.  A human-readable report comes first; the last
stdout line is the JSON result.  See NOTES.md for why the workloads are these.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checker
import oracle
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
LAUNCH = Path(__file__).resolve().parent / "launch.py"

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Whole-run budget, below the 180 s a run may take; children are killed past it.
HARD_LIMIT_S = 170.0

# ROADMAP's 10-site baseline row (chain preset, beta = 1), in seconds, and the
# traced functions whose self times make up each stage.
BASELINE_10_SITES = (
    ("build H,O", 5.8, ("operators.build_xx_hamiltonian", "operators.local_generator")),
    ("diagonalize", 1.3, ("spectral.diagonalize",)),
    ("to_eigenbasis", 0.21, ("spectral.to_eigenbasis",)),
    ("trivial set", 0.44, ("dynsym.trivial_complete_set",)),
    ("qfi_from_dynsym", 0.51, ("metrology.qfi_from_dynsym",)),
)
T1_METRICS = ("operators.build_xx_hamiltonian", "spectral.diagonalize", "spectral.to_eigenbasis")

HOST_PROBE = """
import ctypes, json, platform, numpy, qfidyn.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libs = sorted({l.split()[-1] for l in open("/proc/self/maps") if "blas" in l.lower()})
for lib in libs:
    for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads"):
        f = getattr(ctypes.CDLL(lib), fn, None)
        if f is not None and threads is None:
            threads = int(f())
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}))
"""


@dataclass
class Sample:
    kind: str
    wall_s: float
    rss_mb: float
    cpu_s: float
    problem: str | None
    trace: dict | None = None


def child_env(threads=None):
    """Environment for a child: PYTHONPATH=src, BLAS default or pinned."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV and k != "QFIDYN_MAX_SITES"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if threads is not None:
        env.update(dict.fromkeys(BLAS_ENV, str(threads)))
    return env


def spawn(cmd, cwd, env, timeout):
    """Run one child in cwd through launch.py, which kills it after timeout.

    Returns (exit code, wall s from spawn to exit, peak RSS MB, user+sys s);
    the child's stdout and stderr land in cwd/stdout.csv and cwd/stderr.txt.
    """
    launcher = subprocess.run([sys.executable, str(LAUNCH), str(timeout), *cmd], cwd=cwd,
                              env=env, capture_output=True, check=True, timeout=timeout + 30)
    res = json.loads(launcher.stdout)
    return res["returncode"], res["wall_s"], res["maxrss_kb"] / 1024.0, res["cpu_s"]


def git_commit():
    """Commit of the checkout, read from .git without running git (or None)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


class Bench:
    """Runs and checks the samples of one seeded workload."""

    def __init__(self, workload, deadline, work):
        self.workload = workload
        self.deadline = deadline
        self.work = work
        self.expected = oracle.expected(workload)
        # One checker per BLAS thread count: the count changes the last
        # printed digits of comb.csv, so tables repeat only within one count.
        self.checkers = {}

    def probe(self, threads=None):
        """Host record from a child with the sample environment.  It also
        imports qfidyn, so a missing package shows before any timed sample,
        and fills the page and bytecode caches (where bytecode is written)."""
        run_dir = Path(tempfile.mkdtemp(dir=self.work))
        try:
            rc, *_ = spawn([sys.executable, "-c", HOST_PROBE], run_dir, child_env(threads),
                           self.deadline - time.perf_counter())
            text = (run_dir / "stdout.csv").read_text()
            return json.loads(text) if rc == 0 else {"probe_failed": rc}
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def sample(self, kind, traced=False, threads=None):
        cmd_argv = (self.workload.full if kind == "full" else self.workload.setup).argv
        if traced:
            cmd = [sys.executable, str(TRACER), "spans.json", *cmd_argv]
        else:
            cmd = [sys.executable, "-m", "qfidyn.cli", *cmd_argv]
        run_dir = Path(tempfile.mkdtemp(dir=self.work))
        try:
            rc, wall, rss_mb, cpu_s = spawn(cmd, run_dir, child_env(threads),
                                            self.deadline - time.perf_counter())
            check = self.checkers.setdefault(
                threads, checker.Checker(self.workload, self.expected))
            problem = check.check(kind, run_dir, rc)
            if problem and rc != 0:
                tail = (run_dir / "stderr.txt").read_text(errors="replace").strip()
                problem += f": {tail.splitlines()[-1]}" if tail else ""
            trace = None
            if traced and (run_dir / "spans.json").is_file():
                trace = json.loads((run_dir / "spans.json").read_text())
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        return Sample(kind, wall, rss_mb, cpu_s, problem, trace)


def tail_of(values):
    """Highest percentile with at least ten samples beyond it, else the max."""
    xs = sorted(values)
    n = len(xs)
    for p in (99, 95, 90, 75, 50):
        k = math.ceil(p / 100 * n) - 1
        if n - 1 - k >= 10:
            return f"p{p}", xs[k]
    return "max", xs[-1]


def lower_quartile(values):
    """First quartile, interpolated between samples (the sample itself if one).

    The end-to-end value of a run.  Other tenants of the host slow the
    child in phases of seconds to minutes, by up to 2x; a phase covers from
    none to all of a run's samples, so the run's median jumps between the
    fast and the slow mode.  The first quartile stays in the fast mode
    unless three quarters of the run are slowed."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def stat_line(name, unit, values):
    label, tail = tail_of(values)
    return (f"  {name:<12} {unit:<6} n={len(values):<3} q1={lower_quartile(values):<10.4f}"
            f" median={statistics.median(values):<10.4f} {label}={tail:.4f}")


def rounds(seconds):
    """Yield once per round while the next round, as long as the last one,
    would end within `seconds`; at least one round runs.  A run then ends
    near `seconds` rather than up to a round past it."""
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        yield
        now = time.perf_counter()
        if now + (now - begin) - start > seconds:
            return


def measure(bench, seconds):
    """Alternate full and set-up samples for `seconds`.

    One set-up sample per full one keeps most of the run for the full
    samples, whose first quartile is wall_s."""
    samples = []
    for _ in rounds(seconds):
        samples.append(bench.sample("full"))
        if bench.workload.setup is not None:
            samples.append(bench.sample("setup"))
    return samples


def end_to_end(workload, samples):
    """First quartiles over the samples that passed (all samples if none did)."""
    good = [s for s in samples if s.problem is None] or samples
    full = [s for s in good if s.kind == "full"]
    setup = [s for s in good if s.kind == "setup"] if workload.setup is not None else full
    series = {
        "wall_s": ("s", [s.wall_s for s in full]),
        "setup_s": ("s", [s.wall_s for s in setup]),
        "peak_rss_mb": ("MB", [s.rss_mb for s in full]),
    }
    failed = sum(s.problem is not None for s in samples)
    lines = [stat_line(k, unit, v) for k, (unit, v) in series.items()]
    lines.append(f"  {'failed_frac':<12} {'ratio':<6} n={len(samples):<3} "
                 f"value={failed / len(samples):.4f}")
    metrics = {k: {"value": lower_quartile(v), "unit": unit} for k, (unit, v) in series.items()}
    return metrics, lines


def trace_metrics(trace, wall):
    """Per-layer metrics of one traced pass."""
    self_s, calls, top_s = tracer.self_times(trace)
    out = {}
    for name in tracer.NAMES:
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
    out.update(trace["counters"])
    dim2 = trace["counters"]["spectral.dim"] ** 2
    for name in ("metrology.qfi_from_dynsym", "metrology.qfi_spectral"):
        t = self_s[name]
        out[f"{name}.pairs_per_s"] = dim2 * calls[name] / t if t > 0 else 0.0
    out["cli.self_s"] = wall - top_s
    out["trace.wall_s"] = wall
    return out


# name -> unit of every per-layer metric, in report order.
PER_LAYER_UNITS = {
    **{f"{n}.{suffix}": unit for n in tracer.NAMES
       for suffix, unit in (("self_s", "s"), ("calls", "count"))},
    **dict.fromkeys(tracer.COUNTER_NAMES, "count"),
    "metrology.qfi_from_dynsym.pairs_per_s": "1/s",
    "metrology.qfi_spectral.pairs_per_s": "1/s",
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.errors": "count",
    "trace.missing": "count",
    **{f"{n}.self_s.t1": "s" for n in T1_METRICS},
}


def measure_traced(bench, seconds):
    """Untraced/traced pairs for `seconds`, then a 1-thread pass."""
    plain, traced = [], []
    for _ in rounds(seconds):
        plain.append(bench.sample("full"))
        traced.append(bench.sample("full", traced=True))
    pinned = bench.sample("full", traced=True, threads=1)
    return plain, traced, pinned


def per_layer(workload, plain, traced, pinned):
    passes = [trace_metrics(s.trace, s.wall_s) for s in traced if s.trace is not None]
    lines = []
    if not passes:
        lines.append("  no traced pass produced spans")
        passes = [dict.fromkeys(PER_LAYER_UNITS, 0.0)]
    values = {k: statistics.median([p[k] for p in passes]) for k in passes[0]}
    untraced_wall = statistics.median([s.wall_s for s in plain])
    values["trace.overhead_frac"] = values["trace.wall_s"] / untraced_wall - 1.0
    values["cli.cpu_s"] = statistics.median([s.cpu_s for s in plain])
    traces = [s.trace for s in traced + [pinned] if s.trace is not None]
    values["trace.errors"] = sum(t["errors"] for t in traces)
    missing = sorted({m for t in traces for m in t["missing"]})
    values["trace.missing"] = len(missing)
    t1 = trace_metrics(pinned.trace, pinned.wall_s) if pinned.trace is not None else {}
    for name in T1_METRICS:
        values[f"{name}.self_s.t1"] = t1.get(f"{name}.self_s", 0.0)

    # Self times partition each pass's spans, so with cli.self_s they must
    # add up to that pass's traced wall; a residual means overlapping spans.
    residual = max(abs(sum(p[f"{n}.self_s"] for n in tracer.NAMES) + p["cli.self_s"]
                       - p["trace.wall_s"]) for p in passes)
    lines.append(f"  traced passes={len(passes)}  untraced passes={len(plain)}  "
                 f"traced wall={values['trace.wall_s']:.4f} s  untraced wall={untraced_wall:.4f} s")
    lines.append(f"  layer self times + cli.self_s account for each traced wall "
                 f"to within {residual:.1e} s")
    if missing:
        lines.append(f"  missing (not found in qfidyn): {', '.join(missing)}")
    if any(t.get("counter_errors") for t in traces):
        lines.append("  some counters could not be read from return values")
    for name, unit in PER_LAYER_UNITS.items():
        lines.append(f"  {name:<48} {unit:<6} {values[name]:.6g}")
    if workload.name == "qfi-ch10":
        lines.extend(reconcile(passes))
    metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    return metrics, lines


def reconcile(passes):
    """Traced qfi-ch10 stage times next to ROADMAP's 10-site baseline row."""
    lines = ["  stage vs ROADMAP 10-site baseline (median, spread = range over traced passes):"]
    for stage, base, names in BASELINE_10_SITES:
        per_pass = [sum(p[f"{n}.self_s"] for n in names) for p in passes]
        med = statistics.median(per_pass)
        spread = max(per_pass) - min(per_pass)
        verdict = "matches" if abs(med - base) <= spread else "DIFFERS"
        lines.append(f"    {stage:<16} {med:8.4f} s  spread {spread:.4f} s  "
                     f"baseline {base:.2f} s  {verdict} ({med / base - 1:+.0%})")
    return lines


def run_workload(name, seed, seconds, trace, work, deadline):
    """Measure one workload; return (attempted, failed, metrics, report lines, record)."""
    workload = workloads.make(name, seed)
    t0 = time.perf_counter()
    bench = Bench(workload, deadline, work)
    oracle_s = time.perf_counter() - t0
    host = {"nproc": os.cpu_count(), "commit": git_commit(), **bench.probe()}
    if trace:
        plain, traced, pinned = measure_traced(bench, seconds)
        host["blas_threads_t1"] = bench.probe(threads=1).get("blas_threads")
        samples = plain + traced + [pinned]
        metrics, lines = per_layer(workload, plain, traced, pinned)
    else:
        samples = measure(bench, seconds)
        metrics, lines = end_to_end(workload, samples)
    failed = [s for s in samples if s.problem is not None]
    header = [
        f"workload {name}  seed {seed}  trace {trace}  seconds {seconds}  oracle {oracle_s:.2f} s",
        "  full:  python -m qfidyn.cli " + " ".join(workload.full.argv),
    ]
    if workload.setup is not None:
        header.append("  setup: python -m qfidyn.cli " + " ".join(workload.setup.argv))
    header.append("  host: " + json.dumps(host))
    lines = header + lines + [f"  FAILED {s.kind}: {s.problem}" for s in failed[:5]]
    record = {
        "workload": name, "seed": seed, "trace": trace,
        "argv": list(workload.full.argv),
        "setup_argv": list(workload.setup.argv) if workload.setup else None,
        "host": host,
        "samples": [[s.kind, s.wall_s, s.rss_mb, s.problem] for s in samples],
    }
    return len(samples), len(failed), metrics, lines, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qfidyn" / "cli.py").is_file():
        print(f"perfbench: no qfidyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        for name in names:
            n, bad, wl_metrics, lines, record = run_workload(
                name, args.seed, args.seconds, args.trace, work,
                deadline=time.perf_counter() + HARD_LIMIT_S)
            attempted += n
            failed += bad
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in wl_metrics.items()})
            print("\n".join(lines))
            print(json.dumps({"record": record}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
