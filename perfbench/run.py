"""Benchmark of the openbilliards pipeline: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the program is used from ``src``):

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 15 --trace 0

Workloads (one process at a time, closed loop, one client):

  cli-session  the reference configuration through the CLI in a fresh output
               dir: ``sweep`` on an empty cache, then ``spectrum`` on the
               warm cache (three times, for the median). Most of the cold
               command is the dense eigensolve.
  dense-sweep  a disordered cavity (asymmetric walls) at the same basis,
               its disorder seed picked by ``--seed`` from a recorded list. Set-up solves it through ``solve-cavity``; ``sweep``
               at 2000 points runs on the warm cache; the timed
               region loads the cache, sweeps 20000 points, takes spectra
               over five windows and writes the sweep CSV and t-store. No
               eigensolve is timed; leads and scattering do the work.
  pair-scan    set-up solves the 10x6 reference cavity through
               ``solve-cavity``. ``two-body`` runs at a passing quadrature
               order on an empty and on a warm cache. The timed region
               computes pair energies of 6 states over seeded Gaussian widths
               at quadrature orders 32 and 40 and the 1D barrier check on a
               seeded energy grid. The only workload that runs ``twobody``
               and ``oned``.

With ``--trace 0`` the last line holds the end-to-end metrics, measured with
tracing off. With ``--trace 1`` the run makes one untraced and one traced
pass of the same steps plus a single-thread solve, and the last line holds
the per-layer metrics (see NOTES.md). Earlier lines are a readable report.

The runner process uses the standard library only; every step of the
program runs in a child process whose wall time and own peak RSS are taken
with ``os.wait4``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from tracing import SpanTree, median, percentile_summary  # noqa: E402

WORKLOADS = ("cli-session", "dense-sweep", "pair-scan")
# One run must end within 180 s; children get what is left of this budget.
RUN_BUDGET_S = 175.0
# Set-up passes per run, reporting the median. dense-sweep's set-up is a
# 15 s eigensolve, so it gets two. The passes of a traced run make one.
SETUPS = {"cli-session": 3, "dense-sweep": 2, "pair-scan": 3}
# Commands that take a few seconds run this many times per run and report
# the median: one such command varies by 15-30% between runs on a shared
# 2-core host, mostly interpreter start-up and import. The repeats only
# steady the median; cli-session's `wall_s` counts one warm command, the
# median one.
CLI_REPEATS = {"cli-session": 3, "dense-sweep": 3, "pair-scan": 3}

REFERENCE_CAVITY = {"kind": "reference", "samples": 2048}
REFERENCE_BASIS = {"m_max": 90, "n_max": 50, "k_keep": 3000}

# The ROADMAP reference workload: the CLI defaults at the seed commit,
# written out so that a change of defaults does not change the workload.
CLI_SESSION_CONFIG = {
    "geometry": REFERENCE_CAVITY,
    "basis": REFERENCE_BASIS,
    "sweep": {"k_min": 1.0, "k_max": 19.0, "points": 2000},
    "spectra": {"windows": [{"k_min": 6.0, "k_max": 9.0, "n_modes": 6}], "pad_factor": 8},
}

DENSE_POINTS = 20000
DENSE_WARM_POINTS = 2000
DENSE_WINDOWS = [(3.0, 6.0, 3), (6.0, 9.0, 6), (9.0, 12.0, 9), (12.0, 15.0, 12), (15.0, 18.0, 15)]
# Disorder seeds whose eigenvalues and T are recorded in reference.json;
# the benchmark's --seed picks one of them.
DENSE_DISORDER_SEEDS = tuple(range(1, 11))
# T is recorded at DENSE_REF_POINTS evenly spaced points of each grid and
# at its last point (which fixes the sweep's channel count).
DENSE_REF_POINTS = 200


def disorder_seed(seed: int) -> int:
    return DENSE_DISORDER_SEEDS[seed % len(DENSE_DISORDER_SEEDS)]


def reference_indices(points: int) -> list[int]:
    return list(range(0, points - 1, max(1, points // DENSE_REF_POINTS))) + [points - 1]


def dense_config(seed: int) -> dict:
    disorder = {"roughness": 0.2, "pieces": 100, "seed": disorder_seed(seed)}
    return {
        "geometry": dict(REFERENCE_CAVITY, disorder=disorder),
        "basis": REFERENCE_BASIS,
        "sweep": {"k_min": 1.0, "k_max": 19.0, "points": DENSE_POINTS},
        "spectra": {
            "windows": [{"k_min": lo, "k_max": hi, "n_modes": n} for lo, hi, n in DENSE_WINDOWS],
            "pad_factor": 8,
        },
    }


# The CLI default quad_order (16) fails its own order check on this cavity
# (NOTES.md, program defects), so the commands run at 32, which passes.
PAIR_CLI_ORDER = 32
PAIR_CONFIG = {
    "geometry": REFERENCE_CAVITY,
    "basis": {"m_max": 10, "n_max": 6, "k_keep": 60},
    "two_body": {"states": 6, "quad_order": PAIR_CLI_ORDER,
                 "potential": {"kind": "gaussian", "strength": 1.0, "width": 0.5}},
}
PAIR_PARAMS = {
    "strength": 1.0,
    # Every width here passes the order check at q=32 and 40 (and fails it
    # at 16 and 24, which are therefore not run).
    "width_range": [0.35, 0.6],
    "orders": [32, 40],
    "v0": 1.0,
    "m_trunc": 1000,
    "e_min": 0.1,
    "e_max": 20.0,
    "energies": 10000,
}

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cold_cli_s", "s"),
    ("warm_cli_s", "s"),
    ("sweep_points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("warm_peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("geometry.profile_s", "s", "lower"),
    ("cavity.assemble_s", "s", "lower"),
    ("cavity.assemble_maxrss_mb", "MB", "lower"),
    ("cavity.matrix_bytes", "bytes", "lower"),
    ("cavity.eigensolve_s", "s", "lower"),
    ("cavity.eigensolve_1t_s", "s", "lower"),
    ("cavity.basis_size", "count", "lower"),
    ("cavity.k_keep", "count", "lower"),
    ("cavity.save_s", "s", "lower"),
    ("cavity.cache_bytes_written", "bytes", "lower"),
    ("cavity.load_s", "s", "lower"),
    ("cavity.cache_bytes_read", "bytes", "lower"),
    ("leads.overlaps_s", "s", "lower"),
    ("leads.r_matrix_s", "s", "lower"),
    ("leads.r_matrix_calls", "count", "lower"),
    ("leads.channel_space_s", "s", "lower"),
    ("scattering.sweep_s", "s", "lower"),
    ("scattering.smatrix_s", "s", "lower"),
    ("scattering.smatrix_calls", "count", "higher"),
    ("scattering.sweep_self_s", "s", "lower"),
    ("scattering.points_requested", "count", "higher"),
    ("scattering.points_computed", "count", "higher"),
    ("scattering.skipped_threshold", "count", "lower"),
    ("scattering.skipped_pole", "count", "lower"),
    ("scattering.point_yield", "1", "higher"),
    ("scattering.write_s", "s", "lower"),
    ("scattering.tstore_bytes", "bytes", "lower"),
    ("spectra.series_s", "s", "lower"),
    ("spectra.transform_s", "s", "lower"),
    ("spectra.peaks_s", "s", "lower"),
    ("spectra.write_s", "s", "lower"),
    ("twobody.pair_s", "s", "lower"),
    ("twobody.calls", "count", "higher"),
    ("twobody.check_failures", "count", "lower"),
    ("twobody.grid_points", "count", "lower"),
    ("twobody.potential_matrix_bytes", "bytes", "lower"),
    ("twobody.maxrss_mb", "MB", "lower"),
    ("oned.transmission_s", "s", "lower"),
    ("oned.energies", "count", "higher"),
    ("oned.pole_skips", "count", "lower"),
    ("oned.max_abs_dT", "1", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.nonzero_exits", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.wall_coverage", "1", "higher"),
    ("failed_frac", "1", "lower"),
]

# Program functions the per-layer metrics are read from. One that a later
# change removes is reported as absent and its metrics read 0.
TRACED_NAMES = (
    "cavity.assemble_hamiltonian", "cavity.solve_cavity", "cavity.save_solution",
    "cavity.load_solution", "leads.overlaps", "leads.r_matrix", "leads.channel_space",
    "scattering.sweep_conductance", "scattering.s_from_r", "scattering.write_sweep_csv",
    "scattering.write_t_store", "spectra.uniform_series", "spectra.length_spectrum",
    "spectra.peak_positions", "spectra.write_power_csv", "spectra.write_amplitude_csv",
    "twobody.interaction_block", "oned.rmatrix_transmission", "oned.exact_transmission",
    "cli.main", "cli.get_solution",
)


class BenchError(RuntimeError):
    """A step could not be measured (the program or the checkout is broken)."""


class Run:
    """Child processes, work directories and operation counts of one run."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.tag = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.dir = root / ".perfbench_run" / self.tag
        self.dir.mkdir(parents=True, exist_ok=True)
        self.threads = max(1, min(2, len(os.sched_getaffinity(0))))
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.nonzero_exits = 0
        self._count = 0

    # -- processes ---------------------------------------------------------

    def child_env(self, threads: int) -> dict:
        env = dict(os.environ)
        env.pop("OPENBILLIARDS_CACHE", None)
        env["PYTHONPATH"] = str(self.root / "src")
        env["OPENBLAS_NUM_THREADS"] = str(threads)
        env["OMP_NUM_THREADS"] = str(threads)
        return env

    def child(self, label: str, request: dict, threads: int | None = None) -> dict:
        """Run one child step; return its wall time, own peak RSS, exit code and result."""
        self._count += 1
        stem = self.dir / f"{self._count:03d}-{label}"
        req_path, res_path, log_path = (stem.with_suffix(s) for s in (".req.json", ".res.json", ".log"))
        req_path.write_text(json.dumps(dict(request, run_id=self.tag)), encoding="utf-8")
        remaining = RUN_BUDGET_S - (time.perf_counter() - self.started)
        if remaining <= 1.0:
            raise BenchError(f"run budget of {RUN_BUDGET_S:.0f} s spent before step {label}")
        argv = [sys.executable, str(HERE / "child.py"), str(req_path), str(res_path)]
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.child_env(threads or self.threads),
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            )
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        if wall >= remaining:
            raise BenchError(f"step {label} killed after {remaining:.0f} s, the rest of the run budget")
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {}
        if res_path.is_file():
            result = json.loads(res_path.read_text(encoding="utf-8"))
        return {
            "label": label,
            "wall": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "rc": proc.returncode,
            "result": result,
            "log": log_path,
        }

    def require(self, rec: dict) -> dict:
        if rec["rc"] != 0:
            tail = rec["log"].read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"step {rec['label']} exited {rec['rc']}:\n{tail}")
        return rec

    def cli(self, label, config_path, outdir, command, *extra, trace=False) -> dict:
        """One CLI command; a non-zero exit is a failed operation, not an error."""
        argv = ["--config", str(config_path), "--output-dir", str(outdir), *extra, command]
        rec = self.child(label, {"kind": "cli", "trace": trace, "argv": argv})
        if "import_s" not in rec["result"]:
            self.require(rec)  # the program did not even import
        self.attempted += 1
        if rec["rc"] != 0:
            self.failed += 1
            self.nonzero_exits += 1
        return rec

    # -- files -------------------------------------------------------------

    def fresh_dir(self, name: str) -> Path:
        path = self.dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def write_config(self, name: str, config: dict) -> Path:
        path = self.dir / name
        # JSON is YAML; the CLI reads it with yaml.safe_load.
        path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        return path

    def count_sweep(self, calls):
        for call in calls:
            self.attempted += call["requested"]
            self.failed += sum(call["skipped"].values())


def sweep_calls(rec: dict) -> list[dict]:
    """sweep_conductance calls of a child: duration plus point counts."""
    out = []
    for span in rec["result"].get("spans", []):
        if span[0] == "scattering.sweep_conductance" and span[5] and "requested" in span[5]:
            out.append(dict(span[5], seconds=span[2] - span[1]))
    return out


def solution_levels(rec: dict) -> list[float] | None:
    for span in rec["result"].get("spans", []):
        if span[0] == "cli.get_solution" and span[5] and "energies" in span[5]:
            return span[5]["energies"]
    return None


def hook_errors(records) -> list[str]:
    """Counts that could not be read because a program result changed shape."""
    return sorted({f"{span[0]}: {span[5]['hook_error']}" for rec in records
                   for span in rec["result"].get("spans", []) if span[5] and "hook_error" in span[5]})


# ---------------------------------------------------------------------------
# Workloads. Each returns samples of the end-to-end quantities plus the
# child records the per-layer analysis reads.
# ---------------------------------------------------------------------------

def new_samples():
    return {key: [] for key in ("setup", "wall", "cold", "warm", "rate", "rss", "warm_rss")} | {
        "children": [],
        "timed": [],
    }


def cli_session(run: Run, trace: bool, full: bool, reference: dict) -> dict:
    s = new_samples()
    setups = SETUPS[run.workload] if full else 1
    config = run.write_config("cli-session.yaml", CLI_SESSION_CONFIG)
    for _ in range(setups):
        start = time.perf_counter()
        run.fresh_dir("session")
        rec = run.require(run.child("setup", {"kind": "probe"}))
        s["setup"].append(time.perf_counter() - start)
        s["rss"].append(rec["rss_mb"])
        s["env"] = rec["result"]["env"]
        s["children"].append(rec)
    ref = reference["cli_session"]
    start = time.perf_counter()
    while True:
        outdir = run.fresh_dir("session")
        cold = run.cli("cold_cli", config, outdir, "sweep", trace=trace)
        results = []
        if cold["rc"] == 0:
            k, t, n, d = checks.sweep_points(outdir / "sweep.csv")
            results += checks.check_sweep(k, t, n, d, "cli sweep.csv")
            results += checks.check_transmission_reference(k, t, ref, "cli sweep.csv")
        commands = [cold]
        for _ in range(CLI_REPEATS[run.workload] if full else 1):
            warm = run.cli("warm_cli", config, outdir, "spectrum", trace=trace)
            commands.append(warm)
            s["warm"].append(warm["wall"])
            s["warm_rss"].append(warm["rss_mb"])
            if warm["rc"] == 0:
                peaks, step = checks.spectrum_peaks(outdir / "power_6-9.csv")
                results += checks.check_peaks(peaks, ref["peaks"]["6-9"], step, "cli power_6-9.csv")
        s["cold"].append(cold["wall"])
        # One sweep and one spectrum, as a user runs them; the warm repeats
        # only steady the figure.
        s["wall"].append(cold["wall"] + median([rec["wall"] for rec in commands[1:]]))
        for rec in commands:
            s["rss"].append(rec["rss_mb"])
            calls = sweep_calls(rec)
            run.count_sweep(calls)
            if calls:
                s["rate"].append(sum(c["requested"] for c in calls) / sum(c["seconds"] for c in calls))
            levels = solution_levels(rec)
            if levels is not None:
                results += checks.check_relative(
                    f"{rec['label']}: lowest eigenvalues vs reference", levels, ref["energies"],
                    checks.ENERGY_REF_RTOL,
                )
        s["children"] += commands
        s["timed"] += commands
        exits = [rec["rc"] for rec in commands]
        if any(exits):
            results.append(checks.result("cli commands exit 0", False, f"exits {exits}"))
        run.checks.extend(results)
        shutil.rmtree(outdir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if elapsed + s["wall"][-1] > run.seconds:
            break
    return s


def dense_sweep(run: Run, trace: bool, full: bool, reference: dict) -> dict:
    s = new_samples()
    setups = SETUPS[run.workload] if full else 1
    config = run.write_config("dense-sweep.yaml", dense_config(run.seed))
    ref = reference["dense_sweep"][str(disorder_seed(run.seed))]
    workdir = None
    for i in range(setups):
        start = time.perf_counter()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
        workdir = run.fresh_dir(f"setup{i}")
        cold = run.require(run.cli("cold_cli", config, workdir, "solve-cavity", trace=trace))
        (workdir / "energies.csv").rename(workdir / "energies_cold.csv")
        s["setup"].append(time.perf_counter() - start)
        s["cold"].append(cold["wall"])
        s["rss"].append(cold["rss_mb"])
        s["children"].append(cold)
    cold_levels = checks.read_table(workdir / "energies_cold.csv")[1]["energy"]
    run.checks.extend(checks.check_relative(
        "solve-cavity: lowest eigenvalues vs reference", cold_levels[: len(ref["energies"])],
        ref["energies"], checks.ENERGY_REF_RTOL,
    ))
    for _ in range(CLI_REPEATS[run.workload] if full else 1):
        # A coarse sweep on the cached cavity: a warm command that does some
        # work, so that interpreter start-up does not dominate it.
        warm = run.cli("warm_cli", config, workdir, "sweep", "--set",
                       f"sweep.points={DENSE_WARM_POINTS}", trace=trace)
        s["warm"].append(warm["wall"])
        s["warm_rss"].append(warm["rss_mb"])
        s["rss"].append(warm["rss_mb"])
        s["children"].append(warm)
        run.count_sweep(sweep_calls(warm))
        if warm["rc"] != 0:
            run.checks.append(checks.result("warm sweep exits 0", False, f"exit {warm['rc']}"))
            continue
        k, t, n, d = checks.sweep_points(workdir / "sweep.csv")
        run.checks.extend(checks.check_sweep(k, t, n, d, "warm sweep.csv"))
        run.checks.extend(checks.check_transmission_reference(
            k, t, ref["sweeps"][str(DENSE_WARM_POINTS)], "warm sweep.csv"))
        levels = solution_levels(warm) or []
        run.checks.extend(checks.check_relative(
            "warm sweep: loaded eigenvalues vs cold solve", levels,
            cold_levels[: len(levels)] if levels else cold_levels, checks.PRINTED_RTOL,
        ))

    request = {"kind": "dense", "trace": trace, "config": str(config), "workdir": str(workdir),
               "seconds": run.seconds, "reference": ref["sweeps"][str(DENSE_POINTS)]}
    timed = run.require(run.child("timed", request))
    s["env"] = timed["result"]["env"]
    s["children"].append(timed)
    s["timed"].append(timed)
    s["rss"].append(timed["rss_mb"])
    s["mirror_defect"] = timed["result"]["mirror_defect"]
    for unit in timed["result"]["units"]:
        s["wall"].append(unit["wall_s"])
        s["rate"].append(unit["requested"] / unit["sweep_s"])
        run.attempted += unit["requested"] + unit["windows"]
        run.failed += sum(unit["skipped"].values())
        run.checks.extend(unit["checks"])
    shutil.rmtree(workdir, ignore_errors=True)
    return s


def pair_scan(run: Run, trace: bool, full: bool, reference: dict) -> dict:
    s = new_samples()
    setups = SETUPS[run.workload] if full else 1
    ref = reference["pair_scan"]
    config = run.write_config("pair-scan.yaml", PAIR_CONFIG)
    workdir = None
    for i in range(setups):
        start = time.perf_counter()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
        workdir = run.fresh_dir(f"setup{i}")
        rec = run.require(run.cli("setup_cli", config, workdir, "solve-cavity", trace=trace))
        s["setup"].append(time.perf_counter() - start)
        s["rss"].append(rec["rss_mb"])
        s["children"].append(rec)

    for _ in range(CLI_REPEATS[run.workload] if full else 1):
        # An empty cache (the command solves the cavity), then the warm one.
        outdir = run.fresh_dir("pair-cli")
        for label in ("cold_cli", "warm_cli"):
            rec = run.cli(label, config, outdir, "two-body", trace=trace)
            s[label.split("_")[0]].append(rec["wall"])
            s["rss"].append(rec["rss_mb"])
            s["children"].append(rec)
            name = f"two-body {label} q={PAIR_CLI_ORDER}"
            if rec["rc"] != 0:
                run.checks.append(checks.result(f"{name}: exits 0", False, f"exit {rec['rc']}"))
                continue
            energies = checks.read_table(outdir / "pair_energies.csv")[1]["E_pair"]
            run.checks.extend(checks.check_relative(
                f"{name}: pair energies vs reference", energies, ref["cli_pair_energies"],
                checks.PAIR_REF_RTOL,
            ))
            run.checks.extend(checks.check_pair_energies(energies, ref["cli_free_energies"], name))
        s["warm_rss"].append(rec["rss_mb"])
        shutil.rmtree(outdir, ignore_errors=True)

    request = {"kind": "pair", "trace": trace, "config": str(config), "workdir": str(workdir),
               "seed": run.seed, "seconds": run.seconds, "params": PAIR_PARAMS,
               "reference_levels": ref["cavity_energies"]}
    timed = run.require(run.child("timed", request))
    result = timed["result"]
    s["env"] = result["env"]
    s["children"].append(timed)
    s["timed"].append(timed)
    s["rss"].append(timed["rss_mb"])
    run.checks.extend(result["load_checks"])
    for unit in result["units"]:
        s["wall"].append(unit["wall_s"])
        s["rate"].append(unit["energies"] / unit["sweep_1d_s"])
        run.attempted += unit["pair_calls"] + unit["energies"]
        run.failed += len(unit["pair_failures"]) + unit["pole_skips"]
        run.checks.extend(unit["checks"])
    s["pair_units"] = result["units"]
    shutil.rmtree(workdir, ignore_errors=True)
    return s


RUNNERS = {"cli-session": cli_session, "dense-sweep": dense_sweep, "pair-scan": pair_scan}
CONFIGS = {
    "cli-session": lambda seed: CLI_SESSION_CONFIG,
    "dense-sweep": dense_config,
    "pair-scan": lambda seed: PAIR_CONFIG,
}


def end_to_end(s: dict) -> dict:
    return {
        "setup_s": s["setup"],
        "wall_s": s["wall"],
        "cold_cli_s": s["cold"],
        "warm_cli_s": s["warm"],
        "sweep_points_per_s": s["rate"],
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced pass
# ---------------------------------------------------------------------------

def layer_metrics(traced: dict, untraced: dict, solve_1t: dict, run: Run) -> tuple[dict, dict]:
    trees = [SpanTree(rec["result"].get("spans", [])) for rec in traced["children"]]

    def incl(*names):
        return sum(t.inclusive(names) for t in trees)

    def module_incl(module):
        return sum(t.inclusive(t.module_names(module)) for t in trees)

    def spans_named(name):
        for t in trees:
            for i, span in enumerate(t.spans):
                if span[0] == name:
                    yield t, i, span

    def extra_max(name, key):
        return max((span[5][key] for _, _, span in spans_named(name) if span[5] and key in span[5]), default=0)

    def extra_sum(name, key):
        return sum(span[5][key] for _, _, span in spans_named(name) if span[5] and key in span[5])

    def calls(name, error=None):
        return sum(1 for _, _, span in spans_named(name) if error is None or span[4] == error)

    def eigensolve(trees_):
        total = 0.0
        for t in trees_:
            for i in t.outermost({"cavity.solve_cavity"}):
                inner = [j for j, span in enumerate(t.spans)
                         if span[0] == "cavity.assemble_hamiltonian" and i in t.ancestors(j)]
                total += t.duration(i) - sum(t.duration(j) for j in inner)
        return total

    sweeps = [span[5] for _, _, span in spans_named("scattering.sweep_conductance")
              if span[5] and "requested" in span[5]]
    requested = sum(c["requested"] for c in sweeps)
    computed = sum(c["computed"] for c in sweeps)
    orders = [span[5]["quad_order"] for _, _, span in spans_named("twobody.interaction_block")
              if span[5] and "quad_order" in span[5]]
    pair_units = traced.get("pair_units", [])
    imports = [rec["result"]["import_s"] for rec in traced["children"] if "import_s" in rec["result"]]
    cli_self = sum(t.self_time(i) for t in trees for i, span in enumerate(t.spans)
                   if span[0].split(".", 1)[0] == "cli")

    # The timed region: whole CLI processes (cli-session) or the unit steps
    # of the timed child. Coverage and layer shares are taken inside it.
    covered, timed_wall, shares = 0.0, 0.0, {}
    for rec in traced["timed"]:
        tree = SpanTree(rec["result"].get("spans", []))
        roots = [i for i, span in enumerate(tree.spans) if span[0] in ("step:cli", "step:unit")]
        covered += sum(tree.covered(i) for i in roots)
        timed_wall += rec["wall"] if rec["result"]["kind"] == "cli" else sum(tree.duration(i) for i in roots)
        for group in tracing.LAYERS + ("leads+scattering",):
            names = set().union(*(tree.module_names(m) for m in group.split("+")))
            inside = [i for i in tree.outermost(names) if tree.step_of(i) in ("cli", "unit")]
            shares[group] = shares.get(group, 0.0) + sum(tree.duration(i) for i in inside)

    m = {
        "geometry.profile_s": module_incl("geometry"),
        "cavity.assemble_s": incl("cavity.assemble_hamiltonian"),
        "cavity.assemble_maxrss_mb": extra_max("cavity.assemble_hamiltonian", "maxrss_mb"),
        "cavity.matrix_bytes": extra_max("cavity.assemble_hamiltonian", "matrix_bytes"),
        "cavity.eigensolve_s": eigensolve(trees),
        "cavity.eigensolve_1t_s": eigensolve([SpanTree(solve_1t["result"].get("spans", []))]),
        "cavity.basis_size": max(extra_max("cavity.solve_cavity", "basis_size"),
                                 extra_max("cavity.load_solution", "basis_size")),
        "cavity.k_keep": max(extra_max("cavity.solve_cavity", "k_keep"),
                             extra_max("cavity.load_solution", "k_keep")),
        "cavity.save_s": incl("cavity.save_solution"),
        "cavity.cache_bytes_written": extra_sum("cavity.save_solution", "bytes"),
        "cavity.load_s": incl("cavity.load_solution"),
        "cavity.cache_bytes_read": extra_sum("cavity.load_solution", "bytes"),
        "leads.overlaps_s": incl("leads.overlaps"),
        "leads.r_matrix_s": incl("leads.r_matrix"),
        "leads.r_matrix_calls": calls("leads.r_matrix"),
        "leads.channel_space_s": incl("leads.channel_space"),
        "scattering.sweep_s": incl("scattering.sweep_conductance"),
        "scattering.smatrix_s": incl("scattering.s_from_r"),
        "scattering.smatrix_calls": calls("scattering.s_from_r"),
        "scattering.sweep_self_s": sum(t.self_time(i) for t, i, _ in spans_named("scattering.sweep_conductance")),
        "scattering.points_requested": requested,
        "scattering.points_computed": computed,
        "scattering.skipped_threshold": sum(c["skipped"].get("threshold", 0) for c in sweeps),
        "scattering.skipped_pole": sum(c["skipped"].get("pole", 0) for c in sweeps),
        "scattering.point_yield": computed / requested if requested else 0.0,
        "scattering.write_s": incl("scattering.write_sweep_csv", "scattering.write_t_store"),
        "scattering.tstore_bytes": extra_sum("scattering.write_t_store", "bytes"),
        "spectra.series_s": incl("spectra.uniform_series"),
        "spectra.transform_s": incl("spectra.length_spectrum", "spectra.power_spectrum"),
        "spectra.peaks_s": incl("spectra.peak_positions"),
        "spectra.write_s": incl("spectra.write_power_csv", "spectra.write_amplitude_csv"),
        "twobody.pair_s": module_incl("twobody"),
        "twobody.calls": calls("twobody.interaction_block"),
        "twobody.check_failures": calls("twobody.interaction_block", "ArithmeticError"),
        # Computed: the (2q)^2-point grid of the order check at the largest
        # order, and its dense float64 potential matrix.
        "twobody.grid_points": (2 * max(orders)) ** 2 if orders else 0,
        "twobody.potential_matrix_bytes": (2 * max(orders)) ** 4 * 8 if orders else 0,
        "twobody.maxrss_mb": extra_max("twobody.interaction_block", "maxrss_mb"),
        "oned.transmission_s": module_incl("oned"),
        "oned.energies": calls("oned.rmatrix_transmission"),
        "oned.pole_skips": calls("oned.rmatrix_transmission", "IllConditionedEnergy"),
        "oned.max_abs_dT": max((u["max_abs_dT"] for u in pair_units), default=0.0),
        "cli.import_s": median(imports),
        "cli.self_s": cli_self,
        "cli.nonzero_exits": run.nonzero_exits,
        "trace.overhead_s": median(traced["wall"]) - median(untraced["wall"]),
        "trace.wall_coverage": covered / timed_wall if timed_wall else 0.0,
        "failed_frac": run.failed / run.attempted if run.attempted else 0.0,
    }

    # Report-only views: where the time of each step goes.
    report = {"absent": sorted(set(TRACED_NAMES) - wrapped_names(traced)), "steps": {}}
    for rec, tree in zip(traced["children"], trees):
        selfs: dict[str, float] = {}
        for i, span in enumerate(tree.spans):
            if not span[0].startswith(tracing.STEP_PREFIX):
                selfs[span[0]] = selfs.get(span[0], 0.0) + tree.self_time(i)
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:5]
        layer_share = {}
        for module in tracing.LAYERS:
            names = tree.module_names(module)
            if names:
                layer_share[module] = tree.inclusive(names)
        report["steps"].setdefault(rec["label"], []).append(
            {"wall_s": rec["wall"], "top_self_s": top, "module_inclusive_s": layer_share}
        )
    report["timed_share"] = {k: v / timed_wall for k, v in shares.items() if v and timed_wall}
    r_matrix = [t.duration(i) for t, i, _ in spans_named("leads.r_matrix")]
    if r_matrix:
        report["r_matrix_call_s"] = percentile_summary(r_matrix)
    return m, report


def wrapped_names(traced: dict) -> set[str]:
    names = set()
    for rec in traced["children"]:
        names |= set(rec["result"].get("wrapped", []))
    return names


# ---------------------------------------------------------------------------
# Environment, report, entry point
# ---------------------------------------------------------------------------

def host_environment(root: Path, threads: int) -> dict:
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "blas_threads": threads, "python": sys.version.split()[0]}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
        with open("/proc/meminfo", encoding="utf-8") as fh:
            env["mem_total"] = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("MemTotal")), None)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    env["git_commit"] = commit
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "openbilliards").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    env["program_sha256"] = digest.hexdigest()[:16]
    return env


def describe(name: str, samples: list[float], unit: str) -> str:
    summary = percentile_summary(samples)
    line = f"  {name} = {summary['median']:.6g} {unit}  (median of {summary['n']}"
    if "p" in summary:
        line += f"; p{summary['p']:g} = {summary['p_value']:.6g}"
    else:
        line += "; no percentile with 10 samples beyond it"
    return line + ")"


def execute(args, root: Path) -> tuple[dict, dict]:
    run = Run(root, args.workload, args.seed, float(args.seconds), bool(args.trace))
    reference = checks.load_reference()
    runner = RUNNERS[args.workload]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_environment(root, run.threads)}
    try:
        if not args.trace:
            s = runner(run, False, True, reference)
            values = {k: median(v) for k, v in end_to_end(s).items()}
            values["peak_rss_mb"] = max(s["rss"])
            values["warm_peak_rss_mb"] = max(s["warm_rss"])
            units = dict(END_TO_END)
            metrics = {k: {"value": values[k], "unit": units[k]} for k, _ in END_TO_END}
            report["samples"] = end_to_end(s) | {"rss_mb": s["rss"], "warm_rss_mb": s["warm_rss"]}
            lines = [describe(k, v, units[k]) for k, v in end_to_end(s).items()]
            lines += [f"  peak_rss_mb = {values['peak_rss_mb']:.1f} MB (max of {len(s['rss'])} processes)",
                      f"  warm_peak_rss_mb = {values['warm_peak_rss_mb']:.1f} MB"]
        else:
            untraced = runner(run, False, False, reference)
            traced = runner(run, True, False, reference)
            config = run.write_config("solve-1t.yaml", CONFIGS[args.workload](args.seed))
            solve_1t = run.require(run.child("solve_1t", {"kind": "solve", "trace": True,
                                                           "config": str(config)}, threads=1))
            s = traced
            values, layer_report = layer_metrics(traced, untraced, solve_1t, run)
            units = {name: unit for name, unit, _ in PER_LAYER}
            metrics = {k: {"value": values[k], "unit": units[k]} for k, _, _ in PER_LAYER}
            report["layers"] = layer_report
            spans_path = run.dir.parent / f"{args.workload}-seed{args.seed}-spans.json"
            spans_path.write_text(json.dumps({"run_id": run.tag, "children": [
                {"label": rec["label"], "spans": rec["result"].get("spans", [])}
                for rec in traced["children"] + [solve_1t]]}), encoding="utf-8")
            report["spans_file"] = spans_path.name
            lines = [f"  {k} = {values[k]:.6g} {units[k]}" for k, _, _ in PER_LAYER]
            for label, steps in layer_report["steps"].items():
                if steps[0]["top_self_s"]:
                    name, secs = steps[0]["top_self_s"][0]
                    lines.append(f"  largest self time in {label}: {name} {secs:.3f} s of {steps[0]['wall_s']:.3f} s")
            lines.append("  share of the timed region by layer: " + ", ".join(
                f"{k} {v:.1%}" for k, v in sorted(layer_report["timed_share"].items(), key=lambda kv: -kv[1])))
            if layer_report["absent"]:
                lines.append(f"  absent: {', '.join(layer_report['absent'])}")
        report["env"] = s.get("env")
        if "mirror_defect" in s:
            report["mirror_defect"] = s["mirror_defect"]
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    correct = all(c["pass"] for c in run.checks) and bool(run.checks)
    failed = run.failed if correct else run.attempted
    report["checks"] = run.checks
    report["failed_frac"] = failed / run.attempted if run.attempted else 0.0
    final = {"correct": correct, "attempted": run.attempted, "failed": failed, "metrics": metrics}
    report["result"] = final

    print(f"openbilliards benchmark: {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}, {run.threads} BLAS threads")
    print("\n".join(lines))
    env = dict(report["host"], **(report.get("env") or {}))
    print("  environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"  operations: {failed} failed of {run.attempted} (failed_frac {report['failed_frac']:.6g})")
    for error in hook_errors(s["children"]):
        print(f"  count not read: {error}")
    bad = [c for c in run.checks if not c["pass"]]
    print(f"  checks: {len(run.checks) - len(bad)} of {len(run.checks)} pass")
    for c in bad:
        print(f"    FAIL {c['name']}: {c['detail']}")
    return final, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "openbilliards" / "cli.py").is_file():
        print("error: run from the root of an openbilliards checkout (no src/openbilliards/cli.py)",
              file=sys.stderr)
        return 2
    try:
        final, report = execute(args, root)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    out = root / ".perfbench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
