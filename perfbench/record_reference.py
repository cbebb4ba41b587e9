"""Record the reference values the benchmark's output checks compare against.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=2 python3 perfbench/record_reference.py

It runs the cli-session commands, the dense-sweep solves and the pair-scan
CLI command in-process and writes perfbench/reference.json: T at every
computed point of the reference sweep, the lowest cavity eigenvalues, the
spectrum peaks; for each disorder seed of dense-sweep the lowest eigenvalues
and T at evenly spaced points of its two grids; and the pair energies and
10x6 eigenvalues of the pair-scan configuration. The dense-sweep solves take
most of its few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import checks
import run
import tracing
from child import environment


def record_dense(work: Path, levels: int) -> dict:
    """Lowest eigenvalues and T on coarse sub-grids of each dense-sweep cavity."""
    import numpy as np

    from openbilliards import cli, scattering

    out = {}
    for seed in range(len(run.DENSE_DISORDER_SEEDS)):
        config = run.dense_config(seed)
        path = work / "dense.yaml"
        path.write_text(json.dumps(config), encoding="utf-8")
        outdir = work / "dense"
        shutil.rmtree(outdir, ignore_errors=True)
        if cli.main(["--config", str(path), "--output-dir", str(outdir), "solve-cavity"]) != 0:
            raise SystemExit("solve-cavity failed")
        # Loaded from the cache, as the timed region does.
        solution = cli.get_solution(cli.load_config(str(path), [f"output_dir={outdir}"]))
        sweeps = {}
        for points in (run.DENSE_POINTS, run.DENSE_WARM_POINTS):
            grid = [config["sweep"]["k_min"], config["sweep"]["k_max"], points]
            indices = run.reference_indices(points)
            k = np.linspace(*grid)[indices]
            result = scattering.sweep_conductance(solution, k)
            computed = dict(zip(result.k.tolist(), result.transmission.tolist()))
            sweeps[str(points)] = {"grid": grid, "indices": indices,
                                   "T": [computed.get(float(kv)) for kv in k]}
        out[str(config["geometry"]["disorder"]["seed"])] = {
            "energies": solution.energies[:levels].tolist(),
            "sweeps": sweeps,
        }
        del solution
    shutil.rmtree(work / "dense", ignore_errors=True)
    return out


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench_run" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer(only=["cli.get_solution"])
    tracer.install()
    from openbilliards import cavity, cli, geometry

    config = work / "cli-session.yaml"
    config.write_text(json.dumps(run.CLI_SESSION_CONFIG), encoding="utf-8")
    base = ["--config", str(config), "--output-dir", str(work / "session")]
    for command in ("sweep", "spectrum"):
        if cli.main(base + [command]) != 0:
            raise SystemExit(f"{command} failed")
    sweep = run.CLI_SESSION_CONFIG["sweep"]
    grid = [sweep["k_min"], sweep["k_max"], sweep["points"]]
    step = (grid[1] - grid[0]) / (grid[2] - 1)
    k, t, _, _ = checks.sweep_points(work / "session" / "sweep.csv")
    transmission = [None] * grid[2]
    for k_val, t_val in zip(k, t):
        transmission[round((k_val - grid[0]) / step)] = t_val
    peaks, _ = checks.spectrum_peaks(work / "session" / "power_6-9.csv")
    levels = next(span[5]["energies"] for span in tracer.spans if span[0] == "cli.get_solution")

    pair_config = work / "pair-scan.yaml"
    pair_config.write_text(json.dumps(run.PAIR_CONFIG), encoding="utf-8")
    argv = ["--config", str(pair_config), "--output-dir", str(work / "pair"), "two-body"]
    if cli.main(argv) != 0:
        raise SystemExit("two-body failed")
    pair_energies = checks.read_table(work / "pair" / "pair_energies.csv")[1]["E_pair"]
    b = run.PAIR_CONFIG["basis"]
    profile = geometry.make_reference_cavity(samples=run.PAIR_CONFIG["geometry"]["samples"])
    small = cavity.solve_cavity(profile, cavity.BasisSpec(b["m_max"], b["n_max"]), k_keep=b["k_keep"])
    states = range(run.PAIR_CONFIG["two_body"]["states"])
    free = [float(small.energies[i] + small.energies[j]) for i in states for j in states]

    reference = {
        "recorded_with": run.host_environment(root, int(os.environ.get("OPENBLAS_NUM_THREADS", 0)))
        | environment(),
        "cli_session": {
            "grid": grid,
            "T": transmission,
            "energies": levels,
            "peaks": {"6-9": peaks},
        },
        "dense_sweep": record_dense(work, len(levels)),
        "pair_scan": {
            "cli_pair_energies": pair_energies,
            "cli_free_energies": free,
            "cavity_energies": small.energies.tolist(),
        },
    }
    with open(checks.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {checks.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
