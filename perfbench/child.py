"""One step of a benchmark workload, run in its own process.

Usage: python3 perfbench/child.py REQUEST.json RESULT.json

The runner (run.py) starts this with the program's source on PYTHONPATH and
the BLAS thread count pinned, and measures the process's wall time and own
peak RSS from outside. The request's ``kind`` selects the step:

  probe    import the CLI module and record the environment
  cli      run ``openbilliards.cli.main(argv)``, as the console script does
  dense    the dense-sweep timed region, repeated for ``seconds``
  pair     the pair-scan timed region, repeated for ``seconds``
  solve    one cavity solve (the single-thread baseline of the traced run)

With ``trace`` set, every public function of the package is wrapped and the
spans go into the result. Without it only the two probes the end-to-end
metrics and checks need are wrapped: ``sweep_conductance`` (time and point
counts), ``cli.get_solution`` (the eigenvalues the CLI worked with) and
``solve_cavity`` (to show that a timed region did not solve).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import checks
import tracing

PROBES = ("scattering.sweep_conductance", "cli.get_solution", "cavity.solve_cavity")


def import_program(out: dict):
    start = time.perf_counter()
    import openbilliards.cli  # noqa: F401  (the import is what is timed)

    out["import_s"] = time.perf_counter() - start


def make_tracer(request: dict, out: dict) -> tracing.Tracer:
    tracer = tracing.Tracer(only=None if request.get("trace") else PROBES)
    tracer.install()
    out["wrapped"] = sorted(tracer.wrapped)
    out["spans"] = tracer.spans
    return tracer


def environment() -> dict:
    import numpy
    import scipy
    import yaml

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def no_solve(tracer: tracing.Tracer, first: int) -> dict:
    """Check that no cavity solve ran since span `first` (a cache miss would)."""
    solves = sum(1 for span in tracer.spans[first:] if span[0] == "cavity.solve_cavity")
    return checks.result("timed region hits the cache", solves == 0, f"{solves} eigensolves")


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------

def step_probe(request, out):
    import_program(out)
    out["env"] = environment()


def step_cli(request, out):
    import_program(out)
    tracer = make_tracer(request, out)
    from openbilliards import cli

    try:
        with tracer.step("cli"):
            out["rc"] = cli.main(request["argv"])
    except BaseException as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
        raise
    return out["rc"]


def step_solve(request, out):
    import_program(out)
    tracer = make_tracer(request, out)
    from openbilliards import cavity, cli

    cfg = cli.load_config(request["config"])
    profile = cli.build_profile(cfg)
    b = cfg["basis"]
    basis = cavity.BasisSpec(m_max=int(b["m_max"]), n_max=int(b["n_max"]))
    with tracer.step("solve"):
        cavity.solve_cavity(profile, basis, k_keep=int(b["k_keep"]))


def step_dense(request, out):
    """Load the cached solution, sweep, take spectra and write the outputs."""
    import_program(out)
    tracer = make_tracer(request, out)
    import numpy as np

    from openbilliards import cli, scattering, spectra

    out["env"] = environment()
    workdir = Path(request["workdir"])
    cfg = cli.load_config(request["config"], [f"output_dir={workdir}"])
    sweep = cfg["sweep"]
    grid = np.linspace(float(sweep["k_min"]), float(sweep["k_max"]), int(sweep["points"]))
    pad = int(cfg["spectra"]["pad_factor"])
    header = ("perfbench dense-sweep",)
    cold_levels = checks.read_table(workdir / "energies_cold.csv")[1]["energy"]
    units = out["units"] = []
    start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        unit_span = len(tracer.spans)
        with tracer.step("unit"):
            solution = cli.get_solution(cfg)
            t0 = time.perf_counter()
            result = scattering.sweep_conductance(solution, grid)
            sweep_s = time.perf_counter() - t0
            windows = []
            for window in cfg["spectra"]["windows"]:
                lo, hi, n_modes = window["k_min"], window["k_max"], int(window["n_modes"])
                series = spectra.uniform_series(result, (lo, hi), n_modes)
                lengths, amps = spectra.length_spectrum(series, pad_factor=pad)
                power = np.sum(np.abs(amps) ** 2, axis=(1, 2))
                keep = lengths <= 40.0
                peaks = spectra.peak_positions(
                    lengths[keep], power[keep], band=(2.0, 20.0), min_prominence=0.01
                )
                tag = f"{lo:g}-{hi:g}"
                spectra.write_power_csv(workdir / f"power_{tag}.csv", lengths[keep], power[keep], header)
                spectra.write_amplitude_csv(
                    workdir / f"t11_{tag}.csv", lengths[keep], amps[keep, 0, 0], header
                )
                windows.append((tag, lengths, power, peaks))
            scattering.write_sweep_csv(result, workdir / "sweep.csv", header)
            scattering.write_t_store(result, workdir / "tstore.bin")
        wall = time.perf_counter() - unit_start

        tracer.active = False
        unit_checks = [no_solve(tracer, unit_span)]
        unit_checks += checks.check_sweep(
            result.k.tolist(), result.transmission.tolist(), result.n_open.tolist(),
            result.unitarity_defect.tolist(),
        )
        unit_checks += checks.check_transmission_reference(
            result.k.tolist(), result.transmission.tolist(), request["reference"]
        )
        for tag, lengths, power, _ in windows:
            unit_checks += checks.check_causality(lengths.tolist(), power.tolist(), f"window {tag}")
        written = checks.sweep_points(workdir / "sweep.csv")
        unit_checks += checks.check_relative(
            "sweep.csv: T as computed", written[1], result.transmission.tolist(), checks.PRINTED_RTOL
        )
        levels = solution.energies[: len(cold_levels)].tolist()
        unit_checks += checks.check_relative(
            "loaded eigenvalues vs cold solve", levels, cold_levels, checks.PRINTED_RTOL
        )
        ks, blocks = scattering.read_t_store(workdir / "tstore.bin")
        same = np.array_equal(ks, result.k) and all(
            np.array_equal(a, b) for a, b in zip(blocks, result.t_blocks)
        )
        unit_checks.append(checks.result("tstore.bin: read back", same, f"{len(blocks)} blocks"))
        tracer.active = True

        skipped = {}
        for _, reason in result.skipped:
            skipped[reason] = skipped.get(reason, 0) + 1
        units.append(
            {
                "wall_s": wall,
                "sweep_s": sweep_s,
                "requested": int(grid.size),
                "computed": int(result.k.size),
                "skipped": skipped,
                "windows": len(windows),
                "peaks": {tag: sorted(p.tolist())[:8] for tag, _, _, p in windows},
                "checks": unit_checks,
            }
        )
        elapsed = time.perf_counter() - start
        if elapsed + wall > request["seconds"]:
            break
    lower = solution.profile.lower
    out["mirror_defect"] = float(np.max(np.abs(lower - lower[::-1])))


def step_pair(request, out):
    """Pair energies over widths x orders and the 1D check on the set-up's solution."""
    import_program(out)
    tracer = make_tracer(request, out)
    import numpy as np

    from openbilliards import cli, oned, twobody
    from openbilliards.leads import IllConditionedEnergy

    out["env"] = environment()
    p = request["params"]
    cfg = cli.load_config(request["config"], [f"output_dir={request['workdir']}"])
    first = len(tracer.spans)
    solution = cli.get_solution(cfg)
    tracer.active = False
    out["load_checks"] = [no_solve(tracer, first)] + checks.check_relative(
        "10x6 eigenvalues vs reference",
        solution.energies.tolist(),
        request["reference_levels"],
        checks.ENERGY_REF_RTOL,
    )
    tracer.active = True

    rng = np.random.default_rng(request["seed"])
    states = list(range(int(cfg["two_body"]["states"])))
    free = [float(solution.energies[i] + solution.energies[j]) for i in states for j in states]
    problem = oned.BarrierProblem(height=p["v0"], m_trunc=p["m_trunc"])
    units = out["units"] = []
    start = time.perf_counter()
    while True:
        width = float(rng.uniform(*p["width_range"]))
        energies = np.sort(rng.uniform(p["e_min"], p["e_max"], p["energies"]))
        unit_start = time.perf_counter()
        with tracer.step("unit"):
            passed, failures = {}, []
            for q in p["orders"]:
                spec = twobody.InteractionSpec(
                    potential=twobody.gaussian(p["strength"], width), quad_order=q
                )
                try:
                    passed[q] = twobody.interaction_block(solution, states, spec)
                except ArithmeticError:
                    failures.append(q)
            t0 = time.perf_counter()
            worst, poles = 0.0, 0
            for e_val in energies:
                try:
                    t_rm = oned.rmatrix_transmission(float(e_val), problem)
                except IllConditionedEnergy:
                    poles += 1
                    continue
                worst = max(worst, abs(t_rm - oned.exact_transmission(float(e_val), problem.height)))
            sweep_1d_s = time.perf_counter() - t0
        wall = time.perf_counter() - unit_start

        tracer.active = False
        unit_checks = checks.check_oned(worst)
        orders = sorted(passed)
        if not orders:
            unit_checks.append(checks.result("pair: some order passes", False, f"width {width:.4f}"))
        for q in orders:
            unit_checks += checks.check_pair_energies(passed[q].tolist(), free, f"pair q={q}")
        if len(orders) >= 2:
            unit_checks += checks.check_pair_orders(
                passed[orders[-2]].tolist(), passed[orders[-1]].tolist(),
                f"pair q={orders[-2]} vs q={orders[-1]}",
            )
        tracer.active = True
        units.append(
            {
                "wall_s": wall,
                "sweep_1d_s": sweep_1d_s,
                "width": width,
                "pair_calls": len(p["orders"]),
                "pair_failures": failures,
                "energies": int(energies.size),
                "pole_skips": poles,
                "max_abs_dT": worst,
                "checks": unit_checks,
            }
        )
        elapsed = time.perf_counter() - start
        if elapsed + wall > request["seconds"]:
            break


STEPS = {
    "probe": step_probe,
    "cli": step_cli,
    "solve": step_solve,
    "dense": step_dense,
    "pair": step_pair,
}


def main(argv) -> int:
    request_path, result_path = argv
    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)
    out = {"kind": request["kind"], "run_id": request["run_id"]}
    try:
        rc = STEPS[request["kind"]](request, out)
    finally:
        out["maxrss_mb"] = tracing.maxrss_mb()
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)
    return int(rc or 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
