"""Tests of the benchmark's own parts: output checks with negative controls,
span analysis, and the agreement of BENCHMARK.json with the metric lists.

    python3 -m pytest perfbench

They need neither the program nor a solve: the checks run on the recorded
reference values and on corrupted copies of them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from tracing import SpanTree, Tracer, percentile_summary

REF = checks.load_reference()
SESSION = REF["cli_session"]


def reference_points():
    k_min, k_max, points = SESSION["grid"]
    step = (k_max - k_min) / (points - 1)
    k, t = [], []
    for i, t_val in enumerate(SESSION["T"]):
        if t_val is not None:
            k.append(k_min + i * step)
            t.append(t_val)
    n_open = [math.floor(kv) for kv in k]
    defect = [1e-13] * len(k)
    return k, t, n_open, defect


def passes(results):
    return all(r["pass"] for r in results)


def test_reference_sweep_passes_with_rounding_noise():
    k, t, n, d = reference_points()
    rng = np.random.default_rng(0)
    noisy = [tv + 1e-11 * rng.standard_normal() for tv in t]
    assert passes(checks.check_sweep(k, noisy, n, d))
    assert passes(checks.check_transmission_reference(k, noisy, SESSION))


def test_corrupted_transmission_fails():
    k, t, n, d = reference_points()
    flipped = list(t)
    flipped[500] = -flipped[500]
    assert not passes(checks.check_sweep(k, flipped, n, d))
    shifted = [tv + 1e-6 for tv in t]
    assert not passes(checks.check_transmission_reference(k, shifted, SESSION))
    above = list(t)
    above[10] = n[10] + 0.01
    assert not passes(checks.check_sweep(k, above, n, d))
    assert not passes(checks.check_sweep(k, t, n, d[:-1] + [1e-6]))


def test_missing_points_fail_the_reference_check():
    k, t, _, _ = reference_points()
    assert not passes(checks.check_transmission_reference(k[:1000], t[:1000], SESSION))


def write_sweep_csv(path, k, t, n, d):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# config 0000\n# skipped k=1 reason=threshold\n")
        fh.write("k_over_piw,T,N_open,unitarity_defect\n")
        for row in zip(k, t, n, d):
            fh.write(f"{row[0]:.12g},{row[1]:.12g},{row[2]:d},{row[3]:.6g}\n")
        fh.write("19,0.5,19,nan\n")


def test_corrupted_sweep_file_fails(tmp_path):
    k, t, n, d = reference_points()
    good = tmp_path / "sweep.csv"
    write_sweep_csv(good, k, t, n, d)
    parsed = checks.sweep_points(good)
    assert len(parsed[0]) == len(k)  # the interpolated (NaN-defect) row is not a computed point
    assert passes(checks.check_sweep(*parsed) + checks.check_transmission_reference(parsed[0], parsed[1], SESSION))

    bad = tmp_path / "bad.csv"
    t_bad = list(t)
    t_bad[1234] = 1.0 - t_bad[1234]
    write_sweep_csv(bad, k, t_bad, n, d)
    parsed = checks.sweep_points(bad)
    assert not passes(checks.check_transmission_reference(parsed[0], parsed[1], SESSION))


def test_peaks_must_stay_in_their_bin():
    peaks = SESSION["peaks"]["6-9"]
    step = 0.083
    assert passes(checks.check_peaks(list(peaks), peaks, step))
    moved = [peaks[0] + step] + list(peaks[1:])
    assert not passes(checks.check_peaks(moved, peaks, step))
    assert not passes(checks.check_peaks(peaks[:-1], peaks, step))


def test_energies_reference():
    levels = SESSION["energies"]
    rtol = checks.ENERGY_REF_RTOL
    assert passes(checks.check_relative("levels", [e * (1 + 1e-13) for e in levels], levels, rtol))
    assert not passes(checks.check_relative("levels", [e * (1 + 1e-8) for e in levels], levels, rtol))
    assert not passes(checks.check_relative("levels", levels[:-1], levels, rtol))


def length_power(samples, k):
    """|t(L)|^2 on the zero-padded grid, as spectra.length_spectrum builds it."""
    dk = k[1] - k[0]
    n_pad = 8 * k.size
    amps = dk * np.exp(-1j * k[0] * 2 * np.pi * np.arange(n_pad) / (n_pad * dk)) * np.fft.fft(samples, n_pad)
    return (2 * np.pi * np.arange(n_pad) / (n_pad * dk)).tolist(), (np.abs(amps) ** 2).tolist()


def dense_reference_points(ref):
    k_min, k_max, points = ref["grid"]
    grid = np.linspace(k_min, k_max, points)
    pairs = [(float(grid[i]), t) for i, t in zip(ref["indices"], ref["T"]) if t is not None]
    return [kv for kv, _ in pairs], [t for _, t in pairs]


def test_dense_reference_covers_every_disorder_seed():
    dense = REF["dense_sweep"]
    assert sorted(dense) == sorted(str(run.disorder_seed(s)) for s in range(len(run.DENSE_DISORDER_SEEDS)))
    for entry in dense.values():
        assert len(entry["energies"]) == len(SESSION["energies"])
        for points in (run.DENSE_POINTS, run.DENSE_WARM_POINTS):
            ref = entry["sweeps"][str(points)]
            assert ref["indices"] == run.reference_indices(points)
            assert sum(t is not None for t in ref["T"]) > 0.95 * len(ref["T"])


def test_dense_sweep_against_its_reference():
    entry = REF["dense_sweep"][str(run.disorder_seed(1))]
    ref = entry["sweeps"][str(run.DENSE_POINTS)]
    k, t = dense_reference_points(ref)
    # The timed sweep covers the whole grid: points off the reference
    # indices are not compared.
    grid = np.linspace(*ref["grid"][:2], ref["grid"][2])
    k_all = sorted(set(grid[::7].tolist()) | set(k))
    t_all = [dict(zip(k, t)).get(kv, 0.5) for kv in k_all]
    assert passes(checks.check_transmission_reference(k_all, t_all, ref))
    rng = np.random.default_rng(1)
    noisy = [tv + 1e-11 * rng.standard_normal() for tv in t]
    assert passes(checks.check_transmission_reference(k, noisy, ref))
    shifted = list(t)
    shifted[len(t) // 2] += 1e-6
    assert not passes(checks.check_transmission_reference(k, shifted, ref))
    # Another disorder seed's cavity (a wrongly applied symmetry, say) fails.
    other = REF["dense_sweep"][str(run.disorder_seed(2))]
    other_t = dict(zip(*dense_reference_points(other["sweeps"][str(run.DENSE_POINTS)])))
    swapped = [other_t.get(kv, tv) for kv, tv in zip(k, t)]
    assert not passes(checks.check_transmission_reference(k, swapped, ref))
    assert not passes(checks.check_relative("ref", other["energies"], entry["energies"], checks.ENERGY_REF_RTOL))
    assert not passes(checks.check_transmission_reference(k[: len(k) // 2], t[: len(t) // 2], ref))
    warm = entry["sweeps"][str(run.DENSE_WARM_POINTS)]
    assert passes(checks.check_transmission_reference(*dense_reference_points(warm), warm))


def test_conjugated_spectrum_fails_causality():
    k = np.linspace(18.0, 28.0, 400)
    t = 0.6 * np.exp(1j * k * 4.3) + 0.3 * np.exp(1j * k * 7.9)
    assert passes(checks.check_causality(*length_power(t, k)))
    assert not passes(checks.check_causality(*length_power(np.conj(t), k)))


def test_pair_checks_catch_sign_and_order_errors():
    free = REF["pair_scan"]["cli_free_energies"]
    energies = REF["pair_scan"]["cli_pair_energies"]
    assert passes(checks.check_pair_energies(energies, free))
    attractive = sorted(2 * f - e for e, f in zip(energies, sorted(free)))
    assert not passes(checks.check_pair_energies(attractive, free))
    assert not passes(checks.check_pair_energies(energies[::-1], free))
    assert passes(checks.check_pair_orders(energies, [e + 1e-9 for e in energies]))
    assert not passes(checks.check_pair_orders(energies, [e + 1e-3 for e in energies]))
    assert passes(checks.check_relative("ref", energies, energies, checks.PAIR_REF_RTOL))
    assert not passes(checks.check_relative("ref", [e + 1e-6 for e in energies], energies, checks.PAIR_REF_RTOL))


def test_oned_gate():
    assert passes(checks.check_oned(1.3e-4))
    assert not passes(checks.check_oned(2e-3))


def test_self_time_and_outermost_spans():
    spans = [
        ["step:unit", 0.0, 10.0, -1, None, None],
        ["scattering.sweep_conductance", 1.0, 9.0, 0, None, None],
        ["leads.r_matrix", 2.0, 4.0, 1, None, None],
        ["scattering.s_from_r", 4.0, 7.0, 1, None, None],
        ["scattering.cayley_smatrix", 5.0, 6.0, 3, None, None],
    ]
    tree = SpanTree(spans)
    assert tree.self_time(1) == pytest.approx(3.0)
    assert tree.self_time(3) == pytest.approx(2.0)
    assert tree.covered(0) == pytest.approx(8.0)
    assert tree.inclusive(tree.module_names("scattering")) == pytest.approx(8.0)
    assert tree.step_of(4) == "unit"


def test_wrapper_records_errors_and_keeps_the_program_running():
    tracer = Tracer()
    changed = tracer._wrapper("scattering.sweep_conductance", lambda: "a result of another shape")
    assert changed() == "a result of another shape"
    assert "hook_error" in tracer.spans[0][5]

    def raises():
        raise ArithmeticError("check failed")

    with pytest.raises(ArithmeticError):
        tracer._wrapper("twobody.interaction_block", raises)()
    assert tracer.spans[1][4] == "ArithmeticError"
    assert tracer.spans[1][2] >= tracer.spans[1][1]


def test_percentile_has_ten_samples_beyond_it():
    summary = percentile_summary(list(range(100)))
    assert summary["p"] == 90.0
    assert sum(v > summary["p_value"] for v in range(100)) == 10
    assert "p" not in percentile_summary([1.0, 2.0, 3.0])


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
