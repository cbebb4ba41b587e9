"""End-to-end acceptance gate.

One test per release criterion, each printing a single PASS/FAIL line with
the measured numbers.  Detector parameters (onset floor, plateau window,
peak band) are frozen here; they were chosen once from the physics, not
tuned per run, and every quantity below is deterministic.
"""

import math
import time

import numpy as np
import pytest
from test_cavity import assemble_by_quadrature
from test_vtables import oracle_tables

from openbilliards.cavity import (
    BasisSpec,
    assemble_hamiltonian,
    build_v_tables,
    fft_cosine_integrals,
    solve_cavity,
)
from openbilliards.geometry import (
    apply_surface_disorder,
    make_rectangle,
    make_reference_cavity,
)
from openbilliards.leads import IllConditionedEnergy, channel_space, overlaps, r_matrix
from openbilliards.oned import BarrierProblem, exact_transmission, rmatrix_transmission
from openbilliards.scattering import s_from_r, sweep_conductance
from openbilliards.spectra import (
    length_spectrum,
    peak_positions,
    power_spectrum,
    uniform_series,
)
from openbilliards.twobody import InteractionSpec, gaussian, h_ijkl, h_ijkl_direct, pair_hamiltonian


def _gate(num, label, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {label} [{detail}]"
    print(line)
    assert ok, line


def _flat_starts(k, transmission, width=0.3, tv_max=0.15):
    """Indices i where T has total variation < tv_max over [k_i, k_i + width]."""
    ok = []
    for i in range(k.size):
        j = np.searchsorted(k, k[i] + width)
        if j >= k.size:
            break
        if np.sum(np.abs(np.diff(transmission[i : j + 1]))) < tv_max:
            ok.append(i)
    return np.asarray(ok, dtype=int)


def _plateau_windows(k, transmission, width=0.3, tv_max=0.15, min_mean=0.5):
    """Maximal runs of qualifying window starts, filtered by mean level."""
    starts = _flat_starts(k, transmission, width, tv_max)
    windows = []
    if starts.size == 0:
        return windows
    run0 = prev = starts[0]
    for i in list(starts[1:]) + [None]:
        if i is not None and i == prev + 1:
            prev = i
            continue
        lo, hi = k[run0], k[prev] + width
        sel = (k >= lo) & (k <= hi)
        if np.mean(transmission[sel]) >= min_mean:
            windows.append((lo, hi))
        if i is not None:
            run0 = prev = i
    return windows


def _rise_onset(k, transmission, floor=0.05, level=0.5, hold=0.25):
    """Start of the first sustained rise: walk back from the first window
    where T holds `level` for `hold` in k, until T drops below `floor`."""
    i_half = None
    for i in range(k.size):
        j = np.searchsorted(k, k[i] + hold)
        if j > i and j <= k.size and np.min(transmission[i:j]) >= level:
            i_half = i
            break
    if i_half is None:
        return None
    i0 = i_half
    while i0 > 0 and transmission[i0 - 1] >= floor:
        i0 -= 1
    return k[i0]


def test_criterion_1_barrier_transmission():
    problem = BarrierProblem(height=1.0, m_trunc=1000)
    energies = np.linspace(0.1, 20.0, 200)
    t0 = time.perf_counter()
    worst = 0.0
    kept = 0
    for energy in energies:
        try:
            approx = rmatrix_transmission(float(energy), problem)
        except IllConditionedEnergy:
            continue
        worst = max(worst, abs(approx - exact_transmission(float(energy), 1.0)))
        kept += 1
    elapsed = time.perf_counter() - t0
    _gate(
        1,
        "1D barrier R-matrix vs exact",
        worst <= 1e-3 and kept >= 190 and elapsed < 1.0,
        f"|dT|max={worst:.2e} on {kept}/200 energies in {elapsed:.2f}s",
    )


def test_criterion_2_rectangle_limit():
    t0 = time.perf_counter()
    length = 3.0
    rect = make_rectangle(1.0, length, samples=512)
    basis = BasisSpec(m_max=12, n_max=12)
    sol = solve_cavity(rect, basis, k_keep=basis.size)
    exact = np.sort(
        [
            (m * math.pi / length) ** 2 + (n * math.pi) ** 2
            for m in range(12)
            for n in range(1, 13)
        ]
    )
    eig_err = np.max(np.abs(sol.energies - exact) / exact)

    guide = make_rectangle(1.0, 0.125, samples=512)
    gbasis = BasisSpec(m_max=25, n_max=69)
    gsol = solve_cavity(guide, gbasis, k_keep=gbasis.size)
    k_grid = np.concatenate(
        [
            np.linspace(1.15, 1.85, 17),
            np.linspace(2.15, 2.85, 17),
            np.linspace(3.15, 3.85, 16),
        ]
    )
    res = sweep_conductance(gsol, k_grid)
    cond_err = np.max(np.abs(res.transmission - res.n_open))
    elapsed = time.perf_counter() - t0
    _gate(
        2,
        "rectangle eigenvalues and straight-guide conductance",
        eig_err <= 1e-10 and res.k.size == 50 and cond_err <= 1e-3 and elapsed < 10.0,
        f"eig rel={eig_err:.2e}, |T-N|max={cond_err:.2e} at 50 energies, {elapsed:.1f}s",
    )


def test_criterion_3_assembly_oracle():
    t0 = time.perf_counter()
    basis = BasisSpec(m_max=6, n_max=6)
    worst = 0.0
    for case in ("reference", "disordered"):
        profile = make_reference_cavity(samples=2048)
        breaks = None
        if case == "disordered":
            pieces = 12
            profile = apply_surface_disorder(
                profile, roughness=0.05, pieces=pieces, seed=11
            )
            breaks = np.concatenate(
                (
                    [0.0],
                    (np.arange(pieces) + 0.5) * profile.length / pieces,
                    [profile.length],
                )
            )
        fast = assemble_hamiltonian(profile, basis)
        oracle = assemble_by_quadrature(profile, basis, u_breaks=breaks)
        worst = max(worst, np.max(np.abs(fast - oracle)) / np.max(np.abs(oracle)))
    elapsed = time.perf_counter() - t0
    _gate(
        3,
        "FFT assembly vs direct 2D quadrature",
        worst <= 1e-8 and elapsed < 30.0,
        f"rel={worst:.2e} on 6x6 basis, both profiles, {elapsed:.1f}s",
    )


def test_criterion_4_smatrix_properties(reference_profile, reference_solution):
    w = reference_profile.lead_width
    table = overlaps(reference_solution)
    rng = np.random.default_rng(2026)
    worst_unitary = worst_symmetric = 0.0
    per_point = []
    n_done = 0
    while n_done < 20:
        k_val = rng.uniform(2.0, 15.0)
        energy = (k_val * math.pi / w) ** 2
        try:
            t0 = time.perf_counter()
            space = channel_space(energy, w)
            smat = s_from_r(
                r_matrix(table, space), space
            )
            per_point.append(time.perf_counter() - t0)
        except IllConditionedEnergy:
            continue
        full = smat
        eye = np.eye(full.shape[0])
        worst_unitary = max(worst_unitary, np.max(np.abs(full @ full.conj().T - eye)))
        worst_symmetric = max(worst_symmetric, np.max(np.abs(full - full.T)))
        n_done += 1

    # truncation monotonicity probe at a reduced basis; the Cayley form is
    # unitary by construction, so the defect sits at rounding level and the
    # comparison carries a floor
    small = BasisSpec(m_max=40, n_max=22)
    defects = {}
    for keep in (300, 600):
        sol = solve_cavity(reference_profile, small, k_keep=keep)
        tab = overlaps(sol)
        worst = 0.0
        for k_val in (4.3, 5.9, 7.7):
            energy = (k_val * math.pi / w) ** 2
            space = channel_space(energy, w)
            smat = s_from_r(r_matrix(tab, space), space)
            defect = np.max(np.abs(smat @ smat.conj().T - np.eye(smat.shape[0])))
            worst = max(worst, defect)
        defects[keep] = worst
    shrinks = defects[600] <= max(defects[300], 1e-9)

    _gate(
        4,
        "unitarity and reciprocity at reference truncation",
        worst_unitary < 1e-3 and worst_symmetric < 1e-3 and shrinks,
        f"|SSh-I|max={worst_unitary:.2e}, |S-St|max={worst_symmetric:.2e} at 20 "
        f"energies, {1e3 * np.median(per_point):.1f} ms/point, doubled-keep defect "
        f"{defects[300]:.1e}->{defects[600]:.1e}",
    )


def test_criterion_5_conductance_onset_and_plateaus(reference_sweep):
    onset = _rise_onset(reference_sweep.k, reference_sweep.transmission)
    windows = _plateau_windows(reference_sweep.k, reference_sweep.transmission)
    ok = onset is not None and abs(onset - 3.23) <= 0.2 and len(windows) >= 2
    spans = ", ".join(f"[{a:.2f},{b:.2f}]" for a, b in windows)
    _gate(
        5,
        "conductance onset and step plateaus",
        ok,
        f"onset k={onset:.3f} (target 3.23+-0.2), {len(windows)} plateaus: {spans}",
    )


def test_criterion_6_length_spectrum_echo(reference_sweep):
    series = uniform_series(reference_sweep, (6.0, 9.0), 6)
    lengths, power = power_spectrum(series, pad_factor=8)
    peaks = peak_positions(lengths, power, band=(4.4, 10.6), min_prominence=0.001)
    targets = np.array([4.78, 6.65, 8.05, 9.1, 10.2])
    ok_peaks = peaks.size >= 5
    if ok_peaks:
        five = np.sort(peaks[:5])
        diffs = five - targets
        ok_peaks = bool(np.max(np.abs(diffs)) <= 0.3)

    t11 = uniform_series(reference_sweep, (1.05, 18.95), 1)
    lengths11, amplitude = length_spectrum(t11, pad_factor=8)
    mag = np.abs(amplitude[:, 0, 0])
    sel = (lengths11 >= 2.0) & (lengths11 <= 20.0)
    onset11 = lengths11[sel][np.argmax(mag[sel] >= 0.1 * np.max(mag[sel]))]
    ok_onset = abs(onset11 - 4.32) <= 0.3

    _gate(
        6,
        "quantum echo peaks and t11 oscillation onset",
        ok_peaks and ok_onset,
        f"peaks {np.round(np.sort(peaks[:5]), 2)} vs {targets} (+-0.3), "
        f"t11 onset L={onset11:.3f} (target 4.32+-0.3)",
    )


def test_criterion_7_perturbation_sensitivity(
    reference_sweep, wiggled_solution, disordered_solution
):
    def flat_fraction(k, transmission):
        mask = k >= 10.0
        starts = _flat_starts(k[mask], transmission[mask])
        total = np.count_nonzero(k[mask] + 0.3 <= k[mask][-1])
        return starts.size / total

    clean = flat_fraction(reference_sweep.k, reference_sweep.transmission)
    grid = np.linspace(10.05, 18.95, 1000)
    perturbed = {}
    for name, sol in (("wiggle", wiggled_solution), ("disorder", disordered_solution)):
        res = sweep_conductance(sol, grid)
        perturbed[name] = flat_fraction(res.k, res.transmission)
    level = 0.10
    ok = (
        clean >= level
        and all(v < level for v in perturbed.values())
        and all(v < clean for v in perturbed.values())
    )
    _gate(
        7,
        "plateau flatness lost above k=10 under perturbation",
        ok,
        f"flat-window fraction clean={clean:.3f}, "
        f"wiggle={perturbed['wiggle']:.3f}, disorder={perturbed['disorder']:.3f}, "
        f"pass level {level}",
    )


def test_criterion_8_two_body_oracles():
    t0 = time.perf_counter()
    basis = BasisSpec(m_max=10, n_max=6)
    rect_sol = solve_cavity(make_rectangle(1.0, 2.0, samples=256), basis, k_keep=10)
    curved_sol = solve_cavity(make_reference_cavity(samples=256), basis, k_keep=10)
    states = list(range(8))

    c = 0.37
    worst_const = 0.0
    for sol, quad in ((rect_sol, 24), (curved_sol, 40)):
        spec = InteractionSpec(
            potential=lambda d: np.full_like(d, c), quad_order=quad
        )
        matrix = pair_hamiltonian(sol, states, spec)
        pair_energy = np.array(
            [sol.energies[i] + sol.energies[j] for i in states for j in states]
        )
        expected = c * np.eye(len(states) ** 2) + np.diag(pair_energy)
        worst_const = max(worst_const, np.max(np.abs(matrix - expected)))

    rng = np.random.default_rng(11)
    potential = gaussian(2.0, 0.5)
    worst_rel = 0.0
    for sol in (rect_sol, curved_sol):
        spec = InteractionSpec(potential=potential, quad_order=32)
        diffs, mags = [], []
        for _ in range(5):
            i, j, k, l = (int(x) for x in rng.integers(0, 8, size=4))
            transformed = h_ijkl(sol, i, j, k, l, spec)
            direct = h_ijkl_direct(sol, i, j, k, l, spec, quad_order=40)
            diffs.append(abs(transformed - direct))
            mags.append(abs(direct))
        worst_rel = max(worst_rel, max(diffs) / max(mags))
    elapsed = time.perf_counter() - t0
    _gate(
        8,
        "two-body matrix elements",
        worst_const <= 1e-8 and worst_rel <= 1e-6 and elapsed < 120.0,
        f"V=c defect {worst_const:.2e}, transformed-vs-original rel {worst_rel:.2e} "
        f"on 10 random tuples, {elapsed:.1f}s",
    )


def test_criterion_9_property_suite(reference_profile, reference_sweep):
    tables = build_v_tables(12)
    names = ("shear_0", "shear_1", "stretch_0", "stretch_1", "stretch_2")
    table_err = max(
        np.max(np.abs(getattr(tables, name) - oracle))
        for name, oracle in zip(names, oracle_tables(12))
    )

    length = reference_profile.length
    count = 12
    m_grid = 4096
    x_mid = (np.arange(m_grid) + 0.5) * length / m_grid
    f_mid = np.exp(np.sin(2.0 * math.pi * x_mid / length)) * (
        1.0 + 0.3 * np.cos(math.pi * x_mid / length)
    )
    fast = fft_cosine_integrals(f_mid, length, count=count)
    from scipy.integrate import simpson

    x_fine = np.linspace(0.0, length, 8193)
    f_fine = np.exp(np.sin(2.0 * math.pi * x_fine / length)) * (
        1.0 + 0.3 * np.cos(math.pi * x_fine / length)
    )
    slow = np.array(
        [
            simpson(f_fine * np.cos(m * math.pi * x_fine / length), x=x_fine)
            for m in range(count)
        ]
    )
    fft_err = np.max(np.abs(fast - slow)) / np.max(np.abs(slow))

    lowest = []
    for spec in (BasisSpec(8, 5), BasisSpec(12, 7), BasisSpec(16, 9)):
        lowest.append(solve_cavity(reference_profile, spec, k_keep=5).energies)
    ritz_ok = all(
        np.all(b <= a + 1e-9 * np.abs(a)) for a, b in zip(lowest, lowest[1:])
    )

    series = uniform_series(reference_sweep, (6.0, 9.0), 6)
    lengths, amplitude = length_spectrum(series, pad_factor=8)
    dk = series.k[1] - series.k[0]
    d_len = lengths[1] - lengths[0]
    lhs = np.sum(np.abs(amplitude) ** 2) * d_len
    rhs = 2.0 * math.pi * np.sum(np.abs(series.samples) ** 2) * dk
    parseval_err = abs(lhs - rhs) / rhs

    twin_a = apply_surface_disorder(reference_profile, 0.2, 100, seed=5)
    twin_b = apply_surface_disorder(reference_profile, 0.2, 100, seed=5)
    other = apply_surface_disorder(reference_profile, 0.2, 100, seed=6)
    probe = np.linspace(0.0, length, 257)
    deterministic = (
        twin_a.content_hash() == twin_b.content_hash()
        and np.array_equal(twin_a.width_at(probe), twin_b.width_at(probe))
        and twin_a.content_hash() != other.content_hash()
    )

    _gate(
        9,
        "property suite",
        table_err <= 1e-10
        and fft_err <= 1e-9
        and ritz_ok
        and parseval_err <= 1e-6
        and deterministic,
        f"tables {table_err:.1e}, fft-vs-simpson {fft_err:.1e}, "
        f"ritz monotone {ritz_ok}, parseval {parseval_err:.1e}, "
        f"seeded disorder deterministic {deterministic}",
    )


def test_echo_band_energy_degrades(
    reference_sweep, wiggled_solution, disordered_solution
):
    """Perturbations drain the echo band: the share of spectral power in
    L in [4, 12] drops relative to the clean geometry."""

    def band_share(result):
        series = uniform_series(result, (6.0, 9.0), 6)
        lengths, power = power_spectrum(series, pad_factor=8)
        half = lengths <= lengths[lengths.size // 2]
        total = np.trapezoid(power[half], lengths[half])
        band = (lengths >= 4.0) & (lengths <= 12.0)
        return np.trapezoid(power[band], lengths[band]) / total

    clean = band_share(reference_sweep)
    grid = np.linspace(6.0, 9.0, 340)
    for sol in (wiggled_solution, disordered_solution):
        perturbed = band_share(sweep_conductance(sol, grid))
        assert perturbed < clean
