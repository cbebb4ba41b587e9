"""Cavity matrix assembly and eigensolution against independent quadrature.

The assembly oracle below integrates the weak form directly on a tensor
Gauss-Legendre grid without any of the FFT/product-to-sum machinery, so the
two paths share nothing but the basis definition.
"""

import ast
import dataclasses
import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from openbilliards.cavity import (
    CACHE_FORMAT,
    BasisSpec,
    CavitySolution,
    _axial_tables,
    _parity_leak,
    assemble_hamiltonian,
    axial_norms,
    build_v_tables,
    cached_solution,
    eval_wavefunction,
    load_solution,
    save_solution,
    solve_cavity,
)
from openbilliards.geometry import (
    apply_surface_disorder,
    apply_wiggle,
    make_rectangle,
    make_reference_cavity,
)
from openbilliards.leads import overlaps
from openbilliards.scattering import sweep_conductance


def gauss_nodes(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def composite_gauss(breaks, nodes_per_panel):
    xs, ws = [], []
    for a, b in zip(breaks, breaks[1:]):
        x, w = gauss_nodes(nodes_per_panel, a, b)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def assemble_by_quadrature(profile, basis, u_breaks=None, nodes_u=16, nodes_v=64):
    """Direct quadrature assembly of the weak-form matrix.

    u panels must be aligned with any spline knots of the walls so each
    panel integrand is analytic; v is a single panel (polynomial there).
    """
    length = profile.length
    if u_breaks is None:
        u_breaks = np.linspace(0.0, length, 9)
    ug, wu = composite_gauss(np.asarray(u_breaks, dtype=float), nodes_u)
    vg, wv = gauss_nodes(nodes_v, 0.0, 1.0)

    width = np.asarray(profile.width_at(ug), dtype=float)
    width_slope = np.asarray(
        profile.upper_slope_fn(ug) - profile.lower_slope_fn(ug), dtype=float
    )
    lower_slope = np.asarray(profile.lower_slope_fn(ug), dtype=float)

    norms = axial_norms(basis.m_max, length)
    kappa = np.arange(basis.m_max) * math.pi / length
    # axial factors of psi and d_u psi, incl. the 1/sqrt(J) weight
    c = norms[:, None] * np.cos(kappa[:, None] * ug[None, :]) / np.sqrt(width)
    cdot = (
        -norms[:, None] * kappa[:, None] * np.sin(kappa[:, None] * ug[None, :])
        / np.sqrt(width)
        - norms[:, None]
        * np.cos(kappa[:, None] * ug[None, :])
        * width_slope
        / (2.0 * width**1.5)
    )
    nlist = np.arange(1, basis.n_max + 1)
    s = math.sqrt(2.0) * np.sin(math.pi * nlist[:, None] * vg[None, :])
    sdot = (
        math.sqrt(2.0)
        * math.pi
        * nlist[:, None]
        * np.cos(math.pi * nlist[:, None] * vg[None, :])
    )

    # metric combinations on the tensor grid (u runs over axis 0)
    shift = lower_slope[:, None] + vg[None, :] * width_slope[:, None]
    guu = (width[:, None] * np.ones_like(vg)[None, :]).ravel()
    guv = (-shift).ravel()
    gvv = ((1.0 + shift**2) / width[:, None]).ravel()
    w2 = (wu[:, None] * wv[None, :]).ravel()

    # stack d_u psi_l and d_v psi_l over the flattened grid, n-major order
    du = np.einsum("nq,mp->nmpq", s, cdot).reshape(basis.size, -1)
    dv = np.einsum("nq,mp->nmpq", sdot, c).reshape(basis.size, -1)
    ham = (
        du @ (w2 * guu * du).T
        + du @ (w2 * guv * dv).T
        + dv @ (w2 * guv * du).T
        + dv @ (w2 * gvv * dv).T
    )
    return 0.5 * (ham + ham.T)


def test_rectangle_matrix_is_diagonal_with_mode_energies():
    length, height = 3.0, 1.0
    profile = make_rectangle(height, length, samples=512)
    basis = BasisSpec(m_max=6, n_max=4)
    ham = assemble_hamiltonian(profile, basis)
    kappa = np.arange(6) * math.pi / length
    expected = np.zeros(basis.size)
    for n in range(1, 5):
        for m in range(6):
            expected[(n - 1) * 6 + m] = kappa[m] ** 2 + (n * math.pi / height) ** 2
    off = ham - np.diag(np.diag(ham))
    assert np.max(np.abs(off)) < 1e-10
    assert np.max(np.abs(np.diag(ham) - expected) / expected) < 1e-12


@pytest.mark.parametrize("case", ["reference", "disordered"])
def test_assembly_matches_gauss_legendre(case):
    profile = make_reference_cavity(samples=2048)
    length = profile.length
    breaks = None
    if case == "disordered":
        pieces = 12
        profile = apply_surface_disorder(profile, roughness=0.05, pieces=pieces, seed=11)
        # panel edges on the spline knots so each panel is analytic
        breaks = np.concatenate(
            ([0.0], (np.arange(pieces) + 0.5) * length / pieces, [length])
        )
    basis = BasisSpec(m_max=6, n_max=6)
    fast = assemble_hamiltonian(profile, basis)
    oracle = assemble_by_quadrature(profile, basis, u_breaks=breaks)
    # oracle self-convergence guard at higher node counts
    oracle_hi = assemble_by_quadrature(
        profile, basis, u_breaks=breaks, nodes_u=24, nodes_v=80
    )
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(oracle - oracle_hi)) / scale < 1e-10
    assert np.max(np.abs(fast - oracle)) / scale < 1e-8


def assemble_by_kron(profile, basis):
    """The Kronecker-sum form of the assembly, kept as a reference."""
    ax = _axial_tables(profile, basis.m_max)
    vt = build_v_tables(basis.n_max)
    ham = np.kron(np.eye(basis.n_max), ax["kinetic"])
    ham += 2.0 * (
        np.kron(vt.shear_0, ax["shear_lo"])
        + np.kron(vt.shear_0.T, ax["shear_lo"].T)
        + np.kron(vt.shear_1, ax["shear_w"])
        + np.kron(vt.shear_1.T, ax["shear_w"].T)
    )
    ham += 2.0 * (
        np.kron(vt.stretch_0, ax["stretch_0"])
        + np.kron(vt.stretch_1, ax["stretch_1"])
        + np.kron(vt.stretch_2, ax["stretch_2"])
    )
    return 0.5 * (ham + ham.T)


def parity_modes(basis, parity):
    """Flat indices of the axial modes m = parity (mod 2)."""
    return np.arange(basis.size).reshape(basis.n_max, basis.m_max)[:, parity::2].ravel()


def make_case(case):
    """The mirror-symmetric reference cavity, or one of two asymmetric variants."""
    profile = make_reference_cavity(samples=1024)
    if case == "disordered":
        return apply_surface_disorder(profile, roughness=0.05, pieces=12, seed=11)
    if case == "wiggled":
        return apply_wiggle(profile)
    return profile


@pytest.mark.parametrize("case", ["reference", "disordered"])
def test_assembly_matches_kron_sum(case):
    profile = make_case(case)
    basis = BasisSpec(m_max=13, n_max=7)
    ham = assemble_hamiltonian(profile, basis)
    ref = assemble_by_kron(profile, basis)
    assert np.max(np.abs(ham - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", ["reference", "disordered", "wiggled"])
def test_parity_blocks_are_slices_of_full_matrix(case):
    profile = make_case(case)
    basis = BasisSpec(m_max=11, n_max=6)
    full = assemble_hamiltonian(profile, basis)
    for parity in (0, 1):
        idx = parity_modes(basis, parity)
        block = assemble_hamiltonian(profile, basis, parity=parity)
        assert np.array_equal(block, full[np.ix_(idx, idx)])
    with pytest.raises(ValueError):
        assemble_hamiltonian(profile, basis, parity=2)


def test_parity_leak_separates_mirror_symmetric_walls():
    cases = {case: make_case(case) for case in ("reference", "disordered", "wiggled")}
    cases["rectangle"] = make_rectangle(1.0, 3.0, samples=512)
    leaks = {case: _parity_leak(_axial_tables(p, 16)) for case, p in cases.items()}
    assert leaks["rectangle"] == 0.0
    assert leaks["reference"] < 1e-15
    assert leaks["disordered"] > 1e-3
    assert leaks["wiggled"] > 1e-3


def check_eigenpairs(sol, ham):
    residual = np.linalg.norm(sol.coeffs @ ham - sol.energies[:, None] * sol.coeffs, axis=1)
    assert np.all(residual <= 1e-9 * sol.energies)
    gram = sol.coeffs @ sol.coeffs.T
    assert np.max(np.abs(gram - np.eye(sol.k_keep))) < 1e-12


def test_parity_split_solves_the_full_problem():
    profile = make_case("reference")
    basis = BasisSpec(m_max=16, n_max=8)
    sol = solve_cavity(profile, basis, k_keep=basis.size)
    ham = assemble_hamiltonian(profile, basis)
    exact = np.linalg.eigvalsh(ham)
    assert np.max(np.abs(sol.energies - exact) / exact) < 1e-10
    check_eigenpairs(sol, ham)
    even = np.abs(sol.coeffs[:, parity_modes(basis, 0)]).max(axis=1)
    odd = np.abs(sol.coeffs[:, parity_modes(basis, 1)]).max(axis=1)
    assert np.all((even == 0.0) != (odd == 0.0))
    assert 0 < np.count_nonzero(even) < basis.size


@pytest.mark.parametrize("case", ["disordered", "wiggled"])
def test_asymmetric_walls_take_the_generic_path(case):
    profile = make_case(case)
    basis = BasisSpec(m_max=16, n_max=8)
    sol = solve_cavity(profile, basis, k_keep=60)
    check_eigenpairs(sol, assemble_hamiltonian(profile, basis))
    even = np.linalg.norm(sol.coeffs[:, parity_modes(basis, 0)], axis=1)
    odd = np.linalg.norm(sol.coeffs[:, parity_modes(basis, 1)], axis=1)
    assert np.max(np.minimum(even, odd)) > 1e-2


def test_matrix_is_symmetric_positive_definite():
    profile = make_reference_cavity(samples=512)
    basis = BasisSpec(m_max=10, n_max=6)
    ham = assemble_hamiltonian(profile, basis)
    assert np.array_equal(ham, ham.T)
    evals = np.linalg.eigvalsh(ham)
    assert evals[0] > 0.0


def test_rectangle_eigenvalues_analytic():
    length, height = 3.0, 1.0
    profile = make_rectangle(height, length, samples=512)
    basis = BasisSpec(m_max=12, n_max=12)
    sol = solve_cavity(profile, basis, k_keep=40)
    exact = np.sort(
        [
            (m * math.pi / length) ** 2 + (n * math.pi / height) ** 2
            for m in range(12)
            for n in range(1, 13)
        ]
    )[:40]
    assert np.max(np.abs(sol.energies - exact) / exact) < 1e-10


def test_eigenvalues_decrease_with_nested_bases():
    profile = make_reference_cavity(samples=1024)
    specs = [BasisSpec(20, 12), BasisSpec(26, 16), BasisSpec(34, 22)]
    spectra = [solve_cavity(profile, b, k_keep=60).energies for b in specs]
    for small, large in zip(spectra, spectra[1:]):
        # variational bound: enlarging the trial space never raises any level
        assert np.all(large <= small * (1.0 + 1e-12))


def test_eval_wavefunction_rectangle_ground_state():
    length, height = 3.0, 1.0
    profile = make_rectangle(height, length, samples=512)
    sol = solve_cavity(profile, BasisSpec(8, 6), k_keep=5)
    xs = np.linspace(0.1, length - 0.1, 7)
    ys = np.linspace(0.05, height - 0.05, 7)
    xg, yg = np.meshgrid(xs, ys)
    got = eval_wavefunction(sol, 0, xg, yg)
    exact = math.sqrt(1.0 / length) * math.sqrt(2.0) * np.sin(math.pi * yg / height)
    assert np.max(np.abs(np.abs(got) - np.abs(exact))) < 1e-10


def test_eval_wavefunction_vanishes_outside():
    profile = make_reference_cavity(samples=512)
    sol = solve_cavity(profile, BasisSpec(8, 6), k_keep=3)
    vals = eval_wavefunction(
        sol, 0, np.array([-0.5, 1.0, 10.0]), np.array([0.1, 99.0, 0.1])
    )
    assert np.array_equal(vals, np.zeros(3))


def test_axial_derivative_vanishes_at_interfaces():
    length, height = 3.0, 1.0
    profile = make_rectangle(height, length, samples=512)
    sol = solve_cavity(profile, BasisSpec(10, 6), k_keep=8)
    delta = 1e-4
    y = 0.37
    for idx in range(4):
        f0 = float(eval_wavefunction(sol, idx, 0.0, y))
        f1 = float(eval_wavefunction(sol, idx, delta, y))
        f2 = float(eval_wavefunction(sol, idx, 2 * delta, y))
        slope = (4.0 * f1 - f2 - 3.0 * f0) / (2.0 * delta)
        grad_scale = (
            abs(float(eval_wavefunction(sol, idx, length / 2 + delta, y))
                - float(eval_wavefunction(sol, idx, length / 2 - delta, y)))
            / (2 * delta)
            + math.pi
        )
        assert abs(slope) < 1e-6 * grad_scale * 10


def test_wavefunctions_orthonormal_under_area_weight():
    profile = make_reference_cavity(samples=1024)
    sol = solve_cavity(profile, BasisSpec(16, 8), k_keep=20)
    ug, wu = gauss_nodes(220, 0.0, profile.length)
    vg, wv = gauss_nodes(220, 0.0, 1.0)
    width = np.asarray(profile.width_at(ug), dtype=float)
    lower = np.asarray(profile.lower_fn(ug), dtype=float)
    xg = np.repeat(ug, vg.size)
    yg = np.tile(vg, ug.size) * np.repeat(width, vg.size) + np.repeat(lower, vg.size)
    w2 = (wu[:, None] * wv[None, :] * width[:, None]).ravel()
    states = np.stack([eval_wavefunction(sol, i, xg, yg) for i in range(20)])
    gram = (states * w2[None, :]) @ states.T
    assert np.max(np.abs(gram - np.eye(20))) < 1e-6


ENTRY_FILES = ("energies.npy", "interface.npy", "meta.json", "vectors.npy")


def test_solution_roundtrip(tmp_path):
    profile = make_reference_cavity(samples=512)
    sol = solve_cavity(profile, BasisSpec(10, 6), k_keep=12)
    save_solution(sol, tmp_path / "cache")
    back = load_solution(tmp_path / "cache", profile)
    assert np.array_equal(back.energies, sol.energies)
    assert np.array_equal(back.coeffs, sol.coeffs)
    assert back.basis == sol.basis
    # the eigenvectors are mapped read-only; the interface table is stored
    assert isinstance(back.coeffs, np.memmap) and not back.coeffs.flags.writeable
    assert back.interface.shape == (2, 12, 6)
    for loaded, solved in zip(back.interface_values(), sol.interface_values()):
        assert np.array_equal(loaded, solved)
    # written in a staging directory that was renamed into place
    assert [p.name for p in tmp_path.iterdir()] == ["cache"]
    assert tuple(sorted(p.name for p in (tmp_path / "cache").iterdir())) == ENTRY_FILES
    save_solution(sol, tmp_path / "again")
    for name in ENTRY_FILES:
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "cache" / name).read_bytes()
    # a loaded solution saves to the same bytes
    save_solution(back, tmp_path / "resaved")
    for name in ENTRY_FILES:
        assert (tmp_path / "resaved" / name).read_bytes() == (tmp_path / "cache" / name).read_bytes()
    # meta.json holds only what load_solution reads; an older entry's extra
    # lead_width key is ignored
    meta = json.loads((tmp_path / "cache" / "meta.json").read_text())
    assert sorted(meta) == ["format", "m_max", "n_max", "profile_hash"]
    meta["lead_width"] = profile.lead_width
    (tmp_path / "again" / "meta.json").write_text(json.dumps(meta))
    assert np.array_equal(load_solution(tmp_path / "again", profile).coeffs, sol.coeffs)


def test_mirror_symmetric_solve_stores_even_and_odd_interface_rows(tmp_path):
    # The parity split makes every kept level's right row +/- its left row
    # bit for bit, fresh and after a cache round trip; that is what puts the
    # sweep on the two-block layout of the reaction matrix.
    profile = make_reference_cavity(samples=512)
    sol = solve_cavity(profile, BasisSpec(16, 8), k_keep=60)
    save_solution(sol, tmp_path / "cache")
    for solution in (sol, load_solution(tmp_path / "cache", profile)):
        left, right = solution.interface_values()
        even = np.all(right == left, axis=1)
        odd = np.all(right == -left, axis=1)
        assert np.all(even ^ odd)
        assert 20 < np.count_nonzero(even) < 40
        levels, sides = overlaps(solution).blocks
        size = max(np.count_nonzero(even), np.count_nonzero(odd))
        assert levels.shape == (2, size) and len(sides) == 1


@pytest.fixture
def saved_entry(tmp_path):
    profile = make_reference_cavity(samples=512)
    save_solution(solve_cavity(profile, BasisSpec(10, 6), k_keep=12), tmp_path / "cache")
    return tmp_path / "cache", profile


def test_solution_cache_rejects_truncated_coefficients(saved_entry):
    entry, profile = saved_entry
    path = entry / "vectors.npy"
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="mmap length is greater than file size"):
        load_solution(entry, profile)


def test_solution_cache_rejects_truncated_interface(saved_entry):
    entry, profile = saved_entry
    path = entry / "interface.npy"
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="read all data"):
        load_solution(entry, profile)


def test_solution_cache_rejects_truncated_energies(saved_entry):
    entry, profile = saved_entry
    np.save(entry / "energies.npy", np.load(entry / "energies.npy")[:-1])
    with pytest.raises(
        ValueError,
        match=r"energies.npy \(11,\), interface.npy \(2, 12, 6\) and vectors.npy \(12, 60\)",
    ):
        load_solution(entry, profile)


def test_solution_cache_rejects_wrong_shape_interface(saved_entry):
    entry, profile = saved_entry
    np.save(entry / "interface.npy", np.load(entry / "interface.npy")[:, :, :5])
    with pytest.raises(ValueError, match=r"interface.npy \(2, 12, 5\)"):
        load_solution(entry, profile)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"format": 2}, "cache format 2"),
        ({"format": None}, "cache format None"),
        ({"m_max": None}, "lacks m_max"),
        ({"profile_hash": None}, "lacks profile_hash"),
    ],
    ids=["old-format", "no-format", "no-m_max", "no-profile_hash"],
)
def test_solution_cache_rejects_bad_meta(saved_entry, changes, message):
    """Set meta.json keys (None deletes one); each entry raises ValueError."""
    entry, profile = saved_entry
    meta = json.loads((entry / "meta.json").read_text())
    meta.update(changes)
    meta = {key: value for key, value in meta.items() if value is not None}
    (entry / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=message):
        load_solution(entry, profile)


def test_solution_cache_rejects_other_geometry(tmp_path):
    profile = make_reference_cavity(samples=512)
    sol = solve_cavity(profile, BasisSpec(10, 6), k_keep=12)
    save_solution(sol, tmp_path / "cache")
    other = make_rectangle(1.0, profile.length, samples=512)
    with pytest.raises(ValueError):
        load_solution(tmp_path / "cache", other)


def test_cached_solution_replaces_an_entry_of_another_k_keep(tmp_path, caplog):
    profile = make_reference_cavity(samples=512)
    basis = BasisSpec(10, 6)
    solved = cached_solution(profile, basis, 12, tmp_path)
    (slot,) = tmp_path.iterdir()
    hit = cached_solution(profile, basis, 12, tmp_path)
    assert isinstance(hit.coeffs, np.memmap)
    assert np.array_equal(hit.energies, solved.energies)
    # an entry whose arrays are whole but hold 11 levels, in the 12-level slot
    slot.rename(tmp_path / "old")
    save_solution(solve_cavity(profile, basis, k_keep=11), slot)
    with caplog.at_level(logging.INFO, logger="openbilliards.cavity"):
        again = cached_solution(profile, basis, 12, tmp_path)
    assert any("unusable" in r.message and "k_keep 11" in r.message for r in caplog.records)
    assert np.array_equal(again.energies, solved.energies)
    assert load_solution(slot, profile).k_keep == 12


# A small solve frozen per cache format. A change to the numbers a solve
# writes must bump CACHE_FORMAT and record the new values here, or a cached
# entry from before the change would be reused as if it were current.
FROZEN_SOLVES = {
    3: {
        "energies": [
            22.877025596293326, 22.92077239623756, 54.565359089981044,
            54.70699988596725, 73.75477564880993, 74.2118848710335,
            90.42862621704546, 90.68927078973246, 91.94787327498973,
            108.22886108965656, 115.16754438332839, 116.63424700211246,
            126.00400662436004, 132.31352043495787, 139.08668150187225,
            142.96734470327542, 154.8199630314307, 164.1620599866092,
            167.02606344767818, 167.5849120034655,
        ],
        # |interface values| of states 0-2, channels 1-2 (signs are arbitrary)
        "left": [
            [1.2775938170748522, 0.2527387851282512],
            [1.2771199841697722, 0.24415364286298513],
            [0.9058215207936406, 0.305268966364638],
        ],
        "right": [
            [1.2775938170748522, 0.2527387851282512],
            [1.2771199841697722, 0.24415364286298513],
            [0.9058215207936406, 0.305268966364638],
        ],
    },
    # format 4 stores the interface table and maps the vectors; the numbers
    # are format 3's
    4: {
        "energies": [
            22.877025596293326, 22.92077239623756, 54.565359089981044,
            54.70699988596725, 73.75477564880993, 74.2118848710335,
            90.42862621704546, 90.68927078973246, 91.94787327498973,
            108.22886108965656, 115.16754438332839, 116.63424700211246,
            126.00400662436004, 132.31352043495787, 139.08668150187225,
            142.96734470327542, 154.8199630314307, 164.1620599866092,
            167.02606344767818, 167.5849120034655,
        ],
        "left": [
            [1.2775938170748522, 0.2527387851282512],
            [1.2771199841697722, 0.24415364286298513],
            [0.9058215207936406, 0.305268966364638],
        ],
        "right": [
            [1.2775938170748522, 0.2527387851282512],
            [1.2771199841697722, 0.24415364286298513],
            [0.9058215207936406, 0.305268966364638],
        ],
    },
    # format 5 drops the length from meta.json; the numbers are format 4's
    5: {
        "energies": [
            22.877025596293326, 22.92077239623756, 54.565359089981044,
            54.70699988596725, 73.75477564880993, 74.2118848710335,
            90.42862621704546, 90.68927078973246, 91.94787327498973,
            108.22886108965656, 115.16754438332839, 116.63424700211246,
            126.00400662436004, 132.31352043495787, 139.08668150187225,
            142.96734470327542, 154.8199630314307, 164.1620599866092,
            167.02606344767818, 167.5849120034655,
        ],
        "left": [
            [1.2775938170748522, 0.2527387851282512],
            [1.2771199841697722, 0.24415364286298513],
            [0.9058215207936406, 0.305268966364638],
        ],
        "right": [
            [1.2775938170748522, 0.2527387851282512],
            [1.2771199841697722, 0.24415364286298513],
            [0.9058215207936406, 0.305268966364638],
        ],
    },
}


def test_solve_is_frozen_for_the_cache_format():
    frozen = FROZEN_SOLVES[CACHE_FORMAT]
    sol = solve_cavity(make_reference_cavity(samples=256), BasisSpec(16, 8), k_keep=20)
    left, right = sol.interface_values()
    np.testing.assert_allclose(sol.energies, frozen["energies"], rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(np.abs(left[:3, :2]), frozen["left"], rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(np.abs(right[:3, :2]), frozen["right"], rtol=1e-10, atol=0.0)


def test_grid_contract_enforced():
    profile = make_reference_cavity(samples=500)  # not a power of two
    with pytest.raises(ValueError):
        assemble_hamiltonian(profile, BasisSpec(6, 4))
    profile = make_reference_cavity(samples=256)
    with pytest.raises(ValueError):
        assemble_hamiltonian(profile, BasisSpec(200, 4))


def test_only_cavity_reads_the_product_basis():
    """No other module reads `.coeffs` or `axial_norms`: the (n, m) layout of
    the eigenvectors and the basis normalisation stay inside cavity.py."""
    package = Path(__file__).resolve().parents[1] / "src" / "openbilliards"
    offences = []
    for path in sorted(package.glob("*.py")):
        if path.name == "cavity.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("coeffs", "axial_norms"):
                offences.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                offences += [
                    f"{path.name}:{node.lineno} imports axial_norms"
                    for alias in node.names if alias.name == "axial_norms"
                ]
    assert offences == []


def test_sweep_reads_no_eigenvector(tmp_path):
    """A loaded solution stripped of its vectors sweeps to the same bits:
    the scattering path reads the energies and the interface table only."""
    profile = make_reference_cavity(samples=512)
    save_solution(solve_cavity(profile, BasisSpec(10, 6), k_keep=60), tmp_path / "cache")
    loaded = load_solution(tmp_path / "cache", profile)
    stripped = dataclasses.replace(loaded, coeffs=None)
    table, bare = overlaps(loaded), overlaps(stripped)
    for name in ("energies", "left", "right"):
        assert np.array_equal(getattr(bare, name), getattr(table, name))
    grid = np.linspace(0.5, 5.5, 41)  # 0 to 5 open channels
    full, swept = sweep_conductance(loaded, grid), sweep_conductance(stripped, grid)
    assert full.n_open.max() == 5
    assert np.array_equal(swept.transmission, full.transmission)
    assert len(swept.t_blocks) == len(full.t_blocks) == grid.size
    for ours, theirs in zip(swept.t_blocks, full.t_blocks):
        assert np.array_equal(ours, theirs)
