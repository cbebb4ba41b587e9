"""Step-barrier module against an independent wave-matching oracle."""

import math
import time
import warnings

import numpy as np
import pytest

from openbilliards.leads import r_matrix
from openbilliards.oned import (
    BarrierProblem,
    exact_transmission,
    lead_space,
    rmatrix_transmission,
)
from openbilliards.scattering import conductance, s_from_r


def barrier_smatrix(energy, prob):
    space = lead_space(energy)
    return s_from_r(r_matrix(prob.table(), space), space)


def transmission_by_matching(energy, height):
    """Plane-wave matching across [0, 1] solved as a 4x4 linear system.

    Unknowns r, a, b, t for psi = e^{ikx} + r e^{-ikx} outside left,
    a e^{iqx} + b e^{-iqx} inside, t e^{ik(x-1)} outside right. Evanescent
    interior handled by the complex square root.
    """
    k = np.lib.scimath.sqrt(complex(energy))
    q = np.lib.scimath.sqrt(complex(energy - height))
    eq = np.exp(1j * q)
    mat = np.array(
        [
            [-1.0, 1.0, 1.0, 0.0],
            [1j * k, 1j * q, -1j * q, 0.0],
            [0.0, eq, 1.0 / eq, -1.0],
            [0.0, 1j * q * eq, -1j * q / eq, -1j * k],
        ]
    )
    rhs = np.array([1.0, 1j * k, 0.0, 0.0])
    r, a, b, t = np.linalg.solve(mat, rhs)
    return float(abs(t) ** 2)


def test_zero_height_transmits_fully():
    for e_val in (0.3, 1.0, 7.5, 19.0):
        assert exact_transmission(e_val, 0.0) == 1.0


def test_resonance_at_interior_momentum_pi():
    v0 = 1.0
    assert exact_transmission(v0 + math.pi**2, v0) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("energy", [2.0, 0.5, 5.7, 13.4])
def test_exact_formula_matches_wave_matching(energy):
    v0 = 1.0
    assert exact_transmission(energy, v0) == pytest.approx(
        transmission_by_matching(energy, v0), abs=1e-10
    )


def test_exact_formula_continuous_at_step_top():
    v0 = 1.3
    below = exact_transmission(v0 - 1e-9, v0)
    at = exact_transmission(v0, v0)
    above = exact_transmission(v0 + 1e-9, v0)
    assert at == pytest.approx(1.0 / (1.0 + v0 / 4.0), rel=1e-12)
    assert below == pytest.approx(at, rel=1e-8)
    assert above == pytest.approx(at, rel=1e-8)


def test_reaction_matrix_transmission_near_exact():
    prob = BarrierProblem(height=1.0)
    err = abs(rmatrix_transmission(2.0, prob) - exact_transmission(2.0, 1.0))
    assert err < 1e-3


def test_truncation_error_decreases_monotonically():
    exact = exact_transmission(2.0, 1.0)
    errors = [
        abs(rmatrix_transmission(2.0, BarrierProblem(1.0, m_trunc=m)) - exact)
        for m in (50, 200, 1000)
    ]
    assert errors[0] > errors[1] > errors[2]


def test_zero_height_rmatrix_grid():
    prob = BarrierProblem(height=0.0)
    for e_val in np.linspace(0.5, 20.0, 40):
        if np.min(np.abs(e_val - prob.table().energies)) < 1e-3:
            continue
        assert rmatrix_transmission(e_val, prob) == pytest.approx(1.0, abs=1e-3)


def test_smatrix_unitary_and_symmetric():
    prob = BarrierProblem(height=1.0)
    for e_val in (0.4, 2.0, 8.3, 17.0):
        smat = barrier_smatrix(e_val, prob)
        defect = np.max(np.abs(smat @ smat.conj().T - np.eye(2)))
        assert defect < 1e-6
        assert abs(smat[0, 1] - smat[1, 0]) < 1e-12


def test_diagonal_decreases_between_poles():
    # Every series term 1/(E - E_m) falls with E, so R_rr is strictly
    # decreasing on any interval between consecutive poles.
    prob = BarrierProblem(height=1.0, m_trunc=400)
    lo = 1.0 + math.pi**2
    hi = 1.0 + 4.0 * math.pi**2
    grid = np.linspace(lo + 0.5, hi - 0.5, 25)
    values = []
    for e_val in grid:
        rmat = r_matrix(prob.table(), lead_space(e_val))
        values.append(rmat.regular[1, 1] + rmat.residue[1] ** 2 / rmat.gap)
    assert np.all(np.diff(values) < 0.0)


@pytest.mark.parametrize("energy", [1.0, 1.0 + math.pi**2])
def test_interior_levels_are_computed(energy):
    # E = V0 is the m = 0 level, 1 + pi^2 the m = 1 level
    prob = BarrierProblem(height=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        smat = barrier_smatrix(energy, prob)
        rmat = r_matrix(prob.table(), lead_space(energy))
        near = [rmatrix_transmission(energy * f, prob) for f in (1 - 1e-9, 1 + 1e-9)]
    assert rmat.gap == 0.0
    assert np.all(np.isfinite(smat))
    assert np.max(np.abs(smat @ smat.conj().T - np.eye(2))) < 1e-13
    t_at = float(abs(smat[1, 0]) ** 2)
    assert max(abs(t - t_at) for t in near) < 1e-6
    assert abs(t_at - exact_transmission(energy, 1.0)) < 1e-3


def test_input_validation():
    with pytest.raises(ValueError):
        BarrierProblem(height=-1.0)
    with pytest.raises(ValueError):
        BarrierProblem(height=1.0, m_trunc=0)
    with pytest.raises(ValueError):
        exact_transmission(-2.0, 1.0)
    with pytest.raises(ValueError):
        rmatrix_transmission(0.0, BarrierProblem(height=1.0))
    with pytest.raises(ValueError):
        lead_space(0.0)


def test_table_matches_closed_form_reaction_matrix():
    # The infinite Neumann sums are cot(q)/q on the diagonal and 1/(q sin q)
    # off it, q^2 = E - V0. The truncated diagonal misses the m > M tail,
    # about 2/(pi^2 M) = 2.0e-4 at M = 1000; the alternating off-diagonal
    # tail is far smaller.
    v0 = 1.0
    prob = BarrierProblem(height=v0, m_trunc=1000)
    for e_val in (0.4, 2.0, 8.3, 17.0):
        rmat = r_matrix(prob.table(), lead_space(e_val))
        full = rmat.regular + np.outer(rmat.residue, rmat.residue) / rmat.gap
        q = np.lib.scimath.sqrt(complex(e_val - v0))
        diag = (np.cos(q) / (q * np.sin(q))).real
        off = (1.0 / (q * np.sin(q))).real
        assert abs(full[0, 0] - diag) < 3e-4 and abs(full[1, 1] - diag) < 3e-4
        assert abs(full[0, 1] - off) < 1e-6 and full[0, 1] == full[1, 0]


def test_transmission_is_the_pipeline_conductance():
    prob = BarrierProblem(height=1.0)
    for e_val in (0.4, 1.0, 2.0, 1.0 + math.pi**2, 17.0):
        space = lead_space(e_val)
        smat = s_from_r(r_matrix(prob.table(), space), space)
        assert rmatrix_transmission(e_val, prob) == conductance(smat)


def test_full_energy_scan_accuracy_and_speed():
    prob = BarrierProblem(height=1.0)
    energies = np.linspace(0.1, 20.0, 200)
    start = time.perf_counter()
    worst = 0.0
    for e_val in energies:
        t_rm = rmatrix_transmission(e_val, prob)
        worst = max(worst, abs(t_rm - exact_transmission(e_val, prob.height)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-3
    assert elapsed < 1.0
