"""Channel spaces, overlaps against direct y-quadrature, reaction matrix."""

import math

import numpy as np
import pytest

from openbilliards.cavity import BasisSpec, eval_wavefunction, solve_cavity
from openbilliards.geometry import make_rectangle, make_reference_cavity, min_width
from openbilliards.leads import (
    LeadSpace,
    OverlapTable,
    channel_space,
    overlaps,
    r_matrix,
)


def test_channel_space_two_open_modes():
    energy = (2.5 * math.pi) ** 2
    space = channel_space(energy, 1.0)
    assert space.n_open == 2
    assert space.wavevectors[0] == pytest.approx(math.pi * math.sqrt(5.25), rel=1e-14)
    assert space.wavevectors[1] == pytest.approx(1.5 * math.pi, rel=1e-14)


def test_channel_space_below_first_threshold():
    space = channel_space((0.5 * math.pi) ** 2, 1.0)
    assert space.n_open == 0
    assert space.wavevectors.size == 0


def test_channel_space_opens_channel_at_exact_threshold():
    space = channel_space((2.0 * math.pi) ** 2, 1.0)
    assert space.n_open == 2
    assert space.wavevectors[1] == 0.0
    assert channel_space((2.0 * math.pi) ** 2 * (1 - 1e-12), 1.0).n_open == 1


def test_channel_space_wavevectors_decreasing_positive():
    space = channel_space((7.3 * math.pi) ** 2, 1.0)
    assert space.n_open == 7
    assert np.all(space.wavevectors > 0)
    assert np.all(np.diff(space.wavevectors) < 0)


def test_neck_sets_effective_first_threshold():
    # the narrowest cross-section gates transmission: for the reference
    # cavity that neck width puts the effective opening near k = 3.23
    profile = make_reference_cavity(samples=2048)
    _, w_min = min_width(profile)
    threshold = (math.pi / w_min) ** 2
    assert channel_space(threshold * 0.999, w_min).n_open == 0
    assert channel_space(threshold * 1.001, w_min).n_open == 1
    assert w_min * 3.23 == pytest.approx(1.0, abs=0.005)


def test_rectangle_overlaps_select_matching_transverse_mode():
    length = 3.0
    sol = solve_cavity(make_rectangle(1.0, length, samples=512), BasisSpec(8, 6), 12)
    table = overlaps(sol)
    # lowest four states are (m, n=1) for m = 0..3
    n0 = math.sqrt(1.0 / length)
    nm = math.sqrt(2.0 / length)
    assert abs(table.left[0, 0]) == pytest.approx(n0, rel=1e-12)
    assert table.right[0, 0] == pytest.approx(table.left[0, 0], rel=1e-12)
    assert abs(table.left[1, 0]) == pytest.approx(nm, rel=1e-12)
    assert table.right[1, 0] == pytest.approx(-table.left[1, 0], rel=1e-12)
    assert abs(table.left[2, 0]) == pytest.approx(nm, rel=1e-12)
    assert table.right[2, 0] == pytest.approx(table.left[2, 0], rel=1e-12)
    # no coupling into other transverse channels
    assert np.max(np.abs(table.left[:4, 1:])) < 1e-12
    assert np.max(np.abs(table.right[:4, 1:])) < 1e-12


def overlap_by_quadrature(sol, x_pos, n_channel, panels=2000):
    """Direct y-integration of eigenstate times lead mode at an interface."""
    profile = sol.profile
    w = profile.lead_width
    y_low = float(profile.lower_fn(x_pos))
    nodes, weights = np.polynomial.legendre.leggauss(4)
    edges = y_low + w * np.arange(panels + 1) / panels
    half = 0.5 * (edges[1:] - edges[:-1])
    y = (edges[:-1, None] + half[:, None] * (nodes[None, :] + 1.0)).ravel()
    wq = np.repeat(half, 4) * np.tile(weights, panels)
    mode = math.sqrt(2.0 / w) * np.sin(n_channel * math.pi * (y - y_low) / w)
    vals = []
    for j in range(sol.k_keep):
        psi_j = eval_wavefunction(sol, j, np.full_like(y, x_pos), y)
        vals.append(float(np.sum(wq * psi_j * mode)))
    return np.asarray(vals)


def test_overlaps_match_direct_quadrature():
    profile = make_reference_cavity(samples=1024)
    sol = solve_cavity(profile, BasisSpec(24, 10), k_keep=20)
    table = overlaps(sol)
    for n_channel in range(1, 7):
        left = overlap_by_quadrature(sol, 0.0, n_channel)
        right = overlap_by_quadrature(sol, profile.length, n_channel)
        assert np.max(np.abs(table.left[:, n_channel - 1] - left)) < 1e-10
        assert np.max(np.abs(table.right[:, n_channel - 1] - right)) < 1e-10


def test_overlaps_are_deterministic():
    sol = solve_cavity(make_reference_cavity(samples=512), BasisSpec(10, 6), 10)
    a = overlaps(sol)
    b = overlaps(sol)
    assert a.n_lead == sol.basis.n_max  # every transverse mode of the basis
    assert np.array_equal(a.left, b.left)
    assert np.array_equal(a.right, b.right)


def test_r_matrix_rank_one():
    table = OverlapTable(
        lead_width=1.0,
        energies=np.array([2.0]),
        left=np.array([[0.7]]),
        right=np.array([[-0.3]]),
    )
    space = channel_space(11.0, 1.0)
    rmat = r_matrix(table, space)
    assert rmat.gap == 11.0 - 2.0
    assert np.array_equal(rmat.regular, np.zeros((2, 2)))
    full = rmat.regular + np.outer(rmat.residue, rmat.residue) / rmat.gap
    expected = np.array([[0.49, -0.21], [-0.21, 0.09]]) / (11.0 - 2.0)
    assert np.max(np.abs(full - expected)) < 1e-15


def test_r_matrix_exactly_symmetric():
    sol = solve_cavity(make_reference_cavity(samples=512), BasisSpec(16, 8), 40)
    table = overlaps(sol)
    space = channel_space((4.3 * math.pi / table.lead_width) ** 2, table.lead_width)
    rmat = r_matrix(table, space)
    assert rmat.regular.shape == (8, 8)
    assert rmat.residue.shape == (8,)
    assert np.array_equal(rmat.regular, rmat.regular.T)


def test_r_matrix_splits_off_the_nearest_level():
    sol = solve_cavity(make_reference_cavity(samples=512), BasisSpec(16, 8), 40)
    table = overlaps(sol)
    target = float(sol.energies[12])
    for energy in (target, target + 1e-3):
        space = channel_space(energy, table.lead_width)
        n = space.n_open
        rmat = r_matrix(table, space)
        assert rmat.gap == energy - target
        assert np.array_equal(
            rmat.residue, np.concatenate([table.left[12, :n], table.right[12, :n]])
        )
        assert np.all(np.isfinite(rmat.regular))
    # the split is exact: the dense sum over every level is recovered
    phi = np.hstack([table.left[:, :n], table.right[:, :n]])
    dense = phi.T @ (phi / (energy - table.energies)[:, None])
    full = rmat.regular + np.outer(rmat.residue, rmat.residue) / rmat.gap
    assert np.max(np.abs(full - dense)) < 1e-9 * np.max(np.abs(dense))


def test_r_matrix_sign_flips_across_pole():
    sol = solve_cavity(make_rectangle(1.0, 3.0, samples=512), BasisSpec(8, 6), 10)
    table = overlaps(sol)
    pole = float(sol.energies[2])
    delta = 1e-5 * pole

    def scalar_r(energy):
        space = LeadSpace(
            energy=energy,
            lead_width=1.0,
            wavevectors=np.array([math.sqrt(energy - math.pi**2)]),
        )
        rmat = r_matrix(table, space)
        return rmat.regular[0, 0] + rmat.residue[0] ** 2 / rmat.gap

    assert scalar_r(pole - delta) < 0
    assert scalar_r(pole + delta) > 0


def test_r_matrix_channel_capacity_check():
    sol = solve_cavity(make_rectangle(1.0, 3.0, samples=512), BasisSpec(8, 1), 8)
    table = overlaps(sol)
    assert table.n_lead == 1
    space = channel_space((2.5 * math.pi) ** 2, 1.0)
    with pytest.raises(ValueError):
        r_matrix(table, space)
