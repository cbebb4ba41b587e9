"""Pair matrix elements: orthonormality, symmetry, coordinate-form identity."""

import math

import numpy as np
import pytest

from openbilliards.cavity import BasisSpec, eval_wavefunction, solve_cavity
from openbilliards.geometry import make_rectangle, make_reference_cavity
from openbilliards.twobody import (
    _BLOCK_ROWS,
    InteractionSpec,
    _contract,
    _gauss_grid,
    contact_regularized,
    gaussian,
    h_ijkl,
    h_ijkl_direct,
    interaction_block,
    pair_hamiltonian,
    write_pair_energies_csv,
)


@pytest.fixture(scope="module")
def rect_solution():
    profile = make_rectangle(height=1.0, length=3.0, samples=256)
    return solve_cavity(profile, BasisSpec(m_max=10, n_max=6), k_keep=10)


@pytest.fixture(scope="module")
def curved_solution():
    profile = make_reference_cavity(samples=256)
    return solve_cavity(profile, BasisSpec(m_max=10, n_max=6), k_keep=10)


def constant_potential(value):
    return lambda dist: np.full_like(dist, value)


def test_zero_potential_gives_exact_zeros_and_sum_energies(rect_solution):
    spec = InteractionSpec(potential=constant_potential(0.0), quad_order=12)
    assert h_ijkl(rect_solution, 0, 1, 2, 3, spec) == 0.0
    assert h_ijkl(rect_solution, 0, 0, 0, 0, spec) == 0.0
    states = [0, 1, 2, 3]
    pair = interaction_block(rect_solution, states, spec)
    singles = rect_solution.energies[states]
    expected = np.sort(np.add.outer(singles, singles).ravel())
    np.testing.assert_allclose(pair, expected, rtol=1e-13)


def test_constant_potential_reduces_to_orthonormality(rect_solution):
    c = 2.5
    spec = InteractionSpec(potential=constant_potential(c), quad_order=24)
    assert h_ijkl(rect_solution, 0, 1, 0, 1, spec) == pytest.approx(c, abs=1e-8)
    assert h_ijkl(rect_solution, 3, 2, 3, 2, spec) == pytest.approx(c, abs=1e-8)
    assert h_ijkl(rect_solution, 0, 1, 2, 1, spec) == pytest.approx(0.0, abs=1e-8)
    assert h_ijkl(rect_solution, 1, 1, 1, 2, spec) == pytest.approx(0.0, abs=1e-8)


def test_constant_potential_shifts_pair_energies(curved_solution):
    c = 0.75
    # The curved walls set the u-resolution demand, well past the default.
    spec = InteractionSpec(potential=constant_potential(c), quad_order=40)
    states = [0, 1, 2]
    pair = interaction_block(curved_solution, states, spec)
    singles = curved_solution.energies[states]
    expected = np.sort(np.add.outer(singles, singles).ravel()) + c
    np.testing.assert_allclose(pair, expected, atol=1e-7)


def test_grid_values_are_the_wavefunctions_times_sqrt_j(curved_solution):
    q = 24
    x, y, _, u, v, width = _gauss_grid(curved_solution.profile, q)
    states = [0, 3, 7, 9]
    grid = curved_solution.grid_values(states, u, v)
    assert grid.shape == (len(states), q * q)
    physical = np.stack([eval_wavefunction(curved_solution, s, x, y) for s in states])
    np.testing.assert_allclose(grid / np.sqrt(np.repeat(width, q)), physical, rtol=0, atol=1e-12)


@pytest.mark.parametrize("geometry", ["rectangle", "curved"])
def test_transformed_matches_original_coordinates(
    geometry, rect_solution, curved_solution
):
    solution = rect_solution if geometry == "rectangle" else curved_solution
    spec = InteractionSpec(potential=gaussian(1.0, 0.5), quad_order=32)
    rng = np.random.default_rng(7)
    tuples = rng.integers(0, 8, size=(10, 4))
    direct = np.array(
        [h_ijkl_direct(solution, *tup, spec, quad_order=40) for tup in tuples]
    )
    transformed = np.array([h_ijkl(solution, *tup, spec) for tup in tuples])
    scale = np.max(np.abs(direct))
    assert scale > 0.0
    np.testing.assert_allclose(transformed, direct, atol=1e-6 * scale)


def test_single_element_oracle_relative(rect_solution):
    spec = InteractionSpec(potential=gaussian(1.0, 0.5), quad_order=16)
    ours = h_ijkl(rect_solution, 0, 0, 0, 0, spec)
    ref = h_ijkl_direct(rect_solution, 0, 0, 0, 0, spec, quad_order=20)
    assert ours == pytest.approx(ref, rel=1e-6)


def test_exchange_symmetries_hold_exactly(curved_solution):
    spec = InteractionSpec(potential=gaussian(0.8, 0.6), quad_order=40)
    base = h_ijkl(curved_solution, 0, 1, 2, 3, spec)
    assert h_ijkl(curved_solution, 2, 3, 0, 1, spec) == base
    assert h_ijkl(curved_solution, 1, 0, 3, 2, spec) == base
    mat = pair_hamiltonian(curved_solution, [0, 1, 2, 3], spec)
    assert np.array_equal(mat, mat.T)


def test_blocked_contraction_matches_dense_potential(curved_solution):
    q = 40  # 1600 grid points: several row blocks and a partial last one
    x, y, w2, _, _, _ = _gauss_grid(curved_solution.profile, q)
    assert x.size > 2 * _BLOCK_ROWS and x.size % _BLOCK_ROWS
    potential = gaussian(0.8, 0.6)
    dense = potential(np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :]))
    spec = InteractionSpec(potential=potential, quad_order=q)
    rng = np.random.default_rng(5)
    f = rng.normal(size=(9, x.size)) * w2
    g = rng.normal(size=(4, x.size)) * w2
    got = _contract(spec, x, y, f, g)
    want = f @ dense @ g.T
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def test_lowest_pair_energy_obeys_perturbation_bounds(rect_solution):
    spec = InteractionSpec(potential=gaussian(0.05, 0.5), quad_order=16)
    states = [0, 1, 2]
    mat = pair_hamiltonian(rect_solution, states, spec)
    pair = np.linalg.eigvalsh(mat)
    first_order = mat[0, 0]  # E_0 + E_0 + H_0000
    gap = np.min(np.diag(mat)[1:] - mat[0, 0])
    assert gap > 0.0
    second_order = np.sum(mat[0, 1:] ** 2) / gap
    # Variational from above, second-order-bounded from below.
    assert pair[0] <= first_order + 1e-12
    assert first_order - pair[0] <= 2.0 * second_order + 1e-12


def test_unresolved_potential_is_signaled(rect_solution):
    spike = contact_regularized(1.0, 0.001)
    spec = InteractionSpec(potential=spike, quad_order=8)
    with pytest.raises(ArithmeticError, match="not converged"):
        h_ijkl(rect_solution, 0, 0, 0, 0, spec)
    with pytest.raises(ArithmeticError, match="not converged"):
        pair_hamiltonian(rect_solution, [0, 1], spec)


def test_contact_factory_peak_value():
    pot = contact_regularized(2.0, 0.1)
    assert pot(np.array(0.0)) == pytest.approx(2.0 / (2.0 * math.pi * 0.01))


def test_contact_is_a_normalized_gaussian():
    dist = np.linspace(0.0, 1.5, 61)
    strength, width = 2.0, 0.3
    contact = contact_regularized(strength, width)(dist)
    same = gaussian(strength / (2.0 * math.pi * width**2), math.sqrt(2.0) * width)(dist)
    np.testing.assert_allclose(contact, same, rtol=1e-14, atol=0.0)


def test_input_validation(rect_solution):
    with pytest.raises(TypeError):  # the quadrature order has no default
        InteractionSpec(potential=constant_potential(1.0))
    with pytest.raises(ValueError):
        InteractionSpec(potential=constant_potential(1.0), quad_order=4)
    spec = InteractionSpec(potential=constant_potential(1.0), quad_order=8)
    with pytest.raises(IndexError):
        h_ijkl(rect_solution, 0, 0, 0, 99, spec)
    with pytest.raises(ValueError):
        pair_hamiltonian(rect_solution, [], spec)
    with pytest.raises(ValueError):
        pair_hamiltonian(rect_solution, [0, 0, 1], spec)
    scalar = InteractionSpec(potential=lambda dist: 1.0, quad_order=8)
    with pytest.raises(ValueError, match="elementwise"):
        h_ijkl(rect_solution, 0, 0, 0, 0, scalar)


def test_pair_energy_csv(tmp_path, rect_solution):
    spec = InteractionSpec(potential=constant_potential(0.0), quad_order=8)
    pair = interaction_block(rect_solution, [0, 1], spec)
    path = tmp_path / "pairs.csv"
    write_pair_energies_csv(path, pair, ("potential: none",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# potential: none"
    assert lines[1] == "index,E_pair"
    assert len(lines) == 2 + pair.size
    write_pair_energies_csv(path, pair, ("potential: none",))
    assert path.read_text().splitlines() == lines
