"""S-matrix construction, guide staircase, sweeps, and output formats."""

import dataclasses
import io
import logging
import math
import warnings

import numpy as np
import pytest

from openbilliards.cavity import BasisSpec, solve_cavity
from openbilliards.geometry import make_rectangle, make_reference_cavity
from openbilliards.leads import (
    LeadSpace,
    ReactionMatrix,
    channel_space,
    overlaps,
    r_matrix,
)
from openbilliards.scattering import (
    _SLICE,
    cayley_smatrix,
    conductance,
    read_t_store,
    s_from_r,
    sweep_conductance,
    unitarity_defect,
    write_sweep_csv,
    write_t_store,
)


@pytest.fixture(scope="module")
def guide_solution():
    # short, wide straight guide: deep axial truncation keeps the
    # reaction-matrix tail error per channel near (2/(pi*sqrt(E_max)))^2
    profile = make_rectangle(1.0, 0.25, samples=256)
    basis = BasisSpec(m_max=17, n_max=69)
    return solve_cavity(profile, basis, k_keep=basis.size)


def lead_space_1d(k):
    return LeadSpace(energy=k * k, lead_width=1.0, wavevectors=np.array([k]))


def blocks(smat):
    """The blocks r, t', t, r' of S = [[r, t'], [t, r']]."""
    n = smat.shape[0] // 2
    return smat[:n, :n], smat[:n, n:], smat[n:, :n], smat[n:, n:]


def finite(rmat):
    """A finite reaction matrix: no pole term."""
    rmat = np.asarray(rmat, dtype=float)
    return ReactionMatrix(regular=rmat, residue=np.zeros(rmat.shape[0]), gap=1.0)


def test_hard_wall_limit_reflects_with_dirichlet_phase():
    smat = cayley_smatrix(finite(np.zeros((4, 4))), np.array([1.0, 2.0, 1.0, 2.0]))
    assert np.array_equal(smat, -np.eye(4))


def test_cayley_unitary_and_symmetric():
    rng = np.random.default_rng(3)
    rmat = rng.normal(size=(6, 6))
    rmat = 0.5 * (rmat + rmat.T)
    k = rng.uniform(0.5, 3.0, size=6)
    smat = cayley_smatrix(finite(rmat), k)
    assert np.array_equal(smat, smat.T)
    defect = np.max(np.abs(smat @ smat.conj().T - np.eye(6)))
    assert defect < 1e-12


def test_split_pole_matches_the_dense_sum():
    # Away from the pole the split form is the plain Cayley image of
    # regular + outer(residue, residue) / gap.
    rng = np.random.default_rng(5)
    regular = rng.normal(size=(6, 6))
    regular = 0.5 * (regular + regular.T)
    residue = rng.normal(size=6)
    k = rng.uniform(0.5, 3.0, size=6)
    for gap in (0.3, -2.0, 1e-3):
        split = cayley_smatrix(ReactionMatrix(regular, residue, gap), k)
        dense = cayley_smatrix(finite(regular + np.outer(residue, residue) / gap), k)
        assert np.max(np.abs(split - dense)) < 1e-12


def test_cayley_on_the_pole_is_finite_and_continuous():
    rng = np.random.default_rng(7)
    regular = rng.normal(size=(4, 4))
    regular = 0.5 * (regular + regular.T)
    residue = rng.normal(size=4)
    k = np.array([0.7, 1.9, 0.7, 1.9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at = cayley_smatrix(ReactionMatrix(regular, residue, 0.0), k)
        for gap in (-1e-9, 1e-9):
            near = cayley_smatrix(ReactionMatrix(regular, residue, gap), k)
            assert np.max(np.abs(near - at)) < 1e-7
        # a level that does not couple to the channels drops out
        decoupled = cayley_smatrix(ReactionMatrix(regular, np.zeros(4), 0.0), k)
    assert np.max(np.abs(at @ at.conj().T - np.eye(4))) < 1e-13
    assert np.array_equal(decoupled, cayley_smatrix(finite(regular), k))


def test_closed_channel_at_threshold_carries_no_flux():
    rng = np.random.default_rng(9)
    rmat = rng.normal(size=(4, 4))
    smat = cayley_smatrix(finite(rmat + rmat.T), np.array([1.3, 0.0, 1.3, 0.0]))
    assert smat[1, 1] == -1.0 and smat[3, 3] == -1.0
    assert np.all(smat[[1, 3]][:, [0, 2]] == 0.0)
    assert np.max(np.abs(smat @ smat.conj().T - np.eye(4))) < 1e-13
    with pytest.raises(ValueError):
        cayley_smatrix(finite(rmat), np.array([1.0, -1e-3, 1.0, 1.0]))


def test_free_guide_closed_form_reaction_matrix():
    # exact R for a clean segment of guide (single channel): the S-matrix
    # must transmit fully with the propagation phase and not reflect
    k = 2.3
    rmat = np.array(
        [
            [math.cos(k) / math.sin(k), 1.0 / math.sin(k)],
            [1.0 / math.sin(k), math.cos(k) / math.sin(k)],
        ]
    ) / k
    smat = s_from_r(finite(rmat), lead_space_1d(k))
    r, _, t, _ = blocks(smat)
    assert abs(r[0, 0]) < 1e-13
    assert t[0, 0] == pytest.approx(np.exp(1j * k), abs=1e-13)
    assert np.max(np.abs(smat @ smat.conj().T - np.eye(2))) < 1e-13


def test_zero_reaction_matrix_blocks():
    space = channel_space((2.5 * math.pi) ** 2, 1.0)
    smat = s_from_r(finite(np.zeros((4, 4))), space)
    r, _, t, _ = blocks(smat)
    assert np.array_equal(r, -np.eye(2))
    assert np.array_equal(t, np.zeros((2, 2)))
    assert conductance(smat) == 0.0


def test_no_open_channel_gives_an_empty_smatrix(guide_solution):
    table = overlaps(guide_solution)
    space = channel_space((0.5 * math.pi) ** 2, 1.0)  # below the first threshold
    smat = s_from_r(r_matrix(table, space), space)
    assert smat.shape == (0, 0) and smat.dtype == np.complex128
    assert conductance(smat) == 0.0


def test_straight_guide_staircase(guide_solution):
    table = overlaps(guide_solution)
    width = table.lead_width
    for k_val in np.linspace(1.07, 2.93, 50):
        energy = (k_val * math.pi / width) ** 2
        space = channel_space(energy, width)
        smat = s_from_r(r_matrix(table, space), space)
        total = conductance(smat)
        expected = math.floor(k_val)
        assert abs(total - expected) < 1e-3, f"k={k_val}: T={total}"
        assert total <= expected + 1e-9
        assert np.max(np.abs(smat @ smat.conj().T - np.eye(smat.shape[0]))) < 1e-10


def test_flux_conservation(guide_solution):
    table = overlaps(guide_solution)
    space = channel_space((2.5 * math.pi) ** 2, 1.0)
    smat = s_from_r(r_matrix(table, space), space)
    reflected = float(np.sum(np.abs(blocks(smat)[0]) ** 2))
    assert conductance(smat) + reflected == pytest.approx(2.0, abs=1e-10)


def test_symmetric_cavity_has_equal_left_right_blocks():
    sol = solve_cavity(make_reference_cavity(samples=1024), BasisSpec(30, 16), 200)
    table = overlaps(sol)
    w = table.lead_width
    space = channel_space((4.5 * math.pi / w) ** 2, w)
    r, t_prime, t, r_prime = blocks(s_from_r(r_matrix(table, space), space))
    assert np.array_equal(t_prime, t.T)  # reciprocity, exact
    assert np.max(np.abs(r - r_prime)) < 1e-8  # mirror symmetry
    assert np.max(np.abs(t - t_prime)) < 1e-8


def test_sweep_computes_thresholds_and_closed_points(guide_solution):
    grid = np.array([0.5, 1.0, 1.3, 2.0, 2.4])
    result = sweep_conductance(guide_solution, grid)
    assert result.k.tolist() == grid.tolist()
    assert result.n_open.tolist() == [0, 1, 1, 2, 2]
    assert result.transmission[0] == 0.0
    assert result.unitarity_defect[0] == 0.0
    assert result.t_blocks[0].shape == (0, 0)
    # a channel opening exactly at k carries no flux yet
    assert result.transmission[1] == 0.0
    assert np.all(result.t_blocks[3][1, :] == 0.0)
    assert np.all(result.t_blocks[3][:, 1] == 0.0)
    assert abs(result.transmission[2] - 1.0) < 1e-3
    assert abs(result.transmission[3] - 1.0) < 1e-3
    assert abs(result.transmission[4] - 2.0) < 1e-3
    assert np.all(result.unitarity_defect < 1e-12)


def sweep_around(solution, k_val):
    """Sweep at k and at k(1 -/+ 1e-9), with every warning an error."""
    grid = k_val * np.array([1.0, 1.0 - 1e-9, 1.0 + 1e-9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return sweep_conductance(solution, grid)


def test_sweep_on_a_cavity_level(guide_solution):
    width = guide_solution.profile.lead_width
    k_val = width * math.sqrt(float(guide_solution.energies[40])) / math.pi
    result = sweep_around(guide_solution, k_val)
    assert np.all(np.isfinite(result.transmission))
    assert np.all(result.unitarity_defect < 1e-12)
    assert np.max(np.abs(result.transmission[1:] - result.transmission[0])) < 1e-6


def test_sweep_on_a_channel_threshold():
    # the reference cavity's neck makes T continuous through a threshold,
    # unlike the clean guide's staircase
    sol = solve_cavity(make_reference_cavity(samples=1024), BasisSpec(30, 16), 200)
    result = sweep_around(sol, 5.0)
    assert result.n_open.tolist() == [5, 4, 5]
    assert np.all(result.t_blocks[0][4, :] == 0.0)
    assert np.all(result.unitarity_defect < 1e-12)
    assert np.max(np.abs(result.transmission[1:] - result.transmission[0])) < 1e-6


def test_sweep_channel_validation():
    sol_small = solve_cavity(
        make_rectangle(1.0, 0.5, samples=256), BasisSpec(6, 3), 18
    )
    with pytest.raises(ValueError):
        sweep_conductance(sol_small, np.array([4.5]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            sweep_conductance(sol_small, np.array([1.5, bad]))


def test_sweep_past_the_axial_cutoff_logs_one_warning(caplog, reference_solution):
    # k_c = m_max * w / L = 6 * 1 / 3 = 2 (units pi/w); n_max 4 allows k < 5
    sol = solve_cavity(make_rectangle(1.0, 3.0, samples=256), BasisSpec(6, 4), 24)
    with caplog.at_level(logging.WARNING, logger="openbilliards.scattering"):
        sweep_conductance(sol, np.array([1.5, 1.9]))
        assert caplog.records == []
        sweep_conductance(sol, np.array([1.5, 2.5]))
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert "2.5" in record.getMessage() and "k_c" in record.getMessage()
        caplog.clear()
        with pytest.raises(ValueError, match="sweep needs 5 lead channels"):
            sweep_conductance(sol, np.array([5.5]))  # rejected before any warning
        assert caplog.records == []
        # the default config's grid tops out at 19 < k_c = 20.86
        sweep_conductance(reference_solution, np.array([19.0]))
        assert caplog.records == []


def test_sweep_csv_roundtrip(tmp_path, guide_solution):
    grid = np.linspace(0.8, 2.6, 10)  # contains 1.0 and 2.0 exactly
    result = sweep_conductance(guide_solution, grid)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, path, header_lines=("units: k in pi/w",))
    text = path.read_text()
    comments = [l for l in text.splitlines() if l.startswith("#")]
    assert comments == ["# units: k in pi/w"]
    body = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    rows = np.genfromtxt(io.StringIO(body), delimiter=",", names=True)
    assert rows.shape[0] == grid.size
    np.testing.assert_allclose(rows["T"], result.transmission, rtol=1e-11, atol=1e-15)
    assert rows["N_open"].tolist() == result.n_open.tolist()
    assert np.all(np.isfinite(rows["unitarity_defect"]))
    write_sweep_csv(result, tmp_path / "again.csv", header_lines=("units: k in pi/w",))
    assert (tmp_path / "again.csv").read_text() == text


def test_t_store_roundtrip(tmp_path, guide_solution):
    # k = 0.5 is below the first threshold: an empty block
    result = sweep_conductance(guide_solution, np.r_[0.5, np.linspace(1.1, 2.9, 7)])
    assert result.n_open[0] == 0
    path = tmp_path / "tblocks.bin"
    write_t_store(result, path)
    ks, blocks = read_t_store(path)
    assert np.array_equal(ks, result.k)
    assert len(blocks) == len(result.t_blocks)
    for got, want in zip(blocks, result.t_blocks):
        assert np.array_equal(got, want)
    write_t_store(result, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_t_store_is_three_npy_arrays(tmp_path, guide_solution):
    result = sweep_conductance(guide_solution, np.r_[0.5, np.linspace(1.1, 2.9, 7)])
    path = tmp_path / "tstore.bin"
    write_t_store(result, path)
    with open(path, "rb") as fh:
        ks, n_open, flat = np.load(fh), np.load(fh), np.load(fh)
        assert fh.read() == b""
    assert np.array_equal(ks, result.k)
    assert n_open.dtype == np.int64 and np.array_equal(n_open, result.n_open)
    assert np.array_equal(flat, np.concatenate([b.ravel() for b in result.t_blocks]))
    # a count that does not match the values is refused
    with open(path, "wb") as fh:
        np.save(fh, ks)
        np.save(fh, n_open + 1)
        np.save(fh, flat)
    with pytest.raises(ValueError, match="values"):
        read_t_store(path)


def test_conductance_bounded(guide_solution):
    result = sweep_conductance(guide_solution, np.linspace(1.05, 2.95, 40))
    assert np.all(result.transmission >= 0.0)
    assert np.all(result.transmission <= result.n_open + 1e-9)


def test_sweep_point_does_not_depend_on_the_rest_of_the_grid(
    reference_solution, reference_sweep
):
    full = reference_sweep
    for lo, hi in ((3, 6), (6, 9), (9, 12), (12, 15), (15, 18)):
        inside = np.flatnonzero((full.k >= lo) & (full.k <= hi))
        part = sweep_conductance(reference_solution, full.k[inside])
        assert np.array_equal(part.transmission, full.transmission[inside]), (lo, hi)
        for block, i in zip(part.t_blocks, inside):
            assert np.array_equal(block, full.t_blocks[i]), (lo, hi, full.k[i])


def test_stacked_cayley_equals_per_slice_calls():
    rng = np.random.default_rng(13)
    raw = rng.normal(size=(7, 4, 4))
    regular = 0.5 * (raw + raw.mT)
    residue = rng.normal(size=(7, 4))
    gap = rng.normal(size=7)
    k = rng.uniform(0.5, 3.0, size=(7, 4))
    residue[3], gap[3] = 0.0, 0.0  # a decoupled level on its pole: denom == 0
    gap[5] = 0.0  # a coupled level on its pole
    k[1, 2] = 0.0  # a channel at its threshold
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = cayley_smatrix(ReactionMatrix(regular, residue, gap), k)
        part = cayley_smatrix(ReactionMatrix(regular[2:5], residue[2:5], gap[2:5]), k[2:5])
    assert stack.shape == (7, 4, 4)
    for i in range(7):
        one = cayley_smatrix(ReactionMatrix(regular[i], residue[i], gap[i]), k[i])
        assert np.array_equal(stack[i], one), i
    assert np.array_equal(part, stack[2:5])
    assert np.array_equal(stack[3], cayley_smatrix(finite(regular[3]), k[3]))
    assert np.all(unitarity_defect(stack) < 1e-13)


def exact_level_k(solution, index):
    """A k (units pi/w) whose sweep energy (k*pi/w)^2 is cavity level `index`
    exactly, or None when no float k gives it."""
    w = solution.profile.lead_width
    level = solution.energies[index]
    k_val = w * math.sqrt(level) / math.pi
    for _ in range(64):
        energy = (k_val * math.pi / w) ** 2
        if energy == level:
            return k_val
        k_val = np.nextafter(k_val, math.inf if energy < level else -math.inf)
    return None


def test_grouped_sweep_equals_single_point_evaluation(guide_solution):
    w = guide_solution.profile.lead_width
    exact = (exact_level_k(guide_solution, j) for j in range(8, 60))
    on_level = next(k for k in exact if k is not None and k % 1.0 > 0.1)  # off a threshold
    # unsorted; a duplicate k, no open channel (0.5), exact thresholds (1.0, 2.0)
    grid = np.array([2.4, 0.5, 1.3, 2.0, on_level, 1.3, 2.9, 1.0, 1.7, 2.4, 0.8])
    result = sweep_conductance(guide_solution, grid)
    table = overlaps(guide_solution)
    energies = (grid * math.pi / w) ** 2
    gaps = []
    for i, energy in enumerate(energies):
        space = channel_space(float(energy), w)
        rmat = r_matrix(table, space)
        smat = s_from_r(rmat, space)
        n = space.n_open
        gaps.append(np.min(np.abs(rmat.gap)))  # the nearer of the two blocks' gaps
        assert result.n_open[i] == n
        assert result.transmission[i] == conductance(smat), grid[i]
        assert result.unitarity_defect[i] == unitarity_defect(smat), grid[i]
        assert np.array_equal(result.t_blocks[i], smat[n:, :n]), grid[i]
    assert 0.0 in gaps  # the exact cavity level
    assert result.n_open.tolist() == [2, 0, 1, 2, int(on_level), 1, 2, 1, 1, 2, 0]
    assert np.array_equal(result.t_blocks[0], result.t_blocks[9])


def test_opposite_parity_levels_each_split_off(guide_solution):
    # Levels 99 (odd) and 100 (even) lie 9.1e-13 apart. Each parity block
    # splits off its own nearest level, so neither pole is left in the
    # regular part and T on either level matches T just beside it.
    table = overlaps(guide_solution)
    left, right = guide_solution.interface_values()
    levels = guide_solution.energies
    assert 0.0 < levels[100] - levels[99] < 1e-12
    assert np.array_equal(right[99], -left[99]) and np.array_equal(right[100], left[100])
    for level in levels[99:101]:
        spaces = [channel_space(level * f, table.lead_width) for f in (1.0, 1 - 1e-9, 1 + 1e-9)]
        t_at, *near = [conductance(s_from_r(r_matrix(table, space), space)) for space in spaces]
        assert max(abs(t - t_at) for t in near) < 1e-6, level


@pytest.fixture(scope="module")
def mirror_solution():
    return solve_cavity(make_reference_cavity(samples=1024), BasisSpec(30, 16), 200)


def brute_force_smatrix(table, energy):
    """S at `energy` from the pole sum over every level in the lead channels
    (left, then right) and a dense solve of the Cayley form."""
    space = channel_space(energy, table.lead_width)
    n = space.n_open
    phi = np.hstack([table.left[:, :n], table.right[:, :n]])
    rmat = phi.T @ (phi / (energy - table.energies)[:, None])
    sk = np.sqrt(np.concatenate([space.wavevectors, space.wavevectors]))
    scaled = 1j * sk[:, None] * rmat * sk[None, :]
    eye = np.eye(2 * n)
    return np.linalg.solve(scaled + eye, scaled - eye)


def test_sweep_matches_a_brute_force_smatrix(mirror_solution):
    table = overlaps(mirror_solution)
    assert table.blocks[0].shape[0] == 2  # mirror-symmetric: even and odd blocks
    grid = np.linspace(1.13, 6.87, 41)
    result = sweep_conductance(mirror_solution, grid)
    energies = (grid * math.pi / table.lead_width) ** 2
    off_levels = np.min(np.abs(energies[:, None] - table.energies), axis=1) > 1e-6 * energies
    assert np.count_nonzero(off_levels) > 35
    for i in np.flatnonzero(off_levels):
        smat = brute_force_smatrix(table, energies[i])
        n = result.n_open[i]
        assert abs(result.transmission[i] - conductance(smat)) < 1e-10, grid[i]
        assert np.max(np.abs(result.t_blocks[i] - smat[n:, :n])) < 1e-10, grid[i]


def test_a_broken_mirror_takes_the_one_block_layout(mirror_solution):
    interface = mirror_solution.interface.copy()
    interface[1, 7] *= 1.0 + 1e-12  # one level's right row
    broken = dataclasses.replace(mirror_solution, interface=interface)
    levels, sides = overlaps(broken).blocks
    assert levels.shape == (200,) and len(sides) == 2  # (left, right)
    space = channel_space(float(mirror_solution.energies[30]) + 0.1, mirror_solution.profile.lead_width)
    assert r_matrix(overlaps(broken), space).regular.shape == (2 * space.n_open,) * 2
    grid = np.linspace(1.13, 6.87, 41)
    one = sweep_conductance(broken, grid)
    two = sweep_conductance(mirror_solution, grid)
    assert np.array_equal(one.n_open, two.n_open)
    assert np.max(np.abs(one.transmission - two.transmission)) < 1e-10


def test_sweep_point_does_not_depend_on_the_grid_past_a_slice(guide_solution):
    # 600 points that all open one channel: several stacks, the last one partial
    full = sweep_conductance(guide_solution, np.linspace(1.05, 1.95, 600))
    assert np.all(full.n_open == 1) and 600 % _SLICE and 600 > 2 * _SLICE
    for picked in (np.arange(200, 320), np.arange(250, 263), np.arange(0, 600, 7),
                   np.arange(599, 0, -3)):
        part = sweep_conductance(guide_solution, full.k[picked])
        assert np.array_equal(part.transmission, full.transmission[picked])
        assert np.array_equal(part.unitarity_defect, full.unitarity_defect[picked])
        assert np.array_equal(part.t, full.t[picked])


def test_t_blocks_are_views_of_the_flat_layout(guide_solution):
    result = sweep_conductance(guide_solution, np.r_[0.5, np.linspace(1.1, 2.9, 7)])
    assert result.t.shape == (int(np.sum(result.n_open**2)),)
    offsets = result.t_offsets
    for i, block in enumerate(result.t_blocks):
        assert block.size == 0 or np.shares_memory(block, result.t)
        assert np.array_equal(block.ravel(), result.t[offsets[i] : offsets[i + 1]])
