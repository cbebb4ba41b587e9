"""S-matrix construction, guide staircase, sweeps, and output formats."""

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
    cayley_smatrix,
    conductance,
    read_t_store,
    s_from_r,
    sweep_conductance,
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
