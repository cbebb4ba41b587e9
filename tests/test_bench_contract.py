"""Names and result fields the benchmark harness (perfbench/) reads.

perfbench/child.py and perfbench/tracing.py call these directly; a change
that renames or drops one would crash the benchmark, so it fails here first.
"""

import importlib

import numpy as np
import pytest

from openbilliards.cavity import BasisSpec, save_solution, solve_cavity
from openbilliards.geometry import make_rectangle
from openbilliards.scattering import read_t_store, sweep_conductance, write_t_store

USED_NAMES = {
    "cavity": ["BasisSpec", "solve_cavity", "assemble_hamiltonian", "save_solution",
               "load_solution"],
    "cli": ["main", "load_config", "build_profile", "get_solution"],
    "leads": ["IllConditionedEnergy", "overlaps", "r_matrix", "channel_space"],
    "oned": ["BarrierProblem", "rmatrix_transmission", "exact_transmission"],
    "scattering": ["sweep_conductance", "s_from_r", "write_sweep_csv", "write_t_store",
                   "read_t_store"],
    "spectra": ["uniform_series", "length_spectrum", "peak_positions", "write_power_csv",
                "write_amplitude_csv"],
    "twobody": ["InteractionSpec", "gaussian", "interaction_block"],
}


@pytest.mark.parametrize("module", sorted(USED_NAMES))
def test_used_names_exist(module):
    mod = importlib.import_module(f"openbilliards.{module}")
    missing = [name for name in USED_NAMES[module] if not hasattr(mod, name)]
    assert not missing


def test_ill_conditioned_energy_still_catchable():
    from openbilliards.leads import IllConditionedEnergy

    assert issubclass(IllConditionedEnergy, ArithmeticError)


def test_sweep_result_fields_and_t_store(tmp_path):
    solution = solve_cavity(make_rectangle(1.0, 0.25, samples=256), BasisSpec(9, 8), 72)
    grid = np.linspace(0.5, 2.5, 9)
    result = sweep_conductance(solution, grid)
    for name in ("k", "k_requested", "transmission", "n_open", "unitarity_defect"):
        assert len(getattr(result, name)) == grid.size
    assert len(result.t_blocks) == grid.size
    assert list(result.skipped) == []
    assert np.array_equal(result.k_requested, result.k)
    assert solution.energies.size == solution.k_keep == 72
    assert solution.basis.size == 72
    assert solution.profile.lower.size > 0

    path = tmp_path / "tstore.bin"
    write_t_store(result, path)
    ks, blocks = read_t_store(path)
    assert np.array_equal(ks, result.k)
    assert all(np.array_equal(a, b) for a, b in zip(blocks, result.t_blocks))
    # the read-back check compares blocks bitwise, so dtype and shape must hold
    assert 0 in result.n_open
    for block, n in zip(blocks, result.n_open):
        assert block.dtype == np.complex128 and block.shape == (n, n)


def test_save_solution_fills_its_directory(tmp_path):
    # the cache byte counts walk the directory given to save_solution
    solution = solve_cavity(make_rectangle(1.0, 0.25, samples=256), BasisSpec(9, 8), 72)
    save_solution(solution, tmp_path / "entry")
    files = [p for p in (tmp_path / "entry").rglob("*") if p.is_file()]
    assert sum(p.stat().st_size for p in files) > solution.coeffs.nbytes
