"""Session-scoped fixtures for the expensive reference eigensolutions.

Each production-truncation solve (90x50 basis, 3000 retained pairs) takes
about 5 s on one core for the mirror-symmetric reference cavity and about
17 s for the asymmetric variants, so the three geometry variants are built
lazily and shared across every test that asks for them.
"""

import numpy as np
import pytest

from openbilliards.cavity import BasisSpec, solve_cavity
from openbilliards.geometry import (
    apply_surface_disorder,
    apply_wiggle,
    make_reference_cavity,
)
from openbilliards.scattering import sweep_conductance

REFERENCE_BASIS = BasisSpec(m_max=90, n_max=50)
REFERENCE_KEEP = 3000
DISORDER_SEED = 1


@pytest.fixture(scope="session")
def reference_profile():
    return make_reference_cavity(samples=2048)


@pytest.fixture(scope="session")
def reference_solution(reference_profile):
    return solve_cavity(reference_profile, REFERENCE_BASIS, k_keep=REFERENCE_KEEP)


@pytest.fixture(scope="session")
def wiggled_solution(reference_profile):
    prof = apply_wiggle(reference_profile, amplitude=0.01, cycles=10)
    return solve_cavity(prof, REFERENCE_BASIS, k_keep=REFERENCE_KEEP)


@pytest.fixture(scope="session")
def disordered_solution(reference_profile):
    prof = apply_surface_disorder(
        reference_profile, roughness=0.2, pieces=100, seed=DISORDER_SEED
    )
    return solve_cavity(prof, REFERENCE_BASIS, k_keep=REFERENCE_KEEP)


@pytest.fixture(scope="session")
def reference_sweep(reference_solution):
    """Full-band conductance sweep of the clean geometry, 2000 points."""
    return sweep_conductance(reference_solution, np.linspace(1.05, 18.95, 2000))
