from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import effham as eh

# property tests draw the same examples on every run and never time out,
# so the suite stays deterministic on a slow or shared machine
settings.register_profile("effham", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("effham")

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def spin_model():
    return eh.build(eh.ModelSpec(kind="spin-in-field", omega=1.0, g=0.1, spin_j=1.5))


@pytest.fixture
def dicke_model():
    spec = eh.ModelSpec(kind="dicke", omega_field=10.0, omega0=11.0,
                        g=0.04, atoms=1, n_max=6)
    return eh.build(spec)


@pytest.fixture
def xi_two_photon_model():
    # two-photon resonance: E3 - E1 = 2 omega_f, so D12 = -D23 = 1
    spec = eh.ModelSpec(kind="xi3", energies=(0.0, 11.0, 20.0), omega_field=10.0,
                        couplings=(0.04, 0.04), atoms=1, n_max=6)
    return eh.build(spec)


@pytest.fixture
def lambda_model():
    spec = eh.ModelSpec(kind="lambda3", energies=(0.0, 0.0, 11.0), omega_field=10.0,
                        couplings=(0.05, 0.05), atoms=1, n_max=5)
    return eh.build(spec)


#: D2 = 1, D3 = 1.7, D4 = 0 (three-photon resonance, no two-photon or
#: dipole-dipole resonances)
FOUR_LEVEL_SPEC = eh.ModelSpec(kind="cascade", energies=(0.0, 11.0, 21.7, 30.0),
                               omega_field=10.0, couplings=(0.03, 0.03, 0.03), atoms=1, n_max=8)


@pytest.fixture
def four_level_model():
    return eh.build(FOUR_LEVEL_SPEC, require_resonance=True)


@pytest.fixture
def xi_far_level_model():
    spec = eh.ModelSpec(kind="xi3", energies=(0.0, 11.0, 21.05), omega_field=10.0,
                        couplings=(0.05, 0.05), atoms=2, n_max=6)
    return eh.build(spec)


@pytest.fixture
def two_mode_model():
    wa, wb = 10.0, 11.0
    spec = eh.ModelSpec(kind="two-mode-four",
                        energies=(0.0, wa + 0.7, 2 * wa + 2.6, 3 * wa + 1.7),
                        omega_field=wa, omega_b=wb,
                        couplings=(0.02, 0.015, 0.025), couplings_b=(0.018, 0.022, 0.02),
                        atoms=1, n_max=(4, 4))
    return eh.build(spec)
