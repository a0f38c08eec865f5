"""Shared fixtures.

The expensive Monte Carlo ensembles are session-scoped so the statistical
tests (means, second moments, increment decay) share one batch of replicas
instead of re-simulating per test.  All seeds are frozen.
"""

import numpy as np
import pytest

from branchwiener import martingales as mg
from branchwiener import simulator as sim

#: Deterministic doubling (m=2, sigma^2=0); needs test mode.
BINARY_PMF = (0.0, 0.0, 1.0)

#: Supercritical with spread: m=1.25, sigma^2=0.6875.
MIXED_PMF = (0.25, 0.25, 0.5)

ALPHAS_1D = [(0,), (1,), (2,)]


@pytest.fixture(scope="session")
def binary_law():
    return sim.OffspringLaw(BINARY_PMF, test_mode=True)


@pytest.fixture(scope="session")
def mixed_law():
    return sim.OffspringLaw(MIXED_PMF)


@pytest.fixture(scope="session")
def vmat_binary(binary_law):
    """V_alpha(t) for 20k doubling replicas, alpha in ALPHAS_1D, t <= 6."""
    return mg.ensemble_v_matrix(binary_law, 1, ALPHAS_1D, 6, 20_000, seed=9001)


@pytest.fixture(scope="session")
def vmat_mixed(mixed_law):
    return mg.ensemble_v_matrix(mixed_law, 1, ALPHAS_1D, 6, 20_000, seed=9002)


@pytest.fixture(scope="session")
def merged_1024():
    """d -> one t=3 snapshot of 1024 particles (128 doubling runs merged)."""
    out = {}
    for d in (1, 2):
        positions = []
        for i in range(128):
            cfg = sim.SimConfig(
                d=d, pmf=BINARY_PMF, seed=3_000 + 17 * i + d, t_max=3,
                test_mode=True,
            )
            positions.append(sim.run(cfg)[-1].positions)
        out[d] = sim.Snapshot(t=3, positions=np.concatenate(positions))
    return out
