import numpy as np
import pytest

from trenq import Lenz, LogWell, Settings, action_profile, to_log_well


@pytest.fixture(scope="session")
def settings() -> Settings:
    return Settings()


@pytest.fixture(scope="session")
def lenz18_well(settings) -> LogWell:
    """The workhorse test well: (Z/2) sech^2(rho) with Z = 8, V_m = 4."""
    return to_log_well(Lenz(a=1.0, Z=8.0), settings)


@pytest.fixture(scope="session")
def lenz18_profile(lenz18_well, settings):
    return action_profile(lenz18_well, settings)


@pytest.fixture()
def quadratic_well() -> LogWell:
    """Synthetic parabolic well W = 4 - rho^2: the formal well is harmonic."""
    return LogWell(
        base=lambda r: np.maximum(4.0 - np.asarray(r, dtype=float) ** 2, 0.0),
        Z=1.0,
        V_m=4.0,
        rho_star=0.0,
        rho_left=-2.0,
        rho_right=2.0,
        decay_left=1.0,
        decay_right=1.0,
        base_curv=lambda r: np.where(np.abs(np.asarray(r, dtype=float)) < 2.0, -2.0, 0.0),
    )
