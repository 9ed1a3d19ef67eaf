import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from scanseg._kernels import warmup

# The reference sweep runs interpreted and some cases are large; never let
# a slow example count against a hypothesis deadline, and keep runs
# reproducible in CI.
settings.register_profile(
    "scanseg",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("scanseg")


@pytest.fixture(scope="session")
def warmed():
    warmup()
    return True


@pytest.fixture
def square_room():
    from scanseg import RoomModel

    vertices = np.array([[-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]])
    return RoomModel(vertices, (0.0, 0.0, 0.0))
