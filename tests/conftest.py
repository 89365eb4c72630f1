import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from packdim import DiscreteMeasure

# A frozen artifact should not be flaky: derandomize makes hypothesis
# replay the same cases on every run.
settings.register_profile(
    "frozen",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("frozen")


def random_measure(rng, dim, max_atoms=16, spread=1.0):
    n = int(rng.integers(1, max_atoms + 1))
    atoms = rng.normal(0.0, spread, (n, dim))
    w = rng.random(n)
    return DiscreteMeasure(atoms, w / w.sum())


def scheduled_factor(m):
    """The factor cholesky_psd documents for the matrix ``m`` and the jitter
    it took: np.tril of dpotrf on m + jitter * I, with jitter 0, then
    1e-12 * trace/dim escalated by 10x for at most 4 retries.  The factor
    is None when every attempt fails."""
    from scipy.linalg.lapack import dpotrf

    dim = len(m)
    base = 1e-12 * (np.trace(m) / dim)
    if base <= 0:
        base = 1e-12
    jitter = 0.0
    for attempt in range(5):
        c, info = dpotrf(m + jitter * np.eye(dim), lower=1)
        if info == 0:
            return np.tril(c), jitter
        jitter = base * 10.0**attempt
    return None, jitter


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
