import numpy as np
import pytest

from grasp.datafiles import data_path, load_profiles_dir


@pytest.fixture(scope="session")
def site_profiles():
    """The nine bundled site profiles, loaded once for the whole run."""
    return load_profiles_dir(data_path("sites"))


def _brute_force_ng(caps, jobs):
    """Best n_g over every one of the m^jobs assignment sequences."""
    m = len(caps)
    total = m**jobs
    idx = np.arange(total)
    counts = np.zeros((total, m), dtype=np.int64)
    for _ in range(jobs):
        idx, digit = np.divmod(idx, m)
        counts[np.arange(total), digit] += 1
    return float(np.minimum(counts, caps).sum(axis=1).max()) if jobs else 0.0


@pytest.fixture(scope="session")
def brute_force_ng():
    """The one brute-force oracle for greedy_hour's n_g."""
    return _brute_force_ng
