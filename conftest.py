import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent / "src"))


@pytest.fixture
def three_blas_threads():
    """OpenBLAS's thread limit, with the count set to 3, a count no
    BLAS-thread hold sets, so that a test can check that its calls put the
    count back; restored afterwards."""
    from fpopt import propagator

    limit = propagator._openblas_thread_limit()
    if limit is None:
        pytest.skip("no OpenBLAS thread limit: the BLAS-thread hold does nothing")
    before = limit(3)
    yield limit
    limit(before)
