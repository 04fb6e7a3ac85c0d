"""Fixtures shared by several test modules."""

import pytest

from cmkt import parallel


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread-count getter, with the count set to two first, as
    a process started at the machine's default may have it; the test is
    skipped where no thread setter is found. The pin is back afterwards."""
    blas = parallel._blas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS thread setter in this process")
    get_threads, set_threads = blas
    set_threads(2)
    yield get_threads
    set_threads(1)
