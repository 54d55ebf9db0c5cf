"""Fixtures shared by the test modules."""

import pytest

from dynsamp import _parallel


@pytest.fixture
def openblas_threads():
    """Setter of numpy's OpenBLAS thread count; the count the test started
    with comes back after it.  Skips the test where numpy is not built on
    scipy-openblas."""
    if _parallel._OPENBLAS is None:
        pytest.skip("numpy is not built on scipy-openblas")
    get, put = _parallel._OPENBLAS
    saved = get()
    yield put
    put(saved)
