import pytest

from dynsamp import _parallel, bernoulli_mask, evolve, observe, random_tensor, reconstruct
from dynsamp._parallel import pmap

pytestmark = pytest.mark.skipif(
    _parallel._OPENBLAS is None, reason="numpy is not built on scipy-openblas"
)


@pytest.fixture
def blas_threads():
    """OpenBLAS thread getter, with the caller's count set to 2 for the test."""
    get, put = _parallel._OPENBLAS
    saved = get()
    put(2)
    yield get
    put(saved)


def test_pmap_pins_blas_to_one_thread_and_restores(blas_threads):
    before = blas_threads()

    def inner(_):
        return blas_threads()

    def outer(_):
        return [blas_threads(), *pmap(inner, range(3), threads=2)]

    for threads in (1, 2):
        seen = pmap(outer, range(4), threads)
        assert seen == [[1, 1, 1, 1]] * 4
        assert blas_threads() == before


def test_pmap_restores_blas_threads_after_an_item_raises(blas_threads):
    before = blas_threads()

    def fail(x):
        if x == 2:
            raise RuntimeError("item failed")
        return pmap(lambda _: blas_threads(), range(2), threads=2)

    for threads in (1, 2):
        with pytest.raises(RuntimeError, match="item failed"):
            pmap(fail, range(4), threads)
        assert blas_threads() == before


def test_reconstruct_leaves_blas_threads_unchanged(blas_threads):
    before = blas_threads()
    a, f = random_tensor(5, 5, 2, 1), random_tensor(5, 3, 2, 2)
    mask = bernoulli_mask(5, 3, 2, 0.6, 3)
    reconstruct(a, mask, observe(evolve(a, f, 3), mask, 0.0, 4), threads=2)
    assert blas_threads() == before
