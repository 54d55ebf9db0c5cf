import threading

import numpy as np
import pytest

from dynsamp import _parallel, bernoulli_mask, evolve, observe, random_tensor, reconstruct, rel_error
from dynsamp._parallel import pmap
from dynsamp.reconstruct import _solve_stack, assemble_column_system, solve_column
from dynsamp.tensor3 import _norm2


@pytest.fixture
def blas_threads(openblas_threads):
    """OpenBLAS thread getter, with the count set to 2 for the test."""
    openblas_threads(2)
    return _parallel._OPENBLAS[0]


def _stack(seed):
    """A (2, 6, 4) stack of [M | b] systems with m*n = 3."""
    return np.random.default_rng(seed).standard_normal((2, 6, 4))


# kernel -> (the np.linalg function it calls, a call of the kernel)
KERNELS = {
    "solve-stack": ("qr", lambda: _solve_stack(_stack(1), 3)),
    "norm": ("norm", lambda: _norm2(np.arange(5.0))),
}


def _spy(monkeypatch, name, before):
    """Replace ``np.linalg.<name>`` with a wrapper that calls ``before`` first."""
    inner = getattr(np.linalg, name)

    def spy(*args, **kwargs):
        before()
        return inner(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_pins_blas_to_one_thread_and_restores(blas_threads, monkeypatch, kernel):
    name, call = KERNELS[kernel]
    seen = []
    _spy(monkeypatch, name, lambda: seen.append(blas_threads()))
    call()
    assert seen and set(seen) == {1}
    assert blas_threads() == 2


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_restores_blas_threads_after_it_raises(blas_threads, monkeypatch, kernel):
    name, call = KERNELS[kernel]

    def fail():
        raise RuntimeError("kernel failed")

    _spy(monkeypatch, name, fail)
    with pytest.raises(RuntimeError, match="kernel failed"):
        call()
    assert blas_threads() == 2


def test_solves_in_two_pool_threads_share_one_pin(blas_threads, monkeypatch):
    """The solve that returns first leaves OpenBLAS pinned for the one still
    running: the pin is undone when the last one exits."""
    both_in, first_out = threading.Barrier(2, timeout=10), threading.Event()
    item = threading.local()
    seen = []

    def before():
        both_in.wait()
        if item.index == 1:
            assert first_out.wait(timeout=10)
        seen.append(blas_threads())

    def solve(i):
        item.index = i
        try:
            return _solve_stack(_stack(i), 3)
        finally:
            if i == 0:
                first_out.set()

    _spy(monkeypatch, "qr", before)
    pmap(solve, range(2), threads=2)
    assert seen == [1, 1]
    assert blas_threads() == 2


def test_reconstruct_leaves_blas_threads_unchanged(blas_threads):
    a, f = random_tensor(5, 5, 2, 1), random_tensor(5, 3, 2, 2)
    mask = bernoulli_mask(5, 3, 2, 0.6, 3)
    samples = observe(evolve(a, f, 3), mask, 0.0, 4)
    report = reconstruct(a, mask, samples, threads=2)
    solve_column(assemble_column_system(a, mask, samples, 0))
    rel_error(report.estimate, f)
    assert blas_threads() == 2
