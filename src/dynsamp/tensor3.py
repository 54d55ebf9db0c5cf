"""Dense third-order tensors and the t-product.

A tensor of shape (m, p, n) holds its entries in ``data[i, j, k]``, the
third mode holding the "depth": fiber (i, j) is ``data[i, j, :]`` and
frontal slice k is the m-by-p matrix ``data[:, :, k]``.  The t-product
multiplies tensors by taking the DFT along the third mode, multiplying
matching frontal slices, and transforming back; it is equivalent to
multiplication by the block-circulant matrix of the left operand.

Data is real, as in the paper, and stored as float64; complex input is
rejected.  The t-product of two real tensors is taken through the
half-spectrum ``rfft``/``irfft`` pair and is real by construction (Kilmer &
Martin, "Factorization strategies for third-order tensors", LAA 435 (2011)).

The number rule every module checks its arguments with lives here too:
``as_int`` and ``as_float``.
"""

from __future__ import annotations

import numbers
import sys

import numpy as np

from ._parallel import _single_threaded_blas


class ShapeMismatchError(ValueError):
    """Operands have incompatible shapes; the message names both."""


class Tensor3:
    """Immutable dense tensor of shape (m, p, n).

    Input of any real dtype is stored as read-only float64; complex input
    raises ``ValueError``.
    """

    __slots__ = ("data", "dims")

    def __init__(self, data, copy: bool = True):
        arr = np.asarray(data)
        if np.iscomplexobj(arr):
            raise ValueError(f"Tensor3 holds real data only, got dtype {arr.dtype}")
        if copy:
            arr = np.array(arr, dtype=np.float64, order="C")
        else:
            arr = np.ascontiguousarray(arr, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeMismatchError(
                f"Tensor3 needs a 3-way array, got shape {arr.shape}"
            )
        if min(arr.shape) < 1:
            raise ShapeMismatchError(f"Tensor3 dims must be positive, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "dims", arr.shape)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor3 is immutable")

    def __repr__(self) -> str:
        return f"Tensor3(dims={self.dims})"


# -- the number rule ---------------------------------------------------------


def _rejected(noun: str, value, name) -> ValueError:
    return ValueError(f"{name + ': ' if name else ''}expected {noun}, got {value!r}")


def as_int(value, name: str | None = None) -> int:
    """``value`` as an int: an integral number, not a bool; errors name ``name``."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if integral or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise _rejected("an integer", value, name)


def as_float(value, name: str | None = None) -> float:
    """``value`` as a float: a real number finite in float64, not a bool; errors name ``name``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if real and abs(value) <= sys.float_info.max:  # not nan, inf or an int past float64
        return float(value)
    raise _rejected("a finite number", value, name)


# -- the t-product -----------------------------------------------------------


def _tproducts(a: np.ndarray, b: np.ndarray, steps: int):
    """Yield the ``steps`` arrays a*b, a*(a*b), ... of repeated t-products,
    one at a time.

    ``a`` is (m, p, n) and ``b`` is (p, q, n), both float64; for ``steps`` > 1,
    ``a`` is square.  Each product is one matrix product per slice of the
    half spectrum, kept in the frequency domain between steps.
    """
    n = a.shape[2]
    ahat = np.fft.rfft(a, axis=2).transpose(2, 0, 1)
    cur = np.fft.rfft(b, axis=2).transpose(2, 0, 1)
    for _ in range(steps):
        cur = ahat @ cur
        yield np.fft.irfft(cur, n=n, axis=0).transpose(1, 2, 0)


def tprod(a: Tensor3, b: Tensor3) -> Tensor3:
    """t-product of an (m,p,n) tensor with a (p,q,n) tensor."""
    ma, pa, na = a.dims
    pb, qb, nb = b.dims
    if na != nb or pa != pb:
        raise ShapeMismatchError(
            f"tprod needs (m,p,n)x(p,q,n), got {a.dims} and {b.dims}"
        )
    return Tensor3(next(_tproducts(a.data, b.data, 1)), copy=False)


# -- norms and errors --------------------------------------------------------


def _exponents(x: np.ndarray, axis=None) -> np.ndarray:
    """``np.frexp`` exponent e of the largest magnitude in ``x``, or in each
    slice along ``axis`` (kept with length 1): 2**-e scales it into [0.5, 1)
    exactly.  An all-zero or non-finite slice gets e = 0."""
    return np.frexp(np.abs(x).max(axis=axis, keepdims=True))[1]


@_single_threaded_blas()
def _norm2(x: np.ndarray) -> float:
    """2-norm of all entries of a float64 array.

    The entries are scaled by 2**-e (``_exponents``) before squaring, so tiny
    or huge entries neither underflow nor overflow.  The scaling is exact:
    where the plain norm is finite and nonzero it agrees.  Its BLAS dot runs
    on one OpenBLAS thread: its bits do not depend on the thread count.
    """
    exp = _exponents(x)
    with np.errstate(over="ignore"):  # a norm beyond float64 is inf
        return np.ldexp(np.linalg.norm(np.ldexp(x, -exp), keepdims=True), exp).item()


def rel_error(x: Tensor3, f: Tensor3) -> float:
    """||x - f||_F / ||f||_F; rejects a zero-norm reference.

    The difference is formed with both tensors scaled by 2**-e, e from the
    larger magnitude of the two, and ||f|| with f scaled by its own power of
    two, so neither overflows: the result is inf only when the ratio itself
    does not fit in float64.  The scaling is exact, so where the plain
    formula has no overflow or underflow the two agree.
    """
    if x.dims != f.dims:
        raise ShapeMismatchError(f"cannot compare dims {x.dims} and {f.dims}")
    e2 = _exponents(f.data).item()
    e1 = max(_exponents(x.data).item(), e2)
    denom = _norm2(np.ldexp(f.data, -e2))
    if denom == 0.0:
        raise ValueError("rel_error reference tensor has zero norm")
    diff = _norm2(np.ldexp(x.data, -e1) - np.ldexp(f.data, -e1))
    with np.errstate(over="ignore"):  # a ratio beyond float64 is inf
        return float(np.ldexp(diff / denom, e1 - e2))


# -- random instances --------------------------------------------------------


def random_tensor(m: int, p: int, n: int, seed: int) -> Tensor3:
    """Real tensor with i.i.d. standard normal entries.

    Driven by a counter-based generator keyed on the 64-bit seed, so the
    draw is reproducible across platforms and independent per seed.
    """
    dims = tuple(as_int(v, name) for v, name in zip((m, p, n), "mpn"))
    rng = np.random.Generator(np.random.Philox(key=as_int(seed, "seed")))
    return Tensor3(rng.standard_normal(dims), copy=False)
