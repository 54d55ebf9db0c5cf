"""Dense third-order tensors and the t-product.

A tensor of shape (m, p, n) holds its entries in ``data[i, j, k]``, the
third mode holding the "depth": fiber (i, j) is ``data[i, j, :]`` and
frontal slice k is the m-by-p matrix ``data[:, :, k]``.  The t-product
multiplies tensors by taking the DFT along the third mode, multiplying
matching frontal slices, and transforming back; it is equivalent to
multiplication by the block-circulant matrix of the left operand.

Real data is stored as float64 and everything else as complex128, so the
storage dtype is the realness fact.  The t-product of two real tensors is
taken through the half-spectrum ``rfft``/``irfft`` pair and is real by
construction (Kilmer & Martin, "Factorization strategies for third-order
tensors", LAA 435 (2011)); any complex operand takes the full ``fft``.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatchError(ValueError):
    """Operands have incompatible shapes; the message names both."""


class Tensor3:
    """Immutable dense tensor of shape (m, p, n).

    Input of a real dtype, or complex input whose imaginary part is all zero,
    is stored as float64; anything else as complex128.  ``is_real`` says
    which.
    """

    __slots__ = ("data", "dims", "is_real")

    def __init__(self, data, copy: bool = True):
        arr = np.asarray(data)
        if np.iscomplexobj(arr) and arr.imag.any():
            dtype = np.complex128
        else:
            arr, dtype = arr.real, np.float64
        if copy:
            arr = np.array(arr, dtype=dtype, order="C")
        else:
            arr = np.ascontiguousarray(arr, dtype=dtype)
        if arr.ndim != 3:
            raise ShapeMismatchError(
                f"Tensor3 needs a 3-way array, got shape {arr.shape}"
            )
        if min(arr.shape) < 1:
            raise ShapeMismatchError(f"Tensor3 dims must be positive, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "dims", arr.shape)
        object.__setattr__(self, "is_real", dtype is np.float64)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor3 is immutable")

    def __repr__(self) -> str:
        kind = "real" if self.is_real else "complex"
        return f"Tensor3(dims={self.dims}, {kind})"


# -- the t-product -----------------------------------------------------------


def _tproducts(a: np.ndarray, b: np.ndarray, steps: int) -> list[np.ndarray]:
    """The ``steps`` arrays a*b, a*(a*b), ... of repeated t-products.

    ``a`` is (m, p, n) and ``b`` is (p, q, n); for ``steps`` > 1, ``a`` is
    square.  Each product is one matrix product per DFT slice, kept in the
    frequency domain between steps.  Two float64 operands go through
    ``rfft``/``irfft`` (half spectrum, real output); otherwise through
    ``fft``/``ifft``.
    """
    n = a.shape[2]
    real = not (np.iscomplexobj(a) or np.iscomplexobj(b))
    fwd, inv = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    ahat = fwd(a, axis=2).transpose(2, 0, 1)
    cur = fwd(b, axis=2).transpose(2, 0, 1)
    out = []
    for _ in range(steps):
        cur = ahat @ cur
        out.append(inv(cur, n=n, axis=0).transpose(1, 2, 0))
    return out


def tprod(a: Tensor3, b: Tensor3) -> Tensor3:
    """t-product of an (m,p,n) tensor with a (p,q,n) tensor."""
    ma, pa, na = a.dims
    pb, qb, nb = b.dims
    if na != nb or pa != pb:
        raise ShapeMismatchError(
            f"tprod needs (m,p,n)x(p,q,n), got {a.dims} and {b.dims}"
        )
    return Tensor3(_tproducts(a.data, b.data, 1)[0], copy=False)


# -- norms and errors --------------------------------------------------------


def _norm2(x: np.ndarray) -> float:
    """2-norm of all entries of a float64 or complex128 array.

    The parts are scaled by 2**-e, e the ``np.frexp`` exponent of the largest,
    before squaring, so tiny or huge entries neither underflow nor overflow.
    The scaling is exact: where the plain norm is finite and nonzero it agrees.
    """
    parts = np.ascontiguousarray(x).view(np.float64)
    big = np.max(np.abs(parts))
    if not 0.0 < big < np.inf:  # all zero, or not finite
        return float(np.linalg.norm(x))
    exp = int(np.frexp(big)[1])
    scaled = np.ldexp(parts, -exp).view(x.dtype)
    with np.errstate(over="ignore"):  # a norm beyond float64 is inf
        return float(np.ldexp(np.linalg.norm(scaled), exp))


def fro_norm(t: Tensor3) -> float:
    """Frobenius norm."""
    return _norm2(t.data)


def rel_error(x: Tensor3, f: Tensor3) -> float:
    """||x - f||_F / ||f||_F; rejects a zero-norm reference."""
    if x.dims != f.dims:
        raise ShapeMismatchError(f"cannot compare dims {x.dims} and {f.dims}")
    denom = fro_norm(f)
    if denom == 0.0:
        raise ValueError("rel_error reference tensor has zero norm")
    return _norm2(x.data - f.data) / denom


# -- random instances --------------------------------------------------------


def random_tensor(m: int, p: int, n: int, seed: int) -> Tensor3:
    """Real tensor with i.i.d. standard normal entries.

    Driven by a counter-based generator keyed on the 64-bit seed, so the
    draw is reproducible across platforms and independent per seed.
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    return Tensor3(rng.standard_normal((m, p, n)), copy=False)
