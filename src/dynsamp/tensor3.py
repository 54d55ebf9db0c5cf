"""Dense third-order tensors and the t-product.

A tensor of shape (m, p, n) is indexed as t[i, j, k] with the third mode
holding the "depth": tube (i, j) is the length-n fiber t[i, j, :], and
frontal slice k is the m-by-p matrix t[:, :, k].  The t-product multiplies
tensors by taking the DFT along the third mode, multiplying matching frontal
slices, and transforming back; it is equivalent to multiplication by the
block-circulant matrix of the left operand.

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

    # -- element / fiber access ------------------------------------------

    def _check_index(self, i: int, j: int, k: int) -> None:
        m, p, n = self.dims
        if not (0 <= i < m and 0 <= j < p and 0 <= k < n):
            raise IndexError(
                f"index ({i}, {j}, {k}) out of range for dims {self.dims}; "
                "negative indices are not supported"
            )

    def __getitem__(self, idx) -> complex:
        if not (isinstance(idx, tuple) and len(idx) == 3):
            raise IndexError("Tensor3 indexing requires exactly (i, j, k)")
        i, j, k = (int(v) for v in idx)
        self._check_index(i, j, k)
        return complex(self.data[i, j, k])

    def tube(self, i: int, j: int) -> np.ndarray:
        """Length-n fiber t[i, j, :] as a fresh array."""
        self._check_index(i, j, 0)
        return self.data[i, j, :].copy()

    def frontal_slice(self, k: int) -> np.ndarray:
        """m-by-p matrix t[:, :, k] as a fresh array."""
        self._check_index(0, 0, k)
        return self.data[:, :, k].copy()

    # -- arithmetic (entrywise, shape-checked) ----------------------------

    def __add__(self, other: "Tensor3") -> "Tensor3":
        _check_same_shape(self, other, "add")
        return Tensor3(self.data + other.data, copy=False)

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        _check_same_shape(self, other, "subtract")
        return Tensor3(self.data - other.data, copy=False)

    def __mul__(self, scalar) -> "Tensor3":
        return Tensor3(self.data * complex(scalar), copy=False)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor3":
        return Tensor3(-self.data, copy=False)

    def __repr__(self) -> str:
        kind = "real" if self.is_real else "complex"
        return f"Tensor3(dims={self.dims}, {kind})"


def _check_same_shape(a: Tensor3, b: Tensor3, what: str) -> None:
    if a.dims != b.dims:
        raise ShapeMismatchError(f"cannot {what} tensors of dims {a.dims} and {b.dims}")


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


def fro_norm(t: Tensor3) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(t.data))


def rel_error(x: Tensor3, f: Tensor3) -> float:
    """||x - f||_F / ||f||_F; rejects a zero-norm reference."""
    _check_same_shape(x, f, "compare")
    denom = fro_norm(f)
    if denom == 0.0:
        raise ValueError("rel_error reference tensor has zero norm")
    return fro_norm(x - f) / denom


# -- random instances --------------------------------------------------------


def random_tensor(m: int, p: int, n: int, seed: int) -> Tensor3:
    """Real tensor with i.i.d. standard normal entries.

    Driven by a counter-based generator keyed on the 64-bit seed, so the
    draw is reproducible across platforms and independent per seed.
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    return Tensor3(rng.standard_normal((m, p, n)), copy=False)
