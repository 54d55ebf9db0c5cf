"""Dense complex third-order tensors and the t-product algebra.

A tensor of shape (m, p, n) is indexed as t[i, j, k] with the third mode
holding the "depth": tube (i, j) is the length-n fiber t[i, j, :], and
frontal slice k is the m-by-p matrix t[:, :, k].  The t-product multiplies
tensors by taking the DFT along the third mode, multiplying matching frontal
slices, and transforming back; it is equivalent to multiplication by the
block-circulant matrix of the left operand.
"""

from __future__ import annotations

import numpy as np

# Imaginary residue below REAL_TOL * (1 + ||result||_F) is purged after an
# inverse DFT of data that came from real inputs; anything larger is treated
# as corruption and raised.
REAL_TOL = 1e-9


class ShapeMismatchError(ValueError):
    """Operands have incompatible shapes; the message names both."""


class RealnessError(ArithmeticError):
    """A result expected to be real carried a large imaginary residue."""


class Tensor3:
    """Immutable dense complex tensor of shape (m, p, n).

    ``is_real`` records that every stored value has exactly zero imaginary
    part, i.e. the tensor holds real data; it is detected at construction.
    """

    __slots__ = ("data", "dims", "is_real")

    def __init__(self, data, copy: bool = True):
        if copy:
            arr = np.array(data, dtype=np.complex128, order="C")
        else:
            arr = np.ascontiguousarray(np.asarray(data, dtype=np.complex128))
        if arr.ndim != 3:
            raise ShapeMismatchError(
                f"Tensor3 needs a 3-way array, got shape {arr.shape}"
            )
        if min(arr.shape) < 1:
            raise ShapeMismatchError(f"Tensor3 dims must be positive, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "dims", arr.shape)
        object.__setattr__(self, "is_real", bool(np.all(arr.imag == 0.0)))

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

    def real_data(self) -> np.ndarray:
        """Float view of the entries; only valid for real tensors."""
        if not self.is_real:
            raise RealnessError("tensor holds complex data")
        return self.data.real.copy()

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


def _purge_imag(arr: np.ndarray, context: str) -> np.ndarray:
    """Drop roundoff-level imaginary residue from a nominally real array.

    Residue above REAL_TOL * (1 + ||arr||_F) means the computation was not
    actually real-valued and is raised instead of silently truncated.
    """
    tol = REAL_TOL * (1.0 + np.linalg.norm(arr))
    worst = float(np.max(np.abs(arr.imag))) if arr.size else 0.0
    if worst >= tol:
        raise RealnessError(
            f"{context}: imaginary residue {worst:.3e} exceeds tolerance {tol:.3e}"
        )
    return arr.real.copy()


# -- transforms ------------------------------------------------------------


def dft3(t: Tensor3) -> Tensor3:
    """Unnormalized DFT of every tube (kernel exp(-2*pi*i*a*b/n))."""
    return Tensor3(np.fft.fft(t.data, axis=2), copy=False)


def idft3(t: Tensor3) -> Tensor3:
    """Inverse of ``dft3``; carries the 1/n factor."""
    return Tensor3(np.fft.ifft(t.data, axis=2), copy=False)


# -- products ---------------------------------------------------------------


def _slicewise_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (m,r,n) x (r,q,n) -> (m,q,n), matrix product per frontal slice
    out = np.matmul(a.transpose(2, 0, 1), b.transpose(2, 0, 1))
    return np.ascontiguousarray(out.transpose(1, 2, 0))


def facewise(a: Tensor3, b: Tensor3) -> Tensor3:
    """Frontal-slice-wise product: slice k of the result is a_k @ b_k."""
    ma, ra, na = a.dims
    rb, qb, nb = b.dims
    if na != nb or ra != rb:
        raise ShapeMismatchError(
            f"facewise needs (m,r,n)x(r,q,n), got {a.dims} and {b.dims}"
        )
    return Tensor3(_slicewise_matmul(a.data, b.data), copy=False)


def tprod(a: Tensor3, b: Tensor3) -> Tensor3:
    """t-product of an (m,p,n) tensor with a (p,q,n) tensor.

    Computed as idft3(facewise(dft3(a), dft3(b))).  When both operands are
    real the roundoff imaginary residue of the inverse transform is purged.
    """
    ma, pa, na = a.dims
    pb, qb, nb = b.dims
    if na != nb or pa != pb:
        raise ShapeMismatchError(
            f"tprod needs (m,p,n)x(p,q,n), got {a.dims} and {b.dims}"
        )
    ahat = np.fft.fft(a.data, axis=2)
    bhat = np.fft.fft(b.data, axis=2)
    chat = _slicewise_matmul(ahat, bhat)
    c = np.fft.ifft(chat, axis=2)
    if a.is_real and b.is_real:
        c = _purge_imag(c, "tprod")
    return Tensor3(c, copy=False)


def tpow(a: Tensor3, t: int) -> Tensor3:
    """t-th power of a square tensor under the t-product.

    Evaluated as a per-slice matrix power in the frequency domain; t = 0
    gives the identity tensor.
    """
    m, p, n = a.dims
    if m != p:
        raise ShapeMismatchError(f"tpow needs square first/second modes, got {a.dims}")
    t = int(t)
    if t < 0:
        raise ValueError(f"tpow exponent must be nonnegative, got {t}")
    if t == 0:
        return identity_tensor(m, n)
    if t == 1:
        return a
    ahat = np.fft.fft(a.data, axis=2).transpose(2, 0, 1)
    phat = np.linalg.matrix_power(ahat, t)
    c = np.fft.ifft(phat.transpose(1, 2, 0), axis=2)
    if a.is_real:
        c = _purge_imag(c, "tpow")
    return Tensor3(c, copy=False)


def identity_tensor(m: int, n: int) -> Tensor3:
    """(m,m,n) identity of the t-product: eye(m) in slice 0, zeros elsewhere."""
    if m < 1 or n < 1:
        raise ValueError(f"identity_tensor needs m, n >= 1, got ({m}, {n})")
    data = np.zeros((m, m, n), dtype=np.complex128)
    data[:, :, 0] = np.eye(m)
    return Tensor3(data, copy=False)


def hadamard(a: Tensor3, b: Tensor3) -> Tensor3:
    """Entrywise product of same-shape tensors."""
    _check_same_shape(a, b, "hadamard-multiply")
    return Tensor3(a.data * b.data, copy=False)


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
