"""Reference implementations used only by the tests.

The brute-force helpers deliberately avoid the FFT-based code paths: the
forward model is applied through the explicit block-circulant matrix, one
basis tensor at a time, so the resulting sampling map is an independent check
on the column solver.  ``frequency_column_matrix`` builds the paper's
frequency-domain form of each column system, which is unitarily similar to
the library's spatial one.  ``tube_conv``, ``circ`` and ``bcirc_oracle``
are direct, FFT-free forms of the t-product algebra, and ``identity_tensor``
is the t-product identity; the tensors they return are float64, as
``Tensor3`` requires.  ``dumps_t3_oracle`` and ``loads_t3_oracle`` are the T3 codec
written one Python statement per entry, the reference for the library's
vectorized one.  ``product_mask`` builds the product-form (lattice) sampling
sets of the structural tests from an indicator.
"""

import math

import numpy as np

from dynsamp.sampling import SampleMask
from dynsamp.t3io import T3FormatError
from dynsamp.tensor3 import ShapeMismatchError, Tensor3


def product_mask(m: int, p: int, n: int, I, J) -> SampleMask:
    """Mask that samples entry (i, j, k) iff i is in I and j in J, at every depth k."""
    indicator = np.zeros((m, p, n), dtype=bool)
    indicator[np.ix_(list(I), list(J), range(n))] = True
    return SampleMask(indicator)


def block_circulant(a) -> np.ndarray:
    """(m*n)-by-(m*n) real block-circulant matrix of a square tensor."""
    m, _, n = a.dims
    data = a.data
    big = np.zeros((m * n, m * n))
    for r in range(n):
        for c in range(n):
            big[r * m : (r + 1) * m, c * m : (c + 1) * m] = data[:, :, (r - c) % n]
    return big


def materialized_sampling_map(a, mask, T: int) -> np.ndarray:
    """Real (T*|omega|)-by-(m*p*n) matrix taking vec(F) to the stacked samples.

    Column q is obtained by evolving the q-th basis tensor (C-order over
    (i, j, k)) for T steps and reading off the sampled entries at each step,
    in lexicographic sample order.
    """
    m, p, n = mask.dims
    bc = block_circulant(a)
    omega = np.argwhere(mask.indicator)
    rows_idx = omega[:, 2] * m + omega[:, 0]
    cols_idx = omega[:, 1]
    columns = []
    for i0 in range(m):
        for j0 in range(p):
            for k0 in range(n):
                unfolded = np.zeros((m * n, p))
                unfolded[k0 * m + i0, j0] = 1.0
                vals = []
                cur = unfolded
                for t in range(T):
                    if t > 0:
                        cur = bc @ cur
                    vals.append(cur[rows_idx, cols_idx])
                columns.append(np.concatenate(vals))
    return np.column_stack(columns)


def stacked_samples(samples) -> np.ndarray:
    """Observed values over all steps, ordered to match the sampling map rows."""
    sel = samples.mask.indicator
    return np.concatenate([obs.data[sel] for obs in samples.observations])


def brute_force_estimate(a, mask, samples) -> np.ndarray:
    """Least-squares solve of the materialized map; returns an (m, p, n) array."""
    S = materialized_sampling_map(a, mask, samples.horizon)
    b = stacked_samples(samples)
    x, *_ = np.linalg.lstsq(S, b, rcond=None)
    return x.reshape(mask.dims)


def mask_conv_matrix(mask, j: int) -> np.ndarray:
    """Dense mask-convolution matrix C(j), an (m*n)-by-(m*n) array.

    Grid block (a, b) is diagonal over the first mode, holding entry
    (a, b) of the circulant of the mask-DFT tube of each row i.
    """
    m, _, n = mask.dims
    tubes = np.fft.fft(mask.indicator.astype(np.float64), axis=2)[:, j, :]
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    circs = tubes[:, idx]  # (m, n, n): circs[i, a, b] = tubes[i, (a-b) % n]
    out = np.zeros((m * n, m * n), dtype=np.complex128)
    rows = np.arange(m)
    for a in range(n):
        for b in range(n):
            out[a * m + rows, b * m + rows] = circs[:, a, b]
    return out


def frequency_column_matrix(a, mask, T: int, j: int) -> np.ndarray:
    """Stack (1/n) * C(j) * D(t) over t; shape (T*m*n, m*n), complex.

    D(t) is block-diagonal with the t-th powers of the operator's DFT slices;
    the unknown is the DFT of column j, stacked over depth frequencies.
    """
    m, _, n = a.dims
    mn = m * n
    slices = np.fft.fft(a.data, axis=2).transpose(2, 0, 1)
    power = np.broadcast_to(np.eye(m), (n, m, m))
    conv = mask_conv_matrix(mask, j)
    out = np.empty((T * mn, mn), dtype=np.complex128)
    for t in range(T):
        if t > 0:
            power = power @ slices
        for k in range(n):
            out[t * mn : (t + 1) * mn, k * m : (k + 1) * m] = (
                conv[:, k * m : (k + 1) * m] @ power[k]
            )
    return out / n


def tube_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Circular convolution of corresponding tubes, by direct summation.

    out[i,j,c] = sum_d a[i,j,d] * b[i,j,(c-d) mod n] for two arrays of one
    shape, real or complex.  The direct O(n^2) form is independent of the
    DFT route (which the tests check it against).
    """
    if a.shape != b.shape:
        raise ShapeMismatchError(
            f"cannot tube-convolve arrays of shapes {a.shape} and {b.shape}"
        )
    out = np.zeros(a.shape, dtype=np.result_type(a, b))
    for d in range(a.shape[2]):
        out += a[:, :, d : d + 1] * np.roll(b, d, axis=2)
    return out


def circ(v: np.ndarray) -> np.ndarray:
    """Circulant matrix with first column v: C[a, b] = v[(a - b) mod n].

    With this convention C @ w is the circular convolution v * w.
    """
    v = np.asarray(v)
    if v.ndim != 1 or v.size < 1:
        raise ShapeMismatchError(f"circ needs a nonempty vector, got shape {v.shape}")
    n = v.size
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return v[idx]


def bcirc_oracle(a: Tensor3, b: Tensor3) -> Tensor3:
    """t-product via the explicit block-circulant matrix; FFT-free.

    Builds the (m*n)-by-(p*n) block-circulant matrix of ``a`` (block (r, c)
    is the frontal slice a[:, :, (r-c) mod n]), applies it to the unfolded
    ``b`` (frontal slices stacked vertically), and folds the result back.
    Intended as an independent test oracle for ``tprod``.
    """
    ma, pa, na = a.dims
    pb, qb, nb = b.dims
    if na != nb or pa != pb:
        raise ShapeMismatchError(
            f"bcirc_oracle needs (m,p,n)x(p,q,n), got {a.dims} and {b.dims}"
        )
    m, p, q, n = ma, pa, qb, na
    big = np.zeros((m * n, p * n))
    for r in range(n):
        for c in range(n):
            big[r * m : (r + 1) * m, c * p : (c + 1) * p] = a.data[:, :, (r - c) % n]
    unfolded = np.concatenate([b.data[:, :, k] for k in range(n)], axis=0)
    prod = big @ unfolded
    out = np.empty((m, q, n))
    for k in range(n):
        out[:, :, k] = prod[k * m : (k + 1) * m, :]
    return Tensor3(out, copy=False)


def identity_tensor(m: int, n: int) -> Tensor3:
    """(m,m,n) identity of the t-product: eye(m) in slice 0, zeros elsewhere."""
    if m < 1 or n < 1:
        raise ValueError(f"identity_tensor needs m, n >= 1, got ({m}, {n})")
    data = np.zeros((m, m, n))
    data[:, :, 0] = np.eye(m)
    return Tensor3(data, copy=False)


def dumps_t3_oracle(t: Tensor3) -> str:
    """T3 v1 text with one f-string per entry."""
    m, p, n = t.dims
    body = [f"{v:.17e}" for v in t.data.ravel(order="F").tolist()]
    return "\n".join([f"T3 1 {m} {p} {n} real", *body]) + "\n"


def loads_t3_oracle(text: str, path="<string>") -> Tensor3:
    """Parse T3 v1 text one line at a time, splitting every value line."""
    lines = text.splitlines()
    if not lines:
        raise T3FormatError(path, 1, "empty file, expected T3 header")
    header = lines[0].split()
    if len(header) != 6:
        raise T3FormatError(
            path, 1, f"header needs 6 fields 'T3 1 m p n real', got {lines[0]!r}"
        )
    if header[0] != "T3" or header[1] != "1":
        raise T3FormatError(path, 1, f"unsupported magic/version {header[0]} {header[1]}")
    try:
        m, p, n = (int(x) for x in header[2:5])
    except ValueError:
        raise T3FormatError(path, 1, f"non-integer dims in header {lines[0]!r}") from None
    if m < 1 or p < 1 or n < 1:
        raise T3FormatError(path, 1, f"dims must be positive, got {m} {p} {n}")
    if header[5] != "real":
        raise T3FormatError(path, 1, f"kind must be 'real', got {header[5]!r}")

    want = m * p * n
    values = []
    for offset, raw in enumerate(lines[1:], start=2):
        if raw.strip() == "" and len(values) == want:
            continue  # trailing blank line
        parts = raw.split()
        if len(parts) != 1:
            raise T3FormatError(path, offset, f"expected 1 value per line, got {len(parts)}")
        if len(values) >= want:
            raise T3FormatError(path, offset, f"more than {want} entries")
        try:
            value = float(parts[0])
        except ValueError:
            raise T3FormatError(path, offset, f"unparseable number in {raw!r}") from None
        if not math.isfinite(value):
            raise T3FormatError(path, offset, f"non-finite value in {raw!r}")
        values.append(value)
    if len(values) != want:
        raise T3FormatError(path, len(lines) + 1, f"expected {want} entries, got {len(values)}")
    return Tensor3(np.array(values).reshape((m, p, n), order="F"), copy=False)
