"""Reference implementations used only by the tests.

The brute-force helpers deliberately avoid the FFT-based code paths: the
forward model is applied through the explicit block-circulant matrix, one
basis tensor at a time, so the resulting sampling map is an independent check
on the column solver.  ``frequency_column_matrix`` builds the paper's
frequency-domain form of each column system, which is unitarily similar to
the library's spatial one.
"""

import numpy as np


def block_circulant(a) -> np.ndarray:
    """(m*n)-by-(m*n) real block-circulant matrix of a real square tensor."""
    assert a.is_real
    m, _, n = a.dims
    data = a.data.real
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
    return np.concatenate([obs.data.real[sel] for obs in samples.observations])


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
