"""Forward model: evolve a signal under t-product dynamics and observe it.

The signal at step t is the t-th t-product power of the operator applied to
the initial tensor.  Observations keep only the masked entries and may carry
additive real Gaussian noise, drawn independently per time step.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .tensor3 import ShapeMismatchError, Tensor3, _columns, _from_columns, _philox, _tproducts
from .tensor3 import as_float, as_int, as_seed
from .sampling import SampleMask, load_mask, save_mask
from .t3io import read_json_object, read_t3, write_json, write_t3


class SampleOverflowError(ValueError):
    """The evolved signal, its noisy observation or a solve on it overflows
    float64: the operator, horizon, sigma or an observed value is too large."""


class SampleData:
    """Masked observations of an evolving signal over T time steps.

    Every observation has the mask's dims, is zero off it and finite on it
    (``_sampled``, where samples enter).  Only the samples are kept: ``values``
    (T, s), read-only, in the column layout of ``tensor3._columns`` (column j,
    then r = i + m*k); ``observations`` rebuilds the dense tensors.
    """

    __slots__ = ("mask", "horizon", "values", "noise_sigma", "seed")

    def __init__(self, mask: SampleMask, observations, noise_sigma: float, seed: int):
        values = [_sampled(mask, obs, f"observation {t}") for t, obs in enumerate(observations)]
        self._set(mask, np.array(values), _noise_level(noise_sigma, "noise_sigma"), as_seed(seed))

    @classmethod
    def _of_values(cls, mask, values, noise_sigma, seed) -> SampleData:
        """The samples ``values`` (T, s) as ``SampleData``; every argument is already checked."""
        return cls.__new__(cls)._set(mask, values, noise_sigma, seed)

    def _set(self, mask, values, noise_sigma, seed) -> SampleData:
        if not len(values):
            raise ValueError("SampleData needs at least one observation")
        values.setflags(write=False)
        for name, value in zip(self.__slots__, (mask, len(values), values, noise_sigma, seed)):
            object.__setattr__(self, name, value)
        return self

    @property
    def observations(self) -> tuple:
        """The T dense observations, zero off the mask."""
        m, p, n = self.mask.dims
        cols = np.zeros((self.horizon, p, m * n))
        cols[:, _columns(self.mask.indicator)] = self.values
        return tuple(Tensor3(x) for x in _from_columns(cols, m))

    def __setattr__(self, name, value):
        raise AttributeError("SampleData is immutable")

    def __repr__(self) -> str:
        return (
            f"SampleData(dims={self.mask.dims}, T={self.horizon}, "
            f"sigma={self.noise_sigma}, seed={self.seed})"
        )


def _noise_level(value, name: str) -> float:
    """``value`` as a noise level: a finite number, not negative; errors name ``name``."""
    sigma = as_float(value, name)
    if sigma < 0:
        raise ValueError(f"{name} must be nonnegative, got {sigma}")
    return sigma


def _sampled(mask: SampleMask, obs: Tensor3, name: str) -> np.ndarray:
    """The on-mask values of observation ``name`` in column layout; it must
    have the mask's dims, no value off the mask and none non-finite on it."""
    if obs.dims != mask.dims:
        raise ShapeMismatchError(f"{name} has dims {obs.dims}, mask has {mask.dims}")
    cols, selector = _columns(obs.data), _columns(mask.indicator)
    if cols[~selector].any():
        raise ValueError(f"{name} carries values off the mask")
    values = cols[selector]
    if not np.isfinite(values).all():
        raise ValueError(f"{name} carries a non-finite value on the mask")
    return values


def evolve(a: Tensor3, f: Tensor3, T: int) -> list[Tensor3]:
    """Trajectory [f, a*f, a^2*f, ...] of length T under the t-product.

    Element 0 is ``f`` itself.  Later steps are computed incrementally in the
    frequency domain (one slice-wise product per step).  The first step that
    is not finite in float64 raises ``SampleOverflowError`` naming it, before
    any later step is computed.
    """
    ma, pa, na = a.dims
    mf, pf, nf = f.dims
    if ma != pa:
        raise ShapeMismatchError(f"operator must be square, got {a.dims}")
    if na != nf or ma != mf:
        raise ShapeMismatchError(
            f"operator dims {a.dims} incompatible with signal dims {f.dims}"
        )
    T = as_int(T, "T")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    trajectory = [f]
    with np.errstate(over="ignore", invalid="ignore"):  # checked step by step
        for t, x in enumerate(_tproducts(a.data, f.data, T - 1), start=1):
            if not np.isfinite(x).all():
                raise SampleOverflowError(f"step {t}: the signal overflows float64")
            trajectory.append(Tensor3(x))
    return trajectory


def observe(trajectory, mask: SampleMask, sigma: float, seed: int) -> SampleData:
    """Sample each trajectory element on the mask, with optional noise.

    Noise is real Gaussian with standard deviation ``sigma``, independent per
    entry and per time step; the step-t stream is the seed's generator jumped
    t times, so observation t never depends on how many steps precede it.
    A step whose dims differ from the mask's raises ``ShapeMismatchError``,
    and one whose sampled signal, or sampled signal plus noise, is not finite
    in float64 raises ``SampleOverflowError``; both name the step.
    """
    sigma, seed = _noise_level(sigma, "sigma"), as_seed(seed)
    philox = _philox(seed)
    selector = _columns(mask.indicator)
    values = []
    for t, ft in enumerate(trajectory):
        if ft.dims != mask.dims:
            raise ShapeMismatchError(f"step {t} has dims {ft.dims}, mask has {mask.dims}")
        data = ft.data
        if sigma != 0.0:  # over the whole step, so each step's stream stays pinned
            rng = np.random.Generator(philox.jumped(t))
            with np.errstate(over="ignore", invalid="ignore"):  # kept values checked below
                data = data + sigma * rng.standard_normal(ft.dims)
        kept = _columns(data)[selector]
        if not np.isfinite(kept).all():
            clean = np.isfinite(_columns(ft.data)[selector]).all()
            source = f"noise (sigma={sigma:g})" if clean else "signal"
            raise SampleOverflowError(f"step {t}: the {source} overflows float64")
        values.append(kept)
    return SampleData._of_values(mask, np.array(values), sigma, seed)


# -- dataset directories -------------------------------------------------------


def save_sample_data(directory, samples: SampleData) -> None:
    """Write mask.t3(+.json), obs_<t>.t3, and meta.json into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_mask(directory / "mask.t3", samples.mask)
    for t, obs in enumerate(samples.observations):
        write_t3(directory / f"obs_{t}.t3", obs)
    m, p, n = samples.mask.dims
    meta = {
        "T": samples.horizon,
        "sigma": samples.noise_sigma,
        "seed": samples.seed,
        "dims": [m, p, n],
    }
    write_json(directory / "meta.json", meta)


def load_sample_data(directory) -> SampleData:
    """Read a dataset directory written by ``save_sample_data``.

    A ``meta.json`` that is not a JSON object, whose ``T``, ``sigma`` or
    ``seed`` is missing or breaks its argument's rule, or whose ``dims``
    differ from the mask's raises ``ValueError`` naming the file and the key.
    """
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise FileNotFoundError(f"{directory}: missing meta.json")
    meta = read_json_object(meta_path)
    T = as_int(meta.get("T"), f"{meta_path}: 'T'")
    if T < 1:
        raise ValueError(f"{meta_path}: 'T' must be at least 1, got {T}")
    sigma = _noise_level(meta.get("sigma"), f"{meta_path}: 'sigma'")
    seed = as_seed(meta.get("seed"), f"{meta_path}: 'seed'")
    dims = meta.get("dims")
    if not (isinstance(dims, list) and all(type(d) is int for d in dims)):
        raise ValueError(f"{meta_path}: 'dims' must be a list of integers, got {dims!r}")
    mask = load_mask(directory / "mask.t3")
    if tuple(dims) != mask.dims:
        raise ValueError(
            f"{meta_path}: dims {dims} do not match the mask's {list(mask.dims)}"
        )
    values = []
    for t in range(T):
        obs_path = directory / f"obs_{t}.t3"
        if not obs_path.exists():
            raise FileNotFoundError(f"{directory}: missing obs_{t}.t3 (T={T})")
        values.append(_sampled(mask, read_t3(obs_path), str(obs_path)))
    return SampleData._of_values(mask, np.array(values), sigma, seed)
