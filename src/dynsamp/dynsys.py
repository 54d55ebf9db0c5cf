"""Forward model: evolve a signal under t-product dynamics and observe it.

The signal at step t is the t-th t-product power of the operator applied to
the initial tensor.  Observations keep only the masked entries and may carry
additive real Gaussian noise, drawn independently per time step.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .tensor3 import ShapeMismatchError, Tensor3, _tproducts
from .sampling import SampleMask, load_mask, project, save_mask
from .t3io import atomic_write_text, read_json_object, read_t3, write_t3


class SampleOverflowError(ValueError):
    """The evolved signal, its noisy observation or a solve on it overflows
    float64: the operator, horizon, sigma or an observed value is too large."""


class SampleData:
    """Masked observations of an evolving signal over T time steps.

    Every observation is supported on the mask exactly: off-mask entries are
    identically zero, enforced at construction.
    """

    __slots__ = ("mask", "horizon", "observations", "noise_sigma", "seed")

    def __init__(self, mask: SampleMask, observations, noise_sigma: float, seed: int):
        observations = tuple(observations)
        if not observations:
            raise ValueError("SampleData needs at least one observation")
        for t, obs in enumerate(observations):
            _check_observation(mask, obs, f"observation {t}")
        if noise_sigma < 0:
            raise ValueError(f"noise_sigma must be nonnegative, got {noise_sigma}")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "horizon", len(observations))
        object.__setattr__(self, "observations", observations)
        object.__setattr__(self, "noise_sigma", float(noise_sigma))
        object.__setattr__(self, "seed", int(seed))

    def __setattr__(self, name, value):
        raise AttributeError("SampleData is immutable")

    def __repr__(self) -> str:
        return (
            f"SampleData(dims={self.mask.dims}, T={self.horizon}, "
            f"sigma={self.noise_sigma}, seed={self.seed})"
        )


def _check_observation(mask: SampleMask, obs: Tensor3, name: str) -> None:
    """Observation ``name`` must have the mask's dims and no value off it."""
    if obs.dims != mask.dims:
        raise ShapeMismatchError(f"{name} has dims {obs.dims}, mask has {mask.dims}")
    if not np.array_equal(project(mask, obs).data, obs.data):
        raise ValueError(f"{name} carries values off the mask")


def evolve(a: Tensor3, f: Tensor3, T: int) -> list[Tensor3]:
    """Trajectory [f, a*f, a^2*f, ...] of length T under the t-product.

    Element 0 is ``f`` itself.  Later steps are computed incrementally in the
    frequency domain (one slice-wise product per step).
    """
    ma, pa, na = a.dims
    mf, pf, nf = f.dims
    if ma != pa:
        raise ShapeMismatchError(f"operator must be square, got {a.dims}")
    if na != nf or ma != mf:
        raise ShapeMismatchError(
            f"operator dims {a.dims} incompatible with signal dims {f.dims}"
        )
    T = int(T)
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    # A trajectory that outgrows float64 holds inf or nan; observe reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        steps = _tproducts(a.data, f.data, T - 1)
    return [f] + [Tensor3(x, copy=False) for x in steps]


def observe(trajectory, mask: SampleMask, sigma: float, seed: int) -> SampleData:
    """Project each trajectory element onto the mask, with optional noise.

    Noise is real Gaussian with standard deviation ``sigma``, independent per
    entry and per time step; the step-t stream is the seed's generator jumped
    t times, so observation t never depends on how many steps precede it.
    A step whose signal, or signal plus noise, is not finite in float64
    raises ``SampleOverflowError`` naming the step.
    """
    sigma = float(sigma)
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    observations = []
    for t, ft in enumerate(trajectory):
        data = ft.data
        if sigma != 0.0:
            rng = np.random.Generator(np.random.Philox(key=int(seed)).jumped(t))
            with np.errstate(over="ignore"):
                data = data + sigma * rng.standard_normal(ft.dims)
        if not np.isfinite(data).all():
            source = "signal" if not np.isfinite(ft.data).all() else f"noise (sigma={sigma:g})"
            raise SampleOverflowError(f"step {t}: the {source} overflows float64")
        observations.append(project(mask, Tensor3(data, copy=False)))
    return SampleData(mask, observations, sigma, seed)


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
    atomic_write_text(
        directory / "meta.json", json.dumps(meta, sort_keys=True, indent=2) + "\n"
    )


def _meta_number(meta: dict, key: str, path, kind):
    """``meta[key]`` as a finite ``kind`` (int or float), else a one-line error."""
    value = meta.get(key)
    if value is None:
        raise ValueError(f"{path}: missing '{key}'")
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or kind(value) != value
    ):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{path}: '{key}' must be {noun}, got {value!r}")
    return kind(value)


def load_sample_data(directory) -> SampleData:
    """Read a dataset directory written by ``save_sample_data``.

    A ``meta.json`` that is not a JSON object, lacks a numeric ``T``,
    ``sigma`` or ``seed``, has a negative ``sigma``, or whose ``dims`` differ
    from the mask's raises ``ValueError`` naming the file.
    """
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise FileNotFoundError(f"{directory}: missing meta.json")
    meta = read_json_object(meta_path)
    T = _meta_number(meta, "T", meta_path, int)
    if T < 1:
        raise ValueError(f"{meta_path}: 'T' must be at least 1, got {T}")
    sigma = _meta_number(meta, "sigma", meta_path, float)
    if sigma < 0:
        raise ValueError(f"{meta_path}: 'sigma' must be nonnegative, got {sigma}")
    seed = _meta_number(meta, "seed", meta_path, int)
    dims = meta.get("dims")
    if not (isinstance(dims, list) and all(type(d) is int for d in dims)):
        raise ValueError(f"{meta_path}: 'dims' must be a list of integers, got {dims!r}")
    mask = load_mask(directory / "mask.t3")
    if tuple(dims) != mask.dims:
        raise ValueError(
            f"{meta_path}: dims {dims} do not match the mask's {list(mask.dims)}"
        )
    observations = []
    for t in range(T):
        obs_path = directory / f"obs_{t}.t3"
        if not obs_path.exists():
            raise FileNotFoundError(f"{directory}: missing obs_{t}.t3 (T={T})")
        observations.append(read_t3(obs_path))
        _check_observation(mask, observations[-1], str(obs_path))
    return SampleData(mask, observations, sigma, seed)
