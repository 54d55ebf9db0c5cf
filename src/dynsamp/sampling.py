"""Sampling sets: the entries that are observed.

A sampling set is a boolean mask over the (m, p, n) index grid, fixed across
all observation times.  Masks remember how they were built (a Bernoulli draw
or a given indicator, and the slab exclusions applied since) so datasets can
be regenerated from their sidecar metadata alone.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .tensor3 import ShapeMismatchError, Tensor3, _philox, as_float, as_int, as_seed
from .t3io import T3FormatError, read_json_object, read_t3, write_json, write_t3


class SampleMask:
    """Immutable boolean mask over an (m, p, n) grid.

    ``provenance`` is a JSON object: {"type": "bernoulli", "alpha": a, "seed":
    s, "exclusions": [...]} or {"type": "custom", "exclusions": [...]}; slab
    exclusions append {"mode": 1|2|3, "index": idx} entries.  The mask holds
    it as JSON text, so a value JSON cannot hold raises here, and hands out copies.
    """

    __slots__ = ("indicator", "dims", "_provenance")

    def __init__(self, indicator, provenance=None):
        arr = np.array(indicator, dtype=bool, order="C")  # a copy: the caller keeps theirs
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ShapeMismatchError(f"mask needs a 3-way grid, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "indicator", arr)
        object.__setattr__(self, "dims", arr.shape)
        prov = {"type": "custom", "exclusions": []} if provenance is None else provenance
        if not isinstance(prov, dict):
            raise ValueError(f"provenance must be a JSON object, got {type(prov).__name__}")
        object.__setattr__(self, "_provenance", json.dumps(prov))

    def __setattr__(self, name, value):
        raise AttributeError("SampleMask is immutable")

    @property
    def provenance(self) -> dict:
        return json.loads(self._provenance)

    @property
    def sample_count(self) -> int:
        return int(self.indicator.sum())

    @property
    def column_coverage(self) -> frozenset:
        """Second-mode indices j that carry at least one sample."""
        hit = self.indicator.any(axis=(0, 2))
        return frozenset(int(j) for j in np.nonzero(hit)[0])

    def __repr__(self) -> str:
        return (
            f"SampleMask(dims={self.dims}, samples={self.sample_count}, "
            f"type={self.provenance.get('type')!r})"
        )


def bernoulli_mask(m: int, p: int, n: int, alpha: float, seed: int) -> SampleMask:
    """Each entry sampled independently with probability ``alpha``.

    Entries are drawn in lexicographic (i, j, k) order from a counter-based
    generator keyed on the seed, so the mask is identical across platforms
    and run-to-run.
    """
    dims = tuple(as_int(v, name) for v, name in zip((m, p, n), "mpn"))
    alpha = as_float(alpha, "alpha")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    seed = as_seed(seed)
    rng = np.random.Generator(_philox(seed))
    indicator = rng.random(dims) < alpha
    prov = {"type": "bernoulli", "alpha": alpha, "seed": seed, "exclusions": []}
    return SampleMask(indicator, prov)


def exclude_slab(mask: SampleMask, mode: int, index: int) -> SampleMask:
    """Drop every sample whose mode-``mode`` coordinate equals ``index``.

    ``mode`` is 1, 2, or 3 for the first, second, or third index; the
    returned mask records the exclusion in its provenance.
    """
    mode, index = as_int(mode, "mode"), as_int(index, "index")
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2, or 3, got {mode}")
    axis = mode - 1
    if not 0 <= index < mask.dims[axis]:
        raise IndexError(
            f"index {index} out of range for mode {mode} of dims {mask.dims}"
        )
    indicator = mask.indicator.copy()
    sel = [slice(None)] * 3
    sel[axis] = index
    indicator[tuple(sel)] = False
    prov = mask.provenance
    prov["exclusions"] = prov.get("exclusions", []) + [{"mode": mode, "index": index}]
    return SampleMask(indicator, prov)


# -- serialization -----------------------------------------------------------


def save_mask(path, mask: SampleMask) -> None:
    """Write ``<path>`` as T3 v1 (0/1 entries) plus a ``.json`` provenance sidecar."""
    path = Path(path)
    write_t3(path, Tensor3(mask.indicator))
    write_json(path.with_suffix(path.suffix + ".json"), mask.provenance)


def load_mask(path) -> SampleMask:
    """Read a mask written by ``save_mask``; tolerates a missing sidecar.

    A sidecar that is invalid JSON or not a JSON object raises
    ``ValueError`` naming the file.
    """
    path = Path(path)
    values = read_t3(path).data
    # Entries are listed in Fortran order, so the first bad line is the
    # first bad entry of the Fortran-order ravel.
    bad = np.flatnonzero(~((values == 0.0) | (values == 1.0)).ravel(order="F"))
    if bad.size:
        raise T3FormatError(path, 2 + int(bad[0]), "mask entries must be 0 or 1")
    sidecar = path.with_suffix(path.suffix + ".json")
    prov = read_json_object(sidecar) if sidecar.exists() else None
    return SampleMask(values != 0.0, prov)
