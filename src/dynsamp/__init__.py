"""Three-dimensional dynamical sampling under t-product dynamics.

Simulate a tensor signal evolving by repeated t-products with a known
operator, sample it sparsely in space and time, and recover the initial
signal by solving real spatial-domain per-column least-squares systems,
with conditioning diagnostics along the way.
"""

from .tensor3 import (
    ShapeMismatchError,
    Tensor3,
    random_tensor,
    rel_error,
    tprod,
)
from .t3io import T3FormatError, dumps_t3, loads_t3, read_t3, write_t3
from .sampling import (
    SampleMask,
    bernoulli_mask,
    exclude_slab,
    load_mask,
    project,
    save_mask,
)
from .dynsys import SampleData, evolve, load_sample_data, observe, save_sample_data
from .reconstruct import (
    ReconstructionReport,
    UnrecoverableColumnError,
    reconstruct,
    solve_column,
    system_condition,
)

__version__ = "0.1.0"

__all__ = [
    "ShapeMismatchError",
    "Tensor3",
    "random_tensor",
    "rel_error",
    "tprod",
    "T3FormatError",
    "dumps_t3",
    "loads_t3",
    "read_t3",
    "write_t3",
    "SampleMask",
    "bernoulli_mask",
    "exclude_slab",
    "load_mask",
    "project",
    "save_mask",
    "SampleData",
    "evolve",
    "load_sample_data",
    "observe",
    "save_sample_data",
    "ReconstructionReport",
    "UnrecoverableColumnError",
    "reconstruct",
    "solve_column",
    "system_condition",
    "__version__",
]
