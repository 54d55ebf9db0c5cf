import json

import numpy as np
import pytest

from dynsamp import (
    SampleMask,
    Tensor3,
    bernoulli_mask,
    exclude_slab,
    load_mask,
    project,
    random_tensor,
    save_mask,
)
from dynsamp.tensor3 import ShapeMismatchError
from oracles import product_mask


def test_bernoulli_alpha_one_is_full():
    mask = bernoulli_mask(4, 3, 2, 1.0, 5)
    assert mask.sample_count == 24
    assert mask.column_coverage == frozenset(range(3))


def test_bernoulli_alpha_zero_is_empty():
    mask = bernoulli_mask(4, 3, 2, 0.0, 5)
    assert mask.sample_count == 0
    assert mask.column_coverage == frozenset()


def test_bernoulli_rate_near_alpha():
    mask = bernoulli_mask(20, 15, 5, 0.4, 42)
    assert abs(mask.sample_count / mask.indicator.size - 0.4) <= 0.07


def test_bernoulli_reproducible_per_seed():
    a = bernoulli_mask(5, 4, 3, 0.5, 9)
    b = bernoulli_mask(5, 4, 3, 0.5, 9)
    c = bernoulli_mask(5, 4, 3, 0.5, 10)
    assert np.array_equal(a.indicator, b.indicator)
    assert not np.array_equal(a.indicator, c.indicator)


@pytest.mark.parametrize("seed", [2.5, True])
def test_bernoulli_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError, match=rf"^seed: expected an integer, got {seed!r}$"):
        bernoulli_mask(2, 3, 2, 0.5, seed)


def test_bernoulli_draws_the_same_bits_and_records_the_seed_for_any_integral_seed():
    want = np.random.Generator(np.random.Philox(key=1)).random((2, 3, 2)) < 0.5
    for seed in (1, 1.0, np.int64(1), np.uint64(1)):
        mask = bernoulli_mask(2, 3, 2, 0.5, seed)
        assert np.array_equal(mask.indicator, want)
        assert type(mask.provenance["seed"]) is int and mask.provenance["seed"] == 1


def test_bernoulli_rejects_bad_alpha():
    with pytest.raises(ValueError):
        bernoulli_mask(2, 2, 2, 1.5, 1)
    with pytest.raises(ValueError):
        bernoulli_mask(2, 2, 2, -0.1, 1)


def test_indicator_mask_coverage_count_and_repr():
    full = SampleMask(np.ones((3, 4, 2), dtype=bool))
    assert full.sample_count == 24 and full.column_coverage == frozenset(range(4))
    assert repr(full) == "SampleMask(dims=(3, 4, 2), samples=24, type='custom')"
    mask = product_mask(5, 6, 3, [0, 2], [1, 4, 5])
    assert mask.column_coverage == frozenset({1, 4, 5})
    assert mask.sample_count == 2 * 3 * 3
    with pytest.raises(ShapeMismatchError, match=r"^mask needs a 3-way grid, got shape \(3, 4\)$"):
        SampleMask(np.ones((3, 4), dtype=bool))


def test_exclude_slab_rate_on_full_mask():
    full = bernoulli_mask(20, 15, 5, 1.0, 1)
    cut = exclude_slab(full, 2, 7)
    assert cut.sample_count == 1500 - 100
    assert cut.sample_count / 1500 == pytest.approx(0.9333, abs=1e-3)
    assert cut.provenance["exclusions"] == [{"mode": 2, "index": 7}]


def test_exclude_empty_slab_is_noop():
    mask = product_mask(4, 4, 2, [0, 1], [0, 1])
    cut = exclude_slab(mask, 1, 3)  # row 3 carries no samples
    assert cut.sample_count == mask.sample_count


def test_exclude_every_column_empties_mask():
    mask = bernoulli_mask(3, 4, 2, 1.0, 2)
    for j in range(4):
        mask = exclude_slab(mask, 2, j)
    assert mask.sample_count == 0


def test_exclude_slab_validates_mode_and_index():
    mask = bernoulli_mask(3, 4, 2, 1.0, 2)
    with pytest.raises(ValueError):
        exclude_slab(mask, 0, 0)
    with pytest.raises(IndexError):
        exclude_slab(mask, 3, 2)


def test_project_full_and_empty():
    t = random_tensor(4, 3, 2, 6)
    full = bernoulli_mask(4, 3, 2, 1.0, 1)
    empty = bernoulli_mask(4, 3, 2, 0.0, 1)
    assert np.array_equal(project(full, t).data, t.data)
    assert np.linalg.norm(project(empty, t).data) == 0.0


def test_project_idempotent_linear_contractive():
    t = random_tensor(4, 3, 2, 7)
    u = random_tensor(4, 3, 2, 8)
    mask = bernoulli_mask(4, 3, 2, 0.5, 3)
    once = project(mask, t)
    assert np.array_equal(project(mask, once).data, once.data)
    lin = project(mask, Tensor3(t.data + u.data))
    assert np.allclose(lin.data, project(mask, t).data + project(mask, u).data)
    assert np.linalg.norm(once.data) <= np.linalg.norm(t.data)


def test_project_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        project(bernoulli_mask(2, 2, 2, 1.0, 1), random_tensor(2, 2, 3, 1))


def test_mask_tube_dft_structure():
    # fully sampled tube -> (n, 0, ..., 0); unsampled tube -> zero tube
    mask = product_mask(3, 4, 5, [0], [1])
    phat = np.fft.fft(mask.as_tensor().data, axis=2)
    full_tube = phat[0, 1, :]
    expected = np.zeros(5, dtype=complex)
    expected[0] = 5.0
    assert np.allclose(full_tube, expected, atol=1e-12)
    assert np.allclose(phat[0, 0, :], 0.0, atol=1e-15)


def test_as_tensor_is_binary():
    mask = bernoulli_mask(4, 3, 2, 0.3, 11)
    t = mask.as_tensor()
    assert t.data.dtype == np.float64
    assert set(np.unique(t.data)).issubset({0.0, 1.0})
    assert int(t.data.sum()) == mask.sample_count


def test_mask_immutable():
    mask = bernoulli_mask(2, 2, 2, 0.5, 1)
    with pytest.raises(ValueError):
        mask.indicator[0, 0, 0] = True
    with pytest.raises(AttributeError):
        mask.dims = (1, 1, 1)


def test_mask_serialization_round_trip(tmp_path):
    mask = exclude_slab(bernoulli_mask(4, 5, 3, 0.6, 21), 2, 2)
    path = tmp_path / "mask.t3"
    save_mask(path, mask)
    sidecar = json.loads((tmp_path / "mask.t3.json").read_text())
    assert sidecar["type"] == "bernoulli"
    assert sidecar["alpha"] == 0.6
    assert sidecar["seed"] == 21
    assert sidecar["exclusions"] == [{"mode": 2, "index": 2}]
    back = load_mask(path)
    assert np.array_equal(back.indicator, mask.indicator)
    assert back.provenance == mask.provenance
    (tmp_path / "mask.t3.json").unlink()
    bare = load_mask(path)
    assert np.array_equal(bare.indicator, mask.indicator)
    assert bare.provenance == {"type": "custom", "exclusions": []}


def test_load_mask_rejects_non_binary(tmp_path):
    from dynsamp import write_t3

    path = tmp_path / "bad.t3"
    write_t3(path, Tensor3(np.full((2, 2, 2), 0.5)))
    with pytest.raises(ValueError):
        load_mask(path)


def test_load_mask_reports_the_first_bad_line(tmp_path):
    # Entries are listed in Fortran order, i fastest: (1, 0, 0) is line 3 and
    # (0, 0, 1) line 8, though (0, 0, 1) comes first in (i, j, k) order.
    from dynsamp import T3FormatError, write_t3

    values = np.zeros((3, 2, 2))
    values[1, 0, 0] = values[0, 0, 1] = 0.5
    path = tmp_path / "mask.t3"
    write_t3(path, Tensor3(values))
    lines = path.read_text().splitlines()
    assert [k + 1 for k, line in enumerate(lines) if line.startswith("5.0")] == [3, 8]
    with pytest.raises(T3FormatError, match="line 3: mask entries must be 0 or 1"):
        load_mask(path)
