import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsamp import (
    SampleData,
    Tensor3,
    bernoulli_mask,
    evolve,
    load_sample_data,
    observe,
    project,
    random_tensor,
    save_sample_data,
    tprod,
)
from dynsamp.dynsys import SampleOverflowError
from dynsamp.tensor3 import ShapeMismatchError

from oracles import bcirc_oracle, identity_tensor


def small_instance():
    a = random_tensor(4, 4, 2, 101)
    f = random_tensor(4, 3, 2, 102)
    return a, f


def test_identity_operator_freezes_signal():
    _, f = small_instance()
    traj = evolve(identity_tensor(4, 2), f, 4)
    for ft in traj:
        assert np.allclose(ft.data, f.data, atol=1e-12)


def test_horizon_one_returns_signal_itself():
    a, f = small_instance()
    traj = evolve(a, f, 1)
    assert len(traj) == 1
    assert traj[0] is f


def test_evolution_matches_stepwise_oracle():
    a, f = small_instance()
    traj = evolve(a, f, 4)
    cur = f
    for t in range(1, 4):
        cur = bcirc_oracle(a, cur)
        assert np.max(np.abs(traj[t].data - cur.data)) <= 1e-9 * max(1.0, np.linalg.norm(cur.data))


def test_real_trajectory_and_observations_are_float64():
    a, f = small_instance()
    traj = evolve(a, f, 4)
    assert all(ft.data.dtype == np.float64 for ft in traj)
    mask = bernoulli_mask(4, 3, 2, 0.5, 103)
    samples = observe(traj, mask, 1e-3, 104)
    assert all(obs.data.dtype == np.float64 for obs in samples.observations)


def test_semigroup_property():
    a, f = small_instance()
    traj = evolve(a, f, 5)
    one_more = tprod(a, traj[3])
    assert np.max(np.abs(traj[4].data - one_more.data)) <= 1e-9 * max(
        1.0, np.linalg.norm(one_more.data)
    )


def test_linearity_in_signal():
    a, f = small_instance()
    g = random_tensor(4, 3, 2, 103)
    lhs = evolve(a, Tensor3(f.data + g.data), 4)
    fa = evolve(a, f, 4)
    ga = evolve(a, g, 4)
    for t in range(4):
        assert np.max(np.abs(lhs[t].data - (fa[t].data + ga[t].data))) <= 1e-9 * max(
            1.0, np.linalg.norm(lhs[t].data)
        )


def test_evolve_validates_shapes_and_horizon():
    a, f = small_instance()
    with pytest.raises(ShapeMismatchError):
        evolve(random_tensor(4, 3, 2, 1), f, 2)  # non-square operator
    with pytest.raises(ShapeMismatchError):
        evolve(a, random_tensor(5, 3, 2, 1), 2)
    with pytest.raises(ValueError):
        evolve(a, f, 0)
    # a fractional or boolean horizon is not truncated to a step count
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match=rf"^T: expected an integer, got {bad!r}$"):
            evolve(a, f, bad)


def test_evolve_raises_at_the_first_step_that_overflows():
    # 2^400 times the identity: step t is 2^(400 t) f, finite up to t = 2
    a = Tensor3(np.ldexp(identity_tensor(4, 2).data, 400))
    f = random_tensor(4, 3, 2, 102)
    step2 = np.ldexp(evolve(a, f, 3)[2].data, -800)
    assert np.allclose(step2, f.data, rtol=1e-12, atol=1e-12)
    with pytest.raises(SampleOverflowError, match=r"^step 3: the signal overflows float64$"):
        evolve(a, f, 10_000)


def test_observe_noiseless_full_mask():
    a, f = small_instance()
    traj = evolve(a, f, 3)
    mask = bernoulli_mask(4, 3, 2, 1.0, 1)
    data = observe(traj, mask, 0.0, 1)
    for t in range(3):
        assert np.array_equal(data.observations[t].data, traj[t].data)


def test_observe_empty_mask_gives_zeros():
    a, f = small_instance()
    mask = bernoulli_mask(4, 3, 2, 0.0, 1)
    data = observe(evolve(a, f, 3), mask, 0.0, 1)
    for obs in data.observations:
        assert np.linalg.norm(obs.data) == 0.0


def test_noise_variance_on_mask():
    m, p, n = 20, 15, 5
    a = random_tensor(m, m, n, 201)
    f = random_tensor(m, p, n, 202)
    mask = bernoulli_mask(m, p, n, 0.5, 203)
    sigma = 1e-3
    data = observe(evolve(a, f, 2), mask, sigma, 204)
    clean = project(mask, f)
    noise = data.observations[0].data - clean.data
    noise_power = np.linalg.norm(noise) ** 2 / mask.sample_count
    assert 0.5 * sigma**2 <= noise_power <= 2.0 * sigma**2


def test_noise_only_on_mask():
    a, f = small_instance()
    mask = bernoulli_mask(4, 3, 2, 0.5, 205)
    data = observe(evolve(a, f, 3), mask, 0.1, 206)
    off = ~mask.indicator
    for obs in data.observations:
        assert np.all(obs.data[off] == 0.0)


def test_noise_streams_independent_per_step():
    a, f = small_instance()
    mask = bernoulli_mask(4, 3, 2, 1.0, 1)
    traj = [f, f, f]  # constant trajectory isolates the noise
    data = observe(traj, mask, 1.0, 42)
    n0 = data.observations[0].data - f.data
    n1 = data.observations[1].data - f.data
    assert not np.allclose(n0, n1)


def test_observe_deterministic_per_seed():
    a, f = small_instance()
    mask = bernoulli_mask(4, 3, 2, 0.7, 2)
    traj = evolve(a, f, 3)
    d1 = observe(traj, mask, 1e-2, 77)
    d2 = observe(traj, mask, 1e-2, 77)
    for o1, o2 in zip(d1.observations, d2.observations):
        assert np.array_equal(o1.data, o2.data)


@pytest.mark.parametrize("seed", [2.5, True])
def test_observe_and_sample_data_reject_a_seed_that_is_not_an_integer(seed):
    a, f = small_instance()
    mask = bernoulli_mask(4, 3, 2, 0.7, 2)
    traj = evolve(a, f, 2)
    match = rf"^seed: expected an integer, got {seed!r}$"
    with pytest.raises(ValueError, match=match):
        observe(traj, mask, 1e-2, seed)
    obs = observe(traj, mask, 0.0, 2).observations
    with pytest.raises(ValueError, match=match):
        SampleData(mask, obs, 0.0, seed)


def test_observe_draws_the_same_bits_for_any_integral_seed():
    a, f = small_instance()
    mask = bernoulli_mask(4, 3, 2, 0.7, 2)
    traj = evolve(a, f, 3)
    want = [
        (ft.data + 1e-2 * np.random.Generator(np.random.Philox(key=2).jumped(t))
         .standard_normal(ft.dims)) * mask.indicator
        for t, ft in enumerate(traj)
    ]
    for seed in (2, 2.0, np.int64(2), np.uint64(2)):
        samples = observe(traj, mask, 1e-2, seed)
        assert type(samples.seed) is int and samples.seed == 2
        assert [o.data.tobytes() for o in samples.observations] == [w.tobytes() for w in want]
        assert SampleData(mask, samples.observations, 1e-2, seed).seed == 2


def test_observe_rejects_negative_sigma():
    a, f = small_instance()
    mask = bernoulli_mask(4, 3, 2, 0.5, 2)
    with pytest.raises(ValueError):
        observe(evolve(a, f, 2), mask, -1.0, 1)
    obs = observe(evolve(a, f, 2), mask, 0.0, 1).observations
    with pytest.raises(ValueError, match=r"^noise_sigma must be nonnegative, got -1.0$"):
        SampleData(mask, obs, -1.0, 1)


@pytest.mark.parametrize(
    "sigma", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "int-past-float64"]
)
def test_non_finite_sigma_is_rejected_at_the_call(tmp_path, sigma):
    # nothing overflows: the noise level itself is not a float64 number, and
    # a dataset holding it would write a meta.json that cannot be read back
    a, f = small_instance()
    mask = bernoulli_mask(4, 3, 2, 0.5, 2)
    traj = evolve(a, f, 2)
    with pytest.raises(ValueError, match=rf"^sigma: expected a finite number, got {sigma!r}$"):
        observe(traj, mask, sigma, 1)
    obs = observe(traj, mask, 0.0, 1).observations
    with pytest.raises(ValueError, match=rf"^noise_sigma: expected a finite number, got {sigma!r}$"):
        SampleData(mask, obs, sigma, 1)


def test_sample_data_rejects_off_mask_support():
    mask = bernoulli_mask(2, 2, 2, 0.0, 1)
    stray = Tensor3(np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        SampleData(mask, [stray], 0.0, 1)
    with pytest.raises(ValueError, match=r"^SampleData needs at least one observation$"):
        SampleData(mask, [], 0.0, 1)


def test_sample_data_round_trip(tmp_path):
    a, f = small_instance()
    mask = bernoulli_mask(4, 3, 2, 0.6, 301)
    data = observe(evolve(a, f, 3), mask, 1e-3, 302)
    assert repr(data) == "SampleData(dims=(4, 3, 2), T=3, sigma=0.001, seed=302)"
    with pytest.raises(AttributeError, match="immutable"):
        data.seed = 1
    save_sample_data(tmp_path / "ds", data)
    meta = json.loads((tmp_path / "ds" / "meta.json").read_text())
    assert meta == {"T": 3, "sigma": 1e-3, "seed": 302, "dims": [4, 3, 2]}
    back = load_sample_data(tmp_path / "ds")
    assert back.horizon == 3
    assert back.noise_sigma == 1e-3
    assert np.array_equal(back.mask.indicator, mask.indicator)
    for o1, o2 in zip(back.observations, data.observations):
        assert np.array_equal(o1.data, o2.data)


def test_load_sample_data_missing_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_sample_data(tmp_path / "nope")
    a, f = small_instance()
    mask = bernoulli_mask(4, 3, 2, 0.6, 1)
    data = observe(evolve(a, f, 2), mask, 0.0, 1)
    save_sample_data(tmp_path / "ds", data)
    (tmp_path / "ds" / "obs_1.t3").unlink()
    with pytest.raises(FileNotFoundError):
        load_sample_data(tmp_path / "ds")


@pytest.mark.parametrize(
    "change,message",
    [
        ({"T": 0}, "'T' must be at least 1, got 0"),
        ({"dims": "4x3x2"}, "'dims' must be a list of integers, got '4x3x2'"),
        ({"dims": [4, 3, 2.0]}, "'dims' must be a list of integers, got [4, 3, 2.0]"),
    ],
    ids=["T-zero", "dims-string", "dims-float"],
)
def test_load_sample_data_rejects_a_bad_meta_value(tmp_path, change, message):
    a, f = small_instance()
    save_sample_data(tmp_path, observe(evolve(a, f, 2), bernoulli_mask(4, 3, 2, 0.6, 1), 0.0, 1))
    meta_path = tmp_path / "meta.json"
    meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), **change}))
    with pytest.raises(ValueError) as err:
        load_sample_data(tmp_path)
    assert str(err.value) == f"{meta_path}: {message}"


@settings(max_examples=15, deadline=None)
@given(
    m=st.integers(1, 4),
    p=st.integers(1, 3),
    n=st.integers(1, 4),
    T=st.integers(2, 6),
    data=st.data(),
    seed=st.integers(0, 2**32),
)
def test_trajectory_and_observation_prefixes_are_bit_identical(m, p, n, T, data, seed):
    # experiments evolve once to the largest horizon and observe prefixes
    short = data.draw(st.integers(1, T - 1), label="T'")
    a = random_tensor(m, m, n, seed)
    f = random_tensor(m, p, n, seed + 1)
    full = evolve(a, f, T)
    prefix = evolve(a, f, short)
    for x, y in zip(full[:short], prefix, strict=True):
        assert x.data.tobytes() == y.data.tobytes()
    mask = bernoulli_mask(m, p, n, 0.6, seed + 2)
    long_obs = observe(full, mask, 1e-2, seed + 3).observations
    short_obs = observe(full[:short], mask, 1e-2, seed + 3).observations
    for x, y in zip(long_obs[:short], short_obs, strict=True):
        assert x.data.tobytes() == y.data.tobytes()
