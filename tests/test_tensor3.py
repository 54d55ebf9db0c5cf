import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynsamp import (
    ShapeMismatchError,
    Tensor3,
    evolve,
    random_tensor,
    rel_error,
    tprod,
)
from dynsamp.tensor3 import _norm2

from oracles import (
    bcirc_oracle,
    circ,
    identity_tensor,
    tube_conv,
)


def rand(m, p, n, seed):
    return random_tensor(m, p, n, seed)


def max_abs_diff(a, b):
    return float(np.max(np.abs(a.data - b.data)))


def dft(t):
    """Unnormalized DFT of every tube, as a plain array."""
    return np.fft.fft(t.data, axis=2)


def idft(arr):
    """Inverse of ``dft``, back as a tensor; the imaginary part must be roundoff."""
    out = np.fft.ifft(arr, axis=2)
    assert np.max(np.abs(out.imag)) <= 1e-12 * max(1.0, np.max(np.abs(out.real)))
    return Tensor3(out.real)


# -- construction and access --------------------------------------------------


def test_dims_and_data_layout():
    t = Tensor3(np.arange(24).reshape(2, 3, 4))
    assert t.dims == (2, 3, 4)
    assert t.data[1, 2, 3] == 23
    assert np.array_equal(t.data[0, 1, :], np.arange(4, 8))
    assert np.array_equal(t.data[:, :, 0], np.arange(24).reshape(2, 3, 4)[:, :, 0])


def test_real_dtypes_are_stored_as_float64_and_complex_is_rejected():
    assert Tensor3(np.arange(8).reshape(2, 2, 2)).data.dtype == np.float64
    assert Tensor3(np.ones((2, 2, 2), dtype=np.float32)).data.dtype == np.float64
    # complex input is an error, even with a zero imaginary part
    for data in (np.ones((2, 2, 2)) + 0j, np.ones((2, 2, 2), dtype=np.complex64)):
        with pytest.raises(ValueError) as err:
            Tensor3(data)
        assert str(err.value) == f"Tensor3 holds real data only, got dtype {data.dtype}"


def test_immutability():
    t = Tensor3(np.zeros((2, 2, 2)))
    with pytest.raises(AttributeError):
        t.dims = (1, 1, 1)
    with pytest.raises(ValueError):
        t.data[0, 0, 0] = 1.0


@pytest.mark.parametrize("seed", [2.5, True])
def test_random_tensor_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError, match=rf"^seed: expected an integer, got {seed!r}$"):
        random_tensor(2, 3, 2, seed)


def test_random_tensor_draws_the_same_bits_for_any_integral_seed():
    want = np.random.Generator(np.random.Philox(key=2)).standard_normal((2, 3, 2))
    for seed in (2, 2.0, np.int64(2), np.uint64(2)):
        assert random_tensor(2, 3, 2, seed).data.tobytes() == want.tobytes()


def test_non_3way_rejected():
    with pytest.raises(ShapeMismatchError):
        Tensor3(np.zeros((2, 2)))
    with pytest.raises(ShapeMismatchError, match=r"^Tensor3 dims must be positive, got \(2, 0, 3\)$"):
        Tensor3(np.zeros((2, 0, 3)))


# -- tprod ---------------------------------------------------------------------


def test_tprod_identity_law_both_sides():
    f = rand(4, 3, 5, 20)
    i = identity_tensor(4, 5)
    assert max_abs_diff(tprod(i, f), f) <= 1e-12
    a = rand(4, 4, 5, 21)
    assert max_abs_diff(tprod(a, identity_tensor(4, 5)), a) <= 1e-12


def test_tprod_depth_one_is_matrix_product():
    a = rand(3, 4, 1, 22)
    b = rand(4, 2, 1, 23)
    c = tprod(a, b)
    assert np.allclose(c.data[:, :, 0], a.data[:, :, 0] @ b.data[:, :, 0])


def test_tprod_matches_block_circulant_oracle():
    # 50 random pairs with shapes up to 5x4x6
    rng = np.random.Generator(np.random.Philox(key=999))
    for trial in range(50):
        m, p, q = rng.integers(1, 6, size=3)
        n = int(rng.integers(1, 7))
        a = rand(int(m), int(p), n, 3000 + trial)
        b = rand(int(p), int(q), n, 4000 + trial)
        got = tprod(a, b)
        want = bcirc_oracle(a, b)
        scale = max(1.0, np.linalg.norm(want.data))
        assert max_abs_diff(got, want) <= 1e-10 * scale


def test_tprod_associativity():
    for seed in range(5):
        a = rand(3, 4, 5, 100 + seed)
        b = rand(4, 2, 5, 200 + seed)
        c = rand(2, 3, 5, 300 + seed)
        left = tprod(a, tprod(b, c))
        right = tprod(tprod(a, b), c)
        assert max_abs_diff(left, right) <= 1e-9 * max(1.0, np.linalg.norm(left.data))


def test_tprod_shape_mismatch_names_both_shapes():
    a = rand(3, 4, 5, 1)
    b = rand(3, 4, 5, 2)
    with pytest.raises(ShapeMismatchError, match=r"\(3, 4, 5\).*\(3, 4, 5\)"):
        tprod(a, b)
    with pytest.raises(ShapeMismatchError):
        tprod(a, rand(4, 2, 6, 3))


def test_tprod_real_inputs_give_real_output():
    c = tprod(rand(3, 3, 4, 5), rand(3, 2, 4, 6))
    assert c.data.dtype == np.float64


def test_real_operands_take_the_half_spectrum(monkeypatch):
    def full_fft(*args, **kwargs):
        raise AssertionError("full complex FFT on real operands")

    monkeypatch.setattr(np.fft, "fft", full_fft)
    monkeypatch.setattr(np.fft, "ifft", full_fft)
    a, b = rand(3, 3, 4, 7), rand(3, 2, 4, 8)
    want = bcirc_oracle(a, b)
    assert max_abs_diff(tprod(a, b), want) <= 1e-10 * np.linalg.norm(want.data)
    assert evolve(a, b, 3)[2].data.dtype == np.float64


# -- identity tensor -----------------------------------------------------------


def test_identity_tensor_scalar_case():
    i = identity_tensor(1, 1)
    assert i.data[0, 0, 0] == 1


def test_identity_tensor_dft_slices_are_identity():
    that = dft(identity_tensor(2, 3))
    for k in range(3):
        assert np.allclose(that[:, :, k], np.eye(2), atol=1e-14)


def test_identity_tensor_rejects_bad_dims():
    with pytest.raises(ValueError):
        identity_tensor(0, 3)


# -- tube_conv -----------------------------------------------------------------


def test_tube_conv_delta_identity():
    a = rand(3, 2, 5, 50)
    delta = np.zeros((3, 2, 5))
    delta[:, :, 0] = 1.0
    assert np.max(np.abs(tube_conv(a.data, delta) - a.data)) <= 1e-12


def test_tube_conv_matches_dft_route():
    a = rand(3, 2, 5, 51)
    b = rand(3, 2, 5, 52)
    got = Tensor3(tube_conv(a.data, b.data))
    want = idft(dft(a) * dft(b))
    assert max_abs_diff(got, want) <= 1e-10 * max(1.0, np.linalg.norm(got.data))


def test_tube_conv_convolution_theorem_forward():
    a = rand(3, 2, 5, 53)
    b = rand(3, 2, 5, 54)
    left = np.fft.fft(tube_conv(a.data, b.data), axis=2)
    right = dft(a) * dft(b)
    assert np.max(np.abs(left - right)) <= 1e-10 * max(1.0, np.linalg.norm(left))


def test_entrywise_product_as_scaled_convolution_of_dfts():
    # a (.) b == idft(dft(a) tube-conv dft(b)) / n
    a = rand(3, 2, 5, 55)
    b = rand(3, 2, 5, 56)
    n = 5
    want = Tensor3(a.data * b.data)
    got = idft(tube_conv(dft(a), dft(b)) / n)
    assert max_abs_diff(got, want) <= 1e-10 * max(1.0, np.linalg.norm(want.data))


# -- DFT route -----------------------------------------------------------------


def test_tprod_equals_inverse_dft_of_slicewise_products():
    a = rand(3, 3, 4, 63)
    b = rand(3, 2, 4, 64)
    want = idft(np.einsum("ipk,pqk->iqk", dft(a), dft(b)))
    assert max_abs_diff(tprod(a, b), want) <= 1e-10


# -- circ ----------------------------------------------------------------------


def test_circ_of_delta_is_identity():
    v = np.zeros(4)
    v[0] = 1.0
    assert np.array_equal(circ(v), np.eye(4))


def test_circ_of_full_mask_tube_dft():
    # DFT of an all-ones tube is (n, 0, ..., 0); its circulant is n * I
    n = 5
    v = np.fft.fft(np.ones(n))
    assert np.allclose(circ(v), n * np.eye(n), atol=1e-12)


def test_circ_matvec_is_circular_convolution():
    rng = np.random.Generator(np.random.Philox(key=70))
    v = rng.standard_normal(6)
    w = rng.standard_normal(6)
    direct = np.array(
        [sum(v[d] * w[(c - d) % 6] for d in range(6)) for c in range(6)]
    )
    assert np.allclose(circ(v) @ w, direct, atol=1e-12)


def test_circ_rejects_non_vector():
    with pytest.raises(ShapeMismatchError):
        circ(np.zeros((2, 2)))


# -- bcirc oracle edges --------------------------------------------------------


def test_bcirc_identity_law():
    f = rand(4, 3, 5, 80)
    assert max_abs_diff(bcirc_oracle(identity_tensor(4, 5), f), f) <= 1e-12


def test_bcirc_depth_one_matrix_product():
    a = rand(3, 4, 1, 81)
    b = rand(4, 2, 1, 82)
    c = bcirc_oracle(a, b)
    assert np.allclose(c.data[:, :, 0], a.data[:, :, 0] @ b.data[:, :, 0])


# -- norms ---------------------------------------------------------------------


def test_rel_error_basics():
    f = rand(3, 2, 4, 90)
    zero = Tensor3(np.zeros((3, 2, 4)))
    assert rel_error(f, f) == 0.0
    assert rel_error(zero, f) == pytest.approx(1.0)
    assert rel_error(Tensor3(2.0 * f.data), f) == pytest.approx(1.0)


def test_rel_error_rejects_zero_reference():
    zero = Tensor3(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        rel_error(zero, zero)
    with pytest.raises(ShapeMismatchError, match=r"^cannot compare dims \(2, 2, 2\) and \(2, 2, 3\)$"):
        rel_error(zero, Tensor3(np.ones((2, 2, 3))))


def test_rel_error_bits_do_not_depend_on_the_blas_thread_count(openblas_threads):
    # 12 x 834 x 1 = 10,008 entries: OpenBLAS splits a dot product this long
    # across its threads, which regroups the sum of squares.
    for seed in range(6):
        x, f = rand(12, 834, 1, seed), rand(12, 834, 1, seed + 100)
        errors = []
        for threads in (1, 2):
            openblas_threads(threads)
            errors.append(rel_error(x, f))
        assert errors[0] == errors[1]


def test_fro_norm():
    t = Tensor3(np.full((2, 2, 2), 3.0))
    assert _norm2(t.data) == pytest.approx(np.sqrt(8 * 9))


# -- random tensors ------------------------------------------------------------


def test_random_tensor_reproducible_and_real():
    a = random_tensor(3, 4, 5, 123)
    b = random_tensor(3, 4, 5, 123)
    c = random_tensor(3, 4, 5, 124)
    assert a.data.dtype == np.float64
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


_NORMAL = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(_NORMAL, min_size=1, max_size=24), st.data())
def test_fro_norm_scales_by_powers_of_two_exactly(values, data):
    """The Frobenius norm ``_norm2`` scales by 2^k bit for bit while 2^k t stays normal."""
    flat = np.array(values)
    t = Tensor3(flat.reshape(-1, 1, 1), copy=False)
    norm = _norm2(t.data)
    assume(0.0 < norm < np.inf)
    # 2^k keeps every nonzero entry at or above 2^-1022 and the norm finite.
    lowest = np.frexp(np.abs(flat[flat != 0]))[1].min()
    k = data.draw(st.integers(-1021 - int(lowest), 1024 - int(np.frexp(norm)[1])), label="k")
    assert _norm2(np.ldexp(t.data, k)) == np.ldexp(norm, k)


def test_fro_norm_and_rel_error_survive_tiny_and_huge_entries():
    ones = Tensor3(np.ones((4, 3, 2)))
    assert _norm2(np.full((4, 3, 2), 0.5**600)) == _norm2(ones.data) * 0.5**600
    assert _norm2(np.full((4, 3, 2), 2.0**600)) == _norm2(ones.data) * 2.0**600
    tiny = Tensor3(np.full((4, 3, 2), 1.0e-170))
    assert rel_error(Tensor3(np.zeros((4, 3, 2))), tiny) == 1.0
    huge = Tensor3(np.full((4, 3, 2), 1.0e200))
    assert rel_error(Tensor3(np.full((4, 3, 2), 2.0e200)), huge) == 1.0
    assert _norm2(np.full((4, 3, 2), 1.0e308)) == np.inf


def test_rel_error_fits_when_only_the_difference_overflows():
    big = Tensor3(np.full((4, 3, 2), 1.5e308))
    assert rel_error(big, Tensor3(np.full((4, 3, 2), 2.0))) == pytest.approx(7.5e307, rel=1e-15)
    assert rel_error(big, Tensor3(np.full((4, 3, 2), -1.5e308))) == 2.0
    assert rel_error(Tensor3(np.full((4, 3, 2), -1.5e308)), big) == 2.0
    assert rel_error(big, Tensor3(np.full((4, 3, 2), 1e-300))) == np.inf


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_NORMAL, _NORMAL), min_size=1, max_size=24),
    st.data(),
)
def test_rel_error_of_tensors_scaled_by_a_power_of_two_is_unchanged(pairs, data):
    """rel_error(2^k x, 2^k f) == rel_error(x, f) bit for bit while every
    nonzero entry of 2^k x and 2^k f stays normal."""
    x, f = (np.array(v).reshape(-1, 1, 1) for v in zip(*pairs))
    assume(np.abs(f).max() > 0)
    err = rel_error(Tensor3(x), Tensor3(f))
    values = np.concatenate([x.ravel(), f.ravel()])
    exps = np.frexp(values[values != 0])[1]
    k = data.draw(st.integers(-1021 - int(exps.min()), 1024 - int(exps.max())), label="k")
    assert rel_error(Tensor3(np.ldexp(x, k)), Tensor3(np.ldexp(f, k))) == err
