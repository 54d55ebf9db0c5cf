import numpy as np
import pytest

from dynsamp import (
    ShapeMismatchError,
    Tensor3,
    evolve,
    fro_norm,
    random_tensor,
    rel_error,
    tprod,
)

from oracles import (
    bcirc_oracle,
    circ,
    identity_tensor,
    random_complex_tensor,
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
    """Inverse of ``dft``, back as a tensor."""
    return Tensor3(np.fft.ifft(arr, axis=2))


# -- construction and access --------------------------------------------------


def test_dims_and_data_layout():
    t = Tensor3(np.arange(24).reshape(2, 3, 4))
    assert t.dims == (2, 3, 4)
    assert t[1, 2, 3] == complex(23)
    assert np.array_equal(t.tube(0, 1), np.arange(4, 8))
    assert np.array_equal(t.frontal_slice(0), np.arange(24).reshape(2, 3, 4)[:, :, 0])


def test_out_of_range_access_is_an_error():
    t = Tensor3(np.zeros((2, 3, 4)))
    with pytest.raises(IndexError):
        t[2, 0, 0]
    with pytest.raises(IndexError):
        t[0, 3, 0]
    with pytest.raises(IndexError):
        t[0, 0, 4]
    # no silent wraparound
    with pytest.raises(IndexError):
        t[-1, 0, 0]


def test_realness_detection():
    assert Tensor3(np.ones((2, 2, 2))).is_real
    assert not Tensor3(np.ones((2, 2, 2)) * (1 + 1e-14j)).is_real
    assert Tensor3(np.ones((2, 2, 2)) + 0j).is_real
    # the storage dtype carries the decision
    assert Tensor3(np.arange(8).reshape(2, 2, 2)).data.dtype == np.float64
    assert Tensor3(np.ones((2, 2, 2), dtype=np.complex64)).data.dtype == np.float64
    assert Tensor3(np.ones((2, 2, 2)) + 0j).data.dtype == np.float64
    assert Tensor3(np.ones((2, 2, 2)) * (1 + 1e-14j)).data.dtype == np.complex128


def test_immutability():
    t = Tensor3(np.zeros((2, 2, 2)))
    with pytest.raises(AttributeError):
        t.dims = (1, 1, 1)
    with pytest.raises(ValueError):
        t.data[0, 0, 0] = 1.0


def test_non_3way_rejected():
    with pytest.raises(ShapeMismatchError):
        Tensor3(np.zeros((2, 2)))


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
    assert np.allclose(c.frontal_slice(0), a.frontal_slice(0) @ b.frontal_slice(0))


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
        scale = max(1.0, fro_norm(want))
        assert max_abs_diff(got, want) <= 1e-10 * scale


def test_tprod_associativity():
    for seed in range(5):
        a = rand(3, 4, 5, 100 + seed)
        b = rand(4, 2, 5, 200 + seed)
        c = rand(2, 3, 5, 300 + seed)
        left = tprod(a, tprod(b, c))
        right = tprod(tprod(a, b), c)
        assert max_abs_diff(left, right) <= 1e-9 * max(1.0, fro_norm(left))


def test_tprod_shape_mismatch_names_both_shapes():
    a = rand(3, 4, 5, 1)
    b = rand(3, 4, 5, 2)
    with pytest.raises(ShapeMismatchError, match=r"\(3, 4, 5\).*\(3, 4, 5\)"):
        tprod(a, b)
    with pytest.raises(ShapeMismatchError):
        tprod(a, rand(4, 2, 6, 3))


def test_tprod_real_inputs_give_real_output():
    c = tprod(rand(3, 3, 4, 5), rand(3, 2, 4, 6))
    assert c.is_real


def test_real_operands_take_the_half_spectrum(monkeypatch):
    def full_fft(*args, **kwargs):
        raise AssertionError("full complex FFT on real operands")

    monkeypatch.setattr(np.fft, "fft", full_fft)
    monkeypatch.setattr(np.fft, "ifft", full_fft)
    a, b = rand(3, 3, 4, 7), rand(3, 2, 4, 8)
    want = bcirc_oracle(a, b)
    assert max_abs_diff(tprod(a, b), want) <= 1e-10 * fro_norm(want)
    assert evolve(a, b, 3)[2].data.dtype == np.float64


@pytest.mark.parametrize("kinds", ["complex-complex", "complex-real", "real-complex"])
def test_tprod_complex_operands_match_block_circulant_oracle(kinds):
    make = {"real": rand, "complex": random_complex_tensor}
    left, right = (make[k] for k in kinds.split("-"))
    rng = np.random.Generator(np.random.Philox(key=998))
    for trial in range(20):
        m, p, q = (int(v) for v in rng.integers(1, 6, size=3))
        n = int(rng.integers(1, 7))
        a = left(m, p, n, 5000 + trial)
        b = right(p, q, n, 6000 + trial)
        got = tprod(a, b)
        assert got.data.dtype == np.complex128
        want = bcirc_oracle(a, b)
        assert max_abs_diff(got, want) <= 1e-10 * fro_norm(want)


# -- identity tensor -----------------------------------------------------------


def test_identity_tensor_scalar_case():
    i = identity_tensor(1, 1)
    assert i[0, 0, 0] == 1


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
    assert max_abs_diff(tube_conv(a, Tensor3(delta)), a) <= 1e-12


def test_tube_conv_matches_dft_route():
    a = rand(3, 2, 5, 51)
    b = rand(3, 2, 5, 52)
    got = tube_conv(a, b)
    want = idft(dft(a) * dft(b))
    assert max_abs_diff(got, want) <= 1e-10 * max(1.0, fro_norm(got))


def test_tube_conv_convolution_theorem_forward():
    a = rand(3, 2, 5, 53)
    b = rand(3, 2, 5, 54)
    left = dft(tube_conv(a, b))
    right = dft(a) * dft(b)
    assert np.max(np.abs(left - right)) <= 1e-10 * max(1.0, np.linalg.norm(left))


def test_entrywise_product_as_scaled_convolution_of_dfts():
    # a (.) b == idft(dft(a) tube-conv dft(b)) / n
    a = rand(3, 2, 5, 55)
    b = rand(3, 2, 5, 56)
    n = 5
    want = Tensor3(a.data * b.data)
    got = idft(tube_conv(Tensor3(dft(a)), Tensor3(dft(b))).data) * (1.0 / n)
    assert max_abs_diff(got, want) <= 1e-10 * max(1.0, fro_norm(want))


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
    assert np.allclose(c.frontal_slice(0), a.frontal_slice(0) @ b.frontal_slice(0))


# -- norms ---------------------------------------------------------------------


def test_rel_error_basics():
    f = rand(3, 2, 4, 90)
    zero = Tensor3(np.zeros((3, 2, 4)))
    assert rel_error(f, f) == 0.0
    assert rel_error(zero, f) == pytest.approx(1.0)
    assert rel_error(2.0 * f, f) == pytest.approx(1.0)


def test_rel_error_rejects_zero_reference():
    zero = Tensor3(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        rel_error(zero, zero)


def test_fro_norm():
    t = Tensor3(np.full((2, 2, 2), 3.0))
    assert fro_norm(t) == pytest.approx(np.sqrt(8 * 9))


# -- random tensors ------------------------------------------------------------


def test_random_tensor_reproducible_and_real():
    a = random_tensor(3, 4, 5, 123)
    b = random_tensor(3, 4, 5, 123)
    c = random_tensor(3, 4, 5, 124)
    assert a.is_real and a.data.dtype == np.float64
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
