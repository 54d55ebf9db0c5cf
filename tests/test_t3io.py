import numpy as np
import pytest

from dynsamp import T3FormatError, Tensor3, dumps_t3, loads_t3, random_tensor, read_t3, write_t3


def test_round_trip_real(tmp_path):
    t = random_tensor(3, 2, 4, 7)
    path = tmp_path / "t.t3"
    write_t3(path, t)
    back = read_t3(path)
    assert back.dims == t.dims
    assert back.data.dtype == np.float64
    assert np.array_equal(back.data, t.data)


def test_round_trip_complex(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=8))
    t = Tensor3(rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2)))
    path = tmp_path / "t.t3"
    write_t3(path, t)
    back = read_t3(path)
    assert not back.is_real
    assert np.array_equal(back.data, t.data)


def test_header_and_order():
    t = Tensor3(np.arange(1, 13, dtype=float).reshape(2, 3, 2))
    text = dumps_t3(t)
    lines = text.splitlines()
    assert lines[0] == "T3 1 2 3 2 real"
    # (k, j, i) lexicographic: first data line is entry (0, 0, 0), second (1, 0, 0)
    assert float(lines[1]) == t.data[0, 0, 0].real
    assert float(lines[2]) == t.data[1, 0, 0].real
    assert float(lines[3]) == t.data[0, 1, 0].real
    # first entry of the second frontal slice comes after all of slice 0
    assert float(lines[1 + 6]) == t.data[0, 0, 1].real


def test_rewrite_is_byte_identical(tmp_path):
    t = random_tensor(4, 3, 5, 9)
    a = tmp_path / "a.t3"
    b = tmp_path / "b.t3"
    write_t3(a, t)
    write_t3(b, read_t3(a))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("T3 2 1 1 1 real\n0.0\n", 1),
        ("T3 1 1 1 real\n0.0\n", 1),
        ("T3 1 1 1 1 float\n0.0\n", 1),
        ("T3 1 0 1 1 real\n", 1),
        ("T3 1 a 1 1 real\n0.0\n", 1),
        ("T3 1 2 1 1 real\n0.0\nnot_a_number\n", 3),
        ("T3 1 2 1 1 real\n0.0\n", 3),           # too few entries
        ("T3 1 1 1 1 real\n0.0\n1.0\n", 3),      # too many entries
        ("T3 1 1 1 1 complex\n0.0\n", 2),        # complex needs two values
        ("T3 1 1 1 1 real\n0.0 1.0\n", 2),       # real takes one value
        ("T3 1 2 1 1 real\n0.0\nnan\n", 3),      # non-finite values
        ("T3 1 2 1 1 real\n0.0\n-Infinity\n", 3),
        ("T3 1 1 1 1 complex\n1.0 inf\n", 2),
    ],
)
def test_malformed_input_reports_line(text, line):
    with pytest.raises(T3FormatError) as err:
        loads_t3(text, "bad.t3")
    assert err.value.line_no == line
    assert "bad.t3" in str(err.value)


def test_trailing_newline_tolerated():
    t = loads_t3("T3 1 1 1 1 real\n2.5\n\n")
    assert t.data[0, 0, 0] == 2.5
