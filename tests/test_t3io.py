import math
import os
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynsamp import T3FormatError, Tensor3, dumps_t3, loads_t3, random_tensor, read_t3, write_t3
from dynsamp.t3io import atomic_write_text
from oracles import dumps_t3_oracle, loads_t3_oracle


def test_round_trip_real(tmp_path):
    t = random_tensor(3, 2, 4, 7)
    path = tmp_path / "t.t3"
    write_t3(path, t)
    back = read_t3(path)
    assert back.dims == t.dims
    assert back.data.dtype == np.float64
    assert np.array_equal(back.data, t.data)


def test_header_and_order():
    t = Tensor3(np.arange(1, 13, dtype=float).reshape(2, 3, 2))
    text = dumps_t3(t)
    lines = text.splitlines()
    assert lines[0] == "T3 1 2 3 2 real"
    # (k, j, i) lexicographic: first data line is entry (0, 0, 0), second (1, 0, 0)
    assert float(lines[1]) == t.data[0, 0, 0]
    assert float(lines[2]) == t.data[1, 0, 0]
    assert float(lines[3]) == t.data[0, 1, 0]
    # first entry of the second frontal slice comes after all of slice 0
    assert float(lines[1 + 6]) == t.data[0, 0, 1]


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
        ("T3 1 1 1 1 real\n0.0\n\n1.0\n", 4),    # too many, after a blank line
        # data is real only: a complex header is the error, whatever follows
        ("T3 1 1 1 1 complex\n0.0\n", 1),
        ("T3 1 1 1 1 complex\n1.0 2.0 3.0 4.0\n", 1),
        ("T3 1 1 1 1 complex\n1.0 inf\n", 1),
        ("T3 1 1 1 1 real\n0.0 1.0\n", 2),       # one value per line
        ("T3 1 2 1 1 real\n0.0\nnan\n", 3),      # non-finite values
        ("T3 1 2 1 1 real\n0.0\n-Infinity\n", 3),
        ("T3 1 100000 100000 100000 real\n0.0\n", 3),  # counted, never allocated
    ],
)
def test_malformed_input_reports_line(text, line):
    with pytest.raises(T3FormatError) as err:
        loads_t3(text, "bad.t3")
    assert err.value.line_no == line
    assert "bad.t3" in str(err.value)
    with pytest.raises(T3FormatError) as want:
        loads_t3_oracle(text, "bad.t3")
    assert str(err.value) == str(want.value)


@pytest.mark.parametrize("fails", ["write", "rename"])
def test_atomic_write_removes_its_temporary_file_when_it_fails(tmp_path, monkeypatch, fails):
    text = "caf\u00e9\n" if fails == "write" else "ok\n"  # the write takes ASCII only

    def refuse(src, dst):
        raise OSError("rename refused")

    if fails == "rename":
        monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(UnicodeEncodeError if fails == "write" else OSError):
        atomic_write_text(tmp_path / "out.txt", text)
    assert list(tmp_path.iterdir()) == []


def test_trailing_newline_tolerated():
    t = loads_t3("T3 1 1 1 1 real\n2.5\n\n")
    assert t.data[0, 0, 0] == 2.5


# Finite float64 values, with -0.0 and subnormals drawn on purpose.
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]),
)
_DIMS = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))


@st.composite
def _tensors(draw):
    dims = draw(_DIMS)
    size = dims[0] * dims[1] * dims[2]
    return Tensor3(np.reshape(draw(st.lists(_FINITE, min_size=size, max_size=size)), dims))


@settings(max_examples=60, deadline=None)
@given(_tensors())
def test_round_trip_is_bit_exact(t):
    back = loads_t3(dumps_t3(t))
    assert back.dims == t.dims and back.data.dtype == np.float64
    assert back.data.tobytes() == t.data.tobytes()


_HEADER_FIELD = st.one_of(
    st.sampled_from(["T3", "T2", "1", "2", "real", "complex", "float", "1.5", "a"]),
    st.integers(-1, 3).map(str),
    st.text(alphabet="T3 .-eaxl", max_size=3),
)
_VALUE_LINE = st.one_of(
    _FINITE.map(lambda v: f"{v:.17e}"),
    st.tuples(_FINITE, _FINITE).map(lambda v: f"{v[0]:.17e} {v[1]:.17e}"),
    st.sampled_from(["", " ", "nan", "-inf", "1e999", "0x1p3", "1 2 3", "1_0", "--1"]),
    st.text(max_size=8),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_HEADER_FIELD, max_size=7), st.lists(_VALUE_LINE, max_size=10))
def test_fuzzed_text_raises_only_format_errors(header, lines):
    text = "\n".join([" ".join(header), *lines])
    try:
        t = loads_t3(text, "fuzz.t3")
    except T3FormatError as err:
        assert str(err).startswith("fuzz.t3: line ")
    else:
        assert t.data.size == len([line for line in text.splitlines()[1:] if line.strip()])


def _column(values) -> Tensor3:
    return Tensor3(np.asarray(values, dtype=np.float64).reshape(-1, 1, 1))


def _random_bits(count: int, seed: int) -> Tensor3:
    """Finite float64 values from ``count`` random 64-bit patterns."""
    values = np.random.default_rng(seed).integers(0, 1 << 64, count, dtype=np.uint64)
    values = values.view(np.float64)
    return _column(values[np.isfinite(values)])


def _decimal_ties(seed: int) -> list[float]:
    """Dyadic m / 2**j whose exact decimal has 19 significant digits, the last
    a 5: ties for ``%.17e``, about half of them rounding down to an even digit."""
    rng = np.random.default_rng(seed)
    ties = []
    for exponent in range(-7, 16):  # 1 <= m < 2**53 with j = 18 - exponent
        j = 18 - exponent
        for x in rng.uniform(10.0**exponent, 10.0 ** (exponent + 1), 40):
            m = int(x * 2.0**j) | 1
            value = math.ldexp(m, -j)
            digits = Decimal(value).as_tuple().digits
            if len(digits) == 19 and digits[-1] == 5:
                ties.append(value)
    return ties


def _edge_values() -> Tensor3:
    """Powers of ten with their neighbours, ties, integers and range ends."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    ends = np.array([1e-10, 2.0**49, 2.2250738585072014e-308, 5e-324, 1.7976931348623157e308])
    near = np.concatenate([tens, ends])
    integers = np.concatenate(
        [2.0 ** np.arange(54), 2.0 ** np.arange(1, 54) - 1, 10.0 ** np.arange(16),
         np.random.default_rng(3).integers(0, 1 << 53, 500)]
    )
    below_max = near[near < np.finfo(np.float64).max]
    values = np.concatenate(
        [near, np.nextafter(near, 0), np.nextafter(below_max, np.inf), integers,
         _decimal_ties(4), [0.0]]
    )
    return _column(np.concatenate([values, -values]))


def _past_one_chunk() -> Tensor3:
    """More entries than the writer formats at once, with signs and zeros."""
    rng = np.random.default_rng(6)
    values = rng.standard_normal((41, 20, 11)) * 10.0 ** rng.integers(-12, 16, (41, 20, 11))
    values[rng.random(values.shape) < 0.3] = 0.0
    values[rng.random(values.shape) < 0.05] = -0.0
    return Tensor3(values)


@settings(max_examples=40, deadline=None)
@given(_tensors())
@example(_random_bits(100_000, seed=2))
@example(_edge_values())
@example(_past_one_chunk())
def test_dumps_matches_oracle(t):
    assert dumps_t3(t) == dumps_t3_oracle(t)


_PADS = ["", " ", "\t", " \t "]
_PAIR_JUNK = st.sampled_from(["nan x", "x nan", "1 inf", "inf x", "1\x1f2", "-0.0 5e-324"])


@st.composite
def _t3_texts(draw):
    """T3 text of a fuzzed tensor with padded, replaced, missing, extra and blank lines."""
    header, *body = dumps_t3_oracle(draw(_tensors())).splitlines()
    if draw(st.integers(0, 9)) == 0:
        header = " ".join(draw(st.lists(_HEADER_FIELD, max_size=7)))
    # One text in eight may pad with the unit separator \x1f too.
    pad = st.sampled_from(_PADS + ["\x1f"] * (draw(st.integers(0, 7)) == 0))
    body = [draw(pad) + line.replace(" ", draw(pad) or " ") + draw(pad) for line in body]
    junk = st.one_of(_VALUE_LINE, _PAIR_JUNK)
    for i in draw(st.lists(st.integers(0, len(body) - 1), max_size=2)):
        body[i] = draw(junk)
    extra = draw(st.integers(-2, 2))
    body = body[: len(body) + extra] if extra < 0 else body + [draw(junk) for _ in range(extra)]
    body += draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=2))
    return "\n".join([header, *body]) + draw(st.sampled_from(["", "\n", "\r\n"]))


def _outcome(loads, text):
    """``(line_no, message)`` of the error, or ``(dims, dtype, value bytes)``."""
    try:
        t = loads(text, "fuzz.t3")
    except T3FormatError as err:
        return err.line_no, str(err)
    return t.dims, t.data.dtype.str, t.data.tobytes()


@settings(max_examples=120, deadline=None)
@given(_t3_texts())
def test_loads_matches_oracle(text):
    got, want = _outcome(loads_t3, text), _outcome(loads_t3_oracle, text)
    if got == want:
        return
    # The one allowed difference: a value line with the unit separator \x1f
    # next to its number.  str.split() strips it, so the oracle reads the
    # number; float() rejects it, so the library names the line.
    line_no, message = got
    assert isinstance(line_no, int)
    bad = text.splitlines()[line_no - 1]
    assert "\x1f" in bad and len(bad.split()) == 1
    assert message == f"fuzz.t3: line {line_no}: unparseable number in {bad!r}"
    assert not isinstance(want[0], int) or want[0] > line_no


def test_unit_separator_next_to_a_real_value_is_an_error():
    text = "T3 1 2 1 1 real\n1.0\n2.0\x1f\n"
    assert loads_t3_oracle(text).data.ravel().tolist() == [1.0, 2.0]
    with pytest.raises(T3FormatError) as err:
        loads_t3(text, "bad.t3")
    assert str(err.value) == "bad.t3: line 3: unparseable number in '2.0\\x1f'"
