"""``tools/moves.py``: the largest relative move between two output trees."""

import importlib.util
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "moves", Path(__file__).resolve().parent.parent / "tools" / "moves.py"
)
moves = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(moves)


def test_largest_move_names_the_number_that_moved_most():
    assert moves.largest_move("T,err\n5,1.0,2.0\n", "T,err\n5,1.5,2.5\n") == (0.5, 1.0, 1.5)


@pytest.mark.parametrize("new", ["T,rel\n5,1.0\n", "T,err\n5,1.0,2.0\n"])
def test_largest_move_is_none_where_more_than_numbers_differ(new):
    """A changed word, or a changed word count, is a layout change."""
    assert moves.largest_move("T,err\n5,1.0\n", new) is None


def test_nan_to_nan_is_no_move():
    assert moves.largest_move("nan,2.0", "nan,3.0") == (0.5, 2.0, 3.0)
    assert moves.largest_move("nan", "nan") == (0.0, 0.0, 0.0)


def test_a_move_from_zero_is_inf():
    assert moves.largest_move("0.0,1.0", "1e-300,1.5") == (math.inf, 0.0, 1e-300)


@pytest.mark.parametrize("old, new", [("inf,1.0", "5.0,100.0"), ("1.0,inf", "100.0,5.0")])
def test_a_move_from_inf_is_the_nan_that_counts_as_largest(old, new):
    move, x, y = moves.largest_move(old, new)
    assert math.isnan(move) and (x, y) == (math.inf, 5.0)


def test_describe_names_a_file_in_one_tree_and_a_layout_change(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("T,err\n5,1.0\n")
    assert moves.describe(old, new) == "only in OLD"
    assert moves.describe(new, old) == "only in NEW"
    new.write_text("T,rel\n5,1.0\n")
    assert moves.describe(old, new) == "layout differs"
    new.write_text("T,err\n5,1.25\n")
    assert moves.describe(old, new) == "0.25  from 1.0 to 1.25"
