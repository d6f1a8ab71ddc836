import math

from same_bits import (CASES, CONFIG_CASES, describe, differing,
                       largest_relative_difference, table)


def test_same_bits_table_agrees_with_itself_in_one_process():
    # the table is what `same_bits.py --parent` compares across revisions:
    # two computations of it on one tree must give the same hashes
    first = table()
    assert sorted(first) == sorted(CASES | CONFIG_CASES)
    assert all(first.values())
    assert differing(first, table()) == {}


def test_differing_names_changed_and_missing_items():
    parent = {"a": {"coeffs": "1", "row 0": "2"}, "b": {"coeffs": "3"}}
    child = {"a": {"coeffs": "1", "row 0": "9"}, "c": {"coeffs": "3"}}
    assert differing(parent, child) == {
        "a": ["row 0"], "b": ["coeffs"], "c": ["coeffs"]}
    assert differing(parent, parent) == {}


def test_describe_sizes_each_differing_scalar_item():
    # the coefficients, a row and a norm carry their floats' hex text, so
    # the report gives the largest relative move of a scalar item, the
    # coefficients' relative to their largest magnitude; a hash has none
    # to give
    one, nudged = 1.5, math.nextafter(1.5, 2.0)
    parent = {"a": {"coeffs": [4.0.hex(), 1e-17.hex()],
                    "row 0": [0.25.hex(), one.hex(), None],
                    "L2": [2.0.hex()]},
              "b": {"H1": [0.0.hex()], "cli series.csv": "1"},
              "c": {"L2": [1.0.hex()]}}
    child = {"a": {"coeffs": [4.0.hex(), 2e-17.hex()],
                   "row 0": [0.25.hex(), nudged.hex(), None],
                   "L2": [2.0.hex()]},
             "b": {"H1": [1e-300.hex()], "cli series.csv": "9"},
             "c": {"L2": [math.nan.hex()]}}
    assert largest_relative_difference(parent["a"]["row 0"],
                                       child["a"]["row 0"]) == (
        (nudged - one) / one)
    assert largest_relative_difference(parent["a"]["coeffs"],
                                       child["a"]["coeffs"]) == 1.0
    assert largest_relative_difference(parent["a"]["coeffs"],
                                       child["a"]["coeffs"],
                                       whole=True) == 1e-17 / 4.0
    assert largest_relative_difference("1", "9") is None
    assert describe(parent, child) == [
        "a: coeffs (rel 2.5e-18), row 0 (rel 1.5e-16)",
        "b: H1 (rel inf), cli series.csv", "c: L2 (rel nan)"]
    assert describe(parent, parent) == []
