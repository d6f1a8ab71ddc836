from same_bits import CASES, CONFIG_CASES, differing, table


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
