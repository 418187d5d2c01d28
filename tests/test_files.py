import pytest

from tristarter import StructuralError
from tristarter.files import (
    dumps_text,
    load_starter,
    load_starters,
    loads_text,
    pairing_from_obj,
    pairing_to_obj,
    save_starter,
)

from fixtures import S21, T7


def test_json_round_trip(tmp_path):
    path = tmp_path / "t.json"
    save_starter(T7, path)
    assert load_starter(path) == T7


def test_text_round_trip(tmp_path):
    path = tmp_path / "t.txt"
    save_starter(S21, path)
    assert load_starter(path) == S21
    assert dumps_text(T7).startswith("order 7\n2 3\n")


def test_json_list_of_starters(tmp_path):
    path = tmp_path / "many.json"
    path.write_text('[{"order": 7, "pairs": [[2,3],[4,6],[1,5]]},'
                    ' {"order": 7, "pairs": [[2,3],[4,6],[1,5]]}]')
    assert load_starters(path) == [T7, T7]
    with pytest.raises(StructuralError):
        load_starter(path)


def test_obj_round_trip():
    assert pairing_from_obj(pairing_to_obj(T7)) == T7


def test_text_comments_and_blanks():
    text = "# starter\norder 7\n\n2 3\n4 6  # a pair\n1 5\n"
    assert loads_text(text) == T7


def test_text_errors_are_line_anchored():
    with pytest.raises(StructuralError, match=r":2:"):
        loads_text("order 7\n2\n4 6\n1 5\n", where="bad.txt")
    with pytest.raises(StructuralError, match="header"):
        loads_text("2 3\n", where="bad.txt")
    with pytest.raises(StructuralError, match="bad.txt"):
        loads_text("order 7\n2 3\n4 6\n1 9\n", where="bad.txt")


def test_json_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"order": 7}')
    with pytest.raises(StructuralError, match="pairs"):
        load_starter(path)
    path.write_text('{"order": 7, "pairs": [[2,3],[4,6]]}')
    with pytest.raises(StructuralError):
        load_starter(path)
    path.write_text('{broken')
    with pytest.raises(StructuralError, match="JSON"):
        load_starter(path)


@pytest.mark.parametrize("pairs", [
    [[2.9, 3], [4, 6], [1, 5]],     # would truncate to T7
    [[True, 3], [4, 6], [2, 5]],    # would load with entry 1
], ids=["float", "bool"])
def test_json_non_integer_entries_are_refused(pairs):
    with pytest.raises(StructuralError, match="pair 0 has non-integer entries"):
        pairing_from_obj({"order": 7, "pairs": pairs})


def test_missing_file():
    with pytest.raises(StructuralError):
        load_starter("/nonexistent/starter.json")
