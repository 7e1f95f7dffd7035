import json

import pytest

from chessarena.arena import RunDir
from chessarena import UserError
from chessarena.jsonlog import append_row, read_rows, write_rows

ROWS = [{"round": 1, "games": ["a", "b"]}, {"round": 2, "note": "café"}, {"round": 3}]


def test_rows_read_back_in_order(tmp_path):
    log = tmp_path / "log.jsonl"
    assert list(read_rows(log)) == []  # a missing log has no rows
    texts = [append_row(log, row) for row in ROWS]
    assert list(read_rows(log)) == list(zip(texts, ROWS))
    assert log.read_text() == "".join(json.dumps(row, sort_keys=True) + "\n" for row in ROWS)


def test_rounds_log_keeps_its_bytes(tmp_path):
    run_dir = RunDir(tmp_path)
    for row in ROWS:
        run_dir.append_round(row)
    expected = "".join(json.dumps(row, sort_keys=True) + "\n" for row in ROWS)
    assert (tmp_path / "rounds.jsonl").read_text() == expected


@pytest.mark.parametrize("cut", [1, 2, 7, -1], ids=["newline", "brace-and-newline", "mid-row", "all-but-a-byte"])
def test_a_torn_last_row_is_dropped_and_not_glued_to_the_next(tmp_path, cut):
    log = tmp_path / "log.jsonl"
    for row in ROWS:
        append_row(log, row)
    whole = log.read_bytes()
    last = len(json.dumps(ROWS[-1], sort_keys=True)) + 1
    log.write_bytes(whole[: -cut if cut > 0 else -last + 1])
    assert [row for _, row in read_rows(log)] == ROWS[:-1]
    append_row(log, ROWS[-1])
    assert [row for _, row in read_rows(log)] == ROWS
    assert log.read_bytes() == whole


@pytest.mark.parametrize(
    "bad, error",
    [
        (b'{"round": 2', "JSONDecodeError"),
        (b'{"round": "\xff"}', "UnicodeDecodeError"),
        (b"7", "not a JSON object"),
        (b"", "JSONDecodeError"),
    ],
    ids=["torn-middle", "not-utf8", "not-an-object", "empty-line"],
)
def test_a_bad_row_before_the_last_names_file_and_line(tmp_path, bad, error):
    log = tmp_path / "log.jsonl"
    for row in ROWS:
        append_row(log, row)
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(lines[0] + bad + b"\n" + lines[2])
    with pytest.raises(UserError, match=f"^{log}:2: .*{error}"):
        list(read_rows(log))
    # A newline-ended row is never taken for a torn one, even when it is the last.
    log.write_bytes(lines[0] + bad + b"\n")
    with pytest.raises(UserError, match=f"^{log}:2: "):
        list(read_rows(log))


def test_write_rows_makes_its_directory_and_replaces_the_file(tmp_path):
    path = tmp_path / "new" / "nested" / "rows.jsonl"
    write_rows(path, iter(ROWS))
    assert path.read_text() == "".join(json.dumps(row, sort_keys=True) + "\n" for row in ROWS)
    write_rows(path, ROWS[:1])
    assert path.read_text() == json.dumps(ROWS[0], sort_keys=True) + "\n"
    assert [p.name for p in path.parent.iterdir()] == ["rows.jsonl"]


def test_write_rows_that_fails_to_encode_leaves_the_old_file(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_rows(path, ROWS)
    old = path.read_bytes()
    with pytest.raises(TypeError):
        write_rows(path, [ROWS[0], {"moves": {"e2e4"}}])
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]  # no .tmp left behind
