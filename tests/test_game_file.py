"""The game-file codec: `encode_game` / `decode_game` and the `RunDir` reads
and writes built on them."""

import collections
import dataclasses
import json
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

import chessarena.arena as arena
from chessarena import UserError
from chessarena.arena import (
    GameConfig,
    GameRecord,
    MatchRequest,
    Player,
    PlayerRegistry,
    RunDir,
    _game_lines,
    annotate_record,
    encode_game,
    make_player,
    play_game,
    run_match,
    run_tournament,
)
from chessarena.players import ChatResponse, PlayerSpec, TransportError
from chessarena.rating import PoolEntry, RatingConfig, RatingState

from conftest import ScriptedTransport

LLM = PlayerSpec(id="llm", kind="llm_api", play_mode="blitz", provide_legal_moves=True, endpoint="stub")
RANDOMS = [PlayerSpec(id=f"rand-{i}", kind="random") for i in range(2)]
# JSON values of every type, to put in place of a row value of another type.
JSON_VALUES = [None, True, 0, 2.5, "x", [], [1], {}, {"k": 1}]


class DownPlayer(Player):
    """A player whose endpoint is down: the game aborts on its first move."""

    def choose(self, view):
        raise TransportError("endpoint down")


def _reference_text(record: GameRecord) -> str:
    """The game file format spelled out key by key: a header row, one row per
    ply with its attempts, and a footer row, each JSON with sorted keys."""
    rows = [{"type": "header", "game_id": record.game_id, "white": record.white_id,
             "black": record.black_id, "seed": record.seed, "started_at": record.started_at}]
    for p in record.plies:
        attempts = [
            {"raw_response": a.raw_response, "outcome": a.outcome, "move": a.move.uci if a.move else None,
             "attempt_index": a.attempt_index, "token_usage": a.token_usage, "reasoning": a.reasoning,
             "error": a.error}
            for a in p.attempts
        ]
        rows.append({"type": "ply", "ply": p.ply, "fen_before": p.fen_before, "color": p.color,
                     "prompt_digest": p.prompt_digest, "attempts": attempts, "move": p.move,
                     "q": p.q, "in_top3": p.in_top3})
    term = record.termination
    rows.append({"type": "footer", "termination": term.reason if term else None,
                 "winner": term.winner if term else None, "result_white": record.result_white,
                 "finished_at": record.finished_at, "aborted": record.aborted, "error": record.error})
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


@pytest.fixture(scope="module")
def records(toy_handle):
    """A random game, an LLM game (token usage, reasoning, attempt errors and
    a forfeit), an annotated game and an aborted game."""
    cfg = GameConfig(ply_cap=12)
    white, black = map(make_player, RANDOMS)
    usage = ChatResponse(text="e7e5", reasoning="the e-pawn", usage={"prompt_tokens": 11, "completion_tokens": 3})
    llm = make_player(LLM, transport=ScriptedTransport(["junk", "e2e4", "Zz9", usage, "g1f3"] + ["h9h9"] * 5))
    annotated = play_game(white, black, cfg, seed=5, game_id="annotated")
    annotate_record(annotated, toy_handle, depth=1)
    return [
        play_game(white, black, cfg, seed=1, game_id="random"),
        play_game(llm, black, cfg, seed=2, game_id="llm"),
        annotated,
        play_game(white, DownPlayer(LLM), cfg, seed=4, game_id="aborted"),
    ]


def test_sample_records_cover_the_format(records):
    random_game, llm_game, annotated, aborted = records
    attempts = [a for p in llm_game.plies for a in p.attempts]
    assert {a.outcome for a in attempts} == {"ok", "parsing_error", "illegal_move"}
    assert any(a.token_usage and a.reasoning for a in attempts)
    assert llm_game.termination.reason == "forfeit" and llm_game.plies[-1].move is None
    assert all(p.prompt_digest for p in llm_game.plies if p.color == "white")
    assert all(p.q is not None for p in annotated.plies)
    assert aborted.aborted and aborted.error and aborted.result_white is None
    assert random_game.termination is not None


def test_untouched_game_file_round_trips_byte_for_byte(records, tmp_path):
    run_dir = RunDir(tmp_path)
    for record in records:
        text = encode_game(record)
        assert text == _reference_text(record)
        path = run_dir.write_game(record)
        assert path.read_bytes() == text.encode()
        loaded = run_dir.read_game(record.game_id)
        assert loaded == record
        assert encode_game(loaded) == text


def _swap_value(line: str, data) -> str:
    """The row with one value, at the top level or inside an attempt,
    replaced by a JSON value of another type."""
    row = json.loads(line)
    holder = row
    if row["type"] == "ply" and row["attempts"] and data.draw(st.booleans()):
        holder = data.draw(st.sampled_from(row["attempts"]))
    key = data.draw(st.sampled_from(sorted(holder)))
    holder[key] = data.draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(holder[key])]))
    return json.dumps(row, sort_keys=True)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return RunDir(tmp_path_factory.mktemp("fuzz"))


def _damage(clean: bytes, data) -> tuple:
    """The game file's bytes cut short, with one byte flipped, or with one
    value swapped for another type's, and which of the three it is."""
    kind = data.draw(st.sampled_from(["cut", "flip", "swap"]))
    if kind == "cut":
        at = data.draw(st.integers(0, len(clean)))
        damaged = clean[:at]
    elif kind == "flip":
        at = data.draw(st.integers(0, len(clean) - 1))
        damaged = clean[:at] + bytes([clean[at] ^ data.draw(st.integers(1, 255))]) + clean[at + 1:]
    else:
        lines = clean.decode().splitlines()
        n = data.draw(st.integers(0, len(lines) - 1))
        lines[n] = _swap_value(lines[n], data)
        damaged = ("\n".join(lines) + "\n").encode()
    return kind, damaged


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_damaged_game_file_is_unfinished_a_record_or_a_declared_error(records, fuzz_dir, data):
    record = data.draw(st.sampled_from(records))
    clean = encode_game(record).encode()
    kind, damaged = _damage(clean, data)
    path = fuzz_dir.game_path(record.game_id)
    path.write_bytes(damaged)
    try:
        loaded = fuzz_dir.read_game(record.game_id)
    except UserError as exc:
        assert kind != "cut"  # a torn file is unfinished, never an error
        assert str(exc).startswith(f"{path}:")
        return
    if kind == "cut":  # only the final newline may be missing
        assert (loaded is None) == (len(damaged) < len(clean) - 1)
    assert loaded is None or isinstance(loaded, GameRecord)


def _read(read, game_id):
    """What `read` makes of the game file: a record, None, or the message of
    its UserError."""
    try:
        return read(game_id)
    except UserError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_result_read_agrees_with_the_full_read(records, fuzz_dir, data):
    """On a clean or damaged file, the header-and-footer read and the full
    read both say unfinished, both raise on the same line, or both return the
    same header and footer fields; except that the full read alone raises on a
    ply row."""
    record = data.draw(st.sampled_from(records))
    clean = encode_game(record).encode()
    path = fuzz_dir.game_path(record.game_id)
    for content in (clean, _damage(clean, data)[1]):
        path.write_bytes(content)
        full = _read(fuzz_dir.read_game, record.game_id)
        result = _read(fuzz_dir.read_result, record.game_id)
        if isinstance(result, GameRecord) and isinstance(full, str):
            number = int(full.removeprefix(f"{path}:").split(":")[0])
            assert 1 < number < len(_game_lines(path)), full  # a ply row, never the header or footer
        elif isinstance(result, GameRecord):
            assert result.plies is None and result == dataclasses.replace(full, plies=None)
        else:
            assert result == full
        if content == clean:
            assert full == record and result == dataclasses.replace(record, plies=None)


def _drop_key(line: str, key: str) -> bytes:
    row = json.loads(line)
    del row[key]
    return json.dumps(row, sort_keys=True).encode()


@pytest.mark.parametrize(
    "number, damage, expected",
    [
        (1, lambda line: _drop_key(line, "seed"), "KeyError: 'seed'"),
        (3, lambda line: b'{"type": "ply", "fen_before": "x"}', "KeyError: 'attempts'"),
        (2, lambda line: b"\xff" + line.encode(), "UnicodeDecodeError: 'utf-8'"),
        (-1, lambda line: _drop_key(line, "error"), "KeyError: 'error'"),  # -1: the footer
    ],
    ids=["header-key", "ply-keys", "not-utf8", "footer-key"],
)
def test_a_bad_row_of_a_finished_file_names_its_line(records, tmp_path, number, damage, expected):
    run_dir = RunDir(tmp_path)
    path = run_dir.write_game(records[1])
    lines = path.read_text().splitlines()
    number = len(lines) if number == -1 else number
    rows = [line.encode() for line in lines]
    rows[number - 1] = damage(lines[number - 1])
    path.write_bytes(b"\n".join(rows) + b"\n")
    with pytest.raises(UserError, match=f"^{re.escape(f'{path}:{number}: {expected}')}"):
        run_dir.has_game(records[1].game_id)


def test_resumed_game_files_are_read_once(tmp_path, monkeypatch):
    def fresh_pool():
        return [PoolEntry(id=s.id, rating=RatingState.fresh(RatingConfig())) for s in RANDOMS]

    registry = PlayerRegistry(RANDOMS)
    run_dir = RunDir(tmp_path)
    req = MatchRequest("rand-0", "rand-1", 4)
    first = run_match(req, fresh_pool(), GameConfig(ply_cap=20), registry, run_dir=run_dir, seed=1)
    opened = collections.Counter()
    path_open = pathlib.Path.open

    def counting_open(self, *args, **kwargs):
        opened[self.name] += 1
        return path_open(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "open", counting_open)
    resumed = run_match(req, fresh_pool(), GameConfig(ply_cap=20), registry, run_dir=run_dir, seed=1)
    assert resumed == [dataclasses.replace(r, plies=None) for r in first]  # resume reads no ply row
    assert opened == {f"{r.game_id}.jsonl": 1 for r in first}


def test_resumed_tournament_decodes_no_ply_row(tmp_path, monkeypatch):
    pool = [PoolEntry(id=s.id, rating=RatingState.fresh(RatingConfig())) for s in RANDOMS]
    registry = PlayerRegistry(RANDOMS)
    run_dir = RunDir(tmp_path)
    run_tournament(pool, 3, registry, GameConfig(ply_cap=20), seed=2, run_dir=run_dir)
    played = run_dir.game_ids()
    opened = collections.Counter()
    decoded = []
    path_open = pathlib.Path.open

    def counting_open(self, *args, **kwargs):
        opened[self] += 1
        return path_open(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "open", counting_open)
    monkeypatch.setattr(arena, "PlyRecord", lambda **row: decoded.append(row))
    monkeypatch.setattr(arena, "_attempt", lambda row: decoded.append(row))
    pool = [PoolEntry(id=s.id, rating=RatingState.fresh(RatingConfig())) for s in RANDOMS]
    run_tournament(pool, 3, registry, GameConfig(ply_cap=20), seed=2, run_dir=run_dir)
    assert len(played) == 6 and run_dir.game_ids() == played
    assert decoded == []
    assert {path: n for path, n in opened.items() if path.parent == run_dir.games} == {
        run_dir.game_path(gid): 1 for gid in played
    }
