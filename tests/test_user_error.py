"""Only `UserError` escapes a loader: every input file the operator hands in
either loads or raises the one declared error, which the CLI maps to exit 1
(`tests/test_cli.py` checks the exit code and the one `error:` line)."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chessarena import UserError
from chessarena.arena import GameConfig, RunDir, make_player, play_game
from chessarena.cli import load_config
from chessarena.core import legal_moves
from chessarena.engine import AnalysisCache, AnalysisTable, MoveEval, Score, top_moves_of
from chessarena.evals import (
    MoveSelectionItem, load_fens, load_lichess_puzzles, load_move_items, save_move_items,
)
from chessarena.players import PlayerSpec

from conftest import PUZZLES_CSV, playout, playout_with_moves

EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "example.json"
# JSON values of every type, to put in place of a value of another type.
JSON_VALUES = [None, True, 0, 2.5, "x", [], [1], {}, {"k": 1}]


def _table(board) -> AnalysisTable:
    evals = tuple(
        MoveEval(m, Score("mate", 1) if i == 0 else Score("cp", 10 * i - 40), 0.5 + i / 200)
        for i, m in enumerate(legal_moves(board))
    )
    return AnalysisTable(board.fen, 1, evals, top_moves_of(evals))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """For each loader: the name of its file, the bytes of a valid one,
    whether they are JSON (one document, or one per line), and the call that
    loads the file at a path."""
    root = tmp_path_factory.mktemp("valid")
    items = []
    for seed in range(2):
        board, moves = playout_with_moves(seed, 8)
        items.append(MoveSelectionItem(board.fen, tuple(m.uci for m in moves), "blitz", True, _table(board)))
    save_move_items(items, root / "items.jsonl")
    white, black = (make_player(PlayerSpec(id=f"r{i}", kind="random")) for i in range(2))
    record = play_game(white, black, GameConfig(ply_cap=16), seed=3, game_id="game")
    game = RunDir(root).write_game(record).read_bytes()
    tables = [_table(playout(seed, 6)) for seed in range(2)]
    cache = AnalysisCache(root)
    for table in tables:
        cache.put("toy", table)

    def read_analyses(path):
        cache = AnalysisCache(path.parent)
        return [cache.get("toy", table.fen, table.depth) for table in tables]

    return {
        "fens": ("in.fens", "".join(playout(seed, 10).fen + "\n" for seed in range(3)).encode(), None,
                 load_fens),
        "move-items": ("items.jsonl", (root / "items.jsonl").read_bytes(), "lines", load_move_items),
        "puzzle-csv": ("in.csv", b"\n".join(PUZZLES_CSV.read_bytes().splitlines()[:4]) + b"\n", None,
                       load_lichess_puzzles),
        "game": ("games/game.jsonl", game, "lines",
                 lambda path: RunDir(path.parent.parent).read_game("game")),
        "game-result": ("games/game.jsonl", game, "lines",
                        lambda path: RunDir(path.parent.parent).read_result("game")),
        "analysis-log": ("analyses.jsonl", (root / "analyses.jsonl").read_bytes(), "lines", read_analyses),
        "config": ("config.json", EXAMPLE_CONFIG.read_bytes(), "document", load_config),
    }


def _slots(value) -> list:
    """Every (container, key) pair inside a JSON value, nested ones included."""
    if isinstance(value, dict):
        keys = sorted(value)
    elif isinstance(value, list):
        keys = range(len(value))
    else:
        return []
    return [(value, k) for k in keys] + [slot for k in keys for slot in _slots(value[k])]


def _swap(text: str, data) -> str:
    """The JSON text with one value, the whole document included, replaced by
    a JSON value of another type."""
    holder = [json.loads(text)]
    container, key = data.draw(st.sampled_from(_slots(holder)))
    old = container[key]
    container[key] = data.draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)]))
    return json.dumps(holder[0], sort_keys=True)


def _damage(clean: bytes, json_kind, data) -> bytes:
    """The file's bytes cut short at a random byte, with one byte flipped, or,
    for JSON, with one value swapped for a value of another type."""
    kind = data.draw(st.sampled_from(["cut", "flip", "swap"] if json_kind else ["cut", "flip"]))
    if kind == "cut":
        return clean[: data.draw(st.integers(0, len(clean)))]
    if kind == "flip":
        at = data.draw(st.integers(0, len(clean) - 1))
        return clean[:at] + bytes([clean[at] ^ data.draw(st.integers(1, 255))]) + clean[at + 1:]
    if json_kind == "document":
        return _swap(clean.decode(), data).encode()
    lines = clean.decode().splitlines()
    n = data.draw(st.integers(0, len(lines) - 1))
    lines[n] = _swap(lines[n], data)
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_damaged_input_loads_or_raises_user_error(inputs, fuzz_root, data):
    name = data.draw(st.sampled_from(sorted(inputs)))
    file_name, clean, json_kind, load = inputs[name]
    path = fuzz_root / name / file_name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(_damage(clean, json_kind, data))
    try:
        load(path)
    except UserError:
        pass
