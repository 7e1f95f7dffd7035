"""Move-selection outputs are pinned: the items fixture round-trips to its own
bytes, and a digest covers every prompt a model player is sent and every
report row, for model, random and toyfish players.

`tests/data/move_items_small.jsonl` was written by `save_move_items`: eight
items of seeded playouts with synthetic oracle tables, with histories of 0, 2
and 20 or more plies, a blitz item with no history at a later position, and
blindfold items with White and with Black to move.
"""

import hashlib
import json
import random

from chessarena.core import legal_moves, move_to_san, parse_fen
from chessarena.evals import load_move_items, run_move_selection, save_move_items
from chessarena.players import PlayerSpec

from conftest import DATA_DIR, ScriptedTransport

ITEMS = DATA_DIR / "move_items_small.jsonl"

# sha256 over the prompts and reports of `_runs`; any change to one prompt
# byte, extracted move, score or row changes it.
GOLDEN_DIGEST = "188b636f746c230ba4a57ab3c7813c9c4b38bccffb13b56e61838c3699de528f"


def _replies(items) -> list:
    """One reply per item: the top move in UCI, a legal move in SAN, text
    with no move, or the worst move in UCI, in turn."""
    replies = []
    for i, item in enumerate(items):
        ranked = sorted(item.table.evals, key=lambda ev: (-ev.win_rate, ev.move.uci))
        if i % 4 == 0:
            replies.append(f"```{ranked[0].move.uci}```")
        elif i % 4 == 1:
            board = parse_fen(item.fen)
            moves = legal_moves(board)
            replies.append(f"<answer>\n```\n{move_to_san(board, moves[i % len(moves)])}\n```\n</answer>")
        elif i % 4 == 2:
            replies.append("I resign.")
        else:
            replies.append(f"```{ranked[-1].move.uci}```")
    return replies


def _runs(items, toy_handle) -> dict:
    common = {"kind": "llm_api", "model": "scripted"}
    models = [
        PlayerSpec(id="standard-pgn", play_mode="standard", history_format="pgn", **common),
        PlayerSpec(id="blitz-uci", play_mode="blitz", history_format="uci_list", **common),
        PlayerSpec(id="blindfold", play_mode="blindfold", history_format="none", **common),
    ]
    runs = {}
    for spec in models:
        transport = ScriptedTransport(_replies(items))
        report = run_move_selection(spec, items, transport=transport)
        runs[spec.id] = {"prompts": [[m.as_dict() for m in call] for call in transport.calls], "report": report}
    runs["random"] = {"report": run_move_selection(PlayerSpec(id="random", kind="random"), items, rng=random.Random(0))}
    toyfish = PlayerSpec(id="toyfish", kind="uci_engine", engine_command="unused", engine_limits={"depth": 1})
    runs["toyfish"] = {"report": run_move_selection(toyfish, items, handle=toy_handle)}
    return runs


def test_move_items_fixture_round_trips_to_its_bytes(tmp_path):
    out = tmp_path / "items.jsonl"
    save_move_items(load_move_items(ITEMS), out)
    assert out.read_bytes() == ITEMS.read_bytes()


def test_move_selection_prompts_and_rows_keep_their_bytes(toy_handle):
    items = load_move_items(ITEMS)
    runs = _runs(items, toy_handle)
    assert all(len(run["prompts"]) == len(items) for run in runs.values() if "prompts" in run)
    text = json.dumps(runs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGEST
