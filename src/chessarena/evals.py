"""Fine-grained evaluation tasks: basic board understanding, single-move
selection against engine oracles, and exact-match puzzle solving, plus the
offline reward scorer used for RL-style training signals.

Ground truth for basic understanding is always recomputed from the rules
kernel, never authored by hand, so the generator and the scorer cannot
disagree.
"""

from __future__ import annotations

import csv
import json
import logging
import random
import re
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

from . import UserError
from .arena import GameView, fan_out, make_player
from .core import (
    BoardState,
    ChessError,
    IllegalMoveError,
    MoveToken,
    apply_move,
    legal_moves,
    legal_moves_for_square,
    parse_fen,
    parse_move,
)
from .engine import AnalysisTable, table_from_dict, table_to_dict
from .jsonlog import write_rows
from .players import (
    BLITZ,
    ChatMessage,
    HttpChatTransport,
    LLM_API,
    MoveAttempt,
    OK,
    PLAY_MODES,
    PlayerSpec,
    TransportError,
    extract_candidate,
    extract_move,
    random_player_move,
)

# Unused here, but the benchmark's tracer (perfbench/tracing.py) wraps these names in this module.
from .engine import best_move  # noqa: F401
from .players import build_blindfold_conversation, build_prompt  # noqa: F401

log = logging.getLogger(__name__)

REWARD_WEIGHTS = (0.1, 0.3, 0.6)  # format, legal, top

PUZZLE_BUCKET_LOW = 200
PUZZLE_BUCKET_WIDTH = 400
PUZZLE_BUCKETS = 7

_PUZZLE_COLUMNS = [
    "PuzzleId",
    "FEN",
    "Moves",
    "Rating",
    "RatingDeviation",
    "Popularity",
    "NbPlays",
    "Themes",
    "GameUrl",
    "OpeningTags",
]


# ---------------------------------------------------------------------------
# Basic understanding


@dataclass(frozen=True)
class BasicUnderstandingItem:
    fen: str
    square: str
    expected_piece: str | None  # FEN symbol; None for an empty square
    expected_moves: tuple
    category: str = "own"  # own | opponent | empty


BASIC_SYSTEM_PROMPT = (
    "You are an expert chess player."
    "I need you to help me model a chessboard."
    "The specific steps are as follows:\n"
    "I will provide you with a FEN string representing the current board state,"
    "and then give you a position."
    "You need to identify the piece at that position from the FEN "
    "and output all legal moves for that piece.\n"
    "You must carefully analyze the board, consider the rules of chess, "
    "and provide the final answer.\n"
    "Your answer should be format as follows(output a json):\n"
    "```json\n"
    "{\n"
    '  "piece": <piece symbol>,\n'
    '  "legal moves": [<list of legal moves>]\n'
    "}\n"
    "```\n"
    "For example:\n"
    "FEN: rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1\n"
    "Position:g1\n"
    "Answer:\n"
    "```json\n"
    "{\n"
    '  "piece": "N",\n'
    '  "legal moves": ["g1h3", "g1f3"]\n'
    "}\n"
    "```\n"
    "Note:\n"
    "If the given position has no piece, directly output empty(i.e.,None), "
    "and the corresponding legal moves should also be empty(i.e.,[]).\n"
    "When it's White's turn to move, if the position contains a Black piece, "
    "you should identify the piece, but its legal moves must be empty "
    "(and vice versa for Black's turn).\n"
    "You can think and reason as much as you want(step by step), "
    "but your final answer must be formatted exactly as shown above."
)


def build_basic_understanding_prompt(fen: str, square: str) -> list:
    user = f"Current board position in FEN notation:{fen}\nPosition:{square}"
    return [ChatMessage("system", BASIC_SYSTEM_PROMPT), ChatMessage("user", user)]


def self_play_fens(n: int, seed: int) -> list:
    """Deterministic corpus of n distinct, non-terminal FENs from seeded
    random self-play."""
    rng = random.Random(seed)
    fens = []
    seen = set()
    while len(fens) < n:
        board = BoardState.start()
        for _ in range(rng.randrange(8, 70)):
            board = apply_move(board, random_player_move(board, rng))
            if not legal_moves(board):
                break
            if board.fen not in seen:
                seen.add(board.fen)
                fens.append(board.fen)
                if len(fens) >= n:
                    break
    return fens


def build_basic_understanding_set(fens, n: int, seed: int) -> list:
    """Sample n square queries with the 85/7/8 own/opponent/empty mixture.

    Unavailable categories renormalize the mixture; ground truth comes from
    the rules kernel. Deterministic for a given (fens, n, seed).
    """
    if not fens:
        raise ValueError("need at least one FEN to sample from")
    rng = random.Random(seed)
    items = []
    for _ in range(n):
        fen = fens[rng.randrange(len(fens))]
        board = parse_fen(fen)
        own, opponent, empty = [], [], []
        for idx in range(64):
            piece = board.piece_at(idx)
            name = "abcdefgh"[idx & 7] + "12345678"[idx >> 3]
            if piece is None:
                empty.append(name)
            elif piece.color == board.side_to_move:
                own.append(name)
            else:
                opponent.append(name)
        buckets = [
            ("own", 0.85, own),
            ("opponent", 0.07, opponent),
            ("empty", 0.08, empty),
        ]
        available = [(cat, w, squares) for cat, w, squares in buckets if squares]
        total = sum(w for _, w, _ in available)
        draw = rng.random() * total
        category, pool = available[-1][0], available[-1][2]
        for cat, w, squares in available:
            if draw < w:
                category, pool = cat, squares
                break
            draw -= w
        square = pool[rng.randrange(len(pool))]
        piece, moves = legal_moves_for_square(board, square)
        items.append(
            BasicUnderstandingItem(
                fen=fen,
                square=square,
                expected_piece=piece.symbol if piece else None,
                expected_moves=tuple(m.uci for m in moves),
                category=category,
            )
        )
    return items


_NONE_WORDS = {"", "none", "null", "empty"}


def parse_basic_response(raw: str):
    """Pull the answer JSON out of a response.

    Returns (piece symbol or None, list of move strings), or None when no
    JSON object with the two expected keys can be found.
    """
    candidates = re.findall(r"```(?:json)?\n?(.*?)```", raw, re.DOTALL)
    candidates.append(raw.strip())
    for text in reversed(candidates):
        try:
            payload = json.loads(text.strip())
        except (json.JSONDecodeError, ValueError):
            continue
        if not isinstance(payload, dict) or "piece" not in payload or "legal moves" not in payload:
            continue
        piece = payload["piece"]
        if isinstance(piece, str) and piece.strip().lower() in _NONE_WORDS:
            piece = None
        elif piece is not None:
            piece = str(piece).strip()
        moves_field = payload["legal moves"]
        if moves_field is None:
            moves_field = []
        if not isinstance(moves_field, list):
            return None
        moves = [str(m).strip().lower() for m in moves_field if str(m).strip()]
        return piece, moves
    return None


def score_basic_understanding(items, responses) -> dict:
    """PMA plus micro-averaged precision/recall over predicted move sets.

    Unparseable responses are fully wrong: zero matches, with max(|expected|, 1)
    charged to both denominators. Items where predicted and expected sets are
    both empty contribute one unit of perfect agreement.
    """
    if len(items) != len(responses):
        raise ValueError("items and responses must be parallel")
    pma_hits = 0
    tp = pred_total = exp_total = 0
    rows = []
    for item, raw in zip(items, responses):
        parsed = parse_basic_response(raw)
        expected = set(item.expected_moves)
        if parsed is None:
            charge = max(len(expected), 1)
            pred_total += charge
            exp_total += charge
            rows.append({"square": item.square, "parsed": False, "piece_ok": False})
            continue
        piece, moves = parsed
        piece_ok = piece == item.expected_piece
        pma_hits += piece_ok
        predicted = set(moves)
        if not predicted and not expected:
            tp += 1
            pred_total += 1
            exp_total += 1
        else:
            tp += len(predicted & expected)
            pred_total += len(predicted)
            exp_total += len(expected)
        rows.append({"square": item.square, "parsed": True, "piece_ok": piece_ok})
    n = len(items) or 1
    return {
        "pma": 100.0 * pma_hits / n,
        "precision": 100.0 * tp / pred_total if pred_total else 0.0,
        "recall": 100.0 * tp / exp_total if exp_total else 0.0,
        "rows": rows,
    }


def run_basic_understanding(spec: PlayerSpec, items, *, transport=None, workers: int = 1) -> dict:
    """`score_basic_understanding` of a model player's replies to `items`,
    asked through `transport` (HTTP to the spec's endpoint without one), on
    up to `workers` threads (see `_width`); replies keep item order. A
    transport failure is the reply `<transport failure: ...>`, which does not
    parse."""
    transport = transport or HttpChatTransport(spec)

    def ask(item):
        try:
            return transport.complete(build_basic_understanding_prompt(item.fen, item.square)).text
        except TransportError as exc:
            return f"<transport failure: {exc}>"

    return score_basic_understanding(items, fan_out(ask, items, _width(spec, workers)))


# ---------------------------------------------------------------------------
# Single-move prediction shared by move selection and puzzles


def predict_move(
    spec: PlayerSpec,
    board: BoardState,
    history,
    *,
    transport=None,
    handle=None,
    rng: random.Random | None = None,
) -> MoveAttempt:
    """One move by the arena's player for `spec`, with a single attempt;
    random players draw from `rng`."""
    player = make_player(spec, transport=transport, handle=handle, max_attempts=1)
    view = GameView(board, tuple(history or ()), board.side_to_move, rng)
    return player.choose(view).attempts[0]


def _width(spec: PlayerSpec, workers: int) -> int:
    """A model player's items run `workers` at a time (`arena.fan_out`), any
    other player's in order: an engine handle serves one search at a time,
    and the rng stream stays ordered."""
    return workers if spec.kind == LLM_API else 1


# ---------------------------------------------------------------------------
# Move selection


@dataclass(frozen=True)
class MoveSelectionItem:
    fen: str
    history: tuple  # UCI strings as played before fen
    mode: str
    legal_flag: bool
    table: AnalysisTable

    def __post_init__(self):
        expected = {m.uci for m in legal_moves(parse_fen(self.fen))}
        covered = {ev.move.uci for ev in self.table.evals}
        if covered != expected:
            raise ValueError(f"oracle table does not cover the legal moves of {self.fen}")


def run_move_selection(
    spec: PlayerSpec, items, *, transport=None, handle=None, rng=None, workers: int = 1
) -> dict:
    """Legal rate, top-3 rate, and mean relative move advantage (percent).

    An illegal or unparseable prediction scores Q = 0, contributing -100% to
    its item. Items whose average win rate is zero cannot be normalized and
    are excluded from MAR (counted separately). Items for API-backed players
    can run on `workers` threads (see `_width`). A model player is prompted
    in each item's mode, with the legal moves exactly when its `legal_flag`
    is set. Random players draw from `rng`, or from `random.Random(0)`
    without one.
    """
    rng = rng or random.Random(0)

    def ask(item):
        return predict_move(
            replace(spec, play_mode=item.mode, provide_legal_moves=item.legal_flag),
            parse_fen(item.fen), item.history, transport=transport, handle=handle, rng=rng,
        )

    attempts = fan_out(ask, items, _width(spec, workers))

    legal_hits = top_hits = 0
    contributions = []
    zero_awr = 0
    rows = []
    for item, attempt in zip(items, attempts):
        is_legal = attempt.outcome == OK
        legal_hits += is_legal
        q = item.table.q_for(attempt.move) if is_legal else 0.0
        q = 0.0 if q is None else q
        in_top = is_legal and item.table.is_top(attempt.move)
        top_hits += in_top
        awr = item.table.awr
        if awr == 0:
            zero_awr += 1
            mar_term = None
        else:
            mar_term = (q - awr) / awr
            contributions.append(mar_term)
        rows.append(
            {
                "fen": item.fen,
                "outcome": attempt.outcome,
                "move": attempt.move.uci if attempt.move else None,
                "q": q,
                "awr": awr,
                "in_top3": in_top,
                "mar_term": mar_term,
            }
        )
    n = len(items) or 1
    return {
        "lr": 100.0 * legal_hits / n,
        "tr": 100.0 * top_hits / n,
        "mar": 100.0 * sum(contributions) / len(contributions) if contributions else 0.0,
        "zero_awr_items": zero_awr,
        "rows": rows,
    }


def save_move_items(items, path) -> None:
    write_rows(
        path,
        (
            {
                "fen": item.fen,
                "history": list(item.history),
                "mode": item.mode,
                "legal_flag": item.legal_flag,
                "table": table_to_dict(item.table),
            }
            for item in items
        ),
    )


def _utf8_lines(fh, path):
    """The lines of a binary file as text; a line that is not UTF-8 raises
    UserError naming the file and the line."""
    for number, raw in enumerate(fh, 1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UserError(f"{path}:{number}: not UTF-8 text ({exc.reason})") from None


def _move_item(row) -> MoveSelectionItem:
    if not isinstance(row, dict):
        raise TypeError(f"expected a JSON object, got {type(row).__name__}")
    fen, history, mode, legal_flag = row["fen"], row["history"], row["mode"], row["legal_flag"]
    if not (isinstance(fen, str) and isinstance(history, list) and all(isinstance(m, str) for m in history)):
        raise TypeError("fen must be a string and history a list of strings")
    if mode not in PLAY_MODES or not isinstance(legal_flag, bool):
        raise TypeError(f"mode must be one of {PLAY_MODES} and legal_flag a boolean")
    board = BoardState.start()
    ucis = []
    for text in history:  # the moves must replay from the initial position; SAN is kept as UCI
        move = parse_move(text, board)
        if move not in legal_moves(board):
            raise IllegalMoveError(f"{move.uci}: not legal in this position")
        ucis.append(move.uci)
        board = apply_move(board, move)
    if history and board.fen != fen:  # an empty history may stand for any game
        raise ValueError(f"history leads to {board.fen}, not to the item's fen")
    table = table_from_dict(row["table"])
    if not all(isinstance(ev.win_rate, (int, float)) for ev in table.evals):
        raise TypeError("every q in the table must be a number")
    return MoveSelectionItem(fen, tuple(ucis), mode, legal_flag, table)


def load_fens(path) -> list:
    """The FENs of a file with one per line, blank lines skipped. A line that
    is not UTF-8 or not a FEN raises UserError naming the file and the line."""
    path = Path(path)
    fens = []
    with open(path, "rb") as fh:
        for number, line in enumerate(_utf8_lines(fh, path), 1):
            fen = line.strip()
            if not fen:
                continue
            try:
                parse_fen(fen)
            except (ValueError, ChessError) as exc:
                raise UserError(f"{path}:{number}: {exc}") from None
            fens.append(fen)
    return fens


def load_move_items(path) -> list:
    """Read the items `save_move_items` wrote, one JSON object per line.

    A line that is not UTF-8 or not JSON, a missing or mistyped field, a
    history that does not replay or does not reach the item's FEN, a bad
    FEN, or a table that does not cover the legal moves raises UserError
    naming the file and the line.
    """
    path = Path(path)
    items = []
    with open(path, "rb") as fh:
        for number, line in enumerate(_utf8_lines(fh, path), 1):
            if not line.strip():
                continue
            try:
                items.append(_move_item(json.loads(line)))
            except KeyError as exc:
                raise UserError(f"{path}:{number}: missing field {exc}") from None
            except (ValueError, TypeError, ChessError) as exc:
                raise UserError(f"{path}:{number}: {exc}") from None
    return items


# ---------------------------------------------------------------------------
# Puzzles


@dataclass(frozen=True)
class Puzzle:
    puzzle_id: str
    fen: str
    moves: tuple  # full Lichess line; moves[0] is the opponent's setup move
    rating: int
    themes: tuple = ()


@dataclass(frozen=True)
class PuzzleOutcome:
    puzzle_id: str
    rating: int
    solved: bool
    predictions: tuple
    failed_at: int | None = None  # index into moves, if a solver move missed


def load_lichess_puzzles(
    csv_path,
    *,
    min_rating: int | None = None,
    max_rating: int | None = None,
    themes: set | None = None,
    limit: int | None = None,
) -> list:
    """Read the Lichess puzzle CSV, replay-validating each solution line.

    Rows whose solutions do not replay as legal moves are skipped (counted in
    the log); the schema must carry the standard column set. A file that is
    not UTF-8 or not CSV, lacks a column, or has a short row or a rating that
    is not an integer raises UserError naming the file and the line.
    """
    path = Path(csv_path)
    with open(path, "rb") as fh:
        reader = csv.DictReader(_utf8_lines(fh, path))
        try:
            puzzles = _read_puzzle_rows(reader, path, min_rating, max_rating, themes, limit)
        except csv.Error as exc:
            raise UserError(f"{path}:{reader.line_num}: {exc}") from None
    return puzzles


def _read_puzzle_rows(reader, path, min_rating, max_rating, themes, limit) -> list:
    if reader.fieldnames is None:
        raise UserError(f"{path}: empty puzzle file")
    missing = [c for c in _PUZZLE_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise UserError(f"{path}:1: missing columns {missing}")
    puzzles = []
    skipped = 0
    for row in reader:
        where = f"{path}:{reader.line_num}"
        if any(row[c] is None for c in _PUZZLE_COLUMNS):
            raise UserError(f"{where}: row has fewer than {len(reader.fieldnames)} fields")
        try:
            rating = int(row["Rating"])
        except ValueError:
            raise UserError(f"{where}: Rating {row['Rating']!r} is not an integer") from None
        if min_rating is not None and rating < min_rating:
            continue
        if max_rating is not None and rating > max_rating:
            continue
        row_themes = tuple(row["Themes"].split())
        if themes and not themes.intersection(row_themes):
            continue
        moves = tuple(row["Moves"].split())
        if not moves:
            skipped += 1
            continue
        try:
            board = parse_fen(row["FEN"])
            for uci in moves:
                board = apply_move(board, MoveToken.from_uci(uci))
        except (ChessError, ValueError):
            skipped += 1
            continue
        puzzles.append(Puzzle(row["PuzzleId"], row["FEN"], moves, rating, row_themes))
        if limit is not None and len(puzzles) >= limit:
            break
    if skipped:
        log.warning("skipped %d invalid puzzle rows from %s", skipped, path)
    return puzzles


def run_puzzle(
    spec: PlayerSpec, puzzle: Puzzle, *, transport=None, handle=None, rng=None
) -> PuzzleOutcome:
    """Exact-match puzzle protocol.

    The setup move is applied first; the player answers every second move
    with the Blitz/Standard template and a single attempt. Any deviation
    from the recorded line, even an alternate winning move, fails the puzzle.
    Random players draw from `rng`, or from `random.Random(0)` without one.
    """
    rng = rng or random.Random(0)
    board = parse_fen(puzzle.fen)
    board = apply_move(board, MoveToken.from_uci(puzzle.moves[0]))
    predictions = []
    for idx in range(1, len(puzzle.moves)):
        expected = puzzle.moves[idx]
        if idx % 2 == 1:  # solver to move
            attempt = predict_move(
                replace(spec, play_mode=BLITZ), board, [], transport=transport, handle=handle, rng=rng,
            )
            predicted = attempt.move.uci if attempt.move else None
            predictions.append(predicted)
            if predicted != expected:
                return PuzzleOutcome(
                    puzzle.puzzle_id, puzzle.rating, False, tuple(predictions), failed_at=idx
                )
        board = apply_move(board, MoveToken.from_uci(expected))
    return PuzzleOutcome(puzzle.puzzle_id, puzzle.rating, True, tuple(predictions))


def run_puzzles(
    spec: PlayerSpec, puzzles, *, transport=None, handle=None, rng=None, workers: int = 1
) -> list:
    """Run a batch of puzzles; API-backed players may fan out over `workers`
    threads (see `_width`)."""
    rng = rng or random.Random(0)

    def solve(puzzle):
        return run_puzzle(spec, puzzle, transport=transport, handle=handle, rng=rng)

    return fan_out(solve, puzzles, _width(spec, workers))


def bucket_label(rating: int) -> str:
    idx = (rating - PUZZLE_BUCKET_LOW) // PUZZLE_BUCKET_WIDTH
    idx = max(0, min(PUZZLE_BUCKETS - 1, idx))
    low = PUZZLE_BUCKET_LOW + idx * PUZZLE_BUCKET_WIDTH
    return f"{low}-{low + PUZZLE_BUCKET_WIDTH}"


def psa_report(outcomes) -> dict:
    """Puzzle solving accuracy overall and per 400-point rating bucket."""
    per_bucket: dict = {}
    for outcome in outcomes:
        per_bucket.setdefault(bucket_label(outcome.rating), []).append(outcome.solved)
    buckets = {
        label: 100.0 * sum(flags) / len(flags)
        for label, flags in sorted(per_bucket.items(), key=lambda kv: int(kv[0].split("-")[0]))
    }
    total = [o.solved for o in outcomes]
    return {
        "buckets": buckets,
        "counts": {label: len(flags) for label, flags in sorted(per_bucket.items(), key=lambda kv: int(kv[0].split("-")[0]))},
        "overall": 100.0 * sum(total) / len(total) if total else 0.0,
        "n": len(total),
    }


# ---------------------------------------------------------------------------
# Reward scorer


def rl_reward(response: str, fen: str, oracle: AnalysisTable, weights=REWARD_WEIGHTS) -> float:
    """Weighted format/legal/top-move reward for one response.

    Format credit requires the prescribed fenced block inside an <answer>
    element; legality and top-move credit use the full extraction order.
    """
    w_format, w_legal, w_top = weights
    board = parse_fen(fen)
    _candidate, path = extract_candidate(response)
    reward = w_format if path == "answer_block" else 0.0
    attempt = extract_move(response, BLITZ, board)
    if attempt.outcome == OK:
        reward += w_legal
        if oracle.is_top(attempt.move):
            reward += w_top
    return reward


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class EvalReport:
    """Per-item outcomes plus the aggregate block for one evaluation task."""

    task: str  # basic | moves | puzzles
    aggregates: dict
    rows: tuple = dc_field(default_factory=tuple)

    @classmethod
    def basic(cls, scores: dict) -> "EvalReport":
        aggregates = {k: v for k, v in scores.items() if k != "rows"}
        return cls("basic", aggregates, tuple(scores["rows"]))

    @classmethod
    def moves(cls, scores: dict) -> "EvalReport":
        aggregates = {k: v for k, v in scores.items() if k != "rows"}
        return cls("moves", aggregates, tuple(scores["rows"]))

    @classmethod
    def puzzles(cls, outcomes) -> "EvalReport":
        rows = tuple(
            {
                "puzzle_id": o.puzzle_id,
                "rating": o.rating,
                "solved": o.solved,
                "failed_at": o.failed_at,
            }
            for o in outcomes
        )
        return cls("puzzles", psa_report(outcomes), rows)

    def render(self) -> str:
        return render_report_table(self.task, self.aggregates)

    def write_jsonl(self, path) -> None:
        summary = {"type": "summary", "task": self.task, **self.aggregates}
        write_rows(path, [summary, *({"type": "item", **row} for row in self.rows)])


def render_report_table(task: str, aggregates: dict) -> str:
    if task == "basic":
        return (
            "| PMA (%) | Precision (%) | Recall (%) |\n"
            "|---|---|---|\n"
            f"| {aggregates['pma']:.1f} | {aggregates['precision']:.1f} | {aggregates['recall']:.1f} |\n"
        )
    if task == "moves":
        return (
            "| LR (%) | TR (%) | MAR (%) |\n"
            "|---|---|---|\n"
            f"| {aggregates['lr']:.1f} | {aggregates['tr']:.1f} | {aggregates['mar']:+.1f} |\n"
        )
    if task == "puzzles":
        labels = list(aggregates["buckets"]) + ["Overall"]
        values = [f"{aggregates['buckets'][k]:.1f}" for k in aggregates["buckets"]]
        values.append(f"{aggregates['overall']:.1f}")
        return (
            "| " + " | ".join(labels) + " |\n"
            "|" + "---|" * len(labels) + "\n"
            "| " + " | ".join(values) + " |\n"
        )
    raise ValueError(f"unknown task {task!r}")
