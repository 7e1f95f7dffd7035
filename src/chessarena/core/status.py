"""Game termination detection and repetition tracking."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .board import BISHOP, BLACK, KING, KNIGHT, PAWN, BoardState, WHITE
from .moves import is_check, legal_moves

CHECKMATE = "checkmate"
FORFEIT = "forfeit"
STALEMATE = "stalemate"
INSUFFICIENT_MATERIAL = "insufficient_material"
FIVEFOLD_REPETITION = "fivefold_repetition"
SEVENTY_FIVE_MOVE_RULE = "seventy_five_move_rule"
MOVE_LIMIT = "move_limit"

_DECISIVE = (CHECKMATE, FORFEIT)
ALL_REASONS = _DECISIVE + (
    STALEMATE,
    INSUFFICIENT_MATERIAL,
    FIVEFOLD_REPETITION,
    SEVENTY_FIVE_MOVE_RULE,
    MOVE_LIMIT,
)

DEFAULT_PLY_CAP = 400  # 200 full moves


@dataclass(frozen=True)
class Termination:
    """Why a game ended; decisive reasons carry the winning color."""

    reason: str
    winner: str | None = None

    def __post_init__(self):
        if self.reason not in ALL_REASONS:
            raise ValueError(f"unknown termination reason: {self.reason!r}")
        if self.reason in _DECISIVE:
            if self.winner not in (WHITE, BLACK):
                raise ValueError(f"{self.reason} requires a winning color")
        elif self.winner is not None:
            raise ValueError(f"{self.reason} is a draw and cannot carry a winner")

    @property
    def is_draw(self) -> bool:
        return self.winner is None

    @property
    def score_for_white(self) -> float:
        if self.winner is None:
            return 0.5
        return 1.0 if self.winner == WHITE else 0.0


def _ep_capture_legal(state: BoardState) -> bool:
    if state.ep is None:
        return False
    us = state.turn
    for frm, to, _promo in legal_moves(state):
        if to == state.ep and state.board[frm] == PAWN * us and (frm & 7) != (to & 7):
            return True
    return False


def repetition_key(state: BoardState) -> tuple:
    """Placement + side + castling + usable en-passant right, for repetitions."""
    ep = state.ep if _ep_capture_legal(state) else None
    return (state.board, state.turn, state.castling, ep)


@dataclass(frozen=True)
class PositionHistory:
    """Repetition keys of every position seen, initial position included."""

    keys: tuple

    @classmethod
    def start(cls, state: BoardState) -> "PositionHistory":
        return cls((repetition_key(state),))

    def push(self, state: BoardState) -> "PositionHistory":
        return PositionHistory(self.keys + (repetition_key(state),))

    def max_repetition(self) -> int:
        return max(Counter(self.keys).values())


def _insufficient_material(state: BoardState) -> bool:
    """FIDE dead-position pairs: K vs K, K+B vs K, K+N vs K, and K+B vs K+B
    with both bishops on the same square color."""
    others = []
    for sq, code in enumerate(state.board):
        kind = abs(code)
        if kind in (0, KING):
            continue
        if kind in (PAWN,):
            return False
        others.append((sq, code))
        if len(others) > 2:
            return False
    if not others:
        return True
    if len(others) == 1:
        return abs(others[0][1]) in (BISHOP, KNIGHT)
    (sq_a, code_a), (sq_b, code_b) = others
    if abs(code_a) != BISHOP or abs(code_b) != BISHOP:
        return False
    if code_a * code_b > 0:  # both bishops on one side: not in the fixed list
        return False
    shade = lambda sq: ((sq >> 3) + (sq & 7)) & 1
    return shade(sq_a) == shade(sq_b)


def game_status(
    state: BoardState, history: PositionHistory, ply_cap: int = DEFAULT_PLY_CAP
) -> Termination | None:
    """Terminal state of the position, or None while the game is ongoing.

    Repetition and move-count draws apply automatically, with no claim step.
    """
    if not legal_moves(state):
        if is_check(state):
            winner = BLACK if state.turn > 0 else WHITE
            return Termination(CHECKMATE, winner)
        return Termination(STALEMATE)
    if _insufficient_material(state):
        return Termination(INSUFFICIENT_MATERIAL)
    if history.max_repetition() >= 5:
        return Termination(FIVEFOLD_REPETITION)
    if state.halfmove_clock >= 150:
        return Termination(SEVENTY_FIVE_MOVE_RULE)
    if state.fullmove_number > ply_cap / 2:
        return Termination(MOVE_LIMIT)
    return None
