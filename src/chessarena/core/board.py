"""Board representation, square geometry and FEN parsing/serialization.

Positions are immutable values: every mutation-style operation returns a new
``BoardState``. Internally the placement is a flat 64-tuple of signed piece
codes (white positive, black negative), indexed a1=0 .. h8=63, rank-major.
Parsing refuses a FEN with a king missing or doubled, a pawn on a back rank,
an en-passant square off its rank or not behind a pawn that just moved two
squares, or a side not to move in check. A state builds its FEN text once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

WHITE = "w"
BLACK = "b"

# Piece kind codes for the internal signed encoding.
PAWN, KNIGHT, BISHOP, ROOK, QUEEN, KING = 1, 2, 3, 4, 5, 6

KIND_TO_CODE = {"p": PAWN, "n": KNIGHT, "b": BISHOP, "r": ROOK, "q": QUEEN, "k": KING}
CODE_TO_KIND = {v: k for k, v in KIND_TO_CODE.items()}

# Castling rights bitmask.
CASTLE_WK, CASTLE_WQ, CASTLE_BK, CASTLE_BQ = 1, 2, 4, 8


class Castling(NamedTuple):
    """One castling move, as square indices: its FEN letter and right bit, the
    king's and the rook's from and to squares, the squares between king and
    rook (which must be empty), and the squares the king crosses and lands on
    (which no enemy may attack). The king's own square needs no test here:
    only a king that is not in check may castle."""

    letter: str
    right: int
    king_from: int
    king_to: int
    rook_from: int
    rook_to: int
    empty: tuple
    safe: tuple


# Every castling decision reads this table. Order: FEN order, which is also
# generation order (each side's kingside first).
CASTLINGS = (
    Castling("K", CASTLE_WK, 4, 6, 7, 5, (5, 6), (5, 6)),
    Castling("Q", CASTLE_WQ, 4, 2, 0, 3, (1, 2, 3), (3, 2)),
    Castling("k", CASTLE_BK, 60, 62, 63, 61, (61, 62), (61, 62)),
    Castling("q", CASTLE_BQ, 60, 58, 56, 59, (57, 58, 59), (59, 58)),
)
# (king_from, king_to) -> (rook_from, rook_to): a king move is castling
# exactly when it is a key here.
CASTLING_ROOK = {(c.king_from, c.king_to): (c.rook_from, c.rook_to) for c in CASTLINGS}

FILE_NAMES = "abcdefgh"
RANK_NAMES = "12345678"
SQUARE_NAMES = tuple(f + r for r in RANK_NAMES for f in FILE_NAMES)

START_FEN = "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1"


# Square geometry and the attack test: move generation reads them, and so
# does FEN validation, which refuses a side not to move that stands in check.
def _build_tables():
    knight, king, rays = [], [], []
    knight_deltas = ((1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2))
    king_deltas = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
    # First four directions orthogonal, last four diagonal (pin/attack logic
    # relies on that split).
    dirs = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (-1, 1), (1, -1))
    for sq in range(64):
        f, r = sq & 7, sq >> 3
        knight.append(
            tuple((r + dr) * 8 + f + df for df, dr in knight_deltas if 0 <= f + df <= 7 and 0 <= r + dr <= 7)
        )
        king.append(
            tuple((r + dr) * 8 + f + df for df, dr in king_deltas if 0 <= f + df <= 7 and 0 <= r + dr <= 7)
        )
        per_dir = []
        for df, dr in dirs:
            ray = []
            nf, nr = f + df, r + dr
            while 0 <= nf <= 7 and 0 <= nr <= 7:
                ray.append(nr * 8 + nf)
                nf += df
                nr += dr
            per_dir.append(tuple(ray))
        rays.append(tuple(per_dir))
    pawn_att_w, pawn_att_b = [], []  # squares holding a pawn that attacks sq
    for sq in range(64):
        f, r = sq & 7, sq >> 3
        pawn_att_w.append(
            tuple((r - 1) * 8 + f + df for df in (-1, 1) if 0 <= f + df <= 7 and r - 1 >= 0)
        )
        pawn_att_b.append(
            tuple((r + 1) * 8 + f + df for df in (-1, 1) if 0 <= f + df <= 7 and r + 1 <= 7)
        )
    return tuple(knight), tuple(king), tuple(rays), tuple(pawn_att_w), tuple(pawn_att_b)


KNIGHT_TABLE, KING_TABLE, RAYS, PAWN_ATTACKERS_W, PAWN_ATTACKERS_B = _build_tables()


def _attacked(board, sq: int, by: int, ignore: int = -1) -> bool:
    """Is sq attacked by side `by`? `ignore` is treated as empty (king lifts)."""
    pawn_from = PAWN_ATTACKERS_W[sq] if by > 0 else PAWN_ATTACKERS_B[sq]
    pawn = PAWN * by
    for p in pawn_from:
        if board[p] == pawn:
            return True
    knight = KNIGHT * by
    for p in KNIGHT_TABLE[sq]:
        if board[p] == knight:
            return True
    king = KING * by
    for p in KING_TABLE[sq]:
        if board[p] == king:
            return True
    rook, bishop, queen = ROOK * by, BISHOP * by, QUEEN * by
    rays = RAYS[sq]
    for d in range(4):
        for p in rays[d]:
            code = board[p]
            if code == 0 or p == ignore:
                continue
            if code == rook or code == queen:
                return True
            break
    for d in range(4, 8):
        for p in rays[d]:
            code = board[p]
            if code == 0 or p == ignore:
                continue
            if code == bishop or code == queen:
                return True
            break
    return False


class ChessError(Exception):
    """Base error for the rules kernel."""


class FenError(ChessError):
    """Raised for malformed or invariant-violating FEN text."""


@dataclass(frozen=True)
class Square:
    """A board square addressed by 0-based file (a=0) and rank (1st=0)."""

    file: int
    rank: int

    def __post_init__(self):
        if not (0 <= self.file <= 7 and 0 <= self.rank <= 7):
            raise ValueError(f"square off the board: file={self.file} rank={self.rank}")

    @classmethod
    def from_name(cls, name: str) -> "Square":
        if len(name) != 2 or name[0] not in FILE_NAMES or name[1] not in RANK_NAMES:
            raise ValueError(f"bad square name: {name!r}")
        return cls(FILE_NAMES.index(name[0]), RANK_NAMES.index(name[1]))

    @classmethod
    def from_index(cls, index: int) -> "Square":
        if not 0 <= index <= 63:
            raise ValueError(f"bad square index: {index}")
        return cls(index & 7, index >> 3)

    @property
    def index(self) -> int:
        return self.rank * 8 + self.file

    @property
    def name(self) -> str:
        return SQUARE_NAMES[self.index]

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Piece:
    """A piece kind ('p','n','b','r','q','k') plus color ('w' or 'b')."""

    kind: str
    color: str

    def __post_init__(self):
        if self.kind not in KIND_TO_CODE:
            raise ValueError(f"bad piece kind: {self.kind!r}")
        if self.color not in (WHITE, BLACK):
            raise ValueError(f"bad color: {self.color!r}")

    @classmethod
    def from_symbol(cls, symbol: str) -> "Piece":
        kind = symbol.lower()
        if kind not in KIND_TO_CODE:
            raise ValueError(f"bad piece symbol: {symbol!r}")
        return cls(kind, WHITE if symbol.isupper() else BLACK)

    @classmethod
    def from_code(cls, code: int) -> "Piece":
        return cls(CODE_TO_KIND[abs(code)], WHITE if code > 0 else BLACK)

    @property
    def symbol(self) -> str:
        return self.kind.upper() if self.color == WHITE else self.kind

    @property
    def code(self) -> int:
        c = KIND_TO_CODE[self.kind]
        return c if self.color == WHITE else -c


@dataclass(frozen=True)
class BoardState:
    """Full game position: placement, side to move, castling, en passant, clocks."""

    board: tuple
    turn: int  # +1 white to move, -1 black
    castling: int  # CASTLE_* bitmask
    ep: int | None  # en-passant target square index, if any
    halfmove_clock: int
    fullmove_number: int

    @classmethod
    def start(cls) -> "BoardState":
        return parse_fen(START_FEN)

    @property
    def side_to_move(self) -> str:
        return WHITE if self.turn > 0 else BLACK

    @property
    def castling_rights(self) -> str:
        return "".join(c.letter for c in CASTLINGS if self.castling & c.right) or "-"

    @property
    def en_passant(self) -> Square | None:
        return None if self.ep is None else Square.from_index(self.ep)

    @property
    def placement(self) -> tuple:
        """8x8 grid of optional Piece, indexed [rank][file] with rank 0 = rank 1."""
        return tuple(
            tuple(Piece.from_code(c) if c else None for c in self.board[r * 8 : r * 8 + 8])
            for r in range(8)
        )

    def piece_at(self, square) -> Piece | None:
        idx = _square_index(square)
        code = self.board[idx]
        return Piece.from_code(code) if code else None

    @property
    def fen(self) -> str:
        """Built once per state and kept in its __dict__, like its legal moves."""
        fen = self.__dict__.get("_fen")
        if fen is None:
            fen = self.__dict__["_fen"] = serialize_fen(self)
        return fen

    def __repr__(self) -> str:
        return f"BoardState({self.fen!r})"


def _square_index(square) -> int:
    if isinstance(square, Square):
        return square.index
    if isinstance(square, str):
        return Square.from_name(square).index
    if isinstance(square, int):
        if not 0 <= square <= 63:
            raise ValueError(f"bad square index: {square}")
        return square
    raise TypeError(f"not a square: {square!r}")


def parse_fen(text: str) -> BoardState:
    """Parse a six-field FEN string into a validated BoardState."""
    fields = text.split()
    if len(fields) != 6:
        raise FenError(f"expected 6 space-delimited fields, got {len(fields)}")
    placement, active, castling, ep_field, halfmove, fullmove = fields

    ranks = placement.split("/")
    if len(ranks) != 8:
        raise FenError(f"expected 8 ranks, got {len(ranks)}")
    board = [0] * 64
    for rank_idx, row in enumerate(ranks):
        first = (7 - rank_idx) * 8  # FEN lists rank 8 first
        file = 0
        for ch in row:
            code = _SYMBOL_CODE.get(ch)
            if code is not None and file < 8:
                board[first + file] = code
                file += 1
            elif ch in "12345678":
                file += int(ch)
            elif ch.isdigit():
                raise FenError(f"bad skip count {ch!r} in rank {8 - rank_idx}")
            elif file > 7:
                raise FenError(f"rank {8 - rank_idx} has more than 8 squares")
            else:
                raise FenError(f"invalid piece symbol {ch!r}")
        if file != 8:
            raise FenError(f"rank {8 - rank_idx} has {file} squares, expected 8")

    if active == "w":
        turn = 1
    elif active == "b":
        turn = -1
    else:
        raise FenError(f"invalid active-color field {active!r}")

    rights = 0
    if castling != "-":
        for ch in castling:
            bit = next((c.right for c in CASTLINGS if c.letter == ch), 0)
            if not bit:
                raise FenError(f"invalid castling token {ch!r}")
            if rights & bit:
                raise FenError(f"duplicate castling token {ch!r}")
            rights |= bit
    for c in CASTLINGS:  # a right whose king or rook is off its home square can never be used
        sign = 1 if c.letter.isupper() else -1
        if board[c.king_from] != sign * KING or board[c.rook_from] != sign * ROOK:
            rights &= ~c.right

    ep = None
    if ep_field != "-":
        try:
            ep = Square.from_name(ep_field).index
        except ValueError:
            raise FenError(f"invalid en-passant field {ep_field!r}") from None

    try:
        halfmove_clock = int(halfmove)
        fullmove_number = int(fullmove)
    except ValueError:
        raise FenError("clock fields must be integers") from None
    if halfmove_clock < 0:
        raise FenError(f"negative halfmove clock {halfmove_clock}")
    if fullmove_number < 1:
        raise FenError(f"fullmove number must be positive, got {fullmove_number}")

    state = BoardState(tuple(board), turn, rights, ep, halfmove_clock, fullmove_number)
    _validate(state)
    return state


def _validate(state: BoardState) -> None:
    board = state.board
    if board.count(KING) != 1 or board.count(-KING) != 1:
        raise FenError("position must contain exactly one king per color")
    for idx in range(8):
        if abs(board[idx]) == PAWN or abs(board[56 + idx]) == PAWN:
            raise FenError("pawns may not stand on rank 1 or rank 8")
    if state.ep is not None:
        rank = state.ep >> 3
        # The target sits behind a pawn that just double-pushed, so it is on
        # rank 6 when white is to move and rank 3 when black is.
        if state.turn > 0 and rank != 5:
            raise FenError("en-passant square must be on rank 6 with white to move")
        if state.turn < 0 and rank != 2:
            raise FenError("en-passant square must be on rank 3 with black to move")
        # The pushed pawn stands ahead of the target; the target and the
        # pawn's start square behind it are empty.
        ahead, start = state.ep - 8 * state.turn, state.ep + 8 * state.turn
        if board[ahead] != -PAWN * state.turn or board[state.ep] or board[start]:
            raise FenError(f"en-passant square {SQUARE_NAMES[state.ep]} is not behind a pawn that just moved two squares")
    if _attacked(board, board.index(-KING * state.turn), state.turn):
        raise FenError("the side not to move is in check")


# FEN letter of each piece code; an empty square is "1" until runs collapse.
_FEN_SYMBOL = {code: Piece.from_code(code).symbol if code else "1" for code in range(-KING, KING + 1)}
_SYMBOL_CODE = {symbol: code for code, symbol in _FEN_SYMBOL.items() if code}
_EMPTY_RUNS = tuple(("1" * n, str(n)) for n in range(8, 1, -1))  # longest first


def serialize_fen(state: BoardState) -> str:
    """Serialize to canonical FEN; inverse of parse_fen on canonical input."""
    squares = "".join(map(_FEN_SYMBOL.__getitem__, state.board))  # a1 .. h8
    placement = "/".join(squares[start : start + 8] for start in range(56, -1, -8))
    for run, digit in _EMPTY_RUNS:  # "/" keeps runs within a rank
        placement = placement.replace(run, digit)
    ep = "-" if state.ep is None else SQUARE_NAMES[state.ep]
    return " ".join(
        [
            placement,
            state.side_to_move,
            state.castling_rights,
            ep,
            str(state.halfmove_clock),
            str(state.fullmove_number),
        ]
    )
