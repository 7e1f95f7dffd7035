"""Legal move generation, move application, UCI/SAN parsing and rendering.

Generation computes checkers and absolute pins up front and emits only legal
moves; en-passant captures, whose discovered-check geometry is awkward, are
validated by making the move and testing the king. A move is a (from, to,
promotion) triple of square indices and an optional promotion letter. The hot
paths (generation, perft, status checks) use plain tuples; the public API
wraps them in MoveToken, a named tuple with the same fields, so a token
equals and hashes like its raw triple whatever text it was parsed from.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .board import (
    BISHOP,
    CODE_TO_KIND,
    ChessError,
    FILE_NAMES,
    KING,
    KNIGHT,
    KIND_TO_CODE,
    PAWN,
    QUEEN,
    RANK_NAMES,
    ROOK,
    SQUARE_NAMES,
    CASTLING_ROOK,
    CASTLINGS,
    BoardState,
    KING_TABLE,
    KNIGHT_TABLE,
    PAWN_ATTACKERS_B,
    PAWN_ATTACKERS_W,
    RAYS,
    _attacked,
    _square_index,
)


class MoveParseError(ChessError):
    """Move text that cannot be interpreted at all."""


class AmbiguousSanError(MoveParseError):
    """SAN that matches more than one legal move."""


class UnmatchedSanError(MoveParseError):
    """Well-formed SAN that matches no legal move in the position."""


class IllegalMoveError(ChessError):
    """A well-formed move that is not legal in the position."""


class MoveToken(NamedTuple):
    """A move as square indices (a1=0 .. h8=63) plus an optional promotion
    letter ('q', 'r', 'b' or 'n')."""

    from_index: int
    to_index: int
    promotion: str | None = None

    @property
    def uci(self) -> str:
        return SQUARE_NAMES[self.from_index] + SQUARE_NAMES[self.to_index] + (self.promotion or "")

    @classmethod
    def from_uci(cls, text: str) -> "MoveToken":
        m = _UCI_RE.match(text)
        if not m:
            raise MoveParseError(f"not a UCI move: {text!r}")
        return cls(_INDEX_OF[m[1]], _INDEX_OF[m[2]], m[3])


_INDEX_OF = {name: i for i, name in enumerate(SQUARE_NAMES)}
_UCI_RE = re.compile(r"^([a-h][1-8])([a-h][1-8])([nbrq])?$")
_SAN_RE = re.compile(
    r"^([NBRQK])?([a-h])?([1-8])?(x)?([a-h][1-8])(?:=?([NBRQ]))?([+#])?$"
)
_CASTLE_RE = re.compile(r"^(O-O-O|O-O|0-0-0|0-0)([+#])?$")

_PROMO_KINDS = ("q", "r", "b", "n")

# UCI text sorts by square name, file first (a1 < a2 < ... < b1), then no
# promotion before "b" < "n" < "q" < "r"; these integers sort the same way.
_SQUARE_ORDER = tuple((sq & 7) * 8 + (sq >> 3) for sq in range(64))
_FROM_TO_ORDER = tuple(_SQUARE_ORDER[frm] << 9 | _SQUARE_ORDER[to] << 3 for frm in range(64) for to in range(64))
_PROMO_ORDER = {None: 0, "b": 1, "n": 2, "q": 3, "r": 4}


def _uci_order(move) -> int:
    """Sort key of a (from, to, promotion) triple that orders moves as their
    UCI text does, without building the text."""
    return _FROM_TO_ORDER[move[0] << 6 | move[1]] | _PROMO_ORDER[move[2]]


def is_check(state: BoardState) -> bool:
    """True if the side to move is in check."""
    king_sq = state.board.index(KING * state.turn)
    return _attacked(state.board, king_sq, -state.turn)


def _checkers_and_pins(board, king_sq: int, us: int):
    """Return (checker squares, block mask or None, {pinned sq: allowed set})."""
    them = -us
    checkers = []
    slider_paths = {}
    pinned = {}
    pawn_from = PAWN_ATTACKERS_W[king_sq] if them > 0 else PAWN_ATTACKERS_B[king_sq]
    for p in pawn_from:
        if board[p] == PAWN * them:
            checkers.append(p)
    for p in KNIGHT_TABLE[king_sq]:
        if board[p] == KNIGHT * them:
            checkers.append(p)
    rook, bishop, queen = ROOK * them, BISHOP * them, QUEEN * them
    rays = RAYS[king_sq]
    for d in range(8):
        slider = bishop if d >= 4 else rook
        shield = None
        path = []
        for p in rays[d]:
            code = board[p]
            path.append(p)
            if code == 0:
                continue
            if shield is None:
                if code == slider or code == queen:
                    checkers.append(p)
                    slider_paths[p] = frozenset(path)
                elif code * us > 0:
                    shield = p
                    continue
                break  # any blocking piece ends the ray
            else:
                if code == slider or code == queen:
                    pinned[shield] = frozenset(path)
                break
    block = None
    if len(checkers) == 1:
        # Single check: interpose on the slider's path or capture the checker.
        c = checkers[0]
        block = slider_paths.get(c, frozenset((c,)))
    return checkers, block, pinned


def _raw_apply(state: BoardState, frm: int, to: int, promo: str | None) -> BoardState:
    """Apply a pseudo-legal raw move without legality checks."""
    board = list(state.board)
    us = state.turn
    moving = board[frm]
    captured = board[to]
    ep = None
    kind = moving * us  # positive kind code
    if kind == PAWN:
        if to == state.ep and captured == 0 and (to & 7) != (frm & 7):
            board[to - 8 * us] = 0  # pawn taken en passant
            captured = PAWN  # counts as a capture for the clock
        elif abs(to - frm) == 16:
            ep = frm + 8 * us
        if promo:
            moving = KIND_TO_CODE[promo] * us
    elif kind == KING and (frm, to) in CASTLING_ROOK:
        rook_from, rook_to = CASTLING_ROOK[frm, to]
        board[rook_to] = board[rook_from]
        board[rook_from] = 0
    board[to] = moving
    board[frm] = 0
    castling = state.castling & _RIGHTS_MASK[frm] & _RIGHTS_MASK[to]
    halfmove = 0 if (kind == PAWN or captured != 0) else state.halfmove_clock + 1
    fullmove = state.fullmove_number + (1 if us < 0 else 0)
    return BoardState(tuple(board), -us, castling, ep, halfmove, fullmove)


# Per square: the rights a move from or to it keeps. A right goes when its
# king or its rook moves, or when the rook is captured at home.
_RIGHTS_MASK = tuple(
    ~sum(c.right for c in CASTLINGS if sq in (c.king_from, c.rook_from)) for sq in range(64)
)
_CASTLINGS_OF = {1: CASTLINGS[:2], -1: CASTLINGS[2:]}  # kingside first


def _iter_legal_moves(state: BoardState):
    """Yield the legal moves as (from, to, promotion-or-None) triples, unsorted.

    King steps come first: each needs only an attack test, so a caller that
    stops at the first move (is the side to move stuck?) usually pays for a
    few of those and never for the checker and pin scan.
    """
    board = state.board
    us = state.turn
    them = -us
    king_sq = board.index(KING * us)

    for to in KING_TABLE[king_sq]:
        if board[to] * us > 0:
            continue
        if not _attacked(board, to, them, ignore=king_sq):
            yield (king_sq, to, None)

    checkers, block, pinned = _checkers_and_pins(board, king_sq, us)
    if len(checkers) >= 2:
        return

    mask = block  # None means unrestricted

    fwd = 8 * us
    start_rank = 1 if us > 0 else 6
    promo_rank = 7 if us > 0 else 0
    ep = state.ep
    for frm in range(64):
        code = board[frm]
        if code * us <= 0 or frm == king_sq:
            continue
        kind = code * us
        allowed = pinned.get(frm)
        if kind == PAWN:
            one = frm + fwd
            targets = []
            if board[one] == 0:
                targets.append(one)
                two = one + fwd
                if (frm >> 3) == start_rank and board[two] == 0:
                    targets.append(two)
            caps = PAWN_ATTACKERS_B[frm] if us > 0 else PAWN_ATTACKERS_W[frm]
            # The attacker tables are symmetric: squares a pawn on frm attacks.
            for to in caps:
                if board[to] * us < 0:
                    targets.append(to)
                elif to == ep and ep is not None:
                    nxt = _raw_apply(state, frm, to, None)
                    if not _attacked(nxt.board, nxt.board.index(KING * us), them):
                        yield (frm, to, None)
            for to in targets:
                if allowed is not None and to not in allowed:
                    continue
                if mask is not None and to not in mask:
                    continue
                if (to >> 3) == promo_rank:
                    for promo in _PROMO_KINDS:
                        yield (frm, to, promo)
                else:
                    yield (frm, to, None)
        elif kind == KNIGHT:
            if allowed is not None:
                continue  # a pinned knight can never move
            for to in KNIGHT_TABLE[frm]:
                if board[to] * us > 0:
                    continue
                if mask is not None and to not in mask:
                    continue
                yield (frm, to, None)
        else:
            dir_range = range(4, 8) if kind == BISHOP else range(4) if kind == ROOK else range(8)
            rays = RAYS[frm]
            for d in dir_range:
                for to in rays[d]:
                    occupied = board[to]
                    if occupied * us > 0:
                        break
                    ok = (allowed is None or to in allowed) and (mask is None or to in mask)
                    if ok:
                        yield (frm, to, None)
                    if occupied != 0:
                        break

    if not checkers:
        rook = ROOK * us
        for c in _CASTLINGS_OF[us]:
            if (
                state.castling & c.right
                and king_sq == c.king_from
                and board[c.rook_from] == rook
                and not any(map(board.__getitem__, c.empty))
            ):
                for sq in c.safe:
                    if _attacked(board, sq, them):
                        break
                else:  # no square attacked
                    yield (c.king_from, c.king_to, None)


def _raw_legal_moves(state: BoardState) -> list:
    """All legal moves as (from, to, promotion-or-None) triples, unsorted."""
    return list(_iter_legal_moves(state))


def legal_moves(state: BoardState) -> list:
    """All legal moves, sorted lexicographically by UCI string.

    Generated once per state and kept in its __dict__, which the dataclass
    eq, hash and repr never read; the state is immutable, so later calls
    return the same list, and callers must not change it.
    """
    moves = state.__dict__.get("_legal_moves")
    if moves is None:
        moves = [MoveToken._make(raw) for raw in _raw_legal_moves(state)]
        moves.sort(key=_uci_order)
        moves = state.__dict__.setdefault("_legal_moves", moves)
    return moves


def legal_moves_for_square(state: BoardState, square):
    """Piece on the square (if any) and the legal moves starting there.

    Moves are empty when the square is empty or holds a piece of the side not
    to move; the piece itself is still reported.
    """
    idx = _square_index(square)
    piece = state.piece_at(idx)
    if piece is None or piece.color != state.side_to_move:
        return piece, []
    return piece, [mv for mv in legal_moves(state) if mv.from_index == idx]


def apply_move(state: BoardState, move: MoveToken) -> BoardState:
    """Apply a legal move; raises IllegalMoveError otherwise."""
    if move not in legal_moves(state):
        frm = move.from_index
        code = state.board[frm]
        if code == 0:
            reason = f"no piece on {SQUARE_NAMES[frm]}"
        elif code * state.turn < 0:
            reason = f"piece on {SQUARE_NAMES[frm]} belongs to the opponent"
        else:
            reason = "move is not legal in this position"
        raise IllegalMoveError(f"{move.uci}: {reason}")
    return _raw_apply(state, *move)


def perft(state: BoardState, depth: int) -> int:
    """Count leaf nodes of the legal-move tree at exactly `depth`."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth == 0:
        return 1
    raw = _raw_legal_moves(state)
    if depth == 1:
        return len(raw)
    return sum(perft(_raw_apply(state, *m), depth - 1) for m in raw)


def parse_move(text: str, state: BoardState) -> MoveToken:
    """Interpret move text: UCI first, then SAN against the board.

    UCI parses without consulting the position (legality is the caller's
    concern); SAN is resolved against the legal moves. Model output is noisy,
    so surrounding punctuation, backticks and stray case are tolerated.
    """
    cleaned = text.strip().strip("`'\"*.,;:!?()[]{}<>").strip()
    if not cleaned:
        raise MoveParseError("empty move text")
    lowered = cleaned.lower()
    if _UCI_RE.match(lowered):
        return MoveToken.from_uci(lowered)
    return _parse_san(cleaned, state, original=text)


def _parse_san(text: str, state: BoardState, original: str = "") -> MoveToken:
    shown = original or text
    castle = _CASTLE_RE.match(text)
    legal = legal_moves(state)
    if castle:
        kingside = castle.group(1) in ("O-O", "0-0")
        row = _CASTLINGS_OF[state.turn][0 if kingside else 1]
        castling = MoveToken(row.king_from, row.king_to)
        if castling in legal:
            return castling
        raise UnmatchedSanError(f"castling not legal here: {text!r}")
    m = _SAN_RE.match(text)
    if not m:
        raise MoveParseError(f"cannot interpret move text: {shown!r}")
    piece_letter, dis_file, dis_rank, _capture, target, promo, _suffix = m.groups()
    kind = (piece_letter or "P").lower()
    to_idx = _INDEX_OF[target]
    want_promo = promo.lower() if promo else None
    matches = []
    for frm, to, promotion in legal:
        if state.board[frm] * state.turn != KIND_TO_CODE[kind]:
            continue
        if to != to_idx:
            continue
        if promotion != want_promo:
            continue
        if kind == "k" and (frm, to) in CASTLING_ROOK:
            continue  # castling is only written O-O / O-O-O
        if dis_file and (frm & 7) != FILE_NAMES.index(dis_file):
            continue
        if dis_rank and (frm >> 3) != RANK_NAMES.index(dis_rank):
            continue
        matches.append(MoveToken(frm, to, promotion))
    if not matches:
        raise UnmatchedSanError(f"no legal move matches SAN {shown!r}")
    if len(matches) > 1:
        raise AmbiguousSanError(f"SAN {shown!r} matches {len(matches)} moves")
    return matches[0]


def move_to_san(state: BoardState, move: MoveToken) -> str:
    """Minimal unambiguous SAN for a legal move, with +/# suffix."""
    legal = legal_moves(state)
    if move not in legal:
        raise IllegalMoveError(f"{move.uci}: not legal in this position")
    frm, to, promo = move
    code = state.board[frm]
    kind = code * state.turn
    from_file, to_file = frm & 7, to & 7
    is_capture = state.board[to] != 0 or (kind == PAWN and state.ep == to and from_file != to_file)

    if kind == KING and (frm, to) in CASTLING_ROOK:
        core = "O-O" if to_file > from_file else "O-O-O"
    elif kind == PAWN:
        core = ""
        if is_capture:
            core += FILE_NAMES[from_file] + "x"
        core += SQUARE_NAMES[to]
        if promo:
            core += "=" + promo.upper()
    else:
        letter = CODE_TO_KIND[kind].upper()
        rivals = [f for f, t, _ in legal if t == to and f != frm and state.board[f] == code]
        dis = ""
        if rivals:
            same_file = any((f & 7) == from_file for f in rivals)
            same_rank = any((f >> 3) == (frm >> 3) for f in rivals)
            if not same_file:
                dis = FILE_NAMES[from_file]
            elif not same_rank:
                dis = RANK_NAMES[frm >> 3]
            else:
                dis = SQUARE_NAMES[frm]
        core = letter + dis + ("x" if is_capture else "") + SQUARE_NAMES[to]

    after = _raw_apply(state, frm, to, promo)
    if is_check(after):
        core += "#" if not _raw_legal_moves(after) else "+"
    return core
