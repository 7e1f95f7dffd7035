"""A tiny deterministic UCI engine: material counting plus a forced-mate scan.

Run with ``python -m chessarena.toy_engine``. It exists so the engine bridge,
annotation pipeline and puzzle harness can be exercised without an external
engine binary. It plays weak chess but finds forced mates in one, and mates
in two whose key move gives check, which is all the bundled puzzle corpus
requires. Output is fully deterministic for a given position and depth.

The search does only the work its answers need: "is the side to move stuck?"
stops at the first legal reply, check is tested before any reply is
generated, full reply lists are built only for the mate-in-two scan, whose
mate-in-one probe plays only moves that could give check, and material is
the position's balance plus what each move captures or promotes. At MultiPV 1
it looks for the best move alone and scores the others only as far as that
decides it. Each answer leaves in one write.
"""

from __future__ import annotations

import sys

from .core import (
    BoardState,
    MoveToken,
    is_check,
    legal_moves,
    parse_fen,
    START_FEN,
)
from .core.board import BISHOP, CASTLING_ROOK, KING, KIND_TO_CODE, KNIGHT, PAWN, QUEEN, ROOK
from .core.moves import (
    KNIGHT_TABLE,
    PAWN_ATTACKERS_B,
    PAWN_ATTACKERS_W,
    RAYS,
    _iter_legal_moves,
    _raw_apply,
    _raw_legal_moves,
)

PIECE_VALUES = {1: 100, 2: 300, 3: 310, 4: 500, 5: 900, 6: 0}

MATE_SCAN_MIN_DEPTH = 3  # "go depth" threshold that enables the mate-in-2 scan

# Per square: the squares from which a piece of each kind could attack it on
# an empty board, and every square on a line through it.
_LINES = tuple(frozenset(sq for ray in rays for sq in ray) for rays in RAYS)
_REACH = {
    KNIGHT: tuple(frozenset(table) for table in KNIGHT_TABLE),
    BISHOP: tuple(frozenset(sq for ray in rays[4:] for sq in ray) for rays in RAYS),
    ROOK: tuple(frozenset(sq for ray in rays[:4] for sq in ray) for rays in RAYS),
    QUEEN: _LINES,
}


def material_balance(state: BoardState, pov: int) -> int:
    total = 0
    for code in state.board:
        if code:
            total += PIECE_VALUES[abs(code)] * (1 if code * pov > 0 else -1)
    return total


def _material_gain(state: BoardState, frm: int, to: int, promo: str | None) -> int:
    """How much the move changes the mover's material balance."""
    captured = state.board[to]
    if captured:
        gain = PIECE_VALUES[abs(captured)]
    elif to == state.ep and abs(state.board[frm]) == PAWN and (to & 7) != (frm & 7):
        gain = PIECE_VALUES[PAWN]  # the pawn taken en passant
    else:
        gain = 0
    if promo:
        gain += PIECE_VALUES[KIND_TO_CODE[promo]] - PIECE_VALUES[PAWN]
    return gain


def _stuck(state: BoardState) -> bool:
    """True if the side to move has no legal move: mate or stalemate."""
    return next(_iter_legal_moves(state), None) is None


def _is_mate(state: BoardState) -> bool:
    return is_check(state) and _stuck(state)


def _may_give_check(state: BoardState, king_sq: int, frm: int, to: int, promo: str | None) -> bool:
    """False only when the move cannot check the enemy king on `king_sq`: the
    piece lands nowhere it could attack the king from, even on an empty board,
    and leaves no line to the king that a discovered check could open."""
    if frm in _LINES[king_sq]:
        return True
    kind = KIND_TO_CODE[promo] if promo else abs(state.board[frm])
    if kind == PAWN:
        attackers = PAWN_ATTACKERS_W if state.turn > 0 else PAWN_ATTACKERS_B
        return to == state.ep or to in attackers[king_sq]  # en passant clears a second square
    if kind == KING:
        return (frm, to) in CASTLING_ROOK  # castling: the rook may give check
    return to in _REACH[kind][king_sq]


def _has_mate_in_one(state: BoardState) -> bool:
    king_sq = state.board.index(-KING * state.turn)
    for raw in _iter_legal_moves(state):
        if _may_give_check(state, king_sq, *raw) and _is_mate(_raw_apply(state, *raw)):
            return True
    return False


def _forces_mate_in_two(after_key: BoardState, replies) -> bool:
    """True if every reply to the key move allows mate on the next move.
    `replies` are the (non-empty) legal moves of `after_key`."""
    for raw in replies:
        if not _has_mate_in_one(_raw_apply(after_key, *raw)):
            return False
    return True


def score_moves(state: BoardState, depth: int) -> list:
    """(uci, kind, value) per legal move, from the mover's perspective."""
    balance = material_balance(state, state.turn)
    scan = depth >= MATE_SCAN_MIN_DEPTH
    scored = []
    for mv in legal_moves(state):
        after = _raw_apply(state, *mv)
        check = is_check(after)
        if check and scan:
            replies = _raw_legal_moves(after)
            if replies and _forces_mate_in_two(after, replies):
                scored.append((mv.uci, "mate", 2))
                continue
            stuck = not replies
        else:
            stuck = _stuck(after)
        if stuck:  # mate, or stalemate
            scored.append((mv.uci, "mate", 1) if check else (mv.uci, "cp", 0))
        else:
            scored.append((mv.uci, "cp", balance + _material_gain(state, *mv)))
    return scored


def _order_key(entry):
    uci, kind, value = entry
    raw = (1_000_000 - value) if kind == "mate" else value
    return (-raw, uci)


def best_scored(state: BoardState, depth: int):
    """The first entry of `sorted(score_moves(state, depth), key=_order_key)`,
    or None when there is no legal move, scoring only what decides it: mates
    in one among the moves that may give check, then (at the scan depth)
    mates in two among the checks, then material, testing for stalemate
    (which scores cp 0) only while it could change the answer."""
    moves = legal_moves(state)  # UCI order: the tie-break
    if not moves:
        return None
    king_sq = state.board.index(-KING * state.turn)
    checks = {}
    for mv in moves:
        if _may_give_check(state, king_sq, *mv):
            after = _raw_apply(state, *mv)
            if is_check(after):
                if _stuck(after):
                    return (mv.uci, "mate", 1)
                checks[mv] = after
    if depth >= MATE_SCAN_MIN_DEPTH:
        for mv, after in checks.items():
            if _forces_mate_in_two(after, _raw_legal_moves(after)):
                return (mv.uci, "mate", 2)

    def stalemates(i: int) -> bool:  # a check left here is no mate, so it leaves a reply
        return moves[i] not in checks and _stuck(_raw_apply(state, *moves[i]))

    balance = material_balance(state, state.turn)
    values = [balance + _material_gain(state, *mv) for mv in moves]
    zero = None  # index of the first move in UCI order known to score cp 0
    for i in sorted(range(len(moves)), key=values.__getitem__, reverse=True):  # stable
        if values[i] <= 0:
            break
        if not stalemates(i):
            return (moves[i].uci, "cp", values[i])  # beats every cp 0 and all below it
        zero = i if zero is None else min(zero, i)
    # No positive score stands (each stalemated, so none lies before `zero`):
    # cp 0 wins if any move scores it, by even material or by stalemate; else
    # the smallest material loss does.
    for i, value in enumerate(values[:zero]):
        if value == 0 or (value < 0 and stalemates(i)):
            zero = i
            break
    if zero is not None:
        return (moves[zero].uci, "cp", 0)
    i = max(range(len(moves)), key=values.__getitem__)  # the first of the best
    return (moves[i].uci, "cp", values[i])


def run(stdin=None, stdout=None) -> None:
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout

    def emit(*lines: str) -> None:
        stdout.write("".join(line + "\n" for line in lines))
        stdout.flush()

    start = state = parse_fen(START_FEN)  # a frozen BoardState, reused on each ucinewgame
    multipv = 1
    for raw_line in stdin:
        line = raw_line.strip()
        if not line:
            continue
        cmd, _, rest = line.partition(" ")
        if cmd == "uci":
            emit(
                "id name ToyFish 0.1",
                "id author chessarena",
                "option name MultiPV type spin default 1 min 1 max 256",
                "option name Threads type spin default 1 min 1 max 1",
                "option name Hash type spin default 1 min 1 max 64",
                "uciok",
            )
        elif cmd == "isready":
            emit("readyok")
        elif cmd == "setoption":
            tokens = rest.split()
            if "name" in tokens and "value" in tokens:
                name = " ".join(tokens[tokens.index("name") + 1 : tokens.index("value")])
                value = " ".join(tokens[tokens.index("value") + 1 :])
                if name.lower() == "multipv":
                    multipv = max(1, int(value))
        elif cmd == "ucinewgame":
            state = start
        elif cmd == "position":
            state = _set_position(rest)
        elif cmd == "go":
            depth = _go_depth(rest)
            if multipv == 1:
                best = best_scored(state, depth)
                scored = [best] if best else []
            else:
                scored = sorted(score_moves(state, depth), key=_order_key)[:multipv]
            if not scored:
                emit("bestmove (none)")
                continue
            nodes = len(legal_moves(state))
            emit(
                *(
                    f"info depth {depth} seldepth {depth} multipv {idx} "
                    f"score {kind} {value} nodes {nodes} pv {uci}"
                    for idx, (uci, kind, value) in enumerate(scored, start=1)
                ),
                f"bestmove {scored[0][0]}",
            )
        elif cmd == "quit":
            break


def _set_position(rest: str) -> BoardState:
    rest = rest.strip()
    moves = []
    if " moves " in rest:
        rest, moves_part = rest.split(" moves ", 1)
        moves = moves_part.split()
    if rest.strip() == "startpos":
        state = parse_fen(START_FEN)
    elif rest.startswith("fen "):
        state = parse_fen(rest[4:].strip())
    else:
        raise ValueError(f"bad position command: {rest!r}")
    for uci in moves:
        move = MoveToken.from_uci(uci)
        if move not in legal_moves(state):
            raise ValueError(f"illegal move {uci} in position stream")
        state = _raw_apply(state, *move)
    return state


def _go_depth(rest: str) -> int:
    tokens = rest.split()
    if "depth" in tokens:
        return max(1, int(tokens[tokens.index("depth") + 1]))
    return 1  # nodes/movetime/infinite limits all map to the static search


if __name__ == "__main__":
    run()
