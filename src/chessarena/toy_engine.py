"""A tiny deterministic UCI engine: material counting plus a forced-mate scan.

Run with ``python -m chessarena.toy_engine``. It exists so the engine bridge,
annotation pipeline and puzzle harness can be exercised without an external
engine binary. It plays weak chess but finds forced mates in one, and mates
in two whose key move gives check, which is all the bundled puzzle corpus
requires. Output is fully deterministic for a given position and depth.

The search does only the work its answers need. It works on raw
(from, to, promotion) triples, sorted once per position by an integer key
that orders them as their UCI text does, and builds UCI text only for the
lines it writes. "Is the side to move stuck?" stops at the first legal
reply, check is tested before any reply is generated, and full reply lists
are built only for the mate-in-two scan. Only moves that pass a per-position
check filter are played to look for a check: moves that uncover a slider
on the enemy king, or land where their piece attacks it along an empty
path, plus en passant, castling and promotions. Material is the position's
balance plus what each move captures or promotes. At MultiPV 1 it looks for
the best move alone and scores the others only as far as that decides it.
Each answer leaves in one write.
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
from .core.board import BISHOP, CASTLINGS, KING, KIND_TO_CODE, KNIGHT, PAWN, QUEEN, ROOK
from .core.moves import (
    KNIGHT_TABLE,
    PAWN_ATTACKERS_B,
    PAWN_ATTACKERS_W,
    RAYS,
    _iter_legal_moves,
    _raw_apply,
    _raw_legal_moves,
    _uci_order,
)

PIECE_VALUES = {1: 100, 2: 300, 3: 310, 4: 500, 5: 900, 6: 0}

MATE_SCAN_MIN_DEPTH = 3  # "go depth" threshold that enables the mate-in-2 scan


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


def _ordered_moves(state: BoardState) -> list:
    """The legal moves as raw triples in the order of their UCI text, which
    breaks every tie in the search's answer."""
    return sorted(_iter_legal_moves(state), key=_uci_order)


def _uci(move) -> str:
    return MoveToken._make(move).uci


def _check_candidates(state: BoardState, moves):
    """Yield, in their order, the moves among `moves` that may check the
    enemy king; every move that does is among them. A move may check when it
    leaves a square that alone stands between the king and one of the
    mover's sliders, or lands where its piece attacks the king: a knight or
    pawn square, or a slider square whose path to the king is empty. That
    path never runs through the square the piece leaves, or the piece would
    check already, which no legal position allows. En passant, castling and
    promotions also clear or fill a second square, so each of them is kept."""
    board = state.board
    us = state.turn
    king_sq = board.index(-KING * us)
    queen = QUEEN * us
    diagonal, straight = set(), set()  # squares a bishop, a rook would check from
    discoverers = set()
    for d, ray in enumerate(RAYS[king_sq]):
        slider, reach = (BISHOP * us, diagonal) if d >= 4 else (ROOK * us, straight)
        pieces = [sq for sq in ray if board[sq]]  # nearest the king first
        reach.update(ray[: ray.index(pieces[0]) + 1] if pieces else ray)
        if len(pieces) > 1 and board[pieces[0]] * us > 0 and board[pieces[1]] in (slider, queen):
            discoverers.add(pieces[0])
    pawn_squares = (PAWN_ATTACKERS_W if us > 0 else PAWN_ATTACKERS_B)[king_sq]
    targets = {
        PAWN * us: pawn_squares if state.ep is None else (*pawn_squares, state.ep),
        KNIGHT * us: KNIGHT_TABLE[king_sq],
        BISHOP * us: diagonal,
        ROOK * us: straight,
        queen: diagonal | straight,
        KING * us: tuple(c.king_to for c in CASTLINGS if board[c.king_from] == KING * us),
    }
    for move in moves:
        frm, to, promo = move
        if frm in discoverers or promo or to in targets[board[frm]]:
            yield move


def _has_mate_in_one(state: BoardState) -> bool:
    for raw in _check_candidates(state, _iter_legal_moves(state)):
        if _is_mate(_raw_apply(state, *raw)):
            return True
    return False


def _forces_mate_in_two(after_key: BoardState, replies) -> bool:
    """True if every reply to the key move allows mate on the next move.
    `replies` are the (non-empty) legal moves of `after_key`."""
    for raw in replies:
        if not _has_mate_in_one(_raw_apply(after_key, *raw)):
            return False
    return True


def score_moves(state: BoardState, depth: int, moves=None) -> list:
    """(uci, kind, value) per legal move, from the mover's perspective.
    `moves` are the position's `_ordered_moves`, if the caller has them."""
    balance = material_balance(state, state.turn)
    scan = depth >= MATE_SCAN_MIN_DEPTH
    scored = []
    for mv in _ordered_moves(state) if moves is None else moves:
        uci = _uci(mv)
        after = _raw_apply(state, *mv)
        check = is_check(after)
        if check and scan:
            replies = _raw_legal_moves(after)
            if replies and _forces_mate_in_two(after, replies):
                scored.append((uci, "mate", 2))
                continue
            stuck = not replies
        else:
            stuck = _stuck(after)
        if stuck:  # mate, or stalemate
            scored.append((uci, "mate", 1) if check else (uci, "cp", 0))
        else:
            scored.append((uci, "cp", balance + _material_gain(state, *mv)))
    return scored


def _order_key(entry):
    uci, kind, value = entry
    raw = (1_000_000 - value) if kind == "mate" else value
    return (-raw, uci)


def best_scored(state: BoardState, depth: int, moves=None):
    """The first entry of `sorted(score_moves(state, depth), key=_order_key)`,
    or None when there is no legal move, scoring only what decides it: mates
    in one among the moves that may give check, then (at the scan depth)
    mates in two among the checks, then material, testing for stalemate
    (which scores cp 0) only while it could change the answer. `moves` are
    the position's `_ordered_moves`, if the caller has them."""
    moves = _ordered_moves(state) if moves is None else moves
    if not moves:
        return None
    checks = {}
    for mv in _check_candidates(state, moves):
        after = _raw_apply(state, *mv)
        if is_check(after):
            if _stuck(after):
                return (_uci(mv), "mate", 1)
            checks[mv] = after
    if depth >= MATE_SCAN_MIN_DEPTH:
        for mv, after in checks.items():
            if _forces_mate_in_two(after, _raw_legal_moves(after)):
                return (_uci(mv), "mate", 2)

    def stalemates(i: int) -> bool:  # a check left here is no mate, so it leaves a reply
        return moves[i] not in checks and _stuck(_raw_apply(state, *moves[i]))

    balance = material_balance(state, state.turn)
    values = [balance + _material_gain(state, *mv) for mv in moves]
    zero = None  # index of the first move in UCI order known to score cp 0
    for i in sorted(range(len(moves)), key=values.__getitem__, reverse=True):  # stable
        if values[i] <= 0:
            break
        if not stalemates(i):
            return (_uci(moves[i]), "cp", values[i])  # beats every cp 0 and all below it
        zero = i if zero is None else min(zero, i)
    # No positive score stands (each stalemated, so none lies before `zero`):
    # cp 0 wins if any move scores it, by even material or by stalemate; else
    # the smallest material loss does.
    for i, value in enumerate(values[:zero]):
        if value == 0 or (value < 0 and stalemates(i)):
            zero = i
            break
    if zero is not None:
        return (_uci(moves[zero]), "cp", 0)
    i = max(range(len(moves)), key=values.__getitem__)  # the first of the best
    return (_uci(moves[i]), "cp", values[i])


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
            moves = _ordered_moves(state)
            if multipv == 1:
                best = best_scored(state, depth, moves)
                scored = [best] if best else []
            else:
                scored = sorted(score_moves(state, depth, moves), key=_order_key)[:multipv]
            if not scored:
                emit("bestmove (none)")
                continue
            nodes = len(moves)
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
