#!/usr/bin/env python3
"""Build the frozen desk-scale puzzle corpus (tests/data/puzzles_small.csv).

Each puzzle is a synthetic endgame with a solution proven by exhaustive
search: after the recorded setup move the solver has exactly one move that
forces mate (in one, or in two with a checking key), and after the recorded
defense the mating move is again unique. Uniqueness is verified over ALL
legal keys, so any sound engine's best move matches the recorded line and
exact-match scoring is meaningful.

Slow (exhaustive proofs); run offline and commit the CSV.
"""

import csv
import random
import sys
import time
from pathlib import Path

from chessarena.core import BoardState, is_check, serialize_fen
from chessarena.core.moves import _attacked, _raw_apply, _raw_legal_moves
from chessarena.core.board import KING
from chessarena.toy_engine import _is_mate

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "puzzles_small.csv"

N_MATE1 = 30
N_MATE2 = 170

WHITE_SETS = ["KQR", "KQRB", "KQRN", "KQQ", "KRR", "KQB"]
BLACK_SETS = ["Kp", "Kpp", "Kn", "Kpn", "Kb", "Kppp", "Kr", "Kpb"]

_CODE = {"K": 6, "Q": 5, "R": 4, "B": 3, "N": 2, "P": 1}


def _uci(raw):
    frm, to, promo = raw
    names = [f + r for r in "12345678" for f in "abcdefgh"]
    return names[frm] + names[to] + (promo or "")


def _mate_in_one_moves(state):
    out = []
    for raw in _raw_legal_moves(state):
        if _is_mate(_raw_apply(state, *raw)):
            out.append(raw)
    return out


def _has_mate_in_one(state):
    enemy_king = state.board.index(KING * -state.turn)
    ek_f, ek_r = enemy_king & 7, enemy_king >> 3
    moves = _raw_legal_moves(state)
    moves.sort(key=lambda m: abs((m[1] & 7) - ek_f) + abs((m[1] >> 3) - ek_r))
    for raw in moves:
        if _is_mate(_raw_apply(state, *raw)):
            return True
    return False


def _forcing_mate2_keys(state):
    """Keys k such that every reply to k allows an immediate mate."""
    keys = []
    for raw in _raw_legal_moves(state):
        after = _raw_apply(state, *raw)
        replies = _raw_legal_moves(after)
        if not replies:
            continue  # mate (handled as mate-in-1) or stalemate
        if all(_has_mate_in_one(_raw_apply(after, *reply)) for reply in replies):
            keys.append(raw)
            if len(keys) > 1:
                break  # non-unique, caller rejects
    return keys


def random_position(rng):
    """Sparse position, black to move, valid per the kernel's invariants."""
    white = rng.choice(WHITE_SETS)
    black = rng.choice(BLACK_SETS)
    pieces = [(_CODE[ch.upper()], 1) for ch in white] + [(_CODE[ch.upper()], -1) for ch in black]
    while True:
        squares = rng.sample(range(64), len(pieces))
        board = [0] * 64
        ok = True
        for (kind, color), sq in zip(pieces, squares):
            if kind == 1 and not (8 <= sq <= 55):
                ok = False
                break
            board[sq] = kind * color
        if not ok:
            continue
        wk, bk = board.index(KING), board.index(-KING)
        if max(abs((wk & 7) - (bk & 7)), abs((wk >> 3) - (bk >> 3))) <= 1:
            continue
        state = BoardState(tuple(board), -1, 0, None, 0, 1)
        if _attacked(state.board, wk, -1):
            continue  # white (not to move) may not stand in check
        if not _raw_legal_moves(state):
            continue
        return state


def find_puzzle(state, rng, want_mate2):
    """Try every black setup move; return (moves, kind) or None."""
    setups = _raw_legal_moves(state)
    rng.shuffle(setups)
    for setup in setups:
        after_setup = _raw_apply(state, *setup)
        if not _raw_legal_moves(after_setup):
            continue
        mates = _mate_in_one_moves(after_setup)
        if len(mates) == 1 and not want_mate2:
            return [setup, mates[0]], "mateIn1"
        if mates or not want_mate2:
            continue
        keys = _forcing_mate2_keys(after_setup)
        if len(keys) != 1:
            continue
        key = keys[0]
        after_key = _raw_apply(after_setup, *key)
        if not is_check(after_key):
            continue  # keep keys findable by the bundled demo engine
        for reply in sorted(_raw_legal_moves(after_key), key=_uci):
            after_reply = _raw_apply(after_key, *reply)
            finals = _mate_in_one_moves(after_reply)
            if len(finals) == 1:
                return [setup, key, reply, finals[0]], "mateIn2"
    return None


def main():
    rng = random.Random(20250808)
    rows = []
    seen_fens = set()
    counts = {"mateIn1": 0, "mateIn2": 0}
    targets = {"mateIn1": N_MATE1, "mateIn2": N_MATE2}
    t0 = time.time()
    tries = 0
    while counts["mateIn1"] < targets["mateIn1"] or counts["mateIn2"] < targets["mateIn2"]:
        tries += 1
        state = random_position(rng)
        fen = serialize_fen(state)
        if fen in seen_fens:
            continue
        want_mate2 = counts["mateIn2"] < targets["mateIn2"]
        found = find_puzzle(state, rng, want_mate2)
        if found is None:
            if counts["mateIn1"] < targets["mateIn1"]:
                found = find_puzzle(state, rng, want_mate2=False)
            if found is None:
                continue
        moves, kind = found
        if counts[kind] >= targets[kind]:
            continue
        seen_fens.add(fen)
        idx = counts["mateIn1"] + counts["mateIn2"]
        if kind == "mateIn1":
            rating = 320 + (idx * 37) % 360
        else:
            rating = 820 + (idx * 53) % 580
        rows.append(
            {
                "PuzzleId": f"toy{idx:05d}",
                "FEN": fen,
                "Moves": " ".join(_uci(m) for m in moves),
                "Rating": rating,
                "RatingDeviation": 75,
                "Popularity": 90,
                "NbPlays": 1000,
                "Themes": f"mate {kind} short",
                "GameUrl": "",
                "OpeningTags": "",
            }
        )
        counts[kind] += 1
        if (counts["mateIn1"] + counts["mateIn2"]) % 20 == 0:
            print(
                f"{counts} after {tries} positions, {time.time()-t0:.0f}s",
                flush=True,
            )
    rows.sort(key=lambda r: r["PuzzleId"])
    OUT.parent.mkdir(parents=True, exist_ok=True)
    with open(OUT, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} puzzles to {OUT} in {time.time()-t0:.0f}s ({tries} positions tried)")


if __name__ == "__main__":
    sys.exit(main())
