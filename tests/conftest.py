import random
import signal
import sys
import textwrap
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # oracle modules

from chessarena.core import BoardState, apply_move, legal_moves
from chessarena.players import ChatResponse, TransportError

GOLDEN_DIR = Path(__file__).parent / "golden"
DATA_DIR = Path(__file__).parent / "data"
PUZZLES_CSV = DATA_DIR / "puzzles_small.csv"

TOY_ENGINE_CMD = [sys.executable, "-m", "chessarena.toy_engine"]


@pytest.fixture
def sigint_raises():
    """SIGINT raises KeyboardInterrupt in the main thread, also when the
    tests were started with SIGINT ignored (say, as a background job)."""
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, previous)


def playout(seed: int, plies: int) -> BoardState:
    """Deterministic random playout from the initial position."""
    rng = random.Random(seed)
    board = BoardState.start()
    for _ in range(plies):
        moves = legal_moves(board)
        if not moves:
            break
        board = apply_move(board, moves[rng.randrange(len(moves))])
    return board


def playout_with_moves(seed: int, plies: int):
    rng = random.Random(seed)
    board = BoardState.start()
    moves_played = []
    for _ in range(plies):
        moves = legal_moves(board)
        if not moves:
            break
        mv = moves[rng.randrange(len(moves))]
        moves_played.append(mv)
        board = apply_move(board, mv)
    return board, moves_played


class ScriptedTransport:
    """Chat transport fed from a canned response list (or callables)."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def complete(self, messages):
        self.calls.append(list(messages))
        if not self.responses:
            raise AssertionError("scripted transport ran out of responses")
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        if callable(item):
            item = item(messages)
        if isinstance(item, ChatResponse):
            return item
        return ChatResponse(text=item)


class LoopingTransport:
    """Cycles forever over a fixed response sequence."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.index = 0

    def complete(self, messages):
        item = self.responses[self.index % len(self.responses)]
        self.index += 1
        return ChatResponse(text=item)


class FlakyTransport:
    """Fails with TransportError n times, then delegates."""

    def __init__(self, failures: int, inner):
        self.failures = failures
        self.inner = inner

    def complete(self, messages):
        if self.failures > 0:
            self.failures -= 1
            raise TransportError("synthetic outage")
        return self.inner.complete(messages)


def listing_engine(tmp_path, bad_search=0, bad_line=""):
    """A UCI engine that logs each command it reads to `tmp_path/commands.log`
    and answers its n-th search with every legal move at `score cp n` (so a
    table tells which search answered it); search `bad_search` starts with
    `bad_line`."""
    path = tmp_path / "listing_engine.py"
    path.write_text(
        textwrap.dedent(
            f"""\
            import sys
            from chessarena.core import legal_moves, parse_fen

            log = open({str(tmp_path / "commands.log")!r}, "a")
            searches = 0
            for line in sys.stdin:
                t = line.strip()
                log.write(t + "\\n")
                log.flush()
                if t == "uci":
                    print("id name Listing")
                    print("uciok", flush=True)
                elif t == "isready":
                    print("readyok", flush=True)
                elif t.startswith("position fen "):
                    fen = t[len("position fen "):]
                elif t.startswith("go"):
                    searches += 1
                    rows = [{bad_line!r}] if searches == {bad_search} else []
                    moves = legal_moves(parse_fen(fen))
                    rows += [f"info depth 1 multipv {{i}} score cp {{searches}} pv {{m.uci}}"
                             for i, m in enumerate(moves, 1)]
                    rows.append(f"bestmove {{moves[0].uci}}")
                    print("\\n".join(rows), flush=True)
                elif t == "quit":
                    break
            """
        )
    )
    return [sys.executable, str(path)]


def stateful_engine(tmp_path) -> str:
    """The command of a UCI engine whose answers depend on how many searches
    it has run since `ucinewgame`: search n lists every legal move i at
    `score cp 10 * ((i + n) % moves)` and plays move `n % moves`."""
    path = tmp_path / "stateful_engine.py"
    path.write_text(
        textwrap.dedent(
            """\
            import sys
            from chessarena.core import legal_moves, parse_fen

            searches = 0
            for line in sys.stdin:
                t = line.strip()
                if t == "uci":
                    print("id name Stateful")
                    print("uciok", flush=True)
                elif t == "isready":
                    print("readyok", flush=True)
                elif t == "ucinewgame":
                    searches = 0
                elif t.startswith("position fen "):
                    fen = t[len("position fen "):]
                elif t.startswith("go"):
                    moves = legal_moves(parse_fen(fen))
                    rows = [f"info depth 1 multipv {i} score cp {10 * ((i + searches) % len(moves))} pv {m.uci}"
                            for i, m in enumerate(moves, 1)]
                    rows.append(f"bestmove {moves[searches % len(moves)].uci}")
                    print("\\n".join(rows), flush=True)
                    searches += 1
                elif t == "quit":
                    break
            """
        )
    )
    return f"{sys.executable} {path}"


@pytest.fixture
def toy_engine_cmd():
    return TOY_ENGINE_CMD


@pytest.fixture(scope="module")
def toy_handle():
    from chessarena.engine import start_engine

    handle = start_engine(TOY_ENGINE_CMD, options={"Threads": 1})
    yield handle
    handle.quit()
