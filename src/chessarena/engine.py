"""UCI engine client: process lifecycle, full-width (MultiPV) analysis of all
legal moves, win-rate mapping, best-move queries, and an on-disk analysis
cache.

One handle serves one caller at a time; use a handle per worker for
concurrent analyses. A run of analyses keeps one search queued ahead.
"""

from __future__ import annotations

import io
import json
import math
import os
import select
import shlex
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from . import UserError
from .core import BoardState, ChessError, MoveParseError, MoveToken, legal_moves, parse_fen
from .jsonlog import append_row, read_rows

DEFAULT_HANDSHAKE_TIMEOUT = 10.0
DEFAULT_SEARCH_TIMEOUT = 600.0
STDERR_TAIL_LINES = 20

# Win-rate mapping constants: logistic in centipawns, compressed mate scores.
MATE_EPSILON = 0.001
MATE_FLOOR = 0.95


class EngineError(Exception):
    """Engine could not be started or died mid-search."""


class EngineProtocolError(EngineError):
    """The engine spoke, but not valid UCI for our request."""


@dataclass(frozen=True)
class Score:
    """Raw engine score from the side to move's perspective."""

    kind: str  # "cp" or "mate"
    value: int

    def __post_init__(self):
        if self.kind not in ("cp", "mate"):
            raise ValueError(f"bad score kind {self.kind!r}")
        if self.kind == "mate" and self.value == 0:
            raise ValueError("mate score must be signed and nonzero")

    def order_key(self) -> float:
        """Total order with mate-for above all cp and mate-against below."""
        if self.kind == "cp":
            return float(self.value)
        if self.value > 0:
            return 1e9 - self.value
        return -1e9 - self.value


def win_rate_from_score(score: Score) -> float:
    """Map a raw score to a win rate Q in [0, 1].

    Centipawns use the logistic 1/(1+10^(-c/400)); mate-in-n compresses to
    1 - 0.001*n floored at 0.95 (mirrored toward 0 for mate-against). The
    mapping is strictly increasing on the scores engines actually report.
    """
    if score.kind == "cp":
        return 1.0 / (1.0 + 10.0 ** (-score.value / 400.0))
    n = abs(score.value)
    q = 1.0 - MATE_EPSILON * n
    q = max(q, MATE_FLOOR)
    return q if score.value > 0 else 1.0 - q


@dataclass(frozen=True)
class MoveEval:
    move: MoveToken
    score: Score
    win_rate: float


@dataclass(frozen=True)
class AnalysisTable:
    """Win rate for every legal move of a position, top-3 distinguished."""

    fen: str
    depth: int
    evals: tuple
    top_moves: frozenset  # UCI strings, at most 3

    def q_for(self, uci: str) -> float | None:
        for ev in self.evals:
            if ev.move.uci == uci:
                return ev.win_rate
        return None

    @property
    def awr(self) -> float:
        """Average win rate over all legal moves."""
        return sum(ev.win_rate for ev in self.evals) / len(self.evals)

    def is_top(self, uci: str) -> bool:
        return uci in self.top_moves


def top_moves_of(evals) -> frozenset:
    """Top-3 by win rate; ties broken by raw score, then UCI order."""
    ranked = sorted(evals, key=lambda ev: (-ev.win_rate, -ev.score.order_key(), ev.move.uci))
    return frozenset(ev.move.uci for ev in ranked[:3])


class EngineHandle:
    """A running UCI engine process. Requests collect until the next read, so
    a search's commands leave in one write; its output is read on the calling
    thread; a background reader keeps the last lines of its stderr for error
    messages."""

    def __init__(self, proc: subprocess.Popen, command: str):
        self._proc = proc
        self._command = command
        self._unsent: list = []  # request lines not yet written
        self._stdout = proc.stdout.fileno()  # read raw: the file object's buffer stays empty
        self._poll = select.poll()
        self._poll.register(self._stdout, select.POLLIN)
        self._buffer = bytearray()  # output read but not yet cut into lines
        self._after_cr = False  # the last line ended in a bare CR: a LF next ends nothing
        self._eof = False
        self._dead = False
        self._stderr_tail: deque = deque(maxlen=STDERR_TAIL_LINES)
        self._stderr_reader = threading.Thread(target=self._drain_stderr, daemon=True)
        self._stderr_reader.start()
        self.name = ""
        self.options: dict = {}

    def _drain_stderr(self):
        with io.TextIOWrapper(self._proc.stderr, encoding="utf-8", errors="replace") as lines:
            for line in lines:  # until the process closes its end
                self._stderr_tail.append(line.rstrip("\n"))

    def _failure(self, message: str) -> EngineError:
        """An EngineError for a process that is gone or going, with the last
        lines it wrote to stderr."""
        self._stderr_reader.join(timeout=1.0)  # the pipe ends when the process does
        if self._stderr_tail:
            message += "; stderr: " + " | ".join(self._stderr_tail)
        return EngineError(message)

    @property
    def alive(self) -> bool:
        """False once the process has exited or the handle has given it up."""
        return not self._dead and self._proc.poll() is None

    def send(self, line: str) -> None:
        """Queue one command line; the next `read_line` or `quit` writes it."""
        if not self.alive:
            raise self._failure("engine process is gone")
        self._unsent.append(line + "\n")

    def _flush(self) -> None:
        data = "".join(self._unsent).encode()
        self._unsent.clear()
        try:
            while data:
                data = data[os.write(self._proc.stdin.fileno(), data) :]
        except OSError as exc:  # BrokenPipeError among them
            self._dead = True
            raise self._failure(f"engine pipe broken: {exc}") from exc

    def _cut_line(self) -> str | None:
        """The first whole line of the buffer, without its end (LF, CRLF or
        CR), or the rest of the buffer once the output has ended."""
        buffer = self._buffer
        if self._after_cr and buffer:
            self._after_cr = False
            if buffer[0] == 0x0A:
                del buffer[0]
        end = buffer.find(b"\n")
        cr = buffer.find(b"\r", 0, len(buffer) if end < 0 else end)
        if cr >= 0:
            end, skip = cr, 2 if cr + 1 == end else 1
            self._after_cr = cr + 1 == len(buffer)
        elif end >= 0:
            skip = 1
        elif self._eof and buffer:
            end, skip = len(buffer), 0
        else:
            return None
        line = buffer[:end].decode("utf-8", errors="replace")
        del buffer[: end + skip]
        return line

    def read_line(self, timeout: float) -> str:
        """The next output line, after writing any queued commands. Silence
        for `timeout` seconds kills the process: its late output must not
        answer a later search."""
        if self._unsent:
            self._flush()
        deadline = time.monotonic() + timeout
        while True:
            line = self._cut_line()
            if line is not None:
                return line
            if self._eof:
                self._dead = True  # every later read fails too
                raise self._failure("engine closed its output")
            if self._dead:
                raise self._failure("engine process is gone")
            left = deadline - time.monotonic()
            if left <= 0:
                self._dead = True
                self._proc.kill()
                raise self._failure(f"engine silent for {timeout}s")
            if self._poll.poll(math.ceil(left * 1000)):
                chunk = os.read(self._stdout, 65536)
                if chunk:
                    self._buffer += chunk
                else:
                    self._eof = True

    def expect(self, token: str, timeout: float) -> list:
        """Read lines until one equals/starts with token; returns all lines."""
        seen = []
        while True:
            line = self.read_line(timeout)
            seen.append(line)
            if line == token or line.startswith(token + " "):
                return seen

    def set_option(self, name: str, value) -> None:
        self.send(f"setoption name {name} value {value}")
        self.options[name] = value

    def skip_answers(self, searches: int, timeout: float) -> None:
        """Read past the answers of `searches` searches already sent, up to
        each one's `bestmove`, so none of their lines answers a later search.
        A dead handle has nothing left to read."""
        while searches and not self._dead:
            if self.read_line(timeout).startswith("bestmove"):
                searches -= 1

    def quit(self) -> None:
        try:
            if self._proc.poll() is None:
                self.send("quit")
                self._flush()
                self._proc.wait(timeout=5)
        except (EngineError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()
        finally:
            self._dead = True
            self._proc.stdin.close()
            self._proc.stdout.close()
            self._stderr_reader.join(timeout=1.0)  # it closes the stderr pipe at the end

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.quit()


def start_engine(
    command,
    options: dict | None = None,
    handshake_timeout: float = DEFAULT_HANDSHAKE_TIMEOUT,
) -> EngineHandle:
    """Spawn a UCI engine and complete the uci/isready handshake."""
    argv = shlex.split(command) if isinstance(command, str) else list(command)
    try:
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,  # drained into the handle's stderr tail
        )
    except OSError as exc:
        raise EngineError(f"cannot start engine {argv[0]!r}: {exc}") from exc
    handle = EngineHandle(proc, command if isinstance(command, str) else " ".join(argv))
    try:
        handle.send("uci")
        for line in handle.expect("uciok", handshake_timeout):
            if line.startswith("id name "):
                handle.name = line[len("id name ") :].strip()
        for name, value in (options or {}).items():
            handle.set_option(name, value)
        handle.send("ucinewgame")
        handle.send("isready")  # the options, ucinewgame and isready go in one write
        handle.expect("readyok", handshake_timeout)
    except EngineError:
        handle.quit()
        raise
    return handle


def _parse_info_line(line: str) -> dict | None:
    tokens = line.split()
    if not tokens or tokens[0] != "info" or "pv" not in tokens or "score" not in tokens:
        return None
    if "lowerbound" in tokens or "upperbound" in tokens:
        return None
    info = {"multipv": 1, "depth": 0}
    i = 1
    try:
        while i < len(tokens):
            tok = tokens[i]
            if tok == "depth":
                info["depth"] = int(tokens[i + 1])
                i += 2
            elif tok == "multipv":
                info["multipv"] = int(tokens[i + 1])
                i += 2
            elif tok == "score":
                info["score"] = Score(tokens[i + 1], int(tokens[i + 2]))
                i += 3
            elif tok == "pv":
                info["move"] = tokens[i + 1]
                break
            else:
                i += 1
    except (ValueError, IndexError) as exc:
        raise EngineProtocolError(f"malformed info line {line!r}: {exc}") from exc
    if "score" not in info or "move" not in info:
        return None
    return info


def analyze_all_moves(
    handle: EngineHandle,
    fen: str,
    depth: int,
    timeout: float = DEFAULT_SEARCH_TIMEOUT,
) -> AnalysisTable:
    """Evaluate every legal move of the position via MultiPV search."""
    (table,) = analyze_positions(handle, [fen], depth, timeout)
    return table


def analyze_positions(handle: EngineHandle, fens, depth: int, timeout: float = DEFAULT_SEARCH_TIMEOUT):
    """Yield the analysis of each of `fens`, in order, with the next search
    queued before an answer is read: the engine computes it while this side
    parses. At most one search is ahead, so neither pipe can fill. Each
    search starts with `ucinewgame`, so an analysis depends on its position
    alone, never on what the process searched before. When a search fails or
    the caller stops early, the searches already sent are read to their
    `bestmove` first, so no later search reads their lines."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    searches = deque()
    for fen in fens:
        legal = legal_moves(parse_fen(fen))
        if not legal:
            raise EngineError(f"position has no legal moves: {fen}")
        searches.append((fen, {mv.uci: mv for mv in legal}))
    sent = deque()  # searches whose bestmove is not read yet
    try:
        while sent or searches:
            while searches and len(sent) < 2:  # the one read next, and one ahead
                fen, legal_ucis = searches.popleft()
                handle.send("ucinewgame")  # no earlier search may colour this one
                handle.set_option("MultiPV", len(legal_ucis))  # the engine applies it before the search
                handle.send(f"position fen {fen}")
                handle.send(f"go depth {depth}")
                sent.append((fen, legal_ucis))
            best: dict = {}  # multipv index -> info
            while True:
                line = handle.read_line(timeout)
                if line.startswith("bestmove"):
                    break
                info = _parse_info_line(line)
                if info is None:
                    continue
                prev = best.get(info["multipv"])
                if prev is None or info["depth"] >= prev["depth"]:
                    best[info["multipv"]] = info
            fen, legal_ucis = sent.popleft()
            yield _analysis_table(fen, depth, legal_ucis, best)
    finally:
        handle.skip_answers(len(sent), timeout)


def _analysis_table(fen: str, depth: int, legal_ucis: dict, best: dict) -> AnalysisTable:
    """The table of one search's last info line per MultiPV index, which must
    name every legal move once."""
    evals = []
    seen = set()
    for info in best.values():
        uci = info["move"]
        if uci not in legal_ucis:
            raise EngineProtocolError(f"engine suggested illegal move {uci} for {fen}")
        if uci in seen:
            raise EngineProtocolError(f"engine reported {uci} twice for {fen}")
        seen.add(uci)
        evals.append(MoveEval(legal_ucis[uci], info["score"], win_rate_from_score(info["score"])))
    missing = set(legal_ucis) - seen
    if missing:
        raise EngineProtocolError(
            f"analysis covered {len(seen)}/{len(legal_ucis)} legal moves for {fen}; missing {sorted(missing)[:4]}"
        )
    evals.sort(key=lambda ev: ev.move.uci)
    return AnalysisTable(fen, depth, tuple(evals), top_moves_of(evals))


def best_move(
    handle: EngineHandle,
    board: BoardState,
    limits: dict | None = None,
    timeout: float = DEFAULT_SEARCH_TIMEOUT,
) -> MoveToken:
    """Ask the engine for its move in `board` under depth/nodes/movetime limits."""
    fen = board.fen
    legal = legal_moves(board)  # the game's own list, already generated
    if not legal:
        raise EngineError(f"position is terminal: {fen}")
    limits = limits or {"depth": 1}
    parts = ["go"]
    for key in ("depth", "nodes", "movetime"):
        if key in limits:
            parts.extend([key, str(limits[key])])
    if len(parts) == 1:
        raise ValueError(f"no usable limit in {limits!r}")
    if getattr(handle, "options", {}).get("MultiPV", 1) != 1:  # left over from an analysis
        handle.set_option("MultiPV", 1)
    handle.send(f"position fen {fen}")
    handle.send(" ".join(parts))
    line = handle.expect("bestmove", timeout)[-1]
    fields = line.split()
    if len(fields) < 2 or fields[1] == "(none)":
        raise EngineError(f"engine returned no move for {fen}")
    uci = fields[1]
    try:
        move = MoveToken.from_uci(uci)
    except MoveParseError:
        move = None
    if move not in legal:
        raise EngineProtocolError(f"engine bestmove {uci} is illegal in {fen}")
    return move


class AnalysisCache:
    """AnalysisTables keyed by (engine id, fen, depth), kept in one
    append-only log under `root`. The log is read once, into an index of each
    row's text, so `get` never reads the disk and `put` appends one row. The
    index holds text, not tables: a parsed table takes several times the
    memory of its row."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._log = self.root / "analyses.jsonl"
        self._rows: dict = {}  # (engine id, fen, depth) -> (line number, row text)
        self._count = 0  # rows in the log
        for text, row in read_rows(self._log):
            self._count += 1
            try:
                self._rows[row["engine"], row["fen"], row["depth"]] = (self._count, text)
            except (KeyError, TypeError) as exc:  # a key field missing or unhashable
                raise UserError.at(self._log, self._count, exc) from None

    def get(self, engine_id: str, fen: str, depth: int) -> AnalysisTable | None:
        entry = self._rows.get((engine_id, fen, depth))
        if entry is None:
            return None
        number, text = entry
        try:
            return table_from_dict(json.loads(text))
        except (KeyError, TypeError, ValueError, ChessError) as exc:
            raise UserError.at(self._log, number, exc) from None

    def put(self, engine_id: str, table: AnalysisTable) -> None:
        text = append_row(self._log, {"engine": engine_id, **table_to_dict(table)})
        self._count += 1
        self._rows[(engine_id, table.fen, table.depth)] = (self._count, text)


def table_to_dict(table: AnalysisTable) -> dict:
    return {
        "fen": table.fen,
        "depth": table.depth,
        "evals": [
            {"move": ev.move.uci, "kind": ev.score.kind, "value": ev.score.value, "q": ev.win_rate}
            for ev in table.evals
        ],
        "top_moves": sorted(table.top_moves),
    }


def table_from_dict(data: dict) -> AnalysisTable:
    evals = tuple(
        MoveEval(MoveToken.from_uci(row["move"]), Score(row["kind"], row["value"]), row["q"])
        for row in data["evals"]
    )
    return AnalysisTable(data["fen"], data["depth"], evals, frozenset(data["top_moves"]))
