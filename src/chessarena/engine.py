"""UCI engine client: process lifecycle, full-width (MultiPV) analysis of all
legal moves, win-rate mapping, best-move queries, and an on-disk analysis
cache.

One handle serves one search at a time; use a handle per worker for
concurrent analyses.
"""

from __future__ import annotations

import hashlib
import json
import queue
import shlex
import subprocess
import threading
from dataclasses import dataclass
from pathlib import Path

from .core import MoveToken, legal_moves, parse_fen

DEFAULT_HANDSHAKE_TIMEOUT = 10.0
DEFAULT_SEARCH_TIMEOUT = 600.0

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

    def q_for(self, move) -> float | None:
        uci = move.uci if isinstance(move, MoveToken) else str(move)
        for ev in self.evals:
            if ev.move.uci == uci:
                return ev.win_rate
        return None

    @property
    def awr(self) -> float:
        """Average win rate over all legal moves."""
        return sum(ev.win_rate for ev in self.evals) / len(self.evals)

    def is_top(self, move) -> bool:
        uci = move.uci if isinstance(move, MoveToken) else str(move)
        return uci in self.top_moves


def top_moves_of(evals) -> frozenset:
    """Top-3 by win rate; ties broken by raw score, then UCI order."""
    ranked = sorted(evals, key=lambda ev: (-ev.win_rate, -ev.score.order_key(), ev.move.uci))
    return frozenset(ev.move.uci for ev in ranked[:3])


class EngineHandle:
    """A running UCI engine process with a background line reader."""

    def __init__(self, proc: subprocess.Popen, command: str):
        self._proc = proc
        self._command = command
        self._lines: queue.Queue = queue.Queue()
        self._dead = False
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.name = ""
        self.options: dict = {}

    def _pump(self):
        for line in self._proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)  # EOF sentinel

    def send(self, line: str) -> None:
        if self._dead or self._proc.poll() is not None:
            raise EngineError("engine process is gone")
        try:
            self._proc.stdin.write(line + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            self._dead = True
            raise EngineError(f"engine pipe broken: {exc}") from exc

    def read_line(self, timeout: float) -> str:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise EngineError(f"engine silent for {timeout}s") from None
        if line is None:
            # Keep the sentinel around: every later read must fail too.
            self._dead = True
            self._lines.put(None)
            raise EngineError("engine closed its output")
        return line

    def expect(self, token: str, timeout: float) -> list:
        """Read lines until one equals/starts with token; returns all lines."""
        seen = []
        while True:
            line = self.read_line(timeout)
            seen.append(line)
            if line == token or line.startswith(token + " "):
                return seen

    def sync(self, timeout: float = DEFAULT_HANDSHAKE_TIMEOUT) -> None:
        self.send("isready")
        self.expect("readyok", timeout)

    def set_option(self, name: str, value) -> None:
        self.send(f"setoption name {name} value {value}")
        self.options[name] = value

    def new_game(self) -> None:
        self.send("ucinewgame")
        self.sync()

    def quit(self) -> None:
        try:
            if self._proc.poll() is None:
                self.send("quit")
                self._proc.wait(timeout=5)
        except (EngineError, subprocess.TimeoutExpired):
            self._proc.kill()
        finally:
            if self._proc.stdin:
                self._proc.stdin.close()

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
            stderr=subprocess.DEVNULL,
            text=True,
            bufsize=1,
        )
    except OSError as exc:
        raise EngineError(f"cannot start engine {argv[0]!r}: {exc}") from exc
    handle = EngineHandle(proc, command if isinstance(command, str) else " ".join(argv))
    handle.send("uci")
    for line in handle.expect("uciok", handshake_timeout):
        if line.startswith("id name "):
            handle.name = line[len("id name ") :].strip()
    for name, value in (options or {}).items():
        handle.set_option(name, value)
    handle.sync(handshake_timeout)
    handle.new_game()
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
    if depth < 1:
        raise ValueError("depth must be >= 1")
    legal = legal_moves(parse_fen(fen))
    if not legal:
        raise EngineError(f"position has no legal moves: {fen}")
    legal_ucis = {mv.uci: mv for mv in legal}
    handle.set_option("MultiPV", len(legal))
    handle.sync()
    handle.send(f"position fen {fen}")
    handle.send(f"go depth {depth}")

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
    fen: str,
    limits: dict | None = None,
    timeout: float = DEFAULT_SEARCH_TIMEOUT,
) -> MoveToken:
    """Ask the engine for its move under depth/nodes/movetime limits."""
    board = parse_fen(fen)
    legal = {mv.uci: mv for mv in legal_moves(board)}
    if not legal:
        raise EngineError(f"position is terminal: {fen}")
    limits = limits or {"depth": 1}
    parts = ["go"]
    for key in ("depth", "nodes", "movetime"):
        if key in limits:
            parts.extend([key, str(limits[key])])
    if len(parts) == 1:
        raise ValueError(f"no usable limit in {limits!r}")
    handle.send(f"position fen {fen}")
    handle.send(" ".join(parts))
    line = handle.expect("bestmove", timeout)[-1]
    fields = line.split()
    if len(fields) < 2 or fields[1] == "(none)":
        raise EngineError(f"engine returned no move for {fen}")
    uci = fields[1]
    if uci not in legal:
        raise EngineProtocolError(f"engine bestmove {uci} is illegal in {fen}")
    return legal[uci]


class AnalysisCache:
    """Disk cache of AnalysisTable JSON keyed by (engine id, fen, depth)."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, engine_id: str, fen: str, depth: int) -> Path:
        digest = hashlib.sha1(f"{engine_id}|{fen}|{depth}".encode()).hexdigest()
        return self.root / f"{digest}.json"

    def get(self, engine_id: str, fen: str, depth: int) -> AnalysisTable | None:
        try:
            data = json.loads(self._path(engine_id, fen, depth).read_text())
        except (FileNotFoundError, ValueError):  # missing, or torn: a miss
            return None
        return table_from_dict(data)

    def put(self, engine_id: str, table: AnalysisTable) -> None:
        path = self._path(engine_id, table.fen, table.depth)
        write_atomic(path, json.dumps(table_to_dict(table), indent=2, sort_keys=True))


def write_atomic(path: Path, text: str) -> None:
    """Write `text` to a `.tmp` sibling, then rename it over `path`: readers
    see the old file or the new one, never a torn one."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


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
