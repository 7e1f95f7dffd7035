"""Match orchestration: the game loop, rating-coupled match and tournament
runners, JSONL persistence with idempotent resume, engine annotation, the
leaderboard, and secondary per-player metrics.

Game ids are content-addressed (players, seed, index), so re-running a
crashed tournament recomputes nothing that already finished and never
duplicates a game.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import threading
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from . import UserError
from .core import (
    BLACK,
    BoardState,
    ChessError,
    FORFEIT,
    MoveToken,
    PositionHistory,
    Termination,
    WHITE,
    apply_move,
    game_status,
    legal_moves,
    move_to_san,
)
from .core.status import DEFAULT_PLY_CAP
from .engine import (  # analyze_all_moves is named here for the benchmark's tracer, which wraps it
    AnalysisCache,
    EngineError,
    analyze_all_moves,
    analyze_positions,
    best_move,
    start_engine,
)
from .jsonlog import append_row, encode_rows, write_atomic
from .players import (
    HISTORY_PGN,
    HttpChatTransport,
    LLM_API,
    MAX_ATTEMPTS,
    MoveAttempt,
    OK,
    PlayerSpec,
    RANDOM,
    TransportError,
    UCI_ENGINE,
    build_blindfold_conversation,
    build_prompt,
    random_player_move,
    request_move,
)
from .rating import (
    MatchOutcome,
    PoolEntry,
    RatingConfig,
    pool_to_json,
    sample_opponent,
    select_initiator,
    update_pair,
)

INTERVAL_Z = 1.96


@dataclass(frozen=True)
class GameConfig:
    ply_cap: int = DEFAULT_PLY_CAP
    rating: RatingConfig = dc_field(default_factory=RatingConfig)


@dataclass(frozen=True)
class GameView:
    """What a player sees when asked to move.

    `sans`, when set, is the SAN of every move in `moves_played`.
    """

    board: BoardState
    moves_played: tuple
    color: str
    rng: random.Random
    sans: tuple | None = None


@dataclass(frozen=True)
class PlyChoice:
    move: MoveToken | None  # None means forfeit
    attempts: tuple
    prompt_digest: str | None = None


@dataclass
class PlyRecord:
    ply: int
    fen_before: str
    color: str
    attempts: tuple
    move: str | None
    prompt_digest: str | None = None
    q: float | None = None
    in_top3: bool | None = None


@dataclass
class GameRecord:
    """One game. `plies` is None on a record read from its file's header and
    footer rows only (`RunDir.read_result`)."""

    game_id: str
    white_id: str
    black_id: str
    seed: int
    plies: list | None
    termination: Termination | None
    result_white: float | None
    started_at: float
    finished_at: float
    aborted: bool = False
    error: str | None = None

    def result_for(self, player_id: str) -> float | None:
        if self.result_white is None:
            return None
        if player_id == self.white_id:
            return self.result_white
        if player_id == self.black_id:
            return 1.0 - self.result_white
        raise KeyError(f"{player_id} did not play game {self.game_id}")

    @property
    def moves(self) -> list:
        return [p.move for p in self.plies if p.move]


@dataclass(frozen=True)
class MatchRequest:
    a_id: str
    b_id: str
    n_games: int

    def __post_init__(self):
        if self.a_id == self.b_id:
            raise ValueError("a match needs two distinct players")
        if self.n_games <= 0 or self.n_games % 2 != 0:
            raise ValueError(f"n_games must be a positive even number, got {self.n_games}")


@dataclass(frozen=True)
class LeaderboardEntry:
    rank: int
    id: str
    mode: str | None
    legal_moves: bool
    r: float
    rd: float
    interval: tuple
    games: int


@dataclass(frozen=True)
class SecondaryMetrics:
    wins: int
    losses: int
    draws: int
    parsing_err_rate: float
    illegal_move_rate: float
    forbidden_rate: float
    legal_move_rate: float
    top_move_rate: float | None


def derive_seed(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def game_id_for(white_id: str, black_id: str, seed: int, index: int) -> str:
    return hashlib.sha1(f"{white_id}|{black_id}|{seed}|{index}".encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Runtime players


class Player:
    handle = None  # the engine process an engine player searches on

    def __init__(self, spec: PlayerSpec):
        self.spec = spec

    def choose(self, view: GameView) -> PlyChoice:
        raise NotImplementedError


class RandomPlayer(Player):
    def choose(self, view: GameView) -> PlyChoice:
        move = random_player_move(view.board, view.rng)
        attempt = MoveAttempt(move.uci, OK, move=move)
        return PlyChoice(move, (attempt,))


class EnginePlayer(Player):
    """Searches on `handle`. Its first search starts with `ucinewgame`, so a
    player built per game or per eval prediction answers from that game
    alone, whatever the process searched before."""

    def __init__(self, spec: PlayerSpec, handle):
        super().__init__(spec)
        self.handle = handle
        self._new_game = True

    def choose(self, view: GameView) -> PlyChoice:
        limits = self.spec.engine_limits or {"depth": 4}
        if self._new_game:  # queued: it leaves in the search's one write
            self.handle.send("ucinewgame")
            self._new_game = False
        move = best_move(self.handle, view.board, limits)
        attempt = MoveAttempt(f"bestmove {move.uci}", OK, move=move)
        return PlyChoice(move, (attempt,))


class LlmPlayer(Player):
    def __init__(self, spec: PlayerSpec, transport, max_attempts: int = MAX_ATTEMPTS):
        super().__init__(spec)
        self.transport = transport
        self.max_attempts = max_attempts

    def choose(self, view: GameView) -> PlyChoice:
        shown = legal_moves(view.board) if self.spec.provide_legal_moves else None
        if self.spec.play_mode == "blindfold":
            messages = build_blindfold_conversation(
                self.spec, view.moves_played, shown, view.color
            )
        else:
            messages = build_prompt(
                self.spec, view.board, view.moves_played, shown, view.color, view.sans
            )
        digest = hashlib.sha256(
            json.dumps([m.as_dict() for m in messages], sort_keys=True).encode()
        ).hexdigest()
        move, attempts, _transcript = request_move(
            self.spec, messages, view.board, self.transport, max_attempts=self.max_attempts
        )
        return PlyChoice(move, tuple(attempts), prompt_digest=digest)


def make_player(
    spec: PlayerSpec, *, transport=None, handle=None, max_attempts: int = MAX_ATTEMPTS
) -> Player:
    """The runtime player for `spec`. Engine players search on `handle`; an
    LLM player without a `transport` talks HTTP to the spec's endpoint and
    gets `max_attempts` tries per move."""
    if spec.kind == RANDOM:
        return RandomPlayer(spec)
    if spec.kind == UCI_ENGINE:
        return EnginePlayer(spec, handle)
    if spec.kind == LLM_API:
        return LlmPlayer(spec, transport or HttpChatTransport(spec), max_attempts)
    raise ValueError(f"unknown kind {spec.kind!r}")


class PlayerRegistry:
    """Builds runtime players, and owns every engine process they and the
    command's other engine users (oracle, eval player) search on: one per
    engine command and options, started on first use, replaced once it has
    died (killed after a timeout, or exited), and quit by `close`."""

    def __init__(self, specs, transports: dict | None = None):
        self.specs = {spec.id: spec for spec in specs}
        if len(self.specs) != len(specs):
            raise ValueError("player ids must be unique")
        self._transports = transports or {}
        self._engines: dict = {}

    def engine(self, command, options: dict | None = None):
        """The live engine process for `command` and `options`."""
        key = json.dumps([command, options or {}], sort_keys=True)
        handle = self._engines.get(key)
        if handle is None or not handle.alive:
            if handle is not None:
                handle.quit()
            handle = self._engines[key] = start_engine(command, options)
        return handle

    def player(self, player_id: str) -> Player:
        """A new player for `player_id`; an engine player searches on the
        registry's process for its command and options."""
        spec = self.specs[player_id]
        handle = self.engine(spec.engine_command, spec.engine_options) if spec.kind == UCI_ENGINE else None
        return make_player(spec, transport=self._transports.get(player_id), handle=handle)

    def close(self) -> None:
        for handle in self._engines.values():
            handle.quit()
        self._engines.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ---------------------------------------------------------------------------
# Game loop


def play_game(
    white: Player,
    black: Player,
    cfg: GameConfig,
    seed: int,
    game_id: str | None = None,
) -> GameRecord:
    """Play one full game from the initial position.

    Fatal engine/transport errors abort the game (recorded, excluded from
    ratings); forfeits and rule terminations end it normally.
    """
    if white.spec.id == black.spec.id:
        raise ValueError("a game needs two distinct players")
    game_id = game_id or game_id_for(white.spec.id, black.spec.id, seed, 0)
    rng = random.Random(seed)
    board = BoardState.start()
    history = PositionHistory.start(board)
    moves_played: list = []
    # SAN of each move played, kept only when a player's prompt shows PGN.
    sans = [] if HISTORY_PGN in (white.spec.history_format, black.spec.history_format) else None
    plies: list = []
    started = time.time()
    termination: Termination | None = None
    aborted = False
    error = None

    status = game_status(board, history, cfg.ply_cap)
    while status is None:
        mover = white if board.turn > 0 else black
        color = WHITE if board.turn > 0 else BLACK
        view = GameView(board, tuple(moves_played), color, rng, None if sans is None else tuple(sans))
        try:
            choice = mover.choose(view)
        except (EngineError, TransportError) as exc:
            aborted = True
            error = f"{mover.spec.id}: {exc}"
            break
        plies.append(
            PlyRecord(
                ply=len(plies),
                fen_before=board.fen,
                color=color,
                attempts=choice.attempts,
                move=choice.move.uci if choice.move else None,
                prompt_digest=choice.prompt_digest,
            )
        )
        if choice.move is None:
            winner = BLACK if color == WHITE else WHITE
            termination = Termination(FORFEIT, winner)
            break
        after = apply_move(board, choice.move)
        if sans is not None:
            sans.append(move_to_san(board, choice.move))
        board = after
        moves_played.append(choice.move)
        history = history.push(board)
        status = game_status(board, history, cfg.ply_cap)
    if termination is None and not aborted:
        termination = status
    return GameRecord(
        game_id=game_id,
        white_id=white.spec.id,
        black_id=black.spec.id,
        seed=seed,
        plies=plies,
        termination=termination,
        result_white=None if aborted else termination.score_for_white,
        started_at=started,
        finished_at=time.time(),
        aborted=aborted,
        error=error,
    )


def annotate_record(record: GameRecord, handle, depth: int, cache: AnalysisCache | None = None) -> None:
    """Post-game oracle annotation: per-ply Q and top-3 membership. The cache
    is read for every distinct position first; the misses are then searched
    in ply order, one queued ahead, and each is cached as it arrives."""
    engine_id = getattr(handle, "name", "engine")
    tables = {}
    for ply in record.plies:
        if ply.move is not None and ply.fen_before not in tables:
            tables[ply.fen_before] = cache.get(engine_id, ply.fen_before, depth) if cache else None
    misses = [fen for fen, table in tables.items() if table is None]
    with contextlib.closing(analyze_positions(handle, misses, depth)) as analyses:
        for table in analyses:
            tables[table.fen] = table
            if cache:
                cache.put(engine_id, table)
    for ply in record.plies:
        if ply.move is not None:
            table = tables[ply.fen_before]
            ply.q = table.q_for(ply.move)
            ply.in_top3 = table.is_top(ply.move)


def annotate_games(records, handle, depth: int, run_dir: RunDir) -> None:
    """Annotate each record, through the run's analysis cache, and write its
    file unless the file already holds those bytes (a re-annotated game)."""
    cache = AnalysisCache(run_dir.root / "analysis")
    for record in records:
        annotate_record(record, handle, depth, cache)
        path = run_dir.game_path(record.game_id)
        text = encode_game(record)
        try:
            if path.read_bytes() == text.encode():
                continue
        except FileNotFoundError:
            pass
        write_atomic(path, text)


# ---------------------------------------------------------------------------
# Persistence


def encode_game(record: GameRecord) -> str:
    """The game file's text: a header row, one row per ply, a footer row."""
    rows = [
        {
            "type": "header",
            "game_id": record.game_id,
            "white": record.white_id,
            "black": record.black_id,
            "seed": record.seed,
            "started_at": record.started_at,
        }
    ]
    for ply in record.plies:
        attempts = [{**vars(a), "move": a.move.uci if a.move else None} for a in ply.attempts]
        rows.append({"type": "ply", **vars(ply), "attempts": attempts})
    rows.append(
        {
            "type": "footer",
            "termination": record.termination.reason if record.termination else None,
            "winner": record.termination.winner if record.termination else None,
            "result_white": record.result_white,
            "finished_at": record.finished_at,
            "aborted": record.aborted,
            "error": record.error,
        }
    )
    return encode_rows(rows)


def _row(line, kind: str) -> dict:
    row = json.loads(line)
    if not isinstance(row, dict) or row.pop("type", None) != kind:
        raise ValueError(f"not a {kind} row")
    return row


def _attempt(row) -> MoveAttempt:
    if row["move"] is not None:
        row["move"] = MoveToken.from_uci(row["move"])
    return MoveAttempt(**row)


def decode_result(lines, where) -> GameRecord | None:
    """The game `encode_game` wrote as `lines` (text, or bytes when the file
    is not UTF-8), from its header and footer rows only: a record whose
    `plies` is None. None when the last line is not a footer row (missing,
    torn or not UTF-8): the game is unfinished. A header or footer row that
    does not decode raises UserError naming `where` and the line."""
    try:
        footer = _row(lines[-1], "footer")
    except (IndexError, ValueError):
        return None
    number = 1
    try:
        header = _row(lines[0], "header")
        started = {
            "game_id": header["game_id"],
            "white_id": header["white"],
            "black_id": header["black"],
            "seed": header["seed"],
            "started_at": header["started_at"],
        }
        number = len(lines)
        return GameRecord(
            plies=None,
            termination=Termination(footer["termination"], footer["winner"]) if footer["termination"] else None,
            result_white=footer["result_white"],
            finished_at=footer["finished_at"],
            aborted=footer["aborted"],
            error=footer["error"],
            **started,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise UserError.at(where, number, exc) from None


def decode_game(lines, where) -> GameRecord | None:
    """The game `encode_game` wrote as `lines`, plies included: the record of
    `decode_result`, whose errors it raises, and then every ply row. A ply
    row that does not decode raises UserError naming `where` and the
    line."""
    record = decode_result(lines, where)
    if record is None:
        return None
    plies = []
    try:
        for number, line in enumerate(lines[1:-1], 2):
            row = _row(line, "ply")
            attempts = tuple(map(_attempt, row.pop("attempts")))
            plies.append(PlyRecord(attempts=attempts, **row))
    except (KeyError, TypeError, ValueError, ChessError) as exc:
        raise UserError.at(where, number, exc) from None
    record.plies = plies
    return record


def _game_lines(path: Path) -> list:
    """The lines of the game file at `path`: text, or bytes when the file is
    not UTF-8; none when it is missing."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return []
    try:
        return data.decode().splitlines()
    except UnicodeDecodeError:  # decode row by row, so only the bad row fails
        return data.splitlines()


class RunDir:
    """On-disk layout of one run: pool.json, games/*.jsonl, leaderboard.*"""

    def __init__(self, root):
        self.root = Path(root)
        self.games = self.root / "games"
        self.games.mkdir(parents=True, exist_ok=True)

    def game_path(self, game_id: str) -> Path:
        return self.games / f"{game_id}.jsonl"

    def has_game(self, game_id: str) -> bool:
        return self.read_game(game_id) is not None

    def write_game(self, record: GameRecord) -> Path:
        path = self.game_path(record.game_id)
        write_atomic(path, encode_game(record))
        return path

    def read_game(self, game_id: str) -> GameRecord | None:
        """The finished game `game_id`, or None when its file is missing or unfinished."""
        path = self.game_path(game_id)
        return decode_game(_game_lines(path), path)

    def read_result(self, game_id: str) -> GameRecord | None:
        """The finished game `game_id` without its plies (`plies` is None),
        decoded from its header and footer rows; None as for `read_game`."""
        path = self.game_path(game_id)
        return decode_result(_game_lines(path), path)

    def game_ids(self) -> list:
        return sorted(p.stem for p in self.games.glob("*.jsonl"))

    def write_pool(self, pool) -> None:
        write_atomic(self.root / "pool.json", pool_to_json(pool))

    def append_round(self, entry: dict) -> None:
        append_row(self.root / "rounds.jsonl", entry)

    def reset_rounds(self) -> None:
        path = self.root / "rounds.jsonl"
        if path.exists():
            path.unlink()

    def write_leaderboard(self, entries) -> None:
        write_atomic(self.root / "leaderboard.md", render_leaderboard(entries))
        payload = [
            {
                "rank": e.rank,
                "id": e.id,
                "mode": e.mode,
                "legal_moves": e.legal_moves,
                "rating": e.r,
                "rd": e.rd,
                "interval": list(e.interval),
                "games": e.games,
            }
            for e in entries
        ]
        write_atomic(self.root / "leaderboard.json", json.dumps(payload, indent=2) + "\n")


def verify_replay(record: GameRecord) -> None:
    """Re-derive every stored FEN from the move list; raises on any drift."""
    board = BoardState.start()
    for ply in record.plies:
        if board.fen != ply.fen_before:
            raise AssertionError(
                f"game {record.game_id} ply {ply.ply}: stored {ply.fen_before}, replayed {board.fen}"
            )
        if ply.move is not None:
            board = apply_move(board, MoveToken.from_uci(ply.move))


# ---------------------------------------------------------------------------
# Matches and tournaments


def fan_out(fn, items, width: int) -> list:
    """`[fn(item) for item in items]`, on up to `width` daemon threads that
    take the items in index order. Once an item raises, no further item
    starts, and the error of the lowest failed index is raised once the
    started items have ended. An interrupt of the calling thread starts no
    further item and is raised at once."""
    if width <= 1:
        return [fn(item) for item in items]
    results = [None] * len(items)
    errors = {}
    lock = threading.Lock()
    pending = iter(range(len(items)))
    stop = threading.Event()

    def take():
        with lock:
            return None if stop.is_set() else next(pending, None)

    def work():
        for index in iter(take, None):
            try:
                results[index] = fn(items[index])
            except BaseException as exc:  # raised again below, on the calling thread
                errors[index] = exc
                stop.set()

    threads = [threading.Thread(target=work, daemon=True) for _ in range(min(width, len(items)))]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    except BaseException:
        stop.set()
        raise
    if errors:
        raise errors[min(errors)]
    return results


def run_match(
    req: MatchRequest,
    pool: list,
    cfg: GameConfig,
    registry: PlayerRegistry,
    run_dir: RunDir | None = None,
    seed: int = 0,
) -> list:
    """Play an even number of games with alternating colors, then update both
    players' ratings from pre-game snapshots, game by game in index order.

    Finished games are read back from `run_dir` instead of played, from
    their header and footer rows only: their records' `plies` is None. When a
    model player meets a non-engine player, the unfinished games play at
    once, one thread per game, so their transport waits overlap; other
    matches play in order on the calling thread. An engine that dies in a
    game aborts that game only: the registry restarts it for the next. An
    exception other than a game's own engine or transport failure is raised
    as `fan_out` raises it.
    """
    entries = {p.id: p for p in pool}
    if req.a_id not in entries or req.b_id not in entries:
        raise KeyError("both match players must be in the pool")
    games = []
    for index in range(req.n_games):
        white_id, black_id = (req.a_id, req.b_id) if index % 2 == 0 else (req.b_id, req.a_id)
        game_seed = derive_seed(seed, f"game:{index}")
        games.append((game_id_for(white_id, black_id, game_seed, index), white_id, black_id, game_seed))
    records = [run_dir.read_result(game[0]) if run_dir is not None else None for game in games]
    for game, record in zip(games, records):
        if record is not None and (record.game_id, record.white_id, record.black_id, record.seed) != game:
            gid, white_id, black_id, game_seed = game
            raise UserError(
                f"{run_dir.game_path(gid)}: header is game {record.game_id}, {record.white_id} vs "
                f"{record.black_id}, seed {record.seed}; expected game {gid}, {white_id} vs "
                f"{black_id}, seed {game_seed}"
            )
    missing = [index for index, record in enumerate(records) if record is None]
    if missing:
        def play(index):
            gid, white_id, black_id, game_seed = games[index]
            # Built per game: an engine that died in the last game is restarted.
            white, black = registry.player(white_id), registry.player(black_id)
            record = play_game(white, black, cfg, game_seed, game_id=gid)
            if run_dir is not None:
                run_dir.write_game(record)
            return record

        # An engine handle serves one search at a time, and games without a
        # model player have no wait to overlap.
        kinds = {registry.specs[req.a_id].kind, registry.specs[req.b_id].kind}
        width = len(missing) if LLM_API in kinds and UCI_ENGINE not in kinds else 1
        for index, record in zip(missing, fan_out(play, missing, width)):
            records[index] = record
    for record in records:
        if record.aborted:
            continue
        white_entry, black_entry = entries[record.white_id], entries[record.black_id]
        white_entry.rating, black_entry.rating = update_pair(
            white_entry.rating,
            black_entry.rating,
            MatchOutcome(record.result_white),
            cfg.rating,
        )
    return records


def run_tournament(
    pool: list,
    rounds: int,
    registry: PlayerRegistry,
    cfg: GameConfig,
    games_per_match: int = 2,
    startup_id: str | None = None,
    seed: int = 0,
    run_dir: RunDir | None = None,
    stop_rd: float | None = None,
) -> list:
    """Initiator selection -> opponent sampling -> match, for each round.

    Specified startup names round 1's initiator; later rounds (and random
    startup throughout) draw uniformly from the seeded stream. With
    `stop_rd` set, a player whose deviation reaches it stops initiating
    matches (it can still be sampled as an opponent), and the tournament
    ends early once nobody needs more games.
    """
    if len(pool) < 2:
        raise ValueError("a tournament needs at least 2 players")
    rng = random.Random(seed)
    logged = False
    for round_idx in range(rounds):
        candidates = pool
        if stop_rd is not None:
            candidates = [p for p in pool if p.rating.rd > stop_rd]
            if not candidates:
                break
        chosen_id = startup_id if (round_idx == 0 and startup_id) else None
        initiator = select_initiator(candidates, player_id=chosen_id, rng=rng)
        opponent = sample_opponent(pool, initiator)
        req = MatchRequest(initiator.id, opponent.id, games_per_match)
        match_seed = derive_seed(seed, f"round:{round_idx}:{initiator.id}:{opponent.id}")
        records = run_match(req, pool, cfg, registry, run_dir=run_dir, seed=match_seed)
        if run_dir is not None:
            # The previous run's log stands until this run has a round to log.
            if not logged:
                run_dir.reset_rounds()
                logged = True
            run_dir.append_round(
                {
                    "round": round_idx,
                    "initiator": initiator.id,
                    "opponent": opponent.id,
                    "games": [r.game_id for r in records],
                    "results_white": [r.result_white for r in records],
                }
            )
    if run_dir is not None:
        if not logged:
            run_dir.reset_rounds()
        run_dir.write_pool(pool)
        run_dir.write_leaderboard(compute_leaderboard(pool, cfg.rating))
    return pool


# ---------------------------------------------------------------------------
# Leaderboard and metrics


def compute_leaderboard(pool, rating_cfg: RatingConfig | None = None) -> list:
    """Players with reliable ratings (rd <= threshold), best first."""
    cfg = rating_cfg or RatingConfig()
    listed = [p for p in pool if p.rating.rd <= cfg.display_rd_threshold]
    listed.sort(key=lambda p: (-p.rating.r, p.rating.rd, p.id))
    entries = []
    for rank, p in enumerate(listed, start=1):
        lo = round(p.rating.r - INTERVAL_Z * p.rating.rd)
        hi = round(p.rating.r + INTERVAL_Z * p.rating.rd)
        entries.append(
            LeaderboardEntry(
                rank=rank,
                id=p.id,
                mode=p.mode,
                legal_moves=p.legal_moves,
                r=p.rating.r,
                rd=p.rating.rd,
                interval=(lo, hi),
                games=p.rating.games_played,
            )
        )
    return entries


def render_leaderboard(entries) -> str:
    header = "| Rank | Model | Mode | Legal Moves | Rating | RD | Interval | Games |"
    rule = "|---|---|---|---|---|---|---|---|"
    lines = [header, rule]
    for e in entries:
        lines.append(
            f"| {e.rank} | {e.id} | {e.mode or '-'} | {'yes' if e.legal_moves else 'no'} "
            f"| {round(e.r)} | {round(e.rd)} | ({e.interval[0]}, {e.interval[1]}) | {e.games} |"
        )
    return "\n".join(lines) + "\n"


def render_player_metrics(records, player_ids) -> str:
    """One row of `compute_secondary_metrics` over `records` per player."""
    lines = ["| Player | W | L | D | Legal Mv% | Top Mv% |", "|---|---|---|---|---|---|"]
    for player_id in player_ids:
        m = compute_secondary_metrics(records, player_id)
        top = "-" if m.top_move_rate is None else f"{100 * m.top_move_rate:.1f}"
        lines.append(
            f"| {player_id} | {m.wins} | {m.losses} | {m.draws} | {100 * m.legal_move_rate:.1f} | {top} |"
        )
    return "\n".join(lines) + "\n"


def compute_secondary_metrics(records, player_id: str) -> SecondaryMetrics:
    """Per-ply attempt rates over every game the player finished.

    Error rates divide by total attempts; the legal-move rate counts plies
    whose first attempt was already legal; the top-move rate is over
    annotated plies only (None when nothing is annotated).
    """
    wins = losses = draws = 0
    attempts = []
    plies = []
    for record in records:
        if record.aborted or player_id not in (record.white_id, record.black_id):
            continue
        s = record.result_for(player_id)
        if s == 1.0:
            wins += 1
        elif s == 0.0:
            losses += 1
        else:
            draws += 1
        my_color = WHITE if record.white_id == player_id else BLACK
        for ply in record.plies:
            if ply.color != my_color:
                continue
            plies.append(ply)
            attempts.extend(ply.attempts)
    n_attempts = len(attempts) or 1
    first_legal = sum(1 for p in plies if p.attempts and p.attempts[0].outcome == OK)
    annotated = [p for p in plies if p.in_top3 is not None]
    return SecondaryMetrics(
        wins=wins,
        losses=losses,
        draws=draws,
        parsing_err_rate=sum(a.outcome == "parsing_error" for a in attempts) / n_attempts,
        illegal_move_rate=sum(a.outcome == "illegal_move" for a in attempts) / n_attempts,
        forbidden_rate=sum(a.outcome == "forbidden_thinking" for a in attempts) / n_attempts,
        legal_move_rate=first_legal / (len(plies) or 1),
        top_move_rate=(sum(p.in_top3 for p in annotated) / len(annotated)) if annotated else None,
    )
