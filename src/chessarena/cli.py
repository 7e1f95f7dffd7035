"""Operator entry point.

Subcommands: tournament, match, game, eval {basic|moves|puzzles},
leaderboard, engine-check. Configuration is one JSON file plus flag
overrides; secrets only ever come from environment variables. Exit codes:
0 success, 1 user error, 2 infrastructure error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
import typing
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from . import UserError, arena, evals
from .core import BoardState
from .engine import EngineError, analyze_all_moves, start_engine
from .jsonlog import write_rows
from .players import LLM_API, PlayerSpec, RANDOM, TransportError, UCI_ENGINE
from .rating import PoolEntry, RatingConfig, RatingState, pool_from_json

DEFAULT_RUN_DIR = "runs/run"
RUN_DIR_ENV = "CHESSARENA_RUN_DIR"


@dataclass(frozen=True)
class EngineConfig:
    path: str = ""
    depth: int = 12
    threads: int = 1
    hash: int = 16

    @property
    def options(self) -> dict:
        return {"Threads": self.threads, "Hash": self.hash}


@dataclass
class RunConfig:
    players: list = dc_field(default_factory=list)
    rating: RatingConfig = dc_field(default_factory=RatingConfig)
    engine: EngineConfig = dc_field(default_factory=EngineConfig)
    concurrency: int = 1
    run_dir: str | None = None
    seed: int = 0
    ply_cap: int = 400

    def __post_init__(self):
        if self.ply_cap < 2:  # below 2 every game ends, rated, before its first move
            raise ValueError(f"ply_cap must be at least 2, got {self.ply_cap}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be at least 1, got {self.concurrency}")

    def spec(self, player_id: str) -> PlayerSpec:
        for spec in self.players:
            if spec.id == player_id:
                return spec
        raise UserError(f"player {player_id!r} is not in the config")

    @property
    def game_config(self) -> arena.GameConfig:
        return arena.GameConfig(ply_cap=self.ply_cap, rating=self.rating)


def _block(data, cls, where: str):
    """The dataclass `cls` built from the JSON object `data`. Anything but an
    object, an unknown key, a value of the wrong type (an int passes for a
    float) or one that `cls` rejects raises UserError naming `where`."""
    if not isinstance(data, dict):
        raise UserError(f"{where} must be a JSON object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    for key, value in sorted(data.items()):
        hint = hints.get(key)
        if hint is None:
            raise UserError(f"unknown key {key!r} in {where}")
        kind = (int, float) if hint is float else hint
        if isinstance(value, bool) != (hint is bool) or not isinstance(value, kind):
            raise UserError(f"{where}: {key} must be {getattr(hint, '__name__', hint)}, got {value!r}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise UserError(f"{where}: {exc}") from None


def load_config(path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise UserError(f"config file not found: {path}") from None
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for a file that is not UTF-8
        raise UserError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UserError(f"config must be a JSON object, got {type(data).__name__}")
    players = data.get("players", [])
    if not isinstance(players, list):
        raise UserError(f"players must be a JSON list, got {type(players).__name__}")
    cfg = _block({
        **data,
        "players": [_block(row, PlayerSpec, f"players[{i}]") for i, row in enumerate(players)],
        "rating": _block(data.get("rating", {}), RatingConfig, "rating"),
        "engine": _block(data.get("engine", {}), EngineConfig, "engine"),
    }, RunConfig, "config")
    ids = [p.id for p in cfg.players]
    if len(ids) != len(set(ids)):
        raise UserError("player ids must be unique")
    for i, spec in enumerate(cfg.players):
        if spec.kind == LLM_API and not spec.endpoint:  # a config player talks HTTP
            raise UserError(f"players[{i}]: an llm_api player needs an endpoint")
    return cfg


def resolve_run_dir(flag_value, cfg: RunConfig) -> Path:
    chosen = flag_value or cfg.run_dir or os.environ.get(RUN_DIR_ENV) or DEFAULT_RUN_DIR
    return Path(chosen)


def build_pool(cfg: RunConfig) -> list:
    """Fresh pool from the config.

    Commands always recompute the rating trajectory from this fresh pool;
    finished games reload by content-addressed id, so re-running a command
    with the same seed reproduces the identical end state, and raising
    --rounds extends a previous run without replaying its games.
    """
    return [
        PoolEntry(
            id=spec.id,
            rating=RatingState.fresh(cfg.rating),
            mode=spec.play_mode if spec.kind == LLM_API else None,
            legal_moves=spec.provide_legal_moves,
        )
        for spec in cfg.players
    ]


def _oracle(cfg: RunConfig, registry: arena.PlayerRegistry):
    """The engine that annotates games: the registry's live process for
    engine.path and engine.options. Asked for before the first game, so a
    bad engine.path fails fast, and again before annotation."""
    if not cfg.engine.path:
        raise UserError("annotation requires engine.path in the config")
    return registry.engine(cfg.engine.path, cfg.engine.options)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_tournament(args) -> int:
    cfg = load_config(args.config)
    run_dir = arena.RunDir(resolve_run_dir(args.run_dir, cfg))
    pool = build_pool(cfg)
    if len(pool) < 2:
        raise UserError("tournament needs at least 2 players in the config")
    startup_id = None
    if args.startup != "random":
        if not args.startup.startswith("specified:"):
            raise UserError("--startup must be 'random' or 'specified:<player id>'")
        startup_id = args.startup.split(":", 1)[1]
        cfg.spec(startup_id)
    seed = cfg.seed if args.seed is None else args.seed
    with arena.PlayerRegistry(cfg.players) as registry:
        if args.annotate:
            _oracle(cfg, registry)
        pool = arena.run_tournament(
            pool,
            rounds=args.rounds,
            registry=registry,
            cfg=cfg.game_config,
            games_per_match=args.games_per_match,
            startup_id=startup_id,
            seed=seed,
            run_dir=run_dir,
            stop_rd=args.stop_rd,
        )
        if args.annotate:
            records = [r for r in map(run_dir.read_game, run_dir.game_ids()) if r is not None]
            arena.annotate_games(records, _oracle(cfg, registry), cfg.engine.depth, run_dir)
    # run_tournament wrote the leaderboard files; this prints the same table.
    print(arena.render_leaderboard(arena.compute_leaderboard(pool, cfg.rating)))
    if args.annotate:
        print(arena.render_player_metrics(records, [spec.id for spec in cfg.players]))
    print(f"run dir: {run_dir.root}")
    return 0


def cmd_match(args) -> int:
    cfg = load_config(args.config)
    if args.n <= 0 or args.n % 2:
        raise UserError(f"--n must be a positive even number, got {args.n}")
    run_dir = arena.RunDir(resolve_run_dir(args.run_dir, cfg))
    cfg.spec(args.white), cfg.spec(args.black)
    pool = build_pool(cfg)
    seed = cfg.seed if args.seed is None else args.seed
    req = arena.MatchRequest(args.white, args.black, args.n)
    with arena.PlayerRegistry(cfg.players) as registry:
        if args.annotate:
            _oracle(cfg, registry)
        records = arena.run_match(req, pool, cfg.game_config, registry, run_dir=run_dir, seed=seed)
        # Resumed games come back without their plies, which annotation and
        # the per-game line need; a ply row that does not decode stops here,
        # before any file is written.
        records = [run_dir.read_game(r.game_id) if r.plies is None else r for r in records]
        if args.annotate:
            arena.annotate_games(records, _oracle(cfg, registry), cfg.engine.depth, run_dir)
    run_dir.write_pool(pool)
    run_dir.write_leaderboard(arena.compute_leaderboard(pool, cfg.rating))
    for record in records:
        _print_game_line(record, run_dir)
    return 0


def cmd_game(args) -> int:
    cfg = load_config(args.config)
    run_dir = arena.RunDir(resolve_run_dir(args.run_dir, cfg))
    cfg.spec(args.white), cfg.spec(args.black)
    seed = cfg.seed if args.seed is None else args.seed
    with arena.PlayerRegistry(cfg.players) as registry:
        if args.annotate:
            _oracle(cfg, registry)
        record = arena.play_game(registry.player(args.white), registry.player(args.black), cfg.game_config, seed)
        # Written before annotation, so a failing oracle keeps the game.
        run_dir.write_game(record)
        if args.annotate:
            arena.annotate_games([record], _oracle(cfg, registry), cfg.engine.depth, run_dir)
    _print_game_line(record, run_dir)
    return 0


def _print_game_line(record, run_dir) -> None:
    if record.aborted:
        outcome = f"aborted ({record.error})"
    else:
        score = {1.0: "1-0", 0.0: "0-1", 0.5: "1/2-1/2"}[record.result_white]
        outcome = f"{score} {record.termination.reason}"
    print(
        f"{record.game_id}: {record.white_id} vs {record.black_id} -> {outcome} "
        f"({len(record.plies)} plies) {run_dir.game_path(record.game_id)}"
    )


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise UserError(f"{what} not found: {p}")
    return p


def cmd_eval_basic(args) -> int:
    if args.player:  # resolved before any file is written
        cfg = load_config(args.config) if args.config else RunConfig()
        spec = cfg.spec(args.player)
        if spec.kind != LLM_API:
            raise UserError("basic understanding needs an llm_api player")
    if args.fens:
        fens = evals.load_fens(_require_file(args.fens, "FEN file"))
        if not fens:
            raise UserError(f"no FENs in {args.fens}")
    else:
        fens = evals.self_play_fens(max(args.n, 50), args.seed)
    items = evals.build_basic_understanding_set(fens, args.n, args.seed)
    out = Path(args.out)
    write_rows(out, map(dataclasses.asdict, items))
    print(f"wrote {len(items)} items to {out}")
    if not args.player:
        return 0
    report = evals.EvalReport.basic(evals.run_basic_understanding(spec, items, workers=cfg.concurrency))
    report.write_jsonl(out.with_suffix(".report.jsonl"))
    print(report.render())
    return 0


def cmd_eval_moves(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    items = evals.load_move_items(_require_file(args.items, "items file"))
    if args.max:
        items = items[: args.max]
    if not items:
        raise UserError(f"no items in {args.items}")
    spec = _player_spec(cfg, args.player)
    with arena.PlayerRegistry([spec]) as registry:
        scores = evals.run_move_selection(
            spec, items, handle=registry.player(spec.id).handle, rng=random.Random(args.seed),
            workers=cfg.concurrency,
        )
    report = evals.EvalReport.moves(scores)
    out = Path(args.out or "moves.report.jsonl")
    report.write_jsonl(out)
    print(report.render())
    return 0


def cmd_eval_puzzles(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    puzzles = evals.load_lichess_puzzles(
        _require_file(args.csv, "puzzle CSV"),
        min_rating=args.min_rating,
        max_rating=args.max_rating,
        limit=args.max,
    )
    if not puzzles:
        raise UserError("no puzzles matched the filters")
    spec = _player_spec(cfg, args.player, depth=args.depth)
    with arena.PlayerRegistry([spec]) as registry:
        outcomes = evals.run_puzzles(
            spec, puzzles, handle=registry.player(spec.id).handle, rng=random.Random(args.seed),
            workers=cfg.concurrency,
        )
    report = evals.EvalReport.puzzles(outcomes)
    out = Path(args.out or "puzzles.report.jsonl")
    report.write_jsonl(out)
    print(report.render())
    return 0


def _player_spec(cfg: RunConfig, player_id: str, depth: int | None = None) -> PlayerSpec:
    """Resolve a player id; 'random' and 'stockfish'/engine paths work without
    a config entry so desk-scale eval runs stay one-liners."""
    try:
        spec = cfg.spec(player_id)
    except UserError:
        if player_id == "random":
            return PlayerSpec(id="random", kind=RANDOM)
        if os.path.sep in player_id or player_id in ("stockfish", "toyfish"):
            command = (
                f"{sys.executable} -m chessarena.toy_engine" if player_id == "toyfish" else player_id
            )
            return PlayerSpec(
                id=player_id,
                kind=UCI_ENGINE,
                engine_command=command,
                engine_limits={"depth": depth or 12},
            )
        raise
    if depth is not None and spec.kind == UCI_ENGINE:
        return dataclasses.replace(spec, engine_limits={"depth": depth})
    return spec


def cmd_leaderboard(args) -> int:
    # Prints only: the run's leaderboard files are written by the command that
    # rated the games, with its config's display threshold.
    root = resolve_run_dir(args.run_dir, RunConfig())
    pool_path = root / "pool.json"
    if not pool_path.exists():
        raise UserError(f"no pool.json in {root}; run a tournament or match first")
    try:
        pool = pool_from_json(pool_path.read_text())
    except ValueError as exc:  # JSONDecodeError is a ValueError
        raise UserError(f"{pool_path}: {exc}") from None
    rating_cfg = RatingConfig() if not args.all else RatingConfig(display_rd_threshold=float("inf"))
    print(arena.render_leaderboard(arena.compute_leaderboard(pool, rating_cfg)))
    return 0


def cmd_engine_check(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    command = args.engine or cfg.engine.path
    if not command:
        raise UserError("pass --engine or set engine.path in the config")
    with start_engine(command, cfg.engine.options) as handle:
        table = analyze_all_moves(handle, BoardState.start().fen, depth=min(cfg.engine.depth, 8))
        print(f"engine: {handle.name}")
        print(f"analyzed start position: {len(table.evals)} moves, top {sorted(table.top_moves)}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chessarena",
        description="Competitive chess arena for automated players (LLM endpoints, UCI engines, a random baseline).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON run config")
        p.add_argument("--run-dir", help=f"run directory (default: ${RUN_DIR_ENV} or {DEFAULT_RUN_DIR})")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("tournament", help="run rated rounds with the pairing sampler")
    add_common(p)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--games-per-match", type=int, default=2, help="even number of games per pairing")
    p.add_argument("--startup", default="random", help="'random' or 'specified:<player id>'")
    p.add_argument("--stop-rd", type=float, default=None,
                   help="stop initiating matches for players whose rd reached this value")
    p.add_argument("--annotate", action="store_true", help="post-game engine annotation (Q / top-3)")
    p.set_defaults(func=cmd_tournament)

    p = sub.add_parser("match", help="play an even number of games between two players")
    add_common(p)
    p.add_argument("--white", required=True, help="player id for game 1 white")
    p.add_argument("--black", required=True)
    p.add_argument("--n", type=int, default=2, help="number of games (even)")
    p.add_argument("--annotate", action="store_true")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("game", help="play a single game")
    add_common(p)
    p.add_argument("--white", required=True)
    p.add_argument("--black", required=True)
    p.add_argument("--annotate", action="store_true")
    p.set_defaults(func=cmd_game)

    ev = sub.add_parser("eval", help="fine-grained evaluation tasks")
    ev_sub = ev.add_subparsers(dest="task", required=True)

    p = ev_sub.add_parser("basic", help="piece identification + per-square legal moves")
    p.add_argument("--config", help="JSON run config (needed with --player)")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fens", help="file with one FEN per line (default: seeded self-play corpus)")
    p.add_argument("--out", default="basic.items.jsonl")
    p.add_argument("--player", help="llm player id to evaluate")
    p.set_defaults(func=cmd_eval_basic)

    p = ev_sub.add_parser("moves", help="single-move selection vs engine oracle")
    p.add_argument("--config")
    p.add_argument("--items", required=True, help="items JSONL with embedded oracle tables")
    p.add_argument("--player", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max", type=int, help="cap the number of items")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_moves)

    p = ev_sub.add_parser("puzzles", help="exact-match puzzle solving")
    p.add_argument("--config")
    p.add_argument("--csv", required=True, help="Lichess puzzle database CSV")
    p.add_argument("--player", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, help="engine search depth for engine players")
    p.add_argument("--max", type=int, help="cap the number of puzzles")
    p.add_argument("--min-rating", type=int)
    p.add_argument("--max-rating", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_puzzles)

    p = sub.add_parser("leaderboard", help="print the rating table of a run (writes no file)")
    p.add_argument("--run-dir")
    p.add_argument("--all", action="store_true", help="print unreliable (rd > threshold) entries too")
    p.set_defaults(func=cmd_leaderboard)

    p = sub.add_parser("engine-check", help="handshake + a shallow analysis smoke test")
    p.add_argument("--config")
    p.add_argument("--engine", help="engine command (overrides config engine.path)")
    p.set_defaults(func=cmd_engine_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EngineError, TransportError) as exc:
        print(f"infrastructure error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted; partial results were persisted", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
