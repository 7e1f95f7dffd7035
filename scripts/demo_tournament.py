#!/usr/bin/env python3
"""Offline demo: a rated tournament between the bundled engine and three
random baselines, with post-hoc engine annotation and secondary metrics.

Runs in under a minute with no network or external binaries:

    python scripts/demo_tournament.py --rounds 12 --run-dir runs/demo
"""

import argparse
import sys

from chessarena.arena import (
    GameConfig,
    PlayerRegistry,
    RunDir,
    annotate_games,
    compute_leaderboard,
    compute_secondary_metrics,
    render_leaderboard,
    run_tournament,
)
from chessarena.engine import start_engine
from chessarena.players import PlayerSpec
from chessarena.rating import PoolEntry, RatingConfig, RatingState

TOY_CMD = f"{sys.executable} -m chessarena.toy_engine"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--games-per-match", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--run-dir", default="runs/demo")
    parser.add_argument("--annotate-depth", type=int, default=1)
    args = parser.parse_args()

    specs = [
        PlayerSpec(id="toyfish", kind="uci_engine", engine_command=TOY_CMD,
                   engine_limits={"depth": 4}),
    ] + [PlayerSpec(id=f"random-{i}", kind="random") for i in range(3)]
    pool = [
        PoolEntry(id=s.id, rating=RatingState.fresh(RatingConfig()),
                  mode=None if s.kind != "llm_api" else s.play_mode,
                  legal_moves=s.provide_legal_moves)
        for s in specs
    ]
    run_dir = RunDir(args.run_dir)
    cfg = GameConfig(ply_cap=200)
    with PlayerRegistry(specs) as registry:
        pool = run_tournament(
            pool,
            rounds=args.rounds,
            registry=registry,
            cfg=cfg,
            games_per_match=args.games_per_match,
            seed=args.seed,
            run_dir=run_dir,
        )

    records = [r for r in map(run_dir.read_game, run_dir.game_ids()) if r is not None]
    with start_engine(TOY_CMD, options={"Threads": 1}) as handle:
        annotate_games(records, handle, args.annotate_depth, run_dir)

    print(render_leaderboard(compute_leaderboard(pool)))
    print("| Player | W | L | D | Legal Mv% | Top Mv% |")
    print("|---|---|---|---|---|---|")
    for spec in specs:
        m = compute_secondary_metrics(records, spec.id)
        top = f"{100 * m.top_move_rate:.1f}" if m.top_move_rate is not None else "-"
        print(
            f"| {spec.id} | {m.wins} | {m.losses} | {m.draws} "
            f"| {100 * m.legal_move_rate:.1f} | {top} |"
        )
    print(f"\nartifacts in {run_dir.root}")


if __name__ == "__main__":
    main()
