import json
import random
import sys
from pathlib import Path

import pytest

from chessarena import arena, cli
from chessarena.cli import UserError, load_config, main
from chessarena.engine import start_engine
from chessarena.evals import MoveSelectionItem, save_move_items

from conftest import PUZZLES_CSV, playout, stateful_engine

TOY_CMD = f"{sys.executable} -m chessarena.toy_engine"
DEMO = Path(__file__).resolve().parent.parent / "configs" / "demo.json"


def write_config(tmp_path, run_dir=None, extra=None, n_random=4):
    config = {
        "players": [{"id": f"rand-{i}", "kind": "random"} for i in range(n_random)],
        "seed": 0,
        "engine": {"path": TOY_CMD, "depth": 2},
    }
    if run_dir is not None:
        config["run_dir"] = str(run_dir)
    if extra:
        config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"playerz": []}))
    with pytest.raises(UserError, match="'playerz'"):
        load_config(path)
    path.write_text(json.dumps({"players": [{"id": "a", "kind": "random", "elo": 1}]}))
    with pytest.raises(UserError, match="'elo' in players\\[0\\]"):
        load_config(path)
    path.write_text(json.dumps({"rating": {"initial": 1200}}))
    with pytest.raises(UserError, match="'initial' in rating"):
        load_config(path)
    path.write_text(json.dumps({"engine": {"binary": "sf"}}))
    with pytest.raises(UserError, match="'binary' in engine"):
        load_config(path)


def test_load_config_other_errors(tmp_path):
    with pytest.raises(UserError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(UserError, match="not valid JSON"):
        load_config(bad)
    dupes = tmp_path / "dupes.json"
    dupes.write_text(json.dumps({"players": [{"id": "a", "kind": "random"}] * 2}))
    with pytest.raises(UserError, match="unique"):
        load_config(dupes)
    badspec = tmp_path / "badspec.json"
    badspec.write_text(json.dumps({"players": [{"id": "a", "kind": "wizard"}]}))
    with pytest.raises(UserError, match="players\\[0\\]"):
        load_config(badspec)


@pytest.mark.parametrize(
    "config, expected",
    [
        ({"rating": {"min_rd": 400}}, "rating: need 0 < min_rd < init_rd"),
        ({"concurrency": "many"}, "config: concurrency must be int, got 'many'"),
        ({"rating": {"init_rd": "abc"}}, "rating: init_rd must be float, got 'abc'"),
        ({"rating": {"init_r": "abc"}}, "rating: init_r must be float, got 'abc'"),
        ({"players": "x"}, "players must be a JSON list, got str"),
        ([1], "config must be a JSON object, got list"),
        ({"ply_cap": 1}, "config: ply_cap must be at least 2, got 1"),
        ({"concurrency": 0}, "config: concurrency must be at least 1, got 0"),
        ({"players": [{"id": "r", "kind": "random"}, {"id": "m", "kind": "llm_api"}]},
         "players[1]: an llm_api player needs an endpoint"),
    ],
    ids=["min-rd-above-init-rd", "concurrency-not-int", "init-rd-not-number", "init-r-not-number",
         "players-not-a-list", "config-not-an-object", "ply-cap-below-2", "concurrency-below-1",
         "llm-player-without-endpoint"],
)
def test_a_malformed_config_is_one_error_line(tmp_path, capsys, config, expected):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    err = _one_error_line(capsys, ["game", "--config", str(path), "--white", "a", "--black", "b"])
    assert err == f"error: {expected}\n"


def test_game_subcommand(tmp_path, capsys):
    config = write_config(tmp_path, run_dir=tmp_path / "run")
    code = main(["game", "--config", str(config), "--white", "rand-0", "--black", "rand-1", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rand-0 vs rand-1" in out
    games = list((tmp_path / "run" / "games").glob("*.jsonl"))
    assert len(games) == 1


def test_game_annotate_keeps_its_game_when_the_oracle_dies(tmp_path, capsys):
    oracle = tmp_path / "exits_on_go.py"
    oracle.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    t = line.strip()\n"
        "    if t == 'uci':\n"
        "        print('id name ExitsOnGo'); print('uciok', flush=True)\n"
        "    elif t == 'isready':\n"
        "        print('readyok', flush=True)\n"
        "    elif t.startswith('go'):\n"
        "        sys.exit(0)\n"
    )
    run_dir = tmp_path / "run"
    config = write_config(tmp_path, run_dir=run_dir,
                          extra={"ply_cap": 8, "engine": {"path": f"{sys.executable} {oracle}"}})
    assert main(["game", "--config", str(config), "--white", "rand-0", "--black", "rand-1", "--annotate"]) == 2
    assert capsys.readouterr().err.startswith("infrastructure error: ")
    (game_file,) = (run_dir / "games").glob("*.jsonl")
    record = arena.RunDir(run_dir).read_game(game_file.stem)
    assert record.plies and all(ply.q is None for ply in record.plies)


def test_game_unknown_player_is_user_error(tmp_path, capsys):
    config = write_config(tmp_path, run_dir=tmp_path / "run")
    code = main(["game", "--config", str(config), "--white", "ghost", "--black", "rand-1"])
    assert code == 1
    assert "ghost" in capsys.readouterr().err


def test_match_rejects_odd_n(tmp_path, capsys):
    config = write_config(tmp_path, run_dir=tmp_path / "run")
    code = main(["match", "--config", str(config), "--white", "rand-0", "--black", "rand-1", "--n", "3"])
    assert code == 1
    assert "even" in capsys.readouterr().err


def test_match_alternates_and_writes_pool(tmp_path, capsys):
    config = write_config(tmp_path, run_dir=tmp_path / "run")
    code = main(["match", "--config", str(config), "--white", "rand-0", "--black", "rand-1", "--n", "4"])
    assert code == 0
    pool = json.loads((tmp_path / "run" / "pool.json").read_text())
    games = {row["id"]: row["games"] for row in pool}
    assert games["rand-0"] == 4 and games["rand-1"] == 4


def test_tournament_determinism_and_leaderboard(tmp_path, capsys):
    artifacts = {}
    for name in ("a", "b"):
        run_dir = tmp_path / name
        config = write_config(tmp_path, run_dir=run_dir)
        code = main(
            ["tournament", "--config", str(config), "--rounds", "6", "--startup", "random", "--seed", "7"]
        )
        assert code == 0
        artifacts[name] = {
            "pool": (run_dir / "pool.json").read_bytes(),
            "lb_md": (run_dir / "leaderboard.md").read_bytes(),
            "lb_json": (run_dir / "leaderboard.json").read_bytes(),
            "rounds": (run_dir / "rounds.jsonl").read_bytes(),
        }
    assert artifacts["a"] == artifacts["b"]
    out = capsys.readouterr().out
    assert "| Rank | Model | Mode | Legal Moves | Rating | RD | Interval | Games |" in out


def test_tournament_writes_each_leaderboard_file_once(tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    config = write_config(tmp_path, run_dir=run_dir, extra={"ply_cap": 12})
    written = []
    real_write = arena.write_atomic
    monkeypatch.setattr(arena, "write_atomic", lambda path, text: written.append(path) or real_write(path, text))
    assert main(["tournament", "--config", str(config), "--rounds", "2"]) == 0
    assert written.count(run_dir / "leaderboard.md") == 1
    assert written.count(run_dir / "leaderboard.json") == 1
    assert written.count(run_dir / "pool.json") == 1


def test_tournament_specified_startup(tmp_path):
    run_dir = tmp_path / "run"
    config = write_config(tmp_path, run_dir=run_dir)
    code = main(
        ["tournament", "--config", str(config), "--rounds", "2", "--startup", "specified:rand-2"]
    )
    assert code == 0
    first = json.loads((run_dir / "rounds.jsonl").read_text().splitlines()[0])
    assert first["initiator"] == "rand-2"


def test_tournament_bad_startup_flag(tmp_path, capsys):
    config = write_config(tmp_path, run_dir=tmp_path / "run")
    assert main(["tournament", "--config", str(config), "--rounds", "1", "--startup", "bogus"]) == 1
    assert main(["tournament", "--config", str(config), "--rounds", "1", "--startup", "specified:ghost"]) == 1


def test_tournament_annotation_fails_fast_without_engine(tmp_path, capsys):
    config = write_config(tmp_path, run_dir=tmp_path / "run", extra={"engine": {}})
    code = main(["tournament", "--config", str(config), "--rounds", "1", "--annotate"])
    assert code == 1
    assert "engine.path" in capsys.readouterr().err
    assert not list((tmp_path / "run" / "games").glob("*.jsonl"))


def test_tournament_with_annotation(tmp_path):
    run_dir = tmp_path / "run"
    config = write_config(tmp_path, run_dir=run_dir, n_random=2)
    code = main(["tournament", "--config", str(config), "--rounds", "1", "--annotate"])
    assert code == 0
    game_file = next((run_dir / "games").glob("*.jsonl"))
    plies = [json.loads(l) for l in game_file.read_text().splitlines()][1:-1]
    assert all(p["q"] is not None and p["in_top3"] is not None for p in plies if p["move"])


def test_tournament_annotate_prints_each_players_metrics(tmp_path, capsys):
    run_dir = tmp_path / "run"
    config = write_config(tmp_path, run_dir=run_dir, n_random=3, extra={"ply_cap": 30})
    args = ["tournament", "--config", str(config), "--rounds", "2"]
    assert main(args) == 0
    assert "| Player |" not in capsys.readouterr().out
    assert main(args + ["--annotate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("| Player | W | L | D | Legal Mv% | Top Mv% |")
    records = [arena.RunDir(run_dir).read_game(gid) for gid in arena.RunDir(run_dir).game_ids()]
    expected = []
    for pid in ("rand-0", "rand-1", "rand-2"):
        m = arena.compute_secondary_metrics(records, pid)
        top = "-" if m.top_move_rate is None else f"{100 * m.top_move_rate:.1f}"
        expected.append(f"| {pid} | {m.wins} | {m.losses} | {m.draws} | {100 * m.legal_move_rate:.1f} | {top} |")
    assert lines[start + 2 : start + 5] == expected
    assert lines[start + 5 :] == ["", f"run dir: {run_dir}"]


def test_demo_config_tournament_annotates_every_move(tmp_path, capsys):
    demo = Path(__file__).resolve().parent.parent / "configs" / "demo.json"
    cfg = load_config(demo)
    assert [p.id for p in cfg.players] == ["toyfish", "random-0", "random-1", "random-2"]
    run_dir = tmp_path / "demo"
    assert main(["tournament", "--config", str(demo), "--rounds", "2", "--annotate",
                 "--run-dir", str(run_dir)]) == 0
    games = list((run_dir / "games").glob("*.jsonl"))
    assert len(games) == 4
    for game_file in games:
        plies = [json.loads(line) for line in game_file.read_text().splitlines()][1:-1]
        assert plies and all(p["q"] is not None for p in plies if p["move"])


def test_tournament_stopped_part_way_leaves_the_pool_file_as_it_was(tmp_path, capsys):
    run_dir = tmp_path / "run"
    config = write_config(tmp_path, run_dir=run_dir, extra={"ply_cap": 20})
    args = ["tournament", "--config", str(config), "--rounds", "3", "--seed", "4"]
    assert main(args) == 0
    pool = (run_dir / "pool.json").read_bytes()
    second_round = json.loads((run_dir / "rounds.jsonl").read_text().splitlines()[1])
    game_file = run_dir / "games" / f"{second_round['games'][0]}.jsonl"
    game_file.write_text(game_file.read_text().replace('"seed": ', '"seedd": ', 1))
    capsys.readouterr()
    err = _one_error_line(capsys, args)  # round 0 resumes and rates; round 1 stops
    assert err.startswith(f"error: {game_file}:1: ")
    assert (run_dir / "pool.json").read_bytes() == pool


def test_leaderboard_requires_pool(tmp_path, capsys):
    code = main(["leaderboard", "--run-dir", str(tmp_path / "nothing")])
    assert code == 1
    assert "pool.json" in capsys.readouterr().err


def test_leaderboard_all_flag(tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "pool.json").write_text(
        json.dumps(
            [
                {"id": "solid", "r": 1700.0, "rd": 60.0, "games": 40, "mode": "blitz", "legal_moves_flag": True},
                {"id": "noisy", "r": 1900.0, "rd": 200.0, "games": 4, "mode": "blitz", "legal_moves_flag": True},
            ]
        )
    )
    assert main(["leaderboard", "--run-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "solid" in out and "noisy" not in out
    assert main(["leaderboard", "--run-dir", str(run_dir), "--all"]) == 0
    out = capsys.readouterr().out
    assert "noisy" in out
    assert [p.name for p in run_dir.iterdir()] == ["pool.json"]


def test_leaderboard_leaves_the_run_files_of_a_tournament_as_they_are(tmp_path, capsys):
    run_dir = tmp_path / "run"
    config = write_config(tmp_path, run_dir=run_dir, extra={"ply_cap": 12, "rating": {"display_rd_threshold": 350}})
    assert main(["tournament", "--config", str(config), "--rounds", "2"]) == 0
    files = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
    assert len(json.loads((run_dir / "leaderboard.json").read_text())) == 4
    assert main(["leaderboard", "--run-dir", str(run_dir)]) == 0
    assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == files


def test_match_writes_the_leaderboard_files_with_the_config_threshold(tmp_path, capsys):
    run_dir = tmp_path / "run"
    config = write_config(tmp_path, run_dir=run_dir, n_random=2,
                          extra={"ply_cap": 12, "rating": {"display_rd_threshold": 350}})
    assert main(["match", "--config", str(config), "--white", "rand-0", "--black", "rand-1"]) == 0
    listed = json.loads((run_dir / "leaderboard.json").read_text())
    assert sorted(row["id"] for row in listed) == ["rand-0", "rand-1"]
    assert "rand-0" in (run_dir / "leaderboard.md").read_text()


def test_eval_basic_deterministic_items(tmp_path):
    out1 = tmp_path / "items1.jsonl"
    out2 = tmp_path / "items2.jsonl"
    assert main(["eval", "basic", "--n", "30", "--seed", "1", "--out", str(out1)]) == 0
    assert main(["eval", "basic", "--n", "30", "--seed", "1", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = [json.loads(l) for l in out1.read_text().splitlines()]
    assert len(rows) == 30
    assert all({"fen", "square", "expected_piece", "expected_moves"} <= set(r) for r in rows)


def test_eval_moves_with_random_player(tmp_path, capsys):
    rng = random.Random(0)
    from chessarena.core import legal_moves, parse_fen
    from chessarena.engine import MoveEval, Score, AnalysisTable, top_moves_of, win_rate_from_score

    items = []
    for s in range(20):
        fen = playout(s, 10).fen
        evals = tuple(
            MoveEval(m, Score("cp", rng.randrange(-300, 301)), win_rate_from_score(Score("cp", 0)))
            for m in legal_moves(parse_fen(fen))
        )
        evals = tuple(
            MoveEval(ev.move, ev.score, win_rate_from_score(ev.score)) for ev in evals
        )
        items.append(MoveSelectionItem(fen, (), "blitz", True, AnalysisTable(fen, 1, evals, top_moves_of(evals))))
    path = tmp_path / "items.jsonl"
    save_move_items(items, path)
    out = tmp_path / "report.jsonl"
    code = main(["eval", "moves", "--items", str(path), "--player", "random", "--out", str(out)])
    assert code == 0
    summary = json.loads(out.read_text().splitlines()[0])
    assert summary["lr"] == 100.0
    assert "LR (%)" in capsys.readouterr().out


def test_eval_puzzles_with_bundled_engine(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = main(
        ["eval", "puzzles", "--csv", str(PUZZLES_CSV), "--player", "toyfish",
         "--depth", "12", "--max", "6", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads(out.read_text().splitlines()[0])
    assert summary["overall"] == 100.0


def test_eval_puzzles_missing_csv(tmp_path, capsys):
    code = main(["eval", "puzzles", "--csv", str(tmp_path / "none.csv"), "--player", "random"])
    assert code != 0


def _one_error_line(capsys, argv) -> str:
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    return err


def _puzzle_csv(edit) -> bytes:
    header, first = PUZZLES_CSV.read_bytes().splitlines()[:2]
    return b"\n".join([header] + edit(first.split(b","))) + b"\n"


@pytest.mark.parametrize(
    "content, expected",
    [
        (_puzzle_csv(lambda row: [b",".join(row), b"\xff\xfe" + b",".join(row)]), ":3: not UTF-8"),
        (b"PuzzleId,FEN,Moves\nx,y,z\n", ":1: missing columns"),
        (_puzzle_csv(lambda row: [b",".join(row[:3] + [b"abc"] + row[4:])]), ":2: Rating 'abc'"),
        (_puzzle_csv(lambda row: [b",".join(row[:4])]), ":2: row has fewer than 10 fields"),
    ],
    ids=["not-utf8", "missing-columns", "bad-rating", "short-row"],
)
def test_eval_puzzles_bad_csv_is_a_user_error(tmp_path, capsys, content, expected):
    path = tmp_path / "puzzles.csv"
    path.write_bytes(content)
    err = _one_error_line(capsys, ["eval", "puzzles", "--csv", str(path), "--player", "random"])
    assert f"{path}{expected}" in err


def _item_row(**changes) -> str:
    from chessarena.core import legal_moves
    from chessarena.engine import AnalysisTable, MoveEval, Score, table_to_dict, top_moves_of

    board = playout(1, 10)
    evals = tuple(MoveEval(m, Score("cp", 0), 0.5) for m in legal_moves(board))
    row = {"fen": board.fen, "history": [], "mode": "blitz", "legal_flag": True,
           "table": table_to_dict(AnalysisTable(board.fen, 1, evals, top_moves_of(evals)))}
    row.update(changes)
    return json.dumps(row)


@pytest.mark.parametrize(
    "lines, expected",
    [
        (['{"fen": 3}'], ":1: missing field 'history'"),
        ([_item_row(), "not json"], ":2: Expecting value"),
        ([_item_row(fen="8/8/8 w - - 0 1")], ":1: expected 8 ranks"),
        ([_item_row(fen=playout(2, 10).fen)], ":1: oracle table does not cover"),
        ([_item_row(history="e2e4")], ":1: fen must be a string"),
        ([_item_row(), _item_row(history=["e2e4", "e2e5"])], ":2: e2e5: not legal"),
        ([_item_row(history=["e2e4"])], ":1: history leads to"),
    ],
    ids=["no-history", "not-json", "bad-fen", "uncovered-table", "history-not-a-list", "illegal-history",
         "history-misses-fen"],
)
def test_eval_moves_bad_items_are_a_user_error(tmp_path, capsys, lines, expected):
    path = tmp_path / "items.jsonl"
    path.write_text("\n".join(lines) + "\n")
    err = _one_error_line(capsys, ["eval", "moves", "--items", str(path), "--player", "random"])
    assert f"{path}{expected}" in err


@pytest.mark.parametrize(
    "text, expected",
    [
        ('[{"id": "r1"}]', "entry 0: missing field 'r'"),
        ("[1, 2]", "entry 0: expected a JSON object, got int"),
        ('[{"id": "r1", "r": 15', "Expecting"),
        ('{"id": "r1"}', "expected a JSON list"),
    ],
    ids=["missing-field", "not-objects", "truncated", "not-a-list"],
)
def test_leaderboard_malformed_pool_is_a_user_error(tmp_path, capsys, text, expected):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "pool.json").write_text(text)
    err = _one_error_line(capsys, ["leaderboard", "--run-dir", str(run_dir)])
    assert f"{run_dir / 'pool.json'}: {expected}" in err


def test_engine_check(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["engine-check", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "ToyFish" in out and "20 moves" in out
    assert main(["engine-check", "--engine", "/missing/engine"]) == 2
    assert "infrastructure error" in capsys.readouterr().err
    assert main(["engine-check"]) == 1


def test_run_dir_env_override(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("CHESSARENA_RUN_DIR", str(env_dir))
    config = write_config(tmp_path)  # no run_dir in config
    code = main(["game", "--config", str(config), "--white", "rand-0", "--black", "rand-1"])
    assert code == 0
    assert list((env_dir / "games").glob("*.jsonl"))


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "tournament" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["tournament", "--help"],
        ["match", "--help"],
        ["game", "--help"],
        ["eval", "basic", "--help"],
        ["eval", "moves", "--help"],
        ["eval", "puzzles", "--help"],
        ["leaderboard", "--help"],
        ["engine-check", "--help"],
    ],
)
def test_every_subcommand_documents_flags(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "--" in capsys.readouterr().out


def test_tournament_rerun_is_idempotent(tmp_path):
    run_dir = tmp_path / "run"
    config = write_config(tmp_path, run_dir=run_dir)
    args = ["tournament", "--config", str(config), "--rounds", "4", "--startup", "random", "--seed", "9"]
    assert main(args) == 0
    pool1 = (run_dir / "pool.json").read_bytes()
    games1 = sorted(p.name for p in (run_dir / "games").glob("*.jsonl"))
    stamps = {p.name: p.stat().st_mtime_ns for p in (run_dir / "games").glob("*.jsonl")}
    assert main(args) == 0
    assert (run_dir / "pool.json").read_bytes() == pool1
    assert sorted(p.name for p in (run_dir / "games").glob("*.jsonl")) == games1
    # finished games were loaded, not replayed
    assert stamps == {p.name: p.stat().st_mtime_ns for p in (run_dir / "games").glob("*.jsonl")}


@pytest.mark.parametrize(
    "content, expected",
    [
        (b"8/8/8/8/8/8/8/K6k w - - 0 1\n\nnot a fen\n", ":3: expected 6 space-delimited fields"),
        (b"8/8/8/8/8/8/8/K6k w - - 0 1\n\xff\n", ":2: not UTF-8"),
    ],
    ids=["not-a-fen", "not-utf8"],
)
def test_eval_basic_bad_fen_file_is_a_user_error(tmp_path, capsys, content, expected):
    path = tmp_path / "fens.txt"
    path.write_bytes(content)
    err = _one_error_line(capsys, ["eval", "basic", "--fens", str(path), "--out", str(tmp_path / "out.jsonl")])
    assert f"{path}{expected}" in err
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize(
    "player, expected",
    [
        ("ghost", "player 'ghost' is not in the config"),
        ("rand-0", "basic understanding needs an llm_api player"),
    ],
    ids=["unknown", "random"],
)
def test_eval_basic_resolves_its_player_before_it_writes(tmp_path, capsys, player, expected):
    out = tmp_path / "out.jsonl"
    argv = ["eval", "basic", "--n", "5", "--config", str(write_config(tmp_path)), "--player", player,
            "--out", str(out)]
    assert _one_error_line(capsys, argv) == f"error: {expected}\n"
    assert not out.exists()


def _loader_input(tmp_path, loader) -> tuple:
    """The argv of a command that reads an input file of the kind `loader`
    reads, and that file."""
    if loader == "fens":
        path = tmp_path / "in.fens"
        path.write_text(playout(1, 10).fen + "\n")
        return ["eval", "basic", "--fens", str(path), "--out", str(tmp_path / "out.jsonl")], path
    if loader == "move-items":
        path = tmp_path / "in.jsonl"
        path.write_text(_item_row() + "\n")
        return ["eval", "moves", "--items", str(path), "--player", "random"], path
    if loader == "puzzle-csv":
        path = tmp_path / "in.csv"
        path.write_bytes(PUZZLES_CSV.read_bytes())
        return ["eval", "puzzles", "--csv", str(path), "--player", "random"], path
    run_dir = tmp_path / "run"
    config = write_config(tmp_path, run_dir=run_dir, n_random=2,
                          extra={"ply_cap": 8, "engine": {"path": TOY_CMD, "depth": 1}})
    argv = ["match", "--config", str(config), "--white", "rand-0", "--black", "rand-1"]
    if loader == "config":
        return argv, config
    if loader == "analysis-log":
        argv.append("--annotate")
    assert main(argv) == 0
    if loader == "game":
        return argv, sorted((run_dir / "games").glob("*.jsonl"))[0]
    if loader == "analysis-log":
        return argv, run_dir / "analysis" / "analyses.jsonl"
    return ["leaderboard", "--run-dir", str(run_dir)], run_dir / "pool.json"


@pytest.mark.parametrize("loader", ["fens", "move-items", "puzzle-csv", "config", "game", "analysis-log", "pool"])
def test_an_input_that_is_not_utf8_is_one_error_line(tmp_path, capsys, loader):
    argv, path = _loader_input(tmp_path, loader)
    path.write_bytes(b"\xff" + path.read_bytes())  # its first line is not UTF-8
    capsys.readouterr()
    _one_error_line(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["tournament", "--rounds", "1"],
        ["match", "--white", "rand-0", "--black", "rand-1"],
        ["game", "--white", "rand-0", "--black", "rand-1"],
    ],
    ids=["tournament", "match", "game"],
)
def test_annotated_commands_start_the_oracle_once(tmp_path, monkeypatch, argv):
    starts = []

    def counting_start(*args, **kwargs):
        starts.append(args)
        return start_engine(*args, **kwargs)

    monkeypatch.setattr(arena, "start_engine", counting_start)
    config = write_config(tmp_path, run_dir=tmp_path / "run", n_random=2,
                          extra={"ply_cap": 12, "engine": {"path": TOY_CMD, "depth": 1}})
    assert main(argv + ["--config", str(config), "--annotate"]) == 0
    assert len(starts) == 1
    plies = [json.loads(line) for path in (tmp_path / "run" / "games").glob("*.jsonl")
             for line in path.read_text().splitlines()[1:-1]]
    assert plies and all(p["q"] is not None for p in plies if p["move"])


@pytest.mark.parametrize("same_options, engines", [(True, 1), (False, 2)], ids=["same-options", "demo"])
def test_an_engine_player_shares_the_oracle_process_when_command_and_options_match(
    tmp_path, monkeypatch, capsys, same_options, engines
):
    starts = []
    monkeypatch.setattr(arena, "start_engine", lambda *a, **k: starts.append(a) or start_engine(*a, **k))
    config = DEMO
    if same_options:
        data = json.loads(DEMO.read_text())
        assert data["players"][0]["engine_command"] == data["engine"]["path"]
        data["players"][0]["engine_options"] = load_config(DEMO).engine.options
        config = tmp_path / "shared.json"
        config.write_text(json.dumps(data))
    assert main(["tournament", "--config", str(config), "--rounds", "1", "--startup", "specified:toyfish",
                 "--annotate", "--run-dir", str(tmp_path / "run")]) == 0
    assert len(starts) == engines


def _untimed_rows(path) -> list:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows:
        row.pop("started_at", None), row.pop("finished_at", None)
    return rows


def test_a_resumed_stateful_engine_match_equals_an_uninterrupted_one(tmp_path, capsys):
    """An engine whose answers depend on its searches since `ucinewgame`
    plays and annotates (one process: same command and options) a 4-game
    match. Resumed with only game 0's file kept, the match writes the games,
    pool and analysis log of an uninterrupted run."""
    command = stateful_engine(tmp_path)
    players = [{"id": "eng", "kind": "uci_engine", "engine_command": command,
                "engine_options": cli.EngineConfig().options, "engine_limits": {"depth": 1}},
               {"id": "rand-0", "kind": "random"}]
    config = write_config(tmp_path, extra={"players": players, "ply_cap": 16, "engine": {"path": command, "depth": 1}})
    match = ["match", "--config", str(config), "--white", "eng", "--black", "rand-0", "--n", "4"]
    whole, resumed = tmp_path / "whole", tmp_path / "resumed"
    assert main(match + ["--annotate", "--run-dir", str(whole)]) == 0
    assert main(match + ["--run-dir", str(resumed)]) == 0
    first = arena.game_id_for("eng", "rand-0", arena.derive_seed(0, "game:0"), 0)
    for path in (resumed / "games").glob("*.jsonl"):
        if path.stem != first:
            path.unlink()
    assert main(match + ["--annotate", "--run-dir", str(resumed)]) == 0
    games = sorted(path.name for path in (whole / "games").iterdir())
    assert len(games) == 4 and sorted(path.name for path in (resumed / "games").iterdir()) == games
    for name in games:
        assert _untimed_rows(resumed / "games" / name) == _untimed_rows(whole / "games" / name)
    for name in ("pool.json", "leaderboard.json", "analysis/analyses.jsonl"):
        assert (resumed / name).read_bytes() == (whole / name).read_bytes()


def test_reannotating_a_finished_run_dir_writes_no_game_file(tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    config = write_config(tmp_path, run_dir=run_dir, n_random=2,
                          extra={"ply_cap": 12, "engine": {"path": TOY_CMD, "depth": 1}})
    args = ["tournament", "--config", str(config), "--rounds", "2", "--annotate"]
    assert main(args) == 0
    games = {path: path.read_bytes() for path in (run_dir / "games").glob("*.jsonl")}
    written = []
    real_write = arena.write_atomic
    monkeypatch.setattr(arena, "write_atomic", lambda path, text: written.append(path) or real_write(path, text))
    assert main(args) == 0
    assert games and written  # the pool and the leaderboard are rewritten
    assert [path for path in written if path.parent == run_dir / "games"] == []
    assert {path: path.read_bytes() for path in (run_dir / "games").glob("*.jsonl")} == games


def test_a_bad_analysis_log_row_is_a_user_error(tmp_path, capsys):
    run_dir = tmp_path / "run"
    config = write_config(tmp_path, run_dir=run_dir, n_random=2,
                          extra={"ply_cap": 8, "engine": {"path": TOY_CMD, "depth": 1}})
    args = ["match", "--config", str(config), "--white", "rand-0", "--black", "rand-1", "--annotate"]
    assert main(args) == 0
    log = run_dir / "analysis" / "analyses.jsonl"
    lines = log.read_text().splitlines(keepends=True)
    log.write_text(lines[0] + lines[1][:40] + "\n" + "".join(lines[2:]))
    capsys.readouterr()
    err = _one_error_line(capsys, args)
    assert err.startswith(f"error: {log}:2: JSONDecodeError")


def test_tournament_annotation_skips_an_unfinished_game_file(tmp_path):
    run_dir = tmp_path / "run"
    (run_dir / "games").mkdir(parents=True)
    torn = run_dir / "games" / "deadbeef.jsonl"
    torn.write_text('{"type": "header", "game_id": "dead')
    config = write_config(tmp_path, run_dir=run_dir, n_random=2,
                          extra={"ply_cap": 12, "engine": {"path": TOY_CMD, "depth": 1}})
    assert main(["tournament", "--config", str(config), "--rounds", "1", "--annotate"]) == 0
    assert torn.read_text() == '{"type": "header", "game_id": "dead'


def test_tournament_rerun_stops_on_a_garbled_game_row(tmp_path, capsys):
    run_dir = tmp_path / "run"
    config = write_config(tmp_path, run_dir=run_dir, extra={"ply_cap": 20})
    args = ["tournament", "--config", str(config), "--rounds", "3", "--seed", "4"]
    assert main(args) == 0
    first_game = json.loads((run_dir / "rounds.jsonl").read_text().splitlines()[0])["games"][0]
    game_file = run_dir / "games" / f"{first_game}.jsonl"
    lines = game_file.read_text().splitlines()
    lines[0] = lines[0].replace('"seed": ', '"seedd": ')  # resume decodes the header row
    game_file.write_text("\n".join(lines) + "\n")
    files = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in run_dir.rglob("*") if p.is_file()}
    capsys.readouterr()
    err = _one_error_line(capsys, args)
    assert err.startswith(f"error: {game_file}:1: ")
    # Every other file stays as it was; the next test checks the rounds log.
    del files[run_dir / "rounds.jsonl"]
    assert files == {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in run_dir.rglob("*")
                     if p.is_file() and p.name != "rounds.jsonl"}


def test_tournament_rerun_stopped_in_round_0_keeps_the_rounds_log(tmp_path, capsys):
    run_dir = tmp_path / "run"
    config = write_config(tmp_path, run_dir=run_dir, extra={"ply_cap": 20})
    args = ["tournament", "--config", str(config), "--rounds", "3", "--seed", "4"]
    assert main(args) == 0
    rounds = run_dir / "rounds.jsonl"
    logged = rounds.read_bytes()
    first_game = json.loads(logged.splitlines()[0])["games"][0]
    game_file = run_dir / "games" / f"{first_game}.jsonl"
    lines = game_file.read_text().splitlines()
    lines[0] = lines[0].replace('"seed": ', '"seedd": ')  # resume decodes the header row
    game_file.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    err = _one_error_line(capsys, args)
    assert err.startswith(f"error: {game_file}:1: ")
    assert rounds.read_bytes() == logged


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: {**h, "white": "rbnd-1"},  # a player the pool does not hold
        lambda h: {**h, "white": h["black"], "black": h["white"]},  # the pairing swapped
        lambda h: {**h, "seed": h["seed"] + 1},
        lambda h: {**h, "game_id": "0" * 16},
    ],
    ids=["foreign-player", "swapped-players", "seed", "game-id"],
)
def test_match_rerun_stops_on_a_game_header_that_is_not_the_derived_game(tmp_path, capsys, edit):
    run_dir = tmp_path / "run"
    config = write_config(tmp_path, run_dir=run_dir, extra={"ply_cap": 20})
    args = ["match", "--config", str(config), "--white", "rand-0", "--black", "rand-1", "--seed", "2"]
    assert main(args) == 0
    game_file = sorted((run_dir / "games").glob("*.jsonl"))[0]
    lines = game_file.read_text().splitlines()
    lines[0] = json.dumps(edit(json.loads(lines[0])), sort_keys=True)
    game_file.write_text("\n".join(lines) + "\n")
    files = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in run_dir.rglob("*") if p.is_file()}
    capsys.readouterr()
    err = _one_error_line(capsys, args)
    assert err.startswith(f"error: {game_file}: header is game ")
    assert files == {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in run_dir.rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "argv",
    [
        ["match", "--white", "rand-0", "--black", "rand-1", "--n", "4"],
        ["match", "--white", "rand-0", "--black", "rand-1", "--annotate"],
        ["tournament", "--rounds", "2", "--annotate"],
    ],
    ids=["match", "match-annotate", "tournament-annotate"],
)
def test_rerun_that_reads_plies_stops_on_a_garbled_ply_row(tmp_path, capsys, argv):
    run_dir = tmp_path / "run"
    config = write_config(tmp_path, run_dir=run_dir, n_random=2,
                          extra={"ply_cap": 12, "engine": {"path": TOY_CMD, "depth": 1}})
    args = argv + ["--config", str(config), "--seed", "3"]
    assert main(args) == 0
    game_file = sorted((run_dir / "games").glob("*.jsonl"))[0]
    lines = game_file.read_text().splitlines()
    lines[2] = lines[2].replace('"ply": ', '"plyy": ')
    game_file.write_text("\n".join(lines) + "\n")
    files = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
    stamps = {p: p.stat().st_mtime_ns for p in files}
    capsys.readouterr()
    err = _one_error_line(capsys, args)
    assert err.startswith(f"error: {game_file}:3: ")
    assert files == {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
    # A tournament rewrites its pool, leaderboard and rounds log (same bytes)
    # before annotation reads the games; a match writes nothing.
    rewritten = set()
    if argv[0] == "tournament":
        rewritten = {"pool.json", "leaderboard.md", "leaderboard.json", "rounds.jsonl"}
    assert {p: t for p, t in stamps.items() if p.name not in rewritten} == {
        p: p.stat().st_mtime_ns for p in files if p.name not in rewritten
    }


def test_match_rerun_prints_the_game_lines_of_the_first_run(tmp_path, capsys):
    run_dir = tmp_path / "run"
    config = write_config(tmp_path, run_dir=run_dir, extra={"ply_cap": 20})
    args = ["match", "--config", str(config), "--white", "rand-0", "--black", "rand-1", "--n", "4"]
    assert main(args) == 0
    first = capsys.readouterr().out
    stamps = {p: p.stat().st_mtime_ns for p in (run_dir / "games").glob("*.jsonl")}
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert stamps == {p: p.stat().st_mtime_ns for p in (run_dir / "games").glob("*.jsonl")}
    for line in first.splitlines():
        plies, path = line.rsplit(" (", 1)[1].split(" plies) ")
        assert int(plies) == len(Path(path).read_text().splitlines()) - 2 > 0


def test_rating_q_is_an_unknown_config_key(tmp_path, capsys):
    """Glicko's q is the constant `rating.Q`, for updates and pairing alike."""
    config = write_config(tmp_path, run_dir=tmp_path / "run", extra={"rating": {"q": 0.006}})
    code = main(["game", "--config", str(config), "--white", "rand-0", "--black", "rand-1"])
    assert code == 1
    assert "unknown key 'q' in rating" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
