import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from chessarena.rating import (
    DRAW,
    LOSS,
    MatchOutcome,
    PoolEntry,
    Q,
    RatingConfig,
    RatingState,
    WIN,
    d_squared,
    expected_score,
    g,
    pairing_score,
    pool_from_json,
    pool_to_json,
    sample_opponent,
    select_initiator,
    update_pair,
    update_rating,
)

from oracle_glicko import ref_pairing_score, ref_update

# Oracle-derived constants (tests/oracle_glicko.py).
G_350 = 0.6690693972
G_50 = 0.9876424006
E_1400_1500_80 = 0.3640233924
D2_EQUAL_RD50 = 123751.121597
PAIR_EQUAL_RD50 = 0.4877187557


def test_q_constant():
    assert abs(Q - math.log(10) / 400) < 1e-12
    assert abs(Q - 0.0057565) < 1e-7


def test_g_values():
    assert g(0.0) == 1.0
    assert abs(g(350) - G_350) < 1e-9
    assert abs(g(50) - G_50) < 1e-9


@given(st.floats(0, 1000), st.floats(0.1, 1000))
def test_g_monotone_decreasing(rd, delta):
    assert g(rd + delta) < g(rd) <= 1.0


def test_expected_score_values():
    assert expected_score(1500, 1500, 123) == 0.5
    assert abs(expected_score(1400, 1500, 80) - E_1400_1500_80) < 1e-9
    assert expected_score(4000, 1000, 50) > 0.9999


@given(
    st.floats(800, 2800), st.floats(800, 2800), st.floats(0, 350)
)
def test_expected_score_complements(r, r_o, rd):
    assert abs(expected_score(r, r_o, rd) + expected_score(r_o, r, rd) - 1.0) < 1e-12


def test_d_squared_values():
    assert abs(d_squared(1500, 1500, 50) - D2_EQUAL_RD50) < 1e-3
    # d^2 grows without bound as E leaves 1/2.
    assert d_squared(3000, 1000, 50) > d_squared(1500, 1500, 50) * 100


def test_d_squared_minimized_at_equal_ratings():
    base = d_squared(1500, 1500, 80)
    for shift in (50, 150, 400):
        assert d_squared(1500, 1500 + shift, 80) > base
        assert d_squared(1500, 1500 - shift, 80) > base


@settings(max_examples=300, deadline=None)
@given(
    r=st.floats(600, 2900),
    rd=st.floats(50, 350),
    r_o=st.floats(600, 2900),
    rd_o=st.floats(50, 350),
    s=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_update_matches_reference(r, rd, r_o, rd_o, s):
    got = update_rating(RatingState(r, rd, 3), RatingState(r_o, rd_o, 9), MatchOutcome(s))
    want_r, want_rd = ref_update(r, rd, r_o, rd_o, s)
    assert math.isclose(got.r, want_r, rel_tol=1e-9)
    assert math.isclose(got.rd, want_rd, rel_tol=1e-9)
    assert got.games_played == 4
    assert got.rd <= rd


def test_rd_never_increases_and_floors_at_min():
    cfg = RatingConfig()
    state = RatingState.fresh(cfg)
    opp = RatingState(1500, 60)
    for _ in range(100):
        new = update_rating(state, opp, DRAW, cfg)
        assert new.rd <= state.rd
        state = new
    assert state.rd == cfg.min_rd


def test_outcome_validation():
    with pytest.raises(ValueError):
        MatchOutcome(0.7)
    assert WIN.reversed == LOSS
    assert DRAW.reversed == DRAW


def test_update_with_s_equal_to_e_keeps_rating():
    me = RatingState(1500, 200)
    opp = RatingState(1500, 100)
    new = update_rating(me, opp, DRAW)  # E = 0.5 exactly
    assert math.isclose(new.r, 1500.0, abs_tol=1e-12)
    assert new.rd < 200


def test_pair_update_uses_pregame_snapshots():
    a, b = RatingState(1500, 350), RatingState(1500, 350)
    a2, b2 = update_pair(a, b, WIN)
    assert a2.r > 1500 > b2.r
    assert math.isclose(a2.r - 1500, 1500 - b2.r, rel_tol=1e-12)
    assert a2.rd < 350 and b2.rd < 350
    # Draw pulls unequal ratings together.
    c, d = RatingState(1700, 100), RatingState(1400, 100)
    c2, d2 = update_pair(c, d, DRAW)
    assert c2.r < 1700 and d2.r > 1400


def test_pairing_score_value_and_limits():
    a = RatingState(1500, 50)
    b = RatingState(1500, 50)
    assert abs(pairing_score(a, b) - PAIR_EQUAL_RD50) < 1e-9
    assert abs(pairing_score(a, b) - ref_pairing_score(1500, 50, 1500, 50)) < 1e-12
    huge = RatingState(1500, 1e9)
    assert pairing_score(huge, RatingState(1500, 1e9)) < 1e-6


def test_pairing_score_peaks_at_equal_ratings():
    a = RatingState(1500, 120)
    best = pairing_score(a, RatingState(1500, 80))
    for shift in (25, 100, 300, 800):
        assert pairing_score(a, RatingState(1500 + shift, 80)) < best
        assert pairing_score(a, RatingState(1500 - shift, 80)) < best


def entry(pid, r, rd):
    return PoolEntry(id=pid, rating=RatingState(r, rd))


def test_sample_opponent_prefers_equal_rating():
    req = entry("me", 1500, 350)
    pick = sample_opponent([req, entry("a", 1500, 60), entry("b", 1900, 60)], req)
    assert pick.id == "a"


def test_sample_opponent_prefers_low_rd():
    req = entry("me", 1500, 350)
    pick = sample_opponent([req, entry("a", 1500, 300), entry("b", 1500, 60)], req)
    assert pick.id == "b"


def test_sample_opponent_single_candidate_and_errors():
    req = entry("me", 1500, 350)
    only = entry("a", 2300, 50)
    assert sample_opponent([req, only], req) is only
    with pytest.raises(LookupError):
        sample_opponent([req], req)


def test_sample_opponent_tiebreak_rd_then_id():
    req = entry("me", 1500, 100)
    # Symmetric candidates, equal scores: lower rd wins, then id.
    pool = [req, entry("hi", 1600, 80), entry("lo", 1400, 80), entry("lo2", 1400, 80)]
    pick = sample_opponent(pool, req)
    assert pick.id in ("hi", "lo", "lo2")
    scores = {p.id: pairing_score(req.rating, p.rating) for p in pool if p.id != "me"}
    assert math.isclose(scores["hi"], scores["lo"], rel_tol=1e-12)
    assert pick.id == "hi"  # equal score, equal rd -> lexicographically first id


def test_sample_opponent_maximizes_score_randomized():
    rng = random.Random(99)
    for _ in range(2000):
        req = entry("me", rng.uniform(800, 2600), rng.uniform(50, 350))
        pool = [req] + [
            entry(f"p{i}", rng.uniform(800, 2600), rng.uniform(50, 350))
            for i in range(rng.randrange(1, 9))
        ]
        pick = sample_opponent(pool, req)
        best = max(pairing_score(req.rating, p.rating) for p in pool if p.id != "me")
        assert pairing_score(req.rating, pick.rating) >= best - 1e-15


def test_select_initiator_specified_and_errors():
    pool = [entry("a", 1500, 100), entry("maia-1100", 2200, 80)]
    assert select_initiator(pool, player_id="maia-1100").id == "maia-1100"
    with pytest.raises(LookupError):
        select_initiator(pool, player_id="ghost")
    with pytest.raises(LookupError):
        select_initiator([], player_id="a")
    with pytest.raises(ValueError):
        select_initiator(pool)


def test_select_initiator_seeded_reproducible():
    pool = [entry(f"p{i}", 1500, 100) for i in range(7)]
    picks1 = [select_initiator(pool, rng=random.Random(5)).id for _ in range(3)]
    picks2 = [select_initiator(pool, rng=random.Random(5)).id for _ in range(3)]
    assert picks1 == picks2


def test_select_initiator_uniformity_chi_squared():
    pool = [entry(f"p{i}", 1500, 100) for i in range(10)]
    rng = random.Random(123)
    counts = {p.id: 0 for p in pool}
    n = 10_000
    for _ in range(n):
        counts[select_initiator(pool, rng=rng).id] += 1
    expected = n / len(pool)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 21.67  # df=9 critical value at alpha=0.01


def test_pool_json_round_trip_and_determinism():
    pool = [
        PoolEntry("zeta", RatingState(1600.5, 120.25, 7), mode="blitz", legal_moves=True),
        PoolEntry("alpha", RatingState(1500.0, 350.0, 0), mode=None, legal_moves=False),
    ]
    text = pool_to_json(pool)
    assert text.index('"alpha"') < text.index('"zeta"')  # sorted by id
    assert pool_to_json(list(reversed(pool))) == text
    back = pool_from_json(text)
    assert [(p.id, p.rating, p.mode, p.legal_moves) for p in sorted(pool, key=lambda p: p.id)] == [
        (p.id, p.rating, p.mode, p.legal_moves) for p in back
    ]


def test_scaling_invariance_of_argmax():
    rng = random.Random(7)
    for _ in range(200):
        req_r = rng.uniform(1200, 1800)
        cands = [(f"c{i}", rng.uniform(1000, 2000)) for i in range(6)]
        for scale in (1.0, 2.5, 0.3):
            req = entry("me", 1500 + (req_r - 1500) * scale, 200)
            pool = [req] + [entry(cid, 1500 + (r - 1500) * scale, 90) for cid, r in cands]
            pick = sample_opponent(pool, req)
            if scale == 1.0:
                baseline = pick.id
            else:
                assert pick.id == baseline


def simulate_convergence_trial(seed: int, max_games: int = 35) -> int | None:
    """Games until the fresh entrant's rd drops below 100 (None if never)."""
    rng = random.Random(seed)
    cfg = RatingConfig()
    true_strength = {"new": 1600.0}
    pool = [PoolEntry("new", RatingState.fresh(cfg))]
    for i in range(9):
        strength = 1100 + 150 * i
        pid = f"inc{i}"
        true_strength[pid] = float(strength)
        pool.append(PoolEntry(pid, RatingState(float(strength), 60.0, 30)))
    me = pool[0]
    for game in range(1, max_games + 1):
        opp = sample_opponent(pool, me)
        p_win = expected_score(true_strength["new"], true_strength[opp.id], 0.0)
        outcome = WIN if rng.random() < p_win else LOSS
        me.rating, opp.rating = update_pair(me.rating, opp.rating, outcome, cfg)
        if me.rating.rd < 100:
            return game
    return None


def test_convergence_fresh_entrant():
    games = [simulate_convergence_trial(seed) for seed in range(20)]
    assert sum(1 for gm in games if gm is not None) >= 19
    assert all(gm is None or gm <= 35 for gm in games)


def test_display_threshold_config():
    cfg = RatingConfig()
    assert cfg.display_rd_threshold == 100
    with pytest.raises(ValueError):
        RatingConfig(min_rd=0)
    with pytest.raises(ValueError):
        RatingConfig(min_rd=400)
