"""Stable matching tests with brute-force verification.

Stability is re-checked here by direct preference comparison (no shared code
with the library's blocking-pair scan), proposer optimality is checked
against full enumeration of stable matchings, and the depth-first stable-set
search is compared with a scan of all n! assignments.
"""

import functools
import itertools
import time

import numpy as np
import pytest

from stgames.errors import CapacityError
from stgames.matching import (MAX_SIDE, Matching, MatchingMarket,
                              blocking_pairs, deferred_acceptance,
                              enumerate_stable, is_stable)


def random_market(rng, n):
    left = [tuple(rng.permutation(n)) for _ in range(n)]
    right = [tuple(rng.permutation(n)) for _ in range(n)]
    return MatchingMarket.of(left, right)


def cyclic_market(n):
    """Left i ranks rights i, i+1, ...; right j ranks lefts j+1, j+2, ...
    (mod n). Every rotation i -> i+s is stable: n stable matchings."""
    left = [[(i + k) % n for k in range(n)] for i in range(n)]
    right = [[(j + 1 + k) % n for k in range(n)] for j in range(n)]
    return MatchingMarket.of(left, right)


def block_market(blocks):
    """`blocks` disjoint 2 x 2 conflicts (each side prefers its own
    proposals) ranked above everyone else: 2**blocks stable matchings."""
    n = 2 * blocks
    left, right = [], []
    for b in range(blocks):
        a, c = 2 * b, 2 * b + 1
        rest = [x for x in range(n) if x not in (a, c)]
        left += [[a, c] + rest, [c, a] + rest]
        right += [[c, a] + rest, [a, c] + rest]
    return MatchingMarket.of(left, right)


@functools.lru_cache(maxsize=None)
def _assignments(n):
    """All n! assignment vectors in lexicographic order, as tuples and as an
    array."""
    perms = list(itertools.permutations(range(n)))
    return perms, np.array(perms)


def enumerate_stable_brute(market):
    """Reference kernel: the permutation enumerator `enumerate_stable` used
    before its depth-first search.

    Every one of the n! assignments, in lexicographic order, is kept when a
    full scan of all n*n (left, right) pairs finds no blocking pair. The scan
    runs over all assignments at once in numpy, with rank tables built here,
    so that n = 8 markets take milliseconds instead of the old loop's 1.7 s.
    """
    n = market.n
    perms, arr = _assignments(n)
    left_rank = np.argsort(np.array(market.left_prefs), axis=1)    # [i, j]
    right_rank = np.argsort(np.array(market.right_prefs), axis=1)  # [j, i]
    agents = np.arange(n)
    # [p, i, j]: left i strictly prefers right j to its partner in p ...
    left_wants = left_rank[None] < left_rank[agents, arr][:, :, None]
    # ... and right j strictly prefers left i to its partner in p.
    right_wants = (right_rank.T[None]
                   < right_rank[agents, np.argsort(arr, axis=1)][:, None, :])
    blocked = (left_wants & right_wants).any(axis=(1, 2))
    return [Matching(tuple(enumerate(perms[p])))
            for p in np.flatnonzero(~blocked)]


def brute_blocking(market, assignment):
    """Blocking pairs from raw preference lists, independent implementation.

    `assignment` maps left i -> right j.
    """
    n = market.n
    inverse = [None] * n
    for i, j in enumerate(assignment):
        inverse[j] = i
    found = []
    for i in range(n):
        for j in range(n):
            if assignment[i] == j:
                continue
            likes_j = (market.left_prefs[i].index(j)
                       < market.left_prefs[i].index(assignment[i]))
            likes_i = (market.right_prefs[j].index(i)
                       < market.right_prefs[j].index(inverse[j]))
            if likes_j and likes_i:
                found.append((i, j))
    return found


def test_textbook_three_by_three():
    market = MatchingMarket.of(
        left_prefs=[(0, 1, 2), (1, 0, 2), (0, 1, 2)],
        right_prefs=[(1, 0, 2), (0, 1, 2), (0, 1, 2)])
    m = deferred_acceptance(market)
    # left 0 and left 1 both get their favorite; left 2 takes the rest
    assert m.left_to_right == (0, 1, 2)
    assert is_stable(market, m)
    assert blocking_pairs(market, m) == []


def test_all_agree_single_matching():
    # everyone ranks partners identically: assortative matching is forced
    prefs = [(0, 1, 2)] * 3
    market = MatchingMarket.of(prefs, prefs)
    stable = enumerate_stable(market)
    assert len(stable) == 1
    assert stable[0].left_to_right == (0, 1, 2)


def test_proposer_side_changes_outcome():
    # classic two-sided conflict: each side prefers its own proposals
    market = MatchingMarket.of(
        left_prefs=[(0, 1), (1, 0)],
        right_prefs=[(1, 0), (0, 1)])
    left_run = deferred_acceptance(market, "left")
    right_run = deferred_acceptance(market, "right")
    assert left_run.left_to_right == (0, 1)
    assert right_run.left_to_right == (1, 0)
    assert is_stable(market, left_run) and is_stable(market, right_run)


def test_partner_lookup_and_validation():
    market = MatchingMarket.of([(0, 1), (0, 1)], [(0, 1), (0, 1)])
    m = deferred_acceptance(market)
    assert m.partner_of_left(0) == m.pairs[0][1]
    assert m.partner_of_right(m.pairs[0][1]) == 0
    with pytest.raises(ValueError):
        deferred_acceptance(market, "top")
    with pytest.raises(ValueError):
        MatchingMarket.of([(0, 1)], [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        MatchingMarket.of([(0, 0), (0, 1)], [(0, 1), (1, 0)])
    with pytest.raises(CapacityError):
        n = 9
        prefs = [tuple(range(n))] * n
        MatchingMarket.of(prefs, prefs)


def test_no_blocking_pairs_on_random_markets():
    rng = np.random.default_rng(77)
    for trial in range(500):
        n = int(rng.integers(1, 9))
        market = random_market(rng, n)
        side = "left" if trial % 2 == 0 else "right"
        m = deferred_acceptance(market, side)
        assert sorted(m.left_to_right) == list(range(n))
        assert brute_blocking(market, m.left_to_right) == []
        assert is_stable(market, m)


def test_blocking_scan_matches_brute_force():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        market = random_market(rng, n)
        perm = tuple(rng.permutation(n))
        m = Matching(tuple((i, perm[i]) for i in range(n)))
        assert blocking_pairs(market, m) == brute_blocking(market, perm)


def test_proposer_optimality():
    # the proposing side weakly prefers its run to every stable matching
    rng = np.random.default_rng(2718)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        market = random_market(rng, n)
        best = deferred_acceptance(market, "left")
        stable = enumerate_stable(market)
        assert any(s.left_to_right == best.left_to_right for s in stable)
        for s in stable:
            for i in range(n):
                got = market.left_prefs[i].index(best.partner_of_left(i))
                alt = market.left_prefs[i].index(s.partner_of_left(i))
                assert got <= alt


def test_receiver_pessimality():
    # dual reading: the proposed-to side weakly prefers any other stable match
    rng = np.random.default_rng(999)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        market = random_market(rng, n)
        worst = deferred_acceptance(market, "left")
        for s in enumerate_stable(market):
            for j in range(n):
                got = market.right_prefs[j].index(worst.partner_of_right(j))
                alt = market.right_prefs[j].index(s.partner_of_right(j))
                assert got >= alt


def shuffled_da(market, rng):
    """Deferred acceptance popping free proposers in random order.

    Independent of the library walk; exists to show the outcome does not
    depend on who proposes first among the simultaneously free.
    """
    n = market.n
    nxt = [0] * n
    holder = [None] * n
    free = list(range(n))
    while free:
        i = free.pop(int(rng.integers(len(free))))
        j = market.left_prefs[i][nxt[i]]
        nxt[i] += 1
        cur = holder[j]
        if cur is None:
            holder[j] = i
        elif market.right_prefs[j].index(i) < market.right_prefs[j].index(cur):
            holder[j] = i
            free.append(cur)
        else:
            free.append(i)
    out = [None] * n
    for j, i in enumerate(holder):
        out[i] = j
    return tuple(out)


def test_processing_order_is_immaterial():
    rng = np.random.default_rng(31415)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        market = random_market(rng, n)
        fixed = deferred_acceptance(market, "left").left_to_right
        for _ in range(3):
            assert shuffled_da(market, rng) == fixed


def test_stable_set_enumeration_order():
    market = MatchingMarket.of(
        left_prefs=[(0, 1), (1, 0)],
        right_prefs=[(1, 0), (0, 1)])
    stable = enumerate_stable(market)
    vectors = [s.left_to_right for s in stable]
    assert vectors == sorted(vectors)
    assert (0, 1) in vectors and (1, 0) in vectors


def test_stable_set_matches_permutation_scan():
    rng = np.random.default_rng(6_2026)
    markets = [random_market(rng, 1 + trial % (MAX_SIDE - 1))
               for trial in range(1880)]
    markets += [random_market(rng, MAX_SIDE) for _ in range(120)]
    markets += [cyclic_market(n) for n in range(1, MAX_SIDE + 1)]
    markets += [block_market(b) for b in range(1, MAX_SIDE // 2 + 1)]
    for market in markets:
        assert ([m.pairs for m in enumerate_stable(market)]
                == [m.pairs for m in enumerate_stable_brute(market)])
    assert len(enumerate_stable(cyclic_market(MAX_SIDE))) == MAX_SIDE
    assert len(enumerate_stable(block_market(MAX_SIDE // 2))) == 16


def test_stable_set_budget_at_largest_side():
    # The old scan of all 8! assignments took 1.4-1.7 s per market on a
    # 2-vCPU Xeon VM, so this loop would have taken over 140 s.
    rng = np.random.default_rng(8_8)
    markets = [random_market(rng, MAX_SIDE) for _ in range(100)]
    markets.append(cyclic_market(MAX_SIDE))
    start = time.perf_counter()
    for market in markets:
        enumerate_stable(market)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"101 stable-set enumerations at n = 8 took {elapsed:.2f} s"
