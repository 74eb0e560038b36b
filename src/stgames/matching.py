"""Two-sided one-to-one matching with strict preferences.

Sides are called left and right; each left agent ranks all right agents and
vice versa (permutations of 0..n-1, most preferred first). Deferred
acceptance runs from either side with proposals issued in ascending proposer
index.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapacityError

MAX_SIDE = 8


class MatchingMarket:
    __slots__ = ("left_prefs", "right_prefs")

    def __init__(self, left_prefs: tuple, right_prefs: tuple):
        self.left_prefs = left_prefs    # left_prefs[i] ranks right indices, best first
        self.right_prefs = right_prefs
        n = len(left_prefs)
        if n != len(right_prefs):
            raise ValueError("sides must have equal size")
        if n == 0:
            raise ValueError("market must be nonempty")
        if n > MAX_SIDE:
            raise CapacityError(f"side size {n} exceeds {MAX_SIDE}")
        want = set(range(n))
        for side, prefs in (("left", left_prefs), ("right", right_prefs)):
            for i, ranking in enumerate(prefs):
                if set(ranking) != want or len(ranking) != n:
                    raise ValueError(
                        f"{side}[{i}] must be a permutation of 0..{n - 1}, "
                        f"got {list(ranking)}")

    @property
    def n(self) -> int:
        return len(self.left_prefs)

    @staticmethod
    def of(left_prefs, right_prefs) -> "MatchingMarket":
        return MatchingMarket(tuple(tuple(p) for p in left_prefs),
                              tuple(tuple(p) for p in right_prefs))


class Matching(NamedTuple):
    """Perfect matching; pair i of `pairs` is (left i, right partner)."""

    pairs: tuple

    @property
    def left_to_right(self) -> tuple:
        return tuple(r for _, r in self.pairs)

    def partner_of_left(self, i: int) -> int:
        return self.pairs[i][1]

    def partner_of_right(self, j: int) -> int:
        for left, right in self.pairs:
            if right == j:
                return left
        raise ValueError(f"right agent {j} unmatched")


def _rank_tables(market: MatchingMarket):
    n = market.n
    left_rank = [[0] * n for _ in range(n)]
    right_rank = [[0] * n for _ in range(n)]
    for i, ranking in enumerate(market.left_prefs):
        for pos, j in enumerate(ranking):
            left_rank[i][j] = pos
    for j, ranking in enumerate(market.right_prefs):
        for pos, i in enumerate(ranking):
            right_rank[j][i] = pos
    return left_rank, right_rank


def deferred_acceptance(market: MatchingMarket, proposing: str = "left") -> Matching:
    """Gale-Shapley from the chosen side; proposals in ascending proposer index.

    Terminates within n*n proposals and returns a stable perfect matching,
    optimal for the proposing side.
    """
    if proposing not in ("left", "right"):
        raise ValueError(f"proposing side must be 'left' or 'right', got {proposing!r}")
    if proposing == "right":
        flipped = MatchingMarket(market.right_prefs, market.left_prefs)
        inner = deferred_acceptance(flipped, "left")
        n = market.n
        partner = [None] * n
        for r, l in inner.pairs:        # roles swap back
            partner[l] = r
        return Matching(tuple((i, partner[i]) for i in range(n)))

    n = market.n
    _, right_rank = _rank_tables(market)
    next_choice = [0] * n              # next preference position to try
    engaged_to = [None] * n            # right j -> left i
    free = list(range(n))
    proposals = 0
    while free:
        i = free.pop(0)                # ascending index: list kept sorted
        j = market.left_prefs[i][next_choice[i]]
        next_choice[i] += 1
        proposals += 1
        if proposals > n * n:
            raise AssertionError("deferred acceptance exceeded n^2 proposals")
        holder = engaged_to[j]
        if holder is None:
            engaged_to[j] = i
        elif right_rank[j][i] < right_rank[j][holder]:
            engaged_to[j] = i
            free.append(holder)
            free.sort()
        else:
            free.append(i)
            free.sort()
    partner = [None] * n
    for j, i in enumerate(engaged_to):
        partner[i] = j
    return Matching(tuple((i, partner[i]) for i in range(n)))


def blocking_pairs(market: MatchingMarket, matching: Matching):
    """All (left, right) pairs that both strictly prefer each other."""
    left_rank, right_rank = _rank_tables(market)
    n = market.n
    cur_right = list(matching.left_to_right)
    cur_left = [None] * n
    for i, j in enumerate(cur_right):
        cur_left[j] = i
    out = []
    for i in range(n):
        for j in range(n):
            if j == cur_right[i]:
                continue
            if (left_rank[i][j] < left_rank[i][cur_right[i]]
                    and right_rank[j][i] < right_rank[j][cur_left[j]]):
                out.append((i, j))
    return out


def is_stable(market: MatchingMarket, matching: Matching) -> bool:
    return not blocking_pairs(market, matching)


def enumerate_stable(market: MatchingMarket):
    """All stable matchings, by pruned depth-first search (n <= 8).

    Left agents are placed in order 0..n-1, each trying right partners in
    ascending index, so the matchings come out in lexicographic order of the
    left-to-right assignment vector. Placing left i with right j checks only
    the pairs it completes, (i, cur[k]) and (k, j) for every placed k < i,
    and prunes the branch at the first blocking pair. Each pair is so checked
    once, when the later of its two agents is placed. So the search does at
    most an O(i) check per node of the n! permutation tree, never more than
    an O(n^2) stability scan of every assignment; at n = 8 a market takes
    milliseconds.
    """
    left_rank, right_rank = _rank_tables(market)
    n = market.n
    cur = [0] * n                      # cur[k]: partner of placed left k
    taken = [False] * n
    out = []

    def place(i):
        if i == n:
            out.append(Matching(tuple(enumerate(cur))))
            return
        rank_i = left_rank[i]
        for j in range(n):
            if taken[j]:
                continue
            rank_j = right_rank[j]
            for k in range(i):
                c = cur[k]
                if ((rank_i[c] < rank_i[j] and right_rank[c][i] < right_rank[c][k])
                        or (left_rank[k][j] < left_rank[k][c]
                            and rank_j[k] < rank_j[i])):
                    break
            else:
                cur[i] = j
                taken[j] = True
                place(i + 1)
                taken[j] = False

    place(0)
    return out
