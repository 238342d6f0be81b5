"""Permutations, pattern containment, and counting and listing avoiders.

One dynamic program per pattern does all three jobs: a DP for 1324 and a
generic one for every other pattern.  Each describes the moves from a
prefix's state, the ranks that the next entry may take.  Counting sums
over the moves, listing walks them depth first (`_walk`), and
containment steps the generic DP through the host's entries.

Conventions used throughout the package:

- A permutation of length n has entries that are exactly 1..n, each once.
- Entry values and positions are both 1-based in every public result, so
  statements like "position 3 holds a left-to-right minimum" can be read
  off directly.
- Pattern containment is classical: p contains q when some subsequence of
  p is order-isomorphic to q, and p avoids q otherwise.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Callable, Iterator, Sequence
from functools import cache, partial
from math import factorial
from operator import index

from .series import _Frozen

__all__ = [
    "Permutation",
    "contains",
    "count_avoiders",
    "enumerate_avoiders",
]


class Permutation(_Frozen):
    """A permutation of 1..n stored as a tuple of entries.

    >>> Permutation.parse("3612745").entries
    (3, 6, 1, 2, 7, 4, 5)
    """

    __match_args__ = ("entries",)
    entries: tuple[int, ...]

    def __init__(self, entries: tuple[int, ...]) -> None:
        entries = tuple(map(index, entries))  # a float entry raises TypeError
        object.__setattr__(self, "entries", entries)
        n = len(entries)
        if sorted(entries) != list(range(1, n + 1)):
            raise ValueError(f"entries must be exactly 1..{n}: {entries!r}")

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse "3612745" (single digits) or "10,2,3,..." (comma form)."""
        text = text.strip()
        if not text:
            raise ValueError("empty permutation text")
        if "," in text or " " in text:
            parts = text.replace(",", " ").split()
        else:
            parts = list(text)
        try:
            return cls(tuple(int(part) for part in parts))
        except ValueError:
            raise ValueError(f"not a permutation: {text!r}") from None

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __str__(self) -> str:
        if self.entries and max(self.entries) > 9:
            return ",".join(str(e) for e in self.entries)
        return "".join(str(e) for e in self.entries)


def _entries_of(p: Permutation | Sequence[int]) -> tuple[int, ...]:
    if isinstance(p, Permutation):
        return p.entries
    if isinstance(p, str):
        return Permutation.parse(p).entries
    return tuple(p)


def contains(
    p: Permutation | Sequence[int], q: Permutation | Sequence[int]
) -> bool:
    """True when p has a subsequence order-isomorphic to q.

    Feeds p's entries through the generic DP's `_step`, each as its rank
    among the values still unused: p contains q exactly when a step
    completes an occurrence.  No count is taken, so the counting memo is
    left alone.  Like that DP, it takes p of length at most 31 and raises
    ValueError beyond.  p and q may hold any distinct values; a repeated
    value raises ValueError.

    >>> contains(Permutation.parse("2537164"), (1, 3, 2, 4))
    True
    >>> contains(Permutation.parse("3612745"), (1, 3, 2, 4))
    False
    """
    entries, pattern = _order_type(p), _order_type(q)
    if not pattern:
        return True  # the empty pattern occurs in every p; the DP needs a slot to match
    _require_generic(len(entries))
    unused = list(range(1, len(entries) + 1))
    state: tuple[int, ...] | None = ()
    for v in entries:
        state = _step(pattern, len(unused), state, unused.index(v))
        if state is None:
            return True
        unused.remove(v)
    return False


_PATTERN_1324 = (1, 3, 2, 4)


# The generic DP keeps, for a prefix, the occurrences of q[:j] in it
# that a suffix could still complete.  Only the order of the r unused
# values matters, so each is named by its rank among them, and an
# occurrence of q[:j] matters only through its windows: for each later
# slot s, the range of ranks that a value in slot s could take.  One
# occurrence is packed into an int with a field of _W bits per slot: bit
# y of field s is set when rank y lies in slot s's window.  Every window
# is a nonempty interval, so the fields of slots below j, and only they,
# are zero.  The top bit of each field is kept free as a guard, so n is at
# most _W - 1.
_W = 32
_RANKS = (1 << (_W - 1)) - 1


class _WindowMasks:
    """Masks over packed occurrences of one pattern q of length k."""

    def __init__(self, q: tuple[int, ...]):
        k = self.k = len(q)
        every_slot = sum(1 << (s * _W) for s in range(k))  # f * every_slot: f in each field
        # full[r]: the empty occurrence, every window all r ranks.
        self.full = [((1 << r) - 1) * every_slot for r in range(_W)]
        # below[x] / above[x]: the ranks below / above x in every field.
        self.below = [((1 << x) - 1) * every_slot for x in range(_W - 1)]
        self.above = [(_RANKS ^ ((2 << x) - 1)) * every_slot for x in range(_W - 1)]
        # Adding `carry` sets a field's guard bit exactly when the field is
        # nonzero; guards[j] holds the guard bits of slots j and up.
        self.carry = _RANKS * every_slot
        # slots_from[j]: every bit of slots j and up.
        self.slots_from = [(1 << (k * _W)) - (1 << (j * _W)) for j in range(k + 1)]
        guard = (1 << (_W - 1)) * every_slot
        self.guards = [guard & slots for slots in self.slots_from]
        # fill[j][x]: when rank x fills slot j, the windows left to the later
        # slots: above x for those above q[j] in q, below x for the others.
        self.fill = []
        for j in range(k):
            up = sum(_RANKS << (s * _W) for s in range(j + 1, k) if q[s] > q[j])
            down = sum(_RANKS << (s * _W) for s in range(j + 1, k) if q[s] < q[j])
            self.fill.append(
                [above & up | below & down for above, below in zip(self.above, self.below)]
            )


_window_masks = cache(_WindowMasks)


def _open(t: _WindowMasks, r: int, state: tuple[int, ...]) -> list[tuple[int, int]]:
    """The state's occurrences with r >= 1 ranks unused, each with its first open slot j.

    The empty occurrence (j = 0, every window all r ranks) comes first; a
    state leaves it implicit.
    """
    return [(occ, ((occ & -occ).bit_length() - 1) // _W) for occ in (t.full[r], *state)]


def _advance(
    t: _WindowMasks, r: int, opened: list[tuple[int, int]], x: int
) -> tuple[int, ...] | None:
    """The state after appending rank x among r to the `_open`ed occurrences.

    Returns None when the new value completes an occurrence of q.
    """
    k, carry, guards, slots_from = t.k, t.carry, t.guards, t.slots_from
    below, above = t.below[x], t.above[x]
    grown: dict[int, int] = {}  # packed occurrence -> j
    for occ, j in opened:
        if occ >> (j * _W + x) & 1:
            # x fills slot j of this occurrence: a q[:j + 1] occurrence.
            if j + 1 == k:
                return None
            child = occ & t.fill[j][x]
            child = child & below | (child & above) >> 1
            if (child + carry) & guards[j + 1] == guards[j + 1]:
                grown[child] = j + 1
        if j:
            # The occurrence stays as it is; rank x leaves its windows and
            # every rank above x drops by one.
            occ = occ & below | (occ & above) >> 1
            if (occ + carry) & guards[j] == guards[j]:
                grown[occ] = j
    # An occurrence that needs more slots than values remain can never
    # complete.  One whose windows, from some other occurrence's first open
    # slot on, lie inside that occurrence's adds nothing either: every
    # completion of it completes the other.  A cover has matched at least
    # as many slots and, at the same j, has more ranks in its windows, so
    # it comes first in this order (two occurrences with the same j and
    # bit count cover each other only when equal, so ties are safe);
    # covering is transitive, so comparing with the kept occurrences is
    # enough.  Each kept occurrence is held as the bits, from its first
    # open slot on, that lie outside its windows.
    kept: list[int] = []
    outside: list[int] = []
    order = sorted([(-j, -occ.bit_count(), occ, j) for occ, j in grown.items()])
    for _, _, occ, j in order:
        if k - j >= r:
            break  # so does every later one, which has matched no more slots
        for mask in outside:
            if not occ & mask:
                break
        else:
            kept.append(occ)
            outside.append(slots_from[j] & ~occ)
    return tuple(sorted(kept))


def _step(
    q: tuple[int, ...], r: int, state: tuple[int, ...], x: int
) -> tuple[int, ...] | None:
    """The state after appending the unused value of rank x among r.

    Returns None when the new value completes an occurrence of q.
    """
    t = _window_masks(q)
    return _advance(t, r, _open(t, r, state), x)


def _moves_generic(
    q: tuple[int, ...], r: int, state: tuple[int, ...]
) -> Iterator[tuple[int, tuple[int, tuple[int, ...]]]]:
    """Yield (x, next state) for each rank x a q-avoider may append.

    A state is the number r of unused values and the packed occurrences
    that `_advance` keeps.  The state is opened once for all r ranks.
    """
    t = _window_masks(q)
    opened = _open(t, r, state)
    for x in range(r):
        nxt = _advance(t, r, opened, x)
        if nxt is not None:
            yield x, (r - 1, nxt)


@cache
def _completions_generic(q: tuple[int, ...], r: int, state: tuple[int, ...]) -> int:
    """Number of ways to finish a q-avoiding prefix, from its packed state.

    `state` holds the prefix's occurrences of q[:j] (1 <= j < len(q)) as
    packed windows over the r unused values, without those that another
    one covers.  The state does not depend on n, so the cache serves
    every length.
    """
    if r == 0:
        return 1
    return sum(_completions_generic(q, *s) for _, s in _moves_generic(q, r, state))


def _require_generic(n: int) -> None:
    """Raise ValueError unless n fits the generic DP's packed ranks."""
    if n >= _W:
        raise ValueError(f"the generic DP handles n <= {_W - 1}, got {n}")


def _flatten(entries: tuple[int, ...]) -> tuple[int, ...]:
    ranks = {v: r for r, v in enumerate(sorted(entries), start=1)}
    return tuple(ranks[v] for v in entries)


def _order_type(q: Permutation | Sequence[int]) -> tuple[int, ...]:
    """q's entries as ranks; a repeated value has no order type, and raises ValueError."""
    return Permutation(_flatten(_entries_of(q))).entries


def _root_1324(n: int) -> tuple[int, tuple[int, ...]]:
    """The 1324 DP's state of the empty prefix of a permutation of 1..n."""
    return n, (0,) * n


def _moves_1324(
    m: int, d: tuple[int, ...]
) -> Iterator[tuple[int, tuple[int, tuple[int, ...]]]]:
    """Yield (i, next state) for each rank i a 1324-avoider may append.

    The state (m, d) of a 1324-avoiding prefix is rank-compressed: only
    the order of the r unused values matters, so each is named by its rank
    among them.  `m` is the number of unused values below the prefix
    minimum.  For the unused value w of rank j, let h(w) be the least used
    value above w that follows some used value below w: appending w closes
    a 132 occurrence topped by h(w).  `d[j]` is w's distance below the top,
    the number of unused values above h(w), or 0 when there is no such
    value.

    Every 132 occurrence in a prefix that reaches this state is topped
    above all unused values (otherwise no completion avoids 1324), so
    appending w is allowed exactly when `d[j] == 0`.  The state does not
    depend on n.

    A move copies d in three slices.  No used value lies below the ranks
    below m, so they read 0.  Appending a rank i < m makes it the new
    minimum: m becomes i, and d loses one of its m leading zeros.
    Appending i >= m keeps m and the d of the ranks above i, whose h lies
    above the new value v.  Only d[m:i] changes: v becomes a candidate for
    their h, so each entry x there becomes max(x - 1, r - 1 - i), the
    unused values above the old h less v, or those above v.
    """
    r = len(d)
    if m:
        rest = d[: m - 1] + d[m:]
        for i in range(m):
            yield i, (i, rest)
    head = d[:m]
    for i in range(m, r):
        if d[i]:
            continue
        floor = r - 1 - i
        mid = tuple([x - 1 if x > floor else floor for x in d[m:i]])
        yield i, (m, head + mid + d[i + 1 :])


@cache
def _completions_1324(m: int, d: tuple[int, ...]) -> int:
    """Number of ways to finish a 1324-avoiding prefix from its state.

    The cache serves every length, as the state does not depend on n.
    """
    if len(d) <= 1:
        return 1
    return sum(_completions_1324(*s) for _, s in _moves_1324(m, d))


_Moves = Callable[..., Iterator[tuple[int, tuple]]]


def _walk(n: int, moves: _Moves, root: tuple) -> Iterator[tuple[int, ...]]:
    """Yield the entries of the permutations of 1..n that `moves` allows, in lexicographic order.

    Follows `moves(*state)` depth first from `root`, the empty prefix's
    state, in one frame with a stack of move iterators; rank i is the i-th
    smallest of the sorted `unused` values.  Few states serve many avoiders
    (105 serve the 15,793 1324-avoiders of length 8), so a state's moves
    are derived once, when the walk first pushes it, into a memo of this
    walk's own; the counting caches are not touched.  The last value is
    read without its move, so every state the moves reach must have a
    completion, as every 1324 state does (a decreasing suffix finishes
    it); generic moves go through `_live`.
    """
    unused = list(range(1, n + 1))
    if n == 0:
        yield ()  # the empty permutation avoids every nonempty pattern
        return
    memo: dict[tuple, tuple] = {}  # state -> its moves
    prefix: list[int] = []
    # The root's moves, then one level per entry of the prefix.
    stack: list[Iterator] = [iter(moves(*root))]
    while stack:
        for i, state in stack[-1]:
            break
        else:
            stack.pop()
            if prefix:
                insort(unused, prefix.pop())
            continue
        prefix.append(unused.pop(i))
        if len(unused) > 1:
            found = memo.get(state)
            if found is None:
                found = memo[state] = tuple(moves(*state))
            stack.append(iter(found))
            continue
        # The last value takes no level of its own: the state has a
        # completion, so it has a move.  (At n = 1 none is left.)
        yield (*prefix, *unused)
        unused.insert(i, prefix.pop())


def _live(moves: _Moves) -> _Moves:
    """The generic DP's `moves`, kept only into states that have a completion.

    A generic state may have values left and no avoider to finish.  The
    search for a completion stops at the first one it finds and keeps
    each state's answer in a memo of this wrapper's own; state[0] is the
    number of unused values.  The search and the kept moves read one
    store of each state's raw moves, so `moves` runs once per state.
    """

    @cache
    def moves_of(state: tuple) -> tuple:  # live or not
        return tuple(moves(*state))

    @cache
    def is_live(state: tuple) -> bool:
        return state[0] == 0 or any(is_live(s) for _, s in moves_of(state))

    def live_moves(*state: object) -> Iterator[tuple[int, tuple]]:
        return ((x, s) for x, s in moves_of(state) if is_live(s))

    return live_moves


def count_avoiders(n: int, q: Permutation | Sequence[int]) -> int:
    """Number of permutations of 1..n avoiding q.

    For 1324 a memoised dynamic program over rank-compressed prefix states
    (`_moves_1324`) counts without listing the avoiders: n = 18 visits
    about 112k states and takes 0.8 s and 43 MB in a fresh process on a
    2-core Xeon VM.  Any other pattern takes the generic DP over the
    windows of partial occurrences (`_moves_generic`), which does not list
    them either: all n <= 13 of 4231 take 0.5 s (5.9k states, 18 MB), of
    any pattern of length 4 at most 1.3 s, and of the length-5 to length-7
    patterns tried 2.8-6.3 s and 32-49 MB.  The generic DP takes n <= 31.
    A pattern with a repeated value raises ValueError.

    >>> count_avoiders(4, (1, 3, 2, 4))
    23
    >>> count_avoiders(5, (1, 3, 2))
    42
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    pattern = _order_type(q)
    if not pattern:
        raise ValueError("pattern must be nonempty")
    if len(pattern) > n:
        return factorial(n)
    if pattern == _PATTERN_1324:
        return _completions_1324(*_root_1324(n))
    _require_generic(n)
    return _completions_generic(pattern, n, ())


def dp_state_count(q: Permutation | Sequence[int]) -> int:
    """Memo states held, for every pattern and length so far, by q's counting engine."""
    pattern = _order_type(q)
    engine = _completions_1324 if pattern == _PATTERN_1324 else _completions_generic
    return engine.cache_info().currsize


_new, _put = object.__new__, object.__setattr__  # looked up once, not per avoider


def _trusted(entries: tuple[int, ...]) -> Permutation:
    """The Permutation of entries that are exactly 1..n, as `_walk` yields them, unchecked."""
    p = _new(Permutation)
    _put(p, "entries", entries)
    return p


def _avoider_walk(n: int, q: Permutation | Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The `_walk` of the q-avoiders of length n, its arguments checked at the call."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    pattern = _order_type(q)
    if not pattern:
        raise ValueError("pattern must be nonempty")
    if pattern == _PATTERN_1324:
        return _walk(n, _moves_1324, _root_1324(n))
    _require_generic(n)
    return _walk(n, _live(partial(_moves_generic, pattern)), (n, ()))


def enumerate_avoiders(n: int, q: Permutation | Sequence[int]) -> Iterator[Permutation]:
    """Return the q-avoiding permutations of 1..n, lazily, in lexicographic order.

    The arguments are checked at the call, the generic DP's cap of
    n <= 31 and a repeated pattern value included.  The walk follows the
    moves of the pattern's counting DP in one frame, memoising them per
    call and leaving the counting caches alone: `_moves_1324` as they are,
    `_moves_generic` only into states that have a completion (`_live`,
    with a fresh memo per call).  It builds only permutations of 1..n, so
    the results skip `Permutation`'s check.

    >>> [str(p) for p in enumerate_avoiders(3, (1, 3, 2))]
    ['123', '213', '231', '312', '321']
    """
    return map(_trusted, _avoider_walk(n, q))
