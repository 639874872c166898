"""
element: arithmetic in the monoid presented by a germ.

Elements are always stored in left normal form: a power of Delta followed
by a sequence of proper simples, each pair left weighted.  All operations
are pure functions of (germ, inputs) and return fresh NormalWords, so
values can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .germ import Germ


@dataclass(frozen=True)
class NormalWord:
    """
    The left normal form Delta^deltas . x1 . x2 ... of a monoid element.
    No factor is the unit or Delta; consecutive factors are left weighted.
    Equality of normal words is equality of elements.
    """
    deltas: int
    factors: tuple[int, ...]

    @property
    def inf(self) -> int:
        return self.deltas

    @property
    def sup(self) -> int:
        return self.deltas + len(self.factors)

    @property
    def cl(self) -> int:
        """Canonical length: the number of non-Delta factors."""
        return len(self.factors)


UNIT = NormalWord(0, ())


def simple(g: Germ, s: int) -> NormalWord:
    """The element given by one simple."""
    if s == g.unit:
        return UNIT
    if s == g.delta:
        return NormalWord(1, ())
    return NormalWord(0, (s,))


def delta_power(g: Germ, k: int) -> NormalWord:
    return NormalWord(k, ())


def letters(g: Germ, w: NormalWord) -> tuple[int, ...]:
    """The normal word as a plain letter sequence, Delta powers expanded."""
    return (g.delta,) * w.deltas + w.factors


def normal_form(g: Germ, word: Iterable[int]) -> NormalWord:
    """
    Left normal form of a product of simples.  Adjacent pairs (s, t) are
    rewritten to (s.u, u\\t) with u = meet(comp s, t) until every pair is
    left weighted; then Delta letters (all leading by then) become the
    Delta power and unit letters (all trailing) are dropped.
    """
    w = [s for s in word]
    unit = g.unit
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            s, t = w[i], w[i + 1]
            u = g.meet(g.complement(s), t)
            if u != unit:
                w[i] = g.product(s, u)
                w[i + 1] = g.lcomp(u, t)
                changed = True
    lo = 0
    hi = len(w)
    while lo < hi and w[lo] == g.delta:
        lo += 1
    while lo < hi and w[hi - 1] == unit:
        hi -= 1
    return NormalWord(lo, tuple(w[lo:hi]))


def is_normal(g: Germ, w: NormalWord) -> bool:
    """Whether the stored word really is a left normal form."""
    return w.deltas >= 0 and g.delta not in w.factors and _is_normal_word(g, w.factors)


def _is_normal_word(g: Germ, word: Sequence[int]) -> bool:
    # Left weighted with no unit letter; Delta letters are allowed.
    if any(s == g.unit for s in word):
        return False
    return all(g.normal_pair(word[i], word[i + 1]) for i in range(len(word) - 1))


def multiply(g: Germ, x: NormalWord, y: NormalWord) -> NormalWord:
    if not y.deltas and (not x.factors or not y.factors
                         or g.normal_pair(x.factors[-1], y.factors[0])):
        return NormalWord(x.deltas + y.deltas, x.factors + y.factors)
    return normal_form(g, letters(g, x) + letters(g, y))


def atom_length(g: Germ, w: NormalWord) -> int:
    """Length of w as a product of atoms (germs here are homogeneous)."""
    return w.deltas * g.atom_len[g.delta] + sum(g.atom_len[f] for f in w.factors)


def head(g: Germ, w: NormalWord) -> int:
    """The first normal-form factor, Delta wedge w as a simple."""
    if w.deltas > 0:
        return g.delta
    if w.factors:
        return w.factors[0]
    return g.unit


def _word_under_simple(g: Germ, s: int, ys: Iterable[int]) -> list[int]:
    # s\(y1 y2 ...) one letter at a time; the running complement of s
    # under the consumed prefix is carried along.
    out = []
    cur = s
    for y in ys:
        out.append(g.lcomp(cur, y))
        cur = g.lcomp(y, cur)
    return out


def left_complement(g: Germ, x: NormalWord, y: NormalWord) -> NormalWord:
    """The element x\\y with x.(x\\y) = lcm(x, y)."""
    w = list(letters(g, y))
    for s in letters(g, x):
        w = _word_under_simple(g, s, w)
    return normal_form(g, w)


def lcm(g: Germ, x: NormalWord, y: NormalWord) -> NormalWord:
    return multiply(g, x, left_complement(g, x, y))


def gcd(g: Germ, x: NormalWord, y: NormalWord) -> NormalWord:
    """
    Greatest common prefix, by repeatedly extracting the meet of the two
    head factors; a trivial head meet means the remainders share nothing.
    """
    acc: list[int] = []
    while True:
        a = g.meet(head(g, x), head(g, y))
        if a == g.unit:
            break
        acc.append(a)
        s = simple(g, a)
        x = left_complement(g, s, x)
        y = left_complement(g, s, y)
    return normal_form(g, acc)


def divides(g: Germ, x: NormalWord, y: NormalWord) -> bool:
    """Whether x is a prefix of y."""
    return multiply(g, x, left_complement(g, x, y)) == y


# -- suffix-order variants, through the opposite germ ----------------------

def _reversed_in(g_from: Germ, g_to: Germ, w: NormalWord) -> NormalWord:
    return normal_form(g_to, tuple(reversed(letters(g_from, w))))


def rgcd(g: Germ, x: NormalWord, y: NormalWord) -> NormalWord:
    """Greatest common suffix."""
    op = g.opposite()
    r = gcd(op, _reversed_in(g, op, x), _reversed_in(g, op, y))
    return _reversed_in(op, g, r)


def right_complement(g: Germ, x: NormalWord, y: NormalWord) -> NormalWord:
    """The element y/x with (y/x).x = right-lcm(x, y)."""
    op = g.opposite()
    r = left_complement(op, _reversed_in(g, op, x), _reversed_in(g, op, y))
    return _reversed_in(op, g, r)


def rlcm(g: Germ, x: NormalWord, y: NormalWord) -> NormalWord:
    return multiply(g, right_complement(g, x, y), x)


def rdivides(g: Germ, x: NormalWord, y: NormalWord) -> bool:
    """Whether x is a suffix of y."""
    return multiply(g, right_complement(g, x, y), x) == y


# -- enumeration and balance ------------------------------------------------

def iter_elements(g: Germ, max_len: int) -> Iterator[NormalWord]:
    """All elements of atom length at most max_len, shortest first."""
    level = {UNIT}
    yield UNIT
    for _ in range(max_len):
        nxt = set()
        for w in level:
            for a in g.atoms:
                nxt.add(multiply(g, w, simple(g, a)))
        for w in sorted(nxt, key=lambda v: (v.deltas, v.factors)):
            yield w
        level = nxt


def left_divisor_set(g: Germ, x: NormalWord) -> set[NormalWord]:
    """All prefixes of x (grown from the unit, one atom at a time)."""
    found = {UNIT}
    frontier = [UNIT]
    while frontier:
        d = frontier.pop()
        for a in g.atoms:
            da = multiply(g, d, simple(g, a))
            if da not in found and divides(g, da, x):
                found.add(da)
                frontier.append(da)
    return found


def right_divisor_set(g: Germ, x: NormalWord) -> set[NormalWord]:
    found = {UNIT}
    frontier = [UNIT]
    while frontier:
        d = frontier.pop()
        for a in g.atoms:
            ad = multiply(g, simple(g, a), d)
            if ad not in found and rdivides(g, ad, x):
                found.add(ad)
                frontier.append(ad)
    return found


def balance_witness(g: Germ, x: NormalWord) -> NormalWord | None:
    """
    None if the prefixes of x are exactly its suffixes; otherwise an
    element in one set but not the other (the canonically smallest one).
    """
    left = left_divisor_set(g, x)
    right = right_divisor_set(g, x)
    diff = left.symmetric_difference(right)
    if not diff:
        return None
    return min(diff, key=lambda w: (atom_length(g, w), w.deltas, w.factors))


def is_balanced(g: Germ, x: NormalWord) -> bool:
    return balance_witness(g, x) is None


# -- text form ---------------------------------------------------------------

def format_nf(g: Germ, w: NormalWord) -> str:
    """Render as `D^k|x1|x2`; the unit renders as `1`."""
    parts = []
    if w.deltas:
        parts.append(f"D^{w.deltas}")
    parts.extend(g.names[f] for f in w.factors)
    return "|".join(parts) if parts else "1"
