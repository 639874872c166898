"""
element: arithmetic in the monoid presented by a germ.

Elements are always stored in left normal form: a power of Delta followed
by a sequence of proper simples, each pair left weighted.  All operations
are pure functions of (germ, inputs) and return fresh NormalWords, so
values can be shared freely.

One algorithm makes every normal form: right multiplication of a normal
word by one simple, a single backward sweep over the factors that stops
at the first trivial meet (the domino rule: Dehornoy, Digne, Godelle,
Krammer & Michel, Foundations of Garside Theory, ch. III; El-Rifai &
Morton, Algorithms for positive braids, 1994).  normal_form folds it over
a word, multiply sweeps in the factors of its right operand, and gcd and
the complements finish with it.  Delta powers stay a counter: with
tau = comp^2, s.Delta = Delta.tau(s), so a Delta moves to the front by
twisting what it passes, and no Delta enters a sweep.

One table says which letter may follow which: y may follow x iff only the
unit lies below both comp x and y.  In a germ that validate accepts every
other simple has an atom prefix, so that depends only on the atoms below
comp x, and _successors reads one meet row per such atom set, letters with
equal successors sharing one object, their class.  The acceptors and the
walked suites read it, over the letters of a germ or of a parabolic factor:
factor words are normal exactly when they are normal in the whole germ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .germ import Germ, GermError


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


UNIT = NormalWord(0, ())


def simple(g: Germ, s: int) -> NormalWord:
    """The element given by one simple."""
    if s == g.unit:
        return UNIT
    if s == g.delta:
        return NormalWord(1, ())
    return NormalWord(0, (s,))


def delta_power(g: Germ, k: int) -> NormalWord:
    return UNIT if g.delta == g.unit else NormalWord(k, ())  # a trivial germ's Delta is 1


def letters(g: Germ, w: NormalWord) -> tuple[int, ...]:
    """The normal word as a plain letter sequence, Delta powers expanded."""
    return (g.delta,) * w.deltas + w.factors


def normal_form(g: Germ, word: Iterable[int]) -> NormalWord:
    """
    Left normal form of a product of simples: a fold of right
    multiplication by one simple over the word.  Unit letters are dropped
    and Delta letters join the Delta power (see _fold).
    """
    return _fold(g, 0, word)


def is_normal(g: Germ, w: NormalWord) -> bool:
    """Whether the stored word really is a left normal form."""
    return (w.deltas >= 0 and (w.deltas == 0 or g.delta != g.unit) and g.delta not in w.factors
            and _is_normal_word(g, w.factors))


def _is_normal_word(g: Germ, word: Sequence[int]) -> bool:
    # Left weighted with no unit letter; Delta letters are allowed.
    if any(s == g.unit for s in word):
        return False
    return all(g.normal_pair(word[i], word[i + 1]) for i in range(len(word) - 1))


# -- the sweep -----------------------------------------------------------------

def _sweep(g: Germ, f: list[int], b: int) -> int:
    """
    Right-multiply the normal word f of proper simples, in place, by the
    proper simple b, and return the position where the sweep stopped.

    The carry b starts after the last factor a.  Each step replaces the
    pair (a, b) by (a.u, u\\b) with u = meet(comp a, b) and carries a.u one
    position to the left.  Pairs already left weighted stay so (the domino
    rule), hence the sweep stops at the first u = 1.  Only the last
    position can end as the unit, which is dropped here, and only the first
    can become Delta, which the caller moves into its Delta power.
    """
    meet, comp, prod, unit = g._meet, g._comp, g.product_rows, g.unit
    inv = g._row_inv or g._row_inverses()
    j = len(f)
    f.append(b)
    while j:
        a = f[j - 1]
        c = comp[a]
        if c < 0:
            g.complement(a)  # raises: a has no complement
        u = meet[c][b]
        if u == unit:
            break
        if u < 0:  # hot path: one entry checked, where a row check would scan n
            g.meet(c, b)  # raises: germ is not a lattice
        f[j] = inv[u][b]
        b = prod[a][u]
        j -= 1
    f[j] = b
    if f[-1] == unit:
        f.pop()
    return j


def _fold(g: Germ, deltas: int, word: Iterable[int]) -> NormalWord:
    """
    The normal form of Delta^deltas.word, by one sweep per letter.  Delta
    letters never enter a sweep: s.Delta = Delta.tau(s), so they join the
    Delta power and a letter with k of them after it becomes tau^k(s).
    """
    word = [s for s in word if s != g.unit]
    if g.delta in word:
        k = word.count(g.delta)
        deltas += k
        moved = []
        for s in word:
            if s == g.delta:
                k -= 1
            else:
                moved += _twist(g, k, (s,))
        word = moved
    f: list[int] = []
    for s in word:
        if not _sweep(g, f, s) and f[0] == g.delta:
            del f[0]
            deltas += 1
    return NormalWord(deltas, tuple(f))


def _tau_orbits(g: Germ) -> list[tuple[list[int], int]]:
    """
    For each simple s, its orbit under tau = comp^2 and the position of s
    in it, so that tau^k(s) is one lookup for any k.  Built once per germ,
    on first use.
    """
    orbits = g._memo.get("tau_orbits")
    if orbits is None:
        tau = [g.complement(g.complement(s)) for s in range(len(g))]
        if len(set(tau)) != len(tau):
            raise GermError("Delta-conjugation is not a bijection: germ is not valid")
        orbits = [None] * len(tau)
        for s in range(len(tau)):
            if orbits[s] is None:
                orbit = [s]
                while tau[orbit[-1]] != s:
                    orbit.append(tau[orbit[-1]])
                for i, t in enumerate(orbit):
                    orbits[t] = (orbit, i)
        g._memo["tau_orbits"] = orbits
    return orbits


def _twist(g: Germ, k: int, word: Iterable[int]) -> list[int]:
    """tau^k of every letter: word.Delta^k = Delta^k.tau^k(word)."""
    if not k:
        return list(word)
    orbits = _tau_orbits(g)
    out = []
    for s in word:
        orbit, i = orbits[s]
        out.append(orbit[(i + k) % len(orbit)])
    return out


def multiply(g: Germ, x: NormalWord, y: NormalWord) -> NormalWord:
    """
    The product x.y.  x's factors are twisted past y's Delta power, then
    y's factors are swept in one at a time.  Once one of them lands
    unchanged so does every later one, since y is normal, and the rest of
    y is appended as it is.
    """
    f = _twist(g, y.deltas, x.factors)
    deltas = x.deltas + y.deltas
    ys = y.factors
    for i, s in enumerate(ys):
        n = len(f)
        j = _sweep(g, f, s)
        if j == n:
            f.extend(ys[i + 1:])
            break
        if not j and f[0] == g.delta:
            del f[0]
            deltas += 1
    return NormalWord(deltas, tuple(f))


def atom_length(g: Germ, w: NormalWord) -> int:
    """The atom_len of w's letters, summed.  In a homogeneous germ, where atom_len
    adds up over the product table, every atom word of w has this length; otherwise
    the atom words of one element may differ in length, as a.a and b.b.b."""
    return w.deltas * g.atom_len[g.delta] + sum(g.atom_len[f] for f in w.factors)


def head(g: Germ, w: NormalWord) -> int:
    """The first normal-form factor, Delta wedge w as a simple."""
    if w.deltas > 0:
        return g.delta
    if w.factors:
        return w.factors[0]
    return g.unit


def _under(g: Germ, s: int, word: list[int]) -> list[int]:
    """
    s\\w for a word w, one letter at a time: the complement of s under the
    consumed prefix is carried along, and one join gives both complements
    of a cell.  Unit letters are dropped; once the carry is the unit the
    rest of w passes unchanged.
    """
    join, inv, unit = g._join, g._row_inv or g._row_inverses(), g.unit
    out = []
    for i, y in enumerate(word):
        if s == unit:
            out.extend(word[i:])
            break
        v = join[s][y]
        if v < 0:  # hot path: one entry checked, where a row check would scan n
            g.join(s, y)  # raises: germ is not a lattice
        t = inv[s][v]
        if t != unit:
            out.append(t)
        s = inv[y][v]
    return out


def left_complement(g: Germ, x: NormalWord, y: NormalWord) -> NormalWord:
    """
    The element x\\y with x.(x\\y) = lcm(x, y), on the grid of simple
    complements: each letter s of x replaces a word w for the current y by
    s\\w.  Delta powers stay symbolic:
    - y below Delta^inf(x) gives the unit at once;
    - a common Delta power cancels, Delta^a\\(Delta^b w) = Delta^(b-a) w;
    - while y keeps a Delta power, a row is one lookup,
      s\\(Delta^e w) = Delta^(e-1).tau^(e-1)(comp s).w;
    - x keeps fewer Delta rows than y has factors.
    The final word is normalised by the sweep.
    """
    if y.sup <= x.deltas:
        return UNIT
    e = y.deltas - x.deltas
    rows = (g.delta,) * max(-e, 0) + x.factors
    e = max(e, 0)
    word = list(y.factors)
    for s in rows:
        if e:
            e -= 1
            word[:0] = _twist(g, e, (g.complement(s),))
        else:
            word = _under(g, s, word)
            if not word:
                return UNIT
    return _fold(g, e, word)


def lcm(g: Germ, x: NormalWord, y: NormalWord) -> NormalWord:
    return multiply(g, x, left_complement(g, x, y))


def gcd(g: Germ, x: NormalWord, y: NormalWord) -> NormalWord:
    """
    Greatest common prefix.  The head of gcd(x, y) is the meet of the two
    heads, so dividing it out of both and repeating lists the normal form
    of the gcd factor by factor.  A common Delta power comes out first;
    once one remainder lies below Delta^inf of the other, it is the rest.
    """
    c = min(x.deltas, y.deltas)
    x = NormalWord(x.deltas - c, x.factors)
    y = NormalWord(y.deltas - c, y.factors)
    acc: list[int] = []
    while x.sup > y.deltas:
        if y.sup <= x.deltas:
            x = y
            break
        hx, hy = head(g, x), head(g, y)
        a = g.meet(hx, hy)
        if a == g.unit:
            x = UNIT
            break
        acc.append(a)
        x = _divide_head(g, x, hx, a)
        y = _divide_head(g, y, hy, a)
    return multiply(g, NormalWord(c, tuple(acc)), x)


def _divide_head(g: Germ, x: NormalWord, h: int, a: int) -> NormalWord:
    """a^-1.x for a prefix a of the head h of x: (a\\h) times the rest of x.  In a
    valid germ a\\h has fewer atoms than h, as atom_len counts the longest atom word."""
    rest = NormalWord(x.deltas - 1, x.factors) if x.deltas else NormalWord(0, x.factors[1:])
    if g.atom_len[t := g.lcomp(a, h)] >= g.atom_len[h]:
        raise GermError(f"{g.names[a]}\\{g.names[h]} is {g.names[t]}, no shorter than "
                        f"{g.names[h]}: germ is not valid")
    return multiply(g, simple(g, t), rest)


def divides(g: Germ, x: NormalWord, y: NormalWord) -> bool:
    """Whether x is a prefix of y: lcm(x, y) = y, that is y\\x = 1."""
    return left_complement(g, y, x) == UNIT


# -- the suffix order, through the complement to Delta^k -------------------------
# For k >= sup x, sup y, x' = tau^-k(x\Delta^k) has x'.x = Delta^k, and y is a suffix of
# x iff x' is a prefix of y': the prefix lattice answers, on germs validate accepts.

def _duals(g: Germ, x: NormalWord, y: NormalWord) -> tuple[int, list[NormalWord]]:
    k = max(x.sup, y.sup)
    return k, [NormalWord(u.deltas, tuple(_twist(g, -k, u.factors)))
               for u in (left_complement(g, w, NormalWord(k, ())) for w in (x, y))]


def rgcd(g: Germ, x: NormalWord, y: NormalWord) -> NormalWord:
    """Greatest common suffix: lcm(x', y')\\Delta^k."""
    k, (xd, yd) = _duals(g, x, y)
    return left_complement(g, lcm(g, xd, yd), NormalWord(k, ()))


def right_complement(g: Germ, x: NormalWord, y: NormalWord) -> NormalWord:
    """The element y/x with (y/x).x = right-lcm(x, y): gcd(x', y')\\x'."""
    _, (xd, yd) = _duals(g, x, y)
    return left_complement(g, gcd(g, xd, yd), xd)


def rlcm(g: Germ, x: NormalWord, y: NormalWord) -> NormalWord:
    return multiply(g, right_complement(g, x, y), x)


def rdivides(g: Germ, x: NormalWord, y: NormalWord) -> bool:
    """Whether x is a suffix of y: x/y = 1."""
    return right_complement(g, y, x) == UNIT


# -- enumeration and balance ------------------------------------------------

class _Follow(dict):
    """The letters that may follow one class of letters, as keys in alphabet order."""
    __hash__ = object.__hash__  # one object per class, so a walk's state may hold it


def _successors(g: Germ, alphabet: Sequence[int]) -> dict[int, _Follow]:
    """Per letter x, the letters y of the alphabet with meet(comp x, y) the unit: the meet
    row of the first complement with the atom set of comp x, gathered at the alphabet; its
    first gap raises normal_pair's GermError.  The germ's memo keeps the table, and every
    caller gets that one object: read it, never change it."""
    memo, key = g._memo.setdefault("successors", {}), tuple(alphabet)
    if key in memo:
        return memo[key]
    atoms, unit = sum(1 << a for a in g.atoms), g.unit
    by_atoms, by_list, succ = {}, {}, {}
    for s in alphabet:
        c = g.complement(s)
        if (below := g.ldiv[c] & atoms) not in by_atoms:
            row = g.lattice_row("meet", c, alphabet)
            ts = tuple([t for t, m in zip(alphabet, row) if m == unit])
            by_atoms[below] = by_list.setdefault(ts, _Follow.fromkeys(ts))
        succ[s] = by_atoms[below]
    memo[key] = succ
    return succ


def _from_letters(word: Sequence[int], delta: int) -> NormalWord:
    """The normal word of a normal letter sequence: its leading `delta` letters become the count."""
    k = 0
    while k < len(word) and word[k] == delta:
        k += 1
    return NormalWord(k, tuple(word[k:]))


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
    """All suffixes of x: c\\x for each prefix c of x."""
    return {left_complement(g, c, x) for c in left_divisor_set(g, x)}


def balance_witness(g: Germ, x: NormalWord) -> NormalWord | None:
    """
    None if the prefixes of x are exactly its suffixes; otherwise an
    element in one set but not the other (the canonically smallest one).
    """
    diff = left_divisor_set(g, x) ^ right_divisor_set(g, x)
    return min(diff, key=lambda w: (atom_length(g, w), w.deltas, w.factors), default=None)


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
