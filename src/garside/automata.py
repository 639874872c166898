"""
automata: finite-state acceptors for the regular languages of normal-form
words over a simple-element alphabet.

The acceptor has one state per alphabet letter ("the last letter read"),
a start state and a dead state; every state except dead accepts.  A letter
y is live after x exactly when the pair x, y is left weighted, so a word
is accepted iff it is in normal form.  The "proper" variant reads letters
from the proper simples; the "full" variant admits Delta as an ordinary
letter.

Such an acceptor is fixed by its alphabet and its table of live pairs, and
so is its language: the words of length 1 are the letters, those of
length 2 the live pairs, and a longer word is accepted iff all its
adjacent pairs are live.  Two acceptors built here therefore accept the
same words at every length exactly when their alphabets and transition
tables are equal.

Every builder fills one transition row per key at the live positions that
the key gives, so a build costs one key per letter and O(K*L) for K keys
and L letters.  The acceptors of a germ and of its factors take their keys
and rows from element._successors, one per class of letters with equal
successors, which reads one meet row per atom set: braid:6 has 718 letters
but 30 meet rows read, braid:7 5,038 letters and 62.  count_accepted runs
over classes of states with equal rows, in O(S + R*L + n*R^2) for S states
and R classes, and refuses n above a stated budget.

translate_pair_to_product rebuilds the product monoid's acceptor from the
two factor acceptors and the action tables alone, without consulting the
product lattice: letters whose acted parts have equal factor rows share
one row.  project_product_to_pair is the inverse restriction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, count

from . import element
from .germ import Germ, _cached, _gather
from .zappa_szep import ZSStructure


@dataclass(frozen=True)
class NFAutomaton:
    """
    Deterministic complete acceptor.  States: 0 is start, 1..L are the
    letter states in alphabet order, L+1 is dead.  All states accept
    except dead.
    """
    letters: tuple[int, ...]               # alphabet, as SimpleIds, ascending
    letter_names: tuple[str, ...]
    transitions: tuple[tuple[int, ...], ...]  # [state][letter position] -> state

    @property
    def n_states(self) -> int:
        return len(self.letters) + 2

    @property
    def dead(self) -> int:
        return len(self.letters) + 1

    def is_accepting(self, state: int) -> bool:
        return state != self.dead

    def state_name(self, state: int) -> str:
        if state == 0:
            return "start"
        if state == self.dead:
            return "dead"
        return self.letter_names[state - 1]

    @_cached
    def position(self) -> dict[int, int]:
        """Position of each letter (a SimpleId) in the alphabet."""
        return {s: i for i, s in enumerate(self.letters)}

    def step(self, state: int, letter: int) -> int:
        """Next state on reading a letter (a SimpleId); dead off the alphabet."""
        pos = self.position.get(letter)
        if pos is None:
            return self.dead
        return self.transitions[state][pos]

    def accepts(self, word) -> bool:
        state = 0
        for letter in word:
            state = self.step(state, letter)
        return self.is_accepting(state)


def build_nf_automaton(g: Germ, variant: str = "proper") -> NFAutomaton:
    """Acceptor of the normal-form language of a germ over its proper simples, or
    with variant="full" over Delta too."""
    return _build_by_complement(g, range(len(g)), g.delta, variant)


def _build_from_rows(g: Germ, letters, live_of, key) -> NFAutomaton:
    """
    The acceptor over letters of g in which letter y may follow letter x iff
    y's position in the alphabet is among live_of(x).  Letters with equal
    key(x) must have equal rows: live_of is called only for the first letter
    of each key, right after key(x), and the rest share its row.
    """
    dead = len(letters) + 1
    # One int object per state, and one tuple per distinct row: letters
    # with the same live successors (few sets, for many letters) share it.
    states = tuple(range(1, dead))
    distinct: dict[tuple[int, ...], tuple[int, ...]] = {}
    by_key: dict = {}
    rows = [states]  # start: every letter is live
    for x in letters:
        k = key(x)
        row = by_key.get(k)
        if row is None:
            row = [dead] * len(letters)
            for i in live_of(x):
                row[i] = states[i]
            row = tuple(row)
            row = by_key[k] = distinct.setdefault(row, row)
        rows.append(row)
    rows.append((dead,) * len(letters))
    return NFAutomaton(tuple(letters), tuple(g.names[s] for s in letters), tuple(rows))


def _build_by_complement(g: Germ, simples, top: int, variant: str) -> NFAutomaton:
    """The acceptor over the simples but the unit, and in the proper variant but top, their
    delta, too, in which y may follow x iff comp x and y meet in the unit: one row per class
    of element._successors, its letters live.  On a parabolic factor's simples that is the
    factor's own criterion, x\\top for comp x: its normal words are the germ's."""
    if variant not in ("proper", "full"):
        raise ValueError(f"unknown automaton variant {variant!r}")
    letters = tuple(s for s in simples if s != g.unit and (variant == "full" or s != top))
    succ, at = element._successors(g, letters), {s: i for i, s in enumerate(letters)}
    return _build_from_rows(g, letters, lambda x: map(at.__getitem__, succ[x]), succ.get)


def build_factor_automaton(zs: ZSStructure, side: str, variant: str = "full") -> NFAutomaton:
    """
    Acceptor for the normal-form language of the parabolic factor G or H,
    over its own simples; the proper variant leaves out the factor's delta.
    """
    if side not in ("G", "H"):
        raise ValueError("side must be 'G' or 'H'")
    simples, top = (zs.g_simples, zs.delta_g) if side == "G" else (zs.h_simples, zs.delta_h)
    return _build_by_complement(zs.germ, simples, top, variant)


def translate_pair_to_product(zs: ZSStructure, a_g: NFAutomaton,
                              a_h: NFAutomaton) -> NFAutomaton:
    """
    The product monoid's acceptor, assembled from full-variant factor
    acceptors.  Letters are the joins of factor-letter pairs.  (g1, h1)
    may precede (g2, h2) iff rr-inv(h1, g1) may precede g2 in a_g and
    lr-inv(g1, h1) may precede h2 in a_h, so letters whose acted parts
    have equal rows there share one row, the two factor rows gathered at
    the factor parts of every letter.
    """
    g, unit = zs.germ, zs.germ.unit
    if set(a_g.letters) != {s for s in zs.g_simples if s != unit}:
        raise ValueError("a_g must be the full-variant G acceptor")
    if set(a_h.letters) != {s for s in zs.h_simples if s != unit}:
        raise ValueError("a_h must be the full-variant H acceptor")

    # the letter of (g, h) is their join, factor-side: g.(g^-1 |>> h)
    pair_of = {g.product(gs, zs.act("lr-inv", gs, hs)): (gs, hs) for gs in (unit,) + a_g.letters
               for hs in (unit,) + a_h.letters if gs != unit or hs != unit}
    letters = tuple(sorted(pair_of))

    def row(a: NFAutomaton, x: int) -> tuple[int, ...]:  # only the unit may follow the unit
        return a.transitions[a.dead if x == unit else 1 + a.position[x]]

    key_of = {k: (row(a_g, zs.act("rr-inv", h1, g1)), row(a_h, zs.act("lr-inv", g1, h1)))
              for k, (g1, h1) in pair_of.items()}
    # each letter's factor parts as positions in a factor row with the unit
    # put in front, at 0: the unit may follow anything
    g_at = [0 if gs == unit else 1 + a_g.position[gs] for gs, _ in map(pair_of.get, letters)]
    h_at = [0 if hs == unit else 1 + a_h.position[hs] for _, hs in map(pair_of.get, letters)]
    g_dead, h_dead = a_g.dead, a_h.dead

    def live_of(k1: int) -> compress:
        g_row, h_row = key_of[k1]
        return compress(count(), [s != g_dead and t != h_dead for s, t in
                                  zip(_gather((0, *g_row), g_at), _gather((0, *h_row), h_at))])

    return _build_from_rows(g, letters, live_of, key_of.__getitem__)


def project_product_to_pair(zs: ZSStructure,
                            a_k: NFAutomaton) -> tuple[NFAutomaton, NFAutomaton]:
    """
    Restrict a product-monoid acceptor to the letters of each factor.
    Words over one factor are normal in the product iff normal in the
    factor, so the restrictions are the factor acceptors: each row is
    a_k's, gathered at the factor's letters, once per row object of a_k.
    """
    g = zs.germ

    def restrict(members) -> NFAutomaton:
        letters = tuple(s for s in a_k.letters if members(s))
        at = [a_k.position[s] for s in letters]
        row_of = {s: a_k.transitions[1 + a_k.position[s]] for s in letters}
        return _build_from_rows(g, letters, lambda x: compress(count(), map(
            a_k.dead.__ne__, _gather(row_of[x], at))), lambda x: id(row_of[x]))

    return restrict(zs.member_g), restrict(zs.member_h)


COUNT_BUDGET = 3 * 10**10  # n^2*R^2 for count_accepted


def count_accepted(a: NFAutomaton, n: int) -> int:
    """
    Number of accepted words of length exactly n.  States with equal rows
    move their words alike, so counts are kept per class of equal rows:
    each distinct row object is hashed once and the R x R class moves are
    read once, in O(S + R*L) for S states and L letters when equal rows
    are shared objects, as the builders here make them, and then applied
    n times, in O(n*R^2).  The builders make one row per key, so R is
    small (32 of 720 states on braid:6).  The dead state is a class of its
    own, since a letter state may share its all-dead row but accepts.  The counts
    have O(n) digits, so n with n^2*R^2 above COUNT_BUDGET is refused with a
    ValueError: at the budget braid:7 (R = 64, n = 2,706) takes about 4.6 s.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    dead = a.dead
    # Rows are mostly shared tuples: hash each distinct object once.
    by_id: dict[int, int] = {}
    by_row: dict[tuple[int, ...], int] = {}
    class_of = [0] * a.n_states
    for state, row in enumerate(a.transitions):
        if state != dead:
            c = by_id.get(id(row))
            if c is None:
                c = by_id[id(row)] = by_row.setdefault(row, len(by_row))
            class_of[state] = c
    class_of[dead] = len(by_row)
    if (cost := (n * (len(by_row) + 1)) ** 2) > COUNT_BUDGET:
        raise ValueError(f"n = {n} with R = {len(by_row) + 1} row classes is above the count "
                         f"budget: n^2*R^2 = {cost:,} > {COUNT_BUDGET:,}")
    moves = [Counter(map(class_of.__getitem__, row))
             for row in (*by_row, a.transitions[dead])]

    counts = [0] * len(moves)
    counts[class_of[0]] = 1
    for _ in range(n):
        nxt = [0] * len(moves)
        for c, k in enumerate(counts):
            if k:
                for d, m in moves[c].items():
                    nxt[d] += k * m
        counts = nxt
    return sum(counts) - counts[class_of[dead]]


def _dot_id(name: str) -> str:
    """name as a quoted DOT ID: a germ file allows quotes and backslashes in names."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export(a: NFAutomaton, fmt: str) -> str:
    """
    DOT digraph (live transitions only) or TSV transition table (complete,
    including the dead state).  Output order is fixed by state and
    alphabet order, so exports are stable.  A simple named like a state
    that the format prints, start (or dead in TSV), is refused.
    """
    for name in ("start",) if fmt == "dot" else ("start", "dead"):
        if name in a.letter_names:
            raise ValueError(f"a simple is named {name!r}, as the {fmt} export names its {name} state")
    if fmt == "dot":
        lines = ["digraph nf {", "  rankdir=LR;",
                 '  start [shape=diamond];', '  node [shape=doublecircle];']
        for i in range(1, len(a.letters) + 1):
            lines.append(f"  {_dot_id(a.state_name(i))};")
        for state in range(len(a.letters) + 1):
            for pos, letter in enumerate(a.letters):
                nxt = a.transitions[state][pos]
                if nxt != a.dead:
                    lines.append(f"  {_dot_id(a.state_name(state))} -> {_dot_id(a.state_name(nxt))}"
                                 f" [label={_dot_id(a.letter_names[pos])}];")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "tsv":
        lines = ["state\tletter\tnext"]
        for state in range(a.n_states):
            for pos in range(len(a.letters)):
                lines.append(f"{a.state_name(state)}\t{a.letter_names[pos]}\t"
                             f"{a.state_name(a.transitions[state][pos])}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")
