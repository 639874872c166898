"""
suites: named property suites over germs and decompositions.

Each suite checks the simple-level quantifiers of one family of structural identities
and samples the word-level variants with a seeded generator.  A suite compares two
independent code paths: a law that holds by construction of the tables it reads, that
its own code path or validate already decides, or that another suite states, is not
compared, and the suite's docstring says why.  `complements-lemma` compares only the
cases that an induction on atoms cannot carry, for the verdict of all of them; the
other suites enumerate theirs.  A law of the actions that mirrors when G and H swap is
stated once and read in both orientations.  Most simple-level laws are rows of cases
read from whole tables (a composition of lookups is one itemgetter gather, an action a
row or column of its step table) and compared by _compare_rows with one list or array
equality; a row that differs is reported case by case in the law's own failure line.
Meet, join and complement rows are read by Germ.lattice_row, meets and joins in place:
a missing entry raises the accessor's error.  Suffix divisibility is read from the
prefix tables through the left completions to delta, as Germ's suffix accessors do: no
suite builds the opposite germ.  Normality is 2-local, so `action-preserves-nf` and
`push-lemma` walk the reachable classes of states of a letter-to-letter transducer:
letters with one element._successors, which says what may follow, are one class, so no
pair is looked up and each failure line is one the walk over letters shows;
`factor-closure` and `decomposition-uniqueness` check the divisors and factorisations
of factor simples, all four exact at every length.  run_suite, the one path of `check`
and the tests, runs, times and names a suite.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
from functools import cache, partial
from operator import and_, getitem
from typing import Callable, Sequence

from . import automata, element, normal_forms, quasicenter, zappa_szep
from .element import NormalWord
from .germ import Germ, _bits, _gather
from .zappa_szep import ZSStructure


@dataclass
class SuiteReport:
    name: str
    cases: int
    failures: list[str] = field(default_factory=list)
    elapsed: float = field(default=0.0, compare=False)  # seconds; not printed

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        if self.ok:
            return f"suite {self.name}: ok ({self.cases} cases)"
        shown = "\n".join("  " + f for f in self.failures[:5])
        more = "" if len(self.failures) <= 5 else f"\n  ... {len(self.failures) - 5} more"
        return (f"suite {self.name}: {len(self.failures)} counterexamples "
                f"in {self.cases} cases\n{shown}{more}")


@dataclass
class Options:
    max_len: int = 4
    samples: int = 200
    seed: int = 0

    def rng(self) -> random.Random:
        return random.Random(self.seed)


class _Run:
    """Counts cases and collects formatted counterexamples."""

    def __init__(self, g: Germ):
        self.g = g
        self.cases = 0
        self.failures: list[str] = []

    def check(self, ok: bool, describe: Callable[[], str]) -> None:
        self.cases += 1
        if not ok:
            self.failures.append(describe())

    def eq(self, lhs, rhs, label: str, *args, show: Callable[[object], str] | None = None) -> None:
        """
        One case: lhs == rhs.  Only a failure is rendered: the arguments,
        then both sides by `show` (default _show, which names an int as a
        simple; pass str for counts and lengths).
        """
        self.cases += 1
        if lhs != rhs:
            render = show or self._show
            names = ", ".join(self._show(a) for a in args)
            self.failures.append(f"{label}[{names}]: {render(lhs)} != {render(rhs)}")

    def _show(self, v) -> str:
        if isinstance(v, NormalWord):
            return element.format_nf(self.g, v)
        if isinstance(v, int):
            return self.g.names[v]
        if isinstance(v, tuple):
            return ".".join(map(self._show, v)) if v else "1"  # simples, or a factorisation
        return repr(v)


def _rand_word(rng: random.Random, alphabet: Sequence[int], max_len: int) -> tuple[int, ...]:
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def _rand_element(g: Germ, rng: random.Random, max_len: int) -> NormalWord:
    return element.normal_form(g, _rand_word(rng, range(len(g)), max_len))


# ---------------------------------------------------------------------------
# germ-level suites
# ---------------------------------------------------------------------------

def _compare_rows(r: _Run, laws: Sequence[tuple], case: Callable[[int], tuple]) -> None:
    """One case per law and column: laws holds (label, lhs row, rhs row), and
    case(c) gives the arguments of column c; a law may add a fourth entry,
    the order in which it names them.  Both rows are lists or both arrays
    (else they differ).  Equal rows count their cases at once; a row that
    differs is checked column by column, law by law.  A label with {}
    fields is the failure line, filled with the names of the arguments;
    any other is an r.eq label."""
    if all(law[1] == law[2] for law in laws):
        r.cases += sum(len(law[1]) for law in laws)
        return
    for c in range(len(laws[0][1])):
        xs = case(c)
        for label, lhs, rhs, *order in laws:
            args = [xs[i] for i in order[0]] if order else xs
            if "{" in label:
                r.check(lhs[c] == rhs[c], lambda: label.format(*map(r._show, args)))
            else:
                r.eq(lhs[c], rhs[c], label, *args)


def suite_lattice_laws(r: _Run, g: Germ, opt: Options) -> None:
    """Absorption, a row at a time: meet rows (prefix masks) against join rows
    (upper-set masks) at both arguments of the join.  Commutativity and
    associativity are not compared: an entry is the simple of an AND of two masks,
    so they hold for any table.  Nor is s.(s\\t) = s v t, or its suffix mirror:
    s\\t is read from the inverse of s's product row at s v t, which the unit law
    puts among s's products, so s.(s\\t) gives s v t back on any table.  Nor is
    rcomplement(complement(s)) = s: validate's complements axiom asks for one delta
    per row and column of the product table.  Rows are read whole: a missing entry raises."""
    n, cols = len(g), list(range(len(g)))
    meet, join = ([g.lattice_row(kind, s) for s in cols] for kind in ("meet", "join"))
    for s in cols:
        ms, js = meet[s], join[s]
        _compare_rows(r, (
            ("absorb-meet", _gather(ms, js), [s] * n),
            ("absorb-meet-right", list(map(getitem, _gather(meet, js), cols)), cols),
            ("absorb-join", _gather(js, ms), [s] * n),
        ), lambda t: (s, t))


def suite_complements_lemma(r: _Run, g: Germ, opt: Options) -> None:
    """
    (ab)\\c = b\\(a\\c) and c\\(ab) = (c\\a).((a\\c)\\b) for simples with ab
    defined, compared only where an induction on atom_len cannot carry them
    (Dehornoy's cube condition, J. Algebra 268, 2003); the rest follow by
    substitution in the tables, no germ axiom assumed, so the verdict is
    that of all cases, and each failure line one of theirs.  A simple s,
    not 1 or an atom, splits as x.s'' for the first atom x with x.s'' = s
    in the product table and 0 <= atom_len[s''] < atom_len[s].  Row
    (a, b = x.b'') of under-product follows from rows (a, x), (ax, b'') and
    (x, b'') if (a.x).b'' = ab; other rows are compared.  Column c = y.c''
    of over-product follows from its column y, column c'' of
    (y\\a, (a\\y)\\b), both laws' rows (y, c'') and all under-product rows:
    columns that do not split are compared for every pair, the rest for (y, c'').
    """
    n, rows, inv, lens = len(g), g.product_rows, g._row_inverses(), g.atom_len
    split = {}  # split[s] = (x, s'')
    lc = [g.lattice_row("lcomp", s) for s in range(n)]  # lc[s][t] = s\t
    for s in set(range(n)) - {g.unit, *g.atoms}:
        for x in g.atoms:
            if rows[x].get(t := inv[x].get(s)) == s and 0 <= lens[t] < lens[s]:
                split[s] = x, t
                break
    cols = [c for c in range(n) if c not in split]
    for a, ra in enumerate(rows):  # one law per right factor b that is compared
        bs = [b for b, ab in ra.items() if (xt := split.get(b)) is None
              or ra.get(xt[0]) is None or rows[ra[xt[0]]].get(xt[1]) != ab]
        _compare_rows(r, [("under-product", lc[ra[b]], _gather(lc[b], lc[a]), (0, k, 1))
                          for k, b in enumerate(bs, 2)], lambda c: (a, c, *bs))
    for a, bs, cs in [(a, list(rows[a]), cols) for a in range(n)] + [
            (y, [t for x, t in split.values() if x == y], list(split)) for y in g.atoms]:
        abs_, la = _gather(rows[a], bs), lc[a]  # one law per column c, over the factors bs
        _compare_rows(r, [("over-product", _gather(lc[c], abs_), list(map(
            rows[lc[c][a]].get, _gather(lc[la[c]], bs))), (0, 1, k)) for k, c in enumerate(cs, 2)],
                      lambda i: (a, bs[i], *cs))
    rng, lcomp, mul = opt.rng(), partial(element.left_complement, g), partial(element.multiply, g)
    for _ in range(opt.samples):
        x, y, z = (_rand_element(g, rng, opt.max_len) for _ in range(3))
        xy = mul(x, y)
        r.eq(lcomp(xy, z), lcomp(y, lcomp(x, z)), "element-under", x, y, z)
        r.eq(lcomp(z, xy), mul(lcomp(z, x), lcomp(lcomp(x, z), y)), "element-over", x, y, z)


def suite_normal_form_confluence(r: _Run, g: Germ, opt: Options) -> None:
    """Rewriting adjacent pairs in any order reaches the same normal form."""
    rng = opt.rng()

    def random_order_nf(word: tuple[int, ...]) -> NormalWord:
        w = list(word)
        while True:
            bad = [i for i in range(len(w) - 1)
                   if g.meet(g.complement(w[i]), w[i + 1]) != g.unit]
            if not bad:
                break
            i = rng.choice(bad)
            u = g.meet(g.complement(w[i]), w[i + 1])
            w[i], w[i + 1] = g.product(w[i], u), g.lcomp(u, w[i + 1])
        while w and w[-1] == g.unit:  # units can only trail a word with no rewrite left
            w.pop()
        return element._from_letters(w, g.delta)

    for _ in range(opt.samples):
        word = _rand_word(rng, range(len(g)), max(opt.max_len, 6))
        nf = element.normal_form(g, word)
        r.eq(random_order_nf(word), nf, "confluence", word)
        r.eq(element.normal_form(g, element.letters(g, nf)), nf, "idempotence", word)


def suite_element_lattice_laws(r: _Run, g: Germ, opt: Options) -> None:
    """gcd/lcm laws of elements, suffix-order sanity, and length-additive if homogeneous.
    gcd(x, 1) = 1 and its mirror are not compared: gcd returns at its first test, before
    a table read.  Nor is x\\x = 1: the join table's diagonal, which lattice-laws checks."""
    rng, lens = opt.rng(), g.atom_len
    homogeneous = all(lens[st] == lens[s] + lens[t]
                      for s, row in enumerate(g.product_rows) for t, st in row.items())
    for _ in range(opt.samples):
        x, y, z = (_rand_element(g, rng, opt.max_len) for _ in range(3))
        gcd, lcm = element.gcd(g, x, y), element.lcm(g, x, y)
        r.eq(gcd, element.gcd(g, y, x), "gcd-comm", x, y)
        r.eq(lcm, element.lcm(g, y, x), "lcm-comm", x, y)
        r.check(element.divides(g, gcd, x),
                lambda: f"gcd does not divide: {r._show(x)}, {r._show(y)}")
        r.check(element.divides(g, x, lcm),
                lambda: f"lcm not a multiple: {r._show(x)}, {r._show(y)}")
        r.eq(element.gcd(g, x, lcm), x, "gcd-absorb", x, y)
        r.eq(element.lcm(g, x, gcd), x, "lcm-absorb", x, y)
        r.eq(element.gcd(g, gcd, z), element.gcd(g, x, element.gcd(g, y, z)), "gcd-assoc", x, y, z)
        r.check(element.rdivides(g, x, element.rlcm(g, x, y)),
                lambda: f"rlcm not a right multiple: {r._show(x)}, {r._show(y)}")
        if homogeneous:
            r.eq(element.atom_length(g, element.multiply(g, x, y)),
                 element.atom_length(g, x) + element.atom_length(g, y),
                 "length-additive", x, y, show=str)


def suite_quasicenter(r: _Run, g: Germ, opt: Options) -> None:
    """Quasi-central closures over all simples: join-compatibility, balanced class values,
    and the closure's definition as a row law, s <= F(s) and F(a\\s) <= F(s) for each
    atom a, so the closure of s under y -> a\\y lies below F(s).  F (delta_of_simple) is
    read off the atom classes, whose searches read left complements only at the simples
    that the atoms reach; this law reads them at every simple.  That a closure divides
    delta is not compared: every simple does, by validate's balanced-delta axiom."""
    n = len(g)
    delta_of = [quasicenter.delta_of_simple(g, s) for s in range(n)]
    join = cache(partial(g.lattice_row, "join"))  # each row checked once
    for s in range(n):
        js, jd = join(s), join(delta_of[s])
        _compare_rows(r, (("join-compatible", [delta_of[j] for j in js],
                           [jd[d] for d in delta_of]),), lambda t: (s, t))
    if g.atoms:
        for c in quasicenter.atom_classes(g).class_delta:
            for s in range(n):
                r.check(g.left_divides(s, c) == g.right_divides(s, c),
                        lambda s=s, c=c: f"{g.names[c]} prefix/suffix sets differ "
                                         f"at {g.names[s]}")
    _compare_rows(r, (("closure-above", [join(d)[s] for s, d in enumerate(delta_of)],
                       delta_of),), lambda s: (s,))
    for a in g.atoms:
        below = [join(d)[delta_of[t]] for d, t in zip(delta_of, g.lattice_row("lcomp", a))]
        _compare_rows(r, (("closure-closed", below, delta_of),), lambda s, a=a: (a, s))


GERM_SUITES: dict[str, Callable[[_Run, Germ, Options], None]] = {
    "lattice-laws": suite_lattice_laws,
    "complements-lemma": suite_complements_lemma,
    "normal-form-confluence": suite_normal_form_confluence,
    "element-lattice-laws": suite_element_lattice_laws,
    "quasicenter": suite_quasicenter,
}


# ---------------------------------------------------------------------------
# decomposition-level suites
# ---------------------------------------------------------------------------

def _orientations(zs: ZSStructure) -> tuple[tuple, tuple]:
    """
    K = G |><| H is also H |><| G, with rr and lr, rl and ll swapped.  So a
    mirrored law is stated once, for x in an acting factor X and y in the
    acted one Y, and read for H acting on G, then G on H: each orientation
    is (X-simples, Y-simples, X's membership test, the ACTIONS renamed).
    """
    return ((zs.h_simples, zs.g_simples, zs.member_h, zappa_szep.ACTIONS),
            (zs.g_simples, zs.h_simples, zs.member_g,
             ("lr", "ll", "rr", "rl", "lr-inv", "ll-inv", "rr-inv", "rl-inv")))


def _act_table(zs: ZSStructure, name: str, X: Sequence[int], Y: Sequence[int]) -> dict:
    """table[x][y], in Y's order: the action `name` between x in X and y in Y, a row of its
    step table where x is the carry (rr, ll and their inverses carry H-simples), else a column."""
    step, by_row = zs.steps[name], (name[0] == name[1]) == (X == zs.h_simples)
    return {x: {y: (step[x][y] if by_row else step[y][x])[0] for y in Y} for x in X}


def _product_laws(r: _Run, zs: ZSStructure, X, Y, member, tables, laws) -> None:
    """A row over Y per product x1.x2 = k in X of the forms A[k] = A[x1] A[x2], B[k] y =
    B[x1](A[x2] y).B[x2] y, D[k] = D[x2] D[x1] and C[k] y = C[x1] y.C[x2](D[x1] y) of
    tables (A, B, C, D), each gathered if a law (label, form index, [order]) names it."""
    pr, (A, B, C, D) = zs.germ.product_rows, tables
    for x1, x2, k in [(x1, x2, k) for x1 in X for x2 in X
                      if (k := pr[x1].get(x2)) is not None and member(k)]:
        a2, d1 = A[x2].values(), D[x1].values()
        forms = (lambda: ([*A[k].values()], _gather(A[x1], a2)),
                 lambda: ([*B[k].values()], list(map(dict.get, _gather(pr, _gather(B[x1], a2)),
                                                     B[x2].values()))),
                 lambda: ([*D[k].values()], _gather(D[x2], d1)),
                 lambda: ([*C[k].values()], list(map(dict.get, _gather(pr, C[x1].values()),
                                                     _gather(C[x2], d1)))))
        _compare_rows(r, [(label, *forms[i](), *order) for label, i, *order in laws],
                      lambda j: (x1, x2, Y[j]))


def suite_action_laws(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """Associativity and product rules of the four actions: a product's row of
    its step table against its factors' rows and the product table; at word
    level, act_word against element.multiply in h.g = (h |> g)(h <| g).  Word
    associativity is not compared: act_word on xw + xw2 reads the steps that it
    reads on xw after xw2, in the same order."""
    g, orientations = zs.germ, _orientations(zs)
    for X, Y, member, (a, b, c, d, *_) in orientations:
        _product_laws(r, zs, X, Y, member, [_act_table(zs, name, X, Y) for name in (a, b, c, d)],
                      [(f"{a}-assoc", 0), (f"{b}-product", 1), (f"{d}-assoc", 2, (2, 0, 1)),
                       (f"{c}-product", 3, (2, 0, 1))])
    rng, act, nf = opt.rng(), partial(zappa_szep.act_word, zs), partial(element.normal_form, g)
    for _ in range(opt.samples):
        hw, gw = (_rand_word(rng, S, opt.max_len) for S in (zs.h_simples, zs.g_simples))
        he, ge = nf(hw), nf(gw)
        for (xw, yw, xe, ye), (*_, (a, b, *_)) in zip(((hw, gw, he, ge), (gw, hw, ge, he)),
                                                      orientations):
            r.eq(element.multiply(g, xe, ye), element.multiply(
                g, nf(act(a, xw, yw)), nf(act(b, xw, yw))), f"word-defining-{a}", xw, yw)


def suite_identity_detection(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """An action gives 1 exactly on the unit.  No table that build accepts
    fails it while the unit laws hold, which make_germ and parse_germ enforce:
    h |> 1 is the G-part of h.1 = h, so 1, and h |> g = 1 puts h.g in H, where
    (h.g, 1) and (h, g) are two HG-factorisations unless g = 1; the other
    three actions go alike."""
    g, u = zs.germ, zs.germ.unit
    for hs in zs.h_simples:
        for gs in zs.g_simples:
            for name, (x, y), acted in (("rr", (hs, gs), gs), ("rl", (hs, gs), hs),
                                        ("lr", (gs, hs), hs), ("ll", (gs, hs), gs)):
                r.check((acted == u) == (zs.act(name, x, y) == u),
                        lambda: f"{name} unit detection fails at ({g.names[x]}, {g.names[y]})")


def suite_round_trip(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """GH to HG and back, and HG to GH and back, give the words again, for
    opt.samples seeded pairs: act_word's rightward carry (rr, lr) against its
    leftward one (rl, ll).  On simples the round trip is not compared: the step
    tables are read off gh_pair and hg_pair, inverse maps of the product."""
    laws = [(*names[:4], *labels) for (*_, names), labels in zip(_orientations(zs), (
        ("gh-hg-gh-g", "gh-hg-gh-h"), ("hg-gh-hg-h", "hg-gh-hg-g")))]
    rng, act = opt.rng(), partial(zappa_szep.act_word, zs)
    for _ in range(opt.samples):
        gw, hw = (_rand_word(rng, S, opt.max_len) for S in (zs.g_simples, zs.h_simples))
        for (y, x), (a, b, c, d, to_y, to_x) in zip(((gw, hw), (hw, gw)), laws):
            x2, y2 = act(c, y, x), act(d, y, x)  # y.x = x2.y2
            r.eq(act(a, x2, y2), y, to_y, y, x)
            r.eq(act(b, x2, y2), x, to_x, y, x)


def suite_inverse_interplay(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """The inverse step tables, which build inverts row by row, against the
    forward ones: the inverses' product rules (action-laws' for (d, b, c, a)^-1),
    and word round trips through act_word's actor order.  The inverses'
    associativity is not compared: it is action-laws' {a}-assoc and {d}-assoc
    with the permutations inverted.  Nor are the mixes, such as
    h <| (h^-1 |> g) = g^-1 |>> h: each inverse table is a row inversion of a
    forward one, and gh_pair and hg_pair factor the same products, so they hold
    on any table that build returns."""
    orientations = _orientations(zs)
    for X, Y, member, (_, b, c, _, *inverses) in orientations:
        ai, bi, ci, di = (_act_table(zs, name, X, Y) for name in inverses)
        _product_laws(r, zs, X, Y, member, (di, bi, ci, ai),
                      [(f"inv-{c}-product", 3, (2, 0, 1)), (f"inv-{b}-product", 1)])
    words = [(a, b, ai, bi, f"word-{a}-roundtrip", f"word-{b}-roundtrip")
             for *_, (a, b, _, _, ai, bi, _, _) in orientations]
    rng, act = opt.rng(), partial(zappa_szep.act_word, zs)
    for _ in range(opt.samples):
        hw, gw = (_rand_word(rng, S, opt.max_len) for S in (zs.h_simples, zs.g_simples))
        for (xw, yw), (a, b, ai, bi, *labels) in zip(((hw, gw), (gw, hw)), words):
            r.eq(act(ai, xw, act(a, xw, yw)), yw, labels[0], xw, yw)
            r.eq(act(bi, act(b, xw, yw), yw), xw, labels[1], xw, yw)


def suite_order_isomorphism(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """Left actions preserve prefix order; right actions preserve suffix order."""
    g = zs.germ
    for X, Y, _, (a, _, _, d, *_) in _orientations(zs):
        # per law, the action's table and div[x][y]: x is a prefix (suffix) of y
        laws = [(f"{name} not a {order} iso at ({{0}}; {{1}}, {{2}})", _act_table(zs, name, X, Y),
                 {x: {y: divides(x, y) for y in Y} for x in Y})
                for name, order, divides in ((a, "prefix", g.left_divides), (d, "suffix", g.right_divides))]
        for c in X:
            for x in Y:
                rows = [(label, [*div[x].values()], _gather(div[t[c][x]], t[c].values()))
                        for label, t, div in laws]
                _compare_rows(r, rows, lambda j: (c, x, Y[j]))


def suite_complement_transport(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """How the actions move complements in the acted factor: h |> g1\\g2, h^-1 |> g1\\g2."""
    g, act = zs.germ, zs.act
    for X, Y, _, (a, b, c, d, ai, bi, _, di) in _orientations(zs):
        tables = (("transport-fwd", _act_table(zs, a, X, Y)),
                  ("transport-inv", _act_table(zs, ai, X, Y)))
        under = {y1: dict(zip(Y, g.lattice_row("lcomp", y1, Y))) for y1 in Y}  # y1\y2 by y2
        for x in X:
            for y1 in Y:  # per law, the parts free of y2: a left side under and an actor
                parts = (act(di, y1, x), act(bi, x, y1)), (act(d, y1, x), act(c, y1, x))
                try:  # a complement outside Y is no key of t[x]: the action refuses it
                    rows = [(label, _gather(t[x], under[y1].values()), _gather(under[v], t[u].values()))
                            for (label, t), (v, u) in zip(tables, parts)]
                except KeyError:
                    act(a, x, next(v for v in under[y1].values() if v not in Y))
                    raise
                _compare_rows(r, rows, lambda j: (x, y1, Y[j]))


def suite_lcm_formula(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """lcm(g, h) = g.(g^-1 |>> h) = h.(h^-1 |> g): the join and rjoin tables against the
    product and inverse step tables.  Injectivity of (g, h) -> join is not compared:
    poset-product makes it an order isomorphism onto its image, injective by
    antisymmetry, which validate checks.  Nor is h.(h^-1 |> g) = j: lr is read off
    hg_pair and lr-inv inverts it, so x = g^-1 |>> h has g.x = h.d for a G-simple d;
    rr is read off gh_pair, so gh_pair[h.d] = (g, x) gives rr-inv(h, g) = d, and
    h.d = g.x = j once lcm-gh holds."""
    g = zs.germ
    for gs in zs.g_simples:
        for hs in zs.h_simples:
            j, x = g.join(gs, hs), zs.act("lr-inv", gs, hs)
            r.eq(g.product(gs, x), j, "lcm-gh", gs, hs)
            r.eq(g.rjoin(zs.act("rr-inv", hs, gs), x), j, "lcm-suffix", gs, hs)


def _factor_rows(zs: ZSStructure):
    """
    (g1, h1, joins, case) per pair of factor simples, for a row over the
    columns (g2, h2): joins is the row join(g2, h2), and case(c) gives the
    arguments (g1, h1, g2, h2) of column c.
    """
    columns = [(g2, h2) for g2 in zs.g_simples for h2 in zs.h_simples]
    joins = [zs.germ.join(g2, h2) for g2, h2 in columns]
    for g1 in zs.g_simples:
        for h1 in zs.h_simples:
            yield g1, h1, joins, lambda c, g1=g1, h1=h1: (g1, h1, *columns[c])


def suite_poset_product(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """(g, h) -> join(g, h) is an isomorphism of the product order."""
    g, G, H = zs.germ, zs.g_simples, zs.h_simples
    for g1, h1, joins, case in _factor_rows(zs):
        up, ldiv = g.lupper[g.join(g1, h1)], g.ldiv  # up: what join(g1, h1) left-divides
        dg, dh = [(ldiv[g2] >> g1) & 1 for g2 in G], [(ldiv[h2] >> h1) & 1 for h2 in H]
        _compare_rows(r, [("poset product fails at ({0},{1}) vs ({2},{3})",
                           [a and b for a in dg for b in dh], [(up >> j) & 1 for j in joins])],
                      case)


def suite_join_complement(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """The complement of one join under another, factor by factor."""
    g, G, H = zs.germ, zs.g_simples, zs.h_simples
    join = cache(partial(g.lattice_row, "join"))  # each row checked once
    for g1, h1, joins, case in _factor_rows(zs):
        x, y, j1 = zs.act("lr-inv", g1, h1), zs.act("rr-inv", h1, g1), g.join(g1, h1)
        a = [join(zs.act("rr-inv", x, g.lcomp(g1, g2))) for g2 in G]
        b = [zs.act("lr-inv", y, g.lcomp(h1, h2)) for h2 in H]
        _compare_rows(r, [("join-under", g.lattice_row("lcomp", j1, joins),
                           [row[v] for row in a for v in b])], case)


def suite_delta_invariance(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """Each action fixes the delta of the factor it acts on: the step tables against
    delta_G and delta_H, joins of factor simples.  That simples map to simples is not
    compared: a step output is part of a gh_pair or hg_pair entry, drawn from G x H, or
    a forward row's key, and build checks that delta_G and delta_H divide just those."""
    act = zs.act
    for (X, _, _, (a, _, _, d, *_)), side, delta in zip(_orientations(zs), "GH",
                                                        (zs.delta_g, zs.delta_h)):
        for x in X:
            r.eq(act(a, x, delta), delta, f"{a}-fixes-delta{side}", x)
            r.eq(act(d, delta, x), delta, f"{d}-fixes-delta{side}", x)


def suite_complement_action(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """Factor complements of acted simples."""
    act = zs.act
    laws = [(a, b, d, ai, comp, f"comp{side}-{a}", f"comp{side}-{d}")
            for (*_, (a, b, _, d, ai, *_)), (side, comp) in zip(_orientations(zs), (
                ("G", zs.comp_g), ("H", zs.comp_h)))]
    for hs in zs.h_simples:
        for gs in zs.g_simples:
            for (x, y), (a, b, d, ai, comp, *labels) in zip(((hs, gs), (gs, hs)), laws):
                r.eq(comp(act(a, x, y)), act(a, act(b, x, y), comp(y)), labels[0], x, y)
                r.eq(comp(act(d, y, x)), act(ai, x, comp(y)), labels[1], y, x)


def suite_complement_of_join(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """The ambient complement of a join from the factor complements."""
    g, G, H = zs.germ, zs.g_simples, zs.h_simples
    for gs in G:
        for hs in H:
            r.eq(g.complement(g.join(gs, hs)),
                 g.join(zs.comp_g(zs.act("rr-inv", hs, gs)),
                        zs.comp_h(zs.act("lr-inv", gs, hs))),
                 "comp-of-join", gs, hs)


def suite_factor_closure(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """
    A product in a factor has both terms in it, at every length: one case
    per left or right divisor of each simple of G (the left divisors of
    delta_G, which member_g tests) and of H.  build checks that the left
    divisors of delta_G are the simples the G-atoms generate; with right
    divisors closed too, stripping G-atoms shows that a defined product of
    G-simples is a G-simple.  So each sweep step (a, b) -> (a.u, u\\b), with
    u = (complement of a) meet b, stays in G, and as delta is no G-simple
    a product of G-simples has G-letters only.  If x divides z in G on the
    left, head(x) divides head(z), so it is a G-simple, and head(x)^-1.z
    is a product of G-simples: induction on sup(x) puts x and x^-1.z in G.
    Conversely a divisor d of s outside G gives d.(d\\s) = s or (s/d).d = s.
    """
    g = zs.germ
    for side, delta in (("G", zs.delta_g), ("H", zs.delta_h)):
        inside = g.ldiv[delta]
        for s in _bits(inside):  # the suffixes of s are the complements of the v above s*
            divisors = g.ldiv[s] | sum(1 << g.complement(v) for v in _bits(g.lupper[g.rcomplement(s)]))
            r.cases += divisors.bit_count()
            for d in _bits(divisors & ~inside):
                x, y = (d, g.lcomp(d, s)) if (g.ldiv[s] >> d) & 1 else (g.rcomp(d, s), d)
                r.failures.append(f"{side}-closure fails at {g.names[x]}, {g.names[y]}")


def suite_atoms_to_atoms(r: _Run, zs: ZSStructure, opt: Options) -> None:
    g = zs.germ
    for name, actors, atoms, sign in (("rr", zs.h_simples, zs.left_atoms, "|>"),
                                      ("lr", zs.g_simples, zs.right_atoms, "|>>")):
        for c in actors:
            for a in atoms:
                r.check(g.is_atom(zs.act(name, c, a)),
                        lambda: f"{g.names[c]} {sign} {g.names[a]} is not an atom")


def suite_decomposition_uniqueness(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """
    Every element has exactly one GH- and one HG-factorisation, at every
    length, if (g, h) -> g.h and (g, h) -> h.g are defined on SG x SH and
    hit each simple once; SG and SH are the left divisors of delta_G and
    of delta_H but delta (a delta power in normal form).  The two maps
    close the factors.  Right divisors: if s = x.d is in SG and
    d = g'.h', x.g' divides s, so it is in SG, and (x.g', h') and (s, 1)
    both give s: h' = 1, and d is in SG.  SH is the mirror, through the HG
    map.  SG and SH meet in 1: d != 1 in both gives (d, 1) and (1, d).
    Products: if s = g1.g2 is simple, write s = g'.h' and
    m = s meet delta_G = g'.d; d divides h' and right-divides m, so it is
    in SH and SG, d = 1 and m = g' = g1.v with v in SG.  Cancelling g1,
    (g2, 1) and (v, h') both give g2, so h' = 1; SH is the mirror.  So
    each h.g rewrites as g'.h', lowering the H-letters before G-letters,
    and a GH-factorisation exists.  G and H are prefix-closed (as in
    factor-closure), so if g.h = g'.h', v = g\\g' divides h and is in G
    (a complement of SG simples right-divides their join), so v = 1; so
    g = g' by symmetry, and h = h'.  HG is the mirror in the opposite
    germ.  Lines name simples with no factorisation or several, or if
    there are none, products that are not simple.  The peels need no
    check that they multiply back: _peel raises unless they do.
    """
    g = zs.germ
    inside = [g.ldiv[d] & ~(1 << g.delta) for d in (zs.delta_g, zs.delta_h)]
    undefined = []
    count = {"GH": [0] * len(g), "HG": [0] * len(g)}
    for kind, (first, second) in zip(count, (inside, inside[::-1])):
        for a in _bits(first):
            defined = second & g.ldiv[g.complement(a)]
            undefined += [f"{g.names[a]}.{g.names[b]} is not simple" for b in _bits(second & ~defined)]
            for b in _bits(defined):
                count[kind][g.product(a, b)] += 1
    r.cases += 2 * (len(g) + inside[0].bit_count() * inside[1].bit_count())
    r.failures += [f"{r._show(element.simple(g, s))} has {c[s]} {kind}-factorisations"
                   for s in range(len(g)) for kind, c in count.items() if c[s] != 1] or undefined


def suite_local_deltas(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """Quasi-central closures of factor simples stay in the factor."""
    g = zs.germ
    for side, member, simples in (("G", zs.member_g, zs.g_simples),
                                  ("H", zs.member_h, zs.h_simples)):
        for s in simples:
            r.check(member(quasicenter.delta_of_simple(g, s)),
                    lambda: f"closure of {g.names[s]} leaves {side}")


def suite_normal_form_criteria(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """The gh|gh criterion of normal_forms.is_normal_gh_gh, as rows of meet-unit bytes,
    against the ambient definition at each ordered pair of simples k1 | k2, factored by
    gh_pair; a pair ending in 1 is not normal.  The function is not called here;
    tests/test_normal_forms.py ties it to the definition.  Not compared: the other three
    shapes (these booleans at columns that rr permutes) and the join criterion, which
    builds the product acceptor that automata-translation compares."""
    g, u, pairs = zs.germ, zs.germ.unit, zs.gh_pair
    gs, lr = [g2 for g2, _ in pairs], [zs.act("lr", g2, h2) for g2, h2 in pairs]
    # one(s)[t] is 1 if meet(s, t) is the unit, 0 if not; each row checked once
    one = cache(lambda s: bytes(map(u.__eq__, g.lattice_row("meet", s))))
    for k1, (g1, h1) in enumerate(pairs):
        p, q = one(zs.comp_g(zs.act("ll", g1, h1))), one(zs.comp_h(h1))
        lhs, rhs = bytearray(map(and_, _gather(p, gs), _gather(q, lr))), bytearray(one(g.complement(k1)))
        lhs[u] = rhs[u] = 0
        _compare_rows(r, [("gh|gh criterion fails at ({0},{1},{2},{3})", lhs, rhs)],
                      lambda c: (g1, h1, *pairs[c]))


def _walk(r: _Run, roots: Sequence, moves: Callable, describe: Callable) -> None:
    """
    Breadth first over the states reachable from `roots`: moves(state)
    yields (letter, ok, next state), or (None, ok, None) for a check at the
    end of a word, one case each; a failed move leads nowhere.  A failure
    is describe(root, word) with the shortest word that reaches it, read
    back through the parent links.
    """
    parent = dict.fromkeys(roots)
    queue = deque(roots)

    def witness(state, letter) -> str:
        word = [] if letter is None else [letter]
        while parent[state] is not None:
            state, x = parent[state]
            word.append(x)
        return describe(state, tuple(word[::-1]))

    while queue:
        state = queue.popleft()
        for letter, ok, nxt in moves(state):
            r.check(ok, lambda: witness(state, letter))
            if ok and nxt is not None and nxt not in parent:
                parent[nxt] = (state, letter)
                queue.append(nxt)


def suite_push_lemma(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """
    Pushing an H-simple through a normal word of GH-factors, exact at every
    length: a walk over the states (last letter, class of the last output).
    """
    g, pair, lr, u = zs.germ, zs.gh_pair, zs.steps["lr"], zs.germ.unit
    alphabet = [k for k in range(len(g)) if k != u]
    succ = element._successors(g, alphabet)

    def moves(state):
        k, out = state
        if k is None:           # a root: out is the pushed h
            for k1 in alphabet:
                g1, h1 = pair[k1]
                if g.meet(zs.comp_h(out), lr[g1][h1][0]) == u:
                    y = g.product(out, g1)
                    yield k1, y != u, (k1, succ.get(y))
            return
        carry = pair[k][1]
        if carry != u:
            yield None, carry in out, None
        for k1 in succ[k]:
            y = g.product(carry, pair[k1][0])
            yield k1, y in out, (k1, succ.get(y))

    def describe(root, word) -> str:
        pairs = [tuple(g.names[x] for x in pair[k]) for k in word]
        return f"push lemma fails at h={g.names[root[1]]}, word {pairs}"

    _walk(r, [(None, h) for h in zs.h_simples], moves, describe)


def suite_action_preserves_nf(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """
    Acting on a normal factor word gives a normal word, both ways, exact at
    every length: a walk over the states (carry, class of the last input,
    class of the last output), over the acted factor.  The classes are exact:
    build keeps each step output in the acted factor (its tests check that),
    and a unit output, which may follow any letter and be followed only by
    the unit, has the empty class.
    """
    g = zs.germ
    for name, actors, acted, shape in (
            ("rr", zs.h_simples, zs.g_simples, "{} |> {} is not normal"),
            ("rr-inv", zs.h_simples, zs.g_simples, "{}^-1 |> {} is not normal"),
            ("lr", zs.g_simples, zs.h_simples, "{} |>> {} is not normal"),
            ("lr-inv", zs.g_simples, zs.h_simples, "{}^-1 |>> {} is not normal")):
        step, alphabet = zs.steps[name], [s for s in acted if s != g.unit]
        succ = element._successors(g, alphabet)

        def moves(state, step=step, alphabet=alphabet, succ=succ):
            c, last, out = state
            for x in (alphabet if last is None else last):
                y, c1 = step[c][x]
                yield x, out is None or y == g.unit or y in out, (c1, succ[x], succ.get(y, ()))

        def describe(root, word, shape=shape) -> str:
            return shape.format(g.names[root[0]], r._show(word))

        _walk(r, [(c, None, None) for c in actors], moves, describe)


def _split_by_gcd(zs: ZSStructure, x: NormalWord, delta: int) -> tuple[NormalWord, NormalWord]:
    """
    Oracle for the GH-decomposition (delta = delta_G) and the HG-one
    (delta = delta_H), independent of the peel: the first part f is the gcd
    of x with delta^sup(x), the second its complement.  f is the largest
    prefix of x in a parabolic submonoid, whose normal forms are those of
    K, so f divides delta^sup(f), and sup(f) <= sup(x) as f divides x.
    """
    g = zs.germ
    bound = element.normal_form(g, (delta,) * max(x.sup, 1))
    first = element.gcd(g, x, bound)
    return first, element.left_complement(g, first, x)


def suite_translation_roundtrip(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """
    split_nf and merge_nf, on opt.samples seeded elements and pairs of factor words: a
    merge undoes a split, the G-part of a split and the parts of hg_decompose are the
    gcd route's, a merge is the normal form of g.h, psi the lcm.  The H-part of a split
    is not compared: _peel raises unless its parts multiply back, as the gcd route's do,
    so cancellativity makes them equal.  Nor is a split after a merge: the peel's parts
    multiply back to the merge, g.h, so unique GH-factorisation makes them g and h.  Nor
    is injectivity: each step of merge_nf's carry keeps the product (an ll step reads
    hg_pair[g.h] = (g |>> h, g <<| h)), so two pairs with one image have one
    product g.h, and decomposition-uniqueness makes the pair unique.  Nor are the counts
    by atom length: they agree where it adds up over g.h (length-additive), and
    automata-translation compares the two languages.
    """
    g, rng, nf = zs.germ, opt.rng(), partial(element.normal_form, zs.germ)
    split, merge = partial(normal_forms.split_nf, zs), partial(normal_forms.merge_nf, zs)
    for _ in range(opt.samples):
        w = _rand_element(g, rng, opt.max_len)
        p = split(w)
        r.eq(merge(p), w, "merge-after-split", w)
        r.eq(nf(normal_forms._letters(zs.delta_g, p.nf_g)), _split_by_gcd(zs, w, zs.delta_g)[0],
             "split-g-oracle", w)
        r.eq(zappa_szep.hg_decompose(zs, w), _split_by_gcd(zs, w, zs.delta_h), "hg-oracle", w)
        gw, hw = (_rand_word(rng, S, opt.max_len) for S in (zs.g_simples, zs.h_simples))
        ge, he = nf(gw), nf(hw)
        q = normal_forms.NFPair(element._from_letters(element.letters(g, ge), zs.delta_g),
                                element._from_letters(element.letters(g, he), zs.delta_h))
        r.eq(merge(q), nf(gw + hw), "merge-oracle", gw, hw)
        r.eq(normal_forms.psi(zs, q), element.lcm(g, ge, he), "psi-oracle", gw, hw)


def suite_automata_translation(r: _Run, zs: ZSStructure, opt: Options) -> None:
    """
    Translated product acceptor vs the directly built one, exactly.  Both
    are in the state of the last letter read, so a word is accepted iff
    its letters are in the alphabet and each adjacent pair is live: equal
    alphabets and transition rows mean equal languages at every length, and
    unequal ones differ already at length 1 or 2.
    """
    g = zs.germ
    a_g = automata.build_factor_automaton(zs, "G", "full")
    a_h = automata.build_factor_automaton(zs, "H", "full")
    translated = automata.translate_pair_to_product(zs, a_g, a_h)
    direct = automata.build_nf_automaton(g, "full")

    def only(a, b) -> str:
        return ",".join(g.names[s] for s in a.letters if s not in b.letters) or "-"

    r.check(translated.letters == direct.letters,
            lambda: f"alphabets differ: only translated {only(translated, direct)}, "
                    f"only direct {only(direct, translated)}")
    def state(s: int) -> str:  # no simple's name holds a '#': #start and #dead are no letter's
        return direct.state_name(s) if 0 < s < direct.dead else "#" + direct.state_name(s)
    if translated.letters == direct.letters:
        for s, (got, want) in enumerate(zip(translated.transitions, direct.transitions)):
            r.check(got == want, lambda s=s, got=got, want=want:
                    f"transitions from {state(s)} differ, translated != direct: "
                    + ", ".join(f"{name} -> {state(x)} != {state(y)}"
                                for name, x, y in zip(direct.letter_names, got, want) if x != y))
    back_g, back_h = automata.project_product_to_pair(zs, translated)
    r.eq(back_g, a_g, "project-G")
    r.eq(back_h, a_h, "project-H")


ZS_SUITES: dict[str, Callable[[_Run, ZSStructure, Options], None]] = {
    "action-laws": suite_action_laws,
    "identity-detection": suite_identity_detection,
    "round-trip": suite_round_trip,
    "inverse-interplay": suite_inverse_interplay,
    "order-isomorphism": suite_order_isomorphism,
    "complement-transport": suite_complement_transport,
    "lcm-formula": suite_lcm_formula,
    "poset-product": suite_poset_product,
    "join-complement": suite_join_complement,
    "delta-invariance": suite_delta_invariance,
    "complement-action": suite_complement_action,
    "complement-of-join": suite_complement_of_join,
    "factor-closure": suite_factor_closure,
    "atoms-to-atoms": suite_atoms_to_atoms,
    "decomposition-uniqueness": suite_decomposition_uniqueness,
    "local-deltas": suite_local_deltas,
    "normal-form-criteria": suite_normal_form_criteria,
    "push-lemma": suite_push_lemma,
    "action-preserves-nf": suite_action_preserves_nf,
    "translation-roundtrip": suite_translation_roundtrip,
    "automata-translation": suite_automata_translation,
}


def run_suite(name: str, target: Germ | ZSStructure, opt: Options | None = None) -> SuiteReport:
    """Run one named suite against a germ or a decomposition, and report its cases."""
    if name in GERM_SUITES:
        fn = GERM_SUITES[name]
        if isinstance(target, ZSStructure):
            target = target.germ
    elif name in ZS_SUITES:
        fn = ZS_SUITES[name]
        if not isinstance(target, ZSStructure):
            raise ValueError(f"suite {name!r} needs a decomposition (--left)")
    else:
        raise ValueError(f"unknown suite {name!r}")
    r = _Run(target.germ if isinstance(target, ZSStructure) else target)
    start = time.perf_counter()
    fn(r, target, opt or Options())
    return SuiteReport(name, r.cases, r.failures, time.perf_counter() - start)
