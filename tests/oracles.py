"""
Independent models of the built-in monoids, used as ground truth.

Each model maps a word in the atoms to a canonical value using nothing
from the library: permutation sequences normalised by descent-set moves
for the braid monoids, coordinate vectors for the free abelian monoids,
and swap-action triples for the wreath example.  Two atom words are equal
in the monoid iff their model values coincide.
"""

from __future__ import annotations

import itertools
from functools import cached_property


def words_up_to(n_atoms: int, max_len: int):
    for length in range(max_len + 1):
        yield from itertools.product(range(n_atoms), repeat=length)


def model_check(g, model, max_len: int) -> tuple[int, int]:
    """
    Assert that germ-element equality of atom words coincides with model
    equality, for every word up to max_len.  Returns (words, elements).
    """
    from garside import element as el

    atom_of = {nm: g.simple(nm) for nm in model.atom_names()}
    names = model.atom_names()
    elem_to_model: dict = {}
    model_to_elem: dict = {}
    count = 0
    for w in words_up_to(model.n_atoms, max_len):
        count += 1
        e = el.normal_form(g, [atom_of[names[a]] for a in w])
        m = model.value(w)
        assert elem_to_model.setdefault(e, m) == m, (w, e, m)
        assert model_to_elem.setdefault(m, e) == e, (w, e, m)
    assert len(elem_to_model) == len(model_to_elem)
    return count, len(elem_to_model)


class AbelianModel:
    """Free abelian monoid of rank k: words map to coordinate vectors."""

    def __init__(self, k: int):
        self.n_atoms = k

    def value(self, word):
        v = [0] * self.n_atoms
        for a in word:
            v[a] += 1
        return tuple(v)

    def atom_names(self):
        return [f"e{i + 1}" for i in range(self.n_atoms)]


class WreathModel:
    """
    The three-generator monoid with ab=ba, ac=cb, bc=ca, realised on
    triples ((x, y), e): the pair counts a and b, e counts c, and each c
    swaps the pair coordinates of everything multiplied on afterwards.
    """

    n_atoms = 3
    _gens = (((1, 0), 0), ((0, 1), 0), ((0, 0), 1))  # a, b, c

    def value(self, word):
        (x, y), e = (0, 0), 0
        for a in word:
            (p, q), f = self._gens[a]
            if e % 2:
                p, q = q, p
            x, y, e = x + p, y + q, e + f
        return ((x, y), e)

    def atom_names(self):
        return ["a", "b", "c"]


class RelationModel:
    """
    The monoid presented by atoms and families of equal words: the value
    of a word is the least element of its closure under replacing any
    occurrence of a family member by another member.  Exact for short
    words in any length-preserving presentation.
    """

    def __init__(self, n_atoms: int, names, families):
        self.n_atoms = n_atoms
        self._names = list(names)
        self.rules = []
        for family in families:
            for src in family:
                for dst in family:
                    if src != dst:
                        self.rules.append((tuple(src), tuple(dst)))

    def value(self, word):
        word = tuple(word)
        seen = {word}
        frontier = [word]
        while frontier:
            w = frontier.pop()
            for src, dst in self.rules:
                for i in range(len(w) - len(src) + 1):
                    if w[i:i + len(src)] == src:
                        nxt = w[:i] + dst + w[i + len(src):]
                        if nxt not in seen:
                            seen.add(nxt)
                            frontier.append(nxt)
        return min(seen)

    def atom_names(self):
        return self._names


class BraidModel:
    """
    Positive braid monoid on n strands: a word maps to its left-greedy
    sequence of permutations, computed with descent sets alone.
    """

    def __init__(self, n: int):
        self.n = n
        self.n_atoms = n - 1
        self.id = tuple(range(n))
        self.w0 = tuple(reversed(range(n)))
        self.gens = [self._swap(i) for i in range(n - 1)]

    def _swap(self, i: int):
        p = list(range(self.n))
        p[i], p[i + 1] = p[i + 1], p[i]
        return tuple(p)

    @staticmethod
    def _mul(p, q):
        # apply q first, then p
        return tuple(p[q[k]] for k in range(len(p)))

    def _right_descents(self, p):
        return {i for i in range(self.n - 1) if p[i] > p[i + 1]}

    def _left_descents(self, p):
        pos = {v: i for i, v in enumerate(p)}
        return {i for i in range(self.n - 1) if pos[i] > pos[i + 1]}

    def value(self, word):
        factors = [self.gens[a] for a in word]
        changed = True
        while changed:
            changed = False
            for i in range(len(factors) - 1):
                x, y = factors[i], factors[i + 1]
                movable = self._left_descents(y) - self._right_descents(x)
                while movable:
                    s = self.gens[min(movable)]
                    x = self._mul(x, s)
                    y = self._mul(s, y)
                    changed = True
                    movable = self._left_descents(y) - self._right_descents(x)
                factors[i], factors[i + 1] = x, y
        lo = 0
        hi = len(factors)
        while lo < hi and factors[lo] == self.w0:
            lo += 1
        while lo < hi and factors[hi - 1] == self.id:
            hi -= 1
        return (lo, tuple(factors[lo:hi]))

    def atom_names(self):
        names = []
        for i in range(self.n - 1):
            p = self.gens[i]
            names.append("".join(str(v + 1) for v in p))
        return names

    def perm_of(self, name):
        """The permutation a braid simple is named after ("1" is the identity)."""
        return self.id if name == "1" else tuple(int(c) - 1 for c in name)

    def atom_word(self, perm):
        """A reduced atom word of a permutation: peel right descents off."""
        p, word = list(perm), []
        while True:
            i = next((i for i in range(self.n - 1) if p[i] > p[i + 1]), None)
            if i is None:
                return word[::-1]
            p[i], p[i + 1] = p[i + 1], p[i]
            word.append(i)


class ProductModel:
    """
    The direct product of two models: atoms of the left factor are named
    `x*1`, those of the right factor `1*y`, and the two letter families
    commute, so a word's value is the pair of its two projections.
    """

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.n_atoms = left.n_atoms + right.n_atoms

    def value(self, word):
        k = self.left.n_atoms
        return (self.left.value([a for a in word if a < k]),
                self.right.value([a - k for a in word if a >= k]))

    def atom_names(self):
        return ([f"{nm}*1" for nm in self.left.atom_names()]
                + [f"1*{nm}" for nm in self.right.atom_names()])


class LatticeOracle:
    """
    Meets and joins of simples by brute force: divisor sets are read off
    the product table as plain sets, and a meet (join) is the common lower
    (upper) bound lying above (below) every other one.  None where no such
    bound exists.
    """

    def __init__(self, g):
        n = len(g)
        self.prefixes = [set() for _ in range(n)]
        self.suffixes = [set() for _ in range(n)]
        for s, row in enumerate(g.product_rows):
            for t, u in row.items():
                self.prefixes[u].add(s)
                self.suffixes[u].add(t)

    @staticmethod
    def _greatest(bounds, below):
        top = [b for b in bounds if bounds <= below[b]]
        return top[0] if len(top) == 1 else None

    @staticmethod
    def _least(bounds, below):
        bottom = [b for b in bounds if all(b in below[c] for c in bounds)]
        return bottom[0] if len(bottom) == 1 else None

    def meet(self, s, t):
        return self._greatest(self.prefixes[s] & self.prefixes[t], self.prefixes)

    def rmeet(self, s, t):
        return self._greatest(self.suffixes[s] & self.suffixes[t], self.suffixes)

    def join(self, s, t):
        ups = {u for u, d in enumerate(self.prefixes) if s in d and t in d}
        return self._least(ups, self.prefixes)

    def rjoin(self, s, t):
        ups = {u for u, d in enumerate(self.suffixes) if s in d and t in d}
        return self._least(ups, self.suffixes)


def zs_actions(g, g_simples, h_simples):
    """
    The eight simple-level Zappa-Szep actions, solved from their defining
    equations by search over G x H with the germ product alone:

        h.g = (h |> g)(h <| g)             g.h = (g |>> h)(g <<| h)
        h |> (h^-1 |> g) = g               (h <| g^-1) <| g = h
        g |>> (g^-1 |>> h) = h             (g <<| h^-1) <<| h = g

    Returns {name: {argument pair: value}}, with names and argument orders
    as in ZSStructure.act.  Every solution is asserted unique.
    """
    G, H = tuple(g_simples), tuple(h_simples)

    def only(solutions):
        assert len(solutions) == 1, solutions
        return solutions[0]

    acts = {nm: {} for nm in ("rr", "rl", "lr", "ll", "rr-inv", "rl-inv", "lr-inv", "ll-inv")}
    for h in H:
        for x in G:
            hx = g.product(h, x)
            acts["rr"][h, x], acts["rl"][h, x] = only(
                [(a, b) for a in G for b in H if g.product(a, b) == hx])
            xh = g.product(x, h)
            acts["lr"][x, h], acts["ll"][x, h] = only(
                [(b, a) for b in H for a in G if g.product(b, a) == xh])
    for h in H:
        for x in G:
            acts["rr-inv"][h, x] = only([y for y in G if acts["rr"][h, y] == x])
            acts["rl-inv"][h, x] = only([k for k in H if acts["rl"][k, x] == h])
            acts["lr-inv"][x, h] = only([k for k in H if acts["lr"][x, k] == h])
            acts["ll-inv"][x, h] = only([y for y in G if acts["ll"][y, h] == x])
    return acts


class FixpointArithmetic:
    """
    Element arithmetic on words with every Delta power spelled out, using
    only the simple-level lookups of a germ: the normal form rewrites
    adjacent pairs until all are left weighted, a product renormalises the
    concatenation, and a complement runs the whole letter grid.  Quadratic
    or worse, and shares no code with the library's sweep.
    """

    def __init__(self, g):
        self.g = g

    @cached_property
    def opposite(self):
        return FixpointArithmetic(self.g.opposite())

    def letters(self, w):
        return (self.g.delta,) * w.deltas + w.factors

    def normal_form(self, word):
        from garside.element import NormalWord

        g = self.g
        w = list(word)
        changed = True
        while changed:
            changed = False
            for i in range(len(w) - 1):
                u = g.meet(g.complement(w[i]), w[i + 1])
                if u != g.unit:
                    w[i], w[i + 1] = g.product(w[i], u), g.lcomp(u, w[i + 1])
                    changed = True
        lo, hi = 0, len(w)
        while lo < hi and w[lo] == g.delta:
            lo += 1
        while lo < hi and w[hi - 1] == g.unit:
            hi -= 1
        return NormalWord(lo, tuple(w[lo:hi]))

    def multiply(self, x, y):
        return self.normal_form(self.letters(x) + self.letters(y))

    def left_complement(self, x, y):
        g = self.g
        w = list(self.letters(y))
        for s in self.letters(x):
            out = []
            for t in w:
                out.append(g.lcomp(s, t))
                s = g.lcomp(t, s)
            w = out
        return self.normal_form(w)

    def lcm(self, x, y):
        return self.multiply(x, self.left_complement(x, y))

    def divides(self, x, y):
        return self.lcm(x, y) == y

    def head(self, w):
        word = self.letters(w)
        return word[0] if word else self.g.unit

    def gcd(self, x, y):
        """The meet of the two heads, divided out of both, repeatedly."""
        acc = []
        while (a := self.g.meet(self.head(x), self.head(y))) != self.g.unit:
            acc.append(a)
            s = self.normal_form([a])
            x, y = self.left_complement(s, x), self.left_complement(s, y)
        return self.normal_form(acc)

    def _reversed(self, w, other):
        return other.normal_form(tuple(reversed(self.letters(w))))

    def right_complement(self, x, y):
        op = self.opposite
        z = op.left_complement(self._reversed(x, op), self._reversed(y, op))
        return op._reversed(z, self)

    def rdivides(self, x, y):
        return self.multiply(self.right_complement(x, y), x) == y


# -- the suffix order through the opposite germ --------------------------------
# The opposite germ's prefix order is the suffix order, so an element read
# backwards there answers a suffix query with the prefix code path: the
# library's route before it read the prefix tables through the complement to
# Delta^k.  It builds and fills a second germ's tables: the caller builds the
# opposite germ op of g once and hands it to each query.

def reversed_in(op, w):
    """Delta^k.x1...xm read backwards in the opposite germ op:
    xm...x1.Delta^k = Delta^k.tau^k(xm)...tau^k(x1) there."""
    from garside.element import _fold, _twist

    return _fold(op, w.deltas, _twist(op, w.deltas, reversed(w.factors)))


def rgcd_by_opposite(g, op, x, y):
    from garside import element as el

    return reversed_in(g, el.gcd(op, reversed_in(op, x), reversed_in(op, y)))


def right_complement_by_opposite(g, op, x, y):
    from garside import element as el

    return reversed_in(g, el.left_complement(op, reversed_in(op, x), reversed_in(op, y)))


def right_divisor_set_by_opposite(g, op, x):
    from garside import element as el

    return {reversed_in(g, d) for d in el.left_divisor_set(op, reversed_in(op, x))}


def _inversions(p) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def braid_germ_by_pairs(n: int):
    """
    The braid germ on n strands by trying all n!^2 pairs of permutations:
    a product is defined when the inversion counts add.  Permutations are
    indexed in lexicographic order and rows list their keys ascending.
    """
    from garside import Germ

    perms = [tuple(p) for p in itertools.permutations(range(n))]
    index = {p: i for i, p in enumerate(perms)}
    inv = [_inversions(p) for p in perms]
    names = ["1" if p == tuple(range(n)) else "".join(str(i + 1) for i in p)
             for p in perms]
    rows = [dict() for _ in perms]
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            pq = tuple(p[q[k]] for k in range(n))
            if inv[i] + inv[j] == _inversions(pq):
                rows[i][j] = index[pq]
    return Germ(tuple(names), index[tuple(reversed(range(n)))], tuple(rows))


def direct_product_germ_by_pairs(g1, g2):
    """The direct product by testing all |G1|^2.|G2|^2 pairs of pairs."""
    from garside import Germ

    pairs = list(itertools.product(range(len(g1)), range(len(g2))))
    index = {p: i for i, p in enumerate(pairs)}
    names = ["1" if (s1, s2) == (g1.unit, g2.unit) else f"{g1.names[s1]}*{g2.names[s2]}"
             for s1, s2 in pairs]
    rows = [dict() for _ in pairs]
    for i, (s1, s2) in enumerate(pairs):
        for j, (t1, t2) in enumerate(pairs):
            u1 = g1.product(s1, t1)
            u2 = g2.product(s2, t2)
            if u1 is not None and u2 is not None:
                rows[i][j] = index[(u1, u2)]
    return Germ(tuple(names), index[(g1.delta, g2.delta)], tuple(rows))


def abelian_by_braid3_germ():
    """
    The semidirect product N^3 x| B3+, in which sigma_1 and sigma_2 swap
    the generators e1, e2 and e2, e3.  Its 48 simples are pairs (x, p) of a
    subset x of {e1, e2, e3} and a simple p of B3+, named "x*p" like the
    simples of a direct product.  With p(y) = {p[i] : i in y},

        (x, p).(y, q) = (x + p(y), p.q),

    defined when x and p(y) are disjoint and the inversion counts of p and
    q add.  G = <e1, e2, e3> is a left factor on which the non-commuting
    H = B3+ acts by permuting the generators.
    """
    from garside.germ import make_germ

    perms = list(itertools.permutations(range(3)))
    subsets = [frozenset(i for i in range(3) if (mask >> i) & 1) for mask in range(8)]

    def name(x, p):
        xs = "".join(f"e{i + 1}" for i in sorted(x)) or "1"
        ps = "1" if p == (0, 1, 2) else "".join(str(i + 1) for i in p)
        return "1" if xs == ps == "1" else f"{xs}*{ps}"

    simples = [(x, p) for x in subsets for p in perms]
    triples = []
    for x, p in simples:
        for y, q in simples:
            py = frozenset(p[i] for i in y)
            pq = tuple(p[q[k]] for k in range(3))
            if not x & py and _inversions(p) + _inversions(q) == _inversions(pq):
                triples.append((name(x, p), name(y, q), name(x | py, pq)))
    return make_germ([name(x, p) for x, p in simples], name(subsets[-1], (2, 1, 0)),
                     triples)


# -- word enumerators for the two walked Zappa-Szep suites ------------------------

def normal_words(g, alphabet, letters: int):
    """Every normal word over the alphabet with at most `letters` letters."""
    def grow(word):
        yield tuple(word)
        if len(word) == letters:
            return
        for s in alphabet:
            if not word or g.normal_pair(word[-1], s):
                word.append(s)
                yield from grow(word)
                word.pop()
    yield from grow([])


ACTION_NF_SHAPES = {"rr": "{} |> {} is not normal", "rr-inv": "{}^-1 |> {} is not normal",
                    "lr": "{} |>> {} is not normal", "lr-inv": "{}^-1 |>> {} is not normal"}


def action_nf_failures(zs, name: str, letters: int) -> list[tuple[str, int]]:
    """
    The action-preserves-nf law for one of rr, rr-inv, lr and lr-inv, by
    enumeration: every simple of the acting factor on every normal word of
    the other with at most `letters` letters.  Returns (the failure line
    in the suite's format, the word's length) for each word whose image is
    not normal.
    """
    from garside import zappa_szep

    g = zs.germ
    actors, acted = ((zs.h_simples, zs.g_simples) if name[0] == "r"
                     else (zs.g_simples, zs.h_simples))
    alphabet = [s for s in acted if s != g.unit]
    found = []
    for word in normal_words(g, alphabet, letters):
        for c in actors:
            out = zappa_szep.act_word(zs, name, (c,), word)
            if not all(g.normal_pair(x, y) for x, y in zip(out, out[1:])):
                shown = ".".join(g.names[s] for s in word) if word else "1"
                found.append((ACTION_NF_SHAPES[name].format(g.names[c], shown), len(word)))
    return found


def push_lemma_failures(zs, pairs: int) -> list[tuple[str, int]]:
    """
    The push lemma by enumeration: every H-simple h pushed through every
    word of at most `pairs` GH-factors (g_i, h_i) whose products form a
    normal word, when h is prefix-coprime to g_1 |>> h_1.  Returns (the
    failure line in the suite's format, the number of factors).
    """
    g = zs.germ
    u = g.unit
    found = []

    def check(h, word):
        out = [g.product(h, word[0][0])]
        out += [g.product(b, a) for (_, b), (a, _) in zip(word, word[1:])]
        if word[-1][1] != u:
            out.append(word[-1][1])
        if not (all(k is not None and k != u for k in out)
                and all(g.normal_pair(x, y) for x, y in zip(out, out[1:]))):
            shown = [tuple(g.names[x] for x in p) for p in word]
            found.append((f"push lemma fails at h={g.names[h]}, word {shown}", len(word)))

    def grow(h, word, last):
        if word:
            check(h, word)
        if len(word) == pairs:
            return
        for a in zs.g_simples:
            for b in zs.h_simples:
                k = g.product(a, b)
                if k == u or (last is not None and not g.normal_pair(last, k)):
                    continue
                if not word and g.meet(zs.comp_h(h), zs.act("lr", a, b)) != u:
                    continue
                word.append((a, b))
                grow(h, word, k)
                word.pop()

    for h in zs.h_simples:
        grow(h, [], None)
    return found


# -- the two walked suites over every state, not classes of states -------------------

def successors_by_letters(g, alphabet):
    """The letters that may follow each letter in a normal word, read off the
    meet row of its own complement: the per-letter scan that element._successors
    reads once per atom set; a gap raises normal_pair's GermError."""
    succ = {}
    for s in alphabet:
        row = g.lattice_row("meet", g.complement(s), alphabet)
        succ[s] = [t for t, m in zip(alphabet, row) if m == g.unit]
    return succ


def push_lemma_by_states(r, zs, opt):
    """The push-lemma walk keyed by the last output itself, not its class of
    successors: the reference for the suite's verdict and failure lines."""
    from garside.suites import _walk

    g = zs.germ
    u = g.unit
    pair = zs.gh_pair
    alphabet = [k for k in range(len(g)) if k != u]
    succ = successors_by_letters(g, alphabet)
    lr = zs.steps["lr"]

    def moves(state):
        k, out = state
        if k is None:           # a root: out is the pushed h
            for k1 in alphabet:
                g1, h1 = pair[k1]
                if g.meet(zs.comp_h(out), lr[g1][h1][0]) == u:
                    y = g.product(out, g1)
                    yield k1, y != u, (k1, y)
            return
        carry = pair[k][1]
        if carry != u:
            yield None, g.normal_pair(out, carry), None
        for k1 in succ[k]:
            y = g.product(carry, pair[k1][0])
            yield k1, y != u and g.normal_pair(out, y), (k1, y)

    def describe(root, word) -> str:
        pairs = [tuple(g.names[x] for x in pair[k]) for k in word]
        return f"push lemma fails at h={g.names[root[1]]}, word {pairs}"

    _walk(r, [(None, h) for h in zs.h_simples], moves, describe)


def action_preserves_nf_by_states(r, zs, opt):
    """The action-preserves-nf walk keyed by the last input and output
    themselves: the reference for the suite's verdict and failure lines."""
    from garside.suites import _walk

    g = zs.germ
    for name, actors, acted in (("rr", zs.h_simples, zs.g_simples),
                                ("rr-inv", zs.h_simples, zs.g_simples),
                                ("lr", zs.g_simples, zs.h_simples),
                                ("lr-inv", zs.g_simples, zs.h_simples)):
        step = zs.steps[name]
        alphabet = [s for s in acted if s != g.unit]
        succ = successors_by_letters(g, alphabet)

        def moves(state, step=step, alphabet=alphabet, succ=succ):
            c, last, out = state
            for x in (alphabet if last is None else succ[last]):
                y, c1 = step[c][x]
                yield x, out is None or g.normal_pair(out, y), (c1, x, y)

        def describe(root, word, shape=ACTION_NF_SHAPES[name]) -> str:
            return shape.format(g.names[root[0]], r._show(word))

        _walk(r, [(c, None, None) for c in actors], moves, describe)


# -- translation-roundtrip by enumeration of normal words -----------------------------

def translation_roundtrip_by_enumeration(r, zs, opt):
    """split/merge and the bijections against the element-level oracles on
    every normal word of K, and every pair of factor normal words, of at most
    opt.max_len atoms, with injectivity and the counts by atom length."""
    from collections import Counter

    from garside import element, normal_forms
    from garside.suites import _split_by_gcd

    g = zs.germ
    full = tuple(s for s in range(len(g)) if s != g.unit)
    g_alpha = tuple(s for s in zs.g_simples if s != g.unit)
    h_alpha = tuple(s for s in zs.h_simples if s != g.unit)

    k_words = list(normal_words_recursive(g, full, opt.max_len))
    images = set()
    for letters in k_words:
        w = element._from_letters(letters, g.delta)
        p = normal_forms.split_nf(zs, w)
        r.eq(normal_forms.merge_nf(zs, p), w, "merge-after-split", w)
        gpart, hpart = _split_by_gcd(zs, w, zs.delta_g)
        r.eq(element.normal_form(g, normal_forms._letters(zs.delta_g, p.nf_g)), gpart,
             "split-g-oracle", w)
        r.eq(element.normal_form(g, normal_forms._letters(zs.delta_h, p.nf_h)), hpart,
             "split-h-oracle", w)

    pair_count = 0
    by_length: dict[int, int] = {}
    for gl in normal_words_recursive(g, g_alpha, opt.max_len):
        glen = sum(g.atom_len[s] for s in gl)
        for hl in normal_words_recursive(g, h_alpha, opt.max_len - glen):
            pair_count += 1
            p = normal_forms.NFPair(
                element._from_letters(gl, zs.delta_g),
                element._from_letters(hl, zs.delta_h))
            w = normal_forms.merge_nf(zs, p)
            r.eq(normal_forms.split_nf(zs, w), p, "split-after-merge", w)
            r.eq(w, element.normal_form(g, gl + hl), "merge-oracle", gl, hl)
            images.add(w)
            total = glen + sum(g.atom_len[s] for s in hl)
            by_length[total] = by_length.get(total, 0) + 1
            ge = element.normal_form(g, gl)
            he = element.normal_form(g, hl)
            r.eq(normal_forms.psi(zs, p), element.lcm(g, ge, he), "psi-oracle", gl, hl)
    r.check(len(images) == pair_count,
            lambda: f"phi is not injective: {pair_count} pairs, {len(images)} images")
    k_by_length = dict(Counter(sum(g.atom_len[s] for s in letters) for letters in k_words))
    r.eq(by_length, k_by_length, "phi-counts")


# -- the peel and the merge by re-association ----------------------------------------
#
# The loops that zappa_szep and normal_forms used before their one carry: a
# whole word is re-associated through gh_pair or hg_pair and Germ.product each
# round, and re-checked normal.

def reassociate(g, pairs):
    """One re-association step over a word of factored letters a_i.b_i: the
    letters b_i.a_(i+1), then b_n unless it is 1."""
    word = [g.product(b, a) for (_, b), (a, _) in zip(pairs, pairs[1:])]
    assert None not in word, "re-associated factor left the simples"
    if pairs[-1][1] != g.unit:
        word.append(pairs[-1][1])
    return word


def peel_by_reassociation(zs, x, pair):
    """The two parts of x over gh_pair or hg_pair: factor every letter, take the
    leading first part, re-associate each second part with the next first part."""
    from garside import element

    g = zs.germ
    word = list(element.letters(g, x))
    first = []
    while word:
        pairs = [pair[s] for s in word]
        if pairs[0][0] == g.unit:
            break
        first.append(pairs[0][0])
        word = reassociate(g, pairs)
        assert element._is_normal_word(g, word), "peeling produced a non-normal word"
    assert element._is_normal_word(g, first), "peeling produced a non-normal first factor"
    return element.NormalWord(0, tuple(first)), element.NormalWord(0, tuple(word))


def split_by_reassociation(zs, w):
    from garside import element, normal_forms

    gpart, hpart = peel_by_reassociation(zs, w, zs.gh_pair)
    return normal_forms.NFPair(element._from_letters(gpart.factors, zs.delta_g),
                               element._from_letters(hpart.factors, zs.delta_h))


def merge_by_reassociation(zs, p):
    """The normal form of g.h: the last G-letter re-associates through the word
    as a leading factor 1.last, until no G-letter is left."""
    from garside import element, normal_forms

    g = zs.germ
    gw = list(normal_forms._letters(zs.delta_g, p.nf_g))
    word = list(normal_forms._letters(zs.delta_h, p.nf_h))
    while gw:
        pairs = [(g.unit, gw.pop())] + [zs.hg_pair[x] for x in word]
        word = reassociate(g, pairs)
        assert element._is_normal_word(g, word), "merge produced a non-normal word"
    return element._from_letters(word, g.delta)


def psi_by_reassociation(zs, p):
    """psi through the re-association merge, the inverse action of each
    G-letter c on the H-word solved letter by letter from hg_pair: the H-simple
    x with c.x = y.d for the letter y in hand, d carried on."""
    from garside import element, normal_forms

    g = zs.germ
    hw = list(normal_forms._letters(zs.delta_h, p.nf_h))
    for c in normal_forms._letters(zs.delta_g, p.nf_g):
        out = []
        for y in hw:
            solved = {zs.hg_pair[g.product(c, x)][0]: (x, zs.hg_pair[g.product(c, x)][1])
                      for x in zs.h_simples}
            x, c = solved[y]
            out.append(x)
        hw = out
    return merge_by_reassociation(zs, normal_forms.NFPair(
        p.nf_g, element._from_letters(hw, zs.delta_h)))


# -- acceptor word counts ------------------------------------------------------------

def count_accepted_by_states(a, n: int) -> int:
    """
    Accepted words of length n, by moving a count for every state along
    every letter n times: O(n * states * letters), with no grouping of
    states.
    """
    counts = [0] * a.n_states
    counts[0] = 1
    for _ in range(n):
        nxt = [0] * a.n_states
        for state, c in enumerate(counts):
            if not c:
                continue
            for pos in range(len(a.letters)):
                nxt[a.transitions[state][pos]] += c
        counts = nxt
    return sum(c for state, c in enumerate(counts) if a.is_accepting(state))


# -- reference set-up of a decomposition --------------------------------------------

def generated_simples(g, atoms):
    """
    The simples of the submonoid an atom subset generates, by stripping
    those atoms in a topological order of the prefix relation, through the
    full row inverses of the product.
    """
    atom_set = set(atoms)
    inv = g._row_inverses()
    member = [False] * len(g)
    member[g.unit] = True
    order = sorted(range(len(g)), key=lambda s: g.ldiv[s].bit_count())
    for s in order:
        if s == g.unit:
            continue
        for a in atom_set:
            if (g.ldiv[s] >> a) & 1 and member[inv[a][s]]:
                member[s] = True
                break
    return [s for s in range(len(g)) if member[s]]


def closure_table(g):
    """
    The quasi-central closure of every simple, eagerly: the join of the
    closure of {s} under the maps y -> a\\y over all atoms a.
    """
    table = []
    for s in range(len(g)):
        seen, frontier = {s}, [s]
        while frontier:
            x = frontier.pop()
            for a in g.atoms:
                y = g.lcomp(a, x)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        d = g.unit
        for x in seen:
            d = g.join(d, x)
        table.append(d)
    return table


# -- reference enumerators of normal words and elements -----------------------------

def normal_words_recursive(g, alphabet, budget: int):
    """Every normal word over the alphabet with total atom length <= budget, by recursion."""
    word = []

    def grow(last, left):
        yield tuple(word)
        for s in alphabet:
            if g.atom_len[s] > left:
                continue
            if last is not None and not g.normal_pair(last, s):
                continue
            word.append(s)
            yield from grow(s, left - g.atom_len[s])
            word.pop()

    yield from grow(None, budget)


def elements_by_levels(g, max_len: int):
    """Every element of atom length <= max_len, breadth first by multiplication by atoms."""
    from garside import element as el

    level = {el.UNIT}
    yield el.UNIT
    for _ in range(max_len):
        nxt = set()
        for w in level:
            for a in g.atoms:
                nxt.add(el.multiply(g, w, el.simple(g, a)))
        yield from sorted(nxt, key=lambda v: (v.deltas, v.factors))
        level = nxt


# -- the germ-level laws, one case at a time ----------------------------------------

def lattice_laws_by_cases(r, g, opt):
    """Every lattice law with one r.eq per case, commutativity and associativity
    included: the reference for the lattice-laws suite's verdict and failure lines.
    The complement laws s.(s\\t) = s v t and its suffix mirror are left out, as
    in the suite: a complement is read through the inverse of the product row.
    So is rcomplement(complement(s)) = s, which validate's complements axiom decides."""
    n = len(g)
    for s in range(n):
        for t in range(n):
            r.eq(g.meet(s, t), g.meet(t, s), "meet-comm", s, t)
            r.eq(g.join(s, t), g.join(t, s), "join-comm", s, t)
            r.eq(g.meet(s, g.join(s, t)), s, "absorb-meet", s, t)
            r.eq(g.meet(g.join(s, t), t), t, "absorb-meet-right", s, t)
            r.eq(g.join(s, g.meet(s, t)), s, "absorb-join", s, t)
    if n <= 24:
        triples = [(s, t, u) for s in range(n) for t in range(n) for u in range(n)]
    else:
        rng = opt.rng()
        triples = [(rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(opt.samples)]
    for s, t, u in triples:
        r.eq(g.meet(g.meet(s, t), u), g.meet(s, g.meet(t, u)), "meet-assoc", s, t, u)
        r.eq(g.join(g.join(s, t), u), g.join(s, g.join(t, u)), "join-assoc", s, t, u)


def complements_lemma_by_cases(r, g, opt):
    """The complements-lemma suite with one r.eq per case: the reference for its rows."""
    from garside import element
    from garside.suites import _rand_element

    for a in range(len(g)):
        for b, ab in g.product_rows[a].items():
            for c in range(len(g)):
                r.eq(g.lcomp(ab, c), g.lcomp(b, g.lcomp(a, c)), "under-product", a, b, c)
                rhs = g.product(g.lcomp(c, a), g.lcomp(g.lcomp(a, c), b))
                r.eq(g.lcomp(c, ab), rhs, "over-product", a, b, c)
    rng = opt.rng()
    for _ in range(opt.samples):
        x = _rand_element(g, rng, opt.max_len)
        y = _rand_element(g, rng, opt.max_len)
        z = _rand_element(g, rng, opt.max_len)
        xy = element.multiply(g, x, y)
        r.eq(element.left_complement(g, xy, z),
             element.left_complement(g, y, element.left_complement(g, x, z)),
             "element-under", x, y, z)
        r.eq(element.left_complement(g, z, xy),
             element.multiply(g, element.left_complement(g, z, x),
                              element.left_complement(
                                  g, element.left_complement(g, x, z), y)),
             "element-over", x, y, z)


def quasicenter_by_cases(r, g, opt):
    """The quasicenter suite with one r.eq per case for its row laws,
    join-compatible at each pair of simples and the closure laws at each
    simple and each atom: the reference for its rows.  As in the suite, no
    closure is checked to divide delta."""
    from garside import quasicenter

    n = len(g)
    delta_of = [quasicenter.delta_of_simple(g, s) for s in range(n)]
    for s in range(n):
        for t in range(n):
            r.eq(delta_of[g.join(s, t)], g.join(delta_of[s], delta_of[t]),
                 "join-compatible", s, t)
    if g.atoms:
        for c in quasicenter.atom_classes(g).class_delta:
            for s in range(n):
                r.check(g.left_divides(s, c) == g.right_divides(s, c),
                        lambda s=s, c=c: f"{g.names[c]} prefix/suffix sets differ "
                                         f"at {g.names[s]}")
    for s in range(n):
        r.eq(g.join(delta_of[s], s), delta_of[s], "closure-above", s)
    for a in g.atoms:
        for s in range(n):
            r.eq(g.join(delta_of[s], delta_of[g.lcomp(a, s)]), delta_of[s],
                 "closure-closed", a, s)


# -- the four-fold decomposition laws, one case at a time -----------------------------

def poset_product_by_cases(r, zs, opt):
    """The poset-product suite with one r.check per case: the reference for its rows."""
    g = zs.germ
    G, H = zs.g_simples, zs.h_simples
    for g1 in G:
        for h1 in H:
            j1 = g.join(g1, h1)
            for g2 in G:
                for h2 in H:
                    lhs = g.left_divides(g1, g2) and g.left_divides(h1, h2)
                    rhs = g.left_divides(j1, g.join(g2, h2))
                    r.check(lhs == rhs,
                            lambda g1=g1, h1=h1, g2=g2, h2=h2:
                            "poset product fails at "
                            f"({g.names[g1]},{g.names[h1]}) vs ({g.names[g2]},{g.names[h2]})")


def join_complement_by_cases(r, zs, opt):
    """The join-complement suite with one r.eq per case: the reference for its rows."""
    g = zs.germ
    G, H = zs.g_simples, zs.h_simples
    for g1 in G:
        for h1 in H:
            x = zs.act("lr-inv", g1, h1)
            y = zs.act("rr-inv", h1, g1)
            j1 = g.join(g1, h1)
            for g2 in G:
                for h2 in H:
                    r.eq(g.lcomp(j1, g.join(g2, h2)),
                         g.join(zs.act("rr-inv", x, g.lcomp(g1, g2)),
                                zs.act("lr-inv", y, g.lcomp(h1, h2))),
                         "join-under", g1, h1, g2, h2)


def normal_form_criteria_by_cases(r, zs, opt):
    """The normal-form-criteria suite with one r.check per case: the reference for its rows."""
    from garside import normal_forms

    g = zs.germ
    for k1, (g1, h1) in enumerate(zs.gh_pair):
        for k2, (g2, h2) in enumerate(zs.gh_pair):
            r.check(normal_forms.is_normal_gh_gh(zs, g1, h1, g2, h2)
                    == (g.normal_pair(k1, k2) and k2 != g.unit),
                    lambda xs=(g1, h1, g2, h2): "gh|gh criterion fails at "
                    f"({','.join(g.names[x] for x in xs)})")


# -- the mirrored decomposition laws, one orientation at a time -------------------------

def _closed_products(g, simples, member):
    """The triples (x, y, x.y) of factor simples whose product is a simple of the factor."""
    return [(x, y, k) for x in simples for y in simples
            if (k := g.product(x, y)) is not None and member(k)]


def action_laws_by_cases(r, zs, opt):
    """The action-laws suite with each law written out for H acting on G and
    for G acting on H: the reference for the laws stated once per orientation."""
    from functools import partial

    from garside import element, zappa_szep
    from garside.suites import _rand_word

    g = zs.germ
    G, H = zs.g_simples, zs.h_simples
    for h1, h2, k in _closed_products(g, H, zs.member_h):
        for gs in G:
            r.eq(zs.act("rr", k, gs), zs.act("rr", h1, zs.act("rr", h2, gs)),
                 "rr-assoc", h1, h2, gs)
            r.eq(zs.act("rl", k, gs),
                 g.product(zs.act("rl", h1, zs.act("rr", h2, gs)), zs.act("rl", h2, gs)),
                 "rl-product", h1, h2, gs)
            r.eq(zs.act("ll", gs, k),
                 zs.act("ll", zs.act("ll", gs, h1), h2), "ll-assoc", gs, h1, h2)
            r.eq(zs.act("lr", gs, k),
                 g.product(zs.act("lr", gs, h1), zs.act("lr", zs.act("ll", gs, h1), h2)),
                 "lr-product", gs, h1, h2)
    for g1, g2, k in _closed_products(g, G, zs.member_g):
        for hs in H:
            r.eq(zs.act("lr", k, hs), zs.act("lr", g1, zs.act("lr", g2, hs)),
                 "lr-assoc", g1, g2, hs)
            r.eq(zs.act("rl", hs, k),
                 zs.act("rl", zs.act("rl", hs, g1), g2), "rl-assoc", hs, g1, g2)
            r.eq(zs.act("rr", hs, k),
                 g.product(zs.act("rr", hs, g1), zs.act("rr", zs.act("rl", hs, g1), g2)),
                 "rr-product", hs, g1, g2)
            r.eq(zs.act("ll", k, hs),
                 g.product(zs.act("ll", g1, zs.act("lr", g2, hs)), zs.act("ll", g2, hs)),
                 "ll-product", g1, g2, hs)
    rng, act = opt.rng(), partial(zappa_szep.act_word, zs)
    for _ in range(opt.samples):
        hw = _rand_word(rng, H, opt.max_len)
        gw = _rand_word(rng, G, opt.max_len)
        # the defining equation at word level: h.g = (h |> g)(h <| g)
        he = element.normal_form(g, hw)
        ge = element.normal_form(g, gw)
        r.eq(element.multiply(g, he, ge),
             element.multiply(g, element.normal_form(g, act("rr", hw, gw)),
                              element.normal_form(g, act("rl", hw, gw))),
             "word-defining-rr", hw, gw)
        r.eq(element.multiply(g, ge, he),
             element.multiply(g, element.normal_form(g, act("lr", gw, hw)),
                              element.normal_form(g, act("ll", gw, hw))),
             "word-defining-lr", gw, hw)


def inverse_interplay_by_cases(r, zs, opt):
    """The inverse-interplay suite with each law written out for H acting on G
    and for G acting on H: the reference for the laws stated once per orientation.
    The mixes of a forward and an inverse action are left out, as in the suite:
    build inverts the forward tables row by row."""
    from functools import partial

    from garside import zappa_szep
    from garside.suites import _rand_word

    g = zs.germ
    G, H = zs.g_simples, zs.h_simples
    for h1, h2, k in _closed_products(g, H, zs.member_h):
        for gs in G:
            r.eq(zs.act("lr-inv", gs, k),
                 g.product(zs.act("lr-inv", gs, h1),
                           zs.act("lr-inv", zs.act("rr-inv", h1, gs), h2)),
                 "inv-lr-product", gs, h1, h2)
            r.eq(zs.act("rl-inv", k, gs),
                 g.product(zs.act("rl-inv", h1, zs.act("ll-inv", gs, h2)),
                           zs.act("rl-inv", h2, gs)),
                 "inv-rl-product", h1, h2, gs)
    for g1, g2, k in _closed_products(g, G, zs.member_g):
        for hs in H:
            r.eq(zs.act("rr-inv", hs, k),
                 g.product(zs.act("rr-inv", hs, g1),
                           zs.act("rr-inv", zs.act("lr-inv", g1, hs), g2)),
                 "inv-rr-product", hs, g1, g2)
            r.eq(zs.act("ll-inv", k, hs),
                 g.product(zs.act("ll-inv", g1, zs.act("rl-inv", hs, g2)),
                           zs.act("ll-inv", g2, hs)),
                 "inv-ll-product", g1, g2, hs)
    rng, act = opt.rng(), partial(zappa_szep.act_word, zs)
    for _ in range(opt.samples):
        hw = _rand_word(rng, H, opt.max_len)
        gw = _rand_word(rng, G, opt.max_len)
        r.eq(act("rr-inv", hw, act("rr", hw, gw)), gw, "word-rr-roundtrip", hw, gw)
        r.eq(act("rl-inv", act("rl", hw, gw), gw), hw, "word-rl-roundtrip", hw, gw)
        r.eq(act("lr-inv", gw, act("lr", gw, hw)), hw, "word-lr-roundtrip", gw, hw)
        r.eq(act("ll-inv", act("ll", gw, hw), hw), gw, "word-ll-roundtrip", gw, hw)


def round_trip_by_cases(r, zs, opt):
    """The round-trip suite with GH -> HG -> GH and HG -> GH -> HG written out
    for each sampled pair of words: the reference for the law stated once per
    orientation."""
    from functools import partial

    from garside import zappa_szep
    from garside.suites import _rand_word

    rng, act = opt.rng(), partial(zappa_szep.act_word, zs)
    for _ in range(opt.samples):
        gw = _rand_word(rng, zs.g_simples, opt.max_len)
        hw = _rand_word(rng, zs.h_simples, opt.max_len)
        h2, g2 = act("lr", gw, hw), act("ll", gw, hw)
        r.eq(act("rr", h2, g2), gw, "gh-hg-gh-g", gw, hw)
        r.eq(act("rl", h2, g2), hw, "gh-hg-gh-h", gw, hw)
        g3, h3 = act("rr", hw, gw), act("rl", hw, gw)
        r.eq(act("lr", g3, h3), hw, "hg-gh-hg-h", hw, gw)
        r.eq(act("ll", g3, h3), gw, "hg-gh-hg-g", hw, gw)


def delta_invariance_by_cases(r, zs, opt):
    """The delta-invariance suite with its laws on G and on H written out: the
    reference for the laws stated once per orientation."""
    for hs in zs.h_simples:
        r.eq(zs.act("rr", hs, zs.delta_g), zs.delta_g, "rr-fixes-deltaG", hs)
        r.eq(zs.act("ll", zs.delta_g, hs), zs.delta_g, "ll-fixes-deltaG", hs)
    for gs in zs.g_simples:
        r.eq(zs.act("rl", zs.delta_h, gs), zs.delta_h, "rl-fixes-deltaH", gs)
        r.eq(zs.act("lr", gs, zs.delta_h), zs.delta_h, "lr-fixes-deltaH", gs)


def complement_action_by_cases(r, zs, opt):
    """The complement-action suite with its compG and compH laws written out:
    the reference for the laws stated once per orientation."""
    g = zs.germ
    G, H = zs.g_simples, zs.h_simples
    for hs in H:
        for gs in G:
            r.eq(zs.comp_g(zs.act("rr", hs, gs)),
                 zs.act("rr", zs.act("rl", hs, gs), zs.comp_g(gs)), "compG-rr", hs, gs)
            r.eq(zs.comp_g(zs.act("ll", gs, hs)),
                 zs.act("rr-inv", hs, zs.comp_g(gs)), "compG-ll", gs, hs)
            r.eq(zs.comp_h(zs.act("lr", gs, hs)),
                 zs.act("lr", zs.act("ll", gs, hs), zs.comp_h(hs)), "compH-lr", gs, hs)
            r.eq(zs.comp_h(zs.act("rl", hs, gs)),
                 zs.act("lr-inv", gs, zs.comp_h(hs)), "compH-rl", hs, gs)


def complement_transport_by_cases(r, zs, opt):
    """The complement-transport laws written out, H acting on G-complements
    and then G on H-complements: the reference for the law stated once per
    orientation, case by case in the suite's order."""
    g = zs.germ
    G, H = zs.g_simples, zs.h_simples
    for hs in H:
        for g1 in G:
            for g2 in G:
                r.eq(zs.act("rr", hs, g.lcomp(g1, g2)),
                     g.lcomp(zs.act("ll-inv", g1, hs),
                             zs.act("rr", zs.act("rl-inv", hs, g1), g2)),
                     "transport-fwd", hs, g1, g2)
                r.eq(zs.act("rr-inv", hs, g.lcomp(g1, g2)),
                     g.lcomp(zs.act("ll", g1, hs),
                             zs.act("rr-inv", zs.act("lr", g1, hs), g2)),
                     "transport-inv", hs, g1, g2)
    for gs in G:
        for h1 in H:
            for h2 in H:
                r.eq(zs.act("lr", gs, g.lcomp(h1, h2)),
                     g.lcomp(zs.act("rl-inv", h1, gs),
                             zs.act("lr", zs.act("ll-inv", gs, h1), h2)),
                     "transport-fwd", gs, h1, h2)
                r.eq(zs.act("lr-inv", gs, g.lcomp(h1, h2)),
                     g.lcomp(zs.act("rl", h1, gs),
                             zs.act("lr-inv", zs.act("rr", h1, gs), h2)),
                     "transport-inv", gs, h1, h2)


def order_isomorphism_by_cases(r, zs, opt):
    """The order-isomorphism suite one zs.steps read and one divisibility test
    per case: the reference for its rows of divisibility bits."""
    from garside.suites import _orientations

    g = zs.germ
    for actors, acted, _, (a, _, _, d, *_) in _orientations(zs):
        laws = (a, "prefix", g.left_divides), (d, "suffix", g.right_divides)
        for c in actors:
            for x in acted:
                for y in acted:
                    for name, order, divides in laws:
                        step = zs.steps[name][c]  # step[x][0] is the action of c on x
                        r.check(divides(x, y) == divides(step[x][0], step[y][0]),
                                lambda: f"{name} not a {order} iso at "
                                        f"({g.names[c]}; {g.names[x]}, {g.names[y]})")


# -- acceptors, one liveness read per pair of letters ---------------------------------

def build_from_liveness_by_pairs(letters, names, live):
    """The acceptor in which letter y may follow letter x iff live(x, y),
    read for every pair of letters with no rows shared: the reference for
    the row builders of the automata module."""
    from garside import NFAutomaton

    dead = len(letters) + 1
    rows = [tuple(range(1, dead))]  # start: every letter is live
    rows += [tuple(t if live(x, y) else dead for t, y in enumerate(letters, 1))
             for x in letters]
    rows.append((dead,) * len(letters))
    return NFAutomaton(tuple(letters), tuple(names), tuple(rows))


def live_in(a, unit):
    """Whether simple y may follow simple x, read off the acceptor a.  The
    unit stands for an empty factor: anything may precede it, and only the
    unit may follow it."""
    def live(x, y):
        if x == unit:
            return y == unit
        return y == unit or a.step(a.step(0, x), y) != a.dead
    return live


def translate_pair_to_product_by_letters(zs, a_g, a_h):
    """translate_pair_to_product reading live(k1, k2) for every pair of
    letters, with no rows shared by key: the reference for the keyed one."""
    g = zs.germ
    unit = g.unit
    pair_of = {}
    for gs in (unit,) + a_g.letters:
        for hs in (unit,) + a_h.letters:
            if gs != unit or hs != unit:
                k = g.product(gs, zs.act("lr-inv", gs, hs))  # the join, factor-side
                assert k is not None
                pair_of[k] = (gs, hs)
    letters = tuple(sorted(pair_of))
    g_live, h_live = live_in(a_g, unit), live_in(a_h, unit)

    def live(k1, k2):
        g1, h1 = pair_of[k1]
        g2, h2 = pair_of[k2]
        return (g_live(zs.act("rr-inv", h1, g1), g2)
                and h_live(zs.act("lr-inv", g1, h1), h2))

    return build_from_liveness_by_pairs(letters, tuple(g.names[s] for s in letters), live)


# -- factor membership of elements -----------------------------------------------------

def element_in_g(zs, w) -> bool:
    """Whether the element w lies in G: no Delta power and G-simple factors."""
    return w.deltas == 0 and all(zs.member_g(f) for f in w.factors)


def element_in_h(zs, w) -> bool:
    return w.deltas == 0 and all(zs.member_h(f) for f in w.factors)


# -- factor closure by products of elements -------------------------------------------

def factor_closure_by_pairs(r, zs, opt):
    """A product landing in a factor forces both terms into that factor."""
    from garside import element

    g = zs.germ
    elems = list(elements_by_levels(g, opt.max_len))
    for x in elems:
        for y in elems:
            xy = element.multiply(g, x, y)
            if element_in_g(zs, xy):
                r.check(element_in_g(zs, x) and element_in_g(zs, y),
                        lambda x=x, y=y: f"G-closure fails at {r._show(x)}, {r._show(y)}")
            if element_in_h(zs, xy):
                r.check(element_in_h(zs, x) and element_in_h(zs, y),
                        lambda x=x, y=y: f"H-closure fails at {r._show(x)}, {r._show(y)}")


# -- decomposition uniqueness by products of elements ---------------------------------

def decomposition_uniqueness_by_pairs(r, zs, opt):
    """Every element up to opt.max_len atoms has exactly one GH- and one
    HG-factorisation among the products of G- and H-elements, and the two
    peels multiply back to it."""
    from garside import element, zappa_szep

    g = zs.germ
    elems = list(elements_by_levels(g, opt.max_len))
    g_elems = [x for x in elems if element_in_g(zs, x)]
    h_elems = [x for x in elems if element_in_h(zs, x)]
    gh_count = {}
    hg_count = {}
    for ge in g_elems:
        for he in h_elems:
            k = element.multiply(g, ge, he)
            if element.atom_length(g, k) <= opt.max_len:
                gh_count[k] = gh_count.get(k, 0) + 1
            k2 = element.multiply(g, he, ge)
            if element.atom_length(g, k2) <= opt.max_len:
                hg_count[k2] = hg_count.get(k2, 0) + 1
    for x in elems:
        r.check(gh_count.get(x, 0) == 1,
                lambda x=x: f"{r._show(x)} has {gh_count.get(x, 0)} GH-factorisations")
        r.check(hg_count.get(x, 0) == 1,
                lambda x=x: f"{r._show(x)} has {hg_count.get(x, 0)} HG-factorisations")
        gpart, hpart = zappa_szep.gh_decompose(zs, x)
        r.eq(element.multiply(g, gpart, hpart), x, "gh-recompose", x)
        hpart2, gpart2 = zappa_szep.hg_decompose(zs, x)
        r.eq(element.multiply(g, hpart2, gpart2), x, "hg-recompose", x)


# -- the --germ spec, split by trying every comma ---------------------------------------

def germ_spec_by_splits(text: str):
    """GermSpec.parse by its rule as stated: a product splits at the first
    comma where both halves parse, each half parsed afresh."""
    from garside.builtins import GermSpec

    if text == "wreath":
        return GermSpec("wreath", ())
    for family in ("braid", "abelian"):
        if text.startswith(family + ":"):
            try:
                return GermSpec(family, (int(text[len(family) + 1:]),))
            except ValueError:
                raise ValueError(f"bad integer in germ spec {text!r}") from None
    if text.startswith("file:"):
        return GermSpec("file", (text[len("file:"):],))
    if text.startswith("prod:"):
        rest = text[len("prod:"):]
        for i, ch in enumerate(rest):
            if ch != ",":
                continue
            try:
                left = germ_spec_by_splits(rest[:i])
                right = germ_spec_by_splits(rest[i + 1:])
            except ValueError:
                continue
            return GermSpec("prod", (left, right))
        raise ValueError(f"cannot split product spec {text!r}")
    raise ValueError(f"unknown germ spec {text!r}")


# -- germ validation, every table scanned in full ---------------------------------

def validate_germ_by_scans(g):
    """validate_germ as it was before its row-at-a-time checks: associativity
    and the lattice axioms scanned triple by triple and pair by pair, with
    every product read through g.product and every join looked up,
    cancellativity scanned row by row and column by column, and the suffix
    side of balanced-delta read from the opposite germ's divisors of delta."""
    from garside import germ

    op = g.opposite()
    checks = (("identity", germ._check_identity(g)), ("associativity", _associativity_by_triples(g)),
              ("cancellativity", _cancellativity_by_scans(g)),
              ("complements", germ._check_complements(g)), ("balanced-delta", _balanced_by_divisors(g, op)),
              ("lattice", _lattice_by_pairs(g, op)), ("atoms", germ._check_atoms(g)))
    return germ.ValidationReport([germ.CheckResult(axiom, *result) for axiom, result in checks])


def _balanced_by_divisors(g, op):
    for h, side in ((g, "prefix"), (op, "suffix")):
        if h.ldiv[g.delta] != (1 << len(g)) - 1:
            missing = next(s for s in range(len(g)) if not (h.ldiv[g.delta] >> s) & 1)
            return False, f"{g.names[missing]} is not a {side} of delta"
    return True, None


def _associativity_by_triples(g):
    nm = g.names
    for s, row_s in enumerate(g.product_rows):
        for t, st in row_s.items():
            for u, st_u in g.product_rows[st].items():
                tu = g.product(t, u)
                if tu is None:
                    continue
                s_tu = g.product(s, tu)
                if s_tu is None:
                    return False, f"({nm[s]}.{nm[t]}).{nm[u]} defined but {nm[s]}.({nm[t]}.{nm[u]}) is not"
                if s_tu != st_u:
                    return False, f"({nm[s]}.{nm[t]}).{nm[u]} != {nm[s]}.({nm[t]}.{nm[u]})"
    cols = [[] for _ in range(len(g))]
    for s, row_s in enumerate(g.product_rows):
        for v, sv in row_s.items():
            cols[v].append((s, sv))
    for t, row_t in enumerate(g.product_rows):
        for u, tu in row_t.items():
            for s, s_tu in cols[tu]:
                st = g.product(s, t)
                if st is None:
                    continue
                if g.product(st, u) != s_tu:
                    return False, f"{nm[s]}.({nm[t]}.{nm[u]}) defined but disagrees with ({nm[s]}.{nm[t]}).{nm[u]}"
    return True, None


def _cancellativity_by_scans(g):
    nm = g.names
    for s, row in enumerate(g.product_rows):
        seen = {}
        for t, u in row.items():
            if u in seen:
                return False, f"{nm[s]}.{nm[seen[u]]} = {nm[s]}.{nm[t]} = {nm[u]}"
            seen[u] = t
    cols = [{} for _ in range(len(g))]
    for t, row in enumerate(g.product_rows):
        for s, u in row.items():
            if u in cols[s]:
                return False, f"{nm[cols[s][u]]}.{nm[s]} = {nm[t]}.{nm[s]} = {nm[u]}"
            cols[s][u] = t
    return True, None


def is_lattice_by_meets(h, top):
    """germ._is_lattice before its lower-cover test: the order tests, then a
    meet for every pair of simples, one row of mask intersections at a time."""
    ld, lu, n = h.ldiv, h.lupper, len(h)
    return (all(ld[t] & lu[t] == 1 << t for t in range(n)) and ld[top] == (1 << n) - 1
            and not any(ld[s] & ~ld[v] for s, row in enumerate(h.product_rows) for v in row.values())
            and all(h._by_ldiv.keys() >= {m & x for x in ld[s:]} for s, m in enumerate(ld)))


def _lattice_by_pairs(g, op):
    from garside.germ import _bits

    nm = g.names
    n = len(g)
    for s in range(n):
        if not (g.ldiv[s] >> s) & 1 or not (op.ldiv[s] >> s) & 1:
            return False, f"divisibility is not reflexive at {nm[s]}"
    sides = ((g, "prefix"), (op, "suffix"))
    for t in range(n):
        for h, side in sides:
            for s in _bits(h.ldiv[t]):
                if s != t and (h.ldiv[s] >> t) & 1:
                    return False, f"{side} order not antisymmetric: {nm[s]}, {nm[t]}"
                if h.ldiv[s] & h.ldiv[t] != h.ldiv[s]:
                    return False, f"{side} order not transitive below {nm[t]} at {nm[s]}"
    for s in range(n):
        for t in range(s, n):
            for h, side in sides:
                if h.ldiv[s] & h.ldiv[t] not in h._by_ldiv:
                    return False, f"{nm[s]} and {nm[t]} have no {side} meet"
                if h.lupper[s] & h.lupper[t] not in h._by_lupper:
                    return False, f"{nm[s]} and {nm[t]} have no {side} join"
    return True, None
