"""
zappa_szep: two-sided decompositions K = G |><| H of the monoid of a germ.

A bipartition of the atoms into unions of quasi-central classes induces
two parabolic submonoids G and H such that every element factors uniquely
as g.h and as h.g.  Rewriting one factorisation into the other defines
four actions on simples:

    h . g = (h |> g)(h <| g)        g . h = (g |>> h)(g <<| h)

named rr/rl (h acting on g from the left / the companion) and lr/ll; these
and their inverses are read as zs.act(name, first, second).  build()
stores the two factorisation maps gh_pair and hg_pair and derives from
them one step table per action, a letter-to-letter transducer step
(carry, letter) -> (output, next carry):

    rr[h][g] = (h |> g, h <| g) = gh_pair[h.g]      rl[g][h] = (h <| g, h |> g)
    lr[g][h] = (g |>> h, g <<| h) = hg_pair[g.h]    ll[h][g] = (g <<| h, g |>> h)

An inverse table is the forward one with each row inverted on its output,
e.g. rr-inv[h][g] = (h^-1 |> g, g^-1 |>> h).  An action on simples is one
read of its table; _carry takes a letter through a word by the same
steps, for act_word, for the GH- (HG-) decomposition by rr (lr) and for
normal_forms.merge_nf by ll.

build() re-verifies every structural invariant (parabolicity, unique
decompositions of all simples, and bijectivity of the actions, which is
the inversion of the step tables) instead of trusting the classification;
a failure raises DecompositionFailure with a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Sequence

from . import element, quasicenter
from .element import NormalWord
from .germ import Germ, _atom_lengths


class ZSError(Exception):
    pass


class NotAUnionOfClasses(ZSError):
    """The requested atom bipartition does not respect the class partition."""


class DecompositionFailure(ZSError):
    """A structural invariant failed while building or using a decomposition."""


ACTIONS = ("rr", "rl", "lr", "ll", "rr-inv", "rl-inv", "lr-inv", "ll-inv")  # build's steps
_UNKNOWN_ACTION = "unknown action {!r}: expected one of " + ", ".join(ACTIONS)
Step = dict[int, dict[int, tuple[int, int]]]  # carry -> letter -> (output letter, next carry)


@dataclass(eq=False)
class ZSStructure:
    germ: Germ
    left_atoms: tuple[int, ...]           # atom set generating G
    right_atoms: tuple[int, ...]          # atom set generating H
    g_simples: tuple[int, ...]            # simples lying in G
    h_simples: tuple[int, ...]            # simples lying in H
    delta_g: int                          # join of g_simples; product with delta_h is delta
    delta_h: int
    gh_pair: list[tuple[int, int]]        # k -> the unique (g, h) with g.h = k; (1, k) iff k in H
    hg_pair: list[tuple[int, int]]        # k -> the unique (h, g) with h.g = k; (1, k) iff k in G
    steps: dict[str, Step]                # action name -> its step table

    # -- membership ------------------------------------------------------

    def member_g(self, s: int) -> bool:
        """A simple lies in G exactly when it divides delta_G."""
        return self.germ.left_divides(s, self.delta_g)

    def member_h(self, s: int) -> bool:
        return self.germ.left_divides(s, self.delta_h)

    def comp_g(self, s: int) -> int:
        """Complement within the factor G: the simple u with s.u = delta_G."""
        return self.germ.lcomp(s, self.delta_g)

    def comp_h(self, s: int) -> int:
        return self.germ.lcomp(s, self.delta_h)

    # -- the four actions and their inverses, on simples ------------------

    def act(self, name: str, first: int, second: int) -> int:
        """
        The action `name`, one of ACTIONS, on simples: one read of its step
        table, with the arguments in the order of act_word.  The actor comes
        first for rr and lr (and their inverses) and second for rl and ll:
        act("rr", h, g) is h |> g, act("ll-inv", g, h) is g <<| h^-1.
        """
        try:
            if name[1] == "r":
                return self.steps[name][first][second][0]
            return self.steps[name][second][first][0]
        except (KeyError, IndexError):
            if name not in self.steps:
                raise ValueError(_UNKNOWN_ACTION.format(name)) from None
        g = self.germ
        want = "H-simple, G-simple" if name[0] == "r" else "G-simple, H-simple"
        raise ValueError("action argument outside its simple set: "
                         f"expected ({want}), got ({_quoted(g, first)}, {_quoted(g, second)})")


def build(g: Germ, left_atoms: Iterable[int]) -> ZSStructure:
    """
    Build and fully verify the decomposition induced by taking G to be
    generated by `left_atoms` (a non-empty proper union of atom classes)
    and H by the remaining atoms.
    """
    germ = g
    left = tuple(sorted(set(left_atoms)))
    part = quasicenter.atom_classes(germ)
    class_of = {a: i for i, block in enumerate(part.classes) for a in block}
    for a in left:
        if a not in class_of:
            raise NotAUnionOfClasses(f"{germ.names[a]} is not an atom")
    chosen = {class_of[a] for a in left}
    covered = tuple(sorted(a for i in chosen for a in part.classes[i]))
    if covered != left:
        raise NotAUnionOfClasses(
            "the left atom set must be a union of quasi-central atom classes; "
            f"classes: {[tuple(germ.names[a] for a in c) for c in part.classes]}")
    if not chosen or len(chosen) == len(part.classes):
        raise NotAUnionOfClasses(
            "the bipartition must be non-empty and proper on both sides")
    right = tuple(a for a in germ.atoms if a not in set(left))

    # A factor's delta is the join of its classes' closures, and its simples are
    # that delta's divisors.  Parabolicity: they are exactly the simples its atoms
    # strip down to the unit, whose join delta then is.
    delta_g, delta_h = (reduce(germ.join, (d for i, d in enumerate(part.class_delta)
                                           if (i in chosen) == in_g), germ.unit)
                        for in_g in (True, False))
    for delta, atoms, side in ((delta_g, left, "left"), (delta_h, right, "right")):
        if germ.left_divisors(delta) != [s for s, k in enumerate(_atom_lengths(germ, atoms))
                                         if k >= 0]:
            raise DecompositionFailure(
                f"divisors of {germ.names[delta]} are not the simples "
                f"generated by the {side} atoms")
    g_simples, h_simples = (tuple(germ.left_divisors(d)) for d in (delta_g, delta_h))

    if germ.product(delta_g, delta_h) != germ.delta or \
            germ.product(delta_h, delta_g) != germ.delta:
        raise DecompositionFailure(
            f"{germ.names[delta_g]}.{germ.names[delta_h]} is not delta")

    n = len(germ)
    nm = germ.names
    gh_pair: list = [None] * n
    hg_pair: list = [None] * n
    for gs in g_simples:
        for hs in h_simples:
            for pair, kind, a, b in ((gh_pair, "GH", gs, hs), (hg_pair, "HG", hs, gs)):
                k = germ.product(a, b)
                if k is None:
                    raise DecompositionFailure(f"{nm[a]}.{nm[b]} is not simple")
                if pair[k] is not None:
                    o = pair[k]
                    raise DecompositionFailure(
                        f"two {kind}-factorisations of {nm[k]}: "
                        f"({nm[o[0]]},{nm[o[1]]}) and ({nm[a]},{nm[b]})")
                pair[k] = (a, b)
    missing = [s for s in range(n) if gh_pair[s] is None or hg_pair[s] is None]
    if missing:
        raise DecompositionFailure(
            f"{nm[missing[0]]} has no factorisation over the bipartition")

    # The forward steps, then their inverses: inverting a row on its output
    # finds any collision, so a step table with an inverse is a bijection.
    rr = {hs: {gs: gh_pair[germ.product(hs, gs)] for gs in g_simples} for hs in h_simples}
    lr = {gs: {hs: hg_pair[germ.product(gs, hs)] for hs in h_simples} for gs in g_simples}
    steps = {"rr": rr, "rl": {gs: {hs: rr[hs][gs][::-1] for hs in h_simples} for gs in g_simples},
             "lr": lr, "ll": {hs: {gs: lr[gs][hs][::-1] for gs in g_simples} for hs in h_simples}}
    for name, fails in (("rr", "{} |> . is not a bijection of the G-simples"),
                        ("rl", ". <| {} is not a bijection of the H-simples"),
                        ("lr", "{} |>> . is not a bijection of the H-simples"),
                        ("ll", ". <<| {} is not a bijection of the G-simples")):
        steps[name + "-inv"] = inv = {}
        for c, row in steps[name].items():
            inv[c] = {y: (x, d) for x, (y, d) in row.items()}
            if len(inv[c]) != len(row):
                raise DecompositionFailure(fails.format(nm[c]))

    return ZSStructure(
        germ=germ, left_atoms=left, right_atoms=right,
        g_simples=g_simples, h_simples=h_simples,
        delta_g=delta_g, delta_h=delta_h,
        gh_pair=gh_pair, hg_pair=hg_pair, steps=steps,
    )


# -- element-level decompositions -------------------------------------------

def gh_decompose(zs: ZSStructure, x: NormalWord) -> tuple[NormalWord, NormalWord]:
    """
    The unique (g, h) with g.h = x, both as normal words of K.  Each letter a.b
    (gh_pair) of x, from the right, carries b through the G-word so far by rr; a is
    prepended to it and the last carry to the H-word.  It raises unless each step keeps
    the product, the G-word is normal every round, the H-word at the end, and g.h = x.
    """
    return _peel(zs, x, zs.gh_pair, zs.steps["rr"], "GH")


def hg_decompose(zs: ZSStructure, x: NormalWord) -> tuple[NormalWord, NormalWord]:
    """The unique (h, g) with h.g = x: the same peel over hg_pair and the lr steps."""
    return _peel(zs, x, zs.hg_pair, zs.steps["lr"], "HG")


def _peel(zs: ZSStructure, x: NormalWord, pair: list[tuple[int, int]], step: Step,
          kind: str) -> tuple[NormalWord, NormalWord]:
    g = zs.germ
    assert element.is_normal(g, x), "decomposition expects a normal word"
    first, rest = [], []  # rest: the carries, right to left
    for s in reversed(element.letters(g, x)):
        a, b = pair[s]
        first, c = _carry(step, b, first, g.product)
        if a != g.unit:
            first.insert(0, a)
        assert element._is_normal_word(g, first), "peeling produced a non-normal first factor"
        rest.append(c)
    rest = [c for c in reversed(rest) if c != g.unit]
    assert element._is_normal_word(g, rest), "peeling produced a non-normal second factor"
    # Neither factor contains delta, so both letter lists are normal words.
    lead, tail = NormalWord(0, tuple(first)), NormalWord(0, tuple(rest))
    if any(pair[s][0] != g.unit for s in rest) or element.multiply(g, lead, tail) != x:
        raise DecompositionFailure(f"{kind}-decomposition failed for {element.format_nf(g, x)}")
    return lead, tail


# -- actions on words --------------------------------------------------------
#
# A word acts one letter at a time, and a letter acts on a word by being
# carried through it: steps[name][carry][letter] gives the output letter
# and the next carry.  act_word takes its two words in the argument order
# of zs.act: (h-word, g-word) for rr and rl and their inverses, (g-word,
# h-word) for lr and ll and theirs.

def _carry(step: Step, c: int, word: Iterable[int],
           product: Callable[[int, int], int | None] | None = None) -> tuple[list[int], int]:
    """The output word and last carry of c carried through word; product checks c.x = y.d."""
    out = []
    for x in word:
        y, d = step[c][x]
        if product and product(c, x) != product(y, d):
            raise DecompositionFailure("a carry step does not keep the product")
        out.append(y)
        c = d
    return out, c


def _quoted(g: Germ, s: int) -> str:
    """The quoted name of simple s, or the raw id of an argument that is none."""
    return repr(g.names[s]) if 0 <= s < len(g) else f"simple id {s}"


def _check_words(zs: ZSStructure, sides: str, *words: Sequence[int]) -> None:
    for side, word in zip(sides, words):
        # the divisors of delta_G or delta_H; an id past the last simple is no bit
        mask = zs.germ.ldiv[zs.delta_g if side == "G" else zs.delta_h]
        for s in word:
            if s < 0 or not (mask >> s) & 1:
                raise ValueError(f"{_quoted(zs.germ, s)} is not a {side}-simple")


def act_word(zs: ZSStructure, name: str, first: Sequence[int],
             second: Sequence[int]) -> tuple[int, ...]:
    """
    The action `name`, one of ACTIONS, on words: act_word(zs, "rr", hw, gw)
    is (h-word) |> (g-word), act_word(zs, "ll-inv", gw, hw) is
    (g-word) <<| (h-word)^-1.  Each actor letter is carried through the
    acted word: rightward for rr and lr, whose actor word comes first,
    leftward for rl and ll.  A word acts from its letter nearest the acted
    word, and its inverse from the other.
    """
    step = zs.steps.get(name)
    if step is None:
        raise ValueError(_UNKNOWN_ACTION.format(name))
    _check_words(zs, "HG" if name[0] == "r" else "GH", first, second)
    rightward = name[1] == "r"
    actors, out = (first, second) if rightward else (second, first[::-1])
    if rightward != name.endswith("-inv"):
        actors = actors[::-1]
    for c in actors:
        out, _ = _carry(step, c, out)
    return tuple(out if rightward else out[::-1])
