"""
builtins: known-correct germ constructors, used both as fixtures and as
CLI entry points (--germ braid:4, abelian:3, wreath, prod:...,..., file:...).

braid_germ models simples as permutations with products defined when
inversion counts add, and finds them along the covers of the weak order
instead of trying every pair; free_abelian_germ uses subsets with
disjoint-union products; wreath_example_germ is the three-generator monoid
whose c swaps the two commuting generators.  direct_product_germ pairs two
germs componentwise, row by row, and divisor_germ cuts the divisor germ of
an arbitrary balanced element out of an ambient germ (failing with a
witness when the element is not balanced).
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass

from . import element
from .element import NormalWord
from .germ import (CheckResult, Germ, GermValidationError,
                   ValidationReport, make_germ, parse_germ)

BRAID_MAX = 7
ABELIAN_MAX = 10
MAX_SIMPLES = 5040  # braid:7; a larger prod: spec is refused unbuilt


def braid_germ(n: int) -> Germ:
    """
    The braid monoid on n strands: simples are the permutations of n
    points, in lexicographic order, the product of two is defined when
    their inversion counts add, and Delta is the order-reversing
    permutation.

    Products are found along the covers p < p.s_k of the weak (prefix)
    order: the k with p[k] < p[k+1], where p.s_k swaps those two positions.
    For a reduced q = s_k.q', p.q is defined exactly when p.s_k covers p
    and (p.s_k).q' is defined, and then p.q = (p.s_k).q'.  So row p is
    1 -> p together with s_k.q' -> (p.s_k).q' over the covers of p and the
    row of p.s_k.  p.s_k comes after p in lexicographic order, so the rows
    are filled from the last index, Delta, down, and each product is
    visited once per cover of p instead of trying all n!^2 pairs.
    """
    if not 2 <= n <= BRAID_MAX:
        raise ValueError(f"braid_germ expects 2 <= n <= {BRAID_MAX}")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    names = ["1"] + ["".join(str(i + 1) for i in p) for p in perms[1:]]
    # up[i]: (k, index of p.s_k) for each cover of p = perms[i];
    # left[k][j]: index of s_k.q for q = perms[j], its values k, k+1 swapped
    up = [[(k, index[p[:k] + (p[k + 1], p[k]) + p[k + 2:]])
           for k in range(n - 1) if p[k] < p[k + 1]] for p in perms]
    left = []
    for k in range(n - 1):
        swap = list(range(n))
        swap[k], swap[k + 1] = k + 1, k
        left.append([index[tuple(swap[v] for v in q)] for q in perms])
    rows: list[dict[int, int]] = [{} for _ in perms]
    for i in reversed(range(len(perms))):
        row = {0: i}
        for k, j in up[i]:
            lk = left[k]
            for q, v in rows[j].items():
                row[lk[q]] = v
        rows[i] = dict(sorted(row.items()))
    return Germ(tuple(names), len(perms) - 1, tuple(rows))


def free_abelian_germ(k: int) -> Germ:
    """
    The free abelian monoid of rank k: simples are the subsets of the k
    generators, products are unions of disjoint subsets, Delta is the full
    set.  k = 0 gives the trivial germ.
    """
    if not 0 <= k <= ABELIAN_MAX:
        raise ValueError(f"free_abelian_germ expects 0 <= k <= {ABELIAN_MAX}")

    n = 1 << k
    names = ["".join(f"e{i + 1}" for i in range(k) if (m >> i) & 1) or "1" for m in range(n)]
    rows = [{t: s | t for t in range(n) if s & t == 0} for s in range(n)]
    return Germ(tuple(names), n - 1, tuple(rows))


def wreath_example_germ() -> Germ:
    """
    The eight-simple germ of the monoid generated by a, b, c subject to
    ab = ba, ac = cb, bc = ca: two commuting generators swapped by a third.
    Elements are modelled as ((x, y), e) with coordinates capped at 1.
    """
    data = {
        "1": ((0, 0), 0), "a": ((1, 0), 0), "b": ((0, 1), 0), "c": ((0, 0), 1),
        "ab": ((1, 1), 0), "ac": ((1, 0), 1), "bc": ((0, 1), 1), "abc": ((1, 1), 1),
    }
    names = list(data)
    rows_by_name = []
    for sn, ((x, y), e) in data.items():
        for tn, ((p, q), f) in data.items():
            if e:
                p, q = q, p
            nx, ny, ne = x + p, y + q, e + f
            if nx <= 1 and ny <= 1 and ne <= 1:
                un = next(nm for nm, v in data.items() if v == ((nx, ny), ne))
                if sn != "1" and tn != "1":
                    rows_by_name.append((sn, tn, un))
    return make_germ(names, "abc", rows_by_name)


def direct_product_germ(g1: Germ, g2: Germ) -> Germ:
    """
    The direct product: simples are pairs named "s*t", indexed s*|g2| + t,
    and products work componentwise, both defined or the pair product is
    undefined.  A row is the product of the two factor rows, each taken in
    ascending key order, so its own keys ascend.
    """
    n2 = len(g2)

    def name(s1: int, s2: int) -> str:
        if s1 == g1.unit and s2 == g2.unit:
            return "1"
        return f"{g1.names[s1]}*{g2.names[s2]}"

    names = [name(s1, s2) for s1 in range(len(g1)) for s2 in range(n2)]
    rows1 = [sorted(row.items()) for row in g1.product_rows]
    rows2 = [sorted(row.items()) for row in g2.product_rows]
    rows = [{t1 * n2 + t2: u1 * n2 + u2 for t1, u1 in r1 for t2, u2 in r2}
            for r1 in rows1 for r2 in rows2]
    return Germ(tuple(names), g1.delta * n2 + g2.delta, tuple(rows))


def divisor_germ(g: Germ, d: NormalWord) -> Germ:
    """
    The germ whose simples are the divisors of the element d in the monoid
    of g.  d must be balanced (same prefixes as suffixes); otherwise a
    GermValidationError with a witness element is raised.  The result is
    fully validated, so a non-lattice divisor set also fails loudly.
    """
    witness = element.balance_witness(g, d)
    if witness is not None:
        report = ValidationReport([CheckResult(
            "balanced-delta", False,
            f"element {element.format_nf(g, witness)} divides "
            f"{element.format_nf(g, d)} on one side only")])
        raise GermValidationError(report)
    divisors = sorted(element.left_divisor_set(g, d),
                      key=lambda w: (element.atom_length(g, w), w.deltas, w.factors))

    def name(w: NormalWord) -> str:
        if w == element.UNIT:
            return "1"
        return "_".join(g.names[s] for s in element.letters(g, w))

    names = [name(w) for w in divisors]
    index = {w: i for i, w in enumerate(divisors)}
    div_set = set(divisors)
    triples = []
    for x in divisors:
        for y in divisors:
            z = element.multiply(g, x, y)
            if z in div_set and x != element.UNIT and y != element.UNIT:
                triples.append((name(x), name(y), names[index[z]]))
    return make_germ(names, names[index[d]], triples, validate=True)


# -- the CLI germ specification ------------------------------------------------

@dataclass(frozen=True)
class GermSpec:
    """A parsed --germ argument: family tag plus parameters."""
    family: str
    params: tuple

    @staticmethod
    def parse(text: str) -> "GermSpec":
        """
        The spec of a --germ argument, in prefix notation.  Only a file:
        path may hold a comma, and a product splits at the first comma where
        both halves parse.  The descent over the comma-separated pieces
        tries more than one end only for a path, so a spec of builtins
        parses in time linear in its length.
        """
        pieces = text.split(",")
        memo: dict[tuple[int, int], dict[int, GermSpec]] = {}

        def ends(i: int, at: int) -> dict[int, GermSpec]:
            """Per last piece j, the spec from pieces[i][at:] through piece j."""
            if (i, at) not in memo:
                head, found = pieces[i][at:], {}
                if head.startswith("file:"):
                    for j in range(i, len(pieces)):
                        found[j] = _leaf(",".join([head, *pieces[i + 1:j + 1]]))
                elif head.startswith("prod:"):
                    lefts = ends(i, at + len("prod:"))
                    for c in sorted(c for c in lefts if c + 1 < len(pieces)):
                        for j, right in ends(c + 1, 0).items():
                            found.setdefault(j, GermSpec("prod", (lefts[c], right)))
                else:
                    with contextlib.suppress(ValueError):
                        found[i] = _leaf(head)
                memo[i, at] = found
            return memo[i, at]

        try:
            spec = ends(0, 0).get(len(pieces) - 1)
        except RecursionError:
            raise ValueError("germ spec nested too deeply") from None
        if spec is None and text.startswith("prod:"):
            raise ValueError(f"cannot split product spec {text!r}")
        return spec or _leaf(text)  # a leaf that does not parse raises its own error

    def size(self) -> int | None:
        """The number of simples build() gives; None for a file or a parameter it refuses."""
        if self.family == "prod":
            left, right = (spec.size() for spec in self.params)
            return left * right if left and right else None
        if self.family == "braid" and 2 <= self.params[0] <= BRAID_MAX:
            return math.factorial(self.params[0])
        if self.family == "abelian" and 0 <= self.params[0] <= ABELIAN_MAX:
            return 1 << self.params[0]
        return 8 if self.family == "wreath" else None

    def build(self) -> Germ:
        if self.family == "wreath":
            return wreath_example_germ()
        if self.family == "braid":
            return braid_germ(self.params[0])
        if self.family == "abelian":
            return free_abelian_germ(self.params[0])
        if self.family == "prod":
            # a part of unknown size (a file) is built first, so that the
            # limit holds before the other part is built
            parts = [spec.build() if spec.size() is None else spec for spec in self.params]
            size = math.prod(len(p) if isinstance(p, Germ) else p.size() for p in parts)
            if size > MAX_SIMPLES:
                raise ValueError(f"a prod: germ of {size} simples is above the "
                                 f"limit of {MAX_SIMPLES} (braid:{BRAID_MAX})")
            return direct_product_germ(*(p if isinstance(p, Germ) else p.build() for p in parts))
        if self.family == "file":
            with open(self.params[0], encoding="utf-8") as fh:
                return parse_germ(fh.read())
        raise ValueError(f"unknown germ family {self.family!r}")


def _leaf(text: str) -> GermSpec:
    """A spec other than prod:; only a file: path may hold a comma."""
    family, colon, param = text.partition(":")
    if text == "wreath" or family == "file" and colon:
        return GermSpec(family, (param,) if colon else ())
    if family in ("braid", "abelian") and colon:
        try:
            return GermSpec(family, (int(param),))
        except ValueError:
            raise ValueError(f"bad integer in germ spec {text!r}") from None
    raise ValueError(
        f"unknown germ spec {text!r} (expected wreath, braid:N, abelian:K, "
        "prod:SPEC,SPEC or file:PATH)")


def germ_from_spec(text: str) -> Germ:
    """Build a germ from a spec string like braid:4 or prod:braid:3,abelian:1."""
    try:
        return GermSpec.parse(text).build()
    except RecursionError:  # size() and build() recurse deeper than parse()
        raise ValueError("germ spec nested too deeply") from None
