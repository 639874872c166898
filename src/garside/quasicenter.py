"""
quasicenter: least quasi-central multiples of simples, atom classes and
Delta-purity.

For a simple x, the quasi-central closure delta_of_simple(x) is the join
of the closure of {x} under the maps y -> a\\y over all atoms a; it stays
within the simples.  The partition of atoms by the value of this closure
decides whether the monoid decomposes (Picantin, The center of thin
Gaussian groups, J. Algebra 245, 2001, computes quasi-centres the same
way).  Closures come from one memoised walk of the graph y -> a\\y per
germ, in strongly-connected-component order, lazily from the simples
asked for: all n of them cost n.|atoms| lcomp reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator

from . import element
from .germ import Germ, GermError


@dataclass(frozen=True)
class AtomClassPartition:
    """Atoms grouped by their quasi-central closure, with its value."""
    classes: tuple[tuple[int, ...], ...]
    class_delta: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.classes)


def delta_of_simple(g: Germ, s: int) -> int:
    """
    The least quasi-central element above s, as a simple.  Memoised in g:
    a query walks x -> a\\x from s and keeps every closure it completes, so
    each simple's atom successors are read at most once per germ.
    """
    closures = g._memo.setdefault("qz_delta", {})
    if s not in closures:
        _walk_closures(g, s, closures)
    return closures[s]


def _walk_closures(g: Germ, root: int, closures: dict[int, int]) -> None:
    """
    Tarjan's walk of the strongly connected components of x -> a\\x from
    root.  A component is finished after every component it reaches, and
    the closure of each of its members is D = the join of the members and
    of the closures of the components they reach, D(x) = x v V_a D(a\\x).
    """
    number: dict[int, int] = {}  # visit order of the simples on the walk
    low: dict[int, int] = {}  # the least number each one reaches
    succ: dict[int, list[int]] = {}
    unfinished: list[int] = []  # visited simples of components not yet closed
    path: list[tuple[int, Iterator[int], int]] = []  # with the place in unfinished

    def visit(x: int) -> None:
        number[x] = low[x] = len(number)
        succ[x] = [g.lcomp(a, x) for a in g.atoms]
        path.append((x, iter(succ[x]), len(unfinished)))
        unfinished.append(x)

    visit(root)
    while path:
        x, todo, i = path[-1]
        for y in todo:
            if y not in closures:
                if y not in number:
                    visit(y)
                    break
                low[x] = min(low[x], number[y])
        else:
            path.pop()
            if path:
                low[path[-1][0]] = min(low[path[-1][0]], low[x])
            if low[x] == number[x]:
                component = unfinished[i:]
                del unfinished[i:]
                d = reduce(g.join, {closures[y] for z in component for y in succ[z]
                                    if y in closures} | set(component), g.unit)
                closures.update(dict.fromkeys(component, d))


def _compute_delta(g: Germ, s: int) -> int:
    """The closure of s alone, a set closed under y -> a\\y, so whatever the atom
    order: the quasicenter suite's cross-check of the memoised walk."""
    seen, frontier = {s}, [s]
    while frontier:
        x = frontier.pop()
        for a in g.atoms:
            y = g.lcomp(a, x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return reduce(g.join, seen, g.unit)


def is_delta_pure(g: Germ) -> bool:
    """Whether all atoms share the same quasi-central closure: one atom class."""
    if not g.atoms:
        raise ValueError("delta-purity needs at least one atom")
    return len(atom_classes(g)) == 1


def atom_classes(g: Germ) -> AtomClassPartition:
    """
    Partition the atoms by equality of their quasi-central closures and
    check that closures of distinct classes meet trivially.
    """
    by_delta: dict[int, list[int]] = {}
    for a in g.atoms:
        by_delta.setdefault(delta_of_simple(g, a), []).append(a)
    blocks = sorted(by_delta.values(), key=lambda block: block[0])
    deltas = tuple(delta_of_simple(g, block[0]) for block in blocks)
    for i in range(len(deltas)):
        for j in range(i + 1, len(deltas)):
            if g.meet(deltas[i], deltas[j]) != g.unit:
                raise GermError(
                    "quasi-central closures of distinct atom classes "
                    f"({g.names[deltas[i]]}, {g.names[deltas[j]]}) have a "
                    "non-trivial meet")
    return AtomClassPartition(tuple(tuple(b) for b in blocks), deltas)


def quasi_center_basis(g: Germ) -> tuple[int, ...]:
    """
    The distinct class values, checked to commute pairwise and to permute
    the atoms (a.d = d.a' for some atom a').
    """
    part = atom_classes(g)
    basis = part.class_delta
    for i, d1 in enumerate(basis):
        for d2 in basis[i + 1:]:
            e1 = element.simple(g, d1)
            e2 = element.simple(g, d2)
            if element.multiply(g, e1, e2) != element.multiply(g, e2, e1):
                raise GermError(
                    f"basis elements {g.names[d1]} and {g.names[d2]} do not commute")
    for d in basis:
        de = element.simple(g, d)
        for a in g.atoms:
            ad = element.multiply(g, element.simple(g, a), de)
            if not any(ad == element.multiply(g, de, element.simple(g, b))
                       for b in g.atoms):
                raise GermError(
                    f"{g.names[d]} is not quasi-central: {g.names[a]}.{g.names[d]} "
                    "is not delta times an atom")
    return basis
