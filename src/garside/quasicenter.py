"""
quasicenter: least quasi-central multiples of simples, atom classes and
Delta-purity.

For a simple x, the quasi-central closure delta_of_simple(x) is the join
of the closure of {x} under the maps y -> a\\y over all atoms a; it stays
within the simples.  The partition of atoms by the value of this closure
decides whether the monoid decomposes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import element
from .germ import Germ, GermError, _join_all


@dataclass(frozen=True)
class AtomClassPartition:
    """Atoms grouped by their quasi-central closure, with its value."""
    classes: tuple[tuple[int, ...], ...]
    class_delta: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.classes)


def delta_of_simple(g: Germ, s: int) -> int:
    """The least quasi-central element above s, as a simple; memoised in g."""
    closures = g._memo.setdefault("qz_delta", {})
    d = closures.get(s)
    if d is None:
        d = closures[s] = _compute_delta(g, s, g.atoms)
    return d


def _compute_delta(g: Germ, s: int, atom_order: tuple[int, ...]) -> int:
    seen = {s}
    frontier = [s]
    while frontier:
        x = frontier.pop()
        for a in atom_order:
            y = g.lcomp(a, x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return _join_all(g, seen)


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
