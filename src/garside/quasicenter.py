"""
quasicenter: least quasi-central multiples of simples, atom classes and
Delta-purity.

For a simple x, the quasi-central closure D(x) = delta_of_simple(x) is the
join of the closure of {x} under the maps y -> a\\y over all atoms a; it
stays within the simples.  The partition of atoms by the value of this
closure decides whether the monoid decomposes, and the quasi-central
simples are exactly the joins of class closures (Picantin, The center of
thin Gaussian groups, J. Algebra 245, 2001).  So only the atoms' closures
are searched, one walk each, and every other closure is read off the
classes: D(x) is the join of the class closures of the classes that x
cannot do without, one _atom_lengths pass per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from . import element
from .germ import Germ, GermError, _atom_lengths


@dataclass(frozen=True)
class AtomClassPartition:
    """Atoms grouped by their quasi-central closure, with its value."""
    classes: tuple[tuple[int, ...], ...]
    class_delta: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.classes)


def delta_of_simple(g: Germ, s: int) -> int:
    """
    The least quasi-central element above s, as a simple: F(s), the join of
    the class closures of the classes i without whose atoms s cannot be
    stripped to the unit.  F(s) = D(s), the closure's definition:
    - s lies in the parabolic generated by the classes it needs (build
      checks that a union of classes generates the divisors of the join of
      their closures), so s <= F(s);
    - that down-set is closed under y -> a\\y: for an atom a of the
      parabolic by lcm-closure, for any other because a\\y is then the action
      of a on y, which the Zappa-Szep decomposition keeps in the parabolic.
      So D(s) <= F(s);
    - D(s) is quasi-central and above s, so it is the join of the closures
      of some classes, whose atoms generate s: every class that s needs is
      among them, and D(s) >= F(s).
    All n are computed at the first query and memoised in g.  An id outside
    0..n-1 is refused with KeyError, as the lattice tables refuse it.
    """
    closures = g._memo.get("qz_delta")
    if closures is None:
        closures = [g.unit] * len(g)
        part = atom_classes(g)
        for block, d in zip(part.classes, part.class_delta):
            lens = _atom_lengths(g, [a for a in g.atoms if a not in block])
            closures = [c if k >= 0 else g.join(c, d) for c, k in zip(closures, lens)]
        g._memo["qz_delta"] = closures
    if not 0 <= s < len(closures):
        raise KeyError(s)
    return closures[s]


def _compute_delta(g: Germ, s: int) -> int:
    """The closure of s alone, a set closed under y -> a\\y, so whatever the atom
    order: the definition, which atom_classes reads for each atom."""
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
    Partition the atoms by equality of their quasi-central closures, one
    walk per atom, and check that closures of distinct classes meet
    trivially.  Memoised in g once it passes.
    """
    if "atom_classes" in g._memo:
        return g._memo["atom_classes"]
    by_delta: dict[int, list[int]] = {}
    for a in g.atoms:
        by_delta.setdefault(_compute_delta(g, a), []).append(a)
    deltas = tuple(by_delta)
    for i in range(len(deltas)):
        for j in range(i + 1, len(deltas)):
            if g.meet(deltas[i], deltas[j]) != g.unit:
                raise GermError(
                    "quasi-central closures of distinct atom classes "
                    f"({g.names[deltas[i]]}, {g.names[deltas[j]]}) have a "
                    "non-trivial meet")
    part = AtomClassPartition(tuple(map(tuple, by_delta.values())), deltas)
    g._memo["atom_classes"] = part
    return part


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
