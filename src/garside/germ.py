"""
germ: finite Garside structures presented by their simple-element tables.

A germ is the complete combinatorial datum of a finite Garside structure: the set of
divisors of the Garside element Delta ("simples"), the partial product on simples
(defined exactly when the product of two simples is again a simple), the identity and
Delta.  Prefix divisibility, atoms and complements are derived at construction time.
Meets and joins in the prefix order live in one table per operation whose rows are
filled from the divisibility bitmasks the first time they are used, so every lattice
query is an O(1) array lookup.  Germ.lattice_row is the one checked read of a row of
meets, joins or left complements, whole or at some columns: a missing meet or join
raises the accessor's GermError.  Suffix queries read the same tables through the left
completion to delta (see Germ); validate alone builds the opposite germ, once per call.

Simples are identified by small integers.  Index 0 is always the identity, which must
be named "1".  Divisibility relations are kept as bitmasks over simple indices (one
Python int per simple), which keeps germs of a few thousand simples cheap.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, repeat
from operator import and_, itemgetter, or_
from typing import Iterable, Iterator, NoReturn, Sequence

# Characters that would collide with word syntax ('.'-words, '|'-normal
# forms, "D^k" prefixes) or the file format ('#' comments).
_FORBIDDEN_NAME_CHARS = set(".|#^")


class GermError(Exception):
    """Base class for germ construction and validation problems."""


class GermSyntaxError(GermError):
    """A germ file does not conform to the `germ v1` format."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class GermValidationError(GermError):
    """A structurally well-formed table violates a germ axiom."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        failed = ", ".join(c.axiom for c in report.checks if not c.passed)
        super().__init__(f"germ validation failed: {failed}\n{report}")


@dataclass
class CheckResult:
    axiom: str
    passed: bool
    witness: str | None = None  # human-readable counterexample on failure

    def __str__(self) -> str:
        if self.passed:
            return f"{self.axiom}: pass"
        return f"{self.axiom}: FAIL ({self.witness})"


@dataclass
class ValidationReport:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


class _LatticeRows(dict):
    """
    A meet or join table: row s lists, for every simple t, the simple whose
    mask is masks[s] & masks[t], or -1 if there is none.  A row is built in
    full on first access; building it twice gives an equal row, so a race
    between threads is harmless.  Rows are arrays of C ints, half the
    memory of lists of Python ints.  A key that is no simple is refused
    with KeyError, so a -1 entry read back as a row index fails loudly;
    Germ.lattice_row is the checked read of rows outside this module.
    Given no lookup, as for joins, the first row reverses the byte order of
    the masks and makes their lookup: an upper set holds delta, last in the
    builtins, so two unreversed ones AND to a wide int, slow to hash.
    """

    def __init__(self, masks: list[int], by_mask: dict[int, int] | None = None):
        super().__init__()
        self.masks = masks
        self.tables = None if by_mask is None else (masks, by_mask)

    def __missing__(self, s: int) -> array:
        if not 0 <= s < len(self.masks):
            raise KeyError(s)
        if self.tables is None:  # one assignment, so a racing thread sees none or both
            k = (len(self.masks) + 7) // 8
            masks = [int.from_bytes(m.to_bytes(k, "big"), "little") for m in self.masks]
            self.tables = masks, {m: i for i, m in enumerate(masks)}
        masks, by_mask = self.tables
        m = masks[s]
        row = self[s] = array("i", [by_mask.get(m & x, -1) for x in masks])
        return row


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def _gather(row, indices: Sequence[int]) -> list:
    """[row[i] for i in indices] in one call; itemgetter gives no tuple for one index."""
    return list(itemgetter(*indices)(row)) if len(indices) > 1 else [row[i] for i in indices]


class Germ:
    """
    A finite Garside structure.  Construct via parse_germ(), the builtins module, or
    make_germ(); the raw constructor expects the unit at index 0 and rows that already
    contain the implied unit products.

    Immutable after construction (by convention) apart from the lattice tables and the
    row inverses of the product, which are built on first use, idempotently; safe to
    share between threads.  The suffix accessors (right_divides, rmeet, rjoin, rcomp) read
    the prefix tables at the left completions s* (s*.s = delta): t is a suffix of u iff
    u* is a prefix of t*.  Their answers hold on germs that validate accepts, which alone
    builds the opposite germ.  Equality is identity; compare `names`, `delta` and
    `product_rows` directly for structural equality.
    """

    def __init__(self, names: tuple[str, ...], delta: int,
                 product_rows: tuple[dict[int, int], ...]):
        n = len(names)
        if n == 0 or names[0] != "1":
            raise GermError("the unit must be present and be index 0, named '1'")
        if not 0 <= delta < n:
            raise GermError("delta index out of range")
        self.names, self.unit, self.delta, self.product_rows = names, 0, delta, product_rows
        self.name_index: dict[str, int] = {nm: i for i, nm in enumerate(names)}

        # Divisibility bitmasks.  ldiv[t] holds s iff s.u = t for some u;
        # its transpose lupper[s] holds the products s.u.
        ldiv = [0] * n
        lupper = [0] * n
        for s, row in enumerate(product_rows):
            bit = 1 << s
            above = 0
            for u in row.values():
                ldiv[u] |= bit
                above |= 1 << u
            lupper[s] = above
        self.ldiv, self.lupper = ldiv, lupper
        self.atoms: tuple[int, ...] = tuple(s for s in range(1, n) if ldiv[s] == 1 | 1 << s)

        # Inverted product rows, _row_inv[s][v] = t with s.t = v, are built
        # on first use by _row_inverses().  Cancellativity makes them well
        # defined; validation flags germs where they are not.
        self._row_inv: list[dict[int, int]] | None = None

        self._comp, self._rcomp = comp, rcomp = [-1] * n, [-1] * n  # s.comp[s] = delta = rcomp[s].s
        for s, row in enumerate(product_rows):
            for t, v in row.items():
                if v == delta:
                    comp[s], rcomp[t] = t, s

        # A simple is pinned down by its divisor set, so meets and joins
        # are mask-intersection lookups.
        self._by_ldiv = {ldiv[s]: s for s in range(n)}
        self._by_lupper = {lupper[s]: s for s in range(n)}

        self.atom_len = _atom_lengths(self, self.atoms)

        self._memo: dict = {}  # cross-module caches (quasi-central closures etc.)

        self._meet = _LatticeRows(ldiv, self._by_ldiv)
        self._join = _LatticeRows(lupper)

    def _row_inverses(self) -> list[dict[int, int]]:
        """
        _row_inv[s][v] = t with s.t = v, built on first use.  Hot paths read
        `g._row_inv or g._row_inverses()`, which makes no call once it is built.
        """
        if self._row_inv is None:
            self._row_inv = [{v: t for t, v in row.items()} for row in self.product_rows]
        return self._row_inv

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"Germ({len(self.names)} simples, delta={self.names[self.delta]!r})"

    def simple(self, name: str) -> int:
        if name not in self.name_index:
            raise KeyError(f"unknown simple name {name!r}")
        return self.name_index[name]

    def product(self, s: int, t: int) -> int | None:
        """The product s.t if it is a simple, else None."""
        return self.product_rows[s].get(t)

    def proper_simples(self) -> tuple[int, ...]:
        return tuple(s for s in range(len(self.names))
                     if s != self.unit and s != self.delta)

    def is_atom(self, s: int) -> bool:
        return s in self.atoms

    # -- divisibility and the two lattice orders -------------------------

    def left_divides(self, s: int, t: int) -> bool:
        """s is a prefix of t: some u satisfies s.u = t."""
        return bool((self.ldiv[t] >> s) & 1)

    def right_divides(self, s: int, t: int) -> bool:
        """s is a suffix of t: t* is a prefix of s*, * the left completion."""
        return bool((self.ldiv[self.rcomplement(s)] >> self.rcomplement(t)) & 1)

    def left_divisors(self, t: int) -> list[int]:
        return list(_bits(self.ldiv[t]))

    def _not_a_lattice(self, kind: str, s: int, t: int) -> NoReturn:
        raise GermError(
            f"no {kind} of {self.names[s]!r} and {self.names[t]!r}: "
            "germ is not a lattice")

    def lattice_row(self, kind: str, s: int, at: Sequence[int] | None = None):
        """Row s of the meet or join table, read in place, or of s\\t ("lcomp"), a list
        read from s's join row and row inverse; or a list of its entries at the columns
        `at`.  The first missing meet or join read raises its accessor's GermError."""
        bound = "join" if kind == "lcomp" else kind
        table = getattr(self, "_" + bound)
        row = table[s] if at is None else _gather(table[s], at)
        if -1 in row:
            i = row.index(-1)
            self._not_a_lattice(bound, s, i if at is None else at[i])
        return row if kind == bound else _gather((self._row_inv or self._row_inverses())[s], row)

    # The accessors read one entry each: a row check would scan n.
    def meet(self, s: int, t: int) -> int:
        """Greatest common prefix of two simples."""
        r = self._meet[s][t]
        return r if r >= 0 else self._not_a_lattice("meet", s, t)

    def join(self, s: int, t: int) -> int:
        """Least common upper bound of two simples in the prefix order."""
        r = self._join[s][t]
        return r if r >= 0 else self._not_a_lattice("join", s, t)

    def _dual(self, kind: str, s: int, t: int) -> int:
        """rmeet or rjoin (kind): the complement of the prefix join or meet of s* and t*.
        A missing completion or entry raises kind's GermError: no -1 is read."""
        a, b = self._rcomp[s], self._rcomp[t]
        v = (self._join if kind == "rmeet" else self._meet)[a][b] if a >= 0 and b >= 0 else -1
        u = self._comp[v] if v >= 0 else -1
        return u if u >= 0 else self._not_a_lattice(kind, s, t)

    def rmeet(self, s: int, t: int) -> int:
        """Greatest common suffix: the complement of join(s*, t*), * the left completion."""
        return self._dual("rmeet", s, t)

    def rjoin(self, s: int, t: int) -> int:
        """Least common upper bound in the suffix order: the complement of meet(s*, t*)."""
        return self._dual("rjoin", s, t)

    def lcomp(self, s: int, t: int) -> int:
        """The left complement s\\t: the simple u with s.u = s v t."""
        v = self._join[s][t]
        if v < 0:
            self.join(s, t)  # raises: germ is not a lattice
        return (self._row_inv or self._row_inverses())[s][v]

    def rcomp(self, s: int, t: int) -> int:
        """The right complement t/s: the simple u with u.s = right-join v, so v*.u = s*."""
        return (self._row_inv or self._row_inverses())[self._rcomp[self.rjoin(s, t)]][self._rcomp[s]]

    def complement(self, s: int) -> int:
        """The simple u with s.u = delta."""
        if (u := self._comp[s]) < 0:
            raise GermError(f"simple {self.names[s]!r} has no right completion to delta")
        return u

    def rcomplement(self, s: int) -> int:
        """The simple u with u.s = delta."""
        if (u := self._rcomp[s]) < 0:
            raise GermError(f"simple {self.names[s]!r} has no left completion to delta")
        return u

    def normal_pair(self, s: int, t: int) -> bool:
        """Left-weightedness of the adjacent pair s, t."""
        return self.meet(self.complement(s), t) == self.unit

    # -- the opposite germ ------------------------------------------------

    def opposite(self) -> Germ:
        """The germ with reversed products, t.s there = s.t here; built anew on each call."""
        rows: list[dict[int, int]] = [dict() for _ in self.names]
        for s, row in enumerate(self.product_rows):
            for t, u in row.items():
                rows[t][s] = u
        return Germ(self.names, self.delta, tuple(rows))


def _atom_lengths(g: Germ, atoms: Iterable[int]) -> list[int]:
    """Per simple, the most `atoms` that strip it to the unit, or -1 if none do."""
    # Divisor-set size increases strictly along proper divisibility in
    # a valid germ, so sorting by popcount is a topological order.
    lens = [-1] * len(g)
    lens[g.unit] = 0
    atom_inv = {a: {v: t for t, v in g.product_rows[a].items()} for a in atoms}
    for s in sorted(range(len(g)), key=lambda s: g.ldiv[s].bit_count()):
        if s == g.unit:
            continue
        for a, inv in atom_inv.items():
            if (g.ldiv[s] >> a) & 1:
                t = inv.get(s)
                if t is not None and t != s and lens[t] >= 0:
                    lens[s] = max(lens[s], 1 + lens[t])
    return lens


def make_germ(names: Iterable[str], delta_name: str,
              products: Iterable[tuple[str, str, str]],
              validate: bool = False) -> Germ:
    """
    Assemble a Germ from display names and named product triples.  Unit
    products are implied and need not be listed; explicit unit products
    must agree with the implied ones.  With validate=True the full axiom
    check runs and a failure raises GermValidationError.
    """
    names, products = list(names), list(products)
    seen: set[str] = set()
    for nm in names:
        check_name(nm)
        if nm in seen:
            raise GermError(f"duplicate simple name {nm!r}")
        seen.add(nm)
    if "1" not in seen:
        raise GermError('the unit simple "1" is missing')
    if delta_name not in seen:
        raise GermError(f"delta {delta_name!r} is not a listed simple")
    defined: set[tuple[str, str]] = set()
    for sn, tn, un in products:
        _check_entry(defined, seen, sn, tn, un)
    return _assemble(names, delta_name, products, validate)


def _assemble(names: list[str], delta_name: str, products, validate: bool) -> Germ:
    """make_germ past its checks; a product is (s, t, s.t) or longer."""
    ordered = ["1"] + [nm for nm in names if nm != "1"]
    index = {nm: i for i, nm in enumerate(ordered)}
    n = len(ordered)
    rows: list[dict[int, int]] = [{0: s} for s in range(n)]
    rows[0] = {s: s for s in range(n)}
    for sn, tn, un, *_ in products:
        if "1" not in (sn, tn):
            rows[index[sn]][index[tn]] = index[un]
    g = Germ(tuple(ordered), index[delta_name], tuple(rows))
    if validate:
        report = validate_germ(g)
        if not report.ok:
            raise GermValidationError(report)
        g._memo["validation"] = report  # what `validate` prints, not worked out twice
    return g


def _check_entry(defined: set[tuple[str, str]], known: set[str], sn: str, tn: str, un: str) -> None:
    """Refuse an entry naming no `known` simple, breaking the unit law or repeating one in `defined`."""
    for nm in (sn, tn, un):
        if nm not in known:
            raise GermError(f"unknown simple name {nm!r}")
    if "1" in (sn, tn) and un != (tn if sn == "1" else sn):
        raise GermError(f"product {sn}.{tn} = {un} conflicts with the unit law")
    if "1" not in (sn, tn) and (sn, tn) in defined:
        raise GermError(f"duplicate product entry for {sn}.{tn}")
    defined.add((sn, tn))


def check_name(name: str) -> None:
    if not name:
        raise GermError("empty simple name")
    if any(ch.isspace() or ch in _FORBIDDEN_NAME_CHARS for ch in name):
        raise GermError(
            f"bad simple name {name!r}: whitespace and any of '.|#^' are not allowed")


# -- germ v1 file format ---------------------------------------------------

def parse_germ(text: str) -> Germ:
    """
    Parse the `germ v1` file format and return a fully validated Germ.

    Format (UTF-8, line based, '#' starts a comment):

        germ v1
        simples: 1 a b ab          # may be repeated, must include "1"
        delta: ab
        prod a b ab                # one line per defined product a.b = ab

    Products involving "1" are implied.  Raises GermSyntaxError for
    malformed input and GermValidationError if an axiom fails.
    """
    names: list[str] = []
    name_set: set[str] = set()
    delta_name: str | None = None
    triples: list[tuple[str, str, str, int]] = []

    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if header_seen and raw.startswith("prod ") and "#" not in raw and len(w := raw.split()) == 4:
            triples.append((w[1], w[2], w[3], lineno))  # a plain product line, checked in bulk below
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != "germ v1":
                raise GermSyntaxError(lineno, f"expected 'germ v1' header, got {line!r}")
            header_seen = True
            continue
        head, *words = line.split()
        directive, colon, glued = head.partition(":")  # "delta:ab" reads as "delta: ab"
        directive, words = directive + colon, [glued, *words] if glued else words
        if directive == "simples:":
            for nm in words:
                try:
                    check_name(nm)
                except GermError as e:
                    raise GermSyntaxError(lineno, str(e)) from None
                if nm in name_set:
                    raise GermSyntaxError(lineno, f"duplicate simple name {nm!r}")
                name_set.add(nm)
                names.append(nm)
        elif directive == "delta:":
            if delta_name is not None:
                raise GermSyntaxError(lineno, "delta given twice")
            if len(words) != 1:
                raise GermSyntaxError(lineno, "delta: expects exactly one name")
            delta_name = words[0]
        elif directive == "prod":
            if len(words) != 3:
                raise GermSyntaxError(lineno, "prod expects exactly three names")
            triples.append((*words, lineno))
        else:
            raise GermSyntaxError(lineno, f"unrecognised directive {head!r}")

    if not header_seen:
        raise GermSyntaxError(1, "empty germ file")
    if "1" not in name_set:
        raise GermSyntaxError(1, 'the unit simple "1" is missing from simples:')
    if delta_name is None:
        raise GermSyntaxError(1, "no delta: line")
    if delta_name not in name_set:
        raise GermSyntaxError(1, f"delta {delta_name!r} is not a listed simple")

    left, right, out, _ = zip(*triples) if triples else ((),) * 4
    if ("1" in left or "1" in right or len(set(zip(left, right))) < len(triples)
            or not name_set.issuperset(left + right + out)):
        defined: set[tuple[str, str]] = set()  # the entries one by one, for the first error's line
        for sn, tn, un, lineno in triples:
            try:
                _check_entry(defined, name_set, sn, tn, un)
            except GermError as e:
                raise GermSyntaxError(lineno, str(e)) from None
    return _assemble(names, delta_name, triples, validate=True)


def format_germ(g: Germ) -> str:
    """Serialise a germ back to the `germ v1` format (canonical order)."""
    nm = g.names
    lines = ["germ v1", "simples: " + " ".join(nm), f"delta: {nm[g.delta]}"]
    lines += [f"prod {nm[s]} {nm[t]} {nm[row[t]]}" for s, row in enumerate(g.product_rows)
              if s != g.unit for t in sorted(row) if t != g.unit]
    return "\n".join(lines) + "\n"


# -- validation -------------------------------------------------------------

def validate_germ(g: Germ) -> ValidationReport:
    """
    Exhaustively check the local germ axioms: unit laws, partial
    associativity, cancellativity, the two complement bijections, the
    balanced Garside element, the lattice property of both divisibility
    orders, and atom generation.  Failures carry witnesses; nothing raises.
    The opposite germ, the suffix side of the table, is built once per call
    for the associativity, cancellativity and lattice checks, and dropped on
    return; balanced-delta reads the completions to delta instead.
    Associativity skips triples with a unit letter when the unit laws hold;
    cancellativity scans only a table with a repeated value in a row of g
    or of its opposite.  The lattice check asks for meets only, of pairs of
    lower covers where it can (_is_lattice); if delta is not on top, or the
    order or a meet fails, it scans all four kinds of bound.
    """
    op = g.opposite()
    return ValidationReport([CheckResult(axiom, *result) for axiom, result in (
        ("identity", _check_identity(g)), ("associativity", _check_associativity(g, op)),
        ("cancellativity", _check_cancellativity(g, op)), ("complements", _check_complements(g)),
        ("balanced-delta", _check_balanced(g)), ("lattice", _check_lattice(g, op)),
        ("atoms", _check_atoms(g)))])


def _check_identity(g: Germ) -> tuple[bool, str | None]:
    for s in range(len(g)):
        if g.product(g.unit, s) != s:
            return False, f"1.{g.names[s]} != {g.names[s]}"
        if g.product(s, g.unit) != s:
            return False, f"{g.names[s]}.1 != {g.names[s]}"
    return True, None


def _check_associativity(g: Germ, op: Germ) -> tuple[bool, str | None]:
    nm = g.names
    rows, cols = g.product_rows, op.product_rows  # cols[v][s] = s.v, s ascending
    # where the unit laws hold, so does every triple with a unit letter
    unit = g.unit if _check_identity(g)[0] else -1
    for s, row_s in enumerate(rows):
        at_s = row_s.get
        for t, st in row_s.items():
            if unit in (s, t):
                continue
            at_t = rows[t].get
            for u, st_u in rows[st].items():
                # (s.t).u defined; if t.u is defined, s.(t.u) must be too
                if u == unit or (tu := at_t(u)) is None:
                    continue
                s_tu = at_s(tu)
                if s_tu is None:
                    return False, f"({nm[s]}.{nm[t]}).{nm[u]} defined but {nm[s]}.({nm[t]}.{nm[u]}) is not"
                if s_tu != st_u:
                    return False, f"({nm[s]}.{nm[t]}).{nm[u]} != {nm[s]}.({nm[t]}.{nm[u]})"
    for t, row_t in enumerate(rows):
        for u, tu in row_t.items():
            if unit in (t, u):
                continue
            for s, s_tu in cols[tu].items():
                if s != unit and (st := rows[s].get(t)) is not None and rows[st].get(u) != s_tu:
                    return False, f"{nm[s]}.({nm[t]}.{nm[u]}) defined but disagrees with ({nm[s]}.{nm[t]}).{nm[u]}"
    return True, None


def _check_cancellativity(g: Germ, op: Germ) -> tuple[bool, str | None]:
    # distinct values in each row of g and of its opposite, else a scan for the witness
    if all(len(set(row.values())) == len(row) for h in (g, op) for row in h.product_rows):
        return True, None
    nm = g.names
    for s, row in enumerate(g.product_rows):
        seen: dict[int, int] = {}
        for t, u in row.items():
            if u in seen:
                return False, f"{nm[s]}.{nm[seen[u]]} = {nm[s]}.{nm[t]} = {nm[u]}"
            seen[u] = t
    cols: list[dict[int, int]] = [dict() for _ in range(len(g))]
    for t, row in enumerate(g.product_rows):
        for s, u in row.items():
            if u in cols[s]:
                return False, f"{nm[cols[s][u]]}.{nm[s]} = {nm[t]}.{nm[s]} = {nm[u]}"
            cols[s][u] = t
    return True, None


def _check_complements(g: Germ) -> tuple[bool, str | None]:
    nm = g.names
    n = len(g)
    # one pass over the products equal to delta counts both completions
    right, left = [0] * n, [0] * n
    for s, row in enumerate(g.product_rows):
        for t, u in row.items():
            if u == g.delta:
                right[s] += 1
                left[t] += 1
    for s in range(n):
        if right[s] != 1:
            return False, f"{nm[s]} has {right[s]} right completions to delta (expected 1)"
        if left[s] != 1:
            return False, f"{nm[s]} has {left[s]} left completions to delta (expected 1)"
    # one completion each way: s -> complement(s) is a bijection, rcomplement its inverse
    return True, None


def _check_balanced(g: Germ) -> tuple[bool, str | None]:
    # s is a prefix (suffix) of delta iff s.t (t.s) is delta for some t
    for comp, side in ((g._comp, "prefix"), (g._rcomp, "suffix")):
        if -1 in comp:
            return False, f"{g.names[comp.index(-1)]} is not a {side} of delta"
    return True, None


def _is_lattice(h: Germ, top: int) -> bool:
    """Divisibility, already reflexive, is a partial order with `top` above
    all and a meet for any two simples.  Joins follow: that of s and t is
    the meet of their common upper bounds, a set holding `top`.  With the
    unit below all too, only two lower covers of one simple need a meet (the
    dual of Lemma 2.1 in Bjorner, Edelman and Ziegler, Discrete Comput.
    Geom. 5, 1990): the d with d.a = z for an atom a hold those of z, and no
    simple outside its strict down-set, if their down-sets make that set."""
    ld, lu, n = h.ldiv, h.lupper, len(h)
    if not (all(ld[t] & lu[t] == 1 << t for t in range(n)) and ld[top] == (1 << n) - 1
            and not any(ld[s] & ~ld[v] for s, row in enumerate(h.product_rows) for v in row.values())):
        return False
    below: list[list[int]] = [[] for _ in ld]
    for d, row in enumerate(h.product_rows):
        for a in h.atoms:
            if (z := row.get(a)) is not None:
                below[z].append(d)
    if all(m & 1 for m in ld) and all(reduce(or_, map(ld.__getitem__, ds), 0) == ld[z] ^ 1 << z
                                      for z, ds in enumerate(below)):
        return all(ld[c] & ld[d] in h._by_ldiv for ds in below for c, d in combinations(ds, 2))
    return all(h._by_ldiv.keys() >= set(map(and_, repeat(m), ld[s:])) for s, m in enumerate(ld))


def _check_lattice(g: Germ, op: Germ) -> tuple[bool, str | None]:
    nm, n = g.names, len(g)
    for s in range(n):
        if not (g.ldiv[s] >> s) & 1 or not (op.ldiv[s] >> s) & 1:
            return False, f"divisibility is not reflexive at {nm[s]}"
    if _is_lattice(g, g.delta) and _is_lattice(op, g.delta):
        return True, None
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


def _check_atoms(g: Germ) -> tuple[bool, str | None]:
    nm = g.names
    for s, row in enumerate(g.product_rows):
        for t, u in row.items():
            if u == g.unit and (s != g.unit or t != g.unit):
                return False, f"{nm[s]}.{nm[t]} = 1 with a non-trivial factor"
    for s in range(1, len(g)):  # every simple but the unit, index 0
        if not any((g.ldiv[s] >> a) & 1 for a in g.atoms):
            return False, f"{nm[s]} has no atom as a prefix"
        if g.atom_len[s] < 0:
            return False, f"atom stripping does not terminate at {nm[s]}"
    return True, None
