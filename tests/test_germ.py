import gc
import random
import weakref
from pathlib import Path

import pytest

from garside import (GermError, GermSyntaxError, GermValidationError, braid_germ,
                     format_germ, germ_from_spec, parse_germ, validate_germ)
from garside.germ import Germ, _is_lattice, make_germ

from oracles import LatticeOracle, is_lattice_by_meets, validate_germ_by_scans

WREATH_FILE = """\
germ v1
# two commuting generators swapped by a third
simples: 1 a b c ab ac bc abc
delta: abc
prod a b ab
prod b a ab
prod a c ac
prod c b ac
prod b c bc
prod c a bc
prod a bc abc
prod b ac abc
prod c ab abc
prod ab c abc
prod ac a abc
prod bc b abc
"""

TRIVIAL_FILE = """\
germ v1
simples: 1
delta: 1
"""


def test_parse_wreath_file():
    g = parse_germ(WREATH_FILE)
    assert len(g) == 8
    assert sorted(g.names[a] for a in g.atoms) == ["a", "b", "c"]
    assert g.names[g.delta] == "abc"
    assert validate_germ(g).ok


def test_parse_trivial_file():
    g = parse_germ(TRIVIAL_FILE)
    assert len(g) == 1
    assert g.delta == g.unit
    assert g.atoms == ()


def test_parse_missing_completion_names_complement_axiom():
    # a.b = delta exists but c has no left completion t.c = delta
    text = """\
germ v1
simples: 1 a b c d
delta: d
prod a b d
prod c a d
"""
    with pytest.raises(GermValidationError) as exc:
        parse_germ(text)
    failed = {c.axiom for c in exc.value.report.failures()}
    assert "complements" in failed


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GermSyntaxError) as exc:
        parse_germ("germ v2\n")
    assert exc.value.line == 1

    with pytest.raises(GermSyntaxError) as exc:
        parse_germ("germ v1\nsimples: 1 a\ndelta: a\nprod a a z\n")
    assert exc.value.line == 4 and "unknown" in str(exc.value)

    with pytest.raises(GermSyntaxError) as exc:
        parse_germ("germ v1\nsimples: 1 a b\ndelta: b\nprod a a b\nprod a a b\n")
    assert "duplicate product" in str(exc.value)

    # duplicates and unit-law conflicts are reported at their own line,
    # not at an earlier entry whose names the message happens to contain
    with pytest.raises(GermSyntaxError) as exc:
        parse_germ("germ v1\nsimples: 1 a b ab\ndelta: ab\nprod a b ab\nprod a b ab\n")
    assert exc.value.line == 5 and "duplicate product entry for a.b" in str(exc.value)

    with pytest.raises(GermSyntaxError) as exc:
        parse_germ("germ v1\nsimples: 1 a b aa bb x\ndelta: x\n"
                   "prod a b x\nprod aa bb x\nprod aa bb x\n")
    assert exc.value.line == 6 and "duplicate product entry for aa.bb" in str(exc.value)

    with pytest.raises(GermSyntaxError) as exc:
        parse_germ("germ v1\nsimples: 1 a aa\ndelta: aa\nprod a 1 a\nprod aa 1 a\n")
    assert exc.value.line == 5 and "aa.1 = a conflicts with the unit law" in str(exc.value)

    with pytest.raises(GermSyntaxError):
        parse_germ("germ v1\nsimples: a b\ndelta: b\n")  # no unit

    with pytest.raises(GermSyntaxError):
        parse_germ("germ v1\nsimples: 1 a.b\ndelta: 1\n")  # bad name


def test_parse_reads_each_line_by_its_first_word():
    # any whitespace splits a line, and a name may follow its directive's colon
    g = parse_germ("germ v1\nsimples:1 a\tb ab\ndelta:ab\nprod\ta b ab\nprod b  a ab\n")
    assert g.names == ("1", "a", "b", "ab") and g.product(g.simple("a"), g.simple("b")) == g.delta
    # a comment after a product, a product before the simple it names is
    # listed, and a product with a unit factor that keeps the unit law
    g = parse_germ("germ v1\nsimples: 1 a b\nprod a b ab\nprod b a ab # a, b commute\n"
                   "simples: ab\ndelta: ab\n")
    assert g.names == ("1", "a", "b", "ab") and g.product(g.simple("b"), g.simple("a")) == g.delta
    assert parse_germ("germ v1\nsimples: 1 a\ndelta: a\nprod a 1 a\n").product_rows == ({0: 0, 1: 1}, {0: 1})
    for line, message in (("prod", "line 4: prod expects exactly three names"),
                          ("prod a a #a", "line 4: prod expects exactly three names"),
                          ("prod a a a a", "line 4: prod expects exactly three names"),
                          ("prod a 1 a\nprod 1 a 1", "line 5: product 1.a = 1 conflicts with the unit law"),
                          ("prod:a b ab", "line 4: unrecognised directive 'prod:a'"),
                          ("simples 1", "line 4: unrecognised directive 'simples'")):
        with pytest.raises(GermSyntaxError, match=f"^{message}$"):
            parse_germ(f"germ v1\nsimples: 1 a\ndelta: a\n{line}\n")
    with pytest.raises(GermSyntaxError, match="^line 1: expected 'germ v1' header, got 'prod a a a'$"):
        parse_germ("prod a a a\ngerm v1\nsimples: 1 a\ndelta: a\n")


def test_format_round_trip(wreath):
    g2 = parse_germ(format_germ(wreath))
    assert g2.names == wreath.names
    assert g2.delta == wreath.delta
    assert g2.product_rows == wreath.product_rows


def test_validate_b3_and_abelian_pass(b3, ab2):
    assert validate_germ(b3).ok
    assert validate_germ(ab2).ok


def test_validate_idempotent_fails_cancellativity():
    g = make_germ(["1", "a"], "a", [("a", "a", "a")])
    report = validate_germ(g)
    assert not report.ok
    assert any(c.axiom == "cancellativity" and not c.passed for c in report.checks)


# Hand-made tables, each breaking partial associativity in one way; the
# witness text names the first failing triple in table order.
ASSOCIATIVITY_FAILURES = [
    # (a.b).d = c.d = f, b.d = g, but a.g is undefined
    ((["1", "a", "b", "c", "d", "f", "g"], "c",
      [("a", "b", "c"), ("c", "d", "f"), ("b", "d", "g")]),
     "(a.b).d defined but a.(b.d) is not"),
    # (a.b).d = c.d = e, but a.(b.d) = a.f = d
    ((["1", "a", "b", "c", "d", "e", "f"], "c",
      [("a", "b", "c"), ("c", "d", "e"), ("b", "d", "f"), ("a", "f", "d")]),
     "(a.b).d != a.(b.d)"),
    # a.(b.c) = a.d = e, but (a.b).c = f.c is undefined
    ((["1", "a", "b", "c", "d", "e", "f"], "e",
      [("b", "c", "d"), ("a", "d", "e"), ("a", "b", "f")]),
     "a.(b.c) defined but disagrees with (a.b).c"),
    # the same failure, with x.d = a.d = e as well: the column of d holds two
    # left factors of e, and the failing one comes first
    ((["1", "a", "b", "c", "d", "e", "f", "x"], "e",
      [("b", "c", "d"), ("a", "d", "e"), ("a", "b", "f"), ("x", "d", "e")]),
     "a.(b.c) defined but disagrees with (a.b).c"),
]


@pytest.mark.parametrize("table, witness", ASSOCIATIVITY_FAILURES,
                         ids=["undefined", "differs", "disagrees", "non-cancellative"])
def test_associativity_witnesses(table, witness):
    report = validate_germ(make_germ(*table))
    assert [str(c) for c in report.checks if c.axiom == "associativity"] \
        == [f"associativity: FAIL ({witness})"]


def test_non_cancellative_associativity_witness_is_kept():
    names, delta, products = ASSOCIATIVITY_FAILURES[-1][0]
    report = validate_germ(make_germ(names, delta, products))
    assert [c.axiom for c in report.failures()][:2] == ["associativity", "cancellativity"]
    assert report.failures()[1].witness == "a.d = x.d = e"


# Hand-made tables whose complement check first fails on a left completion:
# the earlier simples each have exactly one right and one left completion.
LEFT_COMPLETION_FAILURES = [
    # nothing times a is delta
    ((["1", "a", "b", "d"], "d", [("a", "b", "d"), ("b", "b", "d")]),
     "a has 0 left completions to delta (expected 1)"),
    # a.b = c.b = delta
    ((["1", "a", "b", "c", "d"], "d", [("a", "b", "d"), ("b", "a", "d"), ("c", "b", "d")]),
     "b has 2 left completions to delta (expected 1)"),
]


@pytest.mark.parametrize("table, witness", LEFT_COMPLETION_FAILURES, ids=["none", "two"])
def test_left_completion_witnesses(table, witness):
    report = validate_germ(make_germ(*table))
    assert [str(c) for c in report.checks if c.axiom == "complements"] \
        == [f"complements: FAIL ({witness})"]


def _report(complements, balanced, lattice, atoms="pass", cancellativity="pass"):
    return ["identity: pass", "associativity: pass",
            *(f"{axiom}: {result}" for axiom, result in (
                ("cancellativity", cancellativity), ("complements", complements),
                ("balanced-delta", balanced), ("lattice", lattice), ("atoms", atoms)))]


# Hand-made tables, each breaking one suffix-side axiom of the balanced-delta
# or lattice check, and one breaking both sides at the same place, where the
# prefix witness is the one reported.  The full reports pin every witness.
SUFFIX_SIDE_FAILURES = [
    # a.x = y and b.y = x: x and y are suffixes of each other
    ((["1", "x", "y", "a", "b"], "x", [("a", "x", "y"), ("b", "y", "x")]),
     _report(complements="FAIL (y has 0 right completions to delta (expected 1))",
             balanced="FAIL (y is not a prefix of delta)",
             lattice="FAIL (suffix order not antisymmetric: y, x)",
             atoms="FAIL (atom stripping does not terminate at x)")),
    # D = d.a = c.b and y = c.a = d.b have the common suffixes a and b, and
    # y.c = D makes y a prefix of D, so their prefix meet and join exist
    ((["1", "D", "y", "a", "b", "c", "d"], "D",
      [("c", "a", "y"), ("d", "b", "y"), ("d", "a", "D"), ("c", "b", "D"), ("y", "c", "D")]),
     _report(complements="FAIL (y has 0 left completions to delta (expected 1))",
             balanced="FAIL (a is not a prefix of delta)",
             lattice="FAIL (D and y have no suffix meet)")),
    # a.d = b: a is a prefix of b, but nothing has both as suffixes
    ((["1", "a", "b", "d"], "b", [("a", "d", "b")]),
     _report(complements="FAIL (a has 0 left completions to delta (expected 1))",
             balanced="FAIL (d is not a prefix of delta)",
             lattice="FAIL (a and b have no suffix join)")),
    # a.b = b.b = d: every simple is a prefix of d, but a is no suffix
    ((["1", "a", "b", "d"], "d", [("a", "b", "d"), ("b", "b", "d")]),
     _report(cancellativity="FAIL (a.b = b.b = d)",
             complements="FAIL (a has 0 left completions to delta (expected 1))",
             balanced="FAIL (a is not a suffix of delta)",
             lattice="FAIL (a and b have no suffix join)")),
    # a.b = d alone: b is no prefix and a no suffix of d, and a, b have
    # neither a prefix nor a suffix join
    ((["1", "a", "b", "d"], "d", [("a", "b", "d")]),
     _report(complements="FAIL (a has 0 left completions to delta (expected 1))",
             balanced="FAIL (b is not a prefix of delta)",
             lattice="FAIL (a and b have no prefix join)")),
    # braid:3 with 132.312 = 231 as well: every other axiom holds and the prefix
    # order is a lattice, so the suffix lattice does not follow from the prefix one
    ((["1", "132", "213", "231", "312", "321"], "321",
      [("132", "213", "312"), ("132", "231", "321"), ("213", "132", "231"), ("213", "312", "321"),
       ("231", "213", "321"), ("312", "132", "321"), ("132", "312", "231")]),
     _report(complements="pass", balanced="pass",
             lattice="FAIL (suffix order not transitive below 231 at 312)")),
]


@pytest.mark.parametrize("table, report", SUFFIX_SIDE_FAILURES,
                         ids=["antisymmetry", "meet", "join", "delta", "both-sides",
                              "suffix-lattice"])
def test_suffix_side_witnesses(table, report):
    assert str(validate_germ(make_germ(*table))).splitlines() == report


def test_left_divides(wreath):
    s = wreath.simple
    assert wreath.left_divides(s("a"), s("ab"))
    assert wreath.left_divides(wreath.unit, s("bc"))
    assert not wreath.left_divides(s("b"), s("ac"))
    assert sorted(wreath.names[d] for d in wreath.left_divisors(s("ac"))) == \
        ["1", "a", "ac", "c"]


def test_meet_join(wreath):
    s = wreath.simple
    assert wreath.meet(s("ab"), s("ac")) == s("a")
    assert wreath.join(s("a"), wreath.unit) == s("a")
    assert wreath.join(s("a"), s("c")) == s("ac")


def test_lcomp(wreath):
    s = wreath.simple
    assert wreath.lcomp(s("c"), s("a")) == s("b")
    assert wreath.lcomp(wreath.unit, s("bc")) == s("bc")
    assert wreath.lcomp(s("a"), s("c")) == s("c")


def test_complement(wreath):
    s = wreath.simple
    assert wreath.complement(s("a")) == s("bc")
    assert wreath.complement(s("c")) == s("ab")
    assert wreath.complement(wreath.delta) == wreath.unit
    assert wreath.complement(wreath.unit) == wreath.delta
    for x in range(len(wreath)):
        assert wreath.product(x, wreath.complement(x)) == wreath.delta
        assert wreath.product(wreath.rcomplement(x), x) == wreath.delta
        assert wreath.rcomplement(wreath.complement(x)) == x


def test_opposite(wreath, ab2):
    op = wreath.opposite()
    s = wreath.simple
    assert sorted(wreath.names[d] for d in op.left_divisors(s("ac"))) == \
        ["1", "ac", "b", "c"]
    assert op.opposite().product_rows == wreath.product_rows
    # commutative germ is its own opposite
    ab_op = ab2.opposite()
    assert ab_op.product_rows == ab2.product_rows


@pytest.mark.parametrize("build_opposite", [False, True])
def test_germ_dies_on_del_without_the_cyclic_collector(build_opposite):
    g = braid_germ(3)
    if build_opposite:
        op = g.opposite()
        del op
    alive = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert alive() is None
    finally:
        gc.enable()


def test_validation_keeps_no_opposite_alive(monkeypatch):
    # validate builds the opposite germ for its suffix-side checks and drops
    # it: a parsed germ does not carry a second table for its whole life
    built = []

    def opposite(self, build=Germ.opposite):
        op = build(self)
        built.append(weakref.ref(op))
        return op

    monkeypatch.setattr(Germ, "opposite", opposite)
    g = parse_germ(format_germ(braid_germ(6)))
    assert g._memo["validation"].ok  # validated as parsed, and still alive
    assert len(built) == 1 and built[0]() is None


def test_tau_duality_exhaustive(wreath, b3):
    # the suffix accessors, read through the left completions, against brute force
    for g in (wreath, b3):
        oracle = LatticeOracle(g)
        for s in range(len(g)):
            for t in range(len(g)):
                assert g.rmeet(s, t) == oracle.rmeet(s, t)
                j = oracle.rjoin(s, t)
                assert g.rjoin(s, t) == j
                assert [u for u in range(len(g)) if g.product(u, s) == j] == [g.rcomp(s, t)]
                assert g.right_divides(s, t) == (s in oracle.suffixes[t])


def test_lattice_laws_exhaustive(wreath, b3, ab3):
    for g in (wreath, b3, ab3):
        for s in range(len(g)):
            for t in range(len(g)):
                assert g.meet(s, t) == g.meet(t, s)
                assert g.join(s, t) == g.join(t, s)
                assert g.meet(s, g.join(s, t)) == s
                assert g.join(s, g.meet(s, t)) == s
                assert g.product(s, g.lcomp(s, t)) == g.join(s, t)


CYCLIC_FILE = """\
germ v1
# three atoms whose pairwise products all equal delta, cyclically
simples: 1 a b c d
delta: d
prod a b d
prod b c d
prod c a d
"""


def test_cyclic_complement_germ_from_file():
    # a valid non-builtin germ: five simples, complement permutes the atoms
    from garside import automata, delta_of_simple, is_delta_pure, quasi_center_basis
    from oracles import RelationModel, model_check

    g = parse_germ(CYCLIC_FILE)
    assert sorted(g.names[a] for a in g.atoms) == ["a", "b", "c"]
    assert is_delta_pure(g)
    assert [g.names[d] for d in quasi_center_basis(g)] == ["d"]
    for a in g.atoms:
        assert delta_of_simple(g, a) == g.delta
    acceptor = automata.build_nf_automaton(g, "proper")
    assert [automata.count_accepted(acceptor, n) for n in range(5)] == \
        [1, 3, 6, 12, 24]
    # the presented monoid: ab = bc = ca, nothing else
    model = RelationModel(3, ["a", "b", "c"],
                          [[(0, 1), (1, 2), (2, 0)]])
    model_check(g, model, 5)


def test_make_germ_rejects_bad_input():
    with pytest.raises(GermError):
        make_germ(["1", "a", "a"], "a", [])  # duplicate name
    with pytest.raises(GermError):
        make_germ(["a"], "a", [])  # missing unit
    with pytest.raises(GermError):
        make_germ(["1", "a"], "b", [])  # unknown delta
    with pytest.raises(GermError):
        make_germ(["1", "a|b"], "1", [])  # reserved character


def _non_lattice():
    # Unvalidated: x = a.b = b.a and y = a.c = b.c both lie above a and b,
    # so x, y have no meet and a, b no join.  In the opposite germ these
    # become a missing suffix meet and suffix join.
    return make_germ(["1", "a", "b", "c", "x", "y"], "x",
                     [("a", "b", "x"), ("b", "a", "x"), ("a", "c", "y"), ("b", "c", "y")])


def _error_text(read):
    with pytest.raises(GermError) as raised:
        read()
    return str(raised.value)


def test_lattice_accessors_reject_non_lattice():
    g = _non_lattice()
    for germ, kind, s, t in ((g, "meet", "x", "y"), (g, "join", "a", "b")):
        for _ in range(2):  # again once the row is in the table
            with pytest.raises(GermError, match=f"^no {kind} of '{s}' and '{t}': "
                                                "germ is not a lattice$"):
                getattr(germ, kind)(germ.simple(s), germ.simple(t))
    a, b, x, y = (g.simple(nm) for nm in ("a", "b", "x", "y"))
    with pytest.raises(GermError, match="^no join of 'a' and 'b': germ is not a lattice$"):
        g.lcomp(a, b)
    assert g.meet(x, a) == a
    assert g.join(a, y) == y
    # lattice_row, whole or gathered, raises the accessor's text at the first
    # missing entry in the order read: a second one, at column u, is set by
    # hand, so the whole row stops at the lower index and a gather at the
    # column it names first.  Columns that avoid both read without error.
    # A complement row raises for the join it reads, as lcomp does.
    for kind, s, t, u in (("meet", "x", "y", "c"), ("join", "a", "b", "c"),
                          ("lcomp", "a", "b", "c")):
        germ = _non_lattice()
        s, t, u = (germ.simple(nm) for nm in (s, t, u))
        (germ._meet if kind == "meet" else germ._join)[s][u] = -1
        accessor = getattr(germ, kind)
        low, high = sorted((t, u))
        assert (_error_text(lambda: germ.lattice_row(kind, s))
                == _error_text(lambda: accessor(s, low)))
        assert (_error_text(lambda: germ.lattice_row(kind, s, [germ.unit, high, low]))
                == _error_text(lambda: accessor(s, high)))
        rest = [v for v in range(len(germ)) if v not in (t, u)]
        assert germ.lattice_row(kind, s, rest[::-1]) == [accessor(s, v) for v in rest[::-1]]
    assert g.lattice_row("meet", a) is g._meet[a]  # a whole row is the table's own
    # The suffix accessors read the prefix tables at the left completions s*
    # and t*, which validate's complements axiom asks for.  The opposite germ
    # fails it (c and y have none), and its lattice axiom too; on it rjoin(a, b)
    # is the complement of meet(b, a) = 1, which is x.
    op = g.opposite()
    assert [str(c) for c in validate_germ(op).failures() if c.axiom in ("complements", "lattice")] == [
        "complements: FAIL (c has 0 right completions to delta (expected 1))",
        "lattice: FAIL (a and b have no suffix join)"]
    assert op.rjoin(a, b) == op.rjoin(a, x) == x
    # Each suffix accessor raises its own text at a gap in what it reads: a
    # missing completion, never read as the index -1 (the last simple, y), or
    # a missing prefix join (b and a in g) or meet (set by hand); rcomp reads
    # rjoin's meet and raises its text, as lcomp raises join's.
    cut = _non_lattice()
    cut._meet[b][a] = -1
    for germ, kind, s, t, text in ((op, "rmeet", "x", "y", "rmeet"), (g, "rmeet", "c", "a", "rmeet"),
                                   (g, "rjoin", "a", "c", "rjoin"), (g, "rcomp", "c", "a", "rjoin"),
                                   (g, "rmeet", "a", "b", "rmeet"), (cut, "rjoin", "a", "b", "rjoin"),
                                   (cut, "rcomp", "a", "b", "rjoin")):
        for _ in range(2):  # again once the row is in the table
            with pytest.raises(GermError, match=f"^no {text} of '{s}' and '{t}': "
                                                "germ is not a lattice$"):
                getattr(germ, kind)(germ.simple(s), germ.simple(t))
    c = g.simple("c")
    for read in (lambda: g.rcomplement(c), lambda: g.right_divides(c, a), lambda: g.right_divides(a, c)):
        with pytest.raises(GermError, match="^simple 'c' has no left completion to delta$"):
            read()


def test_lattice_rows_refuse_an_index_outside_the_simples():
    g = braid_germ(4)
    for table, index in ((g._meet, -1), (g._join, len(g))):
        with pytest.raises(KeyError):
            table[index]
    assert -1 not in g._meet and len(g) not in g._join
    assert list(g._meet[len(g) - 1]) == [g.meet(len(g) - 1, t) for t in range(len(g))]


def test_lattice_above_256_simples(prod_b4a4):
    g = prod_b4a4
    assert len(g) == 384
    oracle = LatticeOracle(g)
    rng = random.Random(11)
    pairs = [(g.unit, g.delta), (g.delta, g.delta)]
    pairs += [(rng.randrange(len(g)), rng.randrange(len(g))) for _ in range(150)]
    for s, t in pairs:
        for kind in ("meet", "join", "rmeet", "rjoin"):
            assert getattr(g, kind)(s, t) == getattr(oracle, kind)(s, t), \
                (kind, g.names[s], g.names[t])


# -- validate_germ against its table scans -----------------------------------------

HAND_MADE_TABLES = [
    (["1", "a"], "a", [("a", "a", "a")]),
    (["1", "a", "b", "c", "d"], "d", [("a", "b", "d"), ("c", "a", "d")]),
    (["1", "a", "b", "c", "x", "y"], "x",
     [("a", "b", "x"), ("b", "a", "x"), ("a", "c", "y"), ("b", "c", "y")]),
    *(table for table, _ in ASSOCIATIVITY_FAILURES + LEFT_COMPLETION_FAILURES + SUFFIX_SIDE_FAILURES),
]
GERM_TEXTS = [WREATH_FILE, TRIVIAL_FILE, CYCLIC_FILE,
              *(p.read_text() for p in sorted((Path(__file__).parent / "golden").glob("*.germ")))]
SPECS = ["wreath", *(f"braid:{n}" for n in range(2, 6)), *(f"abelian:{k}" for k in range(5)),
         "prod:braid:3,braid:3"]


def _germs_to_compare():
    yield from (make_germ(*table) for table in HAND_MADE_TABLES)
    yield from map(parse_germ, GERM_TEXTS)
    yield from map(germ_from_spec, SPECS)


def test_validate_matches_its_table_scans():
    germs = list(_germs_to_compare())
    assert len(germs) == len(HAND_MADE_TABLES) + len(GERM_TEXTS) + len(SPECS) == 30
    for g in germs:
        assert str(validate_germ(g)) == str(validate_germ_by_scans(g)), g


@pytest.mark.parametrize("spec", SPECS)
def test_complement_rows_agree_with_lcomp(spec):
    g = germ_from_spec(spec)
    at = random.Random(spec).sample(range(len(g)), len(g) // 2 + 1)
    for s in range(len(g)):
        assert g.lattice_row("lcomp", s) == [g.lcomp(s, t) for t in range(len(g))]
        assert g.lattice_row("lcomp", s, at) == [g.lcomp(s, t) for t in at]


def _tampered(g: Germ, rng: random.Random) -> Germ:
    """g with one product entry changed, dropped or added, as a raw table."""
    rows = [dict(row) for row in g.product_rows]
    s, kind = rng.randrange(len(g)), rng.randrange(3)
    if kind < 2 and rows[s]:
        t = rng.choice(list(rows[s]))
        if kind == 0:
            rows[s][t] = rng.randrange(len(g))
        else:
            del rows[s][t]
    else:
        rows[s][rng.randrange(len(g))] = rng.randrange(len(g))
    return Germ(g.names, g.delta, tuple(rows))


TAMPERED_SPECS = ["wreath", "braid:3", "braid:4", "abelian:3", "prod:braid:3,abelian:1"]


@pytest.mark.parametrize("spec", TAMPERED_SPECS)
def test_validate_matches_its_table_scans_on_tampered_tables(spec):
    # Among the reports: a failed identity, under which associativity walks
    # the triples with a unit letter too; a failed balanced-delta, which
    # sends the lattice check to its scan without the meet test; and a
    # lattice failure with delta on top, which the row test finds first.
    g, rng = germ_from_spec(spec), random.Random(spec)
    seen = set()
    for _ in range(80):
        bad = _tampered(g, rng)
        report = validate_germ(bad)
        assert str(report) == str(validate_germ_by_scans(bad)), format_germ(bad)
        seen.add(tuple(c.axiom for c in report.failures()))
    failed = {axiom for axioms in seen for axiom in axioms}
    assert {"identity", "associativity", "balanced-delta", "lattice"} <= failed, seen
    assert any("lattice" in axioms and "balanced-delta" not in axioms for axioms in seen)


# -- the lattice test by lower covers against the all-pairs meet test ---------------

# a, b below both c and d, and c, d below D: an order with D on top and the
# unit at the bottom, where only the pair (c, d), the lower covers of D, has
# no meet (and a, b no join)
BOWTIE = (["1", "a", "b", "c", "d", "D"], "D",
          [("a", "b", "c"), ("b", "a", "c"), ("a", "a", "d"), ("b", "b", "d"),
           ("c", "a", "D"), ("d", "a", "D"), ("a", "c", "D"), ("b", "c", "D")])


def test_lattice_by_covers_finds_the_bowtie():
    g = make_germ(*BOWTIE)
    n, (c, d) = len(g), (g.simple("c"), g.simple("d"))
    assert [(s, t) for s in range(n) for t in range(s, n)
            if g.ldiv[s] & g.ldiv[t] not in g._by_ldiv] == [(c, d)]
    assert not _is_lattice(g, g.delta) and not is_lattice_by_meets(g, g.delta)
    assert str(validate_germ(g)) == str(validate_germ_by_scans(g))
    # with a meet of c and d put in by hand, both accept: the order tests pass
    g._by_ldiv[g.ldiv[c] & g.ldiv[d]] = g.unit
    assert _is_lattice(g, g.delta) and is_lattice_by_meets(g, g.delta)


def test_lattice_by_covers_matches_all_pairs():
    for g in _germs_to_compare():
        for h in (g, g.opposite()):
            assert _is_lattice(h, g.delta) == is_lattice_by_meets(h, g.delta), format_germ(g)


@pytest.mark.parametrize("spec", TAMPERED_SPECS)
def test_lattice_by_covers_matches_all_pairs_on_tampered_tables(spec):
    # Among these: lattices and non-lattices decided by the lower covers,
    # both verdicts of the all-pairs test where the covers are not found,
    # and orders without the unit at the bottom.
    g, rng = germ_from_spec(spec), random.Random(f"covers {spec}")
    verdicts = set()
    for _ in range(300):
        bad = _tampered(g, rng)
        if rng.randrange(2):
            bad = _tampered(bad, rng)
        for h in (bad, bad.opposite()):
            verdict = _is_lattice(h, g.delta)
            assert verdict == is_lattice_by_meets(h, g.delta), format_germ(bad)
            verdicts.add(verdict)
    assert verdicts == {False, True}


def _shuffled_file(g: Germ, seed: int) -> str:
    """g as a germ file that lists its simples in a seeded random order."""
    head, simples, *rest = format_germ(g).splitlines()
    names = simples.split()[1:]
    random.Random(seed).shuffle(names)
    return "\n".join([head, "simples: " + " ".join(names), *rest]) + "\n"


def test_join_rows_match_the_upper_set_lookup():
    rng = random.Random(5)
    germs = [*map(germ_from_spec, SPECS), make_germ(*BOWTIE), _non_lattice(),
             *(_tampered(braid_germ(4), rng) for _ in range(20)),
             parse_germ(_shuffled_file(braid_germ(4), 1)),
             parse_germ(_shuffled_file(germ_from_spec("wreath"), 2))]
    assert germs[-2].delta != len(germs[-2]) - 1  # delta is no longer the last simple
    for g in germs:
        for h in (g, g.opposite()):
            for s in range(len(h)):
                assert list(h._join[s]) == [h._by_lupper.get(h.lupper[s] & m, -1) for m in h.lupper], \
                    (format_germ(g), s)
