import time

import pytest

from garside import (GermSpec, GermValidationError, braid_germ, build,
                     direct_product_germ, divisor_germ, element as el,
                     free_abelian_germ, germ_from_spec, validate_germ)
from garside import atom_classes, delta_of_simple

from oracles import braid_germ_by_pairs, direct_product_germ_by_pairs, germ_spec_by_splits


def assert_same_germ(g, h):
    """Same names, Delta and product rows, with the keys in the same order."""
    assert g.names == h.names
    assert g.delta == h.delta
    assert [list(row.items()) for row in g.product_rows] \
        == [list(row.items()) for row in h.product_rows]


def test_braid_sizes(b3, b4):
    assert len(b3) == 6 and len(b3.atoms) == 2
    assert len(b4) == 24 and len(b4.atoms) == 3
    b2 = braid_germ(2)
    assert len(b2) == 2 and b2.delta == b2.atoms[0]
    assert validate_germ(b4).ok


def test_braid_range():
    with pytest.raises(ValueError):
        braid_germ(1)
    with pytest.raises(ValueError):
        braid_germ(8)


@pytest.mark.parametrize("n", range(2, 7))
def test_braid_germ_matches_pair_search(n):
    assert_same_germ(braid_germ(n), braid_germ_by_pairs(n))


@pytest.mark.parametrize("left, right", [("braid:4", "braid:3"), ("wreath", "wreath"),
                                         ("braid:3", "abelian:1"), ("braid:4", "abelian:4")])
def test_direct_product_matches_pair_search(left, right):
    g1, g2 = germ_from_spec(left), germ_from_spec(right)
    assert_same_germ(direct_product_germ(g1, g2), direct_product_germ_by_pairs(g1, g2))


def test_free_abelian(ab2, ab3):
    assert len(ab2) == 4
    assert len(atom_classes(ab2)) == 2
    assert len(free_abelian_germ(1)) == 2
    zs = build(ab3, [ab3.simple("e1")])
    assert ab3.names[zs.delta_g] == "e1"
    assert validate_germ(ab3).ok
    with pytest.raises(ValueError):
        free_abelian_germ(11)


def test_wreath_relations(wreath):
    s = wreath.simple
    assert wreath.names[wreath.delta] == "abc"
    assert wreath.product(s("a"), s("b")) == s("ab")
    assert wreath.product(s("b"), s("a")) == s("ab")
    assert wreath.product(s("c"), s("a")) == s("bc")
    assert wreath.product(s("a"), s("c")) == s("ac")
    assert wreath.product(s("c"), s("b")) == s("ac")
    assert validate_germ(wreath).ok


def test_direct_product_abelian_iso(ab2):
    n1 = free_abelian_germ(1)
    prod = direct_product_germ(n1, n1)
    assert len(prod) == len(ab2)
    # identify by the evident name mapping and compare tables
    mapping = {"1": "1", "e1*1": "e1", "1*e1": "e2", "e1*e1": "e1e2"}
    to_ab = {prod.simple(a): ab2.simple(b) for a, b in mapping.items()}
    for s in range(len(prod)):
        for t, u in prod.product_rows[s].items():
            assert ab2.product(to_ab[s], to_ab[t]) == to_ab[u]
    assert to_ab[prod.delta] == ab2.delta


def test_direct_product_braid(b3):
    sq = direct_product_germ(b3, b3)
    assert len(sq) == 36
    part = atom_classes(sq)
    assert len(part) == 2
    assert {len(c) for c in part.classes} == {2}


def test_direct_product_trivial_action(b3):
    n1 = free_abelian_germ(1)
    g = direct_product_germ(b3, n1)
    left = [a for a in g.atoms if g.names[a].endswith("*1")]
    zs = build(g, left)
    for hs in zs.h_simples:
        for gs in zs.g_simples:
            assert zs.act("rr", hs, gs) == gs
            assert zs.act("rl", hs, gs) == hs
    for gs in zs.g_simples:
        for hs in zs.h_simples:
            assert zs.act("lr", gs, hs) == hs
            assert zs.act("ll", gs, hs) == gs


def test_every_builtin_validates(wreath, b3, ab3):
    for g in (wreath, b3, ab3, germ_from_spec("prod:braid:3,abelian:1")):
        assert validate_germ(g).ok


def test_divisor_germ_of_delta_matches(wreath):
    d = el.normal_form(wreath, [wreath.delta])
    cut = divisor_germ(wreath, d)
    assert len(cut) == len(wreath)


def test_divisor_germ_gives_parabolic_factor(wreath):
    # divisors of ab form the free abelian factor on a, b
    ab = el.simple(wreath, wreath.simple("ab"))
    g_factor = divisor_germ(wreath, ab)
    assert len(g_factor) == 4
    assert sorted(g_factor.names[a] for a in g_factor.atoms) == ["a", "b"]
    # the local closure of a inside the factor is a itself
    assert g_factor.names[delta_of_simple(g_factor, g_factor.simple("a"))] == "a"


def test_alternative_garside_element_of_factor_is_not_one_of_k(wreath):
    # a.a.b is balanced (a Garside element for the a,b factor) ...
    aab = el.normal_form(wreath, [wreath.simple("a")] * 2 + [wreath.simple("b")])
    bigger = divisor_germ(wreath, aab)
    assert validate_germ(bigger).ok
    assert len(bigger) == 6  # 1, a, b, a^2, ab, a^2b
    # ... but a.a.b.c is not balanced in the ambient monoid
    aabc = el.multiply(wreath, aab, el.simple(wreath, wreath.simple("c")))
    with pytest.raises(GermValidationError) as exc:
        divisor_germ(wreath, aabc)
    failures = exc.value.report.failures()
    assert [c.axiom for c in failures] == ["balanced-delta"]
    assert failures[0].witness


def test_local_closures_differ_between_factor_and_ambient(wreath):
    # closure of a: inside the a,b factor it is a; in the ambient monoid ab
    ab = el.simple(wreath, wreath.simple("ab"))
    factor = divisor_germ(wreath, ab)
    assert factor.names[delta_of_simple(factor, factor.simple("a"))] == "a"
    assert wreath.names[delta_of_simple(wreath, wreath.simple("a"))] == "ab"


def test_germ_spec_parsing():
    assert GermSpec.parse("braid:4") == GermSpec("braid", (4,))
    spec = GermSpec.parse("prod:braid:3,abelian:1")
    assert spec.family == "prod"
    assert spec.params[0].family == "braid"
    assert len(germ_from_spec("prod:abelian:1,abelian:1")) == 4
    with pytest.raises(ValueError):
        GermSpec.parse("octonion:3")
    with pytest.raises(ValueError):
        GermSpec.parse("braid:x")
    with pytest.raises(ValueError):
        GermSpec.parse("prod:braid:3")


# every spec the tests use, well-formed or not
TEST_SPECS = ["wreath", "braid:2", "braid:3", "braid:4", "braid:5", "braid:9", "braid:x",
              "abelian:-1", "abelian:0", "abelian:1", "abelian:3", "abelian:4", "octonion:3",
              "file:", "file:x.germ", "prod:", "prod:braid:3", "prod:abelian:1,abelian:1",
              "prod:braid:3,abelian:1", "prod:braid:4,abelian:1", "prod:braid:4,abelian:4",
              "prod:braid:4,braid:3", "prod:braid:5,abelian:1", "prod:braid:6,braid:3",
              "prod:braid:6,braid:4", "prod:braid:7,braid:7", "prod:braid:9,braid:3",
              "prod:wreath,wreath", "prod:file:x.germ,braid:7", "prod:braid:7,file:x.germ",
              "prod:prod:braid:5,braid:5,abelian:0", "prod:wreath,prod:braid:2,abelian:1"]


def _parse_or_error(parse, text):
    try:
        return parse(text)
    except ValueError as e:
        return str(e).split(" (expected")[0]


@pytest.mark.parametrize("text", TEST_SPECS)
def test_spec_parses_as_by_trying_every_comma(text):
    assert _parse_or_error(GermSpec.parse, text) == _parse_or_error(germ_spec_by_splits, text)


@pytest.mark.parametrize("text, path", [
    ("prod:file:one,atom.germ,braid:3", "one,atom.germ"),
    # the first comma where both halves parse: "wreath,braid:3" is no spec
    ("prod:file:x,wreath,braid:3", "x,wreath"),
    ("prod:file:x,prod:wreath,wreath", "x"),
    ("prod:prod:file:a,b,wreath,wreath", "a,b"),
])
def test_file_path_ends_at_the_first_comma_where_both_halves_parse(text, path):
    spec = GermSpec.parse(text)
    assert spec == germ_spec_by_splits(text)
    while spec.family == "prod":
        spec = spec.params[0]
    assert spec == GermSpec("file", (path,))


def test_nested_builtin_spec_parses_in_linear_time():
    n = 200
    text = "prod:" * n + "abelian:0" + ",abelian:0" * n
    start = time.perf_counter()
    spec = GermSpec.parse(text)
    assert time.perf_counter() - start < 0.1
    for _ in range(n):
        assert spec.family == "prod" and spec.params[1] == GermSpec("abelian", (0,))
        spec = spec.params[0]
    assert spec == GermSpec("abelian", (0,))


def test_spec_nested_past_the_recursion_limit_is_a_value_error():
    text = "prod:" * 5000 + "abelian:0" + ",abelian:0" * 5000
    with pytest.raises(ValueError, match="nested too deeply"):
        GermSpec.parse(text)
