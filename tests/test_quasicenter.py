import random
from pathlib import Path

import pytest

from garside import (GermError, Options, atom_classes, delta_of_simple, free_abelian_germ,
                     germ_from_spec, is_delta_pure, parse_germ, quasi_center_basis, run_suite)
from garside.quasicenter import _compute_delta

from oracles import abelian_by_braid3_germ, closure_table

CLOSURE_SPECS = (["wreath"] + [f"braid:{n}" for n in range(2, 7)]
                 + [f"abelian:{k}" for k in range(10)] + ["A2_B3", "N3_B3"]
                 + ["prod:braid:4,braid:3", "prod:wreath,braid:3"])


def _fresh(spec):
    if spec == "A2_B3":
        return parse_germ((Path(__file__).parent / "golden" / "a2_b3.germ").read_text())
    return abelian_by_braid3_germ() if spec == "N3_B3" else germ_from_spec(spec)


@pytest.mark.parametrize("spec", CLOSURE_SPECS)
def test_memoised_closures_match_the_eager_table_in_any_query_order(spec):
    # a fresh germ per order, so what one query memoises cannot hide another's answer
    expected = closure_table(_fresh(spec))
    for seed in range(3):
        g = _fresh(spec)
        order = list(range(len(g)))
        random.Random(seed).shuffle(order)
        assert {s: delta_of_simple(g, s) for s in order} == dict(enumerate(expected))


def _outcome(run):
    try:
        return run()
    except GermError as e:
        return str(e)


def _unset_join(g, row, col):
    g._join[g.simple(row)][g.simple(col)] = -1


def test_closures_read_no_join_that_only_the_suite_reads():
    # the braid:4-2143-no-join tamper of test_suites: the closures are the
    # untampered ones, and the suite raises for its join-compatible law
    g = germ_from_spec("braid:4")
    _unset_join(g, "2143", "1324")
    order = list(range(len(g)))
    random.Random(0).shuffle(order)
    expected = closure_table(germ_from_spec("braid:4"))
    assert [delta_of_simple(g, s) for s in order] == [expected[s] for s in order]
    with pytest.raises(GermError) as raised:
        run_suite("quasicenter", g, Options(samples=40, seed=3))
    assert str(raised.value) == "no join of '2143' and '1324': germ is not a lattice"


@pytest.mark.parametrize("seed", range(3))
def test_every_closure_raises_for_a_missing_atom_join_as_the_atom_closures_do(seed):
    # lcomp(2134, 1324) is unreadable, and the closure of the atom 1324 reads
    # it: the atom classes cannot be formed, so every query raises their error
    def tampered():
        g = germ_from_spec("braid:4")
        _unset_join(g, "2134", "1324")
        return g

    ref, g = tampered(), tampered()
    order = list(range(len(g)))
    random.Random(seed).shuffle(order)
    error = "no join of '2134' and '1324': germ is not a lattice"
    assert _outcome(lambda: _compute_delta(ref, ref.simple("1324"))) == error
    assert [_outcome(lambda: delta_of_simple(g, s)) for s in order] == [error] * len(g)
    assert _outcome(lambda: atom_classes(g)) == error


@pytest.mark.parametrize("s", [-1, 6, 7])
def test_delta_of_simple_refuses_an_id_outside_the_simples(b3, s):
    # a list memo would read -1 back as the closure of the last simple, delta
    with pytest.raises(KeyError):
        delta_of_simple(b3, s)
    with pytest.raises(KeyError):
        b3.lattice_row("join", s)


def test_delta_of_simple_examples(wreath):
    s = wreath.simple
    assert delta_of_simple(wreath, s("a")) == s("ab")
    assert delta_of_simple(wreath, s("b")) == s("ab")
    assert delta_of_simple(wreath, s("c")) == s("c")
    assert delta_of_simple(wreath, wreath.unit) == wreath.unit


def test_is_delta_pure(wreath, b3, b4, ab2):
    assert is_delta_pure(b3)
    assert is_delta_pure(b4)
    assert not is_delta_pure(wreath)
    assert not is_delta_pure(ab2)


def test_is_delta_pure_needs_atoms():
    trivial = free_abelian_germ(0)
    with pytest.raises(ValueError):
        is_delta_pure(trivial)


def test_atom_classes(wreath, b3, ab3):
    part = atom_classes(wreath)
    blocks = [tuple(wreath.names[a] for a in c) for c in part.classes]
    assert blocks == [("a", "b"), ("c",)]
    assert [wreath.names[d] for d in part.class_delta] == ["ab", "c"]

    assert len(atom_classes(b3)) == 1
    part3 = atom_classes(ab3)
    assert len(part3) == 3
    assert all(len(c) == 1 for c in part3.classes)
    assert list(part3.class_delta) == list(ab3.atoms)


def test_quasi_center_basis(wreath, b3):
    assert sorted(wreath.names[d] for d in quasi_center_basis(wreath)) == ["ab", "c"]
    assert [d for d in quasi_center_basis(b3)] == [b3.delta]
    assert quasi_center_basis(free_abelian_germ(0)) == ()


def test_closure_bounds(wreath, b3, ab3):
    for g in (wreath, b3, ab3):
        for a in g.atoms:
            d = delta_of_simple(g, a)
            assert g.left_divides(a, d)
            assert g.left_divides(d, g.delta)


def test_join_compatibility_exhaustive(wreath, b3, ab3):
    for g in (wreath, b3, ab3):
        for s in range(len(g)):
            for t in range(len(g)):
                assert delta_of_simple(g, g.join(s, t)) == \
                    g.join(delta_of_simple(g, s), delta_of_simple(g, t))


def test_basis_elements_balanced(wreath, b3):
    for g in (wreath, b3):
        for c in atom_classes(g).class_delta:
            for s in range(len(g)):
                assert g.left_divides(s, c) == g.right_divides(s, c)


def test_closure_of_each_simple_alone_agrees_with_the_class_formula(wreath, b4):
    for g in (wreath, b4):
        for s in range(len(g)):
            assert _compute_delta(g, s) == delta_of_simple(g, s)
