import dataclasses
import re

import pytest

from garside import Options, build, germ_from_spec, parse_germ, run_suite
from garside import element as el
from garside.suites import _Run

from oracles import (ACTION_NF_SHAPES, abelian_by_braid3_germ, action_nf_failures,
                     complements_lemma_by_cases, lattice_laws_by_cases, push_lemma_failures)

# The monoid <a, b | a.a = b.b.b>: a valid germ on which atom lengths are
# not additive, so the length law reports counterexamples.
A2_B3 = """germ v1
simples: 1 a b bb D
delta: D
prod a a D
prod b b bb
prod b bb D
prod bb b D
"""


def test_run_formats_witnesses_only_for_failures(wreath):
    r = _Run(wreath)
    r.eq(1, 1, "passing", len(wreath))  # not a simple, so it has no name
    assert (r.cases, r.failures) == (1, [])


def test_run_renders_counts_as_numbers(wreath):
    r = _Run(wreath)
    a = el.simple(wreath, wreath.simple("a"))
    r.eq(len(wreath) + 3, 2, "length-additive", a, a, show=str)
    r.eq(wreath.simple("a"), wreath.simple("b"), "simples", a)
    assert r.failures == [f"length-additive[a, a]: {len(wreath) + 3} != 2",
                          "simples[a]: a != b"]


def test_report_times_its_suite_but_does_not_print_the_time(wreath):
    report = run_suite("lattice-laws", wreath)
    assert report.elapsed >= 0
    assert str(report) == f"suite lattice-laws: ok ({report.cases} cases)"
    assert str(report) == str(dataclasses.replace(report, elapsed=12.5))
    failing = run_suite("element-lattice-laws", parse_germ(A2_B3), Options(seed=1))
    assert failing.elapsed >= 0
    assert str(failing) == str(dataclasses.replace(failing, elapsed=12.5))


def test_length_law_failures_render_as_numbers():
    report = run_suite("element-lattice-laws", parse_germ(A2_B3), Options(seed=1))
    for line in report.failures:
        assert re.fullmatch(r"length-additive\[[^]]*\]: \d+ != \d+", line), line


# -- the two walked suites against the word enumerators -------------------------

def _tampered(zs, name, carry, a, b):
    """A copy of zs whose step table `name` swaps the outputs of a and b
    in the row of `carry`."""
    steps = {k: {c: dict(row) for c, row in table.items()} for k, table in zs.steps.items()}
    row = steps[name][carry]
    (ya, da), (yb, db) = row[a], row[b]
    row[a], row[b] = (yb, da), (ya, db)
    return dataclasses.replace(zs, steps=steps)


def _letters(line: str) -> int:
    return re.search(r" \|>>? (\S+) is not normal", line).group(1).count(".") + 1


def test_tampered_action_step_is_caught_at_its_shortest_witness(wreath_zs):
    s = wreath_zs.germ.simple
    zs = _tampered(wreath_zs, "rr", s("c"), s("b"), s("ab"))
    report = run_suite("action-preserves-nf", zs)
    # the first letter's image is not compared with anything, so both
    # witnesses lie one step past the roots of the walk
    assert report.failures == ["c |> ab.a is not normal", "c |> ab.b is not normal"]
    listed = dict(action_nf_failures(zs, "rr", 3))
    assert all(listed[line] == 2 for line in report.failures)
    assert min(listed.values()) == 2


PUSH_TAMPERS = [
    # g |>> h for g = a: swapping 1 and c admits the first pair (a, c) for
    # h = 1, whose pushed word a, c is not normal
    (("a", "1", "c"), ["push lemma fails at h=1, word [('a', 'c')]",
                       "push lemma fails at h=1, word [('a', 'c'), ('b', '1')]",
                       "push lemma fails at h=1, word [('a', 'c'), ('1', 'c')]",
                       "push lemma fails at h=1, word [('a', 'c'), ('b', 'c')]"]),
    # for g = 1: it admits (1, c) for h = 1, whose first pushed letter 1.1 is
    # the unit; the walk reports it once and goes no further
    (("1", "1", "c"), ["push lemma fails at h=1, word [('1', 'c')]"]),
]


@pytest.mark.parametrize("tamper, failures", PUSH_TAMPERS, ids=["a", "unit"])
def test_tampered_push_precondition_is_caught(wreath_zs, tamper, failures):
    carry, a, b = (wreath_zs.germ.simple(nm) for nm in tamper)
    zs = _tampered(wreath_zs, "lr", carry, a, b)
    report = run_suite("push-lemma", zs)
    assert report.failures == failures
    listed = dict(push_lemma_failures(zs, 3))
    assert set(report.failures) <= set(listed)
    assert min(listed.values()) == 1


WALKED = [("wreath", ("a", "b")), ("abelian:3", ("e1",)),
          ("abelian:3><braid:3", ("e1*1", "e2*1", "e3*1"))]


@pytest.mark.parametrize("spec, left", WALKED, ids=[spec for spec, _ in WALKED])
def test_action_walk_agrees_with_enumeration_up_to_four_letters(spec, left):
    g = abelian_by_braid3_germ() if spec.endswith("braid:3") else germ_from_spec(spec)
    zs = build(g, [g.simple(nm) for nm in left])
    assert run_suite("action-preserves-nf", zs).ok
    assert run_suite("push-lemma", zs).ok
    assert push_lemma_failures(zs, 3) == []
    caught = 0
    for name in ACTION_NF_SHAPES:
        assert action_nf_failures(zs, name, 4) == []
        for carry, row in zs.steps[name].items():
            letters = sorted(row)
            for a, b in zip(letters, letters[1:]):
                tampered = _tampered(zs, name, carry, a, b)
                walk = [line for line in run_suite("action-preserves-nf", tampered).failures
                        if _letters(line) <= 4]
                listed = dict(action_nf_failures(tampered, name, 4))
                assert set(walk) <= set(listed)
                assert min(map(_letters, walk), default=None) \
                    == min(listed.values(), default=None)
                caught += bool(walk)
    assert caught > 0


# -- the row-wise germ-level laws against their per-case oracles ----------------

BY_CASES = {"complements-lemma": complements_lemma_by_cases,
            "lattice-laws": lattice_laws_by_cases}


def _by_cases(suite, g, opt):
    r = _Run(g)
    BY_CASES[suite](r, g, opt)
    return r.cases, r.failures


def _swap_row_inv(g, s):
    """Swap the outputs of the first two products in the inverted row of s."""
    row = g._row_inverses()[s]
    v, w = sorted(row)[:2]
    row[v], row[w] = row[w], row[v]


def _swap_join(g, s):
    """Swap the joins of s with the simples 1 and 2."""
    row = g._join[s]
    row[1], row[2] = row[2], row[1]


@pytest.mark.parametrize("suite", BY_CASES)
@pytest.mark.parametrize("spec", ["wreath", "braid:3", "braid:4", "abelian:3",
                                  "prod:braid:4,braid:3", "A2_B3"])
def test_row_suites_agree_with_per_case_oracle(spec, suite):
    g = parse_germ(A2_B3) if spec == "A2_B3" else germ_from_spec(spec)
    opt = Options(samples=40, seed=3)
    report = run_suite(suite, g, opt)
    assert (report.cases, report.failures) == _by_cases(suite, g, opt)


@pytest.mark.parametrize("suite", BY_CASES)
@pytest.mark.parametrize("tamper", [_swap_row_inv, _swap_join], ids=["row-inv", "join"])
@pytest.mark.parametrize("spec, row", [("wreath", "a"), ("braid:4", "1243"),
                                       ("braid:4", "2143"), ("prod:braid:4,braid:3", "1243*1")])
def test_row_suites_agree_with_per_case_oracle_on_tampered_tables(spec, row, tamper, suite):
    g = germ_from_spec(spec)
    tamper(g, g.simple(row))
    # the element-level half is left out: it may not survive a broken table
    opt = Options(samples=0)
    report = run_suite(suite, g, opt)
    assert report.failures
    assert (report.cases, report.failures) == _by_cases(suite, g, opt)
