import dataclasses
import random
import re
import tracemalloc
from pathlib import Path

import pytest

from garside import (GermError, Options, SuiteReport, build, format_germ, germ_from_spec,
                     parse_germ, run_suite, validate_germ, wreath_example_germ)
from garside import element as el
from garside import suites, zappa_szep
from garside.germ import Germ
from garside.suites import _Run
from garside.zappa_szep import ACTIONS, ZSError

from oracles import (ACTION_NF_SHAPES, abelian_by_braid3_germ, action_laws_by_cases,
                     action_nf_failures, action_preserves_nf_by_states, complement_action_by_cases,
                     complement_transport_by_cases, complements_lemma_by_cases,
                     decomposition_uniqueness_by_pairs, delta_invariance_by_cases,
                     factor_closure_by_pairs, inverse_interplay_by_cases,
                     join_complement_by_cases, lattice_laws_by_cases,
                     normal_form_criteria_by_cases, order_isomorphism_by_cases,
                     poset_product_by_cases, push_lemma_by_states, push_lemma_failures,
                     quasicenter_by_cases, round_trip_by_cases,
                     translation_roundtrip_by_enumeration)

# The monoid <a, b | a.a = b.b.b>: a valid germ on which atom lengths are
# not additive, so the length law reports counterexamples.
A2_B3_FILE = Path(__file__).parent / "golden" / "a2_b3.germ"
A2_B3 = A2_B3_FILE.read_text()


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


def _count_letters(monkeypatch):
    """Make element.atom_length count normal-form letters, which is not additive."""
    monkeypatch.setattr(el, "atom_length", lambda g, w: w.deltas + len(w.factors))


def test_report_times_its_suite_but_does_not_print_the_time(wreath, monkeypatch):
    report = run_suite("lattice-laws", wreath)
    assert report.elapsed >= 0
    assert str(report) == f"suite lattice-laws: ok ({report.cases} cases)"
    assert str(report) == str(dataclasses.replace(report, elapsed=12.5))
    _count_letters(monkeypatch)
    failing = run_suite("element-lattice-laws", wreath, Options(seed=1))
    assert failing.elapsed >= 0 and failing.failures
    assert str(failing) == str(dataclasses.replace(failing, elapsed=12.5))


def test_non_homogeneous_germ_is_valid():
    assert validate_germ(germ_from_spec(f"file:{A2_B3_FILE}")).ok


def test_element_laws_hold_on_a_non_homogeneous_germ():
    # a = b = 1 and a.a = D = 3 atoms: the length law is not stated there
    report = run_suite("element-lattice-laws", parse_germ(A2_B3))
    assert report.ok
    homogeneous = run_suite("element-lattice-laws", germ_from_spec("wreath"))
    assert report.cases == homogeneous.cases - Options().samples


def test_length_law_failures_render_as_numbers(wreath, monkeypatch):
    _count_letters(monkeypatch)
    report = run_suite("element-lattice-laws", wreath, Options(seed=1))
    assert report.failures
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
    row = g._row_inv[s]
    v, w = sorted(row)[:2]
    row[v], row[w] = row[w], row[v]


def _swap_join(g, s, a=1, b=2):
    """Swap the joins of s with the simples a and b (by default 1 and 2)."""
    row = g._join[s]
    row[a], row[b] = row[b], row[a]


def _same_verdict_fewer_lines(failures, oracle_failures):
    """The oracle's verdict, with failure lines among the oracle's."""
    return bool(failures) == bool(oracle_failures) and set(failures) <= set(oracle_failures)


def _agrees_with_oracle(suite, g, opt):
    """
    The suite's report or GermError text, checked against the per-case
    oracle's.  Each suite compares only some of the oracle's cases:
    complements-lemma those that its inductions cannot carry, lattice-laws
    those that the construction of the meet and join tables does not make
    true.  So its case count is its own: it must give the oracle's verdict,
    failure lines among the oracle's, the same sampled element lines, and
    the same GermError.
    """
    report = _raised_or(lambda: run_suite(suite, g, opt))
    oracle = _raised_or(lambda: _by_cases(suite, g, opt))
    if isinstance(report, str) or isinstance(oracle, str):
        assert report == oracle
        return report
    failures = oracle[1]
    assert _same_verdict_fewer_lines(report.failures, failures)
    sampled = [line for line in failures if line.startswith("element-")]
    assert [line for line in report.failures if line.startswith("element-")] == sampled
    return report


def test_lattice_laws_read_the_germs_rows_in_place():
    # 384 simples, so most entries are no cached small int: a list copy of
    # the meet, join and rjoin tables and their two transposes holds an int
    # object per entry, where the germ's rows hold C ints.  Traced, the copies
    # peaked at about 15 MB, rows read in place with the two transposes at
    # about 3.4 MB, and without them at about 2.1 MB, with both germs' row
    # inverses built beforehand.  The suite now reads no rjoin row and no
    # row inverse (the next test pins that): with nothing built beforehand
    # its peak is still about 2.1 MB.
    g = germ_from_spec("prod:braid:4,abelian:4")
    tracemalloc.start()
    try:
        assert run_suite("lattice-laws", g, Options(samples=0)).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def _forbid_opposite(monkeypatch):
    def opposite(self):
        raise AssertionError("the opposite germ was built")

    monkeypatch.setattr(Germ, "opposite", opposite)


def test_lattice_laws_read_no_rjoin_row_and_no_row_inverse(monkeypatch):
    # s.(s\t) = s v t and its suffix mirror are left out: a complement is read
    # through the inverted product row, so they hold on any table.  So is
    # rcomplement(complement(s)) = s, which validate decides.  What is left
    # reads meet and join rows only: no row inverse, and no opposite germ.
    _forbid_opposite(monkeypatch)
    g = germ_from_spec("braid:4")
    assert run_suite("lattice-laws", g, Options(samples=0)).ok
    assert "_row_inv" not in vars(g)  # the cached property was never read


@pytest.mark.parametrize("spec, left", [("prod:braid:4,braid:3", "1243*1,1324*1,2134*1"),
                                        ("prod:braid:5,abelian:1", "1*e1"), ("wreath", "a,b")])
def test_suites_and_suffix_queries_build_no_opposite_germ(spec, left, monkeypatch):
    # Every suffix read outside validate goes through the completions to delta
    # and the prefix tables.  The CI's `--suite all` decompositions but the
    # 4,320-simple one, whose suites take about 30 s; a builtin germ is not
    # validated as it is built, so nothing needs the opposite beforehand.
    _forbid_opposite(monkeypatch)
    zs = _closure_zs(spec, left)
    g = zs.germ
    for name in [*suites.GERM_SUITES, *suites.ZS_SUITES]:
        assert run_suite(name, zs).ok, name
    rng = random.Random(5)
    xs = [suites._rand_element(g, rng, 6) for _ in range(12)]
    for x, y in zip(xs, xs[1:]):
        el.rgcd(g, x, y), el.rlcm(g, x, y), el.rdivides(g, x, y)
    el.right_divisor_set(g, suites._rand_element(g, rng, 2))  # a long element has many


@pytest.mark.parametrize("suite", BY_CASES)
@pytest.mark.parametrize("spec", ["wreath", "braid:3", "braid:4", "abelian:3",
                                  "prod:braid:4,braid:3", "A2_B3"])
def test_row_suites_agree_with_per_case_oracle(spec, suite):
    g = parse_germ(A2_B3) if spec == "A2_B3" else germ_from_spec(spec)
    _agrees_with_oracle(suite, g, Options(samples=40, seed=3))


def _unset(table, row, col):
    """Make one lattice entry -1: the germ has no meet or join there."""
    table[row][col] = -1


def _unset_meet(g, s):
    _unset(g._meet, s, 1)


def _unset_join(g, s):
    _unset(g._join, s, 2)


def _raised_or(run):
    """What run() returns, or the text of the GermError it raises."""
    try:
        return run()
    except GermError as e:
        return f"GermError: {e}"


@pytest.mark.parametrize("suite", BY_CASES)
@pytest.mark.parametrize("tamper", [_swap_row_inv, _swap_join, _unset_meet, _unset_join],
                         ids=["row-inv", "join", "no-meet", "no-join"])
@pytest.mark.parametrize("spec, row", [("wreath", "a"), ("braid:4", "1243"),
                                       ("braid:4", "2143"), ("prod:braid:4,braid:3", "1243*1")])
def test_row_suites_agree_with_per_case_oracle_on_tampered_tables(spec, row, tamper, suite):
    g = germ_from_spec(spec)
    tamper(g, g.simple(row))
    # the element-level half is left out: it may not survive a broken table
    report = _agrees_with_oracle(suite, g, Options(samples=0))
    if tamper in (_unset_meet, _unset_join):
        # one unreadable entry: the accessor's error wherever the suite reads it
        assert isinstance(report, str) == (tamper is _unset_join or suite == "lattice-laws")
    elif tamper is _swap_row_inv and suite == "lattice-laws":
        # Only a complement reads the row inverses, and s.(s\t) = s v t holds
        # on any inverted row, so neither the suite nor its oracle states it:
        # both pass, and complements-lemma is the suite that shows the swap.
        assert report.ok
    else:
        assert report.failures


def _edit_product(g, rng):
    """Point one product a.b at a random simple, drop it, or define one more."""
    g._row_inv  # built now, the inverted rows keep the old products
    row = g.product_rows[rng.randrange(len(g))]
    b = rng.randrange(len(g))
    if b in row and rng.random() < 0.3:
        del row[b]
    else:
        row[b] = rng.randrange(len(g))


def _swap_random_row_inv(g, rng):
    row = g._row_inv[rng.randrange(len(g))]
    if len(row) > 1:
        v, w = rng.sample(sorted(row), 2)
        row[v], row[w] = row[w], row[v]


def _swap_random_join(g, rng):
    _swap_join(g, rng.randrange(len(g)), *rng.sample(range(len(g)), 2))


# Each table gets one or two of these edits, drawn from its seed; the
# product edits break the premises of the suite's inductions, so its
# fallback to a direct comparison runs.
SEEDED_TAMPERS = (_edit_product, _edit_product, _swap_random_row_inv, _swap_random_join)


@pytest.mark.parametrize("spec", ["wreath", "braid:3", "braid:4", "abelian:3",
                                  "prod:braid:3,braid:2"])
def test_complements_lemma_agrees_with_per_case_oracle_on_seeded_tampers(spec):
    failed = 0
    for seed in range(40):
        rng = random.Random(f"{spec}/{seed}")
        g = germ_from_spec(spec)
        for _ in range(rng.randint(1, 2)):
            rng.choice(SEEDED_TAMPERS)(g, rng)
        report = _agrees_with_oracle("complements-lemma", g, Options(samples=0))
        failed += not report.ok
    assert 0 < failed < 40  # the set holds tables that pass and tables that fail


@pytest.mark.parametrize("spec", ["wreath", "braid:3", "braid:4", "abelian:3",
                                  "prod:braid:4,braid:3"])
def test_complements_lemma_compares_what_its_inductions_cannot_carry(spec):
    # On a germ every simple but 1 and the atoms splits and every premise
    # holds, so the cases compared are: under-product at every column for
    # the pairs whose right factor is 1 or an atom; over-product at the
    # columns 1 and the atoms for every pair, and at the other columns for
    # the pairs (x, s'') that split them, one pair per simple s.
    g = germ_from_spec(spec)
    n, base = len(g), {g.unit, *g.atoms}
    under = n * sum(b in base for row in g.product_rows for b in row)
    over = sum(map(len, g.product_rows)) * len(base) + (n - len(base)) ** 2
    assert run_suite("complements-lemma", g, Options(samples=0)).cases == under + over


def _set_complements(g, table):
    """Make s\\t read table[s][t]: each join entry of s names a new key of
    the inverted row of s, past the simples, that maps to the complement."""
    n, inv = len(g), g._row_inv
    for s, row in enumerate(table):
        for t, u in enumerate(row):
            g._join[s][t] = n + t
            inv[s][n + t] = u


def test_complements_lemma_compares_a_row_whose_induction_premise_fails():
    # 1.e1e2 is made e2 while 1.e1 = e1 and e1.e2 = e1e2, so the premise
    # (1.e1).e2 = 1.e1e2 fails and under-product at (1, e1e2) does not follow
    # from the rows (1, e1) and (e1, e2).  With these complements that row
    # fails and every other case the suite compares holds: a suite that
    # trusted the split without its premise would report ok.
    g = germ_from_spec("abelian:2")
    g._row_inv  # built now, from the products before the edit
    g.product_rows[0][3] = 2
    _set_complements(g, [[0, 1, 2, 3], [0, 0, 2, 2], [0, 1, 2, 3], [0, 0, 2, 2]])
    report = _agrees_with_oracle("complements-lemma", g, Options(samples=0))
    assert report.failures
    assert all(line.startswith("under-product[1, e1e2, ") for line in report.failures)


# -- factor closure against products of elements ------------------------------------

CLOSURE = [("wreath", "a,b"), ("wreath", "c"), ("abelian:3", "e1"),
           ("prod:braid:3,abelian:1", "132*1,213*1"),
           ("prod:braid:4,braid:3", "1243*1,1324*1,2134*1"),
           ("prod:wreath,wreath", "a*1,b*1,1*c"), ("N3_B3", "e1*1,e2*1,e3*1"),
           ("op:wreath", "a,b"), ("op:N3_B3", "1*132,1*213"), ("op:prod:wreath,braid:3", "a*1,b*1")]


def _closure_zs(spec, left):
    """The decomposition of a CLOSURE entry; "op:" names the opposite germ,
    written out as a germ file and parsed back, so validated as it is read."""
    base = spec.removeprefix("op:")
    g = abelian_by_braid3_germ() if base == "N3_B3" else germ_from_spec(base)
    if base != spec:
        g = parse_germ(format_germ(g.opposite()))
    return build(g, [g.simple(nm) for nm in left.split(",")])


@pytest.mark.parametrize("spec, left", CLOSURE, ids=[f"{s}[{l}]" for s, l in CLOSURE])
def test_inverse_steps_are_the_complement_cells(spec, left):
    # The lcm formula g^-1 |> h = g\h with its carry: the inverse step of the
    # carry c on the letter x reads the cell c.(c\x) = x.(x\c) = c v x, and
    # outputs c\x with the next carry x\c for rr-inv and lr-inv, and the
    # suffix mirror, read by rcomp, for rl-inv and ll-inv.
    zs = _closure_zs(spec, left)
    g = zs.germ
    for name, comp in (("rr-inv", g.lcomp), ("lr-inv", g.lcomp),
                       ("rl-inv", g.rcomp), ("ll-inv", g.rcomp)):
        for c, row in zs.steps[name].items():
            for x, step in row.items():
                assert step == (comp(c, x), comp(x, c)), (name, g.names[c], g.names[x])


def _by_pairs(zs, opt, oracle=factor_closure_by_pairs):
    r = _Run(zs.germ)
    oracle(r, zs, opt)
    return r.failures


@pytest.mark.parametrize("spec, left", CLOSURE, ids=[f"{s}[{l}]" for s, l in CLOSURE])
def test_factor_closure_agrees_with_products_of_elements(spec, left):
    zs = _closure_zs(spec, left)
    opt = Options(max_len=3)
    assert run_suite("factor-closure", zs, opt).ok
    assert _by_pairs(zs, opt) == []


@pytest.mark.parametrize("field", ["delta_g", "delta_h"])
@pytest.mark.parametrize("name", ["1", "a", "b", "c", "ab", "ac", "bc", "abc"])
def test_factor_closure_agrees_with_products_of_elements_on_tampered_deltas(
        wreath_zs, field, name):
    zs = dataclasses.replace(wreath_zs, **{field: wreath_zs.germ.simple(name)})
    opt = Options(max_len=3)
    report = run_suite("factor-closure", zs, opt)
    by_pairs = _by_pairs(zs, opt)
    assert report.ok == (by_pairs == [])
    # each counterexample is a pair of simples, so the pairs list it too
    assert set(report.failures) <= set(by_pairs)
    # ac and bc are the two replacements whose divisors are not closed
    assert report.ok == (name not in ("ac", "bc"))
    side = field[-1].upper()
    assert all(line.startswith(f"{side}-closure fails at ") for line in report.failures)


@pytest.mark.parametrize("spec, left", CLOSURE[3:5], ids=["prod:braid:3,abelian:1",
                                                          "prod:braid:4,braid:3"])
def test_factor_closure_reads_neither_length_nor_samples(spec, left):
    zs = _closure_zs(spec, left)
    reports = [run_suite("factor-closure", zs, Options(max_len=n, samples=k))
               for n in (0, 4, 8) for k in (0, 200)]
    assert all(report == reports[0] and report.ok for report in reports)
    # one case per divisor of each factor simple
    g = zs.germ
    op = g.opposite()
    assert reports[0].cases == sum(
        len(set(g.left_divisors(s)) | set(op.left_divisors(s)))
        for delta in (zs.delta_g, zs.delta_h) for s in g.left_divisors(delta))


# -- decomposition uniqueness against products of elements ---------------------------

@pytest.mark.parametrize("spec, left", CLOSURE, ids=[f"{s}[{l}]" for s, l in CLOSURE])
def test_decomposition_uniqueness_agrees_with_products_of_elements(spec, left):
    zs = _closure_zs(spec, left)
    opt = Options(max_len=3)
    assert run_suite("decomposition-uniqueness", zs, opt).ok
    assert _by_pairs(zs, opt, decomposition_uniqueness_by_pairs) == []


@pytest.mark.parametrize("field", ["delta_g", "delta_h"])
@pytest.mark.parametrize("name", ["1", "a", "b", "c", "ab", "ac", "bc", "abc"])
def test_decomposition_uniqueness_agrees_with_products_of_elements_on_tampered_deltas(
        wreath_zs, field, name):
    zs = dataclasses.replace(wreath_zs, **{field: wreath_zs.germ.simple(name)})
    opt = Options(max_len=3)
    report = run_suite("decomposition-uniqueness", zs, opt)
    by_pairs = _by_pairs(zs, opt, decomposition_uniqueness_by_pairs)
    assert report.ok == (by_pairs == [])
    # only the built deltas, ab and c, decompose the wreath monoid
    assert report.ok == (name == {"delta_g": "ab", "delta_h": "c"}[field])
    # the enumeration reports each counterexample with the same count, and
    # each names a simple with no factorisation or with several
    assert set(report.failures) <= set(by_pairs)
    for line in report.failures:
        m = re.fullmatch(r"(\S+) has (\d+) (GH|HG)-factorisations", line)
        assert m and m[2] != "1" and (m[1] in wreath_zs.germ.name_index or m[1] == "D^1"), line


@pytest.mark.parametrize("spec, left", CLOSURE[3:5], ids=["prod:braid:3,abelian:1",
                                                          "prod:braid:4,braid:3"])
def test_decomposition_uniqueness_reads_neither_length_nor_samples(spec, left):
    zs = _closure_zs(spec, left)
    reports = [run_suite("decomposition-uniqueness", zs, Options(max_len=n, samples=k))
               for n in (0, 4, 8) for k in (0, 200)]
    first = reports[0]
    assert all(report == first and report.ok for report in reports)
    # one case per simple and per pair of factor simples, for each of GH and HG
    assert first.cases == 2 * (len(zs.germ) + len(zs.g_simples) * len(zs.h_simples))


# -- the row-wise four-fold decomposition laws against their per-case oracles ---------

FOURFOLD = {"normal-form-criteria": normal_form_criteria_by_cases,
            "join-complement": join_complement_by_cases,
            "poset-product": poset_product_by_cases}
PROD = ("prod:braid:4,braid:3", "1243*1,1324*1,2134*1")


def _outcomes(zs):
    """Per four-fold suite, the row version's outcome and the oracle's: the
    report, or the type and text of the error raised."""
    def outcome(run):
        try:
            return run()
        except (GermError, ValueError) as e:
            return type(e), str(e)

    def by_cases(suite):
        r = _Run(zs.germ)
        FOURFOLD[suite](r, zs, Options())
        return SuiteReport(suite, r.cases, r.failures)

    return {suite: (outcome(lambda: run_suite(suite, zs)), outcome(lambda: by_cases(suite)))
            for suite in FOURFOLD}


def _refused_by_check_all(zs) -> bool:
    """Whether some suite of `check --suite all` refuses zs: it reports a
    failure, or raises (see _caught)."""
    return any(_caught(lambda name=name: run_suite(name, zs))
               for name in [*suites.GERM_SUITES, *suites.ZS_SUITES])


@pytest.mark.parametrize("spec, left", CLOSURE, ids=[f"{s}[{l}]" for s, l in CLOSURE])
def test_fourfold_suites_agree_with_per_case_oracle(spec, left):
    for suite, (rows, by_cases) in _outcomes(_closure_zs(spec, left)).items():
        assert rows == by_cases and rows.ok, suite


@pytest.mark.parametrize("step", ["rr", "rl", "lr", "ll", "rr-inv", "lr-inv"])
def test_fourfold_suites_agree_with_per_case_oracle_on_tampered_steps(step):
    zs = _closure_zs(*PROD)
    carry = sorted(zs.steps[step])[1]
    a, b = sorted(zs.steps[step][carry])[1:3]
    tampered = _tampered(zs, step, carry, a, b)
    outcomes = _outcomes(tampered)
    assert all(rows == by_cases for rows, by_cases in outcomes.values())
    if step in ("lr", "ll"):  # the two tables that the gh|gh criterion reads
        assert outcomes["normal-form-criteria"][0].failures
    else:
        assert _refused_by_check_all(tampered)


@pytest.mark.parametrize("step", ["rr", "lr"])
def test_fourfold_suites_agree_with_per_case_oracle_when_the_unit_acts(step):
    # the unit's outputs 1 and a swapped, so 1 acts on 1 as a: at the column
    # (1, 1), where no pair is normal, the criteria must still hold
    zs = _closure_zs("wreath", "a,b")
    u = zs.germ.unit
    tampered = _tampered(zs, step, u, u, sorted(zs.steps[step][u])[1])
    outcomes = _outcomes(tampered)
    assert all(rows == by_cases for rows, by_cases in outcomes.values())
    if step == "lr":  # a table that the gh|gh criterion reads
        assert outcomes["normal-form-criteria"][0].failures
    else:
        assert _refused_by_check_all(tampered)


ERROR_TAMPERS = [
    # the join row of the unit, 1 and 2 swapped: the two suites that read joins
    # report failures
    ("swap-unit", lambda g, s: _swap_join(g, s("1")), None),
    # two joins of an H-simple swapped: a complement in H leaves H, and an
    # action refuses it
    ("swap-h", lambda g, s: _swap_join(g, s("1*321"), s("1"), s("1432*1")), ValueError),
    # one join missing: the accessor that reads it raises
    ("no-join", lambda g, s: _unset(g._join, s("1*321"), s("1243*132")), GermError),
    # one meet of delta missing, read by the row (1, 1) alone, where an entry
    # read raw as "not 1" would leave both sides equal
    ("no-meet", lambda g, s: _unset(g._meet, g.delta, s("2134*1")), GermError),
    # a missing join(g2, h2), which every row of the two suites that read
    # joins reads, and a missing meet, which normal-form-criteria reads: each
    # raises the error of the entry that it meets first
    ("no-column-join", lambda g, s: (_unset(g._join, s("1243*1"), s("1*132")),
                                     _unset(g._meet, s("4321*231"), g.unit)), GermError),
]


@pytest.mark.parametrize("tamper, error", [t[1:] for t in ERROR_TAMPERS],
                         ids=[t[0] for t in ERROR_TAMPERS])
def test_fourfold_suites_agree_with_per_case_oracle_on_tampered_lattice(tamper, error):
    zs = _closure_zs(*PROD)
    tamper(zs.germ, zs.germ.simple)
    outcomes = _outcomes(zs)
    assert all(rows == by_cases for rows, by_cases in outcomes.values())
    raised = {rows[0] for rows, _ in outcomes.values() if isinstance(rows, tuple)}
    assert raised == ({error} if error else set())
    # so each tamper is refused by a suite of check --suite all: one raises,
    # or the two suites that read joins report failures
    assert error or all(outcomes[suite][0].failures for suite in ("join-complement", "poset-product"))


def test_normal_form_criteria_raises_for_another_entry_than_its_oracle_on_two_missing():
    # A known difference, kept on purpose until ROADMAP item 14 settles it:
    # the suite checks a whole meet or join row through Germ.lattice_row when
    # it first reads it, where the per-case oracle reads one entry at a time,
    # so with two unreadable entries the suite reports the meet that its row
    # check meets first and the oracle the join that its first case reads.
    # Every single missing entry agrees.
    zs = _closure_zs("abelian:3", "e1")
    s = zs.germ.simple
    _unset(zs.germ._join, s("e2e3"), s("e2e3"))
    _unset(zs.germ._meet, s("e1"), s("e1e2e3"))
    rows, by_cases = _outcomes(zs)["normal-form-criteria"]
    assert rows == (GermError, "no meet of 'e1' and 'e1e2e3': germ is not a lattice")
    assert by_cases == (GermError, "no join of 'e2e3' and 'e2e3': germ is not a lattice")


@pytest.mark.parametrize("spec, left", CLOSURE, ids=[f"{s}[{l}]" for s, l in CLOSURE])
def test_fourfold_suites_walk_no_row_of_a_valid_decomposition(spec, left, monkeypatch):
    zs = _closure_zs(spec, left)
    rows = []
    compare = suites._compare_rows

    def recording(r, laws, *args):
        rows.append(laws is not None and all(lhs == rhs for _, lhs, rhs in laws))
        compare(r, laws, *args)

    monkeypatch.setattr(suites, "_compare_rows", recording)
    for suite in FOURFOLD:
        assert run_suite(suite, zs).ok
    assert rows == [True] * (3 * len(zs.g_simples) * len(zs.h_simples))



# -- the mirrored decomposition laws against their one-orientation-at-a-time oracles --------

MIRRORED = {"action-laws": action_laws_by_cases,
            "inverse-interplay": inverse_interplay_by_cases,
            "round-trip": round_trip_by_cases,
            "delta-invariance": delta_invariance_by_cases,
            "complement-action": complement_action_by_cases,
            "complement-transport": complement_transport_by_cases,
            "order-isomorphism": order_isomorphism_by_cases}
# oracles that list their cases in the suite's own order, so the failure
# lines must agree in order too
IN_ORDER = {"complement-transport", "order-isomorphism"}
STEP_SWAPPED = [CLOSURE[0], CLOSURE[3], CLOSURE[6]]


def _mirrored_outcomes(zs, opt, oracles=MIRRORED):
    """Per suite named in oracles, (cases, failures) or the type and text of the
    error raised, of the suite and of its oracle; failures are sorted unless the
    oracle lists its cases in the suite's order."""
    def outcome(name, run):
        try:
            cases, failures = run()
        except (GermError, ValueError) as e:
            return type(e), str(e)
        return cases, failures if name in IN_ORDER else sorted(failures)

    def suite(name):
        report = run_suite(name, zs, opt)
        return report.cases, report.failures

    def by_cases(name):
        r = _Run(zs.germ)
        oracles[name](r, zs, opt)
        return r.cases, r.failures

    return {name: (outcome(name, lambda: suite(name)), outcome(name, lambda: by_cases(name)))
            for name in oracles}


@pytest.mark.parametrize("spec, left", CLOSURE, ids=[f"{s}[{l}]" for s, l in CLOSURE])
def test_mirrored_suites_agree_with_one_orientation_at_a_time(spec, left):
    zs = _closure_zs(spec, left)
    for name, (new, old) in _mirrored_outcomes(zs, Options()).items():
        assert new == old and new[1] == [], name
    # complement-transport reads both orientations: |H||G|^2 + |G||H|^2 pairs of laws
    G, H = len(zs.g_simples), len(zs.h_simples)
    assert run_suite("complement-transport", zs).cases == 2 * (H * G * G + G * H * H)


def _build_failures(zs):
    """What build makes true of its step tables and no suite compares, one line
    per failing case: the round trips GH -> HG -> GH and HG -> GH -> HG on
    simples, each inverse table inverting its forward one, and every output
    and next carry a simple of the factor of the letter and of the carry."""
    act, nm, failures = zs.act, zs.germ.names, []
    for gs in zs.g_simples:
        for hs in zs.h_simples:
            h2, g2 = act("lr", gs, hs), act("ll", gs, hs)
            if (act("rr", h2, g2), act("rl", h2, g2)) != (gs, hs):
                failures.append(f"gh-hg-gh[{nm[gs]}, {nm[hs]}]")
            g3, h3 = act("rr", hs, gs), act("rl", hs, gs)
            if (act("lr", g3, h3), act("ll", g3, h3)) != (hs, gs):
                failures.append(f"hg-gh-hg[{nm[hs]}, {nm[gs]}]")
    for name in ACTIONS:
        # rr and ll carry H-simples through G-letters, rl and lr the reverse
        letter, carry = ((zs.member_g, zs.member_h) if name[:2] in ("rr", "ll")
                         else (zs.member_h, zs.member_g))
        inverse = zs.steps.get(name + "-inv", {})
        for c, row in zs.steps[name].items():
            for x, (y, d) in row.items():
                if not (letter(y) and carry(d)):
                    failures.append(f"{name}[{nm[c]}][{nm[x]}] leaves the factors")
                if inverse and inverse[c].get(y) != (x, d):
                    failures.append(f"{name}-inv[{nm[c]}] does not invert {name} at {nm[x]}")
    return failures


@pytest.mark.parametrize("spec, left", CLOSURE, ids=[f"{s}[{l}]" for s, l in CLOSURE])
def test_build_makes_the_step_tables_round_trip_invert_and_stay_in_the_factors(spec, left):
    assert _build_failures(_closure_zs(spec, left)) == []


@pytest.mark.parametrize("spec, left", STEP_SWAPPED, ids=[s for s, _ in STEP_SWAPPED])
def test_build_failures_catch_every_swapped_step(spec, left):
    # the check above is not vacuous: a swap in a forward table breaks a round
    # trip, and a swap in either table stops the inverse inverting the forward one
    zs = _closure_zs(spec, left)
    swaps = 0
    for step in ACTIONS:
        for carry, row in zs.steps[step].items():
            letters = sorted(row)
            for a, b in zip(letters, letters[1:]):
                swaps += 1
                failures = _build_failures(_tampered(zs, step, carry, a, b))
                round_trips = [line for line in failures if line.startswith(("gh-", "hg-"))]
                assert bool(round_trips) != step.endswith("-inv"), (step, carry, a, b)
                assert any(" does not invert " in line for line in failures)
    assert swaps > 0
    # and an output outside its factor is named
    u, x = zs.germ.unit, zs.g_simples[-1]
    zs.steps["rr-inv"][u][x] = (zs.germ.delta, u)
    assert f"rr-inv[1][{zs.germ.names[x]}] leaves the factors" in _build_failures(zs)


@pytest.mark.parametrize("spec, left", STEP_SWAPPED, ids=[s for s, _ in STEP_SWAPPED])
def test_round_trip_on_words_catches_every_swap_in_a_forward_step_table(spec, left):
    # the default 200 sampled pairs of words reach every swapped step of rr,
    # rl, lr and ll, which the round trip reads
    zs = _closure_zs(spec, left)
    for step in ACTIONS[:4]:
        for carry, row in zs.steps[step].items():
            letters = sorted(row)
            for a, b in zip(letters, letters[1:]):
                assert not run_suite("round-trip", _tampered(zs, step, carry, a, b)).ok


@pytest.mark.parametrize("step", ACTIONS)
@pytest.mark.parametrize("spec, left", STEP_SWAPPED, ids=[s for s, _ in STEP_SWAPPED])
def test_mirrored_suites_agree_with_one_orientation_at_a_time_on_swapped_steps(spec, left, step):
    zs = _closure_zs(spec, left)
    actors = set()  # the actors of complement-transport's failure lines, over all swaps
    swaps = 0
    for carry, row in zs.steps[step].items():
        letters = sorted(row)
        for a, b in zip(letters, letters[1:]):
            swaps += 1
            outcomes = _mirrored_outcomes(_tampered(zs, step, carry, a, b), Options(samples=20))
            assert all(new == old for new, old in outcomes.values()), (carry, a, b)
            failures = outcomes["complement-transport"][0][1]
            assert failures, (carry, a, b)  # the two orientations catch every swap
            actors |= {zs.germ.simple(re.match(r"transport-\w+\[([^,]+),", line).group(1))
                       for line in failures}
    assert swaps > 0
    # on these four tables the second orientation, G acting on H-complements,
    # reports failures of its own
    if step in ("rl", "lr", "rl-inv", "lr-inv"):
        assert actors & (set(zs.g_simples) - {zs.germ.unit})


# the lattice tampers of the four-fold suites, with the error complement-transport
# raises: a complement in H that leaves H is refused by the action that reads it,
# and a missing join of two H-simples by the join accessor
TRANSPORT_TAMPERS = [(name, tamper, error if error is ValueError else None)
                     for name, tamper, error in ERROR_TAMPERS] + [
    ("no-h-join", lambda g, s: _unset(g._join, s("1*321"), s("1*213")), GermError)]


@pytest.mark.parametrize("tamper, error", [t[1:] for t in TRANSPORT_TAMPERS],
                         ids=[t[0] for t in TRANSPORT_TAMPERS])
def test_mirrored_suites_agree_with_one_orientation_at_a_time_on_tampered_lattice(tamper, error):
    zs = _closure_zs(*PROD)
    tamper(zs.germ, zs.germ.simple)
    outcomes = _mirrored_outcomes(zs, Options(samples=20))
    assert all(new == old for new, old in outcomes.values())
    new = outcomes["complement-transport"][0]
    assert new[0] is error if error else isinstance(new[0], int)


def test_poset_product_catches_two_pairs_that_reach_one_join():
    # lcm-formula leaves the injectivity of (g, h) -> join(g, h) to
    # poset-product: an edit that makes two pairs reach one join breaks the
    # product order
    g = wreath_example_germ()  # a fresh germ, as its join table is edited below
    s = g.simple
    zs = build(g, [s("a"), s("b")])
    g._join[s("a")][s("c")] = g._join[s("b")][s("c")]
    report = run_suite("poset-product", zs)
    assert "poset product fails at (a,c) vs (b,c)" in report.failures
    assert not run_suite("lcm-formula", zs).ok


# -- quasicenter's row law against its per-case oracle ---------------------------------

QUASICENTER_CASES = (
    [pytest.param(spec, None, None, id=spec)
     for spec in ("wreath", "braid:3", "braid:4", "abelian:3", "prod:braid:4,braid:3", "A2_B3")]
    + [pytest.param(spec, row, tamper, id=f"{spec}-{row}-{name}")
       for spec, row in (("wreath", "a"), ("braid:4", "1243"), ("braid:4", "2143"),
                         ("prod:braid:4,braid:3", "1243*1"))
       for name, tamper in (("row-inv", _swap_row_inv), ("join", _swap_join))]
    # a join that only the join-compatible law reads
    + [pytest.param("braid:4", "2143", lambda g, s: _unset(g._join, s, g.simple("1324")),
                    id="braid:4-2143-no-join")])


@pytest.mark.parametrize("spec, row, tamper", QUASICENTER_CASES)
def test_quasicenter_agrees_with_per_case_oracle(spec, row, tamper):
    g = parse_germ(A2_B3) if spec == "A2_B3" else germ_from_spec(spec)
    if tamper:
        tamper(g, g.simple(row))
    opt = Options(samples=40, seed=3)

    def outcome(run):
        try:
            return run()
        except (GermError, ValueError) as e:
            return type(e), str(e)

    def by_cases():
        r = _Run(g)
        quasicenter_by_cases(r, g, opt)
        return SuiteReport("quasicenter", r.cases, r.failures)

    assert outcome(lambda: run_suite("quasicenter", g, opt)) == outcome(by_cases)


# -- the two walked suites against their walks over every state ---------------------------

WALKS = {"push-lemma": push_lemma_by_states, "action-preserves-nf": action_preserves_nf_by_states}


def _agrees_with_walk_over_states(new, old):
    """The same verdict, failure lines and cases some of the oracle's; or the same error."""
    if not isinstance(new[0], int) or not isinstance(old[0], int):
        return new == old
    return _same_verdict_fewer_lines(new[1], old[1]) and new[0] <= old[0]


@pytest.mark.parametrize("spec, left", CLOSURE, ids=[f"{s}[{l}]" for s, l in CLOSURE])
def test_walked_suites_agree_with_their_walks_over_states(spec, left):
    for name, (new, old) in _mirrored_outcomes(_closure_zs(spec, left), Options(), WALKS).items():
        assert new[1] == old[1] == [], name
        assert new[0] <= old[0], name


@pytest.mark.parametrize("spec, left", STEP_SWAPPED, ids=[s for s, _ in STEP_SWAPPED])
def test_walked_suites_agree_with_their_walks_over_states_on_swapped_steps(spec, left):
    zs = _closure_zs(spec, left)
    caught = 0
    for step in ("rr", "rr-inv", "lr", "lr-inv"):  # the tables the two walks read
        for carry, row in zs.steps[step].items():
            letters = sorted(row)
            for a, b in zip(letters, letters[1:]):
                outcomes = _mirrored_outcomes(_tampered(zs, step, carry, a, b), Options(), WALKS)
                for name, (new, old) in outcomes.items():
                    assert _agrees_with_walk_over_states(new, old), (name, step, carry, a, b)
                    caught += new[1] != []
    assert caught > 0


def test_walked_suites_walk_fewer_states_on_a_product_of_braids():
    # on prod:braid:4,braid:3 many outputs share their successors
    outcomes = _mirrored_outcomes(_closure_zs(*PROD), Options(), WALKS)
    assert {name: (new[0], old[0]) for name, (new, old) in outcomes.items()} == {
        "push-lemma": (7528, 10434), "action-preserves-nf": (1752, 3384)}


def test_walked_suites_read_no_normal_pair(monkeypatch):
    # both walks read normality off the class of the last output, never per pair
    zs = _closure_zs(*PROD)
    calls = []
    pair = Germ.normal_pair
    monkeypatch.setattr(Germ, "normal_pair", lambda g, s, t: calls.append(1) or pair(g, s, t))
    for name in WALKS:
        assert run_suite(name, zs).ok
    assert calls == []
    zs.germ.normal_pair(zs.germ.unit, zs.germ.unit)
    assert calls == [1]  # the counter sees a call


# -- translation-roundtrip sampled against its enumeration --------------------------

def _caught(run) -> bool:
    """Whether a run of the suite or of its oracle fails or raises: merge_nf
    and psi assert that their words stay normal, and the peel raises."""
    try:
        return bool(run().failures)
    except (AssertionError, ZSError, GermError, ValueError):
        return True


def _by_enumeration(zs, opt):
    r = _Run(zs.germ)
    translation_roundtrip_by_enumeration(r, zs, opt)
    return r


@pytest.mark.parametrize("spec, left", CLOSURE, ids=[f"{s}[{l}]" for s, l in CLOSURE])
def test_translation_roundtrip_and_its_enumeration_pass(spec, left):
    zs = _closure_zs(spec, left)
    assert _by_enumeration(zs, Options()).failures == []
    report = run_suite("translation-roundtrip", zs)
    assert report.ok and report.cases == 5 * Options().samples


PSI_SWAPPED = [CLOSURE[0], CLOSURE[1], PROD]


@pytest.mark.parametrize("spec, left", PSI_SWAPPED, ids=[f"{s}[{l}]" for s, l in PSI_SWAPPED])
def test_translation_roundtrip_catches_every_lr_inv_swap_its_enumeration_catches(spec, left):
    # psi reads one step table, lr-inv; the samples reach what words of up
    # to --max-len atoms reach, and on the product of braids some more
    zs = _closure_zs(spec, left)
    caught = 0
    for carry, row in zs.steps["lr-inv"].items():
        letters = sorted(row)
        for a, b in zip(letters, letters[1:]):
            tampered = _tampered(zs, "lr-inv", carry, a, b)
            if _caught(lambda: _by_enumeration(tampered, Options())):
                caught += 1
                assert _caught(lambda: run_suite("translation-roundtrip", tampered)), (carry, a, b)
    assert caught > 0


def test_hg_oracle_catches_a_wrong_hg_decompose(wreath_zs, monkeypatch):
    # hg-oracle alone runs the HG peel: one that returns the GH parts fails it
    monkeypatch.setattr(zappa_szep, "hg_decompose", zappa_szep.gh_decompose)
    report = run_suite("translation-roundtrip", wreath_zs)
    assert report.failures
    assert all(line.startswith("hg-oracle[") for line in report.failures)


@pytest.mark.parametrize("spec, left", CLOSURE[3:5], ids=["prod:braid:3,abelian:1",
                                                          "prod:braid:4,braid:3"])
def test_translation_roundtrip_reads_no_length_without_samples(spec, left):
    zs = _closure_zs(spec, left)
    reports = [run_suite("translation-roundtrip", zs, Options(max_len=n, samples=0))
               for n in (0, 4, 99999999999999999999)]
    assert all(report == reports[0] for report in reports)
    assert reports[0].cases == 0


# -- tables that build accepts and the action laws on simples reject ----------------

def test_atoms_to_atoms_and_order_isomorphism_reject_a_table_that_build_accepts():
    # on prod:braid:3,abelian:1, swap e1.213 and e1.231 in e1's product row:
    # the divisibility masks keep their values, so build accepts the table,
    # but e1 |> 213 = 231 now, and e1 |> 231 = 213
    zs = _closure_zs(*CLOSURE[3])
    g, s = zs.germ, zs.germ.simple
    rows = [dict(row) for row in g.product_rows]
    e, a, ab = s("1*e1"), s("213*1"), s("231*1")
    rows[e][a], rows[e][ab] = rows[e][ab], rows[e][a]
    swapped = Germ(g.names, g.delta, tuple(rows))
    zs = build(swapped, [s("132*1"), s("213*1")])
    assert not validate_germ(swapped).ok
    assert run_suite("atoms-to-atoms", zs).failures == ["1*e1 |> 213*1 is not an atom"]
    assert {"rr not a prefix iso at (1*e1; 213*1, 231*1)",
            "rr not a prefix iso at (1*e1; 231*1, 213*1)"} <= set(
                run_suite("order-isomorphism", zs).failures)
    # identity-detection needs a broken unit law, which make_germ refuses
    assert run_suite("identity-detection", zs).ok
