import random
import signal

import pytest

from garside import (GermError, automata, build, germ_from_spec, parse_germ,
                     wreath_example_germ, element as el)
from garside.element import NormalWord
from garside.germ import Germ, format_germ, make_germ

from oracles import (AbelianModel, BraidModel, FixpointArithmetic, ProductModel,
                     WreathModel, elements_by_levels, model_check, rgcd_by_opposite,
                     right_complement_by_opposite, right_divisor_set_by_opposite,
                     successors_by_letters)
from test_suites import A2_B3, CLOSURE, _closure_zs


def nf_names(g, w):
    return el.format_nf(g, w)


def word(g, text):
    return [g.simple(t) for t in text.split(".")] if text else []


def test_normal_form_examples(wreath):
    assert el.normal_form(wreath, word(wreath, "a.bc")) == NormalWord(1, ())
    assert el.normal_form(wreath, []) == NormalWord(0, ())
    assert nf_names(wreath, el.normal_form(wreath, word(wreath, "a.a.c"))) == "ac|b"


def test_normal_form_handles_interior_units_and_deltas(wreath):
    u, d = wreath.unit, wreath.delta
    a = wreath.simple("a")
    assert el.normal_form(wreath, [a, u, a]) == el.normal_form(wreath, [a, a])
    w = el.normal_form(wreath, [a, d])
    assert w.deltas == 1 and len(w.factors) == 1
    assert el.normal_form(wreath, [u, u]) == el.UNIT


def test_multiply_examples(wreath):
    c = el.simple(wreath, wreath.simple("c"))
    a = el.simple(wreath, wreath.simple("a"))
    assert nf_names(wreath, el.multiply(wreath, c, a)) == "bc"
    x = el.normal_form(wreath, word(wreath, "a.c.b"))
    assert el.multiply(wreath, x, el.UNIT) == x
    assert nf_names(wreath, el.multiply(wreath, a, a)) == "a|a"


def test_inf_sup_cl(wreath):
    w = el.normal_form(wreath, [wreath.delta, wreath.simple("a")])
    assert (w.inf, w.sup, len(w.factors)) == (1, 2, 1)
    assert (el.UNIT.inf, el.UNIT.sup, len(el.UNIT.factors)) == (0, 0, 0)


def test_gcd_examples(wreath):
    ab = el.simple(wreath, wreath.simple("ab"))
    ac = el.simple(wreath, wreath.simple("ac"))
    assert nf_names(wreath, el.gcd(wreath, ab, ac)) == "a"
    assert el.gcd(wreath, ab, el.UNIT) == el.UNIT
    aac = el.normal_form(wreath, word(wreath, "a.a.c"))
    a_c = el.normal_form(wreath, word(wreath, "a.c"))
    assert nf_names(wreath, el.gcd(wreath, aac, a_c)) == "ac"


def test_complement_and_lcm_examples(wreath):
    c = el.simple(wreath, wreath.simple("c"))
    a = el.simple(wreath, wreath.simple("a"))
    assert nf_names(wreath, el.left_complement(wreath, c, a)) == "b"
    x = el.normal_form(wreath, word(wreath, "b.c.a"))
    assert el.left_complement(wreath, x, x) == el.UNIT
    assert nf_names(wreath, el.lcm(wreath, a, c)) == "ac"


def test_divides_examples(wreath):
    b = el.simple(wreath, wreath.simple("b"))
    ac = el.normal_form(wreath, word(wreath, "a.c"))
    assert el.divides(wreath, el.UNIT, ac)
    assert not el.divides(wreath, b, ac)
    assert el.divides(wreath, el.simple(wreath, wreath.simple("a")), ac)


def test_right_variants(wreath, ab2):
    x = el.normal_form(wreath, word(wreath, "c.a"))
    assert el.rgcd(wreath, x, el.UNIT) == el.UNIT
    # the right complement of c under delta completes c to delta
    c = el.simple(wreath, wreath.simple("c"))
    d = el.normal_form(wreath, [wreath.delta])
    rc = el.right_complement(wreath, c, d)
    assert el.multiply(wreath, rc, c) == d
    # in a commutative germ both orders agree
    elems = list(elements_by_levels(ab2, 3))
    for x in elems:
        for y in elems:
            assert el.rgcd(ab2, x, y) == el.gcd(ab2, x, y)
            assert el.rlcm(ab2, x, y) == el.lcm(ab2, x, y)


SUFFIX_SPECS = ["wreath", "braid:4", "abelian:3", "prod:braid:3,braid:3",
                "prod:braid:4,abelian:1", "A2_B3"]


@pytest.mark.parametrize("opposite", [False, True], ids=["germ", "opposite"])
@pytest.mark.parametrize("spec", SUFFIX_SPECS)
def test_suffix_order_agrees_with_the_opposite_germ_route(spec, opposite):
    # The suffix queries read the prefix tables through the complement to
    # Delta^k; the oracle reads elements backwards in the opposite germ.  The
    # opposite of a valid germ is valid too, as the axioms are symmetric.
    g = parse_germ(A2_B3) if spec == "A2_B3" else germ_from_spec(spec)
    if opposite:
        g = parse_germ(format_germ(g.opposite()))
    op, rng = g.opposite(), random.Random(len(g))

    def sample(deltas, letters):
        w = [rng.randrange(len(g)) for _ in range(rng.randint(0, letters))]
        return el.multiply(g, el.delta_power(g, rng.randint(0, deltas)), el.normal_form(g, w))

    elems = [sample(3, 6) for _ in range(60)] + [el.delta_power(g, 2 ** 64 + 5),
                                                 el.multiply(g, el.delta_power(g, 2 ** 70), sample(0, 3))]
    for x, y in [*zip(elems, elems[1:] + elems[:1]), *zip(elems, elems[::-1])]:
        assert el.rgcd(g, x, y) == rgcd_by_opposite(g, op, x, y), (x, y)
        assert el.right_complement(g, x, y) == right_complement_by_opposite(g, op, x, y), (x, y)
    for x in [sample(1, 2) for _ in range(8)]:
        assert el.right_divisor_set(g, x) == right_divisor_set_by_opposite(g, op, x), x


def test_normal_form_idempotent_and_confluent(wreath, b3):
    rng = random.Random(7)
    for g in (wreath, b3):
        for _ in range(300):
            letters = [rng.randrange(len(g)) for _ in range(rng.randint(0, 6))]
            nf = el.normal_form(g, letters)
            assert el.is_normal(g, nf)
            assert el.normal_form(g, el.letters(g, nf)) == nf
            # random rewriting order reaches the same form
            w = list(letters)
            while True:
                bad = [i for i in range(len(w) - 1)
                       if g.meet(g.complement(w[i]), w[i + 1]) != g.unit]
                if not bad:
                    break
                i = rng.choice(bad)
                u = g.meet(g.complement(w[i]), w[i + 1])
                w[i], w[i + 1] = g.product(w[i], u), g.lcomp(u, w[i + 1])
            assert el.normal_form(g, w) == nf


def test_complements_lemma_on_simples(wreath, b3):
    for g in (wreath, b3):
        for a in range(len(g)):
            for b, ab in g.product_rows[a].items():
                for c in range(len(g)):
                    assert g.lcomp(ab, c) == g.lcomp(b, g.lcomp(a, c))
                    rhs = g.product(g.lcomp(c, a), g.lcomp(g.lcomp(a, c), b))
                    assert g.lcomp(c, ab) == rhs


def test_atom_length_additive(wreath, b3, ab2):
    for g in (wreath, b3, ab2):
        elems = list(elements_by_levels(g, 3))
        for x in elems:
            for y in elems:
                assert el.atom_length(g, el.multiply(g, x, y)) == \
                    el.atom_length(g, x) + el.atom_length(g, y)


def test_braid_matches_permutation_model(b3, b4):
    model_check(b3, BraidModel(3), 4)
    model_check(b4, BraidModel(4), 4)


def test_abelian_matches_vector_model(ab2, ab3):
    model_check(ab2, AbelianModel(2), 4)
    model_check(ab3, AbelianModel(3), 4)


def test_product_above_256_simples_matches_model(prod_b4a4):
    words, elements = model_check(prod_b4a4, ProductModel(BraidModel(4), AbelianModel(4)), 4)
    assert words == sum(7 ** n for n in range(5))
    assert elements < words


def test_wreath_matches_triple_model(wreath):
    model_check(wreath, WreathModel(), 4)


def test_presentation_rewriting_model(wreath, b3):
    from oracles import RelationModel
    # wreath: ab=ba, ac=cb, bc=ca over atoms a=0, b=1, c=2
    model_check(wreath, RelationModel(
        3, ["a", "b", "c"],
        [[(0, 1), (1, 0)], [(0, 2), (2, 1)], [(1, 2), (2, 0)]]), 5)
    # braid on 3 strands: sts = tst with s = 213, t = 132
    model_check(b3, RelationModel(
        2, ["213", "132"], [[(0, 1, 0), (1, 0, 1)]]), 5)


def test_gcd_against_divisor_enumeration(wreath, b3):
    # brute-force gcd: the maximal common element of the two divisor sets
    for g in (wreath, b3):
        elems = list(elements_by_levels(g, 3))
        for x in elems[:20]:
            for y in elems[:20]:
                common = el.left_divisor_set(g, x) & el.left_divisor_set(g, y)
                best = max(common, key=lambda w: el.atom_length(g, w))
                got = el.gcd(g, x, y)
                assert got in common
                assert el.atom_length(g, got) == el.atom_length(g, best)


def test_element_lattice_laws_length_6(wreath, b3, ab2):
    from garside import Options, run_suite
    for g in (wreath, b3, ab2):
        for suite in ("element-lattice-laws", "complements-lemma",
                      "normal-form-confluence", "lattice-laws", "quasicenter"):
            report = run_suite(suite, g, Options(max_len=6, samples=150, seed=2))
            assert report.ok, str(report)


def test_balance(wreath):
    d = el.normal_form(wreath, [wreath.delta])
    assert el.is_balanced(wreath, d)
    aab = el.normal_form(wreath, word(wreath, "a.a.b"))
    assert el.is_balanced(wreath, aab)
    aabc = el.normal_form(wreath, word(wreath, "a.a.b.c"))
    w = el.balance_witness(wreath, aabc)
    assert w is not None
    left = el.left_divisor_set(wreath, aabc)
    right = el.right_divisor_set(wreath, aabc)
    assert (w in left) != (w in right)


def _braid_words(g, rng, long, deltas):
    """
    Atom words up to `long` letters, Delta-heavy words over all simples,
    and words with Delta powers in front and behind, the longest Delta^deltas.
    """
    atoms = list(g.atoms)
    everything = range(len(g))
    words = [[rng.choice(atoms) for _ in range(n)] for n in (long, long // 3, 41)]
    words += [[rng.choice(everything) for _ in range(n)] for n in (21, 12)]
    words.append([g.delta] * 3 + [rng.choice(everything) for _ in range(9)] + [g.delta] * 2)
    words.append([g.delta] * deltas + [rng.choice(atoms) for _ in range(20)])
    return words


@pytest.mark.parametrize("fixture, n", [("b4", 4), ("b5", 5)])
def test_sweep_matches_braid_model(request, fixture, n):
    g = request.getfixturevalue(fixture)
    model = BraidModel(n)
    words = _braid_words(g, random.Random(n), 120, 4)
    spelled = [[a for s in w for a in model.atom_word(model.perm_of(g.names[s]))]
               for w in words]

    def value(w):
        return (w.deltas, tuple(model.perm_of(g.names[f]) for f in w.factors))

    nfs = [el.normal_form(g, w) for w in words]
    for atoms, nf in zip(spelled, nfs):
        assert el.is_normal(g, nf)
        assert value(nf) == model.value(atoms)
    for i in range(1, len(words) - 1):
        assert value(el.multiply(g, nfs[i + 1], nfs[i])) == model.value(spelled[i + 1] + spelled[i])


@pytest.mark.parametrize("fixture", ["b4", "b5"])
def test_element_operations_match_fixpoint_reference(request, fixture):
    g = request.getfixturevalue(fixture)
    ref = FixpointArithmetic(g)
    words = _braid_words(g, random.Random(len(g)), 400, 25)
    nfs = [el.normal_form(g, w) for w in words]
    assert nfs == [ref.normal_form(w) for w in words]
    short = el.normal_form(g, words[2][:6])
    pairs = [(nfs[0], nfs[1]), (nfs[1], nfs[0]), (nfs[3], nfs[5]), (nfs[5], nfs[6]),
             (nfs[6], nfs[2]), (short, nfs[2]), (nfs[2], short), (nfs[4], nfs[4]),
             (el.UNIT, nfs[3]), (el.delta_power(g, 30), nfs[2])]
    for x, y in pairs:
        for op in ("multiply", "gcd", "lcm", "left_complement", "divides"):
            assert getattr(el, op)(g, x, y) == getattr(ref, op)(x, y), op
    for x, y in pairs[2:]:
        for op in ("right_complement", "rdivides"):
            assert getattr(el, op)(g, x, y) == getattr(ref, op)(x, y), op
    assert el.divides(g, short, nfs[2])
    assert el.rdivides(g, nfs[4], el.multiply(g, nfs[3], nfs[4]))


def test_order_three_twist_matches_fixpoint_reference():
    # Here tau = comp^2 cycles the atoms a -> c -> b, so how far a letter
    # is twisted depends on the Delta power mod 3, not just its parity.
    from test_germ import CYCLIC_FILE

    g = parse_germ(CYCLIC_FILE)
    ref = FixpointArithmetic(g)
    rng = random.Random(3)
    words = [[rng.randrange(len(g)) for _ in range(rng.randint(0, 12))] for _ in range(30)]
    words += [[g.delta] * k + w + [g.delta] * (k // 2) for k, w in enumerate(words[:8])]
    nfs = [el.normal_form(g, w) for w in words]
    assert nfs == [ref.normal_form(w) for w in words]
    for x, y in zip(nfs, nfs[1:] + [el.delta_power(g, 4)]):
        for op in ("multiply", "gcd", "lcm", "left_complement", "divides",
                   "right_complement", "rdivides"):
            assert getattr(el, op)(g, x, y) == getattr(ref, op)(x, y), op


class _CountingRows:
    """A lattice table that counts its row lookups."""

    def __init__(self, rows):
        self.rows = rows
        self.lookups = 0

    def __getitem__(self, s):
        self.lookups += 1
        return self.rows[s]


def test_delta_powers_cost_no_lattice_lookups(b4, monkeypatch):
    rng = random.Random(5)
    w = [rng.choice(b4.atoms) for _ in range(60)]
    x = el.normal_form(b4, w)
    d = b4.delta
    plain = {t: getattr(b4, t) for t in ("_meet", "_join")}
    work = {}
    for k in (0, 1, 2, 7, 1000):
        tables = {t: _CountingRows(rows) for t, rows in plain.items()}
        for t, rows in tables.items():
            monkeypatch.setattr(b4, t, rows)
        counts = []
        for call in (lambda: el.normal_form(b4, [d] * k + w),
                     lambda: el.normal_form(b4, w + [d] * k),
                     lambda: el.multiply(b4, x, el.delta_power(b4, k))):
            before = sum(rows.lookups for rows in tables.values())
            assert call().deltas >= k
            counts.append(sum(rows.lookups for rows in tables.values()) - before)
        work[k] = counts
    assert len(set(map(tuple, work.values()))) == 1, work
    assert work[0][2] == 0


def test_sweep_keeps_germ_errors():
    # Unvalidated: x and y have no meet, and r.x = D puts comp r = x against
    # a following y.
    g = make_germ(["1", "p", "q", "s", "x", "y", "r", "D"], "D",
                  [("p", "q", "x"), ("q", "p", "x"), ("p", "s", "y"), ("q", "s", "y"),
                   ("r", "x", "D")])
    with pytest.raises(GermError, match="^no meet of 'x' and 'y': germ is not a lattice$"):
        el.normal_form(g, [g.simple("r"), g.simple("y")])
    # Unvalidated: a.c = b.c = D, so comp is not injective and neither is tau.
    g = make_germ(["1", "a", "b", "c", "D"], "D",
                  [("a", "c", "D"), ("b", "c", "D"), ("c", "a", "D")])
    with pytest.raises(GermError, match="not a bijection"):
        el.multiply(g, el.simple(g, g.simple("b")), el.delta_power(g, 1))



def test_gcd_ends_on_a_germ_that_is_not_cancellative():
    # Unvalidated: the wreath germ with ab.ab = ab, which build accepts and
    # validate rejects.  ab\ab is ab again, so dividing the head ab out of ab
    # would leave ab for ever; an alarm turns such a loop into a failure.
    w = wreath_example_germ()
    rows = [dict(row) for row in w.product_rows]
    ab = w.simple("ab")
    rows[ab][ab] = ab
    g = Germ(w.names, w.delta, tuple(rows))
    build(g, [g.simple("a"), g.simple("b")])

    def stop(*_):
        raise TimeoutError("gcd did not end")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(2)
    try:
        with pytest.raises(GermError, match=r"^ab\\ab is ab, no shorter than ab: "):
            el.gcd(g, el.simple(g, ab), el.simple(g, ab))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

@pytest.mark.parametrize("tamper, error", [
    ("meet", "no meet of '3421' and '2134': germ is not a lattice"),
    ("complement", "simple '1243' has no right completion to delta")])
def test_successors_raise_the_error_of_normal_pair(b4, tamper, error):
    # a fresh braid:4 in which 1243 or its complement 3421 can no longer be read
    g = parse_germ(format_germ(b4))
    s = g.simple("1243")
    if tamper == "meet":
        g._meet[g.complement(s)][g.simple("2134")] = -1
    else:
        g._comp[s] = -1
    alphabet = [t for t in range(len(g)) if t != g.unit]
    with pytest.raises(GermError) as by_pairs:
        for x in alphabet:
            for y in alphabet:
                g.normal_pair(x, y)
    with pytest.raises(GermError) as by_rows:
        el._successors(g, alphabet)
    assert str(by_rows.value) == str(by_pairs.value) == error


def test_successors_and_acceptors_read_no_meet_outside_their_letters(b4):
    # A missing meet in a column that no letter reads raises nothing: at
    # 2134 for the successors over an alphabet without it, and at delta in
    # every complement's row for the proper acceptor, whose letters skip
    # delta; the full acceptor reads that column and raises.
    g = parse_germ(format_germ(b4))
    skipped = g.simple("2134")
    g._meet[g.complement(g.simple("1243"))][skipped] = -1
    alphabet = [t for t in range(len(g)) if t not in (g.unit, skipped)]
    assert el._successors(g, alphabet) == el._successors(b4, alphabet)
    g = parse_germ(format_germ(b4))
    for s in range(len(g)):
        g._meet[g.complement(s)][g.delta] = -1
    assert automata.build_nf_automaton(g, "proper") == automata.build_nf_automaton(b4, "proper")
    with pytest.raises(GermError, match="germ is not a lattice$"):
        automata.build_nf_automaton(g, "full")


# -- the successor table against its per-letter scan ------------------------------

def _alphabets(spec, left):
    """The alphabets and tops to compare.  For a germ: its letters but the unit,
    and those without its first atom as a prefix, over which atom sets that
    differ only in that atom give one list.  For a decomposition: the letters of
    K, and each factor's with the factor's delta."""
    if left is None:
        g = germ_from_spec(spec)
        return g, [([s for s in range(1, len(g))], None),
                   ([s for s in range(1, len(g)) if not g.left_divides(g.atoms[0], s)], None)]
    zs = _closure_zs(spec, left)
    return zs.germ, [([s for s in range(1, len(zs.germ))], None)] + [
        ([s for s in simples if s != zs.germ.unit], top)
        for simples, top in ((zs.g_simples, zs.delta_g), (zs.h_simples, zs.delta_h))]


@pytest.mark.parametrize("spec, left", [("braid:4", None), ("braid:6", None)] + CLOSURE,
                         ids=["braid:4", "braid:6"] + [f"{s}[{l}]" for s, l in CLOSURE])
def test_successor_table_matches_the_per_letter_scan(spec, left):
    g, alphabets = _alphabets(spec, left)
    for alphabet, top in alphabets:
        scan = successors_by_letters(g, alphabet)
        table = el._successors(g, alphabet)
        assert {s: list(follow) for s, follow in table.items()} == scan
        # letters with equal successors share one object, and only they do
        assert len({id(f) for f in table.values()}) == len({tuple(f) for f in table.values()})
        assert table is el._successors(g, tuple(alphabet))  # kept
        if top is not None:  # a factor's own criterion, x\\top for comp x, is the germ's
            assert scan == {s: [t for t in alphabet if g.meet(g.lcomp(s, top), t) == g.unit]
                            for s in alphabet}


def test_successor_table_reads_one_meet_row_per_atom_set():
    # the proper acceptor of a fresh braid:6 reads 30 meet rows for its 718 letters
    g = germ_from_spec("braid:6")
    automata.build_nf_automaton(g, "proper")
    assert len(g._meet) == 30
