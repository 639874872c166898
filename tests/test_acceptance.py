"""
Acceptance criteria, one test per criterion.  Each prints a single
pass/fail line (run with `pytest -s` to see them) and enforces its time
budget.  Sizes and bounds are fixed here, nothing is calibrated later.
"""

import time

import pytest

from garside import (GermValidationError, Options, build, cli, divisor_germ,
                     element as el, germ_from_spec, normal_forms as nfm,
                     quasicenter as qc, run_suite)
from garside import automata
from garside.suites import _Run

from oracles import (AbelianModel, BraidModel, WreathModel, model_check,
                     normal_words_recursive as normal_words,
                     translation_roundtrip_by_enumeration)


def timed(n, desc, budget_s, fn):
    t0 = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"criterion {n} ({desc}): FAIL")
        raise
    dt = time.perf_counter() - t0
    print(f"criterion {n} ({desc}): PASS [{dt:.2f}s < {budget_s}s]")
    assert dt < budget_s


def cli_lines(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out.splitlines()


def decomposable_structures():
    wreath = germ_from_spec("wreath")
    ab3 = germ_from_spec("abelian:3")
    prod = germ_from_spec("prod:braid:3,abelian:1")
    prod_left = [a for a in prod.atoms if prod.names[a].endswith("*1")]
    return [
        ("wreath[a,b]", build(wreath, [wreath.simple("a"), wreath.simple("b")])),
        ("wreath[c]", build(wreath, [wreath.simple("c")])),
        ("abelian:3[e1]", build(ab3, [ab3.simple("e1")])),
        ("abelian:3[e1,e2]", build(ab3, [ab3.simple("e1"), ab3.simple("e2")])),
        ("prod[braid-side]", build(prod, prod_left)),
    ]


def test_criterion_1_wreath_fidelity(capsys):
    def body():
        lines = cli_lines(capsys, "classes", "--germ", "wreath")
        assert lines == ["{a,b} -> ab", "{c} -> c"]
        wreath = germ_from_spec("wreath")
        a = wreath.simple("a")
        assert wreath.names[qc.delta_of_simple(wreath, a)] == "ab"
        factor = divisor_germ(wreath, el.simple(wreath, wreath.simple("ab")))
        assert factor.names[qc.delta_of_simple(factor, factor.simple("a"))] == "a"
        lines = cli_lines(capsys, "decompose", "--germ", "wreath", "--left", "a,b")
        assert "delta_G: ab" in lines
        assert "delta_H: c" in lines
        assert "delta_G*delta_H: abc" in lines
        assert "delta_K: abc" in lines

    timed(1, "wreath example fidelity", 1.0, body)


def test_criterion_2_indecomposability(capsys):
    def body():
        for n in (3, 4):
            lines = cli_lines(capsys, "pure", "--germ", f"braid:{n}")
            assert lines[0] == "delta-pure: true"
            assert lines[1] == "atom-classes: 1"
        for k in (2, 3, 5):
            lines = cli_lines(capsys, "pure", "--germ", f"abelian:{k}")
            assert lines[0] == "delta-pure: false"
            assert lines[1] == f"atom-classes: {k}"

    timed(2, "indecomposability", 1.0, body)


LEMMA_SUITES = [
    "action-laws", "identity-detection", "round-trip", "inverse-interplay",
    "order-isomorphism", "complement-transport", "lcm-formula",
    "poset-product", "join-complement", "delta-invariance",
    "complement-action", "complement-of-join", "factor-closure",
    "atoms-to-atoms", "decomposition-uniqueness", "local-deltas",
]


def test_criterion_3_lemma_suites():
    def body():
        opt = Options(max_len=4, samples=1000, seed=0)
        structures = [(n, zs) for n, zs in decomposable_structures()
                      if n in ("wreath[a,b]", "abelian:3[e1]", "prod[braid-side]")]
        for tag, zs in structures:
            for suite in LEMMA_SUITES:
                report = run_suite(suite, zs, opt)
                assert report.ok, f"{tag}: {report}"

    timed(3, "lemma suites, exhaustive + 1000 word samples", 30.0, body)


def test_criterion_4_normal_form_criteria():
    def body():
        opt = Options(max_len=4, samples=200, seed=0)
        for tag, zs in decomposable_structures():
            report = run_suite("normal-form-criteria", zs, opt)
            assert report.ok, f"{tag}: {report}"
            report = run_suite("push-lemma", zs, opt)
            assert report.ok, f"{tag}: {report}"
            report = run_suite("action-preserves-nf", zs, opt)
            assert report.ok, f"{tag}: {report}"

    timed(4, "normal-form criteria vs definition oracle", 30.0, body)


def test_criterion_5_translation_algorithms():
    def body():
        opt = Options(max_len=5, samples=200, seed=0)
        for tag, zs in decomposable_structures():
            report = run_suite("translation-roundtrip", zs, opt)
            assert report.ok, f"{tag}: {report}"
            r = _Run(zs.germ)
            translation_roundtrip_by_enumeration(r, zs, opt)
            assert r.cases and r.failures == [], f"{tag}: {r.failures}"

    timed(5, "split/merge round trips and oracles, every word and 200 samples of length <= 5",
          60.0, body)


def test_criterion_6_bijections():
    def body():
        for tag, zs in decomposable_structures():
            g = zs.germ
            g_alpha = tuple(s for s in zs.g_simples if s != g.unit)
            h_alpha = tuple(s for s in zs.h_simples if s != g.unit)
            full = tuple(s for s in range(len(g)) if s != g.unit)

            k_by_len: dict[int, int] = {}
            for letters in normal_words(g, full, 5):
                n = sum(g.atom_len[s] for s in letters)
                k_by_len[n] = k_by_len.get(n, 0) + 1

            phi_images = set()
            psi_images = set()
            pair_by_len: dict[int, int] = {}
            pairs = 0
            for gl in normal_words(g, g_alpha, 5):
                glen = sum(g.atom_len[s] for s in gl)
                for hl in normal_words(g, h_alpha, 5 - glen):
                    pairs += 1
                    n = glen + sum(g.atom_len[s] for s in hl)
                    pair_by_len[n] = pair_by_len.get(n, 0) + 1
                    p = nfm.NFPair(el._from_letters(gl, zs.delta_g),
                                   el._from_letters(hl, zs.delta_h))
                    w = nfm.merge_nf(zs, p)
                    assert sum(g.atom_len[s] for s in el.letters(g, w)) == n
                    phi_images.add(w)
                    psi_images.add(nfm.psi(zs, p))
            assert len(phi_images) == pairs, tag
            assert len(psi_images) == pairs, tag
            assert pair_by_len == k_by_len, tag

    timed(6, "phi and psi bijective on length <= 5", 60.0, body)


def test_criterion_7_automata():
    def body():
        opt = Options(max_len=4, samples=50, seed=0)
        for tag, zs in decomposable_structures():
            report = run_suite("automata-translation", zs, opt)
            assert report.ok, f"{tag}: {report}"
            g = zs.germ
            for variant in ("proper", "full"):
                acceptor = automata.build_nf_automaton(g, variant)
                alpha = acceptor.letters

                def brute(n: int) -> int:
                    if n == 0:
                        return 1
                    counts = {s: 1 for s in alpha}
                    for _ in range(n - 1):
                        nxt = {}
                        for x, c in counts.items():
                            for y in alpha:
                                if g.normal_pair(x, y):
                                    nxt[y] = nxt.get(y, 0) + c
                        counts = nxt
                    return sum(counts.values())

                for n in range(7):
                    assert automata.count_accepted(acceptor, n) == brute(n), \
                        (tag, variant, n)

    timed(7, "automata translation and counts, length <= 6", 30.0, body)


def test_criterion_8_oracle_ground_truth():
    def body():
        model_check(germ_from_spec("braid:3"), BraidModel(3), 4)
        model_check(germ_from_spec("braid:4"), BraidModel(4), 4)
        for k in (2, 3, 4):
            model_check(germ_from_spec(f"abelian:{k}"), AbelianModel(k), 4)
        model_check(germ_from_spec("wreath"), WreathModel(), 4)

    timed(8, "element arithmetic vs explicit models, length <= 4", 60.0, body)


def test_criterion_9_unbalanced_garside_element_rejected():
    def body():
        wreath = germ_from_spec("wreath")
        aabc = el.normal_form(
            wreath, [wreath.simple("a"), wreath.simple("a"),
                     wreath.simple("b"), wreath.simple("c")])
        assert not el.is_balanced(wreath, aabc)
        witness = el.balance_witness(wreath, aabc)
        assert witness is not None
        left = el.left_divisor_set(wreath, aabc)
        right = el.right_divisor_set(wreath, aabc)
        assert (witness in left) != (witness in right)
        with pytest.raises(GermValidationError) as exc:
            divisor_germ(wreath, aabc)
        failures = exc.value.report.failures()
        assert [c.axiom for c in failures] == ["balanced-delta"]
        assert failures[0].witness

    timed(9, "unbalanced delta' detected with witness", 1.0, body)
