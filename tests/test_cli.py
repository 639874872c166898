import decimal
import random
import time

import pytest

from garside import automata, cli, element, germ_from_spec, validate_germ
from garside import builtins as germ_builtins
from garside.builtins import GermSpec
from garside.suites import GERM_SUITES, ZS_SUITES

WREATH_FILE = """\
germ v1
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


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pure(capsys):
    code, out, _ = run(capsys, "pure", "--germ", "braid:3")
    assert code == 0
    assert out == "delta-pure: true\natom-classes: 1\n"


def test_pure_refuses_a_germ_with_no_atoms(capsys):
    # the answer of quasicenter.is_delta_pure, which has none to give here
    code, out, err = run(capsys, "pure", "--germ", "abelian:0")
    assert (code, out, err) == (1, "", "error: delta-purity needs at least one atom\n")


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", "--germ", "wreath", "a.bc")
    assert code == 0 and out == "D^1\n"
    code, out, _ = run(capsys, "nf", "--germ", "wreath", "a.a.c")
    assert out == "ac|b\n"
    code, out, _ = run(capsys, "nf", "--germ", "wreath", "1")
    assert out == "1\n"


def test_trivial_germ_gives_one_normal_form_to_each_element(capsys):
    # Delta is the unit of abelian:0, so every Delta power is 1
    for argv, answer in ((["nf", "D^3"], "1"), (["nf", "1.D^4.1"], "1"), (["lcm", "1", "D^2"], "1"),
                         (["gcd", "D^2", "D^5"], "1"), (["divides", "D^3", "1"], "true"),
                         (["divides", "1", "D^3"], "true")):
        assert run(capsys, argv[0], "--germ", "abelian:0", *argv[1:]) == (0, answer + "\n", ""), argv
    g = germ_from_spec("abelian:0")
    assert element.delta_power(g, 3) == element.UNIT
    assert not element.is_normal(g, element.NormalWord(3, ()))


def test_gcd_lcm_divides(capsys):
    code, out, _ = run(capsys, "gcd", "--germ", "wreath", "ab", "ac")
    assert out == "a\n"
    code, out, _ = run(capsys, "lcm", "--germ", "wreath", "a", "c")
    assert out == "ac\n"
    code, out, _ = run(capsys, "divides", "--germ", "wreath", "b", "a.c")
    assert out == "false\n"
    code, out, _ = run(capsys, "divides", "--germ", "wreath", "1", "a.c")
    assert out == "true\n"


def test_deltas_classes(capsys):
    code, out, _ = run(capsys, "deltas", "--germ", "wreath")
    assert out == "a -> ab\nb -> ab\nc -> c\n"
    code, out, _ = run(capsys, "classes", "--germ", "wreath")
    assert out == "{a,b} -> ab\n{c} -> c\n"


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--germ", "wreath", "--left", "a,b")
    assert code == 0
    lines = out.splitlines()
    assert "delta_G: ab" in lines
    assert "delta_H: c" in lines
    assert "delta_G*delta_H: abc" in lines
    assert "check: ok" in lines


def test_gh_hg(capsys):
    code, out, _ = run(capsys, "gh", "--germ", "wreath", "--left", "a,b", "c.a")
    assert out == "G: b\nH: c\n"
    code, out, _ = run(capsys, "hg", "--germ", "wreath", "--left", "a,b", "c.a")
    assert out == "H: c\nG: a\n"


def test_act(capsys):
    code, out, _ = run(capsys, "act", "--germ", "wreath", "--left", "a,b",
                       "--op", "rr", "--h", "c", "--g", "a")
    assert out == "b\n"
    code, out, _ = run(capsys, "act", "--germ", "wreath", "--left", "a,b",
                       "--op", "rr", "--h", "c", "--g", "a.a")
    assert out == "b.b\n"
    code, out, _ = run(capsys, "act", "--germ", "wreath", "--left", "a,b",
                       "--op", "rr-inv", "--h", "c", "--g", "b")
    assert out == "a\n"
    code, out, _ = run(capsys, "act", "--germ", "wreath", "--left", "a,b",
                       "--op", "lr", "--h", "c", "--g", "a.a")
    assert out == "c\n"


def test_split_merge(capsys):
    code, out, _ = run(capsys, "merge-nf", "--germ", "wreath", "--left", "a,b",
                       "a|a", "c")
    assert code == 0 and out == "ac|b\n"
    code, out, _ = run(capsys, "split-nf", "--germ", "wreath", "--left", "a,b",
                       "a.a.c")
    assert out == "G: a|a\nH: c\n"
    # textual round trip: split output feeds back into merge
    code, out, _ = run(capsys, "merge-nf", "--germ", "wreath", "--left", "a,b",
                       "ab|a", "c")
    code2, out2, _ = run(capsys, "split-nf", "--germ", "wreath", "--left", "a,b",
                         out.strip().replace("|", "."))
    assert out2 == "G: ab|a\nH: c\n"



@pytest.mark.parametrize("spec, left, words", [
    ("wreath", "a,b", ["1", "a.a.c", "D^3.c.a", "D^2", "a.zz"]),
    ("prod:braid:4,braid:3", "1243*1,1324*1,2134*1",
     ["1", "D^3.1243*132.2134*213", "3214*321.1*231", "D^1", "1243*1.zz"])])
def test_split_nf_prints_the_gh_decomposition(capsys, spec, left, words):
    for word in words:
        argv = ["--germ", spec, "--left", left, word]
        assert run(capsys, "split-nf", *argv) == run(capsys, "gh", *argv)

def test_automaton_and_count(capsys):
    code, out, _ = run(capsys, "automaton", "--germ", "wreath",
                       "--variant", "proper", "--format", "tsv")
    assert code == 0
    assert out.startswith("state\tletter\tnext\n")
    code, out, _ = run(capsys, "count", "--germ", "wreath",
                       "--variant", "proper", "--n", "1")
    assert out == "6\n"
    code, out, _ = run(capsys, "count", "--germ", "wreath", "--left", "a,b",
                       "--lang", "G", "--variant", "full", "--n", "2")
    assert code == 0


def test_check(capsys):
    code, out, _ = run(capsys, "check", "--germ", "wreath", "--left", "a,b",
                       "--suite", "round-trip")
    assert code == 0
    assert out.startswith("suite round-trip: ok")
    code, out, err = run(capsys, "check", "--germ", "wreath",
                         "--suite", "no-such-suite")
    assert code == 2


@pytest.mark.parametrize("flag", ["--max-len", "--samples"])
def test_check_rejects_negative_bounds(capsys, flag):
    code, out, err = run(capsys, "check", "--germ", "wreath", "--suite",
                         "complements-lemma", flag, "-1")
    assert (code, out) == (2, "")
    assert err == "usage error: --max-len and --samples must be non-negative\n"


def test_check_translation_on_a_large_product(capsys):
    code, out, err = run(capsys, "check", "--germ", "prod:braid:4,abelian:1",
                         "--left", "1*e1", "--suite", "automata-translation")
    assert (code, err) == (0, "")
    assert out.startswith("suite automata-translation: ok")


def test_delta_powers_stay_symbolic(capsys):
    big = "D^1000000000000"
    code, out, _ = run(capsys, "nf", "--germ", "wreath", f"{big}.a")
    assert (code, out) == (0, f"{big}|a\n")
    code, out, _ = run(capsys, "gcd", "--germ", "wreath", f"{big}.a", f"{big}.b")
    assert (code, out) == (0, f"{big}\n")
    code, out, _ = run(capsys, "lcm", "--germ", "wreath", f"{big}.a", f"{big}.b")
    assert (code, out) == (0, f"{big}|ab\n")
    code, out, _ = run(capsys, "divides", "--germ", "wreath", f"{big}.a", f"{big}.a.b")
    assert (code, out) == (0, "true\n")
    # Delta is in neither factor, so an action rejects it
    code, _, err = run(capsys, "act", "--germ", "wreath", "--left", "a,b",
                       "--op", "rr", "--h", "c", "--g", f"a.{big}")
    assert code == 1 and "'abc' is not a G-simple" in err
    code, out, _ = run(capsys, "act", "--germ", "wreath", "--left", "a,b",
                       "--op", "rr", "--h", "c", "--g", "a.D^0.a")
    assert (code, out) == (0, "b.b\n")


def test_delta_powers_mean_delta_letters(capsys):
    # D^k tokens against the same word with k Delta letters, normalised directly
    rng = random.Random(5)
    for spec in ("wreath", "braid:4"):
        g = germ_from_spec(spec)
        for _ in range(40):
            tokens, word = [], []
            for _ in range(rng.randint(0, 6)):
                if rng.random() < 0.3:
                    k = rng.randint(0, 3)
                    tokens.append(f"D^{k}")
                    word += [g.delta] * k
                else:
                    s = rng.randrange(len(g))
                    tokens.append(g.names[s])
                    word.append(s)
            text = ".".join(tokens) or "1"
            code, out, _ = run(capsys, "nf", "--germ", spec, text)
            assert (code, out) == (0, element.format_nf(g, element.normal_form(g, word)) + "\n")


def test_germ_file(tmp_path, capsys):
    path = tmp_path / "wreath.germ"
    path.write_text(WREATH_FILE)
    code, out, _ = run(capsys, "validate", "--germ", f"file:{path}")
    assert code == 0
    assert "lattice: pass" in out
    code, out, _ = run(capsys, "nf", "--germ", f"file:{path}", "a.a.c")
    assert out == "ac|b\n"


def test_invalid_germ_file_is_domain_error(tmp_path, capsys):
    path = tmp_path / "bad.germ"
    path.write_text("germ v1\nsimples: 1 a\ndelta: a\nprod a a a\n")
    code, out, err = run(capsys, "validate", "--germ", f"file:{path}")
    assert code == 1
    assert "cancellativity" in err


def test_validate_of_a_germ_file_validates_it_once(tmp_path, capsys, monkeypatch):
    from garside import germ
    from garside.germ import GermValidationError, make_germ

    calls = []

    def counted(g):
        calls.append(g)
        return validate_germ(g)

    monkeypatch.setattr(germ, "validate_germ", counted)
    monkeypatch.setattr(cli, "validate_germ", counted)
    good, bad = tmp_path / "wreath.germ", tmp_path / "bad.germ"
    good.write_text(WREATH_FILE)
    bad.write_text("germ v1\nsimples: 1 a\ndelta: a\nprod a a a\n")
    expected = str(validate_germ(germ_from_spec("wreath"))) + "\n"
    assert run(capsys, "validate", "--germ", f"file:{good}") == (0, expected, "")
    assert len(calls) == 1
    code, out, err = run(capsys, "validate", "--germ", f"file:{bad}")
    assert (code, out) == (1, "")
    assert err == str(GermValidationError(validate_germ(make_germ(["1", "a"], "a", [("a", "a", "a")])))) + "\n"
    assert len(calls) == 2
    # a product with a file part is a new germ, validated after its part
    assert run(capsys, "validate", "--germ", f"prod:file:{good},abelian:1")[0] == 0
    assert len(calls) == 4


def test_usage_errors(capsys):
    code, _, err = run(capsys, "nf", "--germ", "octonion:3", "a")
    assert code == 2
    code, _, err = run(capsys, "nf", "--germ", "wreath", "a.z")
    assert code == 2 and "unknown simple" in err
    code, _, err = run(capsys, "gh", "--germ", "wreath", "a.b")
    assert code == 2 and "--left" in err


NEEDS_LEFT = "usage error: this command needs --left with a comma-separated atom list\n"


@pytest.mark.parametrize("argv, err", [
    (("count", "--n", "-1"), "usage error: --n must be non-negative\n"),
    (("count", "--lang", "G", "--n", "3"), NEEDS_LEFT),
    (("automaton", "--lang", "H"), NEEDS_LEFT),
    (("check", "--suite", "push-lemma"), NEEDS_LEFT),
    (("check", "--suite", "nosuch"), "usage error: unknown suite 'nosuch'; available: "
     + ", ".join(sorted(GERM_SUITES) + sorted(ZS_SUITES)) + "\n"),
    (("gh", "a"), NEEDS_LEFT),
], ids=["count-n", "count-lang", "automaton-lang", "check-no-left", "check-suite", "gh"])
def test_usage_errors_are_refused_before_the_germ_is_built(capsys, monkeypatch, argv, err):
    def no_germ(spec):
        raise AssertionError(f"{spec} was built for a refused command")

    monkeypatch.setattr(cli, "germ_from_spec", no_germ)
    assert run(capsys, argv[0], "--germ", "braid:7", *argv[1:]) == (2, "", err)


def test_domain_errors(capsys):
    code, _, err = run(capsys, "gh", "--germ", "braid:3", "--left", "213", "213")
    assert code == 1
    code, _, err = run(capsys, "act", "--germ", "wreath", "--left", "a,b",
                       "--op", "rr", "--h", "a", "--g", "a")
    assert code == 1 and "not a" in err


def test_outputs_stable(capsys):
    first = run(capsys, "automaton", "--germ", "braid:3", "--format", "dot")
    second = run(capsys, "automaton", "--germ", "braid:3", "--format", "dot")
    assert first == second


def test_decomposition_commands_refuse_more_letters_than_the_peel_budget(capsys, monkeypatch):
    monkeypatch.setattr(cli, "PEEL_BUDGET", 5)
    for command in ("gh", "hg", "split-nf"):
        code, out, _ = run(capsys, command, "--germ", "wreath", "--left", "a,b", "D^4.a")
        assert code == 0 and out.startswith("G: ") == (command != "hg")
        assert run(capsys, command, "--germ", "wreath", "--left", "a,b", "D^5.a") == (
            1, "", "error: 6 letters spelled out is above the peel budget of 5\n")
    assert run(capsys, "merge-nf", "--germ", "wreath", "--left", "a,b", "ab|ab|a", "c|c")[0] == 0
    assert run(capsys, "merge-nf", "--germ", "wreath", "--left", "a,b", "ab|ab|a", "c|c|c") == (
        1, "", "error: 6 letters spelled out is above the peel budget of 5\n")
    code, _, err = run(capsys, "gh", "--germ", "wreath", "--left", "a,b", "D^99999999999999")
    assert code == 1 and err.count("\n") == 1 and "99,999,999,999,999 letters" in err


def test_export_of_a_simple_named_start_is_refused(tmp_path, capsys):
    path = tmp_path / "start.germ"
    path.write_text("germ v1\nsimples: 1 start b D\ndelta: D\nprod start b D\nprod b start D\n")
    for fmt in ("dot", "tsv"):
        code, out, err = run(capsys, "automaton", "--germ", f"file:{path}", "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"error: a simple is named 'start', as the {fmt} export names its start state\n"


def test_count_prints_every_digit(capsys):
    # above the interpreter's default limit of 4,300 digits for str(int)
    g = germ_from_spec("braid:4")
    expected = automata.count_accepted(automata.build_nf_automaton(g, "proper"), 6000)
    code, out, err = run(capsys, "count", "--germ", "braid:4", "--variant", "proper",
                         "--n", "6000")
    assert code == 0 and err == ""
    digits = out.strip()
    assert digits.isdigit() and len(digits) > 4300
    assert decimal.Decimal(digits) == expected


def test_count_refuses_a_length_above_its_budget(capsys):
    # braid:7 has 64 row classes: n^2*R^2 = 4.1e13, far above the budget
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--germ", "braid:7", "--variant", "proper",
                         "--n", "100000")
    assert time.perf_counter() - start < 10
    assert (code, out) == (1, "")
    assert err == ("error: n = 100000 with R = 64 row classes is above the count budget: "
                   "n^2*R^2 = 40,960,000,000,000 > 30,000,000,000\n")


def test_oversized_product_spec_is_refused_unbuilt(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("a germ was built for a refused spec")

    monkeypatch.setattr(germ_builtins, "braid_germ", no_build)
    monkeypatch.setattr(germ_builtins, "direct_product_germ", no_build)
    for spec, size in (("prod:braid:7,braid:7", 25401600), ("prod:braid:6,braid:4", 17280),
                       ("prod:prod:braid:5,braid:5,abelian:0", 14400)):
        code, out, err = run(capsys, "nf", "--germ", spec, "1")
        assert code == 2 and out == ""
        assert err == (f"usage error: a prod: germ of {size} simples is above the limit "
                       "of 5040 (braid:7)\n")


def test_oversized_product_with_a_file_part_is_refused_unbuilt(capsys, monkeypatch, tmp_path):
    path = tmp_path / "two.germ"
    path.write_text("germ v1\nsimples: 1 a\ndelta: a\n")

    def no_build(*args):
        raise AssertionError("a germ was built for a refused spec")

    monkeypatch.setattr(germ_builtins, "braid_germ", no_build)
    monkeypatch.setattr(germ_builtins, "direct_product_germ", no_build)
    for spec in (f"prod:file:{path},braid:7", f"prod:braid:7,file:{path}"):
        code, out, err = run(capsys, "nf", "--germ", spec, "1")
        assert code == 2 and out == ""
        assert err == ("usage error: a prod: germ of 10080 simples is above the limit "
                       "of 5040 (braid:7)\n")


def test_product_with_a_comma_in_a_file_name_builds(capsys, tmp_path):
    path = tmp_path / "one,atom.germ"
    path.write_text("germ v1\nsimples: 1 a\ndelta: a\n")
    code, out, err = run(capsys, "nf", "--germ", f"prod:file:{path},braid:3", "a*1.1*213")
    assert (code, out, err) == (0, "a*213\n", "")


@pytest.mark.parametrize("depth, expected", [
    (200, (0, "1\n", "")),
    (5000, (2, "", "usage error: germ spec nested too deeply\n"))])
def test_deeply_nested_product_spec(capsys, depth, expected):
    spec = "prod:" * depth + "abelian:0" + ",abelian:0" * depth
    assert run(capsys, "nf", "--germ", spec, "1") == expected


def test_largest_allowed_product_spec_builds(capsys):
    code, out, _ = run(capsys, "nf", "--germ", "prod:braid:6,braid:3", "1")
    assert code == 0 and out == "1\n"


@pytest.mark.parametrize("spec", ["wreath", "braid:2", "braid:4", "abelian:0", "abelian:3",
                                  "prod:braid:3,abelian:1", "prod:wreath,prod:braid:2,abelian:1"])
def test_spec_size_is_the_built_size(spec):
    assert GermSpec.parse(spec).size() == len(germ_from_spec(spec))


@pytest.mark.parametrize("spec", ["file:x.germ", "braid:9", "abelian:-1", "prod:braid:9,braid:3",
                                  "prod:file:x.germ,braid:7"])
def test_spec_size_is_unknown_for_files_and_refused_parameters(spec):
    assert GermSpec.parse(spec).size() is None
