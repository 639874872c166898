"""
Seeded property fuzzing with the standard library's random module only:
germ files, --germ specs and CLI word arguments.  Every property draws a
fixed number of cases from random.Random(seed), so a failing case is
reproduced by its seed.
"""

import random
import time

import pytest

from garside import (GermSpec, GermSyntaxError, GermValidationError, cli, divisor_germ,
                     element as el, format_germ, germ_from_spec, parse_germ,
                     quasicenter as qc)

from oracles import germ_spec_by_splits

SEEDS = range(3)


# -- germ files ------------------------------------------------------------------

SNIPPETS = ["\n", " ", "\t", "#", "1", "a", "D", "ab", "prod ", "prod a a a\n", "simples:",
            "simples: 1 z\n", "delta:", "delta: a\n", "germ v1\n", "germ v2", ".", "|", "^",
            "é", "\x00", "\r\n", "prod 1 a b\n", "prod a 1 a\n"]


def _mutate(rng: random.Random, text: str) -> str:
    """One random edit: a character span cut or inserted, or a line dropped, doubled or swapped."""
    lines = text.split("\n")
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    pos = rng.randint(0, len(text))
    kind = rng.randrange(6)
    if kind == 0:
        return text[:pos] + text[pos + rng.randint(1, 8):]
    if kind == 1:
        return text[:pos] + rng.choice(SNIPPETS) + text[pos:]
    if kind == 2:
        del lines[i]
    elif kind == 3:
        lines.insert(j, lines[i])
    elif kind == 4:
        lines[i], lines[j] = lines[j], lines[i]
    else:
        words = lines[i].split(" ")
        words[rng.randrange(len(words))] = rng.choice(["1", "a", "b", "c", "ab", "abc", "x", ""])
        lines[i] = " ".join(words)
    return "\n".join(lines)


GERM_TEXTS = [format_germ(germ_from_spec(spec))
              for spec in ("wreath", "braid:3", "abelian:2", "prod:braid:2,abelian:1")]


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_germ_text_raises_only_syntax_or_validation_errors(seed):
    rng = random.Random(seed)
    for _ in range(300):
        text = rng.choice(GERM_TEXTS)
        for _ in range(rng.randint(1, 4)):
            text = _mutate(rng, text)
        try:
            parse_germ(text)
        except (GermSyntaxError, GermValidationError):
            pass


def _divisor_germs(rng: random.Random):
    """Divisor germs of balanced elements: Delta powers and quasi-central closures."""
    for spec in ("wreath", "braid:3", "abelian:2"):
        g = germ_from_spec(spec)
        yield divisor_germ(g, el.delta_power(g, rng.randint(1, 2)))
        a = rng.choice(g.atoms)
        yield divisor_germ(g, el.simple(g, qc.delta_of_simple(g, a)))


@pytest.mark.parametrize("seed", SEEDS)
def test_format_then_parse_is_the_identity(seed):
    rng = random.Random(seed)
    specs = ["wreath", "braid:2", "braid:3", "braid:4", "abelian:0", "abelian:1", "abelian:3",
             "prod:braid:3,abelian:1", "prod:wreath,abelian:1", "prod:braid:2,prod:wreath,braid:2"]
    germs = [germ_from_spec(spec) for spec in rng.sample(specs, 6)]
    for g in germs + list(_divisor_germs(rng)):
        text = format_germ(g)
        back = parse_germ(text)
        assert (back.names, back.delta, back.product_rows) == (g.names, g.delta, g.product_rows)
        assert format_germ(back) == text


# -- --germ specs ----------------------------------------------------------------

SPEC_TOKENS = ["prod:", "prod:", "prod:", "wreath", "braid:", "abelian:", "file:", "file:x",
               ",", ",", "2", "3", "-1", "x", "prod", ":", " ", "braid:2", "abelian:1", "1_0"]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_specs_parse_or_raise_value_error_in_bounded_time(seed):
    rng = random.Random(seed)
    for _ in range(400):
        text = "".join(rng.choice(SPEC_TOKENS) for _ in range(rng.randint(0, 14)))
        start = time.perf_counter()
        try:
            spec = GermSpec.parse(text)
        except ValueError:
            spec = None
        assert time.perf_counter() - start < 0.05, text
        try:
            expected = germ_spec_by_splits(text)
        except ValueError:
            expected = None
        assert spec == expected, text


# -- words on the command line -------------------------------------------------------

CLI_GERMS = [("wreath", ["a,b", "c", "a", "a,x", ""]), ("abelian:2", ["e1", "e1,e2"]),
             ("braid:3", ["12"])]
JUNK = ["", "1", "x", "D^", "D^-1", "D^x", "D^1e3", " a", "a ", "-a", "1.1", "é"]


def _word(rng: random.Random, names, seps: str, big_deltas: bool) -> str:
    """Up to five names, junk tokens and Delta powers, joined by one separator drawn from `seps`."""
    def token():
        r = rng.random()
        if r < 0.15:
            return f"D^{rng.randint(0, rng.choice((10 ** 12, 10 ** 24)) if big_deltas else 3)}"
        return rng.choice(JUNK) if r < 0.25 else rng.choice(names)
    return rng.choice(seps).join(token() for _ in range(rng.randint(1, 5)))


def _exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as e:  # argparse refuses an argument that looks like an option
        return e.code


@pytest.mark.parametrize("seed", SEEDS)
def test_random_cli_words_exit_cleanly(seed, capsys):
    rng = random.Random(seed)
    for _ in range(150):
        spec, lefts = rng.choice(CLI_GERMS)
        names = list(germ_from_spec(spec).names)
        command = rng.choice(["nf", "gcd", "lcm", "divides", "act", "split-nf", "merge-nf"])
        # Delta powers stay small where a decomposition spells them out
        big = command in ("nf", "gcd", "lcm", "divides")
        usual = "|" if command == "merge-nf" else "."

        def word():
            return _word(rng, names, usual if rng.random() < 0.85 else "|.", big)

        argv = [command, "--germ", spec]
        if command in ("act", "split-nf", "merge-nf"):
            argv += ["--left", rng.choice(lefts)]
        if command == "act":
            argv += ["--op", rng.choice(["rr", "rl", "lr", "ll", "rr-inv", "ll-inv"]),
                     "--h", word(), "--g", word()]
        else:
            argv += [word() for _ in range(1 if command in ("nf", "split-nf") else 2)]
        assert _exit_code(argv) in (0, 1, 2), argv
        assert "Traceback" not in capsys.readouterr().err, argv


HUGE = "D^99999999999999999999999"  # above 2^63, the largest index-sized int


@pytest.mark.parametrize("argv, out", [
    (["lcm", "--germ", "braid:3", "1", HUGE], HUGE),
    (["divides", "--germ", "braid:3", HUGE, "1"], "false"),
    (["lcm", "--germ", "wreath", "D^5.a", HUGE + ".b"], "D^99999999999999999999999|b"),
])
def test_delta_power_above_an_index_sized_int_exits_cleanly(argv, out, capsys):
    assert _exit_code(argv) == 0
    assert capsys.readouterr().out == out + "\n"


def test_huge_delta_power_on_a_decomposition_command_exits_cleanly(capsys):
    assert cli.main(["gh", "--germ", "wreath", "--left", "a,b", "D^99999999999999"]) in (0, 1, 2)
