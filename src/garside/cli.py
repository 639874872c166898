"""
cli: command-line surface for germs, normal forms, decompositions and
automata.

Words are '.'-separated simple names (`a.b.c`, `1` for the empty word);
normal forms are '|'-separated with an optional `D^k` power in front
(`D^1|ac|b`).  Exit codes: 0 success, 1 domain error (invalid germ,
impossible decomposition, ...), 2 usage error.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import sys

from . import automata, element, normal_forms, quasicenter, suites, zappa_szep
from .builtins import germ_from_spec
from .element import NormalWord
from .germ import Germ, GermError, validate_germ
from .suites import GERM_SUITES, ZS_SUITES, Options
from .zappa_szep import ZSError, ZSStructure


class UsageError(Exception):
    pass


PEEL_BUDGET = 2000  # letters gh, hg, split-nf and merge-nf spell out (D^k as k): ~1.3 s on wreath


def _within_peel_budget(letters: int) -> None:
    if letters > PEEL_BUDGET:  # the peel and the merge are quadratic in the letters
        raise ValueError(f"{letters:,} letters spelled out is above the peel budget of {PEEL_BUDGET:,}")


def parse_word(g: Germ, text: str) -> list[tuple[int, int]]:
    """
    A '.'-separated word as (simple, power) pairs: a name is (s, 1) and D^k
    is (Delta, k); "1" alone is the empty word.
    """
    if text == "1":
        return []
    out = []
    for token in text.split("."):
        if token.startswith("D^"):
            try:
                k = int(token[2:])
            except ValueError:
                raise UsageError(f"bad Delta power {token!r}") from None
            if k < 0:
                raise UsageError("Delta power must be non-negative")
            out.append((g.delta, k))
        elif token in g.name_index:
            out.append((g.name_index[token], 1))
        else:
            raise UsageError(f"unknown simple name {token!r}")
    return out


def parse_element(g: Germ, text: str) -> NormalWord:
    """The element of a word; a Delta power stays a counter, never k letters."""
    x, run = element.UNIT, []
    for s, k in parse_word(g, text):
        if s == g.delta:
            x = element.multiply(g, element.multiply(g, x, element.normal_form(g, run)),
                                 element.delta_power(g, k))
            run = []
        else:
            run.append(s)
    return element.multiply(g, x, element.normal_form(g, run))


def format_word(g: Germ, word) -> str:
    return ".".join(g.names[s] for s in word) if word else "1"


def parse_nf_letters(g: Germ, text: str) -> list[int]:
    """A '|'-separated sequence of simple names; "1" is the empty word."""
    if text.strip() == "1":
        return []
    out = []
    for token in (t.strip() for t in text.split("|")):
        if token not in g.name_index:
            raise UsageError(f"unknown simple name {token!r}")
        out.append(g.name_index[token])
    return out


def _germ(args) -> Germ:
    try:
        return germ_from_spec(args.germ)
    except ValueError as e:
        raise UsageError(str(e)) from None
    except OSError as e:
        raise GermError(f"cannot read germ file: {e}") from None


def _zs(args) -> ZSStructure:
    """The decomposition of --left; a missing --left is refused before the germ is built."""
    if not args.left:
        raise UsageError("this command needs --left with a comma-separated atom list")
    g = _germ(args)
    atoms = []
    for nm in args.left.split(","):
        nm = nm.strip()
        if nm not in g.name_index:
            raise UsageError(f"unknown atom name {nm!r}")
        atoms.append(g.name_index[nm])
    return zappa_szep.build(g, atoms)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (GermError, ZSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


@functools.cache  # built once per process, with the cmd_* functions bound then
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garside",
        description="compute with finite Garside structures and their "
                    "two-sided decompositions")
    sub = parser.add_subparsers(dest="command")

    def cmd(name: str, fn, *, words: int = 0, left: bool = False, help: str = ""):
        p = sub.add_parser(name, help=help)
        p.add_argument("--germ", required=True,
                       help="wreath | braid:N | abelian:K | prod:SPEC,SPEC | file:PATH")
        if left:
            p.add_argument("--left", default=None,
                           help="comma-separated atoms generating the left factor")
        for i in range(words):
            p.add_argument(f"word{i + 1}" if words > 1 else "word")
        p.set_defaults(fn=fn)
        return p

    cmd("validate", cmd_validate, help="check the germ axioms")
    cmd("nf", cmd_nf, words=1, help="left normal form of a word")
    cmd("gcd", cmd_two_words, words=2, help="greatest common prefix of two words")
    cmd("lcm", cmd_two_words, words=2, help="least common right multiple of two words")
    cmd("divides", cmd_two_words, words=2, help="whether word1 is a prefix of word2")
    cmd("deltas", cmd_deltas, help="quasi-central closure of each atom")
    cmd("classes", cmd_classes, help="atom classes and their closures")
    cmd("pure", cmd_pure, help="whether all atoms share one closure")
    cmd("decompose", cmd_decompose, left=True, help="build and verify a decomposition")
    cmd("gh", cmd_factor_word, words=1, left=True, help="GH-decomposition of a word")
    cmd("hg", cmd_factor_word, words=1, left=True, help="HG-decomposition of a word")
    p = cmd("act", cmd_act, left=True, help="apply one of the eight actions")
    p.add_argument("--op", required=True, choices=sorted(zappa_szep.ACTIONS))
    p.add_argument("--h", dest="hword", required=True, help="H-word ('.'-separated)")
    p.add_argument("--g", dest="gword", required=True, help="G-word ('.'-separated)")
    cmd("split-nf", cmd_factor_word, words=1, left=True, help="factor normal forms, as gh prints")
    p = cmd("merge-nf", cmd_merge_nf, left=True,
            help="product normal form from factor normal forms")
    p.add_argument("gword", help="normal form over the left factor ('|'-separated)")
    p.add_argument("hword", help="normal form over the right factor")
    p = cmd("automaton", cmd_automaton, left=True, help="export a normal-form acceptor")
    p.add_argument("--lang", default="K", choices=["K", "G", "H"])
    p.add_argument("--variant", default="proper", choices=["proper", "full"])
    p.add_argument("--format", dest="fmt", default="tsv", choices=["dot", "tsv"])
    p = cmd("count", cmd_count, left=True, help="count accepted words of a length")
    p.add_argument("--lang", default="K", choices=["K", "G", "H"])
    p.add_argument("--variant", default="proper", choices=["proper", "full"])
    p.add_argument("--n", type=int, required=True)
    p = cmd("check", cmd_check, left=True, help="run a named property suite")
    p.add_argument("--suite", required=True,
                   help="suite name, or 'all' for every applicable suite")
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    return parser


def cmd_validate(args) -> int:
    try:
        g = _germ(args)
    except GermError as e:
        # show the report of an invalid germ file rather than one line
        print(str(e), file=sys.stderr)
        return 1
    report = g._memo.get("validation") or validate_germ(g)  # a file was validated as parsed
    print(report)
    return 0 if report.ok else 1


def cmd_nf(args) -> int:
    g = _germ(args)
    w = parse_element(g, args.word)
    print(element.format_nf(g, w))
    return 0


def cmd_two_words(args) -> int:
    g = _germ(args)
    x = parse_element(g, args.word1)
    y = parse_element(g, args.word2)
    if args.command == "divides":
        print("true" if element.divides(g, x, y) else "false")
    else:
        print(element.format_nf(g, getattr(element, args.command)(g, x, y)))
    return 0


def cmd_deltas(args) -> int:
    g = _germ(args)
    for a in g.atoms:
        print(f"{g.names[a]} -> {g.names[quasicenter.delta_of_simple(g, a)]}")
    return 0


def cmd_classes(args) -> int:
    g = _germ(args)
    part = quasicenter.atom_classes(g)
    for block, d in zip(part.classes, part.class_delta):
        print("{" + ",".join(g.names[a] for a in block) + "} -> " + g.names[d])
    return 0


def cmd_pure(args) -> int:
    g = _germ(args)
    pure = quasicenter.is_delta_pure(g)
    print(f"delta-pure: {'true' if pure else 'false'}")
    print(f"atom-classes: {len(quasicenter.atom_classes(g))}")
    return 0


def cmd_decompose(args) -> int:
    zs = _zs(args)
    g = zs.germ
    print(f"delta_G: {g.names[zs.delta_g]}")
    print(f"delta_H: {g.names[zs.delta_h]}")
    print(f"delta_G*delta_H: {g.names[g.product(zs.delta_g, zs.delta_h)]}")
    print(f"delta_K: {g.names[g.delta]}")
    part = quasicenter.atom_classes(g)
    print("classes: " + " ".join(
        "{" + ",".join(g.names[a] for a in block) + "}" for block in part.classes))
    print("left: {" + ",".join(g.names[a] for a in zs.left_atoms) + "}")
    print("right: {" + ",".join(g.names[a] for a in zs.right_atoms) + "}")
    print(f"g-simples: {len(zs.g_simples)}")
    print(f"h-simples: {len(zs.h_simples)}")
    print("check: ok")
    return 0


def cmd_factor_word(args) -> int:
    zs = _zs(args)
    g = zs.germ
    x = parse_element(g, args.word)
    _within_peel_budget(x.sup)
    kind = "hg" if args.command == "hg" else "gh"  # split-nf: GH-parts are factor normal forms
    for side, part in zip(kind.upper(), getattr(zappa_szep, f"{kind}_decompose")(zs, x)):
        print(f"{side}: {element.format_nf(g, part)}")
    return 0


def cmd_act(args) -> int:
    zs = _zs(args)
    g = zs.germ
    # Delta lies in neither factor: D^k (k > 0) stays one letter, which the action rejects
    hw, gw = (tuple(s for s, k in parse_word(g, w) if k) for w in (args.hword, args.gword))
    words = (hw, gw) if args.op[0] == "r" else (gw, hw)
    print(format_word(g, zappa_szep.act_word(zs, args.op, *words)))
    return 0


def cmd_merge_nf(args) -> int:
    zs = _zs(args)
    g = zs.germ
    pair = normal_forms.NFPair(
        element._from_letters(parse_nf_letters(g, args.gword), zs.delta_g),
        element._from_letters(parse_nf_letters(g, args.hword), zs.delta_h))
    _within_peel_budget(pair.nf_g.sup + pair.nf_h.sup)
    print(element.format_nf(g, normal_forms.merge_nf(zs, pair)))
    return 0


def _automaton(args):
    if args.lang == "K":
        return automata.build_nf_automaton(_germ(args), args.variant)
    return automata.build_factor_automaton(_zs(args), args.lang, args.variant)


def cmd_automaton(args) -> int:
    sys.stdout.write(automata.export(_automaton(args), args.fmt))
    return 0


def cmd_count(args) -> int:
    if args.n < 0:
        raise UsageError("--n must be non-negative")
    # Decimal prints every digit; str() of an int stops at 4,300 by default
    print(decimal.Decimal(automata.count_accepted(_automaton(args), args.n)))
    return 0


def cmd_check(args) -> int:
    if args.max_len < 0 or args.samples < 0:
        raise UsageError("--max-len and --samples must be non-negative")
    opt = Options(max_len=args.max_len, samples=args.samples, seed=args.seed)
    if args.suite == "all":
        names = list(GERM_SUITES) + (list(ZS_SUITES) if args.left else [])
    else:
        if args.suite not in GERM_SUITES and args.suite not in ZS_SUITES:
            raise UsageError(f"unknown suite {args.suite!r}; available: "
                             + ", ".join(sorted(GERM_SUITES) + sorted(ZS_SUITES)))
        names = [args.suite]
    target = _zs(args) if any(n in ZS_SUITES for n in names) else _germ(args)
    bad = 0
    for name in names:
        report = suites.run_suite(name, target, opt)
        print(report)
        if not report.ok:
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
