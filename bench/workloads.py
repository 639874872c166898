"""
The three benchmark workloads.

Each workload is a closed loop with one client: the next operation is
generated (from the seed, untimed) only after the previous one returned and
its output was checked (untimed).  A workload provides

    setup()               -> context, timed as the benchmark's set-up;
    operations(ctx, seed) -> endless iterator of Op, the same for a seed;
    tails(ctx)            -> the steps run once per round: the acceptor
                             build plus count (`count_s`), and cross-checks.

A run has `rounds` rounds, each a set-up, an equal share of the operation
time and the tails, so that the samples of every metric are spread over
the whole run and their medians ride out the machine's slow spells.

The library is reached only through its public functions, looked up on the
module at call time so that the traced run's wrappers see every call.

Output checks are independent of the library where it is cheap to be: the
braid permutation of every simple is parsed from its name, so the image in
the symmetric group(s) and the atom length (number of inversions) of an
element are computed without any germ table.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass
from typing import Callable, Iterator

from garside import automata, builtins, cli, element, germ, normal_forms
from garside import quasicenter, zappa_szep
from garside.element import NormalWord

COUNT_LENGTH = 16


PROD_SPEC = "prod:braid:4,braid:3"
PROD_LEFT = ("1243*1", "1324*1", "2134*1")   # the braid:4 atoms

# Number of accepted words of length COUNT_LENGTH, taken at the commit that
# introduced the benchmark; normal-form languages do not depend on the code.
EXPECTED_COUNT = {
    "nf-braid6": 28881794703107893283419358194922,   # braid:6, proper simples
    "zs-prod-b4b3": 2758248643005636025,             # prod germ, full alphabet
    "check-prod-b4b3": 2758248643005636025,
}

# The suites `check --suite all` runs with --left, in order.
SUITES = (
    "lattice-laws", "complements-lemma", "normal-form-confluence",
    "element-lattice-laws", "quasicenter", "action-laws", "identity-detection",
    "round-trip", "inverse-interplay", "order-isomorphism",
    "complement-transport", "lcm-formula", "poset-product", "join-complement",
    "delta-invariance", "complement-action", "complement-of-join",
    "factor-closure", "atoms-to-atoms", "decomposition-uniqueness",
    "local-deltas", "normal-form-criteria", "push-lemma",
    "action-preserves-nf", "translation-roundtrip", "automata-translation",
)


@dataclass
class Op:
    """One timed operation: `call` runs it; `check` returns an error or None."""
    kind: str
    input: object           # what the call works on, for reproducibility checks
    call: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], str]
    units: int = 1          # checked outputs it stands for (suites, on check)
    refused: Callable[[object], tuple[int, str]] | None = None  # (count, reason)
    cases: Callable[[object], int] | None = None       # suite cases it ran


@dataclass
class Tail:
    """A once-per-round step; `metric` names the timing it feeds."""
    metric: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


# -- permutations parsed from simple names -----------------------------------

def _perm(part: str, n: int) -> tuple[int, ...]:
    if part == "1":
        return tuple(range(n))
    p = tuple(int(c) - 1 for c in part)
    if sorted(p) != list(range(n)):
        raise ValueError(f"{part!r} is not a permutation of {n} points")
    return p


def _inversions(p: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


class PermModel:
    """
    Image of elements in a product of symmetric groups, from simple names
    alone.  A braid simple is named by its one-line permutation ("2134"),
    a direct-product simple by "p*q", and the unit by "1".  The product of
    simples composes as in the germ: (p.q)[k] = p[q[k]].
    """

    def __init__(self, names: tuple[str, ...], sizes: tuple[int, ...]):
        self.sizes = sizes
        self.perm = []
        for nm in names:
            parts = ("1",) * len(sizes) if nm == "1" else tuple(nm.split("*"))
            if len(parts) != len(sizes):
                raise ValueError(f"simple name {nm!r} does not match {sizes}")
            self.perm.append(tuple(_perm(p, n) for p, n in zip(parts, sizes)))
        self.length = [sum(_inversions(p) for p in ps) for ps in self.perm]
        self.delta = tuple(tuple(reversed(range(n))) for n in sizes)
        self.delta_length = sum(n * (n - 1) // 2 for n in sizes)
        self.identity = tuple(tuple(range(n)) for n in sizes)

    @staticmethod
    def compose(a, b):
        return tuple(tuple(p[k] for k in q) for p, q in zip(a, b))

    def of_letters(self, letters, deltas: int = 0):
        acc = self.identity
        for _ in range(deltas % 2):
            acc = self.compose(acc, self.delta)
        for s in letters:
            acc = self.compose(acc, self.perm[s])
        return acc

    def of(self, w: NormalWord):
        return self.of_letters(w.factors, w.deltas)

    def length_of(self, w: NormalWord) -> int:
        return w.deltas * self.delta_length + sum(self.length[s] for s in w.factors)


def format_word(names, w: NormalWord) -> str:
    """`D^k|x|y` from simple names, independent of the library's printer."""
    return "|".join(([f"D^{w.deltas}"] if w.deltas else []) + [names[s] for s in w.factors]) or "1"


def _stratified(rng: random.Random, lo: int, hi: int, strata: int = 16) -> Iterator[int]:
    """Lengths in [lo, hi]: every block of `strata` draws hits each stratum once."""
    width = (hi - lo + 1) / strata
    while True:
        order = list(range(strata))
        rng.shuffle(order)
        for j in order:
            yield lo + int((j + rng.random()) * width)


def _problems(*pairs: tuple[bool, str]) -> str | None:
    bad = [msg for ok, msg in pairs if not ok]
    return "; ".join(bad) if bad else None


# -- nf-braid6 -----------------------------------------------------------------

class NFBraid6:
    """
    braid:6, 720 simples: the only germ above the dense-table limit, so every
    lattice lookup takes the memoised path.  Normal forms of seeded words
    (3 in 4 over the atoms, 1 in 4 over all simples and so heavy in Delta),
    each chained with the previous result through multiply, gcd or lcm.
    """
    name = "nf-braid6"
    digest_ops = 256
    replay_ops = 64
    rounds = 4

    def setup(self):
        return {"g": builtins.braid_germ(6)}

    def operations(self, ctx, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        g = ctx["g"]
        model = PermModel(g.names, (6,))
        names = g.names
        atoms = tuple(g.atoms)
        everything = tuple(range(len(g)))
        lengths = _stratified(rng, 8, 256)
        prev: NormalWord | None = None
        i = 0
        chain = []
        while True:
            over_all = i % 4 == 3
            i += 1
            alphabet = everything if over_all else atoms
            word = tuple(rng.choice(alphabet) for _ in range(next(lengths)))
            out: dict = {}

            def nf_call(word=word, out=out):
                out["r"] = element.normal_form(g, word)
                return out["r"]

            def nf_check(r, word=word):
                return _problems(
                    (element.is_normal(g, r), "not a left normal form"),
                    (model.of(r) == model.of_letters(word), "permutation image changed"),
                    (model.length_of(r) == sum(model.length[s] for s in word),
                     "atom length changed"))

            yield Op("normal_form", word, nf_call, nf_check, lambda r: format_word(names, r))
            r = out.get("r")
            if prev is not None and r is not None:
                if not chain:
                    chain = ["multiply", "gcd", "lcm"]
                    rng.shuffle(chain)
                kind = chain.pop()
                yield self._chain_op(g, model, names, kind, prev, r)
            prev = r

    @staticmethod
    def _chain_op(g, model, names, kind, x, y) -> Op:
        def call():
            return getattr(element, kind)(g, x, y)

        lx, ly = model.length_of(x), model.length_of(y)

        def check(z):
            lz = model.length_of(z)
            if kind == "multiply":
                law = (model.of(z) == model.compose(model.of(x), model.of(y))
                       and lz == lx + ly, "product image or length wrong")
            elif kind == "gcd":
                law = (lz <= min(lx, ly), "gcd longer than an argument")
            else:
                law = (lz >= max(lx, ly), "lcm shorter than an argument")
            return _problems((element.is_normal(g, z), "not a left normal form"), law)

        return Op(kind, (x, y), call, check, lambda z: format_word(names, z))

    def tails(self, ctx) -> list[Tail]:
        g = ctx["g"]
        return [_count_tail(self.name, lambda: automata.build_nf_automaton(g, "proper"))]


def _count_tail(workload: str, build: Callable[[], object]) -> Tail:
    expected = EXPECTED_COUNT[workload]

    def call():
        return automata.count_accepted(build(), COUNT_LENGTH)

    return Tail("count_s", call,
                lambda c: None if c == expected else f"count {c} != {expected}")


# -- zs-prod-b4b3 ----------------------------------------------------------------

class ZSProdB4B3:
    """
    prod:braid:4,braid:3 (144 simples, dense tables), G generated by the
    braid:4 atoms.  Normal words of K from a seeded walk over left-weighted
    pairs go through split/merge, both decompositions and psi.
    """
    name = "zs-prod-b4b3"
    digest_ops = 256
    replay_ops = 64
    rounds = 7

    def __init__(self):
        # The germ file text is an input, made once before any timing.
        self.text = germ.format_germ(builtins.direct_product_germ(
            builtins.braid_germ(4), builtins.braid_germ(3)))

    def setup(self):
        g = germ.parse_germ(self.text)
        quasicenter.atom_classes(g)
        zs = zappa_szep.build(g, [g.simple(nm) for nm in PROD_LEFT])
        return {"g": g, "zs": zs}

    def operations(self, ctx, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        g, zs = ctx["g"], ctx["zs"]
        model = PermModel(g.names, (4, 3))
        names = g.names
        proper = g.proper_simples()
        follow = {s: tuple(t for t in proper if g.normal_pair(s, t)) for s in proper}
        lengths = _stratified(rng, 4, 64)
        g_id, h_id = model.identity
        while True:
            factors = [rng.choice(proper)]
            n = next(lengths)
            while len(factors) < n and follow[factors[-1]]:
                factors.append(rng.choice(follow[factors[-1]]))
            w = NormalWord(rng.randint(0, 2), tuple(factors))
            image = model.of(w)
            want_g, want_h = (image[0], h_id), (g_id, image[1])
            state: dict = {}
            yield from self._word_ops(g, zs, model, names, w, want_g, want_h, state)

    @staticmethod
    def _word_ops(g, zs, model, names, w, want_g, want_h, state) -> Iterator[Op]:
        def in_k(delta_letter, fw: NormalWord) -> NormalWord:
            return element.normal_form(g, (delta_letter,) * fw.deltas + fw.factors)

        def factor_image(delta_perm, fw: NormalWord):
            return model.compose(delta_perm if fw.deltas % 2 else model.identity,
                                 model.of_letters(fw.factors))

        dg = model.perm[zs.delta_g]
        dh = model.perm[zs.delta_h]

        def roundtrip():
            p = normal_forms.split_nf(zs, w)
            return p, normal_forms.merge_nf(zs, p)

        def roundtrip_check(out):
            p, m = out
            state["pair"] = p
            return _problems(
                (m == w, "merge_nf(split_nf(w)) != w"),
                (factor_image(dg, p.nf_g) == want_g, "G-part image wrong"),
                (factor_image(dh, p.nf_h) == want_h, "H-part image wrong"))

        def pair_text(out):
            p, m = out
            return (f"{format_word(names, p.nf_g)}/{format_word(names, p.nf_h)}"
                    f"={format_word(names, m)}")

        def decomposition_check(first, second, first_image, second_image):
            return _problems(
                (element.is_normal(g, first) and element.is_normal(g, second),
                 "a part is not normal"),
                (first.deltas == 0 and second.deltas == 0, "a part holds Delta"),
                (model.of(first) == first_image and model.of(second) == second_image,
                 "part images wrong"))

        def gh_check(out):
            gp, hp = out
            problem = decomposition_check(gp, hp, want_g, want_h)
            p = state.get("pair")
            agrees = p is None or (in_k(zs.delta_g, p.nf_g) == gp
                                   and in_k(zs.delta_h, p.nf_h) == hp)
            return _problems((problem is None, problem),
                             (agrees, "split_nf disagrees with the gcd route"))

        def hg_check(out):
            hp, gp = out
            return decomposition_check(hp, gp, want_h, want_g)

        def two(out):
            return f"{format_word(names, out[0])}/{format_word(names, out[1])}"

        yield Op("split_merge", w, roundtrip, roundtrip_check, pair_text)
        yield Op("gh_decompose", w, lambda: zappa_szep.gh_decompose(zs, w), gh_check, two)
        yield Op("hg_decompose", w, lambda: zappa_szep.hg_decompose(zs, w), hg_check, two)
        pair = state.get("pair") or normal_forms.NFPair(element.UNIT, element.UNIT)
        # In a direct product G and H commute, so lcm(g, h) = g.h = w.
        yield Op("psi", pair, lambda: normal_forms.psi(zs, pair),
                 lambda r: None if r == w else "psi(split_nf(w)) != w",
                 lambda r: format_word(names, r))

    def tails(self, ctx) -> list[Tail]:
        g, zs = ctx["g"], ctx["zs"]

        def translate():
            a_g = automata.build_factor_automaton(zs, "G", "full")
            a_h = automata.build_factor_automaton(zs, "H", "full")
            return automata.translate_pair_to_product(zs, a_g, a_h)

        def translate_check(a):
            direct = automata.build_nf_automaton(g, "full")
            return None if a == direct else "translated acceptor differs from the direct one"

        return [Tail("translate_s", translate, translate_check),
                _count_tail(self.name, lambda: automata.build_nf_automaton(g, "full"))]


# -- check-prod-b4b3 ---------------------------------------------------------------

_OK_LINE = re.compile(r"^suite (\S+): ok \((\d+) cases\)$")
_BAD_LINE = re.compile(r"^suite (\S+): (\d+) counterexamples in (\d+) cases$")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.main in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def parse_check(stdout: str) -> tuple[dict[str, int], dict[str, int]]:
    """Suites reported ok and suites with counterexamples, with case counts."""
    ok: dict[str, int] = {}
    bad: dict[str, int] = {}
    for line in stdout.splitlines():
        if m := _OK_LINE.match(line):
            ok[m.group(1)] = int(m.group(2))
        elif m := _BAD_LINE.match(line):
            bad[m.group(1)] = int(m.group(3))
    return ok, bad


class CheckProdB4B3:
    """
    `garside check --suite all` on the prod germ, in process: every suite
    with many short words.  One operation is one whole `check` call; each of
    its 26 suites is a checked output.  A suite that is not reported ok
    (refused, or aborted by an earlier suite's error) is a failed output.
    """
    name = "check-prod-b4b3"
    digest_ops = 1
    replay_ops = 1
    rounds = 7

    def setup(self):
        # What `check` itself does before the first suite.
        g = builtins.germ_from_spec(PROD_SPEC)
        zs = zappa_szep.build(g, [g.simple(nm) for nm in PROD_LEFT])
        return {"g": g, "zs": zs}

    def operations(self, ctx, seed: int) -> Iterator[Op]:
        argv = ["check", "--germ", PROD_SPEC, "--left", ",".join(PROD_LEFT),
                "--suite", "all", "--seed", str(seed)]

        def check(out):
            rc, stdout, stderr = out
            ok, bad = parse_check(stdout)
            return _problems(
                (not bad, f"counterexamples reported by {sorted(bad)}"),
                (rc == (0 if len(ok) == len(SUITES) else 1), f"exit code {rc}"),
                (not set(ok) - set(SUITES), f"unknown suites {sorted(set(ok) - set(SUITES))}"),
                ("Traceback" not in stderr, "traceback on stderr"))

        def refused(out):
            rc, stdout, stderr = out
            ok, bad = parse_check(stdout)
            missing = [s for s in SUITES if s not in ok and s not in bad]
            return len(missing), f"{','.join(missing)}: {stderr.strip()}"

        while True:
            yield Op("check", argv, lambda: run_cli(argv), check,
                     lambda out: f"{out[0]}:{sorted(parse_check(out[1])[0])}",
                     units=len(SUITES), refused=refused,
                     cases=lambda out: sum(parse_check(out[1])[0].values()))

    def tails(self, ctx) -> list[Tail]:
        argv = ["count", "--germ", PROD_SPEC, "--variant", "full", "--n", str(COUNT_LENGTH)]
        expected = EXPECTED_COUNT[self.name]

        def check(out):
            rc, stdout, _ = out
            return None if rc == 0 and stdout.strip() == str(expected) else \
                f"count printed {stdout.strip()!r} (exit {rc}), expected {expected}"

        return [Tail("count_s", lambda: run_cli(argv), check)]


WORKLOADS = {w.name: w for w in (NFBraid6, ZSProdB4B3, CheckProdB4B3)}
