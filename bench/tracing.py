"""
In-process tracing for the traced benchmark run.

The tracer wraps, from outside the library, the public functions of every
garside module and the Germ lattice accessors.  Each wrapped call of an
ordinary function becomes a span (name, start, end, parent) kept in memory
in flat arrays and written out when the run ends.  The lattice accessors
and a few tiny element helpers run millions of times per run, so they are
"leaves": each call is counted and its time is added to the enclosing
span's child time and to a per-name total, without a span of its own.
That keeps memory bounded while self times stay exact: a span's self time
is its duration minus the time covered by its child spans and leaf calls.

Only code between `on` being set and cleared is traced, so input
generation and output checks done by the benchmark never show up.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time
from array import array

from garside import (automata, builtins, cli, element, germ, normal_forms,
                     quasicenter, suites, zappa_szep)

MODULES = (builtins, germ, element, quasicenter, zappa_szep, normal_forms,
           automata, suites, cli)

# The accessors every lattice computation goes through.
LATTICE_METHODS = ("meet", "join", "rmeet", "rjoin", "lcomp", "rcomp",
                   "complement", "normal_pair")

# Constant-time helpers called once per letter or per lookup.
LEAF_FUNCTIONS = {
    "element": ("simple", "delta_power", "letters", "head", "atom_length",
                "is_normal", "format_nf"),
    "germ": ("check_name",),
}

perf = time.perf_counter


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Span store plus the wrappers that feed it; install() / uninstall()."""

    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.failed = array("b")
        self._stack: list[int] = []
        self._in_leaf = False
        self.leaf_calls: dict[str, int] = {}
        self.leaf_time: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.child.append(0.0)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf())
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        t = perf()
        self.end[idx] = t
        if failed:
            self.failed[idx] = 1
        self._stack.pop()
        p = self.parent[idx]
        if p >= 0:
            self.child[p] += t - self.start[idx]

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name: str, pre=None, post=None):
        tr = self

        def traced(*args, **kwargs):
            if not tr.on or tr._in_leaf:
                return fn(*args, **kwargs)
            if pre is not None:
                args = pre(args)
            span = tr.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.close(span, failed=True)
                raise
            tr.close(span)
            if post is not None:
                post(tr, span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _leaf_wrapper(self, fn, name: str):
        tr = self
        calls, times = self.leaf_calls, self.leaf_time
        calls[name] = 0
        times[name] = 0.0

        def leaf(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            calls[name] += 1
            if tr._in_leaf:
                return fn(*args, **kwargs)
            tr._in_leaf = True
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                tr._in_leaf = False
                times[name] += dt
                if tr._stack:
                    tr.child[tr._stack[-1]] += dt

        leaf.__wrapped__ = fn
        return leaf

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for m in MODULES:
            short = _short(m)
            leaves = LEAF_FUNCTIONS.get(short, ())
            for attr, fn in list(vars(m).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != m.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{short}.{fn.__name__}"
                if attr in leaves:
                    self._patch(m, attr, self._leaf_wrapper(fn, name))
                else:
                    hooks = _HOOKS.get(name, {})
                    self._patch(m, attr, self._span_wrapper(
                        fn, hooks.get("name", name), hooks.get("pre"), hooks.get("post")))
        for attr in LATTICE_METHODS:
            fn = getattr(germ.Germ, attr)
            self._patch(germ.Germ, attr, self._leaf_wrapper(fn, f"germ.Germ.{attr}"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for i in range(len(self.start)):
            row = out.setdefault(self.names[self.name[i]],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0})
            d = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += d
            row["self_s"] += d - self.child[i]
            row["failed"] += self.failed[i]
        for name, calls in self.leaf_calls.items():
            if calls:
                t = self.leaf_time[name]
                out[name] = {"calls": calls, "total_s": t, "self_s": t, "failed": 0}
        return out

    def write(self, path, record: dict) -> None:
        """All spans, leaf counts and the run record, as gzipped JSON."""
        doc = {
            "record": record,
            "names": self.names,
            "spans": {"name": self.name.tolist(), "parent": self.parent.tolist(),
                      "start": self.start.tolist(), "end": self.end.tolist(),
                      "child_s": self.child.tolist(), "failed": self.failed.tolist()},
            "leaves": {n: {"calls": c, "total_s": self.leaf_time[n]}
                       for n, c in self.leaf_calls.items()},
            "counters": self.counters,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- per-function hooks: span naming and work counters ------------------------

def _as_tuple_word(args):
    # normal_form accepts any iterable; materialise it to count its letters.
    return (args[0], tuple(args[1])) + tuple(args[2:])


def _count_letters(tr: Tracer, span: int, args, result) -> None:
    tr.count("element.normal_form.letters", len(args[1]))


def _count_words(tr: Tracer, span: int, args, result) -> None:
    tr.count("automata.enumerate_accepted.words", len(result))


def _suite_name(args) -> str:
    return f"suites.{args[0]}"


def _suite_done(tr: Tracer, span: int, args, result) -> None:
    tr.count(f"suites.{args[0]}.cases", result.cases)
    if not result.ok:
        tr.failed[span] = 1


_HOOKS = {
    "element.normal_form": {"pre": _as_tuple_word, "post": _count_letters},
    "automata.enumerate_accepted": {"post": _count_words},
    "suites.run_suite": {"name": _suite_name, "post": _suite_done},
}


# -- per-layer metrics ------------------------------------------------------------

ELEMENT_OPS = ("multiply", "gcd", "lcm", "left_complement")
ACT_WORDS = tuple(f"zappa_szep.act_{k}_word" for k in
                  ("rr", "rl", "lr", "ll", "rr_inv", "rl_inv", "lr_inv", "ll_inv"))


def layer_metrics(tr: Tracer, suite_names, overhead_frac: float) -> dict:
    """The per-layer metrics as name -> (value, unit, samples)."""
    t = tr.table()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0}

    def row(name):
        return t.get(name, zero)

    m: dict[str, tuple] = {}

    def put(name, value, unit, n):
        m[name] = (value, unit, n)

    def total(metric, *names):
        put(metric, sum(row(n)["total_s"] for n in names), "s", sum(row(n)["calls"] for n in names))

    def self_s(metric, *names):
        put(metric, sum(row(n)["self_s"] for n in names), "s", sum(row(n)["calls"] for n in names))

    def calls(metric, *names):
        c = sum(row(n)["calls"] for n in names)
        put(metric, c, "count", c)

    total("builtins.braid_germ_s", "builtins.braid_germ")
    total("builtins.direct_product_germ_s", "builtins.direct_product_germ")
    total("germ.parse_germ_s", "germ.parse_germ")
    total("germ.validate_germ_s", "germ.validate_germ")
    total("quasicenter.atom_classes_s", "quasicenter.atom_classes")
    total("zappa_szep.build_s", "zappa_szep.build")
    lattice = [f"germ.Germ.{a}" for a in LATTICE_METHODS]
    calls("germ.lattice_calls", *lattice)
    total("germ.lattice_s", *lattice)
    calls("element.normal_form.calls", "element.normal_form")
    letters = tr.counters.get("element.normal_form.letters", 0)
    put("element.normal_form.letters", letters, "count", row("element.normal_form")["calls"])
    self_s("element.normal_form.self_s", "element.normal_form")
    for op in ELEMENT_OPS:
        calls(f"element.{op}.calls", f"element.{op}")
        self_s(f"element.{op}.self_s", f"element.{op}")
    self_s("zappa_szep.gh_decompose.self_s", "zappa_szep.gh_decompose")
    self_s("zappa_szep.hg_decompose.self_s", "zappa_szep.hg_decompose")
    calls("zappa_szep.act_word.calls", *ACT_WORDS)
    self_s("zappa_szep.act_word.self_s", *ACT_WORDS)
    for fn in ("split_nf", "merge_nf", "psi"):
        self_s(f"normal_forms.{fn}.self_s", f"normal_forms.{fn}")
    total("automata.build_s", "automata.build_nf_automaton", "automata.build_factor_automaton")
    total("automata.count_accepted_s", "automata.count_accepted")
    total("automata.translate_s", "automata.translate_pair_to_product")
    words = tr.counters.get("automata.enumerate_accepted.words", 0)
    put("automata.enumerate_accepted.words", words, "count",
        row("automata.enumerate_accepted")["calls"])
    total("automata.enumerate_accepted_s", "automata.enumerate_accepted")
    for s in suite_names:
        total(f"suites.{s}.s", f"suites.{s}")
        cases = tr.counters.get(f"suites.{s}.cases", 0)
        put(f"suites.{s}.cases", cases, "count", row(f"suites.{s}")["calls"])
    failed = sum(r["failed"] for n, r in t.items() if n.startswith("suites."))
    put("suites.failed", failed, "count", sum(row(f"suites.{s}")["calls"] for s in suite_names))
    self_s("cli.self_s", *[n for n in t if n.startswith("cli.")])
    put("trace.overhead_frac", overhead_frac, "ratio", 1)
    put("trace.spans", len(tr.start), "count", 1)
    return m
