import re

from garside import Options, parse_germ, run_suite
from garside import element as el
from garside.suites import _Run

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


def test_length_law_failures_render_as_numbers():
    report = run_suite("element-lattice-laws", parse_germ(A2_B3), Options(seed=1))
    for line in report.failures:
        assert re.fullmatch(r"length-additive\[[^]]*\]: \d+ != \d+", line), line
