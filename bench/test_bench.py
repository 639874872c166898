"""
Tests of the benchmark itself; run from the repository root with

    python3 -m pytest bench/test_bench.py

They need about a minute: two of them run each workload once, briefly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from garside import element, normal_forms  # noqa: E402
from garside.element import NormalWord  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def nf():
    wl = workloads.NFBraid6()
    return wl, wl.setup()


@pytest.fixture(scope="module")
def zs():
    wl = workloads.ZSProdB4B3()
    return wl, wl.setup()


def _swap_first_factors(w: NormalWord) -> NormalWord:
    f = w.factors
    return NormalWord(w.deltas, (f[1], f[0]) + f[2:]) if len(f) > 1 else w


def _drive(wl, ctx, seed, n):
    r = run.Run()
    run.drive(wl.operations(ctx, seed), r, 0.0, n)
    return r


@pytest.mark.parametrize("fixture, module, fn", [
    ("nf", element, "normal_form"),
    ("zs", normal_forms, "merge_nf"),
])
def test_swapped_factors_are_failed_operations(request, monkeypatch, fixture, module, fn):
    wl, ctx = request.getfixturevalue(fixture)
    original = getattr(module, fn)
    monkeypatch.setattr(module, fn, lambda *a: _swap_first_factors(original(*a)))
    r = _drive(wl, ctx, seed=3, n=24)
    assert r.attempted == 24
    assert r.wrong > 0 and r.failed >= r.wrong
    assert r.problems


def test_exceptions_are_failed_operations_and_the_run_goes_on(monkeypatch, zs):
    wl, ctx = zs
    monkeypatch.setattr(normal_forms, "psi", lambda *a: 1 / 0)
    r = _drive(wl, ctx, seed=3, n=24)
    assert r.attempted == 24 and r.failed == 6 and r.wrong == 0
    assert any("ZeroDivisionError" in p for p in r.problems)


@pytest.mark.parametrize("fixture", ["nf", "zs"])
def test_same_seed_same_inputs_and_digest(request, fixture):
    wl, ctx = request.getfixturevalue(fixture)

    def inputs(seed):
        ops, seen = wl.operations(ctx, seed), []
        for _ in range(40):
            op = next(ops)
            op.call()
            seen.append((op.kind, op.input))
        return seen

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)
    assert run.digest_of(wl, ctx, 7) == run.digest_of(wl, ctx, 7)
    assert run.digest_of(wl, ctx, 7) != run.digest_of(wl, ctx, 8)


def test_recorded_digest_matches(zs):
    wl, ctx = zs
    recorded = run.recorded_digests()[wl.name]["0"]
    assert run.digest_of(wl, ctx, 0) == recorded


def test_perm_model_matches_the_germ(nf):
    _, ctx = nf
    g = ctx["g"]
    model = workloads.PermModel(g.names, (6,))
    assert model.perm[g.delta] == model.delta
    for s in range(len(g)):
        assert model.length[s] == g.atom_len[s]
        for t in (1, 7, 100, 500):
            u = g.product(s, t)
            if u is not None:
                assert model.perm[u] == model.compose(model.perm[s], model.perm[t])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_yields_every_per_layer_metric(workload):
    p = _run_cli("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    nonzero = {
        "nf-braid6": ["builtins.braid_germ_s", "germ.lattice_calls", "germ.lattice_s",
                      "element.normal_form.calls", "element.normal_form.letters",
                      "element.normal_form.self_s", "automata.build_s",
                      "automata.count_accepted_s"]
        + [f"element.{op}.{k}" for op in ("multiply", "gcd", "lcm", "left_complement")
           for k in ("calls", "self_s")],
        "zs-prod-b4b3": ["germ.parse_germ_s", "germ.validate_germ_s",
                         "quasicenter.atom_classes_s", "zappa_szep.build_s",
                         "zappa_szep.gh_decompose.self_s", "zappa_szep.hg_decompose.self_s",
                         "zappa_szep.act_word.calls", "zappa_szep.act_word.self_s",
                         "normal_forms.split_nf.self_s", "normal_forms.merge_nf.self_s",
                         "normal_forms.psi.self_s", "element.gcd.calls",
                         "automata.translate_s"],
        "check-prod-b4b3": ["builtins.direct_product_germ_s", "germ.lattice_calls",
                            "automata.translate_s", "automata.enumerate_accepted.words",
                            "automata.enumerate_accepted_s", "cli.self_s"]
        + [f"suites.{s}.s" for s in workloads.SUITES]
        + [f"suites.{s}.cases" for s in workloads.SUITES if s != "automata-translation"],
    }[workload]
    assert [k for k in nonzero if not metrics[k]["value"] > 0] == []
    assert metrics["trace.spans"]["value"] > 0
    if workload == "check-prod-b4b3":
        assert metrics["suites.failed"]["value"] == 1      # the known refusal


def test_untraced_run_reports_every_end_to_end_metric():
    p = _run_cli("--workload", "zs-prod-b4b3", "--seed", "2", "--seconds", "0.5", "--trace", "0")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 256
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _run_cli("--workload", "nf-braid6", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
