"""Tests of the benchmark itself (not of gpseries):

    python3 -m pytest perfbench -q
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

# The per-case loop does a little bookkeeping outside the case spans (timer
# calls, appending a record), so the self times, which partition the case
# spans exactly, cover a little less than the loop's wall time.
SELF_TIME_TOLERANCE = 0.03

COUNT_METRICS = [name for name, unit in tracing.LAYER_METRICS
                 if name.endswith((".calls", ".pairs", ".i_max_sum",
                                   ".attempts_per_call", ".terms_out"))]


@pytest.fixture(scope="module")
def gp():
    signal.signal(signal.SIGALRM, run._on_alarm)
    return run.import_gpseries()


def _traced_pass(gp, workload, seed, limit=None):
    cases = workloads.build(workload, workloads.specs(workload, seed), gp)
    cases = cases[:limit]
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        wall, records = run.run_pass(cases, gp, tracer)
    return tracer, wall, records


def _aliases(gp, original):
    return [(m, k) for m in tracing._package_modules()
            for k, v in vars(m).items() if v is original]


def test_wrappers_rebind_every_alias_and_restore_it(gp):
    originals = {key: getattr(getattr(gp, key[0]), key[1])
                 for key in tracing.TARGETS}
    aliases = {key: _aliases(gp, fn) for key, fn in originals.items()}
    # mul is imported by name into four modules and re-exported by the package
    mul_homes = {m.__name__ for m, _ in aliases[("series", "mul")]}
    assert {"gpseries", "gpseries.series", "gpseries.residues",
            "gpseries.calculus", "gpseries.identities",
            "gpseries.cli"} <= mul_homes
    with pytest.raises(KeyError):
        with tracing.traced(tracing.Tracer()):
            for key, places in aliases.items():
                for module, name in places:
                    assert getattr(module, name) is not originals[key]
                    assert getattr(module, name).__wrapped__ is originals[key]
            raise KeyError("leave the block by an exception")
    for key, places in aliases.items():
        for module, name in places:
            assert getattr(module, name) is originals[key]


def test_self_times_sum_to_traced_wall(gp):
    tracer, wall, _ = _traced_pass(gp, "cli-session", 1)
    spans = tracer.spans
    own = tracing.self_times(spans)
    roots = sum(end - start for name, start, end, parent, _ in spans
                if parent is None)
    assert all(name == tracing.CASE_SPAN
               for name, _, _, parent, _ in spans if parent is None)
    assert sum(own) == pytest.approx(roots, rel=1e-9)
    assert min(own) > -1e-6
    assert wall * (1 - SELF_TIME_TOLERANCE) <= sum(own) <= wall


def test_counts_repeat_exactly_for_a_seed(gp):
    def counts():
        out = {}
        for workload, limit in (("cli-session", None), ("jacobi-recovery", 12),
                                ("dyson-routes", 40)):
            tracer, wall, _ = _traced_pass(gp, workload, 7, limit)
            metrics = tracing.layer_metrics(tracer.spans, wall, wall)
            out[workload] = {name: metrics[name][0] for name in COUNT_METRICS}
        return out

    first, second = counts(), counts()
    assert first == second
    assert first["jacobi-recovery"]["series.mul_trunc.pairs"] > 0
    assert first["cli-session"]["exponents.certify_cone_below.calls"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_case_generator_is_deterministic(workload):
    a = workloads.specs(workload, 3)
    assert a == workloads.specs(workload, 3)
    assert a != workloads.specs(workload, 4)
    assert len(a["cases"]) >= 100


def test_laurent_reference():
    # 1/(1-X) = 1 + X + ..., (1+X)/X^2 over F_5, 1/(2 - 2X) over Q
    assert workloads.laurent_coeffs([1], [1, -1], 0, 4, 0) == [1] * 5
    assert workloads.laurent_coeffs([1, 1], [0, 0, 1], -3, 1, 5) == \
        [0, 1, 1, 0, 0]
    assert workloads.laurent_coeffs([1], [2, -2], 0, 2, 0) == [0.5] * 3


def test_wrong_answer_is_reported_not_counted_as_success(gp, capsys):
    cases = workloads.build("cli-session", workloads.specs("cli-session", 1), gp)
    good = next(c for c in cases if c.kind == "ct")
    bad = workloads.Case(good.kind, good.label, good.run,
                         lambda answer: "deliberately wrong expectation")
    _, records = run.run_pass([good, bad], gp)
    assert [status for _, status, _ in records] == ["ok", "wrong"]
    assert run.report_failures([good, bad], records) is True
    assert "deliberately wrong" in capsys.readouterr().err


def test_refusal_fails_only_a_case_that_must_answer(gp):
    def refuse():
        raise gp.LeadingTermUncertain("box cannot certify")

    def ok(answer):
        return None

    may = workloads.Case("k", "may refuse", refuse, ok, may_refuse=True)
    must = workloads.Case("k", "must answer", refuse, ok)
    _, records = run.run_pass([may, must], gp)
    assert [status for _, status, _ in records] == ["refused", "raised"]
    assert [status in run.FAILURES for _, status, _ in records] == \
        [False, True]


def test_probes_run_between_cases_and_leave_the_wall_time(gp):
    def nap():
        time.sleep(run.PROBE_EVERY_S / 2)

    cases = [workloads.Case("k", f"nap {i}", nap, lambda answer: None)
             for i in range(6)]
    host = run.HostProbe()
    wall, records = run.run_pass(cases, gp, host=host)
    assert len(host.times) >= 3
    assert host.before[0] == 0 and host.before[-1] == len(host.times) - 2
    assert [status for _, status, _ in records] == ["ok"] * 6
    assert wall == pytest.approx(sum(dt for dt, _, _ in records), rel=0.02)
    assert host.slowdown(0) > 0


def test_only_nested_divisions_may_refuse(gp):
    cases = workloads.build("cli-session", workloads.specs("cli-session", 1), gp)
    assert {c.kind for c in cases if c.may_refuse} == {"eval nested-division"}
    for workload in ("jacobi-recovery", "dyson-routes"):
        spec = workloads.specs(workload, 1)
        spec = dict(spec, cases=spec["cases"][:5])
        assert not any(c.may_refuse for c in workloads.build(workload, spec, gp))


def test_benchmark_json_names_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == \
        [name for name, _ in tracing.LAYER_METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == \
        [unit for _, unit in tracing.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-session",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
