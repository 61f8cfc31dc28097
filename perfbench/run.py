#!/usr/bin/env python3
"""gpseries benchmark: seeded closed-loop workloads over the public API.

    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

runs every workload, each in its own process, checks every answer and prints
each end-to-end metric with its unit; ``--trace 1`` prints the per-layer
metrics instead.  ``--workload`` also takes one name from
``workloads.WORKLOADS``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

One process, one thread, a closed loop: the next case starts when the
previous one has returned and been checked.  With ``--trace 0`` the case
list is run in whole passes for up to ``--seconds`` (at least one pass),
with a probe of the host's speed between cases that scales every timing to
one nominal speed (see ``HostProbe``).
With ``--trace 1`` it is run once untraced and once traced, so that the
counts of the traced pass depend on the seed alone.

The exit code is 0 when every answer that came back was right, 1 when one
was wrong, and 2 when the benchmark could not run (for example, when
``src/gpseries`` is missing next to this directory).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
# The host's speed drifts by 10-25 % over minutes.  A fixed probe that never
# touches gpseries runs between cases about every PROBE_EVERY_S, and each
# case's time is scaled by PROBE_NOMINAL_S / (median of the PROBE_WINDOW
# probes around it), which reports it at one nominal host speed.
# PROBE_NOMINAL_S is the probe's median time on the 2-vCPU machine the
# bounds were set on.
PROBE_EVERY_S = 0.25
PROBE_WINDOW = 5
PROBE_NOMINAL_S = 0.0026
# outcomes that fail a case; a permitted refusal is not one of them
FAILURES = ("raised", "over_budget", "wrong")
CASE_BUDGET_S = 10.0
SUBMODULES = ("errors", "exponents", "fields", "series", "calculus",
              "residues", "identities", "cli")
OUT_DIR = HERE / "out"


class OverBudget(BaseException):
    """Raised in a case that runs past CASE_BUDGET_S.  It derives from
    BaseException so that no handler inside the library swallows it."""


def _on_alarm(signum, frame):
    raise OverBudget()


def import_gpseries():
    """Import gpseries afresh from ROOT/src and return the package, with
    every submodule loaded (so ``gp.series``, ``gp.cli``, ... resolve)."""
    src = ROOT / "src"
    if not (src / "gpseries" / "__init__.py").is_file():
        raise FileNotFoundError(f"no gpseries package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules
                 if n == "gpseries" or n.startswith("gpseries.")]:
        del sys.modules[name]
    gp = importlib.import_module("gpseries")
    for name in SUBMODULES:
        importlib.import_module(f"gpseries.{name}")
    if Path(gp.__file__).resolve().parent != (src / "gpseries").resolve():
        raise ImportError(f"gpseries imported from {gp.__file__}, not {src}")
    return gp


def probe():
    """Time a fixed piece of pure-Python work: an integer loop, then
    Fraction sums into a small dict keyed by tuples.  Host slowdowns hit
    these two unequally, and gpseries does both kinds of work, so the probe
    tracks it better than either part alone.  It calls only the standard
    library, so no change to gpseries alters its cost."""
    t0 = time.perf_counter()
    total = 0
    for i in range(15000):
        total += i * i % 7
    acc = {}
    for i in range(300):
        key = (i % 17, i % 13)
        acc[key] = acc.get(key, 0) + Fraction(i % 7 + 1, i % 5 + 1)
    return time.perf_counter() - t0


class HostProbe:
    """Probe times taken through a run, and which probe preceded each case."""

    def __init__(self):
        self.times = [probe()]
        self.before = []  # per case: index of the last probe before it
        self.last = time.perf_counter()

    def mark(self):
        self.before.append(len(self.times) - 1)

    def between_cases(self):
        """Probe if PROBE_EVERY_S has passed; return the time it took."""
        if time.perf_counter() - self.last <= PROBE_EVERY_S:
            return 0.0
        self.times.append(probe())
        self.last = time.perf_counter()
        return self.times[-1]

    def slowdown(self, j):
        """Host slowdown around probe j against the nominal speed."""
        lo = max(0, min(j - PROBE_WINDOW // 2, len(self.times) - PROBE_WINDOW))
        return (statistics.median(self.times[lo:lo + PROBE_WINDOW])
                / PROBE_NOMINAL_S)


def setup(workload, spec):
    """Import gpseries and build the cases, SETUP_REPEATS times; return the
    last build and the median time of one import-and-build, as measured and
    scaled to the nominal host speed by a probe taken just before it."""
    times = []
    scaled = []
    for _ in range(SETUP_REPEATS):
        # drop the previous build first, so every repetition starts from the
        # same heap and the collector has the same objects to walk
        gp = cases = None
        gc.collect()
        slowdown = probe() / PROBE_NOMINAL_S
        t0 = time.perf_counter()
        gp = import_gpseries()
        cases = workloads.build(workload, spec, gp)
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] / slowdown)
    return gp, cases, statistics.median(times), statistics.median(scaled)


def run_pass(cases, gp, tracer=None, host=None):
    """Run every case once; return (wall seconds, [(seconds, status, detail)]).

    With a ``HostProbe``, probe the host between cases; the returned wall
    time leaves the probes out.

    status is "ok", "refused" (a typed GPSeriesError or CLI exit 1 from a
    case that may refuse), "raised" (any other exception, or a typed refusal
    from a case that must answer), "over_budget" or "wrong"."""
    typed = (gp.GPSeriesError, workloads.Refused)
    records = []
    gc.collect()
    wall0 = time.perf_counter()
    probed = 0.0
    for case in cases:
        sid = tracer.start(tracing.CASE_SPAN) if tracer else None
        status, detail = "ok", None
        signal.setitimer(signal.ITIMER_REAL, CASE_BUDGET_S)
        t0 = time.perf_counter()
        try:
            answer = case.run()
        except typed as exc:
            status = "refused" if case.may_refuse else "raised"
            detail = f"{type(exc).__name__}: {exc}"
        except OverBudget:
            status, detail = "over_budget", f"over {CASE_BUDGET_S} s"
        except Exception as exc:  # counted and reported, never dropped
            status, detail = "raised", f"{type(exc).__name__}: {exc}"
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        if status == "ok":
            detail = case.check(answer)
            if detail is not None:
                status = "wrong"
        if tracer:
            tracer.stop(sid)
        records.append((dt, status, detail))
        if host is not None:
            host.mark()
            probed += host.between_cases()
    return time.perf_counter() - wall0 - probed, records


def environment(args, cases, passes):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "cases": len(cases),
        "passes": passes,
        "case_budget_s": CASE_BUDGET_S,
        "setup_repeats": SETUP_REPEATS,
        "trace": args.trace,
    }


def report_failures(cases, records):
    """Print each case that did not give its answer, once, with its status;
    return True if any answer was wrong."""
    seen = set()
    wrong = False
    for case, (_, status, detail) in zip(cases * (len(records) // len(cases)),
                                         records):
        if status == "ok" or case.label in seen:
            continue
        seen.add(case.label)
        wrong = wrong or status == "wrong"
        stream = sys.stderr if status == "wrong" else sys.stdout
        print(f"{status}: [{case.kind}] {case.label}: {detail}", file=stream)
    return wrong


def end_to_end(args, spec):
    gp, cases, setup_s, scaled_setup_s = setup(args.workload, spec)
    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    host = HostProbe()
    wall = 0.0
    passes = 0
    while True:  # whole passes; stop before one would overrun --seconds
        last, recs = run_pass(cases, gp, host=host)
        wall += last
        records += recs
        passes += 1
        if wall + last > args.seconds:
            break
    lat_ms = [dt * 1e3 for dt, _, _ in records]
    scaled_ms = [ms / host.slowdown(j) for ms, j in zip(lat_ms, host.before)]
    ok = sum(1 for _, status, _ in records if status == "ok")
    counts = {s: sum(1 for _, st, _ in records if st == s)
              for s in ("refused", "raised", "over_budget", "wrong")}
    raw = {
        "setup_s": setup_s,
        "cases_per_s": ok / wall,
        "case_ms_p50": statistics.median(lat_ms),
        "case_ms_p90": statistics.quantiles(lat_ms, n=10)[8],
    }
    # the loop's wall time scales by the time-weighted slowdown of its cases
    wall_scale = sum(scaled_ms) / sum(lat_ms)
    metrics = {
        "setup_s": (scaled_setup_s, "s"),
        "cases_per_s": (ok / (wall * wall_scale), "1/s"),
        "case_ms_p50": (statistics.median(scaled_ms), "ms"),
        "case_ms_p90": (statistics.quantiles(scaled_ms, n=10)[8], "ms"),
        "answered_rate": (ok / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    env = environment(args, cases, passes)
    env.update(probes=len(host.times),
               probe_ms_median=statistics.median(host.times) * 1e3,
               host_slowdown=1 / wall_scale)
    print("env " + json.dumps(env))
    wrong = report_failures(cases, records)
    for name, (value, unit) in metrics.items():
        note = f"  (n={len(records)})" if name.startswith("case_ms") else ""
        if name in raw:
            note += f"  [{raw[name]:.4f} {unit} before scaling]"
        print(f"{name:<14} {value:12.4f} {unit}{note}")
    print(f"{'error_rate':<14} {1 - ok / len(records):12.4f} ratio  ("
          + ", ".join(f"{v} {k.replace('_', ' ')}" for k, v in counts.items())
          + f" of {len(records)})")
    failed = sum(counts[s] for s in FAILURES)
    return not wrong, len(records), failed, metrics


def layers(args, spec):
    gp, cases, _, _ = setup(args.workload, spec)
    signal.signal(signal.SIGALRM, _on_alarm)
    host = HostProbe()
    _, records = run_pass(cases, gp, host=host)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        _, traced_records = run_pass(cases, gp, tracer, host)
    # compare the two passes at the nominal host speed, one after the other
    scaled = [dt / host.slowdown(j)
              for (dt, _, _), j in zip(records + traced_records, host.before)]
    metrics = tracing.layer_metrics(tracer.spans, sum(scaled[len(cases):]),
                                    sum(scaled[:len(cases)]))
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_file, "w") as fh:
        json.dump({"env": environment(args, cases, 1),
                   "columns": ["name", "start_s", "end_s", "parent", "attrs"],
                   "spans": tracer.spans}, fh)
    print("env " + json.dumps(environment(args, cases, 1)))
    print(f"spans {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    wrong = report_failures(cases + cases, records + traced_records)
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:16.6f} {unit}")
    failed = sum(1 for _, status, _ in traced_records if status in FAILURES)
    return not wrong, len(traced_records), failed, metrics


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"{name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}"] = (value["value"], value["unit"])
    return correct, attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            correct, attempted, failed, metrics = run_all(args)
        else:
            spec = workloads.specs(args.workload, args.seed)
            run = layers if args.trace else end_to_end
            correct, attempted, failed, metrics = run(args, spec)
    except (ImportError, FileNotFoundError, RuntimeError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
