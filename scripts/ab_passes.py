"""Compare two source trees pass for pass, in one process.

Usage: python scripts/ab_passes.py TREE_A TREE_B [--passes N] [--seed S]
                                   [--by-kind] WORKLOAD...

Tree A's ``src/gpseries`` is imported as ``gpseries`` and tree B's as
``gpseries_b``, side by side.  Each workload's cases are built from tree
A's ``perfbench/workloads.py`` (read, not changed) once for each side, so
both run the same cases.  Then N pairs of whole passes run, A first in
even pairs and B first in odd ones, and every answer is checked as the
benchmark checks it: a typed refusal passes only where the case may
refuse.  The script exits 1 if any answer fails.

Separate processes running the same tree can differ by 1.6x on a busy
2-vCPU host; two passes in one process share its warm-up and its
neighbours, and alternating the order cancels the drift between them.
For each workload it prints each side's min and median process time per
pass (case calls only, checks left out), the median over pairs of B's
time over A's, and in how many pairs B was faster.  With ``--by-kind`` the
same figures follow for each ``Case.kind`` of the workload, one line each,
so a gain can be traced to its stratum and a control shown not to move.
"""

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

SUBMODULES = ("calculus", "cli", "exponents", "identities", "residues", "series")


def _load(name, path: Path, package=False):
    """Import the module or package at ``path`` under ``name``."""
    if package:
        spec = importlib.util.spec_from_file_location(
            name, path / "__init__.py", submodule_search_locations=[str(path)])
    else:
        spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _library(name, tree: Path):
    gp = _load(name, tree / "src" / "gpseries", package=True)
    for sub in SUBMODULES:
        importlib.import_module(f"{name}.{sub}")
    return gp


def _pass(cases, typed):
    """({kind: process seconds of its case calls}, [(label, why) for each
    failure])."""
    answers = []
    gc.collect()
    for case in cases:
        t0 = time.process_time()
        try:
            answer = case.run(), None
        except typed as exc:
            answer = None, exc
        answers.append((time.process_time() - t0, answer))
    bad = []
    for case, (_, (answer, exc)) in zip(cases, answers):
        if exc is not None:
            why = None if case.may_refuse else f"{type(exc).__name__}: {exc}"
        else:
            why = case.check(answer)
        if why is not None:
            bad.append((case.label, why))
    by_kind = {}
    for case, (dt, _) in zip(cases, answers):
        by_kind[case.kind] = by_kind.get(case.kind, 0.0) + dt
    return by_kind, bad


def compare(workloads, sides, workload, seed, passes):
    """(per-kind times of A, of B, failures) over ``passes`` alternating
    pairs, one {kind: seconds} per pass."""
    spec = workloads.specs(workload, seed)
    runs = [(workloads.build(workload, spec, gp), (gp.GPSeriesError, workloads.Refused))
            for gp in sides]
    times, bad = ([], []), []
    for i in range(passes):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            dt, failed = _pass(*runs[side])
            times[side].append(dt)
            bad += [("AB"[side], label, why) for label, why in failed]
    return times, bad


def _summary(ta, tb):
    """Each side's min and median, B/A over pairs and B's wins."""
    ratio = statistics.median(b / a for a, b in zip(ta, tb))
    wins = sum(b < a for a, b in zip(ta, tb))
    return (f"A min {min(ta):.4f} med {statistics.median(ta):.4f} s"
            f"  B min {min(tb):.4f} med {statistics.median(tb):.4f} s"
            f"  B/A {ratio:.3f}  B wins {wins}/{len(ta)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    ap.add_argument("--passes", type=int, default=10, help="pairs of passes")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--by-kind", action="store_true",
                    help="also one line per Case.kind of each workload")
    ap.add_argument("workload", nargs="+")
    args = ap.parse_args(argv)
    workloads = _load("workloads", args.tree_a / "perfbench" / "workloads.py")
    for name in args.workload:
        if name not in workloads.WORKLOADS:
            ap.error(f"unknown workload {name!r}; choose from {workloads.WORKLOADS}")
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    sides = (_library("gpseries", args.tree_a), _library("gpseries_b", args.tree_b))
    failed = False
    for name in args.workload:
        (ta, tb), bad = compare(workloads, sides, name, args.seed, args.passes)
        total = [[sum(t.values()) for t in side] for side in (ta, tb)]
        print(f"{name} seed={args.seed} passes={args.passes}  {_summary(*total)}",
              flush=True)
        if args.by_kind:
            for kind in ta[0]:
                print(f"  kind {kind}  {_summary([t[kind] for t in ta], [t[kind] for t in tb])}",
                      flush=True)
        for side, label, why in bad[:10]:
            print(f"  {side} failed: {label}: {why}")
        failed |= bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
