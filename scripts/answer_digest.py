"""Print one sha256 per benchmark workload and seed, over every answer the
library gives, so that two source trees can be compared answer for answer.

Usage: python scripts/answer_digest.py [--workload NAME|all] [--seed N ...]

The cases are those of ``perfbench/workloads.py`` (read, not changed), each
run once.  What is hashed, case by case in the workload's order:

- a Series answer (jacobi-recovery): its sorted terms, box and cone;
- a CLI case (cli-session): its exit code, stdout and stderr;
- a Dyson triple (dyson-routes): its repr;
- a case that raises: the exception's type and message.

Each output line reads ``<workload> seed=<N> <sha256>``.
"""

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gpseries  # noqa: E402
import gpseries.cli  # noqa: E402
import gpseries.identities  # noqa: E402
import gpseries.residues  # noqa: E402
import workloads  # noqa: E402


def _cli_answer(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gpseries.cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def _text(answer) -> str:
    if isinstance(answer, gpseries.Series):
        return repr((answer.sorted_terms(), answer.box, answer.cone))
    return repr(answer)


def _answers(workload, seed):
    """(label, answer text) for every case of one pass."""
    spec = workloads.specs(workload, seed)
    if workload == "cli-session":
        runs = [(" ".join(argv), lambda argv=argv: _cli_answer(argv))
                for _, argv, _ in spec["cases"]]
    else:
        runs = [(c.label, c.run) for c in workloads.build(workload, spec, gpseries)]
    for label, run in runs:
        try:
            answer = _text(run())
        except Exception as exc:  # a refusal is an answer too
            answer = f"{type(exc).__name__}: {exc}"
        yield label, answer


def digest(workload, seed) -> str:
    h = hashlib.sha256()
    for label, answer in _answers(workload, seed):
        h.update(f"{label}\t{answer}\n".encode())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, nargs="+", default=[1])
    args = ap.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        for seed in args.seed:
            print(f"{name} seed={seed} {digest(name, seed)}", flush=True)


if __name__ == "__main__":
    main()
