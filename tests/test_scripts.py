"""The demo scripts and `python -m gpseries` run end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


def _run_script(*argv):
    return _run(str(ROOT / "scripts" / argv[0]), *argv[1:])


def test_dyson_demo_agrees():
    out = _run_script("dyson_demo.py", "3", "2")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[-1] == "all instances agree with (sum a)!/prod a_i!"
    assert len(lines) == 2 + 3 ** 2 + 3 ** 3  # header, instances, verdict


def test_reversion_demo_matches_lagrange_inversion():
    out = _run_script("reversion_demo.py")
    assert out.returncode == 0, out.stderr
    coeffs = [l for l in out.stdout.splitlines() if l.startswith("  a_")]
    assert len(coeffs) == 10
    assert all(l.endswith("  ok") for l in coeffs)


def test_package_runs_as_module():
    out = _run("-m", "gpseries", "dyson", "--a", "1,1,1")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "lhs=6 rhs=6 equal=true\n"


def test_ab_passes_runs_a_tree_against_itself():
    """A/A on jacobi-recovery: two pairs of whole passes, every answer
    checked, one summary line."""
    out = _run_script("ab_passes.py", str(ROOT), str(ROOT), "--passes", "2",
                      "jacobi-recovery")
    assert out.returncode == 0, out.stderr
    [line] = out.stdout.splitlines()
    assert line.startswith("jacobi-recovery seed=1 passes=2 ")
    assert "B/A" in line and line.endswith("/2")


def test_ab_passes_by_kind_adds_one_line_per_kind():
    """With --by-kind, each workload's summary line is followed by one line
    per Case.kind, in the order the kinds first appear among the cases."""
    out = _run_script("ab_passes.py", str(ROOT), str(ROOT), "--passes", "1",
                      "--by-kind", "jacobi-recovery", "dyson-routes")
    assert out.returncode == 0, out.stderr
    kinds = {}
    for line in out.stdout.splitlines():
        assert "  B/A " in line and line.endswith("/1")
        if line.startswith("  kind "):
            kinds[name].append(line[len("  kind "):line.index("  A min")])
        else:
            name = line.split()[0]
            kinds[name] = []
    assert list(kinds) == ["jacobi-recovery", "dyson-routes"]
    assert kinds["jacobi-recovery"] == ["|det|=1", "|det|=2"]
    assert len(set(kinds["dyson-routes"])) == len(kinds["dyson-routes"])
    assert {k.split()[0] for k in kinds["dyson-routes"]} == {
        "direct", "wilson", "egorychev"}


def test_answer_digest_repeats():
    """Two runs, under different string hash seeds, print the same digest
    of every jacobi-recovery answer of seed 1."""
    outs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        out = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "answer_digest.py"),
             "--workload", "jacobi-recovery", "--seed", "1"],
            capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        outs.append(out.stdout)
    name, seed, digest = outs[0].split()
    assert (name, seed, len(digest)) == ("jacobi-recovery", "seed=1", 64)
    assert outs[0] == outs[1]


def test_answer_digest_matches_committed():
    """Every seed-1 answer of every benchmark workload hashes to the digest
    committed in tests/answer_digest_seed1.txt, so a change of any answer,
    cone or CLI output shows here.  A change meant to alter answers
    rewrites that file with ``scripts/answer_digest.py --seed 1``."""
    out = _run_script("answer_digest.py", "--seed", "1")
    assert out.returncode == 0, out.stderr
    assert out.stdout == (ROOT / "tests" / "answer_digest_seed1.txt").read_text()


def test_answer_digest_repeats_on_warm_caches():
    """Two seed-1 dyson-routes digests in one process print the committed
    line twice: the second pass reads through the process-wide caches that
    the first filled (Upsilon, Delta, J, the wedge and the member powers)."""
    out = _run_script("answer_digest.py", "--workload", "dyson-routes",
                      "--seed", "1", "1")
    assert out.returncode == 0, out.stderr
    [line] = [l for l in (ROOT / "tests" / "answer_digest_seed1.txt").read_text()
              .splitlines() if l.startswith("dyson-routes ")]
    assert out.stdout.splitlines() == [line, line]
