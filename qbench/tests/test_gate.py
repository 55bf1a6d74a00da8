"""End-to-end checks of the benchmark command (slow: each simulates a
bench day).  Run from the checkout root::

    python3 -m pytest qbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

QBENCH = Path(__file__).resolve().parent.parent
ROOT = QBENCH.parent


def checkout(tmp_path: Path, with_program: bool) -> Path:
    """A fresh checkout holding the benchmark (and the program)."""
    root = tmp_path / "checkout"
    shutil.copytree(QBENCH, root / "qbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_program:
        shutil.copytree(ROOT / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "qbench/run.py", *args], cwd=root,
        capture_output=True, text=True, timeout=300,
    )


def test_fails_without_the_program(tmp_path):
    root = checkout(tmp_path, with_program=False)
    done = run(root, "--workload", "batch-day", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_digest_mismatch_exits_nonzero(tmp_path):
    root = checkout(tmp_path, with_program=True)
    digests = root / "qbench" / "digests.json"
    data = json.loads(digests.read_text())
    data["batch-day"] = "0" * 64
    digests.write_text(json.dumps(data))
    done = run(root, "--workload", "batch-day", "--seed", "7",
               "--seconds", "1", "--trace", "0")
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert "committed" in done.stdout


def gen(tmp_path: Path, stage: str, out: str, **options) -> Path:
    env = {"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    cmd = [sys.executable, str(QBENCH / "gen.py"), "--stage", stage,
           "--out", str(tmp_path / out)]
    for name, value in options.items():
        cmd += [f"--{name}", str(value)]
    subprocess.run(cmd, check=True, env=env, timeout=300)
    return tmp_path / out


def files_of(directory: Path) -> dict:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def test_inputs_are_byte_identical_for_a_seed(tmp_path):
    bench = gen(tmp_path, "bench", "bench")
    first = gen(tmp_path, "order", "a", seed=3, bench=bench)
    again = gen(tmp_path, "order", "b", seed=3, bench=bench)
    other = gen(tmp_path, "order", "c", seed=4, bench=bench)
    assert files_of(first) == files_of(again)
    day, other_day = (first / "day.csv").read_text(), (
        other / "day.csv").read_text()
    # Another seed reorders the taxis, and only that.
    assert day != other_day
    assert sorted(day.splitlines()) == sorted(other_day.splitlines())
    history = gen(tmp_path, "history", "h1", bench=bench)
    history_again = gen(tmp_path, "history", "h2", bench=bench)
    assert files_of(history) == files_of(history_again)
    assert len([n for n in files_of(history) if n.endswith(".seg")]) == 28
