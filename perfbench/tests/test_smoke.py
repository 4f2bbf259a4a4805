"""Harness self-test: every workload at the tiny size, untraced and traced.

Asserts that every metric BENCHMARK.json names is printed with its unit and
that every output check passes, and that the harness refuses to report a
result when the program is missing or wrong. It asserts no speed, and
tiny-size numbers are never results.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_checks_pass(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))


def _copy_bench(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path,
                        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))


def test_no_result_without_the_program(tmp_path):
    _copy_bench(tmp_path)
    done = run_bench(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_wrong_output_fails_the_run(tmp_path):
    _copy_bench(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "milsent" / "cli.py"
    source = cli.read_text(encoding="utf-8")
    keep_all = "out_docs.append(with_predictions(doc, labels, scores))"
    assert keep_all in source
    # predict silently drops the first scored document
    cli.write_text(source.replace(
        keep_all, "out_docs.append(with_predictions(doc, labels, scores)) if doc_summaries "
                  "and len(doc_summaries) > 1 else None"), encoding="utf-8")
    done = run_bench(tmp_path, "score-bulk", 0)
    assert done.returncode == 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
