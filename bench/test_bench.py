"""Tests of the benchmark itself, on the tiny ``--smoke`` workloads.

    python3 -m pytest -q bench/test_bench.py

They check that every metric of BENCHMARK.json prints with its unit,
that the correctness gate passes here and can fail, that traced counts
repeat exactly, and that the benchmark refuses to run without sources.
No timing bound is applied.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "bench"))
import run  # noqa: E402
import sample  # noqa: E402


def bench(root: Path, workload: str, trace: int = 0, seed: int = 5):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def copy_checkout(dest: Path, with_sources: bool = True) -> Path:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "bench", dest / "bench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def assert_metrics(result: dict, wanted: list[dict]):
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_end_to_end_metrics_and_passes_gate(workload):
    proc, result = bench(ROOT, workload)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, SPEC["end_to_end"])
    assert "fail_ratio 0 (unit 1)" in proc.stdout
    line = next(l for l in proc.stdout.splitlines() if l.startswith("# provenance "))
    info = json.loads(line[len("# provenance "):])
    for key in ("git_commit", "src_sha256", "python", "sympy", "ground_types", "nproc", "seed"):
        assert key in info


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        proc, result = bench(ROOT, workload, trace=1)
        assert proc.returncode == 0, proc.stderr
        assert result["correct"]
        assert_metrics(result, SPEC["per_layer"])
        results.append(result["metrics"])
    counts = [
        {k: v["value"] for k, v in m.items() if v["unit"] in ("count", "ratio", "B")
         and k != "trace.overhead_ratio"}
        for m in results
    ]
    assert counts[0] == counts[1]
    assert results[0]["trace.overhead_ratio"]["value"] > 0


def test_gate_counts_each_failure_kind():
    golden = {"monoid --count 3": {"sha256": "abc"}}
    ok = {"argv": ["monoid", "--count", "3", "--seed", "7"], "exit": 0, "passed": True,
          "digest": "abc"}
    assert not run.suite_failed(ok, golden)
    assert run.suite_failed({**ok, "exit": 1}, golden)
    assert run.suite_failed({**ok, "passed": False}, golden)
    assert run.suite_failed({**ok, "digest": "abd"}, golden)
    assert run.suite_failed({**ok, "argv": ["monoid", "--count", "4"]}, golden)


def test_speed_probe_scales_by_mean_probe_time():
    probe = sample.SpeedProbe(lambda: None, ref_s=0.004)
    probe.times = [0.002, 0.006, 0.010]
    assert probe.program_s(2.5) == pytest.approx(2.5 - 0.018)
    assert probe.scaled(3.0) == pytest.approx(3.0 * 0.004 / 0.006)
    probe.times = []
    assert probe.scaled(3.0) == 3.0


def test_speed_probe_interrupts_a_stretch_and_restores_the_handler():
    for probe in (sample.SpeedProbe.poly(), sample.SpeedProbe.field()):
        before = sample.signal.getsignal(sample.signal.SIGALRM)
        start = sample.time.perf_counter()
        with probe:
            while sample.time.perf_counter() - start < 0.3:
                sum(range(1000))
        elapsed = sample.time.perf_counter() - start
        assert len(probe.times) >= 2
        assert 0 < probe.program_s(elapsed) < elapsed
        assert sample.signal.getsignal(sample.signal.SIGALRM) is before
        assert sample.gc.isenabled()


def test_tampered_golden_makes_fail_ratio_positive(tmp_path):
    root = copy_checkout(tmp_path)
    path = root / "bench" / "golden" / "smoke-replay.json"
    golden = json.loads(path.read_text())
    for entry in golden.values():
        entry["sha256"] = "0" * 64
    path.write_text(json.dumps(golden))
    proc, result = bench(root, "replay")
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] == result["attempted"] > 0


def test_failing_check_makes_fail_ratio_positive(tmp_path):
    root = copy_checkout(tmp_path)
    cli = root / "src" / "superloop" / "cli.py"
    cli.write_text(cli.read_text() + (
        "\n\n_run = run\n\n\ndef run(cfg):\n"
        "    report = _run(cfg)\n"
        "    report['checks'][0]['status'] = 'fail'\n"
        "    report['passed'] = False\n"
        "    return report\n"
    ))
    proc, result = bench(root, "torsion")
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] == result["attempted"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    root = copy_checkout(tmp_path, with_sources=False)
    proc, result = bench(root, "relations")
    assert proc.returncode != 0
    assert result is None
