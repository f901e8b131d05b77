"""superloop benchmark: time to a verified report, end to end and per layer.

    python3 bench/run.py --workload relations --seed 1 --seconds 25 --trace 0

Load is a closed loop with one client: samples run back to back, each
in a fresh interpreter (``sample.py``), because a user pays interpreter
start, the sympy import and lazy current derivation on every command.
Sampling continues until ``--seconds`` have passed (at least one
sample), each running the pass the workload plans (``workloads.py``).
Every suite a sample runs is one operation; it fails on a nonzero
exit, a check whose status is not ``pass``, or a report whose digest
differs from the committed golden one (``golden/``).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``:
median ``wall_ref_s`` (first suite call to last report), median
``setup_s`` (interpreter spawn until ``superloop`` is imported and the
suites are planned) and median ``peak_rss_mb`` of the sample processes.
Both times are scaled to a reference CPU speed by ``sample.SpeedProbe``,
which times a fixed computation beside the code: on a shared host the
speed a process gets swings by a fifth or more over minutes, and
unscaled medians of two sets of runs of the same code differ by that
much.  The unscaled medians print too, as ``wall_s`` and
``setup_raw_s`` (both without the probes' own time).
``--trace 1`` alternates untraced and traced samples and prints the
per-layer metrics from the traced ones (``tracer.py``), with the
tracing overhead.  ``--smoke`` runs tiny versions of the workloads for
the benchmark's own tests.

The last line of standard output is the JSON result; the lines before
it give provenance, sample counts and every metric with its unit.  The
full record goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SAMPLE = BENCH / "sample.py"
RUN_BUDGET_S = 170  # a run must end within 180 s
LAYERS = ("coeffs", "linalg", "superfree", "pbw", "modrep", "weyl", "cli")
COUNT_SECTIONS = ("calls", "counts", "op_calls", "scalar_max_terms")

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # counts and reports must repeat exactly
    env.pop("PYTHONPATH", None)
    return env


def spawn(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(SAMPLE), *args, "--spawned-at", repr(time.time())]
    return subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )


def plan(workload: str, seed: int, smoke: bool) -> tuple[list[list[str]], dict]:
    """The suites of the workload's pass, and the versions the sample interpreters run."""
    args = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    proc = spawn(args, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"planning {workload} failed:\n{proc.stderr.strip()}")
    planned = json.loads(proc.stdout)
    return planned["runs"], planned["host"]


def load_golden(workload: str, smoke: bool) -> dict:
    path = BENCH / "golden" / f"{'smoke-' if smoke else ''}{workload}.json"
    if not path.is_file():
        raise BenchError(f"no golden reports at {path}")
    return json.loads(path.read_text())


def golden_key(argv: list[str]) -> str:
    """Golden entries are keyed by the suite arguments without the CLI seed."""
    out, skip = [], False
    for arg in argv:
        if skip:
            skip = False
        elif arg == "--seed":
            skip = True
        else:
            out.append(arg)
    return " ".join(out)


def suite_failed(entry: dict, golden: dict) -> bool:
    expected = golden.get(golden_key(entry["argv"]), {}).get("sha256")
    return entry["exit"] != 0 or not entry.get("passed") or entry.get("digest") != expected


def run_sample(workload, seed, smoke, runs, trace, spans, deadline) -> dict | None:
    args = ["--workload", workload, "--seed", str(seed), "--plan", json.dumps(runs)]
    args += ["--trace", str(trace)] + (["--spans", str(spans)] if spans else [])
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = spawn(args + (["--smoke"] if smoke else []), timeout)
    except subprocess.TimeoutExpired:
        print(f"# sample timed out after {timeout:.0f} s", flush=True)
        return None
    if proc.returncode != 0:
        print(f"# sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", flush=True)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(workload: str, seed: int, seconds: float, trace: int, runs, host: dict) -> dict:
    commit = None  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "suites": runs,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        **host,
        "nproc": os.cpu_count(),
        "load": "closed loop, 1 client, 1 fresh interpreter per sample",
    }


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(traces: list[dict], report_bytes: int) -> dict:
    """Per-layer metrics from the traced samples: times are medians, counts the first sample's."""
    first = traces[0]

    def med(section, key):
        return median([t[section].get(key, 0.0) for t in traces])

    def calls(key):
        return first["calls"].get(key, 0)

    def ops(prefix):
        return sum(n for k, n in first["op_calls"].items() if k.startswith(prefix))

    def op_s(prefix):
        return median([sum(s for k, s in t["op_s"].items() if k.startswith(prefix)) for t in traces])

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call(seconds, n, scale):
        return seconds / n * scale if n else 0.0

    counts = first["counts"]
    m = {
        "coeffs.scalar_ops": ops("coeffs.scalar_"),
        "coeffs.scalar_s": op_s("coeffs.scalar_"),
        "coeffs.scalar_mul_calls": ops("coeffs.scalar_mul"),
        "coeffs.scalar_add_calls": ops("coeffs.scalar_add"),
        "coeffs.scalar_term_products": counts.get("coeffs.scalar_term_products", 0),
        "coeffs.scalar_max_terms": first["scalar_max_terms"],
        "coeffs.expand_ratio_s": med("self_s", "coeffs.expand_ratio"),
        "coeffs.poly_gcd_s": med("self_s", "coeffs.poly_gcd"),
        "linalg.solve_span_calls": calls("linalg.solve_span"),
        "linalg.solve_span_hit_ratio": ratio(
            counts.get("linalg.solve_span_hits", 0), calls("linalg.solve_span")
        ),
        "linalg.solve_span_s": med("self_s", "linalg.solve_span"),
        "linalg.reducer_adds": counts.get("linalg.reducer_adds", 0),
        "linalg.reducer_useful_ratio": ratio(
            counts.get("linalg.reducer_useful", 0), counts.get("linalg.reducer_adds", 0)
        ),
        "linalg.reducer_s": med("self_s", "linalg.reducer"),
        "linalg.mat_mul_calls": ops("linalg.mat_mul"),
        "linalg.mat_mul_s": op_s("linalg.mat_mul"),
        "linalg.mat_mul_dim3_calls": ops("linalg.mat_mul.dim3"),
        "linalg.mat_mul_dim9_calls": ops("linalg.mat_mul.dim9"),
        "linalg.kron_super_s": med("self_s", "linalg.kron_super"),
        "linalg.joint_nullspace_s": med("self_s", "linalg.joint_nullspace"),
        "superfree.relation_elem_calls": calls("superfree.relation_elem"),
        "superfree.relation_elem_s": med("self_s", "superfree.relation_elem"),
        "superfree.elem_mul_calls": ops("superfree.elem_mul"),
        "superfree.elem_mul_s": op_s("superfree.elem_mul"),
        "superfree.mu_certificate_s": med("self_s", "superfree.mu_certificate"),
        "superfree.guided_reduce_s": med("self_s", "superfree.guided_reduce"),
        "superfree.lambda_mu_build_s": med("self_s", "superfree.lambda_mu_build"),
        "superfree.appendix_a_s": med("self_s", "superfree.appendix_a"),
        "pbw.monomials": counts.get("pbw.monomials", 0),
        "pbw.words": counts.get("pbw.words", 0),
        "pbw.enumerate_s": med("self_s", "pbw.enumerate"),
        "pbw.monomial_elem_s": med("self_s", "pbw.monomial_elem"),
        "modrep.elem_matrix_calls": calls("modrep.elem_matrix"),
        "modrep.elem_matrix_s": med("self_s", "modrep.elem_matrix"),
        "modrep.gen_calls": calls("modrep.gen"),
        "modrep.distinct_currents": counts.get("modrep.distinct_currents", 0),
        "modrep.gen_s": med("self_s", "modrep.gen"),
        "modrep.highest_weight_s": med("self_s", "modrep.highest_weight"),
        "modrep.coproduct_s": med("self_s", "modrep.coproduct"),
        "modrep.relation_report_s": med("self_s", "modrep.relation_report"),
        "weyl.series_to_torsion_calls": calls("weyl.series_to_torsion"),
        "weyl.series_to_torsion_s": med("self_s", "weyl.series_to_torsion"),
        "weyl.torsion_to_series_s": med("self_s", "weyl.torsion_to_series"),
        "weyl.monoid_product_s": med("self_s", "weyl.monoid_product"),
        "weyl.star_product_s": med("self_s", "weyl.star_product"),
        "cli.suite_s": med("self_s", "cli.suite"),
        "cli.serialize_s": med("self_s", "cli.main"),
        "cli.report_bytes": report_bytes,
    }
    # unit costs, each over the base count reported beside it
    m["unit.scalar_mul_us"] = per_call(op_s("coeffs.scalar_mul"), m["coeffs.scalar_mul_calls"], 1e6)
    m["unit.scalar_add_us"] = per_call(op_s("coeffs.scalar_add"), m["coeffs.scalar_add_calls"], 1e6)
    for dim in (3, 9):
        m[f"unit.mat_mul_dim{dim}_us"] = per_call(
            op_s(f"linalg.mat_mul.dim{dim}"), m[f"linalg.mat_mul_dim{dim}_calls"], 1e6
        )
    m["unit.reducer_add_us"] = per_call(m["linalg.reducer_s"], m["linalg.reducer_adds"], 1e6)
    m["unit.relation_elem_us"] = per_call(
        m["superfree.relation_elem_s"], m["superfree.relation_elem_calls"], 1e6
    )
    m["unit.elem_matrix_us"] = per_call(
        m["modrep.elem_matrix_s"], m["modrep.elem_matrix_calls"], 1e6
    )
    m["unit.series_to_torsion_ms"] = per_call(
        med("incl_s", "weyl.series_to_torsion"), m["weyl.series_to_torsion_calls"], 1e3
    )
    return m


def layer_shares(trace: dict, wall_s: float) -> dict:
    """Self time of each layer's spans as a share of the traced pass."""
    shares = {layer: 0.0 for layer in LAYERS}
    for name, seconds in trace["self_s"].items():
        shares[name.split(".")[0]] += seconds / wall_s
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for the benchmark's tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "superloop" / "__init__.py").is_file() or not spec_path.is_file():
        raise BenchError(f"{ROOT} holds no superloop sources (src/superloop) or no BENCHMARK.json")
    spec = json.loads(spec_path.read_text())
    golden = load_golden(args.workload, args.smoke)
    runs, host = plan(args.workload, args.seed, args.smoke)
    info = provenance(args.workload, args.seed, args.seconds, args.trace, runs, host)
    print("# provenance " + json.dumps(info), flush=True)

    OUT.mkdir(exist_ok=True)
    tag = f"{'smoke-' if args.smoke else ''}{args.workload}-seed{args.seed}-trace{args.trace}"
    samples: list[tuple[int, dict | None]] = []

    def sample(traced: int):
        spans = OUT / f"{tag}-spans{len(samples)}.jsonl" if traced else None
        rec = run_sample(args.workload, args.seed, args.smoke, runs, traced, spans, deadline)
        samples.append((traced, rec))
        if rec is not None:
            speed = (f" wall_ref_s {rec['wall_ref_s']:.4f} setup_ref_s {rec['setup_ref_s']:.4f}"
                     f" ({len(rec['probe_times'])}+{len(rec['setup_probe_times'])} probes)"
                     if "wall_ref_s" in rec else "")
            print(f"# sample {len(samples)}{' traced' if traced else ''}: wall_s {rec['wall_s']:.4f}"
                  f"{speed} setup_s {rec['setup_s']:.4f} peak_rss_mb {rec['peak_rss_mb']:.1f}",
                  flush=True)
        return rec

    window_start = time.monotonic()
    while not samples or time.monotonic() - window_start < args.seconds:
        # a traced run alternates untraced and traced samples
        traced = int(args.trace and len(samples) % 2 == 1)
        rec = sample(traced)
        if rec is None or time.monotonic() > deadline - 5:
            break
    if args.trace and len(samples) == 1 and samples[0][1] is not None:
        sample(1)

    attempted = failed = 0
    for _, rec in samples:
        attempted += len(runs)
        if rec is None:
            failed += len(runs)
            continue
        for entry in rec["suites"]:
            if suite_failed(entry, golden):
                failed += 1
                print(f"# FAILED {' '.join(entry['argv'])}: exit {entry['exit']}, "
                      f"passed {entry.get('passed')}, digest {entry.get('digest')}", flush=True)
    plain = [rec for traced, rec in samples if rec is not None and not traced]
    traced = [rec for traced, rec in samples if rec is not None and traced]
    n_plain, n_traced = len(plain), len(traced)
    print(f"# samples: {n_plain} untraced, {n_traced} traced; operations: {attempted} attempted, "
          f"{failed} failed; fail_ratio {failed / attempted:.4g} (unit 1)", flush=True)

    wall_s = median([r["wall_s"] for r in plain])
    metrics = {
        "wall_ref_s": median([r["wall_ref_s"] for r in plain]),
        "setup_s": median([r["setup_ref_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }
    measured = {"wall_s": wall_s, "setup_raw_s": median([r["setup_s"] for r in plain])}
    wanted = spec["end_to_end"]
    if args.trace:
        wanted = spec["per_layer"]
        if traced:
            traced_wall = median([r["wall_s"] for r in traced])
            metrics = layer_metrics([r["trace"] for r in traced], sum(
                e["bytes"] for e in traced[0]["suites"]
            ))
            metrics["trace.wall_s"] = traced_wall
            metrics["trace.overhead_ratio"] = traced_wall / wall_s if wall_s else 0.0
            counts = [{k: t["trace"][k] for k in COUNT_SECTIONS} for t in traced]
            print(f"# counts repeat across {n_traced} traced samples: "
                  f"{all(c == counts[0] for c in counts)}", flush=True)
            shares = layer_shares(traced[0]["trace"], traced[0]["wall_s"])
            print("# self-time share of the traced pass by layer: "
                  + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()), flush=True)
    else:
        print(f"# medians of {n_plain} samples (p50; no higher percentile has ten samples beyond "
              f"it); max wall_s {max((r['wall_s'] for r in plain), default=0):.4f} s, max "
              f"wall_ref_s {max((r['wall_ref_s'] for r in plain), default=0):.4f} s", flush=True)
        for name, value in measured.items():
            print(f"# {name:<32} {value:>14.6g} s (not scaled)", flush=True)

    result_metrics = {}
    for entry in wanted:
        value = metrics.get(entry["name"])
        if value is None:
            continue
        result_metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"# {entry['name']:<32} {value:>14.6g} {entry['unit']}", flush=True)
    correct = failed == 0 and len(result_metrics) == len(wanted)

    record = {"provenance": info, "samples": [rec for _, rec in samples],
              "metrics": {**measured, **metrics},
              "attempted": attempted, "failed": failed, "correct": correct}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
