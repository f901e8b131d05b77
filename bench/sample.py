"""One benchmark sample, run by ``run.py`` in a fresh interpreter.

Plan mode (no ``--plan``) prints the workload's pass and the
interpreter's versions as JSON.  Sample mode imports ``superloop`` from
the checkout's ``src/``, runs the suites of one pass back to back
through ``superloop.cli.main`` and prints one JSON record: set-up and
pass times, peak RSS, and per suite the exit code and the digest of its
report.  With ``--trace 1`` the layers are wrapped by ``tracer.Tracer``
first and the record carries the trace summary; the spans are written
to ``--spans`` after the pass.

An untraced sample runs its set-up and its pass under a ``SpeedProbe``:
the record then also gives both times at the reference speed, which is
what the benchmark compares between commits.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def normalized_report(text: str) -> str:
    """The report without the fields that echo run inputs rather than results.

    ``config.out`` echoes the output path and ``config.seed`` the CLI
    seed; every other byte is fixed by the suite and its results.
    """
    report = json.loads(text)
    for key in ("out", "seed"):
        report.get("config", {}).pop(key, None)
    return json.dumps(report, indent=2)


def digest(text: str) -> str:
    return hashlib.sha256(normalized_report(text).encode()).hexdigest()


def import_superloop():
    sys.path.insert(0, str(SRC))
    import superloop

    if not Path(superloop.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"superloop imported from {superloop.__file__}, not from {SRC}")
    return superloop


def _poly_mul(f: dict, g: dict) -> dict:
    h: dict = {}
    for (i, j, k), c in f.items():
        for (l, m, n), d in g.items():
            key = (i + l, j + m, k + n)
            h[key] = h.get(key, 0) + c * d
    return {key: c for key, c in h.items() if c}


def _poly_pow(f: dict, n: int) -> dict:
    r = {(0, 0, 0): 1}
    for _ in range(n):
        r = _poly_mul(r, f)
    return r


class SpeedProbe:
    """Measures how fast this CPU runs while a stretch of code runs.

    On a shared host the CPU a process gets runs a fifth or more slower
    for seconds at a time, and wall times follow it.  While the probe is
    on, a timer signal interrupts the code every ``INTERVAL_S`` for one
    fixed reference computation that uses no code of the program.  Its
    mean time tracks the speed the code got, so that

        program_s = elapsed - time spent in the probes
        scaled    = program_s * ref_s / mean probe time

    is the stretch's time at the reference speed; ``ref_s`` is about
    the probe's mean time on a shared 2-vCPU x86-64 VM and only sets
    the scale.  A change to the program moves ``scaled`` as much as it
    moves the stretch's wall time.  The mean, not the median, matches
    a wall time, which sums over the fast and slow stretches alike.

    ``poly()`` multiplies sparse integer polynomials in three variables
    held in plain dicts, as sympy's ring arithmetic does; it needs no
    import, so it can time the interpreter's set-up.  ``field()``
    computes in the sympy rational function field over ``ZZ`` in q, a,
    b that ``coeffs.Scalar`` lives in, the kind of work a pass does.
    """

    INTERVAL_S = 0.05

    def __init__(self, reference, ref_s: float):
        self.reference, self.ref_s = reference, ref_s
        self.times: list[float] = []
        for _ in range(3):  # warm up
            reference()

    @classmethod
    def poly(cls) -> "SpeedProbe":
        f = _poly_pow({(1, 0, 0): 3, (0, 1, 0): -2, (0, 0, 1): 5, (0, 0, 0): 7}, 4)
        g = _poly_pow({(1, 0, 0): 1, (0, 2, 0): -4, (0, 0, 1): 1, (2, 0, 0): 11}, 3)
        return cls(lambda: _poly_mul(_poly_mul(f, g), g), ref_s=0.0028)

    @classmethod
    def field(cls) -> "SpeedProbe":
        from sympy.polys.domains import ZZ
        from sympy.polys.fields import field

        _, q, a, b = field("q,a,b", ZZ)
        x0, y0 = (q + a) / (q - b), (a * b + q**2) / (q + 1)

        def reference():
            x, y = x0, y0
            for i in range(2):
                y = x * y + y
                x = x * (q + i) / (a + 1)
            return y

        return cls(reference, ref_s=0.0045)

    def _probe(self, signum, frame):
        # a collection the probe's allocations trigger would charge the
        # program's garbage to the probe
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self.reference()
        self.times.append(time.perf_counter() - start)
        if collecting:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def program_s(self, elapsed_s: float) -> float:
        return elapsed_s - sum(self.times)

    def scaled(self, program_s: float) -> float:
        if not self.times:  # a stretch shorter than one interval
            return program_s
        return program_s * self.ref_s / statistics.fmean(self.times)


def run_suite(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a bad argument list
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--plan", help="JSON list of the suite argument lists of one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the trace spans")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() when the parent spawned this process")
    args = parser.parse_args(argv)

    # an untraced sample times its set-up at the reference speed too
    setup_probe = SpeedProbe.poly() if args.plan is not None and not args.trace else None
    if setup_probe is not None:
        setup_probe.__enter__()
    # plan mode imports superloop too, so the samples find its bytecode compiled
    superloop = import_superloop()
    from superloop import cli

    if args.plan is None:
        import workloads

        if args.smoke:
            runs = workloads.SMOKE[args.workload](args.seed)
        else:
            runs = workloads.plan(args.workload, args.seed, cli.random_torsion_triple)
        import sympy
        from sympy.external.gmpy import GROUND_TYPES

        host = {"python": platform.python_version(), "sympy": sympy.__version__,
                "ground_types": GROUND_TYPES, "superloop": superloop.__version__}
        print(json.dumps({"runs": runs, "host": host}))
        return 0

    tracer = probe = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runs = json.loads(args.plan)
    setup_s = time.time() - args.spawned_at
    if setup_probe is not None:
        setup_probe.__exit__()
        setup_s = setup_probe.program_s(setup_s)
        probe = SpeedProbe.field()

    reports = []
    start = time.perf_counter()
    with probe or contextlib.nullcontext():
        for suite_argv in runs:
            reports.append(run_suite(cli, suite_argv))
    wall_s = time.perf_counter() - start
    if probe is not None:
        wall_s = probe.program_s(wall_s)

    suites = []
    for suite_argv, (code, text) in zip(runs, reports):
        entry = {"argv": suite_argv, "exit": code, "bytes": len(text.encode())}
        try:
            report = json.loads(text)
            entry["digest"] = digest(text)
            entry["passed"] = report.get("passed") is True and all(
                c.get("status") == "pass" for c in report.get("checks", [])
            )
            entry["checks"] = len(report.get("checks", []))
        except json.JSONDecodeError:
            entry["passed"] = False
        suites.append(entry)
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "suites": suites,
    }
    if probe is not None:
        record["wall_ref_s"] = probe.scaled(wall_s)
        record["setup_ref_s"] = setup_probe.scaled(setup_s)
        record["probe_times"] = probe.times
        record["setup_probe_times"] = setup_probe.times
    if tracer is not None:
        record["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
