"""The benchmark's workloads: which CLI suites one pass runs, and why.

A pass is a list of ``superloop.cli.main`` argument lists.  One sample
runs one pass back to back in a fresh interpreter, the way a user runs
one suite per command.  ``plan`` returns a workload's pass for a
workload seed; ``SMOKE`` holds tiny passes for the benchmark's own
tests.

Only ``torsion`` consumes the seed.  The triples the ``monoid`` suite
draws have uniformly random degrees 0-4, and a degree-4 triple costs
about sixty times a degree-2 one, so the pass time would mostly count
how many high-degree triples a CLI seed happens to draw.  Each torsion
suite therefore has the fixed degree profile ``TORSION_PROFILE``.  Even
then the scalar swell, and with it the time, varies up to twofold
between inputs, and in trials runs whose inputs were drawn from the
workload seed spread by 0.2-0.3 of their median.  So the torsion pass
is the same ``TORSION_SUITES`` suites in every run, and the workload
seed only sets their order.
"""

from __future__ import annotations

import random

# On a shared 2-core VM the CPU runs a fifth or more slower for seconds
# at a time, so passes are sized to take 2-3 s there: a 25 s run then
# holds about ten samples, and their median rides out short dips.
RELATION_WINDOWS = {(2, 1): 2, (1, 2): 2, (3, 1): 1, (1, 3): 1}
MODULE_SIGNATURES = [(2, 1), (1, 2)]
PBW_SIGNATURES = [(2, 1)]
PBW_HEIGHT = 2

TORSION_COUNT = 3
TORSION_DEGREE_BOUND = 4
# degree -> number of triples; the other triple has degree 0 or 1
TORSION_PROFILE = {4: 1, 3: 0, 2: 1}
# monoid suites per pass, and the CLI seeds searched for each one
TORSION_SUITES = 2
TORSION_SEED_BLOCK = 10_000

WHY = {
    "relations": "verify-relations with Chevalley instances on ev(2,1), ev(1,2) (window 2), "
    "ev(3,1), ev(1,3) (window 1), (2,1) tensor: relation building, elem_matrix; no weyl work",
    "torsion": "monoid on two triple sets of fixed degree profile: series_to_torsion, "
    "solve_span on Hankel systems and scalar swell; no superfree, modrep or pbw work",
    "replay": "appendix-a at nmax 3, window 1 (144 checks): symbolic Elem products and "
    "RowReducer certificates over word-keyed vectors",
    "modules": "pbw-rank --tensor on (2,1); coproduct-check, tensor-hw, highest-weight on (2,1), "
    "(1,2): the only pbw and module-derivation work, RowReducer on flattened tensor matrices",
}


def _sig(M: int, N: int) -> list[str]:
    return ["--M", str(M), "--N", str(N)]


def relations(windows=RELATION_WINDOWS) -> list[list[str]]:
    runs = [
        ["verify-relations", *_sig(M, N), "--window", str(window), "--chevalley"]
        for (M, N), window in windows.items()
    ]
    runs.append(["verify-relations", *_sig(2, 1), "--window", "1", "--tensor"])
    return runs


def torsion(cli_seed: int, count: int = TORSION_COUNT, degree_bound: int = TORSION_DEGREE_BOUND):
    return [
        [
            "monoid",
            "--count", str(count),
            "--degree-bound", str(degree_bound),
            "--seed", str(cli_seed),
        ]
    ]


def replay(n_max: int = 3, window: int = 1) -> list[list[str]]:
    return [["appendix-a", "--nmax", str(n_max), "--window", str(window)]]


def modules(signatures=MODULE_SIGNATURES, pbw=PBW_SIGNATURES, height=PBW_HEIGHT, window=2):
    runs = []
    for M, N in signatures:
        if (M, N) in pbw:
            runs.append(["pbw-rank", *_sig(M, N), "--tensor", "--height", str(height),
                         "--window", str(window)])
        runs += [
            ["coproduct-check", *_sig(M, N)],
            ["tensor-hw", *_sig(M, N)],
            ["highest-weight", *_sig(M, N)],
        ]
    return runs


def torsion_profile_seed(block: int, random_triple) -> int:
    """First CLI seed of ``block`` whose triples have ``TORSION_PROFILE``.

    ``random_triple(rng, max_degree)`` is the program's own generator,
    so the profile is read from exactly the triples the suite will draw.
    """
    for cli_seed in range(block * TORSION_SEED_BLOCK, (block + 1) * TORSION_SEED_BLOCK):
        rng = random.Random(cli_seed)
        degrees = [random_triple(rng, TORSION_DEGREE_BOUND).P.degree for _ in range(TORSION_COUNT)]
        if all(degrees.count(d) == n for d, n in TORSION_PROFILE.items()):
            return cli_seed
    raise ValueError(f"no CLI seed in block {block} has the torsion degree profile")


def plan(workload: str, seed: int, random_triple) -> list[list[str]]:
    """The full-size pass of ``workload``; ``random_triple`` is the program's generator."""
    if workload == "relations":
        return relations()
    if workload == "torsion":
        suites = [torsion(torsion_profile_seed(b, random_triple)) for b in range(TORSION_SUITES)]
        start = seed % TORSION_SUITES
        return sum(suites[start:] + suites[:start], [])
    if workload == "replay":
        return replay()
    if workload == "modules":
        return modules()
    raise ValueError(f"unknown workload {workload!r}")


SMOKE = {
    "relations": lambda seed: relations(windows={(2, 1): 1}),
    "torsion": lambda seed: torsion(seed, count=3, degree_bound=2),
    "replay": lambda seed: replay(n_max=1, window=1),
    "modules": lambda seed: modules(signatures=[(2, 1)], height=1, window=1),
}
