"""Batch verification entry point.

Builds signatures and modules from a config, runs the selected
verification suite and emits a machine-readable JSON report.  The
process exit status is nonzero exactly when some check fails.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from dataclasses import dataclass, asdict

from . import modrep, pbw, weyl
from .coeffs import ONE, ZERO, ZPoly, a as PARAM_A, b as PARAM_B, q, scalar, scalar_from_str, scalar_str
from .linalg import rank
from .superfree import H_BOUND, Elem, appendixA_check
from .weyl import HighestWeight, TorsionTriple

SCHEMA = 1


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Flags for one verification run; mirrored one-to-one by the JSON config."""

    suite: str
    M: int | None = None  # the signature defaults per suite, see ``run``
    N: int | None = None
    a: str | None = None
    b: str | None = None
    window: int = 2
    order: int = 10
    degree_bound: int = 4
    seed: int = 0
    count: int = 20
    n_max: int = 4
    height: int = 3
    tensor: bool = False
    chevalley: bool = False
    out: str | None = None

    def validate(self):
        if self.window < 0:
            raise ConfigError("window must be nonnegative")
        if self.order < 1:
            raise ConfigError("order must be positive")
        if self.degree_bound < 1:
            raise ConfigError("degree bound must be positive")
        if self.count < 3:
            # commutativity, associativity and the star product need three triples
            raise ConfigError("count must be at least 3")
        if self.n_max < 1:
            raise ConfigError("nmax must be positive")
        if self.height < 1:
            raise ConfigError("height must be positive")
        if self.M < 1 or self.N < 0:
            raise ConfigError("invalid signature")
        for name in ("a", "b"):
            text = getattr(self, name)
            if text is not None and _parse_scalar(text) == ZERO:
                raise ConfigError(f"evaluation point {name} must be nonzero")


def _parse_scalar(text: str):
    try:
        return scalar_from_str(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse scalar {text!r}: {exc}") from exc


def _eval_point(cfg: RunConfig, which: str = "a"):
    raw = cfg.a if which == "a" else cfg.b
    if raw is not None:
        return _parse_scalar(raw)
    return PARAM_A if which == "a" else PARAM_B


def _eval_module(cfg: RunConfig, which: str = "a"):
    if cfg.M == cfg.N:
        raise ConfigError(f"{cfg.suite} builds evaluation modules; need M != N")
    return modrep.evaluation_pullback(modrep.fundamental(cfg.M, cfg.N), _eval_point(cfg, which))


def _vector_highest_weight(M: int, N: int, point) -> HighestWeight:
    """Closed-form highest-weight datum of the vector evaluation module at ``point``.

    For M >= 2 the only nontrivial polynomial is P_1 = 1 - q a z and the
    odd node carries the identity triple; for M = 1 the odd node carries
    (q, 1 - a z, 1 - q^2 a z).  Every other P_i is 1, every sign +1, and
    K_0 acts by q^-1.
    """
    nodes = [i for i in range(1, M + N) if i != M]
    P = {i: ZPoly.one() for i in nodes}
    if M >= 2:
        P[1] = ZPoly([ONE, -q * point])
        torsion = weyl.identity_triple()
    else:
        torsion = TorsionTriple(q, ZPoly([ONE, -point]), ZPoly([ONE, -(q**2) * point]))
    return HighestWeight(P, torsion, {i: 1 for i in nodes}, q**-1)


def _check(name: str, ok: bool, witness=None) -> dict:
    entry = {"name": name, "status": "pass" if ok else "fail"}
    if witness is not None:
        entry["witness"] = witness
    return entry


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_verify_relations(cfg: RunConfig) -> list[dict]:
    lm = _eval_module(cfg)
    # pm-mixed reaches h_{i,s} with |s| up to twice the window
    if 2 * cfg.window > H_BOUND:
        raise ConfigError(f"verify-relations needs window <= {H_BOUND // 2}")
    runs = [("relations", lm, cfg.window)]
    if cfg.tensor:
        tm = modrep.tensor(lm, _eval_module(cfg, "b"))
        runs.append(("tensor-relations", tm, min(cfg.window, 1)))
    return [
        _check(
            f"{label}({cfg.M},{cfg.N}) {c['name']}",
            c["status"] == "pass",
            {"instances": c["instances"], "failures": c["failures"]},
        )
        for label, module, window in runs
        for c in modrep.relation_report(
            module, window=window, include_chevalley=cfg.chevalley
        )["checks"]
    ]


def _suite_highest_weight(cfg: RunConfig) -> list[dict]:
    lm = _eval_module(cfg)
    hw = modrep.highest_weight(lm, window=cfg.window, degree_bound=cfg.degree_bound)
    expected = _vector_highest_weight(cfg.M, cfg.N, _eval_point(cfg))
    return [_check(f"highest-weight({cfg.M},{cfg.N})", hw == expected, hw.to_json())]


def _suite_tensor_hw(cfg: RunConfig) -> list[dict]:
    m1 = _eval_module(cfg, "a")
    m2 = _eval_module(cfg, "b")
    tm = modrep.tensor(m1, m2)
    hw1 = modrep.highest_weight(m1, window=cfg.window, degree_bound=cfg.degree_bound)
    hw2 = modrep.highest_weight(m2, window=cfg.window, degree_bound=cfg.degree_bound)
    hwt = modrep.highest_weight(tm, window=cfg.window, degree_bound=cfg.degree_bound)
    prod = weyl.monoid_product(hw1, hw2)
    ok = hwt.P == prod.P and hwt.torsion == prod.torsion and hwt.epsilon == prod.epsilon
    return [
        _check(
            f"tensor-hw({cfg.M},{cfg.N})",
            ok,
            {"tensor": hwt.to_json(), "monoid": prod.to_json()},
        )
    ]


def _suite_weyl_slice(cfg: RunConfig) -> list[dict]:
    lm = _eval_module(cfg)
    label = f"weyl-slice({cfg.M},{cfg.N})"
    if cfg.tensor:
        lm = modrep.tensor(lm, _eval_module(cfg, "b"))
        label += " tensor"
    d, P, annihilates = modrep.odd_slice(lm, window=cfg.window, degree_bound=cfg.degree_bound)
    return [
        _check(f"{label} dimension = deg P", d == P.degree, {"d": d, "P": P.to_json()}),
        _check(f"{label} P annihilates X-_{{{cfg.M},n}} v", annihilates),
    ]


def random_torsion_triple(rng: random.Random, max_degree: int = 4) -> TorsionTriple:
    """Deterministic random coprime triple from a small scalar pool."""
    pool = [scalar(1), scalar(-1), scalar(2), q, -q, q**-1, q + q**-1]
    cs = [q, q**-1, scalar(2), q**2, scalar(3), -q]
    while True:
        d = rng.randint(0, max_degree)
        # degree zero forces Q = P = 1 and hence c^2 = 1
        c = (scalar(1), scalar(-1))[rng.randrange(2)] if d == 0 else cs[rng.randrange(len(cs))]
        pcoeffs = [ONE] + [pool[rng.randrange(len(pool))] for _ in range(d)]
        P = ZPoly(pcoeffs)
        if P.degree != d:
            continue
        qcoeffs = [ONE] + [pool[rng.randrange(len(pool))] for _ in range(max(0, d - 1))]
        qcoeffs += [pcoeffs[-1] * c**-2] if d else []
        Q = ZPoly(qcoeffs)
        if Q.degree != d:
            continue
        try:
            return TorsionTriple(c, Q, P)
        except weyl.NotCoprimeError:
            continue


def _hw_of(t: TorsionTriple) -> HighestWeight:
    return HighestWeight({}, t, {})


def _suite_monoid(cfg: RunConfig) -> list[dict]:
    rng = random.Random(cfg.seed)
    checks = []
    order = max(cfg.order, 2 * cfg.degree_bound + 2)
    worked = TorsionTriple(q, ZPoly([ONE, -(q**-2)]), ZPoly([ONE, -ONE]))
    win, scale = weyl.torsion_to_series(worked, order)
    # each entry should equal the scale: divide only those that differ
    f = {k: ONE if v == scale else v / scale for k, v in sorted(win.items())}
    checks.append(
        _check(
            "worked example f == 1",
            all(v == ONE for v in f.values()),
            {"window": {str(k): scalar_str(v) for k, v in f.items()}},
        )
    )
    checks.append(
        _check(
            "worked example roundtrip",
            weyl.series_to_torsion(win, q, cfg.degree_bound, scale) == worked,
        )
    )
    triples = [random_torsion_triple(rng, cfg.degree_bound) for _ in range(cfg.count)]
    # one window per triple and one product per consecutive pair, shared by the checks
    series = [weyl.torsion_to_series(t, order) for t in triples]
    ok_rt = True
    for t, (w, s) in zip(triples, series):
        back = weyl.series_to_torsion(w, t.c, cfg.degree_bound, s)
        if back != t:
            ok_rt = False
            checks.append(_check("roundtrip", False, t.to_json()))
    checks.append(_check(f"roundtrip x{cfg.count}", ok_rt))
    ident = weyl.identity_triple()
    ok_id = all(
        weyl.monoid_product(_hw_of(t), _hw_of(ident)).torsion == t for t in triples
    )
    checks.append(_check("identity law", ok_id))
    products = [weyl.monoid_product(_hw_of(t1), _hw_of(t2)) for t1, t2 in zip(triples, triples[1:])]
    ok_comm = True
    ok_assoc = True
    for t1, t2, t3, p12, p23 in zip(triples, triples[1:], triples[2:], products, products[1:]):
        p21 = weyl.monoid_product(_hw_of(t2), _hw_of(t1))
        ok_comm &= p12.torsion == p21.torsion
        left = weyl.monoid_product(p12, _hw_of(t3)).torsion
        right = weyl.monoid_product(_hw_of(t1), p23).torsion
        ok_assoc &= left == right
    checks.append(_check("commutativity", ok_comm))
    checks.append(_check("associativity", ok_assoc))
    ok_star = True
    for t1, t2, w1, w2, p12 in zip(triples, triples[1:], series, series[1:], products):
        direct, s = weyl.star_product_window(w1, w2, t1.c, t2.c, order)
        wp, sp = weyl.torsion_to_series(p12.torsion, order)
        # both windows are scaled: compare direct / s with wp / sp
        ok_star &= all(direct[n] * sp == s * wp[n] for n in range(-order, order + 1))
    checks.append(_check("star product matches series product", ok_star))
    return checks


def _suite_pbw_rank(cfg: RunConfig) -> list[dict]:
    lm = _eval_module(cfg)
    modules = [(f"fundamental({cfg.M},{cfg.N})", lm)]
    if cfg.tensor:
        modules.append(("tensor", modrep.tensor(lm, _eval_module(cfg, "b"))))
    window = range(-cfg.window, cfg.window + 1)
    sig = lm.sig
    checks = []
    for label, module in modules:
        for wt in itertools.product(range(cfg.height + 1), repeat=sig.n_nodes):
            if not 1 <= sum(wt) <= cfg.height:
                continue
            monos = pbw.enumerate_pbw(sig, list(wt), window)
            words = pbw.all_words(sig, list(wt), window)
            r1 = rank([module.elem_matrix(pbw.monomial_elem(sig, mono)).flatten() for mono in monos])
            r2 = rank([module.elem_matrix(Elem.monomial(word)).flatten() for word in words])
            checks.append(
                _check(
                    f"pbw-rank {label} weight {wt}",
                    r1 == r2,
                    {"pbw": len(monos), "words": len(words), "rank": [r1, r2]},
                )
            )
    return checks


def _suite_appendix_a(cfg: RunConfig) -> list[dict]:
    rep = appendixA_check(cfg.n_max, range(-cfg.window, cfg.window + 1))
    return [
        _check(f"appendix-a {c['name']}", c["status"] == "pass", c.get("detail") or None)
        for c in rep["checks"]
    ]


def _suite_coproduct(cfg: RunConfig) -> list[dict]:
    m1 = _eval_module(cfg, "a")
    m2 = _eval_module(cfg, "b")
    tm = modrep.tensor(m1, m2)
    sig = m1.sig
    checks = []
    for part in ("x+", "x-", "phi"):
        for j in range(1, sig.n_nodes + 1):
            for n in (-1, 0, 1):
                ok = modrep.check_coproduct_formula(j, n, m1, m2, part, tm)
                checks.append(_check(f"coproduct {part} j={j} n={n}", ok))
    for i in range(1, sig.n_nodes):
        for s in (1, -1):
            res = modrep.cartan_coproduct_constants(i, m1, m2, tm, sign=s)
            ok = res.get("solvable") and res.get("z_matches")
            checks.append(_check(f"cartan-coproduct constants i={i} sign={s:+d}", bool(ok), res))
    return checks


SUITES = {
    "verify-relations": _suite_verify_relations,
    "highest-weight": _suite_highest_weight,
    "tensor-hw": _suite_tensor_hw,
    "weyl-slice": _suite_weyl_slice,
    "monoid": _suite_monoid,
    "pbw-rank": _suite_pbw_rank,
    "appendix-a": _suite_appendix_a,
    "coproduct-check": _suite_coproduct,
}


def run(cfg: RunConfig) -> dict:
    """Execute one suite and assemble the versioned report."""
    # the oscillation replay is specific to the (2,2) signature
    M, N = (2, 2) if cfg.suite == "appendix-a" else (2, 1)
    cfg.M = M if cfg.M is None else cfg.M
    cfg.N = N if cfg.N is None else cfg.N
    if cfg.suite == "appendix-a" and (cfg.M, cfg.N) != (2, 2):
        raise ConfigError("appendix-a requires the (2,2) signature")
    cfg.validate()
    if cfg.suite not in SUITES:
        raise ConfigError(f"unknown suite {cfg.suite!r}")
    checks = SUITES[cfg.suite](cfg)
    return {
        "schema": SCHEMA,
        "config": {k: v for k, v in asdict(cfg).items() if v is not None},
        "passed": all(c["status"] == "pass" for c in checks),
        "checks": checks,
    }


def _print_error(message: str):
    print(json.dumps({"schema": SCHEMA, "error": message}), file=sys.stderr)


def _usage_error(message: str):
    """The parser's answer to a usage error: the JSON error object and exit 2, as a bad config."""
    _print_error(message)
    raise SystemExit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superloop",
        description="Exact verification suites for quantum loop superalgebra computations.",
    )
    add = parser.add_argument
    add("suite", choices=SUITES)
    add("--M", type=int)
    add("--N", type=int)
    add("--a", type=str, help="evaluation point (exact expression); write one that starts with '-' as --a=-q")
    add("--b", type=str, help="second evaluation point; write one that starts with '-' as --b=-q")
    add("--window", type=int)
    add("--order", type=int)
    add("--degree-bound", dest="degree_bound", type=int)
    add("--seed", type=int)
    add("--count", type=int)
    add("--nmax", dest="n_max", type=int)
    add("--height", type=int)
    add("--tensor", action="store_true", default=None)
    add("--chevalley", action="store_true", default=None)
    add("--out", type=str)
    add("--config", type=str, help="JSON file mirroring the flags")
    parser.error = _usage_error
    return parser


def _read_config(path: str) -> dict:
    """Read a JSON config: one object of RunConfig fields, each of its field's type."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("a config file holds one JSON object")
    fields = RunConfig.__dataclass_fields__
    out = {}
    for key, val in data.items():
        key = key.replace("-", "_")
        if key == "suite":
            continue
        if key not in fields:
            raise ConfigError(f"unknown config key {key!r}")
        # annotations are strings: "int", "bool" or "<type> | None"
        kind, _, optional = fields[key].type.partition(" | ")
        want = {"int": int, "bool": bool, "str": str}[kind]
        if type(val) is not want and not (optional and val is None):
            raise ConfigError(f"config key {key!r} must be of type {kind}")
        out[key] = val
    return out


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    values = vars(args)
    config_path = values.pop("config", None)
    merged: dict = {"suite": values.pop("suite")}
    try:
        if config_path:
            merged.update(_read_config(config_path))
        # explicit command-line flags win over the config file
        merged.update({k: v for k, v in values.items() if v is not None})
        cfg = RunConfig(**merged)
        report = run(cfg)
    except (ConfigError, modrep.ModuleError, weyl.TorsionError) as exc:
        _print_error(str(exc))
        return 2
    text = json.dumps(report, indent=2)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            _print_error(f"cannot write report {cfg.out!r}: {exc}")
            return 2
    else:
        print(text)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
