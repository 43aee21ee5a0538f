"""Single command-line entry point for every check and scan.

Exit codes: 0 all checks passed or were vacuous (reported as VACUOUS, with
the reason), 1 a check failed (a data finding, e.g. the literal-mode
counterexample residuals), 2 usage/config error, 3 numeric failure (solver
divergence, non-finite values, exact arithmetic out of range), 4 internal
error (any other exception; one "internal error:" line on stderr, no
traceback).  TSV columns are documented per subcommand in
--help; JSON and TSV reports are deterministic given (subcommand, config, seed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import counterexample as ce
from . import experiments as xp
from .errors import (CarlemanError, ConfigError, ExactRangeError, NonFiniteError,
                     SolverDivergenceError, ToleranceExceededError)
from .evolution import (EvolutionConfig, evolve, make_decaying_datum,
                        normalize_observation)
from .fieldio import read_field, write_field, write_trajectory
from .lattice import LatticeField, LatticeWindow, Potential
from .logscalar import NEG_INF
from .operators import (carleman_constant_batch, commutator_check,
                        conjugation_check, minimal_hiding_constant,
                        hiding_sides, phi_rate_scan, symmetry_check)
from .profiles import TimeProfile, WeightSpec
from .reports import RunManifest, write_json, write_tsv

_PROFILES = {
    "paper": TimeProfile.paper,
    "zero": TimeProfile.zero,
    "const3": lambda: TimeProfile.constant(3.0),
}


def _parse_r_list(text: str) -> tuple:
    text = text.strip()
    if ".." in text:
        parts = text.split("..")
        if len(parts) == 2:
            lo, hi = parts
            return tuple(float(x) for x in range(int(lo), int(hi) + 1))
        lo, hi, step = parts
        return tuple(float(x) for x in range(int(lo), int(hi) + 1, int(step)))
    return tuple(float(x) for x in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="carleman",
        description="Checks and scans for weighted lower-bound machinery on the lattice.")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p, *, seed=0):
        p.add_argument("--d", type=int, default=None, help="lattice dimension")
        p.add_argument("--M", type=int, default=None, help="window half-width")
        p.add_argument("--R", type=float, default=None, help="ring/weight radius")
        p.add_argument("--R-list", dest="R_list", type=str, default=None,
                       help="comma list or lo..hi[..step]")
        p.add_argument("--alpha", type=float, default=None, help="explicit weight strength")
        p.add_argument("--c", type=float, default=None,
                       help="constant in the alpha = c R log R rule (default 2)")
        p.add_argument("--L", type=float, default=None, help="potential sup bound")
        p.add_argument("--A", type=float, default=None, help="trajectory l2 bound")
        p.add_argument("--mu", type=float, default=None, help="decay rate")
        p.add_argument("--beta-max", dest="beta_max", type=float, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None, help=f"RNG seed (default {seed})")
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--T", type=float, default=None)
        p.add_argument("--mode", type=str, default=None,
                       help="counterexample value mode: literal_paper | repaired")
        p.add_argument("--config", type=str, default=None, help="JSON config file (flat keys)")
        p.add_argument("--out", type=str, default="runs", help="output directory")
        p.add_argument("--tolerance", action="append", default=None, metavar="NAME=VALUE")
        p.add_argument("--phi", type=str, default=None, choices=sorted(_PROFILES),
                       help="time profile")
        p.add_argument("--stamp", type=str, default=None,
                       help="output-name stamp (default: UTC time); pin for reproducible names")
        p.add_argument("--n-nodes", dest="n_nodes", type=int, default=None,
                       help="time-quadrature nodes")

    p = sub.add_parser("evolve", help="integrate a datum and export the trajectory")
    common(p)
    p.add_argument("--datum", type=str, default=None, help="delta | bessel_like | gaussian")
    p.add_argument("--potential", type=str, default=None, help="none | alternating")
    p.add_argument("--store-every", dest="store_every", type=int, default=None)

    p = sub.add_parser("carleman-check", help="empirical weighted-inequality constant: "
                                              "calibration batch + held-out batch")
    common(p)

    p = sub.add_parser("commutator-check", help="operator identities: symmetry/skewness, "
                                                "commutator closed form, conjugation oracle")
    common(p)

    p = sub.add_parser("hiding-scan", help="minimal absorption constant per R; TSV columns: "
                                           "R alpha s log_lhs log_rhs_A log_rhs_B")
    common(p)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=None)
    p.add_argument("--s-max", dest="s_max", type=float, default=None)

    p = sub.add_parser("lambda-scan", help="ring-mass decay rows; TSV columns: "
                                           "R log_lambda alpha log_lhs_growth pass_absorption boundary_mass")
    common(p)
    p.add_argument("--datum", type=str, default=None)
    p.add_argument("--potential", type=str, default=None)
    p.add_argument("--store-every", dest="store_every", type=int, default=None)
    p.add_argument("--field-from", dest="field_from", type=str, default=None,
                   help="stationary scan of an exported binary field")

    p = sub.add_parser("logconvexity", help="two-endpoint weighted ratios; TSV columns: "
                                            "beta t log_rho")
    common(p)
    p.add_argument("--potential", type=str, default=None)
    p.add_argument("--store-every", dest="store_every", type=int, default=None)

    p = sub.add_parser("normstar", help="norm-equivalence ratio scan")
    common(p)
    p.add_argument("--j-max", dest="j_max", type=int, default=None)

    p = sub.add_parser("kbessel", help="weighted cosh-kernel identity and growth fit")
    common(p)

    p = sub.add_parser("threshold-scan", help="absorption threshold under alpha = c R phi(R); "
                                              "TSV columns: profile R alpha holds")
    common(p)

    p = sub.add_parser("counterexample", help="build + exactly verify the vanishing-diamond field")
    common(p)
    p.add_argument("--margin", type=int, default=None)

    p = sub.add_parser("verify-counterexample", help="re-verify an exported counterexample field")
    common(p)
    p.add_argument("--field-from", dest="field_from", type=str, required=True)

    p = sub.add_parser("potential-scan", help="exact sup|V| across R")
    common(p)
    p.add_argument("--margin", type=int, default=None)

    p = sub.add_parser("report", help="summarize manifests and reports in --out")
    common(p)
    return top


class Resolver:
    """CLI flags override config-file values; config keys mirror flag dests
    and unknown keys are errors (validated up front)."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.cfg = {}
        path = self.args.get("config")
        if path:
            try:
                raw = json.loads(Path(path).read_text())
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {path}")
            except json.JSONDecodeError as e:
                raise ConfigError(f"config file is not valid JSON: {e}")
            if not isinstance(raw, dict):
                raise ConfigError("config file must hold a JSON object")
            known = set(self.args) | {"tolerance"}
            for key in raw:
                if key not in known:
                    raise ConfigError(f"unknown config key: {key}")
            self.cfg = raw

    def get(self, name: str, default=None, cast=None):
        val = self.args.get(name)
        if val is None and name in self.cfg:
            val = self.cfg[name]
        if val is None:
            return default
        if cast is not None:
            try:
                return cast(val)
            except (TypeError, ValueError):
                raise ConfigError(f"bad value for {name}: {val!r}")
        return val

    def tolerances(self) -> dict:
        out = {}
        raw = self.args.get("tolerance") or self.cfg.get("tolerance") or []
        if isinstance(raw, dict):
            return {str(k): float(v) for k, v in raw.items()}
        for item in raw:
            if "=" not in item:
                raise ConfigError(f"bad --tolerance entry {item!r} (want NAME=VALUE)")
            name, value = item.split("=", 1)
            try:
                out[name] = float(value)
            except ValueError:
                raise ConfigError(f"bad value for tolerance {name}: {value!r}")
        return out


def _cast_r_list(val) -> tuple:
    if isinstance(val, str):
        return _parse_r_list(val)
    if isinstance(val, (list, tuple)):
        return tuple(float(x) for x in val)
    raise ValueError(val)


def _stamp(res: Resolver) -> str:
    s = res.get("stamp")
    return s if s else datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")


def _profile(res: Resolver, default="paper") -> TimeProfile:
    name = res.get("phi", default, str)
    if name not in _PROFILES:
        raise ConfigError(f"bad value for phi: {name!r}")
    return _PROFILES[name]()


def _potential(res: Resolver, window: LatticeWindow) -> Potential:
    kind = res.get("potential", "none", str)
    L = res.get("L", 0.0, float)
    if kind == "none":
        return Potential.zero(window)
    if kind == "alternating":
        return Potential.alternating(window, amplitude=L if L > 0 else 1.0)
    raise ConfigError(f"bad value for potential: {kind!r}")


def _datum(res: Resolver, window: LatticeWindow) -> LatticeField:
    kind = res.get("datum", "delta", str)
    if kind == "delta":
        return make_decaying_datum(window, ("delta",))
    if kind == "bessel_like":
        return make_decaying_datum(window, ("bessel_like", res.get("mu", 1.0, float)))
    if kind == "gaussian":
        return make_decaying_datum(window, ("gaussian", res.get("mu", 1.0, float)))
    raise ConfigError(f"bad value for datum: {kind!r}")


def _emit(lines, ok: bool, check: str, detail: str):
    lines.append(f"{'PASS' if ok else 'FAIL'} {check}: {detail}")
    return ok


def _vacuous(lines, check: str, reason: str) -> bool:
    """A check whose premise did not hold: neither a pass nor a finding."""
    lines.append(f"VACUOUS {check}: {reason}")
    return True


# --- subcommand bodies ------------------------------------------------------


def _run_evolve(res: Resolver, out: Path, stamp: str, manifest: RunManifest, lines: list) -> bool:
    d = res.get("d", 1, int)
    M = res.get("M", 34, int)
    window = LatticeWindow(d, M)
    cfg = EvolutionConfig(dt=res.get("dt", 1e-3, float), T=res.get("T", 1.0, float),
                          window=window, potential=_potential(res, window),
                          store_every=res.get("store_every", 10, int))
    traj = evolve(_datum(res, window), cfg)
    seed = res.get("seed", 0, int)
    traj_dir = out / f"evolve_{seed}_{stamp}"
    manifest.add(*write_trajectory(traj_dir, traj))
    drift = traj.norm_drift()
    boundary = traj.boundary_mass()
    manifest.stats = {**traj.solver_stats, "norm_drift": drift, "boundary_mass": boundary,
                      "boundary_mass_flag": boundary > 1e-12}
    return _emit(lines, drift < 1e-10, "norm_conservation",
                 f"max drift {drift:.3e} over {cfg.n_steps} steps")


def _run_carleman_check(res: Resolver, out: Path, stamp: str, manifest: RunManifest,
                        lines: list) -> bool:
    d = res.get("d", 1, int)
    R = res.get("R", 10.0, float)
    c = res.get("c", 2.0, float)
    M = res.get("M", int(2 * R) + 2, int)
    trials = res.get("trials", 500, int)
    seed = res.get("seed", 0, int)
    phi = _profile(res, "zero")
    alpha = res.get("alpha", None, float)
    spec = (WeightSpec(alpha=alpha, R=R, phi=phi, d=d, c_rule=c) if alpha
            else WeightSpec.from_rule(R, phi, d, c_rule=c))
    window = LatticeWindow(d, M)
    cal = carleman_constant_batch(spec, window, trials, seed)
    held = carleman_constant_batch(spec, window, trials, seed + 1)
    bound = 2.0 * cal["c_emp"]
    violations = sum(1 for r in held["ratios"] if r > bound)
    report = {"calibration_c_emp": cal["c_emp"], "holdout_max": max(held["ratios"]),
              "bound": bound, "violations": violations,
              "params": cal["params"], "trials": trials, "seed": seed}
    manifest.add(write_json(out / f"carleman_check_{seed}_{stamp}.json", report))
    return _emit(lines, violations == 0, "carleman_inequality",
                 f"holdout max {report['holdout_max']:.4g} vs bound {bound:.4g} "
                 f"({violations} violations)")


def _run_commutator_check(res: Resolver, out: Path, stamp: str, manifest: RunManifest,
                          lines: list) -> bool:
    d = res.get("d", 1, int)
    R = res.get("R", 10.0, float)
    c = res.get("c", 2.0, float)
    M = res.get("M", int(R) + 4, int)
    trials = res.get("trials", 50, int)
    seed = res.get("seed", 0, int)
    tol = res.tolerances()
    phi = _profile(res, "paper")
    spec = WeightSpec.from_rule(R, phi, d, c_rule=c)
    window = LatticeWindow(d, M)
    ok = True
    report = {}
    try:
        sym = symmetry_check(spec, window, trials, seed,
                             tolerance=tol.get("symmetry", 1e-9))
        report["symmetry"] = sym
        ok &= _emit(lines, True, "symmetry_skewness",
                    f"defects {sym['symmetry']['defect']:.2e} / {sym['skewness']['defect']:.2e}")
    except ToleranceExceededError as e:
        ok &= _emit(lines, False, "symmetry_skewness", str(e))
    try:
        com = commutator_check(spec, window, trials, seed,
                               rel_tolerance=tol.get("commutator", 1e-8))
        report["commutator"] = com
        ok &= _emit(lines, True, "commutator_identity",
                    f"max defect {com['identity']['defect']:.2e}")
    except ToleranceExceededError as e:
        ok &= _emit(lines, False, "commutator_identity", str(e))
    conj = conjugation_check(spec, window, trials, seed)
    report["conjugation"] = conj
    ok &= _emit(lines, conj["defect_relative"] <= tol.get("conjugation", 1e-9),
                "conjugation_identity", f"relative defect {conj['defect_relative']:.2e}")
    manifest.add(write_json(out / f"commutator_check_{seed}_{stamp}.json", report))
    return ok


def _run_hiding_scan(res: Resolver, out: Path, stamp: str, manifest: RunManifest,
                     lines: list) -> bool:
    d = res.get("d", 1, int)
    Rs = res.get("R_list", (10.0, 20.0, 40.0, 80.0), _cast_r_list)
    n_pts = res.get("grid_points", 200, int)
    s_max = res.get("s_max", 5.0, float)
    seed = res.get("seed", 0, int)
    phi = _profile(res, "paper")
    s_grid = np.linspace(1.0, s_max, n_pts)
    rows = []
    min_cs = []
    vacuous = False
    for R in Rs:
        scan = minimal_hiding_constant(d, R, phi, s_grid)
        min_cs.append(scan["min_c"])
        if scan["vacuous"]:  # alpha = 0 would leave the log-domain sides undefined
            vacuous = True
            continue
        alpha = scan["min_c"] * R * math.log(R)
        sides = hiding_sides(alpha, R, d, phi.sup_d1, phi.sup_d2, s_grid)
        rows.extend((R, alpha, s, lhs, rhs_a, rhs_b) for s, lhs, rhs_a, rhs_b in zip(
            s_grid.tolist(), sides["log_lhs"].tolist(), sides["log_rhs_A"].tolist(),
            sides["log_rhs_B"].tolist()))
    manifest.add(write_tsv(out / f"hiding_scan_{seed}_{stamp}.tsv",
                           ("R", "alpha", "s", "log_lhs", "log_rhs_A", "log_rhs_B"), rows))
    nonincreasing = all(b <= a + 1e-9 for a, b in zip(min_cs, min_cs[1:]))
    report = {"R_list": list(Rs), "min_c": min_cs, "nonincreasing": nonincreasing,
              "sup_d1": phi.sup_d1, "sup_d2": phi.sup_d2}
    manifest.add(write_json(out / f"hiding_scan_{seed}_{stamp}.json", report))
    detail = f"minimal c per R: {['%.3f' % c for c in min_cs]}"
    if vacuous:
        return _vacuous(lines, "hiding_inequalities",
                        f"{detail}: phi has no time derivatives, so there is nothing to absorb")
    if not all(math.isfinite(c) for c in min_cs):
        return _emit(lines, False, "hiding_inequalities", f"{detail} (no c absorbs at some R)")
    if len(min_cs) < 2:
        return _vacuous(lines, "hiding_inequalities",
                        f"{detail}: fewer than two R, so no c is shown to serve larger R")
    return _emit(lines, nonincreasing, "hiding_inequalities",
                 f"{detail} (nonincreasing: {nonincreasing})")


def _run_lambda_scan(res: Resolver, out: Path, stamp: str, manifest: RunManifest,
                     lines: list) -> bool:
    seed = res.get("seed", 0, int)
    cfg = xp.ExperimentConfig(
        A=res.get("A", 1.0, float), L=res.get("L", 0.0, float),
        R_list=res.get("R_list", tuple(float(r) for r in range(8, 29)), _cast_r_list),
        c_rule=res.get("c", 2.0, float), mu=res.get("mu", 0.0, float), seed=seed,
        tolerances=res.tolerances())
    field_from = res.get("field_from")
    if field_from:
        values, window, _ = read_field(field_from)
        if values.ndim != window.d:
            raise ConfigError("lambda-scan --field-from wants a single-slice field")
        source = LatticeField(window, values.astype(complex))
    else:
        d = res.get("d", 1, int)
        M = res.get("M", 34, int)
        window = LatticeWindow(d, M)
        ecfg = EvolutionConfig(dt=res.get("dt", 1e-3, float), T=res.get("T", 1.0, float),
                               window=window, potential=_potential(res, window),
                               store_every=res.get("store_every", 5, int))
        source = normalize_observation(evolve(_datum(res, window), ecfg))
    scan = xp.lambda_scan(source, cfg)
    rows = [(r.R, r.log_lambda, r.alpha, r.log_lhs_growth, r.pass_absorption, r.boundary_mass)
            for r in scan["rows"]]
    manifest.add(write_tsv(out / f"lambda_scan_{seed}_{stamp}.tsv",
                           ("R", "log_lambda", "alpha", "log_lhs_growth",
                            "pass_absorption", "boundary_mass"), rows))
    summary = {k: scan[k] for k in scan if k != "rows"}
    manifest.add(write_json(out / f"lambda_scan_{seed}_{stamp}.json", summary))
    if scan.get("vacuous"):
        return _vacuous(lines, "lambda_scan", "fewer than three nonempty rings, nothing to fit")
    best = scan["best_model"]
    return _emit(lines, True, "lambda_scan",
                 f"best decay model {best} "
                 f"(RMS log-residuals: " +
                 ", ".join(f"{k}={scan['fits'][k].residual:.3f}" for k in scan["fits"]) + ")")


def _run_logconvexity(res: Resolver, out: Path, stamp: str, manifest: RunManifest,
                      lines: list) -> bool:
    d = res.get("d", 1, int)
    M = res.get("M", 48, int)
    seed = res.get("seed", 0, int)
    L = res.get("L", 0.0, float)
    beta_max = res.get("beta_max", 2.0, float)
    window = LatticeWindow(d, M)
    ecfg = EvolutionConfig(dt=res.get("dt", 1e-3, float), T=res.get("T", 1.0, float),
                           window=window, potential=_potential(res, window),
                           store_every=res.get("store_every", 10, int))
    traj = evolve(_datum(res, window), ecfg)
    cfg = xp.ExperimentConfig(L=L, seed=seed, tolerances=res.tolerances())
    check = xp.log_convexity_check(traj, xp.beta_grid(beta_max, d), cfg)
    rows = [(",".join(repr(b) for b in r["beta"]), r["t"], r["log_rho"]) for r in check["rows"]]
    manifest.add(write_tsv(out / f"logconvexity_{seed}_{stamp}.tsv",
                           ("beta", "t", "log_rho"), rows))
    report = {k: check[k] for k in check if k != "rows"}
    if L > 0:
        stab = xp.log_convexity_stability(traj, beta_max / 2.0, cfg)
        report["stability"] = stab
        manifest.add(write_json(out / f"logconvexity_{seed}_{stamp}.json", report))
        if stab["vacuous"]:
            return _vacuous(lines, "logconvexity",
                            f"C_emp {stab['C_emp_base']:.4f} <= 0: no ratio exceeds 1, so the "
                            "20% beta-doubling gate says nothing")
        return _emit(lines, stab["stable"], "logconvexity",
                     f"C_emp {stab['C_emp_base']:.4f} -> {stab['C_emp_doubled']:.4f} "
                     f"({100 * stab['relative_change']:.1f}% change)")
    manifest.add(write_json(out / f"logconvexity_{seed}_{stamp}.json", report))
    tol = res.tolerances().get("logconvexity", 1e-10)
    return _emit(lines, check["max_rho_minus_one"] <= tol, "logconvexity",
                 f"max rho - 1 = {check['max_rho_minus_one']:.3e} (free evolution)")


def _run_normstar(res: Resolver, out: Path, stamp: str, manifest: RunManifest,
                  lines: list) -> bool:
    d = res.get("d", 2, int)
    j_max = res.get("j_max", 10_000, int)
    seed = res.get("seed", 0, int)
    report = xp.norm_star_equivalence(d, j_max)
    manifest.add(write_json(out / f"normstar_{seed}_{stamp}.json", report))
    ok = math.isfinite(report["c_d"]) and report["inf_ratio"] > 0
    return _emit(lines, ok, "normstar",
                 f"d={d} sup {report['sup_ratio']:.6f} inf {report['inf_ratio']:.6f} "
                 f"c_d {report['c_d']:.6f}")


def _run_kbessel(res: Resolver, out: Path, stamp: str, manifest: RunManifest,
                 lines: list) -> bool:
    mu = res.get("mu", 1.0, float)
    seed = res.get("seed", 0, int)
    report = xp.k_bessel_weight_check(mu, (5, 10, 20), growth_j=range(20, 201, 10))
    manifest.add(write_json(out / f"kbessel_{seed}_{stamp}.json", report))
    tol = res.tolerances().get("kbessel", 1e-8)
    ok = report["max_defect"] < tol and abs(report["growth_exponent"] - mu) <= 0.1 * mu
    return _emit(lines, ok, "kbessel",
                 f"max identity defect {report['max_defect']:.2e}, "
                 f"growth exponent {report['growth_exponent']:.4f} (target {mu})")


def _run_threshold_scan(res: Resolver, out: Path, stamp: str, manifest: RunManifest,
                        lines: list) -> bool:
    d = res.get("d", 2, int)
    c = res.get("c", 1.0, float)
    L = res.get("L", 1.0, float)
    seed = res.get("seed", 0, int)
    Rs = res.get("R_list", tuple(float(10**k) for k in range(2, 7)), _cast_r_list)
    rows = []
    summary = {}
    for name in ("sqrt_log", "log"):
        scan = phi_rate_scan(name, c, L, d, Rs)
        for r in scan:
            rows.append((name, r["R"], r["alpha"], r["holds"]))
        holds = [r["holds"] for r in scan]
        summary[name] = {
            "holds": holds,
            "first_R_holding": next((r["R"] for r in scan if r["holds"]), None),
            "fails_from": next((r["R"] for i, r in enumerate(scan)
                                if not r["holds"] and not any(holds[i:])), None),
        }
    manifest.add(write_tsv(out / f"threshold_scan_{seed}_{stamp}.tsv",
                           ("profile", "R", "alpha", "holds"), rows))
    manifest.add(write_json(out / f"threshold_scan_{seed}_{stamp}.json",
                            {"d": d, "c": c, "L": L, "R_list": list(Rs), **summary}))
    return _emit(lines, True, "threshold_scan",
                 f"sqrt_log fails from R={summary['sqrt_log']['fails_from']}, "
                 f"log holds from R={summary['log']['first_R_holding']}")


def _run_counterexample(res: Resolver, out: Path, stamp: str, manifest: RunManifest,
                        lines: list) -> bool:
    R = int(res.get("R", 20.0, float))
    mode = res.get("mode", "repaired", str)
    margin = res.get("margin", max(60, R), int)
    seed = res.get("seed", 0, int)
    spec = ce.CounterexampleSpec(R=R, margin=margin, value_mode=mode)
    u, V = ce.build_counterexample(spec)
    report = ce.verify_counterexample(u, V, spec)
    tag = f"counterexample_R{R}_{mode}_{seed}_{stamp}"
    manifest.add(*write_field(out / f"{tag}.bin", u.to_lattice_field(),
                              metadata={"R": R, "margin": margin, "mode": mode,
                                        "kind": "counterexample"}))
    manifest.add(write_json(out / f"{tag}_exact.json", u.exact_sidecar()))
    manifest.add(write_json(out / f"{tag}_report.json", report))
    text = [f"counterexample R={R} mode={mode} margin={margin}"]
    for key in ("vanishing_diamond", "diamond_harmonic", "equation_everywhere",
                "l2_tail_certificate", "origin_is_one"):
        ok = report[key]["pass"]
        text.append(f"  {'PASS' if ok else 'FAIL'} {key}")
        if key == "diamond_harmonic" and not ok:
            for site, resid in report[key]["residuals"].items():
                text.append(f"    residual at ({site}): {resid}")
    text.append(f"  sup|V| = {report['sup_V']} ({report['sup_V_float']:.6g})")
    p = out / f"{tag}_report.txt"
    p.write_text("\n".join(text) + "\n")
    manifest.add(p)
    detail = f"mode={mode}, sup|V|={report['sup_V_float']:.4g}"
    if not report["pass"]:
        detail += (", exact residuals at "
                   + str(report["diamond_harmonic"]["residual_sites"]))
    return _emit(lines, report["pass"], "counterexample", detail)


def _run_verify_counterexample(res: Resolver, out: Path, stamp: str, manifest: RunManifest,
                               lines: list) -> bool:
    path = Path(res.get("field_from", "", str))
    values, window, meta = read_field(path)
    if meta.get("kind") != "counterexample":
        raise ConfigError(f"{path} does not carry counterexample metadata")
    spec = ce.CounterexampleSpec(R=int(meta["R"]), margin=int(meta["margin"]),
                                 value_mode=meta["mode"])
    u, V = ce.build_counterexample(spec)
    report = ce.verify_counterexample(u, V, spec)
    rebuilt = u.to_lattice_field().values
    file_matches = bool(np.array_equal(rebuilt, values))
    report["file_matches_exact_rebuild"] = file_matches
    seed = res.get("seed", 0, int)
    manifest.add(write_json(out / f"verify_counterexample_{seed}_{stamp}.json", report))
    return _emit(lines, report["pass"] and file_matches, "verify_counterexample",
                 f"exact checks {'pass' if report['pass'] else 'fail'}, "
                 f"file matches rebuild: {file_matches}")


def _run_potential_scan(res: Resolver, out: Path, stamp: str, manifest: RunManifest,
                        lines: list) -> bool:
    Rs = res.get("R_list", (10.0, 20.0, 40.0), _cast_r_list)
    mode = res.get("mode", "repaired", str)
    margin = res.get("margin", None, int)
    seed = res.get("seed", 0, int)
    report = ce.potential_bound_scan([int(r) for r in Rs], margin=margin, value_mode=mode)
    manifest.add(write_json(out / f"potential_scan_{seed}_{stamp}.json", report))
    return _emit(lines, report["identical_across_R"], "potential_bound",
                 f"sup|V| = {report['sup_float']:.6g}, exact-equal across R: "
                 f"{report['identical_across_R']}")


def _run_report(res: Resolver, out: Path, stamp: str, manifest: RunManifest,
                lines: list) -> bool:
    found = sorted(out.glob("manifest_*.json"))
    if not found:
        lines.append(f"no manifests under {out}")
        return True
    ok = True
    for mpath in found:
        doc = json.loads(mpath.read_text())
        lines.append(f"{doc['subcommand']} seed={doc['seed']} ({mpath.name})")
        for name in doc.get("outputs", []):
            fpath = out / name
            status = "present" if fpath.exists() else "MISSING"
            lines.append(f"  {name}: {status}")
            ok &= fpath.exists()
    return ok


_DISPATCH = {
    "evolve": _run_evolve,
    "carleman-check": _run_carleman_check,
    "commutator-check": _run_commutator_check,
    "hiding-scan": _run_hiding_scan,
    "lambda-scan": _run_lambda_scan,
    "logconvexity": _run_logconvexity,
    "normstar": _run_normstar,
    "kbessel": _run_kbessel,
    "threshold-scan": _run_threshold_scan,
    "counterexample": _run_counterexample,
    "verify-counterexample": _run_verify_counterexample,
    "potential-scan": _run_potential_scan,
    "report": _run_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 2
    lines: list[str] = []
    try:
        res = Resolver(args)
        out = Path(res.get("out", "runs", str))
        out.mkdir(parents=True, exist_ok=True)
        stamp = _stamp(res)
        manifest = RunManifest(args.subcommand, {k: v for k, v in vars(args).items()
                                                 if k not in ("subcommand",) and v is not None},
                               res.get("seed", 0, int))
        ok = _DISPATCH[args.subcommand](res, out, stamp, manifest, lines)
        if args.subcommand != "report":
            manifest.write(out, stamp)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (SolverDivergenceError, NonFiniteError, ExactRangeError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (OSError, ValueError, CarlemanError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {e!r}", file=sys.stderr)
        return 4
    for line in lines:
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
