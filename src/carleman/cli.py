"""Single command-line entry point for every check and scan.

Exit codes: 0 all checks passed or were vacuous (reported as VACUOUS, with
the reason; lambda-scan and threshold-scan have no gate yet and always report
VACUOUS), 1 a check failed (a data finding, e.g. the literal-mode
counterexample residuals), 2 usage/config error, 3 numeric failure (solver
divergence, non-finite values, exact arithmetic out of range), 4 internal
error (any other exception; one "internal error:" line on stderr, no
traceback).  TSV columns are documented per subcommand in
--help; JSON and TSV reports are deterministic given (subcommand, config, seed).

Every default lives in one place: the subcommand's parameter table in
_SUBCOMMANDS, name -> (default, cast, help), plus the tolerance names it
declares with their defaults.  The table builds the parser, so a subcommand
accepts only the flags it reads and --help shows every default.  Each
parameter resolves up front: table default, then the --config value, then the
flag, with config and flag values cast by the table; a default computed from
other parameters (_Derived) is evaluated after them.  The bodies receive the
resolved values and hold no defaults, and the manifest's config is the full
resolved parameter set, so its input_hash is the same for a flag that equals
its default and for no flag at all.  A parameter that the chosen mode never
reads (_UNREAD_IN_MODE: the evolution and datum flags of lambda-scan
--field-from, the tolerance of logconvexity at L > 0) is a config error when
set by flag or config, rather than a silent change of input_hash.  The
evolving subcommands record the CN solver stats, norm drift and boundary mass
in their manifest's stats.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import counterexample as ce
from . import experiments as xp
from .errors import (CarlemanError, ConfigError, ExactRangeError, NonFiniteError,
                     SolverDivergenceError, ToleranceExceededError)
from .evolution import (EvolutionConfig, Trajectory, evolve, make_decaying_datum,
                        normalize_observation)
from .fieldio import read_field, write_field, write_trajectory
from .lattice import LatticeField, LatticeWindow, Potential
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
    if not isinstance(text, str):
        raise TypeError("want a comma list or lo..hi[..step]")
    text = text.strip()
    if ".." in text:
        parts = text.split("..")
        if len(parts) == 2:
            lo, hi = parts
            return tuple(float(x) for x in range(int(lo), int(hi) + 1))
        lo, hi, step = parts
        return tuple(float(x) for x in range(int(lo), int(hi) + 1, int(step)))
    return tuple(float(x) for x in text.split(","))


def _choice(*names):
    def cast(value):
        if value not in names:
            raise ValueError(value)
        return value
    cast.names = names
    return cast


def _positive(value) -> float:
    x = float(value)
    if not x > 0:
        raise ValueError(value)
    return x


class _Derived:
    """A default computed from the other resolved parameters; text is its
    --help form."""

    def __init__(self, text: str, fn):
        self.text, self.fn = text, fn

    def __str__(self) -> str:
        return self.text


def _required(flag: str) -> _Derived:
    def fn(p):
        raise ConfigError(f"{flag} is required")
    return _Derived("required", fn)


# --- parameter tables --------------------------------------------------------

_OUT = {"out": ("runs", str, "output directory")}
_RUN = {**_OUT,
        "stamp": (_Derived("UTC start time",
                           lambda p: datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")),
                  str, "output-name stamp; pin it for reproducible names"),
        "seed": (0, int, "RNG seed, also in the output names")}
_D = (1, int, "lattice dimension")
_PHI = _choice(*sorted(_PROFILES))


def _evolution_params(M: int, store_every: int) -> dict:
    return {"d": _D, "M": (M, int, "window half-width"),
            "dt": (1e-3, float, "Crank-Nicolson time step"),
            "T": (1.0, float, "final time"),
            "potential": ("none", _choice("none", "alternating"), "potential kind"),
            "L": (0.0, float, "potential sup bound; amplitude of the alternating potential "
                              "(1 when L is 0)"),
            "store_every": (store_every, int, "keep every n-th step")}


_DATUM = {"datum": ("delta", _choice("delta", "bessel_like", "gaussian"), "initial datum"),
          "mu": (1.0, float, "decay rate of the bessel_like or gaussian datum")}

# subcommand -> (help, parameter table, tolerance defaults)
_SUBCOMMANDS = {
    "evolve": ("integrate a datum and export the trajectory",
               {**_RUN, **_evolution_params(34, 10), **_DATUM}, {}),
    "carleman-check": (
        "empirical weighted-inequality constant: calibration batch + held-out batch",
        {**_RUN, "d": _D, "R": (10.0, float, "weight radius"),
         "c": (2.0, float, "constant in the alpha = c R log R rule"),
         "M": (_Derived("int(2R)+2", lambda p: int(2 * p["R"]) + 2), int,
               "window half-width"),
         "alpha": (_Derived("c R log R", lambda p: p["c"] * p["R"] * math.log(p["R"])),
                   _positive, "weight strength, > 0"),
         "trials": (500, int, "trials per batch"),
         "phi": ("zero", _PHI, "time profile")}, {}),
    "commutator-check": (
        "operator identities: symmetry/skewness, commutator closed form, conjugation oracle",
        {**_RUN, "d": _D, "R": (10.0, float, "weight radius"),
         "c": (2.0, float, "constant in the alpha = c R log R rule"),
         "M": (_Derived("int(R)+4", lambda p: int(p["R"]) + 4), int, "window half-width"),
         "trials": (50, int, "trials per check"),
         "phi": ("paper", _PHI, "time profile")},
        {"symmetry": 1e-9, "commutator": 1e-8, "conjugation": 1e-9}),
    "hiding-scan": (
        "minimal absorption constant per R; TSV columns: R alpha s log_lhs log_rhs_A log_rhs_B",
        {**_RUN, "d": _D,
         "R_list": ((10.0, 20.0, 40.0, 80.0), _parse_r_list, "comma list or lo..hi[..step]"),
         "grid_points": (200, int, "points of the s grid"),
         "s_max": (5.0, float, "s grid runs over [1, s_max]"),
         "phi": ("paper", _PHI, "time profile")}, {}),
    "lambda-scan": (
        "ring-mass decay rows; TSV columns: "
        "R log_lambda alpha log_lhs_growth pass_absorption boundary_mass",
        {**_RUN, **_evolution_params(34, 5), **_DATUM,
         "R_list": (_parse_r_list("8..28"), _parse_r_list, "comma list or lo..hi[..step]"),
         "A": (1.0, float, "trajectory l2 bound"),
         "c": (2.0, float, "constant in the alpha = c R log R rule"),
         "field_from": (None, str, "stationary scan of an exported binary field "
                                   "in place of an evolution")}, {}),
    "logconvexity": ("two-endpoint weighted ratios; TSV columns: beta t log_rho",
                     {**_RUN, **_evolution_params(48, 10),
                      "beta_max": (2.0, float, "largest |beta| of the grid")},
                     {"logconvexity": 1e-10}),
    "normstar": ("norm-equivalence ratio scan",
                 {**_RUN, "d": (2, int, "lattice dimension"),
                  "j_max": (10_000, int, "largest coordinate scanned")}, {}),
    "kbessel": ("weighted cosh-kernel identity and growth fit",
                {**_RUN, "mu": (1.0, float, "decay rate")}, {"kbessel": 1e-8}),
    "threshold-scan": (
        "absorption threshold under alpha = c R phi(R); TSV columns: profile R alpha holds",
        {**_RUN, "d": (2, int, "lattice dimension"),
         "c": (1.0, float, "constant in the alpha = c R phi(R) rule"),
         "L": (1.0, float, "potential sup bound"),
         "R_list": (tuple(float(10**k) for k in range(2, 7)), _parse_r_list,
                    "comma list or lo..hi[..step]")}, {}),
    "counterexample": (
        "build + exactly verify the vanishing-diamond field",
        {**_RUN, "R": (20, lambda v: int(float(v)), "diamond radius (integer part)"),
         "margin": (_Derived("max(60,R)", lambda p: max(60, p["R"])), int,
                    "window margin beyond the diamond"),
         "mode": ("repaired", _choice("repaired", "literal_paper"), "value mode")}, {}),
    "verify-counterexample": ("re-verify an exported counterexample field",
                              {**_RUN, "field_from": (_required("--field-from"), str,
                                                      "exported counterexample field")}, {}),
    "potential-scan": (
        "exact sup|V| across R",
        {**_RUN, "R_list": ((10.0, 20.0, 40.0), _parse_r_list, "comma list or lo..hi[..step]"),
         "margin": (None, int, "window margin for every R (None: max(60,R) per R)"),
         "mode": ("repaired", _choice("repaired", "literal_paper"), "value mode")}, {}),
    "report": ("summarize manifests and reports in --out", _OUT, {}),
}


# subcommand -> (test on the resolved parameters, the mode it names, the
# parameters that mode never reads): setting one of them explicitly, by flag
# or config, in that mode is a config error
_UNREAD_IN_MODE = {
    "lambda-scan": (lambda p: p["field_from"] is not None, "--field-from",
                    ("d", "M", "dt", "T", "potential", "store_every", "datum", "mu")),
    "logconvexity": (lambda p: p["L"] > 0, "--L > 0", ("tolerance",)),
}


def _shown(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(x) for x in value)
    return str(value)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="carleman",
        description="Checks and scans for weighted lower-bound machinery on the lattice.")
    sub = top.add_subparsers(dest="subcommand", required=True)
    for name, (text, params, tolerances) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text, description=text, allow_abbrev=False)
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="JSON object of flat parameter keys, read before the flags")
        for key, (default, cast, help_text) in params.items():
            choices = getattr(cast, "names", None)
            if choices:
                help_text += f": {' | '.join(choices)}"
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=argparse.SUPPRESS,
                           help=f"{help_text} (default: {_shown(default)})")
        if tolerances:
            shown = ", ".join(f"{k}={v!r}" for k, v in tolerances.items())
            p.add_argument("--tolerance", action="append", default=argparse.SUPPRESS,
                           metavar="NAME=VALUE", help=f"tolerance override (default: {shown})")
    return top


def _read_config(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    return raw


def _resolve(subcommand: str, args: dict) -> dict:
    """Every parameter of the subcommand: table default, then config value,
    then flag; config and flag values go through the table cast."""
    _, params, tol_defaults = _SUBCOMMANDS[subcommand]
    cfg = _read_config(args["config"]) if "config" in args else {}
    for key in cfg:
        if key not in params and not (key == "tolerance" and tol_defaults):
            raise ConfigError(f"unknown config key: {key}")
    given = {**cfg, **args}
    out = {}
    for key, (default, cast, _) in params.items():
        if key not in given:
            out[key] = default
            continue
        try:
            out[key] = cast(given[key])
        except (TypeError, ValueError):
            raise ConfigError(f"bad value for {key}: {given[key]!r}")
    for key, value in out.items():
        if isinstance(value, _Derived):
            out[key] = value.fn(out)
    if tol_defaults:
        from_cfg = cfg.get("tolerance", [])
        if not isinstance(from_cfg, list):
            raise ConfigError("config key tolerance wants a list of NAME=VALUE strings")
        out["tolerance"] = _tolerances(tol_defaults, [*from_cfg, *args.get("tolerance", [])])
    if subcommand in _UNREAD_IN_MODE:
        in_mode, mode, unread = _UNREAD_IN_MODE[subcommand]
        ignored = ["--" + key.replace("_", "-") for key in unread if key in given]
        if ignored and in_mode(out):
            raise ConfigError(f"{mode} does not read {', '.join(ignored)}")
    return out


def _tolerances(defaults: dict, items: list) -> dict:
    out = dict(defaults)
    for item in items:
        name, eq, value = str(item).partition("=")
        if not eq:
            raise ConfigError(f"bad --tolerance entry {item!r} (want NAME=VALUE)")
        if name not in defaults:
            raise ConfigError(f"unknown tolerance {name!r} (declared: {', '.join(defaults)})")
        try:
            out[name] = float(value)
        except ValueError:
            raise ConfigError(f"bad value for tolerance {name}: {value!r}")
    return out


def _evolved(p, datum: tuple, manifest: RunManifest) -> Trajectory:
    """The datum evolved under the _evolution_params values.  The manifest's
    stats get the CN solver stats, the norm drift and the boundary mass with
    its flag."""
    window = LatticeWindow(p.d, p.M)
    potential = (Potential.alternating(window, amplitude=p.L if p.L > 0 else 1.0)
                 if p.potential == "alternating" else Potential.zero(window))
    cfg = EvolutionConfig(dt=p.dt, T=p.T, window=window, potential=potential,
                          store_every=p.store_every)
    traj = evolve(make_decaying_datum(window, datum), cfg)
    boundary = traj.boundary_mass()
    manifest.stats = {**traj.solver_stats, "norm_drift": traj.norm_drift(),
                      "boundary_mass": boundary, "boundary_mass_flag": boundary > 1e-12}
    return traj


def _emit(lines, ok: bool, check: str, detail: str):
    lines.append(f"{'PASS' if ok else 'FAIL'} {check}: {detail}")
    return ok


def _vacuous(lines, check: str, reason: str) -> bool:
    """A check whose premise did not hold, or a scan with no gate that could
    fail: neither a pass nor a finding."""
    lines.append(f"VACUOUS {check}: {reason}")
    return True


# --- subcommand bodies ------------------------------------------------------
# Each takes the resolved parameters p (attributes named as in its table), the
# run manifest and the list of verdict lines, and returns whether every check
# passed.


def _run_evolve(p, manifest: RunManifest, lines: list) -> bool:
    traj = _evolved(p, (p.datum, p.mu), manifest)
    traj_dir = Path(p.out) / f"evolve_{p.seed}_{p.stamp}"
    manifest.add(*write_trajectory(traj_dir, traj))
    drift = manifest.stats["norm_drift"]
    return _emit(lines, drift < 1e-10, "norm_conservation",
                 f"max drift {drift:.3e} over {traj.config.n_steps} steps")


def _run_carleman_check(p, manifest: RunManifest, lines: list) -> bool:
    spec = WeightSpec(alpha=p.alpha, R=p.R, phi=_PROFILES[p.phi](), d=p.d)
    window = LatticeWindow(p.d, p.M)
    cal = carleman_constant_batch(spec, window, p.trials, p.seed)
    held = carleman_constant_batch(spec, window, p.trials, p.seed + 1)
    bound = 2.0 * cal["c_emp"]
    violations = sum(1 for r in held["ratios"] if r > bound)
    report = {"calibration_c_emp": cal["c_emp"], "holdout_max": max(held["ratios"]),
              "bound": bound, "violations": violations,
              "params": cal["params"], "trials": p.trials, "seed": p.seed}
    manifest.add(write_json(Path(p.out) / f"carleman_check_{p.seed}_{p.stamp}.json", report))
    return _emit(lines, violations == 0, "carleman_inequality",
                 f"holdout max {report['holdout_max']:.4g} vs bound {bound:.4g} "
                 f"({violations} violations)")


def _run_commutator_check(p, manifest: RunManifest, lines: list) -> bool:
    tol = p.tolerance
    spec = WeightSpec.from_rule(p.R, _PROFILES[p.phi](), p.d, c_rule=p.c)
    window = LatticeWindow(p.d, p.M)
    ok = True
    report = {}
    try:
        sym = symmetry_check(spec, window, p.trials, p.seed, tolerance=tol["symmetry"])
        report["symmetry"] = sym
        ok &= _emit(lines, True, "symmetry_skewness",
                    f"defects {sym['symmetry']['defect']:.2e} / {sym['skewness']['defect']:.2e}")
    except ToleranceExceededError as e:
        ok &= _emit(lines, False, "symmetry_skewness", str(e))
    try:
        com = commutator_check(spec, window, p.trials, p.seed, rel_tolerance=tol["commutator"])
        report["commutator"] = com
        ok &= _emit(lines, True, "commutator_identity",
                    f"max defect {com['identity']['defect']:.2e}")
    except ToleranceExceededError as e:
        ok &= _emit(lines, False, "commutator_identity", str(e))
    conj = conjugation_check(spec, window, p.trials, p.seed)
    report["conjugation"] = conj
    ok &= _emit(lines, conj["defect_relative"] <= tol["conjugation"],
                "conjugation_identity", f"relative defect {conj['defect_relative']:.2e}")
    manifest.add(write_json(Path(p.out) / f"commutator_check_{p.seed}_{p.stamp}.json", report))
    return ok


def _run_hiding_scan(p, manifest: RunManifest, lines: list) -> bool:
    phi = _PROFILES[p.phi]()
    s_grid = np.linspace(1.0, p.s_max, p.grid_points)
    rows = []
    min_cs = []
    vacuous = False
    for R in p.R_list:
        scan = minimal_hiding_constant(p.d, R, phi, s_grid)
        min_cs.append(scan["min_c"])
        if scan["vacuous"]:  # alpha = 0 would leave the log-domain sides undefined
            vacuous = True
            continue
        alpha = scan["min_c"] * R * math.log(R)
        sides = hiding_sides(alpha, R, p.d, phi.sup_d1, phi.sup_d2, s_grid)
        rows.extend((R, alpha, s, lhs, rhs_a, rhs_b) for s, lhs, rhs_a, rhs_b in zip(
            s_grid.tolist(), sides["log_lhs"].tolist(), sides["log_rhs_A"].tolist(),
            sides["log_rhs_B"].tolist()))
    out = Path(p.out)
    manifest.add(write_tsv(out / f"hiding_scan_{p.seed}_{p.stamp}.tsv",
                           ("R", "alpha", "s", "log_lhs", "log_rhs_A", "log_rhs_B"), rows))
    nonincreasing = all(b <= a + 1e-9 for a, b in zip(min_cs, min_cs[1:]))
    report = {"R_list": list(p.R_list), "min_c": min_cs, "nonincreasing": nonincreasing,
              "sup_d1": phi.sup_d1, "sup_d2": phi.sup_d2}
    manifest.add(write_json(out / f"hiding_scan_{p.seed}_{p.stamp}.json", report))
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


def _run_lambda_scan(p, manifest: RunManifest, lines: list) -> bool:
    cfg = xp.ExperimentConfig(A=p.A, L=p.L, R_list=p.R_list, c_rule=p.c)
    if p.field_from:
        values, window, _ = read_field(p.field_from)
        if values.ndim != window.d:
            raise ConfigError("lambda-scan --field-from wants a single-slice field")
        source = LatticeField(window, values.astype(complex))
    else:
        source = normalize_observation(_evolved(p, (p.datum, p.mu), manifest))
    scan = xp.lambda_scan(source, cfg)
    rows = [(r.R, r.log_lambda, r.alpha, r.log_lhs_growth, r.pass_absorption, r.boundary_mass)
            for r in scan["rows"]]
    out = Path(p.out)
    manifest.add(write_tsv(out / f"lambda_scan_{p.seed}_{p.stamp}.tsv",
                           ("R", "log_lambda", "alpha", "log_lhs_growth",
                            "pass_absorption", "boundary_mass"), rows))
    summary = {k: scan[k] for k in scan if k != "rows"}
    manifest.add(write_json(out / f"lambda_scan_{p.seed}_{p.stamp}.json", summary))
    if scan.get("vacuous"):
        return _vacuous(lines, "lambda_scan", "fewer than three nonempty rings, nothing to fit")
    best = scan["best_model"]
    # no gate yet: the fits describe the rows but nothing here can fail
    return _vacuous(lines, "lambda_scan",
                    f"best decay model {best} "
                    f"(RMS log-residuals: " +
                    ", ".join(f"{k}={scan['fits'][k].residual:.3f}" for k in scan["fits"]) + ")")


def _run_logconvexity(p, manifest: RunManifest, lines: list) -> bool:
    traj = _evolved(p, ("delta",), manifest)
    cfg = xp.ExperimentConfig(L=p.L)
    check = xp.log_convexity_check(traj, xp.beta_grid(p.beta_max, p.d), cfg)
    rows = [(",".join(repr(b) for b in r["beta"]), r["t"], r["log_rho"]) for r in check["rows"]]
    out = Path(p.out)
    manifest.add(write_tsv(out / f"logconvexity_{p.seed}_{p.stamp}.tsv",
                           ("beta", "t", "log_rho"), rows))
    report = {k: check[k] for k in check if k != "rows"}
    json_path = out / f"logconvexity_{p.seed}_{p.stamp}.json"
    if p.L > 0:
        stab = xp.log_convexity_stability(traj, p.beta_max / 2.0, cfg)
        report["stability"] = stab
        manifest.add(write_json(json_path, report))
        if stab["vacuous"]:
            return _vacuous(lines, "logconvexity",
                            f"C_emp {stab['C_emp_base']:.4f} <= 0: no ratio exceeds 1, so the "
                            "20% beta-doubling gate says nothing")
        return _emit(lines, stab["stable"], "logconvexity",
                     f"C_emp {stab['C_emp_base']:.4f} -> {stab['C_emp_doubled']:.4f} "
                     f"({100 * stab['relative_change']:.1f}% change)")
    manifest.add(write_json(json_path, report))
    return _emit(lines, check["max_rho_minus_one"] <= p.tolerance["logconvexity"],
                 "logconvexity",
                 f"max rho - 1 = {check['max_rho_minus_one']:.3e} (free evolution)")


def _run_normstar(p, manifest: RunManifest, lines: list) -> bool:
    report = xp.norm_star_equivalence(p.d, p.j_max)
    manifest.add(write_json(Path(p.out) / f"normstar_{p.seed}_{p.stamp}.json", report))
    ok = math.isfinite(report["c_d"]) and report["inf_ratio"] > 0
    return _emit(lines, ok, "normstar",
                 f"d={p.d} sup {report['sup_ratio']:.6f} inf {report['inf_ratio']:.6f} "
                 f"c_d {report['c_d']:.6f}")


def _run_kbessel(p, manifest: RunManifest, lines: list) -> bool:
    report = xp.k_bessel_weight_check(p.mu, (5, 10, 20), growth_j=range(20, 201, 10))
    manifest.add(write_json(Path(p.out) / f"kbessel_{p.seed}_{p.stamp}.json", report))
    ok = (report["max_defect"] < p.tolerance["kbessel"]
          and abs(report["growth_exponent"] - p.mu) <= 0.1 * p.mu)
    return _emit(lines, ok, "kbessel",
                 f"max identity defect {report['max_defect']:.2e}, "
                 f"growth exponent {report['growth_exponent']:.4f} (target {p.mu})")


def _run_threshold_scan(p, manifest: RunManifest, lines: list) -> bool:
    rows = []
    summary = {}
    for name in ("sqrt_log", "log"):
        scan = phi_rate_scan(name, p.c, p.L, p.d, p.R_list)
        for r in scan:
            rows.append((name, r["R"], r["alpha"], r["holds"]))
        holds = [r["holds"] for r in scan]
        summary[name] = {
            "holds": holds,
            "first_R_holding": next((r["R"] for r in scan if r["holds"]), None),
            "fails_from": next((r["R"] for i, r in enumerate(scan)
                                if not r["holds"] and not any(holds[i:])), None),
        }
    out = Path(p.out)
    manifest.add(write_tsv(out / f"threshold_scan_{p.seed}_{p.stamp}.tsv",
                           ("profile", "R", "alpha", "holds"), rows))
    manifest.add(write_json(out / f"threshold_scan_{p.seed}_{p.stamp}.json",
                            {"d": p.d, "c": p.c, "L": p.L, "R_list": list(p.R_list), **summary}))
    # no gate yet: the dichotomy is reported, not tested
    return _vacuous(lines, "threshold_scan",
                    f"sqrt_log fails from R={summary['sqrt_log']['fails_from']}, "
                    f"log holds from R={summary['log']['first_R_holding']}")


def _run_counterexample(p, manifest: RunManifest, lines: list) -> bool:
    R, margin, mode = p.R, p.margin, p.mode
    spec = ce.CounterexampleSpec(R=R, margin=margin, value_mode=mode)
    u, V = ce.build_counterexample(spec)
    report = ce.verify_counterexample(u, V, spec)
    out = Path(p.out)
    tag = f"counterexample_R{R}_{mode}_{p.seed}_{p.stamp}"
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
    txt = out / f"{tag}_report.txt"
    txt.write_text("\n".join(text) + "\n")
    manifest.add(txt)
    detail = f"mode={mode}, sup|V|={report['sup_V_float']:.4g}"
    if not report["pass"]:
        detail += (", exact residuals at "
                   + str(report["diamond_harmonic"]["residual_sites"]))
    return _emit(lines, report["pass"], "counterexample", detail)


def _run_verify_counterexample(p, manifest: RunManifest, lines: list) -> bool:
    path = Path(p.field_from)
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
    manifest.add(write_json(Path(p.out) / f"verify_counterexample_{p.seed}_{p.stamp}.json",
                            report))
    return _emit(lines, report["pass"] and file_matches, "verify_counterexample",
                 f"exact checks {'pass' if report['pass'] else 'fail'}, "
                 f"file matches rebuild: {file_matches}")


def _run_potential_scan(p, manifest: RunManifest, lines: list) -> bool:
    report = ce.potential_bound_scan([int(r) for r in p.R_list], margin=p.margin,
                                     value_mode=p.mode)
    manifest.add(write_json(Path(p.out) / f"potential_scan_{p.seed}_{p.stamp}.json", report))
    return _emit(lines, report["identical_across_R"], "potential_bound",
                 f"sup|V| = {report['sup_float']:.6g}, exact-equal across R: "
                 f"{report['identical_across_R']}")


def _run_report(p, manifest: RunManifest, lines: list) -> bool:
    out = Path(p.out)
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
        args = vars(parser.parse_args(argv))
    except SystemExit as e:
        return 0 if e.code == 0 else 2
    subcommand = args.pop("subcommand")
    lines: list[str] = []
    try:
        params = _resolve(subcommand, args)
        Path(params["out"]).mkdir(parents=True, exist_ok=True)
        manifest = RunManifest(subcommand, params, params.get("seed"))
        ok = _DISPATCH[subcommand](SimpleNamespace(**params), manifest, lines)
        if subcommand != "report":
            manifest.write(params["out"], params["stamp"])
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
