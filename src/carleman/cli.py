"""Single command-line entry point for every check and scan.

Exit codes: 0 all checks passed or were vacuous (reported as VACUOUS, with
the reason; lambda-scan and threshold-scan have no gate yet and always report
VACUOUS), 1 a check failed (a data finding, e.g. the literal-mode
counterexample residuals), 2 usage/config error or malformed input file,
3 numeric failure (solver divergence, non-finite values, exact arithmetic out
of range), 4 internal error (any other exception; one "internal error:" line
on stderr, no traceback).  TSV columns are documented per subcommand in
--help; JSON and TSV reports are deterministic given (subcommand, config, seed).

_SUBCOMMANDS registers each subcommand: its help, its parameter table
name -> (default, cast, help), the tolerance names it declares with their
defaults, and its body.  The table builds the parser, so a subcommand accepts
only the flags it reads and --help shows every default.  Each parameter
resolves up front: table default, then the --config value, then the flag,
with config and flag values cast by the table; a default computed from other
parameters (_Derived) is evaluated after them.  The bodies hold no defaults,
and the manifest's config is the full resolved parameter set, so its
input_hash is the same for a flag that equals its default and for no flag at
all.  A parameter that the chosen mode never reads (_UNREAD_IN_MODE: the
evolution and datum flags of lambda-scan --field-from, the tolerance of
logconvexity at L > 0) is a config error when set by flag or config.  So is
an empty R list; potential-scan over fewer than two R reports VACUOUS, since
"exact-equal across R" cannot fail there.

A body gets the resolved parameters and the run's RunManifest, the single
record of the run: it names, writes and lists the outputs, holds the CN
solver stats, norm drift and boundary mass of the evolving subcommands, and
collects the verdicts, which go to stdout and into the manifest.  report
prints each manifest's verdicts and whether its outputs exist.

Start-up: importing this module loads the standard library modules the
parser needs and carleman.errors, not numpy, scipy or a compute module, so
--help, a usage error and a config error exit before any of them loads.
Each body imports the modules it runs at its top (potential-scan loads
counterexample, threshold-scan operators, evolve evolution and fieldio), and
main imports RunManifest once the parameters have resolved.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

from .errors import (CarlemanError, ConfigError, ExactRangeError, NonFiniteError,
                     SolverDivergenceError, ToleranceExceededError)

# --phi name -> the profile it names, built from the TimeProfile class
_PROFILES = {
    "paper": lambda cls: cls.paper(),
    "zero": lambda cls: cls.zero(),
    "const3": lambda cls: cls.constant(3.0),
}


def _profile(name: str):
    from .profiles import TimeProfile
    return _PROFILES[name](TimeProfile)


def _parse_r_list(text: str) -> tuple:
    if not isinstance(text, str):
        raise TypeError("want a comma list or lo..hi[..step]")
    if ".." in text:
        lo, hi, *step = text.split("..")
        out = tuple(float(x) for x in range(int(lo), int(hi) + 1, *map(int, step)))
    else:
        out = tuple(float(x) for x in text.split(","))
    if not out:
        raise ValueError("empty R list")
    low = [R for R in out if not R > 1.0]
    if low:  # every scan's alpha = c R log R, or c R phi(R), needs log R > 0
        raise ConfigError(f"every R in --R-list must be > 1, got R = {low[0]:g}")
    return out


def _parse_integer_r_list(text: str) -> tuple:
    out = _parse_r_list(text)
    odd = [R for R in out if not R.is_integer()]
    if odd:  # the counterexample's diamond radius is an integer
        raise ConfigError(f"every R in --R-list must be an integer, got R = {odd[0]:g}")
    return out


def _choice(*names):
    def cast(value):
        if value not in names:
            raise ValueError(value)
        return value
    cast.names = names
    return cast


def _positive(kind):
    def cast(value):
        x = kind(value)
        if not x > 0:
            raise ValueError(value)
        return x
    return cast


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


def _evolved(p, datum: tuple, run):
    """The Trajectory of the datum evolved under the _evolution_params values;
    run.stats gets the CN solver stats, the norm drift and the boundary mass
    with its flag."""
    from .evolution import EvolutionConfig, evolve, make_decaying_datum
    from .lattice import LatticeWindow, Potential
    if p.L < 0:
        raise ValueError("A and L must be nonnegative")
    window = LatticeWindow(p.d, p.M)
    potential = (Potential.alternating(window, amplitude=p.L if p.L > 0 else 1.0)
                 if p.potential == "alternating" else Potential.zero(window))
    cfg = EvolutionConfig(dt=p.dt, T=p.T, window=window, potential=potential,
                          store_every=p.store_every)
    traj = evolve(make_decaying_datum(window, datum), cfg)
    boundary = traj.boundary_mass()
    run.stats = {**traj.solver_stats, "norm_drift": traj.norm_drift(),
                 "boundary_mass": boundary, "boundary_mass_flag": boundary > 1e-12}
    return traj


# --- subcommand bodies ------------------------------------------------------
# Each takes the resolved parameters p (attributes named as in its table) and
# the run manifest, which writes and lists its outputs and collects verdicts,
# and imports the modules it runs at its top.


def _run_evolve(p, run) -> None:
    from .fieldio import write_trajectory
    traj = _evolved(p, (p.datum, p.mu), run)
    run.add(*write_trajectory(run.path(), traj))
    drift = run.stats["norm_drift"]
    run.check(drift < 1e-10, "norm_conservation",
              f"max drift {drift:.3e} over {traj.config.n_steps} steps")


def _run_carleman_check(p, run) -> None:
    from .lattice import LatticeWindow
    from .operators import carleman_constant_batch
    from .profiles import WeightSpec
    spec = WeightSpec(alpha=p.alpha, R=p.R, phi=_profile(p.phi), d=p.d)
    window = LatticeWindow(p.d, p.M)
    cal = carleman_constant_batch(spec, window, p.trials, p.seed)
    held = carleman_constant_batch(spec, window, p.trials, p.seed + 1)
    bound = 2.0 * cal["c_emp"]
    violations = sum(1 for r in held["ratios"] if r > bound)
    report = {"calibration_c_emp": cal["c_emp"], "holdout_max": max(held["ratios"]),
              "bound": bound, "violations": violations,
              "params": cal["params"], "trials": p.trials, "seed": p.seed}
    run.json(report)
    run.check(violations == 0, "carleman_inequality",
              f"holdout max {report['holdout_max']:.4g} vs bound {bound:.4g} "
              f"({violations} violations)")


def _run_commutator_check(p, run) -> None:
    from .lattice import LatticeWindow
    from .operators import commutator_check, conjugation_check, symmetry_check
    from .profiles import WeightSpec
    tol = p.tolerance
    spec = WeightSpec.from_rule(p.R, _profile(p.phi), p.d, c_rule=p.c)
    window = LatticeWindow(p.d, p.M)
    report = {}
    try:
        sym = report["symmetry"] = symmetry_check(spec, window, p.trials, p.seed,
                                                  tolerance=tol["symmetry"])
        run.check(True, "symmetry_skewness",
                  f"defects {sym['symmetry']['defect']:.2e} / {sym['skewness']['defect']:.2e}")
    except ToleranceExceededError as e:
        run.check(False, "symmetry_skewness", str(e))
    try:
        com = report["commutator"] = commutator_check(spec, window, p.trials, p.seed,
                                                      rel_tolerance=tol["commutator"])
        run.check(True, "commutator_identity", f"max defect {com['identity']['defect']:.2e}")
    except ToleranceExceededError as e:
        run.check(False, "commutator_identity", str(e))
    conj = report["conjugation"] = conjugation_check(spec, window, p.trials, p.seed)
    run.check(conj["defect_relative"] <= tol["conjugation"],
              "conjugation_identity", f"relative defect {conj['defect_relative']:.2e}")
    run.json(report)


def _run_hiding_scan(p, run) -> None:
    import numpy as np

    from .operators import hiding_sides, minimal_hiding_constant
    phi = _profile(p.phi)
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
    run.tsv(("R", "alpha", "s", "log_lhs", "log_rhs_A", "log_rhs_B"), rows)
    nonincreasing = all(b <= a + 1e-9 for a, b in zip(min_cs, min_cs[1:]))
    run.json({"R_list": list(p.R_list), "min_c": min_cs, "nonincreasing": nonincreasing,
              "sup_d1": phi.sup_d1, "sup_d2": phi.sup_d2})
    detail = f"minimal c per R: {['%.3f' % c for c in min_cs]}"
    if vacuous:
        run.vacuous("hiding_inequalities",
                    f"{detail}: phi has no time derivatives, so there is nothing to absorb")
    elif not all(math.isfinite(c) for c in min_cs):
        run.check(False, "hiding_inequalities", f"{detail} (no c absorbs at some R)")
    elif len(min_cs) < 2:
        run.vacuous("hiding_inequalities",
                    f"{detail}: fewer than two R, so no c is shown to serve larger R")
    else:
        run.check(nonincreasing, "hiding_inequalities",
                  f"{detail} (nonincreasing: {nonincreasing})")


def _run_lambda_scan(p, run) -> None:
    from . import experiments as xp
    from .evolution import normalize_observation
    from .fieldio import read_field
    from .lattice import LatticeField
    cfg = xp.ExperimentConfig(A=p.A, L=p.L, R_list=p.R_list, c_rule=p.c)
    if p.field_from:
        values, window, _ = read_field(p.field_from)
        if values.ndim != window.d:
            raise ConfigError("lambda-scan --field-from wants a single-slice field")
        source = LatticeField(window, values.astype(complex))
    else:
        source = normalize_observation(_evolved(p, (p.datum, p.mu), run))
    scan = xp.lambda_scan(source, cfg)
    rows = [(r.R, r.log_lambda, r.alpha, r.log_lhs_growth, r.pass_absorption, r.boundary_mass)
            for r in scan["rows"]]
    run.tsv(("R", "log_lambda", "alpha", "log_lhs_growth", "pass_absorption",
             "boundary_mass"), rows)
    run.json({k: scan[k] for k in scan if k != "rows"})
    if scan.get("vacuous"):
        run.vacuous("lambda_scan", "fewer than three nonempty rings, nothing to fit")
    else:  # no gate yet: the fits describe the rows but nothing here can fail
        residuals = ", ".join(f"{k}={fit.residual:.3f}" for k, fit in scan["fits"].items())
        run.vacuous("lambda_scan",
                    f"best decay model {scan['best_model']} (RMS log-residuals: {residuals})")


def _run_logconvexity(p, run) -> None:
    from . import experiments as xp
    traj = _evolved(p, ("delta",), run)
    cfg = xp.ExperimentConfig(L=p.L)
    check = xp.log_convexity_check(traj, xp.beta_grid(p.beta_max, p.d), cfg)
    rows = [(",".join(repr(b) for b in r["beta"]), r["t"], r["log_rho"]) for r in check["rows"]]
    run.tsv(("beta", "t", "log_rho"), rows)
    report = {k: check[k] for k in check if k != "rows"}
    if p.L > 0:
        stab = report["stability"] = xp.log_convexity_stability(traj, p.beta_max / 2.0, cfg)
        if stab["vacuous"]:
            run.vacuous("logconvexity", f"C_emp {stab['C_emp_base']:.4f} <= 0: no ratio exceeds "
                        "1, so the 20% beta-doubling gate says nothing")
        else:
            run.check(stab["stable"], "logconvexity",
                      f"C_emp {stab['C_emp_base']:.4f} -> {stab['C_emp_doubled']:.4f} "
                      f"({100 * stab['relative_change']:.1f}% change)")
    else:
        run.check(check["max_rho_minus_one"] <= p.tolerance["logconvexity"], "logconvexity",
                  f"max rho - 1 = {check['max_rho_minus_one']:.3e} (free evolution)")
    run.json(report)


def _run_normstar(p, run) -> None:
    from . import experiments as xp
    report = xp.norm_star_equivalence(p.d, p.j_max)
    run.json(report)
    run.check(math.isfinite(report["c_d"]) and report["inf_ratio"] > 0, "normstar",
              f"d={p.d} sup {report['sup_ratio']:.6f} inf {report['inf_ratio']:.6f} "
              f"c_d {report['c_d']:.6f}")


def _run_kbessel(p, run) -> None:
    from . import experiments as xp
    report = xp.k_bessel_weight_check(p.mu, (5, 10, 20), growth_j=range(20, 201, 10))
    run.json(report)
    run.check(report["max_defect"] < p.tolerance["kbessel"]
              and abs(report["growth_exponent"] - p.mu) <= 0.1 * p.mu, "kbessel",
              f"max identity defect {report['max_defect']:.2e}, "
              f"growth exponent {report['growth_exponent']:.4f} (target {p.mu})")


def _run_threshold_scan(p, run) -> None:
    from .operators import phi_rate_scan
    rows = []
    summary = {}
    for name in ("sqrt_log", "log"):
        scan = phi_rate_scan(name, p.c, p.L, p.d, p.R_list)
        rows += [(name, r["R"], r["alpha"], r["holds"]) for r in scan]
        holds = [r["holds"] for r in scan]
        summary[name] = {
            "holds": holds,
            "first_R_holding": next((r["R"] for r in scan if r["holds"]), None),
            "fails_from": next((r["R"] for i, r in enumerate(scan)
                                if not r["holds"] and not any(holds[i:])), None),
        }
    run.tsv(("profile", "R", "alpha", "holds"), rows)
    run.json({"d": p.d, "c": p.c, "L": p.L, "R_list": list(p.R_list), **summary})
    # no gate yet: the dichotomy is reported, not tested
    run.vacuous("threshold_scan",
                f"sqrt_log fails from R={summary['sqrt_log']['fails_from']}, "
                f"log holds from R={summary['log']['first_R_holding']}")


def _run_counterexample(p, run) -> None:
    from . import counterexample as ce
    from .fieldio import write_field
    R, margin, mode = p.R, p.margin, p.mode
    spec = ce.CounterexampleSpec(R=R, margin=margin, value_mode=mode)
    u, V = ce.build_counterexample(spec)
    report = ce.verify_counterexample(u, V, spec)
    run.stem = f"counterexample_R{R}_{mode}"
    run.add(*write_field(run.path(".bin"), u.to_lattice_field(),
                         metadata={"R": R, "margin": margin, "mode": mode,
                                   "kind": "counterexample"}))
    run.json(u.exact_sidecar(), "_exact.json")
    run.json(report, "_report.json")
    text = [f"counterexample R={R} mode={mode} margin={margin}"]
    for key in ("vanishing_diamond", "diamond_harmonic", "equation_everywhere",
                "l2_tail_certificate", "origin_is_one"):
        ok = report[key]["pass"]
        text.append(f"  {'PASS' if ok else 'FAIL'} {key}")
        if key == "diamond_harmonic" and not ok:
            for site, resid in report[key]["residuals"].items():
                text.append(f"    residual at ({site}): {resid}")
    text.append(f"  sup|V| = {report['sup_V']} ({report['sup_V_float']:.6g})")
    txt = run.path("_report.txt")
    txt.write_text("\n".join(text) + "\n")
    run.add(txt)
    detail = f"mode={mode}, sup|V|={report['sup_V_float']:.4g}"
    if not report["pass"]:
        detail += f", exact residuals at {report['diamond_harmonic']['residual_sites']}"
    run.check(report["pass"], "counterexample", detail)


def _run_verify_counterexample(p, run) -> None:
    import numpy as np

    from . import counterexample as ce
    from .fieldio import read_field
    values, window, meta = read_field(p.field_from)
    if not (isinstance(meta, dict) and meta.get("kind") == "counterexample" and "mode" in meta
            and all(isinstance(meta.get(k), int) for k in ("R", "margin"))):
        raise ConfigError(f"{p.field_from} does not carry counterexample metadata")
    spec = ce.CounterexampleSpec(R=meta["R"], margin=meta["margin"], value_mode=meta["mode"])
    u, V = ce.build_counterexample(spec)
    report = ce.verify_counterexample(u, V, spec)
    file_matches = bool(np.array_equal(u.to_lattice_field().values, values))
    report["file_matches_exact_rebuild"] = file_matches
    run.json(report)
    run.check(report["pass"] and file_matches, "verify_counterexample",
              f"exact checks {'pass' if report['pass'] else 'fail'}, "
              f"file matches rebuild: {file_matches}")


def _run_potential_scan(p, run) -> None:
    from . import counterexample as ce
    report = ce.potential_bound_scan([int(r) for r in p.R_list], margin=p.margin,
                                     value_mode=p.mode)
    run.json(report)
    sup = f"sup|V| = {report['sup_float']:.6g}"
    if len(report["sup_by_R"]) < 2:
        run.vacuous("potential_bound", f"{sup}, fewer than two R, so exact equality cannot fail")
    else:
        run.check(report["identical_across_R"], "potential_bound",
                  f"{sup}, exact-equal across R: {report['identical_across_R']}")


def _run_report(p, run) -> None:
    listing, missing = [], 0
    for path in sorted(run.out.glob("manifest_*.json")):
        doc = json.loads(path.read_text())
        if not (isinstance(doc, dict) and {"subcommand", "seed"} <= doc.keys()
                and isinstance(doc.get("outputs"), list)
                and isinstance(doc.get("verdicts", []), list)
                and all(isinstance(name, str) for name in doc["outputs"])):
            raise ConfigError(f"{path} is not a run manifest")
        listing += [f"{doc['subcommand']} seed={doc['seed']} ({path.name})",
                    *(f"  {verdict}" for verdict in doc.get("verdicts", []))]
        for name in doc["outputs"]:
            present = (run.out / name).exists()
            listing.append(f"  {name}: {'present' if present else 'MISSING'}")
            missing += not present
    if not listing:
        run.vacuous("outputs_present", f"no manifests under {run.out}")
    else:
        print("\n".join(listing))
        run.check(not missing, "outputs_present", f"{missing} listed outputs missing")


# subcommand -> (help, parameter table, tolerance defaults, body)
_SUBCOMMANDS = {
    "evolve": ("integrate a datum and export the trajectory",
               {**_RUN, **_evolution_params(34, 10), **_DATUM}, {}, _run_evolve),
    "carleman-check": (
        "empirical weighted-inequality constant: calibration batch + held-out batch",
        {**_RUN, "d": _D, "R": (10.0, float, "weight radius"),
         "c": (2.0, float, "constant in the alpha = c R log R rule"),
         "M": (_Derived("int(2R)+2", lambda p: int(2 * p["R"]) + 2), int,
               "window half-width"),
         "alpha": (_Derived("c R log R", lambda p: p["c"] * p["R"] * math.log(p["R"])),
                   _positive(float), "weight strength, > 0"),
         "trials": (500, _positive(int), "trials per batch, >= 1"),
         "phi": ("zero", _PHI, "time profile")}, {}, _run_carleman_check),
    "commutator-check": (
        "operator identities: symmetry/skewness, commutator closed form, conjugation oracle",
        {**_RUN, "d": _D, "R": (10.0, float, "weight radius"),
         "c": (2.0, float, "constant in the alpha = c R log R rule"),
         "M": (_Derived("int(R)+4", lambda p: int(p["R"]) + 4), int, "window half-width"),
         "trials": (50, _positive(int), "trials per check, >= 1"),
         "phi": ("paper", _PHI, "time profile")},
        {"symmetry": 1e-9, "commutator": 1e-8, "conjugation": 1e-9}, _run_commutator_check),
    "hiding-scan": (
        "minimal absorption constant per R; TSV columns: R alpha s log_lhs log_rhs_A log_rhs_B",
        {**_RUN, "d": _D,
         "R_list": ((10.0, 20.0, 40.0, 80.0), _parse_r_list, "comma list or lo..hi[..step]"),
         "grid_points": (200, int, "points of the s grid"),
         "s_max": (5.0, float, "s grid runs over [1, s_max]"),
         "phi": ("paper", _PHI, "time profile")}, {}, _run_hiding_scan),
    "lambda-scan": (
        "ring-mass decay rows; TSV columns: "
        "R log_lambda alpha log_lhs_growth pass_absorption boundary_mass",
        {**_RUN, **_evolution_params(34, 5), **_DATUM,
         "R_list": (_parse_r_list("8..28"), _parse_r_list, "comma list or lo..hi[..step]"),
         "A": (1.0, float, "trajectory l2 bound"),
         "c": (2.0, float, "constant in the alpha = c R log R rule"),
         "field_from": (None, str, "stationary scan of an exported binary field "
                                   "in place of an evolution")}, {}, _run_lambda_scan),
    "logconvexity": ("two-endpoint weighted ratios; TSV columns: beta t log_rho",
                     {**_RUN, **_evolution_params(48, 10),
                      "beta_max": (2.0, float, "largest |beta| of the grid")},
                     {"logconvexity": 1e-10}, _run_logconvexity),
    "normstar": ("norm-equivalence ratio scan",
                 {**_RUN, "d": (2, int, "lattice dimension"),
                  "j_max": (10_000, int, "largest coordinate scanned")}, {}, _run_normstar),
    "kbessel": ("weighted cosh-kernel identity and growth fit",
                {**_RUN, "mu": (1.0, float, "decay rate")}, {"kbessel": 1e-8}, _run_kbessel),
    "threshold-scan": (
        "absorption threshold under alpha = c R phi(R); TSV columns: profile R alpha holds",
        {**_RUN, "d": (2, int, "lattice dimension"),
         "c": (1.0, float, "constant in the alpha = c R phi(R) rule"),
         "L": (1.0, float, "potential sup bound"),
         "R_list": (tuple(float(10**k) for k in range(2, 7)), _parse_r_list,
                    "comma list or lo..hi[..step]")}, {}, _run_threshold_scan),
    "counterexample": (
        "build + exactly verify the vanishing-diamond field",
        {**_RUN, "R": (20, lambda v: int(float(v)), "diamond radius (integer part)"),
         "margin": (_Derived("max(60,R)", lambda p: max(60, p["R"])), int,
                    "window margin beyond the diamond"),
         "mode": ("repaired", _choice("repaired", "literal_paper"), "value mode")}, {},
        _run_counterexample),
    "verify-counterexample": ("re-verify an exported counterexample field",
                              {**_RUN, "field_from": (_required("--field-from"), str,
                                                      "exported counterexample field")}, {},
                              _run_verify_counterexample),
    "potential-scan": (
        "exact sup|V| across R",
        {**_RUN, "R_list": ((10.0, 20.0, 40.0), _parse_integer_r_list,
                            "comma list or lo..hi[..step]"),
         "margin": (None, int, "window margin for every R (None: max(60,R) per R)"),
         "mode": ("repaired", _choice("repaired", "literal_paper"), "value mode")}, {},
        _run_potential_scan),
    "report": ("summarize manifests and reports in --out", _OUT, {}, _run_report),
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
    for name, (text, params, tolerances, _) in _SUBCOMMANDS.items():
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
    _, params, tol_defaults, _ = _SUBCOMMANDS[subcommand]
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as e:
        return 0 if e.code == 0 else 2
    subcommand = args.pop("subcommand")
    try:
        params = _resolve(subcommand, args)
        from .reports import RunManifest
        run = RunManifest(subcommand, params)
        run.out.mkdir(parents=True, exist_ok=True)
        _SUBCOMMANDS[subcommand][-1](SimpleNamespace(**params), run)
        if subcommand != "report":
            run.write()
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
    for line in run.verdicts:
        print(line)
    return 1 if run.failed else 0


if __name__ == "__main__":
    sys.exit(main())
