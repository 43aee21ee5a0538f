"""The four benchmark jobs, driven through the toolkit's public library calls.

Each job makes the same library calls as the matching CLI subcommands
(``carleman.cli.main`` itself is not called).  A job wraps every call into a
toolkit layer in a span named ``<layer>.<call>``, checks its outputs against
physical oracles and against reference values recorded with the benchmark,
and returns its exact work counts; a workload's counts are the sums over its
jobs.

Layers and the calls their spans wrap (``run.py`` turns spans into metrics):

    evolution       evolve, normalize_observation
    fieldio         write_trajectory / write_field, read_field
    experiments     lambda_scan, log_convexity_*, weighted_uniqueness_threshold
    counterexample  build_counterexample, verify_counterexample, potential_bound_scan
    operators       carleman_constant_batch, identity checks, minimal_hiding_constant
    bessel          k_bessel_weight_check
"""

from __future__ import annotations

import math
import shutil

import numpy as np

from carleman import counterexample as ce
from carleman import experiments as xp
from carleman.bessel import bessel_j
from carleman.errors import ToleranceExceededError
from carleman.evolution import (EvolutionConfig, evolve, make_decaying_datum,
                                normalize_observation)
from carleman.fieldio import read_field, write_field, write_trajectory
from carleman.lattice import LatticeWindow, Potential
from carleman.operators import (carleman_constant_batch, commutator_check,
                                conjugation_check, minimal_hiding_constant,
                                symmetry_check)
from carleman.profiles import TimeProfile, WeightSpec

# The benchmark's workloads: one job of a workload runs these jobs in turn.
# Two workloads of two jobs, not four of one, so that the runs the benchmark's
# time budget allows are long enough (50 s) to average over the host's speed
# swings of 10-30 s; every layer is still called by one of them.
WORKLOADS = {"evolve-sweep-d2": ("evolve-d2", "sweep-d2"),
             "exact-z2-d1-suite": ("exact-z2", "d1-suite")}

# Job sizes.  "full" is what the benchmark measures; "tiny" keeps every call
# and every check but shrinks the inputs, for the self-test.  A full job takes
# about 1.5-2 s on a 2-vCPU VM, so a 50 s run holds a dozen workload jobs or
# more.
PARAMS = {
    "full": {
        "evolve-d2": {"M": 64, "dt": 1e-2, "store_every": 1, "R_list": tuple(range(8, 29))},
        "sweep-d2": {"M": 24, "dt": 1e-2, "beta_max": 2.0, "R_list": tuple(range(8, 21))},
        "exact-z2": {"R": 20, "margin": 20, "literal_R": 8, "literal_margin": 8,
                     "scan_R": (10, 20, 30), "scan_margin": 30},
        "d1-suite": {"M": 128, "dt": 1e-4, "carleman_trials": 100, "identity_trials": 50,
                     "hiding_R": (10.0, 20.0, 40.0, 80.0)},
    },
    "tiny": {
        "evolve-d2": {"M": 16, "dt": 1e-2, "store_every": 5, "R_list": tuple(range(8, 13))},
        "sweep-d2": {"M": 16, "dt": 1e-2, "beta_max": 2.0, "R_list": tuple(range(8, 13))},
        "exact-z2": {"R": 8, "margin": 8, "literal_R": 8, "literal_margin": 8,
                     "scan_R": (8, 10), "scan_margin": 10},
        "d1-suite": {"M": 40, "dt": 5e-4, "carleman_trials": 10, "identity_trials": 3,
                     "hiding_R": (10.0, 20.0)},
    },
}

NORM_DRIFT_MAX = 1e-10
PROPAGATOR_ERR_MAX = 1e-6
KBESSEL_DEFECT_MAX = 1e-8
IDENTITY_TOL = {"symmetry": 1e-9, "commutator": 1e-8, "conjugation": 1e-9}
KBESSEL_J = (5, 10, 20)
KBESSEL_GROWTH_J = tuple(range(20, 201, 10))
BYTES_PER_SITE = 16  # one complex128 value


def _alternating_cfg(M: int, dt: float, store_every: int):
    window = LatticeWindow(2, M)
    return window, EvolutionConfig(dt=dt, T=1.0, window=window,
                                   potential=Potential.alternating(window, amplitude=1.0),
                                   store_every=store_every)


def _evolve(ctx, datum, cfg):
    with ctx.span("evolution.evolve"):
        traj = evolve(datum, cfg)
    ctx.check("norm_drift", traj.norm_drift() < NORM_DRIFT_MAX)
    return traj


def _evolution_counts(traj, cfg) -> dict:
    sites = cfg.window.site_count
    return {"site_steps": cfg.n_steps * sites,
            "stored_mb": traj.n_stored * sites * BYTES_PER_SITE / 1e6}


def _lambda_scan(ctx, source, R_list, **cfg_kw) -> dict:
    cfg = xp.ExperimentConfig(R_list=R_list, **cfg_kw)
    with ctx.span("experiments.lambda_scan"):
        scan = xp.lambda_scan(source, cfg)
    ctx.check("lambda_scan.fitted", "fits" in scan)
    for row in scan["rows"]:
        ctx.ref_float(f"lambda_scan.log_lambda.R{row.R:g}", row.log_lambda)
    for tag, fit in sorted(scan.get("fits", {}).items()):
        ctx.ref_float(f"lambda_scan.fit.{tag}", fit.exponent_constant)
    ctx.ref_exact("lambda_scan.best_model", scan.get("best_model"))
    ctx.check("lambda_scan.lower_bound_rows", all(scan.get("lower_bound_holds_per_row", [False])))
    return scan


def _files_size(paths) -> tuple:
    return len(paths), sum(p.stat().st_size for p in paths)


def evolve_d2(ctx, p) -> dict:
    """evolve -> write_trajectory -> normalize_observation -> lambda_scan."""
    window, cfg = _alternating_cfg(p["M"], p["dt"], p["store_every"])
    datum = make_decaying_datum(window, ("delta",))
    traj = _evolve(ctx, datum, cfg)
    out = ctx.job_dir()
    try:
        with ctx.span("fieldio.write"):
            written = write_trajectory(out, traj)
        n_files, n_bytes = _files_size(written)
        last = out / f"trajectory_{traj.n_stored - 1:05d}.bin"
        with ctx.span("fieldio.read"):
            values, _, meta = read_field(last)
        ctx.check("fieldio.roundtrip", np.array_equal(values, traj.values[-1])
                  and meta.get("t") == float(traj.times[-1]))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    ctx.check("fieldio.files", n_files == 2 * traj.n_stored + 1)
    with ctx.span("evolution.normalize"):
        normed = normalize_observation(traj)
    ctx.ref_float("normalize.scale_log", normed.scale_log)
    scan = _lambda_scan(ctx, normed, p["R_list"])
    return {**_evolution_counts(traj, cfg), "files_written": n_files, "bytes_written": n_bytes,
            "ring_evals": len(scan["rows"]) * normed.n_stored}


def sweep_d2(ctx, p) -> dict:
    """log_convexity_check + stability, then lambda_scan and the weighted
    uniqueness threshold on the normalized trajectory."""
    window, cfg = _alternating_cfg(p["M"], p["dt"], 1)
    datum = make_decaying_datum(window, ("bessel_like", 1.0))
    traj = _evolve(ctx, datum, cfg)
    xcfg = xp.ExperimentConfig(L=1.0)
    beta_max = p["beta_max"]
    grid = xp.beta_grid(beta_max, 2)
    with ctx.span("experiments.logconv"):
        check = xp.log_convexity_check(traj, grid, xcfg)
        stab = xp.log_convexity_stability(traj, beta_max / 2.0, xcfg)
    ctx.ref_float("logconv.max_log_rho", check["max_log_rho"])
    ctx.ref_float("logconv.C_emp_base", stab["C_emp_base"])
    ctx.ref_float("logconv.C_emp_doubled", stab["C_emp_doubled"])
    ctx.ref_exact("logconv.stable", stab["stable"])
    n_times = len({r["t"] for r in check["rows"]})
    pairs = len(check["rows"]) + 2 * len(xp.beta_grid(beta_max / 2.0, 2)) * n_times
    with ctx.span("evolution.normalize"):
        normed = normalize_observation(traj)
    ctx.ref_float("normalize.scale_log", normed.scale_log)
    scan = _lambda_scan(ctx, normed, p["R_list"], L=1.0)
    tcfg = xp.ExperimentConfig(L=1.0, mu=1.0, R_list=p["R_list"])
    with ctx.span("experiments.threshold"):
        thr = xp.weighted_uniqueness_threshold(normed, tcfg)
    ctx.ref_float("threshold.c_low_fit", thr["c_low_fit"])
    ctx.ref_float("threshold.c0_emp", thr["c0_emp"])
    ctx.ref_float("threshold.critical_ratio", thr["critical_ratio"])
    return {**_evolution_counts(traj, cfg), "ring_evals": len(scan["rows"]) * normed.n_stored,
            "beta_time_pairs": pairs}


def _square_sites(half_width: int) -> int:
    return (2 * half_width + 1) ** 2


def exact_z2(ctx, p) -> dict:
    """Repaired build/verify/export, the literal-paper residuals, and the
    exact sup|V| scan across R."""
    spec = ce.CounterexampleSpec(R=p["R"], margin=p["margin"], value_mode="repaired")
    with ctx.span("counterexample.build"):
        u, V = ce.build_counterexample(spec)
    with ctx.span("counterexample.verify"):
        report = ce.verify_counterexample(u, V, spec)
    ctx.check("repaired.pass", report["pass"])
    ctx.ref_exact("repaired.sup_V", report["sup_V"])
    ctx.ref_exact("repaired.sidecar", u.exact_sidecar())
    field = u.to_lattice_field()
    out = ctx.job_dir()
    try:
        with ctx.span("fieldio.write"):
            written = write_field(out / "counterexample.bin", field,
                                  metadata={"R": spec.R, "margin": spec.margin,
                                            "mode": spec.value_mode, "kind": "counterexample"})
        n_files, n_bytes = _files_size(written)
        with ctx.span("fieldio.read"):
            values, _, meta = read_field(written[0])
        ctx.check("fieldio.roundtrip", np.array_equal(values, field.values)
                  and meta.get("kind") == "counterexample")
    finally:
        shutil.rmtree(out, ignore_errors=True)

    R8 = p["literal_R"]
    lspec = ce.CounterexampleSpec(R=R8, margin=p["literal_margin"], value_mode="literal_paper")
    with ctx.span("counterexample.build"):
        lu, lV = ce.build_counterexample(lspec)
    with ctx.span("counterexample.verify"):
        lrep = ce.verify_counterexample(lu, lV, lspec)
    expected = {(0, R8 - 2), (0, R8 + 2), (-2, R8), (2, R8)}
    found = {tuple(s) for s in lrep["diamond_harmonic"]["residual_sites"]}
    ctx.check("literal.fails", not lrep["pass"])
    ctx.check("literal.residual_sites", found == expected)
    ctx.ref_exact("literal.residuals", lrep["diamond_harmonic"]["residuals"])

    with ctx.span("counterexample.potential_scan"):
        scan = ce.potential_bound_scan(p["scan_R"], margin=p["scan_margin"])
    ctx.check("potential_scan.identical", scan["identical_across_R"])
    ctx.check("potential_scan.matches_build",
              set(scan["sup_by_R"].values()) == {report["sup_V"]})
    ctx.ref_exact("potential_scan.sup_by_R", scan["sup_by_R"])

    sites = (2 * _square_sites(spec.half_width) + 2 * _square_sites(lspec.half_width)
             + sum(_square_sites(R + p["scan_margin"]) for R in p["scan_R"]))
    return {"files_written": n_files, "bytes_written": n_bytes, "sites_exact": sites}


def d1_suite(ctx, p) -> dict:
    """Free d=1 propagator, Carleman calibration + hold-out, the operator
    identities, the K-Bessel weight identity and the hiding scan."""
    window = LatticeWindow(1, p["M"])
    n_steps = round(1.0 / p["dt"])
    cfg = EvolutionConfig(dt=p["dt"], T=1.0, window=window, potential=Potential.zero(window),
                          store_every=n_steps)
    traj = _evolve(ctx, make_decaying_datum(window, ("delta",)), cfg)
    j = window.axes
    near = np.abs(j) <= 20
    exact = np.exp(-2.0j) * (1j) ** j[near] * np.array([bessel_j(int(k), 2.0) for k in j[near]])
    ctx.check("propagator", float(np.max(np.abs(traj.values[-1][near] - exact)))
              <= PROPAGATOR_ERR_MAX)

    seed = ctx.seed
    R = 10.0
    spec = WeightSpec.from_rule(R, TimeProfile.zero(), 1, c_rule=2.0)
    cwin = LatticeWindow(1, int(2 * R) + 2)
    trials = p["carleman_trials"]
    with ctx.span("operators.carleman_batch"):
        cal = carleman_constant_batch(spec, cwin, trials, seed)
        held = carleman_constant_batch(spec, cwin, trials, seed + 1)
    bound = 2.0 * cal["c_emp"]
    ctx.check("carleman.holdout", sum(1 for r in held["ratios"] if r > bound) == 0)

    ispec = WeightSpec.from_rule(R, TimeProfile.paper(), 1, c_rule=2.0)
    iwin = LatticeWindow(1, int(R) + 4)
    itrials = p["identity_trials"]
    with ctx.span("operators.identity_checks"):
        try:
            symmetry_check(ispec, iwin, itrials, seed, tolerance=IDENTITY_TOL["symmetry"])
            sym_ok = True
        except ToleranceExceededError:
            sym_ok = False
        try:
            commutator_check(ispec, iwin, itrials, seed,
                             rel_tolerance=IDENTITY_TOL["commutator"])
            com_ok = True
        except ToleranceExceededError:
            com_ok = False
        conj = conjugation_check(ispec, iwin, itrials, seed)
    ctx.check("identity.symmetry", sym_ok)
    ctx.check("identity.commutator", com_ok)
    ctx.check("identity.conjugation", conj["defect_relative"] <= IDENTITY_TOL["conjugation"])

    with ctx.span("bessel.kbessel_check"):
        kb = xp.k_bessel_weight_check(1.0, KBESSEL_J, growth_j=KBESSEL_GROWTH_J)
    ctx.check("kbessel.defect", kb["max_defect"] < KBESSEL_DEFECT_MAX)
    ctx.check("kbessel.growth", abs(kb["growth_exponent"] - 1.0) <= 0.1)
    ctx.ref_float("kbessel.growth_exponent", kb["growth_exponent"])

    phi = TimeProfile.paper()
    s_grid = np.linspace(1.0, 5.0, 200)
    with ctx.span("operators.hiding_scan"):
        min_cs = [minimal_hiding_constant(1, r, phi, s_grid)["min_c"] for r in p["hiding_R"]]
    ctx.check("hiding.finite", all(math.isfinite(c) for c in min_cs))
    for r, c in zip(p["hiding_R"], min_cs):
        ctx.ref_float(f"hiding.min_c.R{r:g}", c)
    return {**_evolution_counts(traj, cfg), "trials": 2 * trials,
            "k_evals": len(KBESSEL_J) + len(KBESSEL_GROWTH_J)}


JOBS = {"evolve-d2": evolve_d2, "sweep-d2": sweep_d2, "exact-z2": exact_z2,
        "d1-suite": d1_suite}
