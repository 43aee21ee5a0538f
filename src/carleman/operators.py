"""Conjugated evolution operators S and A, their identities, and the
weighted-inequality machinery.

Conventions: a space-time field has shape (..., T, *window.shape).  The d
lattice axes trail, the T Gauss-Legendre time nodes over [0,1] sit on axis
-(d+1), and any axes before that index trials.  Every routine addresses axes
from the end and sums over the trailing ones, so one field is simply a batch
with no leading axis and a batch runs through the same code.  The batch checks
(carleman_constant_batch, symmetry_check, commutator_check, conjugation_check)
draw their trials in blocks of at most BLOCK_VALUES entries per field array,
which bounds memory whatever the trial count.  Trial t still draws from its own
default_rng((seed, t)), so neither the trial fields nor the Carleman ratios
depend on the block a trial falls in; the identity-check defects, which are
rounding residuals, can move in their last bits with it, because numpy
evaluates a large temporary in place through a differently rounding loop.
Time factors of test functions are polynomials, so every time derivative used
by operator composition is closed-form.

Numerical scale: with alpha = c R log R the hopping coefficients
cosh/sinh((2 alpha/R)((j_k +- 1/2)/R + phi)) reach e^40 and beyond.  Those
magnitudes are representable, but two consequences shape this module:

* (S + A) collapses hop coefficients to e^{-b} and e^{+b}; forming it as
  Sf + Af in floats would lose the e^{-b} side to cancellation, so the
  combined operator is applied with the collapsed exponentials directly.
* Symmetry/skew defects are assembled bond by bond, where the coefficient
  pairing cosh(b^+_{j,k}) == cosh(b^-_{j+e_k,k}) that makes S symmetric holds
  bit-exactly; a formula error shows up at full coefficient scale while the
  correct operator is not drowned by magnitude-amplified roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import NonFiniteError, SupportViolationError, ToleranceExceededError
from .lattice import LatticeWindow, laplacian_values, shifted, weighted_log_norm
from .logscalar import NEG_INF, log_cosh, log_sinh
from .profiles import TimeProfile, WeightSpec, _glue, sinh_factor_log, weight_log_magnitude
from .quadrature import QuadratureRule, gauss_legendre

# Entries of one (trials, T, *window.shape) field array in a block of trials:
# 256 KiB of complex values, whatever the dimension and window.
BLOCK_VALUES = 1 << 14

_BUMP = np.array([0.0, 0.0, 1.0, -2.0, 1.0])  # t^2 (1-t)^2


def make_time_grid(n_nodes: int = 24) -> QuadratureRule:
    return gauss_legendre(n_nodes, 0.0, 1.0)


def _integral(grid: QuadratureRule, d: int, density: np.ndarray):
    """Time quadrature of the site sum of a (..., T, *window.shape) density.

    Both sums run along trailing axes, row by row, so a trial in a batch gets
    exactly the value it would get on its own.
    """
    per_node = np.sum(density, axis=tuple(range(-d, 0)))
    return np.sum(per_node * grid.weights, axis=-1)[()]


@dataclass
class SpaceTimeField:
    """Complex field on (trials...) x (time nodes) x (window sites) with its
    closed-form first time derivative where available."""

    window: LatticeWindow
    grid: QuadratureRule
    values: np.ndarray
    dvalues: np.ndarray | None = None

    def norm_sq(self):
        return _integral(self.grid, self.window.d, np.abs(self.values) ** 2)

    def norm(self):
        return np.sqrt(self.norm_sq())


def inner(F: SpaceTimeField, G: SpaceTimeField):
    """Time-quadrature of the ell^2 pairing sum_j F_j conj(G_j)."""
    return _integral(F.grid, F.window.d, F.values * np.conj(G.values))


class OperatorCoefficients:
    """All t- and site-dependent coefficient arrays for one (spec, window, grid).

    Shapes broadcast as (T, *window.shape), so they broadcast against any
    leading trial axes too; axis k of the lattice is ndarray axis k - d.
    b^+-_k is (2 alpha/R)((j_k +- 1/2)/R + phi(t) delta_{1k}).
    """

    def __init__(self, spec: WeightSpec, window: LatticeWindow, grid: QuadratureRule):
        if spec.d != window.d:
            raise ValueError("spec dimension != window dimension")
        self.spec = spec
        self.window = window
        self.grid = grid
        d = window.d
        t = grid.nodes
        tshape = (len(t),) + (1,) * d
        self.phi_t = np.asarray(spec.phi.value(t)).reshape(tshape)
        self.phi_d1 = np.asarray(spec.phi.d1(t)).reshape(tshape)
        self.phi_d2 = np.asarray(spec.phi.d2(t)).reshape(tshape)
        scale = 2.0 * spec.alpha / spec.R
        self.bp, self.bm, self.a0 = [], [], []
        for k in range(d):
            jk = window.coordinate(k).astype(float)[np.newaxis, ...]
            phi_k = self.phi_t if k == 0 else 0.0
            self.bp.append(scale * ((jk + 0.5) / spec.R + phi_k))
            self.bm.append(scale * ((jk - 0.5) / spec.R + phi_k))
            self.a0.append(scale * (jk / spec.R + phi_k))
        j1 = window.coordinate(0).astype(float)[np.newaxis, ...]
        x1 = j1 / spec.R + self.phi_t
        self.theta = 2.0 * spec.alpha * x1 * self.phi_d1
        self.theta_dot = 2.0 * spec.alpha * (x1 * self.phi_d2 + self.phi_d1**2)
        self.b_dot = scale * self.phi_d1  # d/dt of b^+-_0; zero for k >= 1

    def spatial_axis(self, k: int) -> int:
        return k - self.window.d


def apply_s(F: SpaceTimeField, co: OperatorCoefficients) -> SpaceTimeField:
    """Sf = i d_t f - 2d f + sum_k cosh(b+_k) f_{j+e_k} + cosh(b-_k) f_{j-e_k}."""
    if F.dvalues is None:
        raise ValueError("apply_s needs closed-form time derivatives on the input")
    d = co.window.d
    vals = 1j * F.dvalues - (2.0 * d) * F.values
    for k in range(d):
        ax = co.spatial_axis(k)
        vals = vals + np.cosh(co.bp[k]) * shifted(F.values, ax, +1)
        vals = vals + np.cosh(co.bm[k]) * shifted(F.values, ax, -1)
    return SpaceTimeField(F.window, F.grid, vals)


def apply_a(F: SpaceTimeField, co: OperatorCoefficients, want_derivative: bool = False) -> SpaceTimeField:
    """Af = -2i alpha (j_1/R + phi) phi' f - sum_k sinh(b+_k) f_{j+e_k} + sinh(b-_k) f_{j-e_k}."""
    d = co.window.d
    vals = -1j * co.theta * F.values
    for k in range(d):
        ax = co.spatial_axis(k)
        vals = vals - np.sinh(co.bp[k]) * shifted(F.values, ax, +1)
        vals = vals + np.sinh(co.bm[k]) * shifted(F.values, ax, -1)
    dvals = None
    if want_derivative:
        if F.dvalues is None:
            raise ValueError("derivative of Af needs first derivatives of f")
        dvals = -1j * (co.theta_dot * F.values + co.theta * F.dvalues)
        for k in range(d):
            ax = co.spatial_axis(k)
            dvals = dvals - np.sinh(co.bp[k]) * shifted(F.dvalues, ax, +1)
            dvals = dvals + np.sinh(co.bm[k]) * shifted(F.dvalues, ax, -1)
            if k == 0:
                dvals = dvals - co.b_dot * np.cosh(co.bp[k]) * shifted(F.values, ax, +1)
                dvals = dvals + co.b_dot * np.cosh(co.bm[k]) * shifted(F.values, ax, -1)
    return SpaceTimeField(F.window, F.grid, vals, dvals)


def apply_s_plus_a(F: SpaceTimeField, co: OperatorCoefficients) -> SpaceTimeField:
    """(S+A)f with the hop coefficients collapsed to e^{-b+} and e^{+b-}.

    Algebraically identical to apply_s + apply_a; numerically it preserves the
    exponentially small e^{-b} couplings that float subtraction of cosh and
    sinh would destroy.
    """
    if F.dvalues is None:
        raise ValueError("apply_s_plus_a needs time derivatives on the input")
    d = co.window.d
    if any(np.max(co.bm[k]) > 700 for k in range(d)):
        raise NonFiniteError("collapsed hop coefficient overflows float range")
    vals = 1j * F.dvalues - 1j * co.theta * F.values - (2.0 * d) * F.values
    for k in range(d):
        ax = co.spatial_axis(k)
        vals = vals + np.exp(-co.bp[k]) * shifted(F.values, ax, +1)
        vals = vals + np.exp(co.bm[k]) * shifted(F.values, ax, -1)
    return SpaceTimeField(F.window, F.grid, vals)


def conjugation_oracle(F: SpaceTimeField, spec: WeightSpec) -> SpaceTimeField:
    """e^W (i d_t + Delta_d)(e^{-W} f) evaluated pointwise in the log domain.

    W differences between neighbors are taken in extended precision on an
    enlarged window, so the oracle's route to the hop exponents
    W_j - W_{j +- e_k} is independent of the half-shift formula under test.
    """
    window, grid = F.window, F.grid
    d, M = window.d, window.M
    t = grid.nodes
    phi_t = np.asarray(spec.phi.value(t), dtype=np.longdouble).reshape((len(t),) + (1,) * d)
    phi_d1 = np.asarray(spec.phi.d1(t), dtype=np.longdouble).reshape((len(t),) + (1,) * d)
    ext_axes = np.arange(-(M + 1), M + 2, dtype=np.longdouble)
    alpha = np.longdouble(spec.alpha)
    R = np.longdouble(spec.R)
    W_ext = np.zeros((len(t),) + (2 * M + 3,) * d, dtype=np.longdouble)
    for k in range(d):
        shape = [1] * (d + 1)
        shape[1 + k] = 2 * M + 3
        coord = ext_axes.reshape(shape)
        moved = coord / R + (phi_t if k == 0 else np.longdouble(0.0))
        W_ext = W_ext + moved**2
    W_ext = alpha * W_ext
    core = (slice(None),) + (slice(1, -1),) * d
    W = W_ext[core]
    j1 = window.coordinate(0).astype(np.longdouble)[np.newaxis, ...]
    w_dot = 2.0 * alpha * (j1 / R + phi_t) * phi_d1

    vals_ld = F.values.astype(np.clongdouble)
    dvals_ld = F.dvalues.astype(np.clongdouble)
    out = 1j * dvals_ld - 1j * w_dot * vals_ld - (2.0 * d) * vals_ld
    for k in range(d):
        sl_plus = list(core)
        sl_plus[1 + k] = slice(2, None)
        sl_minus = list(core)
        sl_minus[1 + k] = slice(None, -2)
        delta_plus = W - W_ext[tuple(sl_plus)]
        delta_minus = W - W_ext[tuple(sl_minus)]
        out = out + np.exp(delta_plus) * shifted(vals_ld, k - d, +1)
        out = out + np.exp(delta_minus) * shifted(vals_ld, k - d, -1)
    return SpaceTimeField(window, grid, out.astype(complex))


def symmetry_defects(f: SpaceTimeField, g: SpaceTimeField, co: OperatorCoefficients) -> tuple:
    """(symmetric defect of S, skew defect of A), normalized by ||f|| ||g||.

    Bond-grouped assembly: the hop contribution is
        (cosh b+_k(j) - cosh b-_k(j+e_k)) * (f_{j+e_k} g*_j - f_j g*_{j+e_k})
    summed over bonds, which is the exact regrouping of <Sf,g> - <f,Sg>; the
    analogous sinh expression covers <Af,g> + <f,Ag>.  The remaining S part is
    the time boundary term i int (sum_j f g*)' dt, quadrature-exact for
    polynomial time factors.  Diagonal terms cancel identically and are
    omitted.
    """
    d = co.window.d
    grid = f.grid
    node_sites = (len(grid.nodes),) + co.window.shape
    conj_g = np.conj(g.values)
    sym = 0.0 + 0.0j
    skew = 0.0 + 0.0j
    for k in range(d):
        lo = (...,) + tuple(slice(None, -1) if i == k else slice(None) for i in range(d))
        hi = (...,) + tuple(slice(1, None) if i == k else slice(None) for i in range(d))
        cross_fg = f.values[hi] * conj_g[lo]  # f_{j+e_k} g*_j
        cross_gf = f.values[lo] * conj_g[hi]  # f_j g*_{j+e_k}
        bp_lo = np.broadcast_to(co.bp[k], node_sites)[lo]
        bm_hi = np.broadcast_to(co.bm[k], node_sites)[hi]
        sym_bond = (np.cosh(bp_lo) - np.cosh(bm_hi)) * (cross_fg - cross_gf)
        skew_bond = (np.sinh(bm_hi) - np.sinh(bp_lo)) * (cross_gf + cross_fg)
        sym = sym + _integral(grid, d, sym_bond)
        skew = skew + _integral(grid, d, skew_bond)
    # i * int (d/dt sum_j f g*) dt : the only non-cancelling S contribution
    ddt = f.dvalues * conj_g + f.values * np.conj(g.dvalues)
    sym = sym + 1j * _integral(grid, d, ddt)
    scale = f.norm() * g.norm()
    vanishes = scale == 0.0
    scale = np.where(vanishes, 1.0, scale)
    return (np.where(vanishes, 0.0, np.abs(sym) / scale)[()],
            np.where(vanishes, 0.0, np.abs(skew) / scale)[()])


def commutator_quadratic_form(f: SpaceTimeField, co: OperatorCoefficients):
    """The four-term closed form of <[S,A]f, f> (time-integrated).

    With phi constant the last two terms vanish and the rest is a sum of
    squares, the stationary-positivity mechanism.
    """
    spec = co.spec
    d = co.window.d
    grid = f.grid
    mag_sq = np.abs(f.values) ** 2
    sinh_front = math.sinh(2.0 * spec.alpha / spec.R**2)

    t1_density = np.zeros_like(mag_sq)
    t2_density = np.zeros_like(mag_sq)
    for k in range(d):
        ax = co.spatial_axis(k)
        t1_density += np.sinh(co.a0[k]) ** 2 * mag_sq
        centered = 0.5 * (shifted(f.values, ax, +1) - shifted(f.values, ax, -1))
        t2_density += np.abs(centered) ** 2
    term1 = 4.0 * sinh_front * _integral(grid, d, t1_density)
    term2 = 4.0 * sinh_front * _integral(grid, d, t2_density)
    term3 = _integral(grid, d, co.theta_dot * mag_sq)
    im_hop = np.imag(shifted(f.values, co.spatial_axis(0), +1) * np.conj(f.values))
    t4_density = (8.0 * spec.alpha / spec.R) * co.phi_d1 * np.cosh(co.bp[0]) * im_hop
    term4 = _integral(grid, d, t4_density)
    return term1 + term2 + term3 + term4


def commutator_lhs(f: SpaceTimeField, co: OperatorCoefficients):
    """<(SA - AS) f, f> by direct operator composition.

    Coefficient time derivatives are closed-form, so S(Af) uses the exact
    d_t(Af); no finite differencing enters.
    """
    return _commutator_terms(f, co)[0]


def _commutator_terms(f: SpaceTimeField, co: OperatorCoefficients) -> tuple:
    """(<(SA - AS) f, f>, Sf, Af), so callers that also need Sf and Af do not
    apply S and A again."""
    af = apply_a(f, co, want_derivative=True)
    saf = apply_s(af, co)
    sf = apply_s(f, co)
    asf = apply_a(sf, co)
    comm = SpaceTimeField(f.window, f.grid, saf.values - asf.values)
    return np.real(inner(comm, f)), sf, af


def _draw(window: LatticeWindow, rng) -> tuple:
    """One field's random data, in the fixed draw order: the coefficients of
    psi = t^2 (1-t)^2 times a random cubic, then the complex Gaussian site
    values."""
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    h = rng.standard_normal(window.shape) + 1j * rng.standard_normal(window.shape)
    return np.convolve(_BUMP, coeffs), h


def _tensor_field(window: LatticeWindow, grid: QuadratureRule, psi: np.ndarray, h: np.ndarray,
                  support_margin: int, site_mask: np.ndarray | None) -> SpaceTimeField:
    """psi(t) h_j and its first time derivative.

    psi: polynomial coefficients (degree+1, *trials); h: site values
    (*trials, *window.shape), zeroed in place within support_margin of the
    window edge and then multiplied by site_mask when given.
    """
    h[..., window.inf_norm > window.M - support_margin] = 0.0
    if site_mask is not None:
        h = h * site_mask
    h = np.expand_dims(h, -(window.d + 1))
    over_sites = (...,) + (np.newaxis,) * window.d
    parts = [P.polyval(grid.nodes, P.polyder(psi, m))[over_sites] * h for m in (0, 1)]
    return SpaceTimeField(window, grid, *parts)


def random_tensor_field(window: LatticeWindow, grid: QuadratureRule, rng,
                        support_margin: int = 3,
                        site_mask: np.ndarray | None = None) -> SpaceTimeField:
    """psi(t) h_j with psi = t^2 (1-t)^2 times a random cubic.

    h is complex Gaussian, zeroed within support_margin of the window edge
    (and outside site_mask when given); the closed-form psi' rides along so
    operator compositions stay finite-difference-free.
    """
    psi, h = _draw(window, rng)
    return _tensor_field(window, grid, psi, h, support_margin, site_mask)


def _trial_blocks(trials: int, grid: QuadratureRule, window: LatticeWindow) -> list:
    """Consecutive ranges of trial indices, each small enough that one field
    array of the block holds at most BLOCK_VALUES entries."""
    per_block = max(1, BLOCK_VALUES // (len(grid.nodes) * window.site_count))
    return [range(lo, min(lo + per_block, trials)) for lo in range(0, trials, per_block)]


def _trial_fields(window: LatticeWindow, grid: QuadratureRule, seed: int, block: range,
                  n_fields: int = 1, support_margin: int = 3,
                  site_mask: np.ndarray | None = None) -> list:
    """The n_fields random fields of every trial in block, stacked along a
    leading trial axis, with first time derivatives.  Trial t draws its fields
    in turn from default_rng((seed, t)), as random_tensor_field would."""
    draws = [[_draw(window, rng) for _ in range(n_fields)]
             for rng in (np.random.default_rng((seed, trial)) for trial in block)]
    return [_tensor_field(window, grid, np.stack([trial[i][0] for trial in draws], axis=-1),
                          np.stack([trial[i][1] for trial in draws]),
                          support_margin, site_mask)
            for i in range(n_fields)]


def _worst(values: np.ndarray, block: range) -> tuple:
    """(largest value, its first trial index) within one block."""
    i = int(np.argmax(values))
    return float(values[i]), block[i]


def _params(spec: WeightSpec, **extra) -> dict:
    """The parameter record of a batch report: the weight's, then extra."""
    return {"d": spec.d, "R": spec.R, "alpha": spec.alpha, "phi": spec.phi.kind, **extra}


def _check_report(check: str, params: dict, defect: float, tolerance: float) -> dict:
    return {"check": check, "params": params, "defect": defect,
            "tolerance": tolerance, "pass": bool(defect <= tolerance)}


def symmetry_check(spec: WeightSpec, window: LatticeWindow, trials: int, seed: int,
                   n_nodes: int = 24, tolerance: float = 1e-9) -> dict:
    """Max over trials of the S-symmetry and A-skewness defects."""
    grid = make_time_grid(n_nodes)
    co = OperatorCoefficients(spec, window, grid)
    worst_sym = worst_skew = 0.0
    worst_trial = -1
    for block in _trial_blocks(trials, grid, window):
        f, g = _trial_fields(window, grid, seed, block, n_fields=2)
        s_def, a_def = symmetry_defects(f, g, co)
        top, trial = _worst(np.maximum(s_def, a_def), block)
        if top > max(worst_sym, worst_skew):
            worst_trial = trial
        worst_sym = max(worst_sym, float(np.max(s_def)))
        worst_skew = max(worst_skew, float(np.max(a_def)))
    params = _params(spec, trials=trials, seed=seed)
    report = {
        "symmetry": _check_report("S_symmetry", params, worst_sym, tolerance),
        "skewness": _check_report("A_skewness", params, worst_skew, tolerance),
    }
    if not (report["symmetry"]["pass"] and report["skewness"]["pass"]):
        raise ToleranceExceededError(
            f"symmetry/skewness defect above {tolerance} (trial {worst_trial})",
            trial=worst_trial, defect=max(worst_sym, worst_skew))
    return report


def commutator_check(spec: WeightSpec, window: LatticeWindow, trials: int, seed: int,
                     n_nodes: int = 24, rel_tolerance: float = 1e-8) -> dict:
    """|<(SA-AS)f,f> - closed form| <= tol * (|lhs| + ||f||^2) per trial,
    plus the Cauchy-Schwarz consequence ||Sf+Af||^2 >= <(SA-AS)f,f>."""
    grid = make_time_grid(n_nodes)
    co = OperatorCoefficients(spec, window, grid)
    worst_ratio = 0.0
    worst_trial = -1
    cs_ok = True
    for block in _trial_blocks(trials, grid, window):
        (f,) = _trial_fields(window, grid, seed, block)
        lhs, sf, af = _commutator_terms(f, co)
        rhs = commutator_quadratic_form(f, co)
        scale = np.abs(lhs) + f.norm_sq()
        top, trial = _worst(np.abs(lhs - rhs) / scale, block)
        if top > worst_ratio:
            worst_ratio, worst_trial = top, trial
        total = SpaceTimeField(window, grid, sf.values + af.values)
        if np.any(total.norm_sq() < lhs - rel_tolerance * scale):
            cs_ok = False
    params = _params(spec, trials=trials, seed=seed)
    report = {
        "identity": _check_report("commutator_identity", params, worst_ratio, rel_tolerance),
        "lower_bound": {"check": "norm_dominates_commutator", "params": params, "pass": cs_ok},
    }
    if not report["identity"]["pass"] or not cs_ok:
        raise ToleranceExceededError(
            f"commutator defect above {rel_tolerance} (trial {worst_trial})",
            trial=worst_trial, defect=worst_ratio)
    return report


def conjugation_check(spec: WeightSpec, window: LatticeWindow, trials: int, seed: int,
                      n_nodes: int = 24) -> dict:
    """(S+A)f against the pointwise log-domain conjugation oracle.

    Returns the max over trials of the defect normalized two ways: by ||f||
    (meaningful when the hop scale stays near machine range, e.g. phi == 0)
    and by the conjugated field's own norm (the scale-free form).
    """
    grid = make_time_grid(n_nodes)
    co = OperatorCoefficients(spec, window, grid)
    worst_abs = worst_rel = 0.0
    for block in _trial_blocks(trials, grid, window):
        (f,) = _trial_fields(window, grid, seed, block)
        lhs = apply_s_plus_a(f, co)
        rhs = conjugation_oracle(f, spec)
        nd = SpaceTimeField(window, grid, lhs.values - rhs.values).norm()
        worst_abs = max(worst_abs, float(np.max(nd / f.norm())))
        worst_rel = max(worst_rel, float(np.max(nd / np.maximum(lhs.norm(), rhs.norm()))))
    return {
        "defect_over_norm_f": worst_abs,
        "defect_relative": worst_rel,
        "params": _params(spec, trials=trials, seed=seed),
    }


# ---------------------------------------------------------------------------
# the proof's hiding inequalities


def hiding_sides(alpha, R: float, d: int, sup_d1: float, sup_d2: float, s) -> dict:
    """Log-domain left/right sides of the two absorption inequalities at
    |j/R + phi| = s >= 1.  alpha and s are floats or arrays that broadcast
    against each other, and each side comes back in their broadcast shape;
    every entry is what the scalar call would give, bit for bit.

    A: sinh(2a/R^2) sinh^2(2as/R) >= (8 a sup_d1 / R) cosh(a/R^2) cosh(2as/R)
    B: sinh(2a/R^2) sinh^2(2as/R) >= 2 a sup_d2 s
    """
    alpha = np.asarray(alpha, dtype=float)
    s = np.asarray(s, dtype=float)
    x = 2.0 * alpha * s / R
    none = np.full(x.shape, -math.inf)
    sides = {"log_lhs": log_sinh(2.0 * alpha / R**2) + 2.0 * log_sinh(x)}
    if sup_d1 > 0:
        # math.log per entry: the scalar rounding, which np.log need not match
        log_a = np.array([math.log(v) for v in (8.0 * alpha * sup_d1 / R).flat])
        sides["log_rhs_A"] = log_a.reshape(alpha.shape) + log_cosh(alpha / R**2) + log_cosh(x)
    else:
        sides["log_rhs_A"] = none
    sides["log_rhs_B"] = np.log(2.0 * alpha * sup_d2 * s) if sup_d2 > 0 else none
    return {key: side[()] for key, side in sides.items()}


_HIDING_LEVELS = 5  # bisection steps decided per hiding_sides call


def minimal_hiding_constant(d: int, R: float, phi: TimeProfile, s_grid) -> dict:
    """Smallest c in [1e-3, 64] such that both inequalities hold on the grid at
    alpha = c R log R.

    80 bisection steps, decided _HIDING_LEVELS at a time: one hiding_sides
    call evaluates every midpoint those steps can reach, each computed as the
    step-by-step loop would compute it, and the outcomes are then walked from
    the root, so the result is that loop's bit for bit.  The steps stop early
    once the bracket is two adjacent floats."""
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.size == 0 or np.any(s_grid < 1.0):
        raise ValueError("grid values must be >= 1, and there must be at least one")
    # With x = 2 alpha s / R, d/ds of log_lhs - log_rhs_A is (2 coth x - tanh x) dx/ds
    # and of log_lhs - log_rhs_B is (2 x coth x - 1) / s, both positive: both
    # margins grow with s, so the grid's smallest point decides.
    s_min = float(np.min(s_grid))

    def holds(c: np.ndarray) -> np.ndarray:
        alpha = c * R * math.log(R)
        sides = hiding_sides(alpha, R, d, phi.sup_d1, phi.sup_d2, s_min)
        return ~(sides["log_lhs"] < np.maximum(sides["log_rhs_A"], sides["log_rhs_B"]))

    if phi.sup_d1 == 0.0 and phi.sup_d2 == 0.0:
        return {"min_c": 0.0, "vacuous": True}
    lo, hi = 1e-3, 64.0
    top, bottom = holds(np.array([hi, lo]))
    if not top:
        return {"min_c": math.inf, "vacuous": False}
    if bottom:
        return {"min_c": lo, "vacuous": False}
    steps = 80
    # once no float lies strictly between lo and hi, every midpoint is lo
    # (which fails) or hi (which holds), so the remaining steps change nothing
    while steps and lo < 0.5 * (lo + hi) < hi:
        levels = min(steps, _HIDING_LEVELS)
        # level l holds the 2^l midpoints after l steps; a node's children are
        # its left half (the midpoint held, hi = mid) and its right half
        brackets, mids = [(lo, hi)], []
        for _ in range(levels):
            level = [0.5 * (a + b) for a, b in brackets]
            mids.append(level)
            brackets = [half for (a, b), m in zip(brackets, level) for half in ((a, m), (m, b))]
        ok = holds(np.array([m for level in mids for m in level]))
        node = 0
        for depth, level in enumerate(mids):
            if ok[2**depth - 1 + node]:
                hi, node = level[node], 2 * node
            else:
                lo, node = level[node], 2 * node + 1
        steps -= levels
    return {"min_c": hi, "vacuous": False}


def absorption_threshold(alpha: float, R: float, L: float, d: int) -> bool:
    """sinh(2a/R^2) sinh^2(2a/(sqrt(d) R)) >= L^2, evaluated in log domain
    as the square root: sinh_factor_log >= log L."""
    if min(alpha, R, L) <= 0 or d < 1:
        raise ValueError("all arguments must be positive")
    return bool(sinh_factor_log(alpha, R, d) >= math.log(L))


def phi_rate_scan(phi_growth: str, c: float, L: float, d: int, R_list) -> list:
    """Per R, whether alpha = c R phi(R) clears the absorption threshold, for
    phi_growth "log" (phi = log R) or "sqrt_log" (phi = sqrt(log R))."""
    growth = {"log": math.log, "sqrt_log": lambda r: math.sqrt(math.log(r))}
    if phi_growth not in growth:
        raise ValueError(f"unknown phi growth {phi_growth!r}")
    rows = []
    for R in R_list:
        alpha = c * R * growth[phi_growth](R)
        rows.append({"R": float(R), "phi_growth": phi_growth, "alpha": alpha,
                     "holds": absorption_threshold(alpha, R, L, d)})
    return rows


# ---------------------------------------------------------------------------
# empirical Carleman constant


def admissible_site_mask(spec: WeightSpec, window: LatticeWindow) -> tuple:
    """(hard admissibility mask, smooth inward ramp) for the support condition
    |j/R + phi(t) e_1|^2 >= 1 at every time the profile visits.

    The worst case over phi in [phi_min, phi_max] is at the clamped minimizer
    phi* = clip(-j_1/R, phi_min, phi_max).  The ramp vanishes off the hard mask.
    """
    if spec.phi.kind == "paper_phi":
        phi_lo, phi_hi = 0.0, 3.0
    else:
        phi_lo = phi_hi = spec.phi.max_value
    j1 = window.coordinate(0).astype(float)
    phi_star = np.clip(-j1 / spec.R, phi_lo, phi_hi)
    s_sq = (j1 / spec.R + phi_star) ** 2
    for k in range(1, window.d):
        s_sq = s_sq + (window.coordinate(k).astype(float) / spec.R) ** 2
    s = np.sqrt(s_sq + np.zeros(window.shape))
    hard = s >= 1.0
    ramp = _glue(spec.R * (s - 1.0), 0) * hard
    return hard, ramp


def _ratio_parts(spec: WeightSpec, window: LatticeWindow, grid: QuadratureRule) -> tuple:
    """What carleman_ratio needs besides g, the same for every trial: (the
    hard admissibility mask, the smooth ramp, the log weight on the grid, the
    log of the sinh factor)."""
    d = window.d
    hard, ramp = admissible_site_mask(spec, window)
    coords = [window.coordinate(k).astype(float) for k in range(d)]
    phi_t = np.asarray(spec.phi.value(grid.nodes)).reshape((len(grid.nodes),) + (1,) * d)
    log_w = weight_log_magnitude(spec, coords, phi_t)
    return hard, ramp, log_w, sinh_factor_log(spec.alpha, spec.R, spec.d)


def carleman_ratio(spec: WeightSpec, g: SpaceTimeField, parts: tuple | None = None,
                   total: np.ndarray | None = None):
    """Smallest admissible constant for this g in the weighted inequality:

        sqrt(sinh(2a/R^2)) sinh(2a/(sqrt(d) R)) ||W g|| <= c ||W (i d_t + Delta_d) g||

    returns c_g (one per trial for a batch of g); weighted norms are evaluated
    wholly in the log domain.  At most 1e-14 of g's mass may lie off the
    admissible sites.  parts (_ratio_parts of spec, g's window and grid) and
    total (g's _mass) are computed here unless the caller passes them.
    """
    d, weights = g.window.d, g.grid.weights
    hard, _, log_w, factor_log = parts or _ratio_parts(spec, g.window, g.grid)
    total = _mass(g) if total is None else total
    if np.any(total == 0.0):
        raise SupportViolationError("g vanishes identically")
    bad = np.sum(np.abs(g.values[..., ~hard]) ** 2, axis=(-2, -1)) / total
    if np.any(bad > 1e-14):
        raise SupportViolationError(f"relative mass {np.max(bad):.3e} outside the admissible set")
    pg = 1j * g.dvalues + laplacian_values(g.values.astype(complex, copy=True), d)
    log_wg = weighted_log_norm(g.values, log_w, d, weights)
    log_wpg = weighted_log_norm(pg, log_w, d, weights)
    if np.any(log_wpg == NEG_INF):
        raise SupportViolationError("(i d_t + Delta_d) g vanishes; ratio undefined")
    return np.exp(factor_log + log_wg - log_wpg)[()]


def _mass(g: SpaceTimeField) -> np.ndarray:
    """sum |g|^2 over the time nodes and the sites, per trial."""
    return np.sum(np.abs(g.values) ** 2, axis=tuple(range(-(g.window.d + 1), 0)))


def carleman_constant_batch(spec: WeightSpec, window: LatticeWindow, trials: int, seed: int,
                            n_nodes: int = 24) -> dict:
    """Empirical Carleman constant: max of carleman_ratio over random
    admissible g; trials whose g vanishes identically are skipped.  The
    admissible mask, the log weight and the sinh factor are built once per
    batch, and each block's mass once."""
    grid = make_time_grid(n_nodes)
    parts = _ratio_parts(spec, window, grid)
    ratios = []
    for block in _trial_blocks(trials, grid, window):
        (g,) = _trial_fields(window, grid, seed, block, support_margin=2, site_mask=parts[1])
        total = _mass(g)
        keep = total != 0.0
        if np.any(keep):
            g = SpaceTimeField(window, grid, g.values[keep], g.dvalues[keep])
            ratios.extend(carleman_ratio(spec, g, parts, total[keep]).tolist())
    if not ratios:
        raise SupportViolationError("no admissible trial fields were generated")
    return {"c_emp": max(ratios), "ratios": ratios, "trials": trials, "seed": seed,
            "params": _params(spec)}
