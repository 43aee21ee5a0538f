import math
from fractions import Fraction

import numpy as np
import pytest

from carleman import counterexample as ce
from carleman.counterexample import (CounterexampleSpec, DyadicField,
                                     build_counterexample, diamond_sites,
                                     literal_value, potential_bound_scan,
                                     repaired_ring_values, tail_mass_bound,
                                     verify_counterexample)
from carleman.errors import ExactRangeError


def test_origin_value_is_one():
    for mode in ("literal_paper", "repaired"):
        spec = CounterexampleSpec(R=12, margin=12, value_mode=mode)
        u, _ = build_counterexample(spec)
        assert u.value(0, 0) == 1


def test_diamond_vanishes():
    R = 14
    spec = CounterexampleSpec(R=R, margin=14)
    u, _ = build_counterexample(spec)
    for s in diamond_sites(R):
        assert u.value(*s) == 0
    assert u.value(0, R) == 0 and u.value(1, R + 1) == 0 and u.value(-1, R - 1) == 0


def test_named_literal_values():
    R = 20
    assert literal_value(R, 0, R - 3) == Fraction(1, 2 ** (R - 3))
    assert literal_value(R, 0, 0) == 1
    assert literal_value(R, 1, R + 2) == -Fraction(1, 2 ** (R - 4))
    assert literal_value(R, 2, R + 1) == Fraction(1, 2 ** (R - 4))
    assert literal_value(R, 3, R) == -Fraction(1, 2 ** (R - 3))
    assert literal_value(R, 0, R + 3) == Fraction(1, 2 ** (R - 3))


def test_literal_mode_residuals_at_axis_extremes():
    R = 20
    spec = CounterexampleSpec(R=R, margin=20, value_mode="literal_paper")
    u = DyadicField(spec)
    report = verify_counterexample(u, None, spec)
    assert not report["pass"]
    bad = {tuple(s) for s in report["diamond_harmonic"]["residual_sites"]}
    assert bad == {(0, R + 2), (0, R - 2), (2, R), (-2, R)}
    expected = Fraction(3, 2 ** (R - 3))
    assert u.laplacian(0, R + 2) == -expected
    assert u.laplacian(0, R - 2) == -expected
    assert u.laplacian(2, R) == expected
    assert u.laplacian(-2, R) == expected


def test_repaired_ring_values_are_exact_min_perturbation():
    R = 16
    vals = repaired_ring_values(R)
    h = Fraction(1, 2 ** (R - 4))
    x = (vals[(0, R + 3)], vals[(1, R + 2)], vals[(2, R + 1)], vals[(3, R)])
    # constraints hold exactly
    assert x[0] + 2 * x[1] == 0 and x[1] + x[2] == 0 and 2 * x[2] + x[3] == 0
    # Lagrange optimality: x - p is W-orthogonal to the constraint null space
    p = (h / 2, -h, h, -h / 2)
    v = (-2, 1, -1, 2)  # null vector of the constraint matrix
    w = (2, 4, 4, 2)
    assert sum(wi * (xi - pi) * vi for wi, xi, pi, vi in zip(w, x, p, v)) == 0
    # the resulting exact values
    assert x == (h, -h / 2, h / 2, -h)
    # mirror symmetry
    assert vals[(0, R - 3)] == vals[(0, R + 3)]
    assert vals[(-2, R - 1)] == vals[(2, R + 1)]


def test_repaired_mode_passes_all_checks():
    spec = CounterexampleSpec(R=12, margin=12)
    u, V = build_counterexample(spec)
    report = verify_counterexample(u, V, spec)
    assert report["pass"], report
    assert report["diamond_harmonic"]["residual_sites"] == []
    assert report["l2_tail_certificate"]["pass"]


def test_potential_vanishes_on_diamond():
    R = 12
    spec = CounterexampleSpec(R=R, margin=12)
    u, V = build_counterexample(spec)
    for s in diamond_sites(R):
        assert u.potential_value(*s) == 0


def test_far_region_potential_bounded_by_ratio_arithmetic():
    # interior of the j2 <= R-3 region: neighbor ratios are 1/2 or 2, so
    # |V| = |Delta u / u| <= 4 + 2*2 + 2*(1/2) = 9
    spec = CounterexampleSpec(R=14, margin=14)
    u, _ = build_counterexample(spec)
    for j1 in range(-8, 9):
        for j2 in range(-8, 9):
            assert abs(u.potential_value(j1, j2)) <= 9


def test_potential_sup_identical_across_R():
    out = potential_bound_scan((10, 12, 16), margin=16)
    assert out["identical_across_R"]
    assert 2.0 <= out["sup_float"] <= 16.0


def test_tail_certificate_scales_with_margin():
    small = tail_mass_bound(CounterexampleSpec(R=10, margin=10))
    big = tail_mass_bound(CounterexampleSpec(R=10, margin=60))
    assert big < small
    assert big < Fraction(1, 2**60)


def test_window_margin_validation():
    with pytest.raises(ValueError):
        CounterexampleSpec(R=20, margin=10)
    with pytest.raises(ValueError):
        CounterexampleSpec(R=6, margin=60)


def test_to_lattice_field_and_sidecar():
    spec = CounterexampleSpec(R=10, margin=10)
    u, _ = build_counterexample(spec)
    lf = u.to_lattice_field()
    assert lf[[0, 0]] == 1.0 + 0j
    assert lf[[0, spec.R]] == 0.0
    sidecar = u.exact_sidecar()
    key = f"0,{spec.R + 3}"  # repaired value 2^{-(R-4)}
    assert sidecar[key]["numerator"] == 1
    assert sidecar[key]["sign"] == 1
    assert sidecar[key]["log2_denominator"] == spec.R - 4
    key2 = f"1,{spec.R + 2}"  # repaired value -2^{-(R-3)}
    assert sidecar[key2]["sign"] == -1
    assert sidecar[key2]["log2_denominator"] == spec.R - 3


# --- the array path against the per-site Fraction walk -----------------------


def _fraction_walk(u, spec):
    """The per-site Fraction walk the array path replaced: every value comes
    from u.value (looked up once per site), V = -Delta u / u site by site.
    Returns the float V and u windows and the verify_counterexample report."""
    R, M = spec.R, spec.half_width
    val = {(j1, j2): u.value(j1, j2)
           for j1 in range(-M - 1, M + 2) for j2 in range(-M - 1, M + 2)}

    def lap(j1, j2):
        return (val[j1 + 1, j2] + val[j1 - 1, j2] + val[j1, j2 + 1] + val[j1, j2 - 1]
                - 4 * val[j1, j2])

    shape = spec.window().shape
    v_vals, u_vals = np.zeros(shape), np.zeros(shape, dtype=complex)
    equation_fail = []
    sup_v = Fraction(0)
    for i1, j1 in enumerate(range(-M, M + 1)):
        for i2, j2 in enumerate(range(-M, M + 1)):
            uv, lp = val[j1, j2], lap(j1, j2)
            vv = -lp / uv if uv != 0 else Fraction(0)
            v_vals[i1, i2] = float(vv)
            u_vals[i1, i2] = float(uv)
            sup_v = max(sup_v, abs(vv))
            if lp + vv * uv != 0:
                equation_fail.append(((j1, j2), lp + vv * uv))
    diamond = diamond_sites(R)
    vanish_fail = [s for s in diamond if val[s] != 0]
    harmonic_fail = [(s, lap(*s)) for s in diamond if lap(*s) != 0]
    tail = tail_mass_bound(spec)
    report = {
        "R": R, "mode": spec.value_mode,
        "vanishing_diamond": {"pass": not vanish_fail, "failures": vanish_fail},
        "diamond_harmonic": {
            "pass": not harmonic_fail,
            "residual_sites": [list(s) for s, _ in harmonic_fail],
            "residuals": {f"{s[0]},{s[1]}": str(r) for s, r in harmonic_fail},
        },
        "equation_everywhere": {"pass": not equation_fail,
                                "failures": [list(s) for s, _ in equation_fail[:20]]},
        "l2_tail_certificate": {
            "pass": tail < Fraction(1, 2**spec.margin),
            "log2_bound": math.log2(float(tail)),
            "threshold_log2": -spec.margin,
        },
        "origin_is_one": {"pass": val[0, 0] == 1},
        "sup_V": str(sup_v),
        "sup_V_float": float(sup_v),
    }
    report["pass"] = all(report[k]["pass"] for k in
                         ("vanishing_diamond", "diamond_harmonic", "equation_everywhere",
                          "l2_tail_certificate", "origin_is_one"))
    return v_vals, u_vals, report


def _overrides(spec):
    return repaired_ring_values(spec.R) if spec.value_mode == "repaired" else {}


@pytest.mark.parametrize("mode", ["literal_paper", "repaired"])
@pytest.mark.parametrize("extra_margin", [0, 3])
@pytest.mark.parametrize("R", [8, 9, 13, 20, 40])
def test_arrays_match_fraction_walk(R, extra_margin, mode):
    spec = CounterexampleSpec(R=R, margin=R + extra_margin, value_mode=mode)
    v_walk, u_walk, report_walk = _fraction_walk(DyadicField(spec, _overrides(spec)), spec)

    u, V = build_counterexample(spec)
    assert V.values.dtype == v_walk.dtype and V.values.tobytes() == v_walk.tobytes()
    lf = u.to_lattice_field().values
    assert lf.dtype == u_walk.dtype and lf.tobytes() == u_walk.tobytes()
    assert verify_counterexample(u, V, spec) == report_walk
    # a field verified without a build first
    assert verify_counterexample(DyadicField(spec, _overrides(spec)), None, spec) == report_walk
    sup = report_walk["sup_V"]
    assert potential_bound_scan([R], margin=spec.margin, value_mode=mode) == {
        "sup_by_R": {str(R): sup}, "sup_float": float(Fraction(sup)),
        "identical_across_R": True}


def test_window_arrays_built_once(monkeypatch):
    calls = []
    real = ce._sign_exponent
    monkeypatch.setattr(ce, "_sign_exponent", lambda *a: calls.append(a) or real(*a))
    spec = CounterexampleSpec(R=8, margin=8)
    u, V = build_counterexample(spec)
    verify_counterexample(u, V, spec)
    u.to_lattice_field()
    assert len(calls) == 1


def test_verify_rejects_a_spec_other_than_the_fields():
    u, V = build_counterexample(CounterexampleSpec(R=8, margin=8))
    with pytest.raises(ValueError, match="field built for"):
        verify_counterexample(u, V, CounterexampleSpec(R=8, margin=9))


def test_non_dyadic_override_raises():
    spec = CounterexampleSpec(R=8, margin=8)
    u = DyadicField(spec, {(0, 11): Fraction(3, 16)})
    with pytest.raises(ValueError, match="not 0 or a signed power of two"):
        u.to_lattice_field()
    with pytest.raises(ValueError):
        verify_counterexample(u, None, spec)


def test_exact_range_boundary():
    # u(0,0) = 2^-k beside neighbors 2^-1: the largest V term is 2^{2(k-1)}
    spec = CounterexampleSpec(R=8, margin=8)
    u = DyadicField(spec, {(0, 0): Fraction(1, 2**26)})  # 2^50: still exact
    assert verify_counterexample(u, None, spec)["sup_V"] == str(abs(u.potential_value(0, 0)))
    assert u.to_lattice_field()[[0, 0]] == 2.0**-26
    with pytest.raises(ExactRangeError):  # 2^52
        verify_counterexample(DyadicField(spec, {(0, 0): Fraction(1, 2**27)}), None, spec)


def test_sup_v_same_for_large_R():
    out = potential_bound_scan((8, 64, 200), margin=200)
    assert out["sup_by_R"] == {"8": "5", "64": "5", "200": "5"}
