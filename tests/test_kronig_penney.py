import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csop.kronig_penney import (
    KPModel,
    _bisect,
    _dh_ds,
    band_edges,
    dispersion,
    dispersion_derivative,
    exact_decay,
    fig1_sweep,
)

PI_SQ = math.pi**2


def transfer_half_trace(v0, energy):
    """Oracle: numerically multiplied one-cell transfer matrices."""
    k = math.sqrt(energy)
    free = np.array([[math.cos(k), math.sin(k) / k], [-k * math.sin(k), math.cos(k)]])
    jump = np.array([[1.0, 0.0], [v0, 1.0]])
    return 0.5 * np.trace(jump @ free)


class TestDispersion:
    @pytest.mark.parametrize("call, message", [
        (lambda: KPModel(0.0), "v0 must be positive"),
        (lambda: KPModel(-3.0), "v0 must be positive"),
    ], ids=["zero_v0", "negative_v0"])
    def test_outside_input_checks(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_free_limit(self):
        assert dispersion(KPModel(1e-14), 4.0) == pytest.approx(math.cos(2.0), abs=1e-12)

    def test_zero_energy_limit(self):
        m = KPModel(3.0)
        assert dispersion(m, 0.0) == pytest.approx(1.0 + 1.5)
        assert dispersion(m, 1e-14) == pytest.approx(2.5, rel=1e-10)

    def test_explicit_value_and_transfer_matrix(self):
        m = KPModel(3.0)
        expect = math.cos(2.0) + 0.75 * math.sin(2.0)
        assert dispersion(m, 4.0) == pytest.approx(expect, rel=1e-14)
        for e in (0.7, 4.0, 11.3, 20.0):
            assert dispersion(m, e) == pytest.approx(transfer_half_trace(3.0, e), rel=1e-12)

    def test_negative_energy_continuation(self):
        m = KPModel(2.0)
        assert dispersion(m, -4.0) == pytest.approx(math.cosh(2.0) + math.sinh(2.0) / 2.0, rel=1e-12)

    def test_vectorized(self):
        m = KPModel(3.0)
        es = np.array([0.5, 4.0, 9.0])
        vals = dispersion(m, es)
        assert vals.shape == (3,)
        assert vals[1] == pytest.approx(dispersion(m, 4.0))

    def test_derivative_matches_finite_difference(self):
        m = KPModel(3.0)
        for e in (5.0, 12.0, 14.0):
            fd = (dispersion(m, e + 1e-6) - dispersion(m, e - 1e-6)) / 2e-6
            assert dispersion_derivative(m, e) == pytest.approx(fd, rel=1e-6)


class TestBandEdges:
    def test_free_limit_gap_closes(self):
        edges = band_edges(KPModel(1e-6))
        assert edges.gap < 1e-5
        assert edges.e_minus == pytest.approx(PI_SQ, abs=1e-8)

    def test_strong_comb_band_collapses_to_hard_wall_level(self):
        # E_minus sits at pi^2 for every v0; the band collapses onto it
        # from below as v0 grows
        edges = band_edges(KPModel(1e4))
        assert edges.e_minus == pytest.approx(PI_SQ, abs=1e-9)
        assert edges.e_bottom < PI_SQ
        assert PI_SQ - edges.e_bottom < 0.05

    def test_residuals_at_edges(self):
        for v0 in (0.5, 3.0, 12.0, 40.0):
            edges = band_edges(KPModel(v0))
            m = KPModel(v0)
            for e in (edges.e_bottom, edges.e_minus, edges.e_plus):
                assert abs(abs(dispersion(m, e)) - 1.0) < 1e-10
            assert 0 < edges.e_bottom < edges.e_minus < edges.e_plus

    @settings(max_examples=200, deadline=None)
    @given(log_v0=st.floats(-6.0, 4.0))
    def test_closed_form_edges_property(self, log_v0):
        m = KPModel(10.0**log_v0)
        edges = band_edges(m)
        assert edges.e_minus == PI_SQ
        assert 0 < edges.e_bottom < edges.e_minus < edges.e_plus
        for e in (edges.e_bottom, edges.e_plus):
            assert abs(abs(dispersion(m, e)) - 1.0) <= 1e-12

    def test_spectrum_characterization(self):
        m = KPModel(3.0)
        edges = band_edges(m)
        rng = np.random.default_rng(0)
        band = rng.uniform(edges.e_bottom + 1e-9, edges.e_minus - 1e-9, 200)
        in_gap = rng.uniform(edges.e_minus + 1e-9, edges.e_plus - 1e-9, 200)
        assert np.all(np.abs(dispersion(m, band)) <= 1.0 + 1e-12)
        assert np.all(np.abs(dispersion(m, in_gap)) > 1.0)


def _crosses(f, x):
    """True when f(x) == 0, or x and one neighbouring double straddle a sign
    change of f with |f(x)| no larger than |f| at that neighbour."""
    fx = f(x)
    if fx == 0.0:
        return True
    for direction in (-math.inf, math.inf):
        fn = f(math.nextafter(x, direction))
        if math.copysign(1.0, fn) != math.copysign(1.0, fx):
            return abs(fx) <= abs(fn)
    return False


class TestBisect:
    @settings(max_examples=200, deadline=None)
    @given(log_v0=st.floats(-6.0, 4.0))
    def test_best_adjacent_double_property(self, log_v0):
        # the three Kronig-Penney brackets: bottom of band 1, bottom of band 2
        # and the branch point between the gap edges
        v0 = 10.0**log_v0
        edges = band_edges(KPModel(v0))
        brackets = [
            (lambda s: 0.5 * v0 * math.cos(0.5 * s) - s * math.sin(0.5 * s), 0.0, math.pi),
            (lambda s: 2.0 * s * math.cos(0.5 * s) + v0 * math.sin(0.5 * s), math.pi, 2.0 * math.pi),
            (lambda s: _dh_ds(v0, s), math.sqrt(edges.e_minus), math.sqrt(edges.e_plus)),
        ]
        roots = [_bisect(f, a, b) for f, a, b in brackets]
        for (f, a, b), x in zip(brackets, roots):
            assert a <= x <= b
            assert _crosses(f, x)
        # the brackets are the ones band_edges and exact_decay solve
        assert (edges.e_bottom, edges.e_plus) == (roots[0] ** 2, roots[1] ** 2)
        assert exact_decay(KPModel(v0), edges)[0] == roots[2] ** 2

    def test_no_sign_change_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            _bisect(lambda s: s * s + 1.0, -1.0, 1.0)

    def test_exact_zero_endpoint_is_returned(self):
        calls = []

        def f(s):
            calls.append(s)
            return s - 1.0

        assert _bisect(f, 1.0, 3.0) == 1.0
        assert _bisect(f, -2.0, 1.0) == 1.0
        assert calls == [1.0, 3.0, -2.0, 1.0]


class TestExactDecay:
    def test_gap_closing_limit(self):
        _, q = exact_decay(KPModel(1e-5))
        assert q < 1e-4

    def test_structural_postconditions(self):
        for v0 in (0.5, 3.0, 15.0):
            m = KPModel(v0)
            edges = band_edges(m)
            e_star, q = exact_decay(m, edges)
            assert edges.e_minus < e_star < edges.e_plus
            assert abs(dispersion(m, e_star)) > 1.0
            assert q == pytest.approx(math.acosh(abs(dispersion(m, e_star))), rel=1e-12)
            # stationary point of h
            assert abs(dispersion_derivative(m, e_star)) < 1e-9

    @pytest.mark.parametrize("v0", [1e-6, 1e-4, 1e-2, 1.0, 40.0])
    def test_matches_50_digit_reference(self, v0):
        # arccosh|h| at the root of dh/ds, both at 50 digits; |h| - 1 ~ q^2 / 2
        # cancels in double precision as v0 -> 0
        e_star, q = exact_decay(KPModel(v0))
        with mpmath.workdps(50):
            v = mpmath.mpf(v0)

            def dh_ds(s):
                return -mpmath.sin(s) + v / 2 * (s * mpmath.cos(s) - mpmath.sin(s)) / s**2

            s_star = mpmath.findroot(dh_ds, mpmath.sqrt(mpmath.mpf(e_star)))
            ref = mpmath.acosh(abs(mpmath.cos(s_star) + v / 2 * mpmath.sin(s_star) / s_star))
            assert abs(q - ref) <= 1e-14 * ref
            assert abs(e_star - s_star**2) <= 1e-14 * s_star**2

    def test_weak_comb_agrees_with_two_band_theory(self):
        # kappa_max -> v0 / (2 pi) as v0 -> 0
        v0 = 0.01
        _, q = exact_decay(KPModel(v0))
        assert q == pytest.approx(v0 / (2.0 * math.pi), rel=0.01)


class TestFig1Sweep:
    def test_single_weak_row(self):
        row = fig1_sweep([0.05])[0]
        assert row.q_exact < 0.01
        assert row.q_bound < 0.01
        assert np.isfinite(row.rel_diff)

    def test_monotone_g_over_w_and_bound_is_lower(self):
        rows = fig1_sweep(np.geomspace(0.5, 30.0, 12))
        gw = [r.g_over_w for r in rows]
        assert all(b > a for a, b in zip(gw, gw[1:]))
        for r in rows:
            assert r.q_exact >= r.q_bound
            assert r.rel_diff >= 0
