import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csop import decay
from csop.decay import (
    BoundInputs,
    bound_constant,
    certify_bound,
    critical_q,
    decay_envelope,
    omega_eps,
    qbar_and_ebar,
    unit_ball_volume,
)
from csop.errors import InvalidGapError, PreconditionError, QBeyondCriticalError, ShiftLeavesGapError
from csop.schrodinger import GapSpectrum

GAP12 = GapSpectrum(e_minus=1.0, e_plus=2.0)

# narrow and wide gaps; the two wide ones have p < 0 near their lower edge
ORACLE_GAPS = [
    GAP12,
    GapSpectrum(e_minus=9.8696, e_plus=17.2, e_bottom=4.1),
    GapSpectrum(e_minus=1.0, e_plus=10.0),
    GapSpectrum(e_minus=0.01, e_plus=100.0),
]


# E- log-uniform over four decades and G / E- on both sides of 4, kept
# away from G = 4 E-, where the lower-edge law turns into q_c ~ eps^(1/4)
GAPS = st.builds(
    lambda e_minus, ratio: GapSpectrum(e_minus=e_minus, e_plus=e_minus + ratio * e_minus),
    st.floats(-2.0, 2.0).map(lambda x: 10.0**x),
    st.one_of(st.floats(0.01, 3.5), st.floats(4.5, 100.0)),
)


def oracle_energies(gap):
    """Interior linspace plus a geometric ladder down to 1e-9 G from each edge."""
    dists = np.geomspace(1e-9, 0.1, 15) * gap.gap
    interior = np.linspace(gap.e_minus, gap.e_plus, 41)[1:-1]
    return np.concatenate([interior, gap.e_minus + dists, gap.e_plus - dists])


def mp_critical_q(gap, energy):
    """50-digit root of q = F(q, E) itself, bracketed on [0, sqrt(E+ - E)]."""
    with mpmath.workdps(50):
        em, ep, e = (mpmath.mpf(x) for x in (gap.e_minus, gap.e_plus, energy))
        a, b = ep - e, e - em

        def g(q):
            return q - mpmath.sqrt(max(a - q * q, 0) * (b + q * q) / (4 * em))

        return mpmath.findroot(g, (mpmath.mpf(0), mpmath.sqrt(a)), solver="illinois")


class TestGeometry:
    def test_unit_ball_volumes(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)

    def test_omega_eps_1d(self):
        assert omega_eps(0.5, 1) == pytest.approx(1.0)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: BoundInputs(gap=GAP12, energy=1.4375, q=-0.1, eps=0.5), InvalidGapError, "q must be >= 0"),
        (lambda: BoundInputs(gap=GAP12, energy=1.4375, q=0.2, eps=0.0), InvalidGapError, "eps must be > 0"),
        (lambda: BoundInputs(gap=GAP12, energy=1.4375, q=0.2, eps=0.5, dim=0), InvalidGapError,
         "dimension must be >= 1"),
        (lambda: omega_eps(0.0, 1), ValueError, "eps must be positive"),
        (lambda: omega_eps(-0.5, 1), ValueError, "eps must be positive"),
        (lambda: unit_ball_volume(0), ValueError, "dimension must be >= 1"),
        (lambda: decay_envelope(GAP12, 1.9, 0.5), ShiftLeavesGapError, "above e_plus"),
    ], ids=["negative_q", "zero_eps", "zero_dim", "omega_zero_eps", "omega_negative_eps",
            "ball_zero_dim", "envelope_above_e_plus"])
    def test_outside_input_checks(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


class TestCriticalQ:
    def test_qc_at_ebar_closed_form(self):
        # at E = Ebar the critical rate equals G / (4 sqrt(E-)) exactly
        assert critical_q(GAP12, 1.4375) == pytest.approx(0.25, abs=1e-10)

    def test_root_residual(self):
        qc = critical_q(GAP12, 1.2)
        assert abs(qc - decay_envelope(GAP12, 1.2, qc)) < 1e-10

    def test_edge_asymptotics_upper(self):
        # leading-order balance of q = F with q^2 = O(E+ - E) kept:
        # q_c -> sqrt(delta G / (4 E- + G)) near the upper edge
        for delta in (1e-4, 1e-6):
            e = GAP12.e_plus - delta
            approx = math.sqrt(delta * GAP12.gap / (4.0 * GAP12.e_minus + GAP12.gap))
            assert critical_q(GAP12, e) == pytest.approx(approx, rel=5e-3)

    def test_polynomial_oracle(self):
        # q_c^2 is the positive root of u^2 + (4 E- - a + b) u - a b
        for e in (1.1, 1.5, 1.9):
            a = GAP12.e_plus - e
            b = e - GAP12.e_minus
            coeff = 4.0 * GAP12.e_minus - a + b
            u = 0.5 * (-coeff + math.sqrt(coeff * coeff + 4.0 * a * b))
            assert critical_q(GAP12, e) == pytest.approx(math.sqrt(u), rel=1e-10)

    @pytest.mark.parametrize("gap", ORACLE_GAPS, ids=lambda g: f"{g.e_minus}-{g.e_plus}")
    def test_matches_50_digit_root(self, gap):
        energies = oracle_energies(gap)
        for energy, qc in zip(energies, critical_q(gap, energies)):
            exact = mp_critical_q(gap, energy)
            assert abs(mpmath.mpf(qc) - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("gap", ORACLE_GAPS, ids=lambda g: f"{g.e_minus}-{g.e_plus}")
    def test_array_call_equals_scalar_calls_bitwise(self, gap):
        energies = oracle_energies(gap)
        qcs = critical_q(gap, energies)
        assert qcs.shape == energies.shape
        scalars = [critical_q(gap, float(e)) for e in energies]
        assert all(type(q) is float for q in scalars)
        assert np.array_equal(qcs, scalars)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidGapError):
            critical_q(GapSpectrum(e_minus=0.0, e_plus=1.0), 0.5)
        with pytest.raises(InvalidGapError):
            critical_q(GAP12, 2.5)
        with pytest.raises(InvalidGapError, match="probe energy 2.5 outside"):
            critical_q(GAP12, np.array([1.5, 2.5]))

    def test_qc_below_band_optimum_with_equality_at_ebar(self):
        qbar, ebar, _ = qbar_and_ebar(GAP12)
        for e in np.linspace(1.01, 1.99, 41):
            assert critical_q(GAP12, e) <= qbar + 1e-10
        assert critical_q(GAP12, ebar) == pytest.approx(qbar, abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(GAPS)
    def test_unimodal_with_peak_qbar_at_ebar(self, gap):
        # dq_c/dE has the sign of (E+ - E) - (E - E-) - 2 q_c^2, which vanishes
        # only at Ebar: q_c rises to qbar there when Ebar is in the gap, and
        # falls over the whole gap when Ebar <= E-
        qbar, ebar, in_gap = qbar_and_ebar(gap)
        energies = np.linspace(gap.e_minus, gap.e_plus, 402)[1:-1]
        qcs = critical_q(gap, energies)
        assert np.all(np.diff(qcs[energies > ebar]) < 0.0)
        if in_gap:
            assert np.all(np.diff(qcs[energies < ebar]) > 0.0)
            assert critical_q(gap, ebar) == pytest.approx(qbar, rel=1e-12)
            assert np.max(qcs) <= qbar * (1.0 + 1e-12)
        else:
            assert ebar <= gap.e_minus

    @settings(max_examples=200, deadline=None)
    @given(GAPS)
    def test_edge_laws(self, gap):
        # at a distance eps = 1e-10 G from an edge; a and b are the distances
        # as rounded, so that the laws hold at any E-/G
        em, g = gap.e_minus, gap.gap
        e = gap.e_plus - 1e-10 * g
        a = gap.e_plus - e
        assert critical_q(gap, e) ** 2 / a == pytest.approx(g / (4.0 * em + g), rel=1e-7)
        e = gap.e_minus + 1e-10 * g
        b = e - gap.e_minus
        if g < 4.0 * em:
            assert critical_q(gap, e) ** 2 / b == pytest.approx(g / (4.0 * em - g), rel=1e-7)
        else:
            assert critical_q(gap, e) == pytest.approx(math.sqrt(g - 4.0 * em), rel=1e-7)

    def test_edge_scaling_slopes(self):
        # log-log slope 0.5 +- 0.03 over the closest 1% of the gap, both edges
        for gap in (GAP12, GapSpectrum(e_minus=9.87, e_plus=15.05)):
            dists = np.geomspace(1e-4, 0.01, 15) * gap.gap
            for edge in ("upper", "lower"):
                if edge == "upper":
                    qcs = [critical_q(gap, gap.e_plus - d) for d in dists]
                else:
                    qcs = [critical_q(gap, gap.e_minus + d) for d in dists]
                slope = np.polyfit(np.log(dists), np.log(qcs), 1)[0]
                assert abs(slope - 0.5) < 0.03


class TestBoundConstant:
    def test_q_zero(self):
        inputs = BoundInputs(gap=GAP12, energy=1.25, q=0.0, eps=0.5, dim=1)
        assert bound_constant(inputs) == pytest.approx(1.0 / (1.0 * 0.25))

    def test_divergence_at_critical(self):
        qc = critical_q(GAP12, 1.4375)
        values = [
            bound_constant(BoundInputs(gap=GAP12, energy=1.4375, q=f * qc, eps=0.5))
            for f in (0.9, 0.99, 0.999)
        ]
        assert values[0] < values[1] < values[2]
        assert values[2] > 100 * values[0] / (1 + 0) * 0.01  # grows without bound
        with pytest.raises(QBeyondCriticalError):
            bound_constant(BoundInputs(gap=GAP12, energy=1.4375, q=qc, eps=0.5))

    def test_frozen_hand_value(self):
        # E-=1, E+=2, E=1.4375, q=0.2, eps=0.5, d=1, evaluated by hand twice
        c = bound_constant(BoundInputs(gap=GAP12, energy=1.4375, q=0.2, eps=0.5, dim=1))
        assert c == pytest.approx(12.841645462882283, rel=1e-12)
        assert decay_envelope(GAP12, 1.4375, 0.2) == pytest.approx(0.24974674672555797, rel=1e-12)

    def test_shift_leaves_gap(self):
        gap = GapSpectrum(e_minus=1.0, e_plus=1.3)
        with pytest.raises((ShiftLeavesGapError, QBeyondCriticalError)):
            bound_constant(BoundInputs(gap=gap, energy=1.29, q=0.12, eps=0.5))

    def test_monotone_in_q(self):
        for energy in (1.2, 1.4375, 1.7):
            qc = critical_q(GAP12, energy)
            qs = np.linspace(0.0, 0.98 * qc, 30)
            cs = [
                bound_constant(BoundInputs(gap=GAP12, energy=energy, q=q, eps=0.5))
                for q in qs
            ]
            assert np.all(np.diff(cs) > 0)

    def test_validates_once(self, monkeypatch):
        calls = []
        validate = decay._validate_gap
        monkeypatch.setattr(decay, "_validate_gap", lambda *a: calls.append(a) or validate(*a))
        inputs = BoundInputs(gap=GAP12, energy=1.4375, q=0.2, eps=0.5)
        bound_constant(inputs)
        assert len(calls) == 1

    @pytest.mark.parametrize("eps, dim, key", [
        (1e6, 1, "eps"),        # e^{2 q eps} overflows math.exp
        (0.5, 400, "dim"),      # Gamma(dim / 2 + 1) overflows math.gamma
        (1e-200, 2, "eps"),     # eps**dim underflows to 0: the ball volume is 0
        (1e200, 2, "eps"),      # eps**dim overflows
        (math.inf, 1, "eps"),   # inf / inf: C would be NaN
        (math.nan, 1, "eps"),   # passes BoundInputs' eps > 0 test
    ], ids=["exp_overflow", "gamma_overflow", "ball_underflow", "ball_overflow", "inf_eps", "nan_eps"])
    def test_c_outside_the_double_range_raises(self, eps, dim, key):
        # C is positive by construction; a C that over- or underflows, or is
        # NaN, is refused rather than returned or raised as OverflowError
        inputs = BoundInputs(gap=GAP12, energy=1.4375, q=0.5 * critical_q(GAP12, 1.4375), eps=eps, dim=dim)
        with pytest.raises(PreconditionError, match=f"not a finite positive double .* {key} = "):
            bound_constant(inputs)

    @settings(max_examples=50, deadline=None)
    @given(eps=st.floats(1e-300, 1e300), dim=st.integers(1, 1000), frac=st.floats(0.0, 0.99))
    def test_finite_or_raises(self, eps, dim, frac):
        # whatever the inputs, C is a finite positive double or PreconditionError
        inputs = BoundInputs(gap=GAP12, energy=1.4375, q=frac * critical_q(GAP12, 1.4375), eps=eps, dim=dim)
        try:
            c = bound_constant(inputs)
        except PreconditionError:
            return
        assert 0.0 < c < math.inf

    def test_not_invariant_under_energy_shift(self):
        # only (E+ - E) and (E - E-) are shift invariant; the 4 E- denominator
        # is not, so q_c strictly decreases when the origin moves down
        base = critical_q(GAP12, 1.4375)
        shifted_gap = GapSpectrum(e_minus=2.0, e_plus=3.0)
        shifted = critical_q(shifted_gap, 2.4375)
        assert shifted < base


class TestQbarEbar:
    def test_unit_gap(self):
        qbar, ebar, in_gap = qbar_and_ebar(GAP12)
        assert qbar == pytest.approx(0.25)
        assert ebar == pytest.approx(1.4375)
        assert in_gap

    def test_metallic_limit(self):
        qbar, _, _ = qbar_and_ebar(GapSpectrum(e_minus=1.0, e_plus=1.0 + 1e-9))
        assert qbar < 1e-9

    def test_ebar_can_leave_gap(self):
        qbar, ebar, in_gap = qbar_and_ebar(GapSpectrum(e_minus=0.01, e_plus=10.0))
        assert ebar < 0.01
        assert not in_gap

    def test_e_minus_zero_rejected(self):
        with pytest.raises(InvalidGapError):
            qbar_and_ebar(GapSpectrum(e_minus=0.0, e_plus=1.0))


class TestCertify:
    def _inputs(self, q=0.2):
        return BoundInputs(gap=GAP12, energy=1.4375, q=q, eps=0.5, dim=1)

    def test_empty_vacuous_pass(self):
        report = certify_bound([], self._inputs())
        assert report.passed
        assert report.margins.size == 0

    def test_synthetic_margin(self):
        inputs = self._inputs()
        c = bound_constant(inputs)
        seps = np.array([2.0, 5.0, 9.0])
        vals = c * np.exp(-inputs.q * seps) * math.exp(-0.1)
        report = certify_bound(np.column_stack([seps, vals]), inputs)
        assert report.passed
        assert report.margins.min() == pytest.approx(0.1, abs=1e-12)

    def test_violation_detected(self):
        inputs = self._inputs()
        c = bound_constant(inputs)
        report = certify_bound([(3.0, 2.0 * c * math.exp(-inputs.q * 3.0))], inputs)
        assert not report.passed
        assert report.margins.min() < 0
