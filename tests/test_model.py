"""Domain types, fading statistics, and beamforming/selection kernels."""

import math

import numpy as np
import pytest
import scipy.stats

from relaysec.model import (
    ChannelDraw,
    LinkGains,
    PowerAllocation,
    Scheme,
    SchemeId,
    SelectionMode,
    SopEstimate,
    SystemParams,
    db_to_linear,
    derived_coefficients,
    linear_to_db,
    mmse_sinr_relay_cj,
    mrc_mrt_snr_terms,
    sample_channel,
    sample_channel_block,
    select_antennas,
    threshold_t,
)


class TestTypes:
    def test_link_gains_validation(self):
        with pytest.raises(ValueError):
            LinkGains(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            LinkGains(1.0, -2.0, 1.0)
        with pytest.raises(ValueError):
            LinkGains(1.0, 1.0, math.inf)

    def test_system_params_validation(self):
        with pytest.raises(ValueError):
            SystemParams(rho=0.0)
        with pytest.raises(ValueError):
            SystemParams(rho=1.0, k_antennas=0)
        with pytest.raises(ValueError):
            SystemParams(rho=1.0, rate=-0.1)

    def test_dt_without_csi_rejected(self):
        with pytest.raises(ValueError):
            SchemeId(Scheme.DT, SelectionMode.SELECT_NOCSI)
        SchemeId(Scheme.DT, SelectionMode.SELECT_CSI)  # fine

    def test_power_allocation_bounds(self):
        with pytest.raises(ValueError):
            PowerAllocation(frac_alice=1.2)
        with pytest.raises(ValueError):
            PowerAllocation(frac_relay=-0.1)

    def test_sop_estimate_invariants(self):
        with pytest.raises(ValueError):
            SopEstimate(value=1.5)
        with pytest.raises(ValueError):
            SopEstimate(value=0.3, stderr=0.01, method="analytic")
        SopEstimate(value=0.0, stderr=0.0, trials=100, method="montecarlo")

    def test_channel_draw_shape_check(self):
        with pytest.raises(ValueError):
            ChannelDraw(h_ab=1.0, h_ar=np.ones(2, complex), h_rb=np.ones(3, complex))


class TestDbConversion:
    @pytest.mark.parametrize("db,lin", [(0.0, 1.0), (10.0, 10.0), (5.0, 3.1622776601683795)])
    def test_values(self, db, lin):
        assert db_to_linear(db) == pytest.approx(lin, rel=1e-12)

    def test_roundtrip(self):
        assert linear_to_db(db_to_linear(7.3)) == pytest.approx(7.3, abs=1e-12)


class TestSampling:
    def test_mean_square_magnitude(self):
        gains = LinkGains(1.0, 0.5, 2.0)
        block = sample_channel_block(gains, 1, seed=1, chunk_index=0, n=1_000_000)
        assert np.mean(np.abs(block.h_ab) ** 2) == pytest.approx(1.0, abs=0.004)

    def test_pairwise_symmetry(self):
        # Equal average gains make either branch the larger with chance 1/2.
        gains = LinkGains(1.0, 1.0, 1.0)
        block = sample_channel_block(gains, 1, seed=2, chunk_index=0, n=1_000_000)
        frac = np.mean(np.abs(block.h_ab) ** 2 > np.abs(block.h_ar[:, 0]) ** 2)
        assert frac == pytest.approx(0.5, abs=0.002)

    def test_variance_matches_exponential(self):
        gains = LinkGains(1.7, 1.0, 1.0)
        n = 500_000
        block = sample_channel_block(gains, 1, seed=3, chunk_index=0, n=n)
        sq = np.abs(block.h_ab) ** 2
        # The sample variance of an exponential(mean g) has sdev ~ g^2*sqrt(8/n).
        assert abs(np.var(sq) - 1.7**2) < 3.0 * 1.7**2 * math.sqrt(8.0 / n)

    def test_kolmogorov_smirnov_exponential(self):
        gains = LinkGains(0.8, 1.0, 1.0)
        block = sample_channel_block(gains, 1, seed=4, chunk_index=0, n=100_000)
        sq = np.abs(block.h_ab) ** 2
        res = scipy.stats.kstest(sq, "expon", args=(0.0, 0.8))
        assert res.pvalue > 1e-3

    def test_block_reproducibility(self):
        gains = LinkGains(1.0, 1.0, 1.0)
        a = sample_channel_block(gains, 3, seed=42, chunk_index=5, n=128)
        b = sample_channel_block(gains, 3, seed=42, chunk_index=5, n=128)
        assert np.array_equal(a.h_ab, b.h_ab)
        assert np.array_equal(a.h_ar, b.h_ar)
        assert np.array_equal(a.h_rb, b.h_rb)
        assert np.array_equal(a.tx_pick, b.tx_pick)
        c = sample_channel_block(gains, 3, seed=42, chunk_index=6, n=128)
        assert not np.array_equal(a.h_ab, c.h_ab)

    def test_single_draw(self):
        rng = np.random.default_rng(0)
        draw = sample_channel(LinkGains(1.0, 1.0, 1.0), 4, rng)
        assert draw.k == 4
        with pytest.raises(ValueError):
            sample_channel(LinkGains(1.0, 1.0, 1.0), 0, rng)


def _draw(h_ab, h_ar, h_rb):
    return ChannelDraw(
        h_ab=complex(h_ab),
        h_ar=np.asarray(h_ar, dtype=complex),
        h_rb=np.asarray(h_rb, dtype=complex),
    )


class TestAntennaSelection:
    def test_single_antenna(self):
        draw = _draw(1.0, [0.5], [0.7])
        for scheme in (
            SchemeId(Scheme.AF, SelectionMode.SELECT_CSI),
            SchemeId(Scheme.CJ, SelectionMode.SELECT_CSI),
            SchemeId(Scheme.CJ, SelectionMode.SELECT_NOCSI),
        ):
            assert select_antennas(draw, scheme) == (0, 0)

    def test_first_hop_argmax(self):
        draw = _draw(1.0, [1.0, 3.0, 2.0], [1.0, 1.0, 1.0])
        m, _ = select_antennas(draw, SchemeId(Scheme.AF, SelectionMode.SELECT_CSI))
        assert m == 1

    def test_cj_ratio_rule(self):
        draw = _draw(1.0, [2.0, 1.0], [math.sqrt(2.0), math.sqrt(0.1)])
        m, n = select_antennas(draw, SchemeId(Scheme.CJ, SelectionMode.SELECT_CSI))
        assert m == 1  # 1/0.1 beats 4/2
        assert n == 0

    def test_cj_nocsi_reuses_receive_antenna(self):
        draw = _draw(1.0, [1.0, 5.0, 2.0], [9.0, 1.0, 4.0])
        assert select_antennas(draw, SchemeId(Scheme.CJ, SelectionMode.SELECT_NOCSI)) == (1, 1)

    def test_af_nocsi_needs_rng(self):
        draw = _draw(1.0, [1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            select_antennas(draw, SchemeId(Scheme.AF, SelectionMode.SELECT_NOCSI))
        m, n = select_antennas(
            draw, SchemeId(Scheme.AF, SelectionMode.SELECT_NOCSI), rng=np.random.default_rng(0)
        )
        assert m == 1 and n in (0, 1)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            draw = sample_channel(LinkGains(1.0, 1.0, 1.0), 5, rng)
            scaled = _draw(draw.h_ab * 3.7, draw.h_ar * 3.7, draw.h_rb * 3.7)
            for scheme in (
                SchemeId(Scheme.AF, SelectionMode.SELECT_CSI),
                SchemeId(Scheme.CJ, SelectionMode.SELECT_CSI),
                SchemeId(Scheme.CJ, SelectionMode.SELECT_NOCSI),
            ):
                assert select_antennas(draw, scheme) == select_antennas(scaled, scheme)


class TestMmseSinr:
    def test_orthogonal_vectors(self):
        draw = _draw(0.0, [1.0, 0.0], [0.0, 1.0])
        rho = 13.0
        assert mmse_sinr_relay_cj(draw, rho) == pytest.approx(rho * 1.0, rel=1e-12)

    def test_scalar_case(self):
        draw = _draw(0.0, [0.9 + 0.3j], [0.2 - 0.7j])
        rho = 8.0
        har2 = abs(draw.h_ar[0]) ** 2
        hrb2 = abs(draw.h_rb[0]) ** 2
        assert mmse_sinr_relay_cj(draw, rho) == pytest.approx(har2 / (hrb2 + 1.0 / rho), rel=1e-12)

    def test_dense_solve_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            draw = sample_channel(LinkGains(1.0, 0.7, 1.9), 4, rng)
            rho = float(10.0 ** rng.uniform(-1, 3))
            matrix = np.outer(draw.h_rb, np.conj(draw.h_rb)) + np.eye(4) / rho
            oracle = float(np.real(np.vdot(draw.h_ar, np.linalg.solve(matrix, draw.h_ar))))
            assert mmse_sinr_relay_cj(draw, rho) == pytest.approx(oracle, rel=1e-10)

    def test_bounds(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            draw = sample_channel(LinkGains(1.0, 1.0, 1.0), 3, rng)
            rho = 50.0
            sinr = mmse_sinr_relay_cj(draw, rho)
            assert 0.0 <= sinr <= rho * np.sum(np.abs(draw.h_ar) ** 2) + 1e-12


class TestMrcMrtTerms:
    def test_strong_second_hop_saturates(self):
        gains = LinkGains(1.0, 1.0, 1.0)
        params = SystemParams(rho=10.0, k_antennas=1)
        draw = _draw(1.0, [2.0], [1e6])
        direct, num, den = mrc_mrt_snr_terms(draw, gains, params)
        assert num / den == pytest.approx(10.0 * 4.0, rel=1e-4)

    def test_single_antenna_matches_general(self):
        gains = LinkGains(1.0, 0.6, 1.4)
        params = SystemParams(rho=7.0, k_antennas=1)
        draw = _draw(0.3 + 0.1j, [1.1 - 0.2j], [0.8 + 0.5j])
        direct, num, den = mrc_mrt_snr_terms(draw, gains, params)
        har2 = abs(draw.h_ar[0]) ** 2
        hrb2 = abs(draw.h_rb[0]) ** 2
        assert direct == pytest.approx(7.0 * abs(draw.h_ab) ** 2, rel=1e-12)
        assert num / den == pytest.approx(
            7.0 * hrb2 * har2 / (hrb2 + 0.6 + 1.0 / 7.0), rel=1e-12
        )

    def test_matrix_form_oracle(self):
        # Recompute the second-phase SNR from the two-row signal model with
        # unnormalized power and noise floors.
        gains = LinkGains(1.3, 0.8, 2.1)
        power, noise = 3.7, 0.21
        params = SystemParams(rho=power / noise, k_antennas=3)
        rng = np.random.default_rng(31)
        for _ in range(10):
            draw = sample_channel(gains, 3, rng)
            sum_a = float(np.sum(np.abs(draw.h_ar) ** 2))
            sum_b = float(np.sum(np.abs(draw.h_rb) ** 2))
            sigma2 = 3 * (power * gains.gamma_ar + noise)
            signal = (power / sigma2) * sum_b * sum_a * power
            amplified_noise = (power / sigma2) * sum_b * noise + noise
            direct, num, den = mrc_mrt_snr_terms(draw, gains, params)
            assert num / den == pytest.approx(signal / amplified_noise, rel=1e-12)
            assert direct == pytest.approx(power * abs(draw.h_ab) ** 2 / noise, rel=1e-12)

    def test_power_fractions_scale(self):
        gains = LinkGains(1.0, 1.0, 1.0)
        draw = _draw(1.0, [1.0], [1.0])
        half = SystemParams(
            rho=10.0, k_antennas=1, power=PowerAllocation(frac_alice=0.5, frac_relay=1.0)
        )
        direct, num, den = mrc_mrt_snr_terms(draw, gains, half)
        assert direct == pytest.approx(5.0, rel=1e-12)
        # Alice at half power halves the forwarded signal and the relay's
        # statistical input power alike.
        assert num == pytest.approx(5.0, rel=1e-12)
        assert den == pytest.approx(1.0 + 0.5 * 1.0 + 1.0 / 10.0, rel=1e-12)


class TestDerivedCoefficients:
    def test_zero_rate_collapse(self):
        gains = LinkGains(2.0, 1.0, 3.0)
        params = SystemParams(rho=25.0, rate=0.0)
        coef = derived_coefficients(gains, params)
        assert coef.beta2 == pytest.approx(coef.beta1, rel=1e-12)
        s = gains.gamma_ar + gains.gamma_rb + 1.0 / 25.0
        assert coef.t == pytest.approx(math.sqrt(s / 25.0), rel=1e-12)

    def test_root_of_phi(self):
        gains = LinkGains(1.0, 2.0, 0.5)
        params = SystemParams(rho=100.0, rate=0.3)
        coef = derived_coefficients(gains, params)
        assert abs(coef.phi(coef.t)) < 1e-12
        assert coef.phi(0.5 * coef.t) < 0.0 < coef.phi(2.0 * coef.t)

    def test_equal_gains_beta1(self):
        gains = LinkGains(1.4, 1.4, 1.0)
        coef = derived_coefficients(gains, SystemParams(rho=10.0))
        assert coef.beta1 == pytest.approx(2.0, rel=1e-12)

    def test_beta_sequence(self):
        gains = LinkGains(1.0, 3.0, 1.0)
        params = SystemParams(rho=10.0, rate=0.4, k_antennas=5)
        coef = derived_coefficients(gains, params)
        assert coef.beta2 >= 1.0

    def test_uncorrected_threshold_is_smaller(self):
        gains = LinkGains(1.0, 1.0, 3.0)
        params = SystemParams(rho=100.0, rate=0.1)
        assert threshold_t(gains, params, paper_printed=True) < threshold_t(gains, params)
