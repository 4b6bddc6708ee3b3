"""Simulation engine: the signal model, estimates, determinism, sweeps."""

import csv
import io
import math
import warnings
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
import scipy.stats

from conftest import hop, rate_margins, wedge
from relaysec import LinkGains, McConfig, SchemeId, SystemParams, db_to_linear
from relaysec import analytic, model, montecarlo
from relaysec.cli import main
from relaysec.model import (
    PowerAllocation,
    Scheme,
    SelectionMode,
    sample_channel_block,
)
from relaysec.montecarlo import estimate_sop, estimate_sop_many, rate_margins_block


def _relay_sinr(p_a, p_j, noise, h_ar, h_rb, w=None) -> float:
    """p_a |w^H h_ar|^2 / (w^H R w), R = p_j h_rb h_rb^H + noise I, in 40 digits;
    w = R^{-1} h_ar (MMSE) unless given.  Strong jamming makes R as
    ill-conditioned as p_j |h_rb|^2 / noise, beyond what doubles resolve."""
    with mpmath.workdps(40):
        h, g = (mpmath.matrix([mpmath.mpc(complex(x)) for x in v]) for v in (h_ar, h_rb))
        r = mpmath.mpf(float(p_j)) * g * g.H + mpmath.mpf(float(noise)) * mpmath.eye(len(h))
        w = mpmath.lu_solve(r, h) if w is None else mpmath.matrix([mpmath.mpc(complex(x)) for x in w])
        return float(mpmath.mpf(float(p_a)) * abs((w.H * h)[0]) ** 2 / mpmath.re((w.H * r * w)[0]))


def _cj_relay_sinr(block, gains, params) -> np.ndarray:
    """The CJ relay's SINR per trial, from the block's coefficients, with no
    cancellation: one antenna's SINR under selection, on the antenna it
    receives on, and MMSE against the jamming on the full array, which
    Lagrange's identity turns into p_a (|h|^2 + p_j |h ^ g|^2) / (1 + p_j |g|^2),
    |h ^ g|^2 = |h|^2 |g|^2 - |g^H h|^2 (see ``conftest.wedge``)."""
    p_a = params.power.frac_alice * params.rho * gains.gamma_ar
    p_j = params.power.frac_bob_jam * params.rho * gains.gamma_rb
    h_ar, h_rb = hop(block, "h_ar"), hop(block, "h_rb")
    g_ar, g_rb = np.abs(h_ar) ** 2, np.abs(h_rb) ** 2
    if params.scheme.mode is SelectionMode.FULL_ARRAY:
        return p_a * (g_ar.sum(axis=1) + p_j * wedge(h_ar, h_rb)) / (1.0 + p_j * g_rb.sum(axis=1))
    rx = np.argmax(g_ar / g_rb if params.scheme.mode is SelectionMode.SELECT_CSI else g_ar, axis=1)
    rows = np.arange(rx.size)
    return p_a * g_ar[rows, rx] / (1.0 + p_j * g_rb[rows, rx])


def _dense_margin(block, i, gains, params, noise):
    """Margin of trial ``i`` from explicit powers, a noise floor and dense matrices.

    The block's unit-mean coefficients are scaled by sqrt(gamma) of their
    link first, so a gain the kernel misses shows.  The relay receives
    y = sqrt(P_a) h_ar s [+ sqrt(P_j) h_rb z] + n on K antennas, eavesdrops
    through a combiner w (MRC, MMSE against the jamming, or a selected
    antenna) and forwards beta * F y with F = t w_f^H, where
    beta normalizes by the statistical power of the raw received vector (or
    of the selected antenna).  Bob combines the direct and forwarded rows
    (AF) or cancels his own jamming (CJ).  Antenna picks are explicit argmaxes.
    """
    k = params.k_antennas
    scheme, mode = params.scheme.scheme, params.scheme.mode
    power = params.power
    p_a, p_r, p_j = (f * params.rho * noise for f in (power.frac_alice, power.frac_relay, power.frac_bob_jam))
    if scheme is not Scheme.CJ:
        p_j = 0.0
    h_ab, h_ar, h_rb = (math.sqrt(gamma) * h for gamma, h in zip(
        (gains.gamma_ab, gains.gamma_ar, gains.gamma_rb), (block.h_ab[i], hop(block, "h_ar")[i], hop(block, "h_rb")[i])))
    g_ar, g_rb = np.abs(h_ar) ** 2, np.abs(h_rb) ** 2

    def argmax(values):
        return max(range(k), key=lambda m: values[m])

    def unit(m):
        return np.eye(k)[m].astype(complex)

    if mode is SelectionMode.FULL_ARRAY:
        w_f = h_ar / np.linalg.norm(h_ar)
        t = np.conj(h_rb) / np.linalg.norm(h_rb)
        w_eav = None
        antennas = k
    else:
        if scheme is Scheme.CJ and mode is SelectionMode.SELECT_CSI:
            m, n = argmax(g_ar / g_rb), argmax(g_rb)
        elif scheme is Scheme.CJ:
            m = n = argmax(g_ar)
        elif mode is SelectionMode.SELECT_CSI:
            m, n = argmax(g_ar), argmax(g_rb)
        else:
            m, n = argmax(g_ar), int(block.tx_pick[i])
        w_f = w_eav = unit(m)
        t = unit(n)
        antennas = 1
    relay_sinr = _relay_sinr(p_a, p_j, noise, h_ar, h_rb, w_eav)

    if scheme is Scheme.DT:
        return math.log2(1.0 + p_a * abs(h_ab) ** 2 / noise) - math.log2(1.0 + relay_sinr)

    beta = math.sqrt(p_r / (antennas * (p_a * gains.gamma_ar + p_j * gains.gamma_rb + noise)))
    f = np.outer(t, np.conj(w_f))
    relayed = beta * math.sqrt(p_a) * (h_rb @ f @ h_ar)
    relayed_noise = beta**2 * noise * np.linalg.norm(h_rb @ f) ** 2 + noise
    if scheme is Scheme.AF:
        rows = np.array([math.sqrt(p_a) * h_ab, relayed])
        cov = np.diag([noise, relayed_noise])
    else:  # the jamming Bob forwarded back to himself is known and cancelled
        rows = np.array([relayed])
        cov = np.array([[relayed_noise]])
    bob_snr = np.real(np.vdot(rows, np.linalg.solve(cov, rows)))
    return 0.5 * math.log2(1.0 + bob_snr) - 0.5 * math.log2(1.0 + relay_sinr)


class TestKernelOracles:
    # Each gain alone at +-100 dB, and a silent relay or jammer: the kernel
    # folds the gains into its scalar factors, where an overflow or a 0 * inf
    # would show against the oracle.
    _EXTREMES = (
        *((which, db, None) for which in range(3) for db in (-100.0, 100.0)),
        (None, None, PowerAllocation(0.7, 0.0, 0.6)),
        (None, None, PowerAllocation(0.7, 0.8, 0.0)),
    )

    def test_margins_match_dense_oracles(self, scheme):
        rng = np.random.default_rng(2468)
        for k in range(1, 5):
            for case in range(4 + len(self._EXTREMES)):
                gains_db = rng.uniform(-5.0, 5.0, 3)
                rho = db_to_linear(rng.uniform(-5.0, 30.0))
                power = PowerAllocation(*rng.uniform(0.05, 1.0, 3))
                if case >= 4:
                    which, db, silent = self._EXTREMES[case - 4]
                    if which is not None:
                        gains_db[which] = db
                    power = silent or power
                gains = LinkGains(*(db_to_linear(v) for v in gains_db))
                params = SystemParams(rho=rho, k_antennas=k, scheme=scheme, power=power)
                noise = float(rng.uniform(0.1, 3.0))
                block = sample_channel_block(k, seed=int(rng.integers(1 << 32)), chunk_index=case, n=16)
                expected = [_dense_margin(block, i, gains, params, noise) for i in range(16)]
                np.testing.assert_allclose(
                    rate_margins(block, gains, params), expected, rtol=1e-10, atol=1e-12,
                    err_msg=f"K = {k}, gains {gains}, {params.power}",
                )


    @pytest.mark.parametrize("gains_db,rho_db,power", [
        ((17.0, 46.3, 83.3), 67.9, PowerAllocation()),
        ((-38.6, 288.4, 240.6), -104.8, PowerAllocation(1.0, 0.0, 1.0)),
    ])
    def test_single_antenna_cj_array_matches_exact_margin(self, gains_db, rho_db, power):
        # The array's MMSE form, a difference, cancels under strong jamming:
        # at K = 1 it was off these margins by 3.8e-4 and 0.1 bit.
        gains = LinkGains(*(db_to_linear(v) for v in gains_db))
        params = SystemParams(rho=db_to_linear(rho_db), scheme=SchemeId(Scheme.CJ), power=power)
        block = sample_channel_block(1, seed=37, chunk_index=0, n=256)
        with mpmath.workdps(60):
            a, r, j = (mpmath.mpf(f) for f in (power.frac_alice, power.frac_relay, power.frac_bob_jam))
            rho, g_ar, g_rb = (mpmath.mpf(v) for v in (params.rho, gains.gamma_ar, gains.gamma_rb))
            expected = []
            for h_ar, h_rb in zip(hop(block, "h_ar")[:, 0], hop(block, "h_rb")[:, 0]):
                hop1, hop2 = (abs(mpmath.mpc(complex(h))) ** 2 for h in (h_ar, h_rb))
                relay = a * rho * g_ar * hop1 / (1 + j * rho * g_rb * hop2)
                bob = a * rho * g_ar * hop1 * hop2 / (hop2 + (a * g_ar + j * g_rb + 1 / rho) / (r * g_rb)) if r else 0
                expected.append(float(mpmath.log((1 + bob) / (1 + relay), 2) / 2))
        np.testing.assert_allclose(rate_margins(block, gains, params), expected, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("k", [2, 4, 8])
    @pytest.mark.parametrize("gains_db,rho_db", [((17.0, 46.3, 83.3), 67.9), ((0.0, 0.0, 30.0), 60.0)])
    def test_cj_array_matches_lagrange_margin_under_strong_jamming(self, k, gains_db, rho_db):
        # The relay escapes the jamming only through h_ar's part orthogonal
        # to h_rb, whose gain Q = |h_ar|^2 |h_rb|^2 - |h_rb^H h_ar|^2 cancels
        # as h_ar nears h_rb's direction, by the factor |h_ar|^2 |h_rb|^2 / Q.
        # So a margin may be off by a few eps times that factor beyond
        # 1e-13 bit: up to 5e-13 bit at K = 2 here.
        gains = LinkGains(*(db_to_linear(v) for v in gains_db))
        params = SystemParams(rho=db_to_linear(rho_db), k_antennas=k, scheme=SchemeId(Scheme.CJ))
        block = sample_channel_block(k, seed=41, chunk_index=k, n=4096)
        h_ar, h_rb = hop(block, "h_ar"), hop(block, "h_rb")
        cancellation = np.sum(np.abs(h_ar) ** 2, axis=1) * np.sum(np.abs(h_rb) ** 2, axis=1) / wedge(h_ar, h_rb)
        error = np.abs(rate_margins(block, gains, params) - _two_log_margins(block, gains, params))
        assert np.all(error <= 1e-13 + 4.0 * np.finfo(np.float64).eps * cancellation)


def _two_log_margins(block, gains, params) -> np.ndarray:
    """pre * (log2(1 + S_B) - log2(1 + S_R)), two logarithms and a difference,
    with Bob's SNR S_B and the relay's S_R from the block's coefficients: the
    array's per-trial sums, or each hop's gain on the antenna picked by an
    explicit argmax (the block's uniform pick for AF without CSI)."""
    scheme, mode, k = params.scheme.scheme, params.scheme.mode, params.k_antennas
    a, r, j = params.power.frac_alice, params.power.frac_relay, params.power.frac_bob_jam
    rho = params.rho
    g_ab = np.abs(block.h_ab) ** 2
    g_ar, g_rb = np.abs(hop(block, "h_ar")) ** 2, np.abs(hop(block, "h_rb")) ** 2
    rows = np.arange(g_ab.size)
    if mode is SelectionMode.FULL_ARRAY:
        m, hop1, hop2 = k, g_ar.sum(axis=1), g_rb.sum(axis=1)
    else:
        csi = mode is SelectionMode.SELECT_CSI
        if scheme is Scheme.CJ:
            rx = np.argmax(g_ar / g_rb if csi else g_ar, axis=1)
            tx = np.argmax(g_rb, axis=1) if csi else rx
        else:
            rx = np.argmax(g_ar, axis=1)
            tx = np.argmax(g_rb, axis=1) if csi else block.tx_pick
        m, hop1, hop2 = 1, g_ar[rows, rx], g_rb[rows, tx]
    direct = a * rho * gains.gamma_ab * g_ab
    if scheme is Scheme.DT:
        return np.log2(1.0 + direct) - np.log2(1.0 + a * rho * gains.gamma_ar * hop1)
    forwarded = np.zeros(g_ab.size)
    if r > 0.0:
        floor = ((a / r) * m * gains.gamma_ar + m / (r * rho)) / gains.gamma_rb
        if scheme is Scheme.CJ:
            floor += (j / r) * m
        forwarded = a * rho * gains.gamma_ar * hop1 * hop2 / (hop2 + floor)
    if scheme is Scheme.AF:
        s_b, s_r = direct + forwarded, a * rho * gains.gamma_ar * hop1
    else:
        s_b, s_r = forwarded, _cj_relay_sinr(block, gains, params)
    return 0.5 * (np.log2(1.0 + s_b) - np.log2(1.0 + s_r))


class TestOneLogMargin:
    """The kernel's margins, one logarithm pre * log2((1 + S_B) / (1 + S_R))
    of the pair ``_rates`` builds, and its outage flags, which compare the
    pair with no logarithm, against the two-logarithm reference."""

    _POWERS = {
        "full": PowerAllocation(),
        "split": PowerAllocation(0.7, 0.4, 0.6),
        "silent-relay": PowerAllocation(0.7, 0.0, 0.6),
        "no-jamming": PowerAllocation(0.7, 0.8, 0.0),
    }

    @pytest.mark.parametrize("power", _POWERS)
    @pytest.mark.parametrize("k", [1, 3])
    def test_margins_match_two_logarithms(self, scheme, k, power, fig8_gains):
        params = SystemParams(rho=db_to_linear(15.0), k_antennas=k, scheme=scheme, power=self._POWERS[power])
        block = sample_channel_block(k, seed=23, chunk_index=k, n=4096)
        np.testing.assert_allclose(
            rate_margins(block, fig8_gains, params), _two_log_margins(block, fig8_gains, params),
            rtol=0.0, atol=1e-12,
        )

    @pytest.mark.parametrize("k", [1, 3])
    def test_outage_flags_match_two_logarithms(self, scheme, k):
        # The flags decide 2^{-R/pre} (1 + S_B) < 1 + S_R.  The rates reach
        # R = 511, where 2^{R/pre} (1 + S_R) would overflow; the settings
        # take each gain to +-100 dB and silence the relay or the jammer;
        # 20,000 trials span three of the kernel's row tiles.
        block = sample_channel_block(k, seed=43, chunk_index=k, n=20_000)
        for which, db, silent in ((None, None, None), *TestKernelOracles._EXTREMES):
            gains_db = [0.0, 0.0, 2.0]
            if which is not None:
                gains_db[which] = db
            gains = LinkGains(*(db_to_linear(v) for v in gains_db))
            params = SystemParams(rho=db_to_linear(15.0), k_antennas=k, scheme=scheme,
                                  power=silent or PowerAllocation(0.7, 0.4, 0.6))
            margins = _two_log_margins(block, gains, params)
            for rate in (0.0, 0.1, 2.15, 511.0):
                np.testing.assert_array_equal(
                    rate_margins_block(block, gains, replace(params, rate=rate)), margins < rate,
                    err_msg=f"{gains}, {params.power}, R = {rate}",
                )

    def test_estimates_take_no_logarithm(self, all_schemes, fig8_gains, monkeypatch):
        def log2(*args, **kwargs):
            raise AssertionError("the outage count took a logarithm")

        monkeypatch.setattr(np, "log2", log2)
        for scheme in all_schemes:
            for k in (1, 3):
                params = SystemParams(rho=db_to_linear(15.0), k_antennas=k, scheme=scheme)
                assert 0.0 < estimate_sop(fig8_gains, params, McConfig(trials=4096, seed=3)).value < 1.0

    @pytest.mark.parametrize("figure", [1, 8])
    def test_outage_counts_match_two_logarithms(self, all_schemes, figure, fig1_gains, fig8_gains):
        # Figure 1 sweeps the SNR at K = 1, figure 8 the antennas at 12 dB.
        gains, settings = {
            1: (fig1_gains, [(rho_db, 1) for rho_db in (0.0, 20.0, 40.0)]),
            8: (fig8_gains, [(12.0, k) for k in (1, 3, 10)]),
        }[figure]
        mc = McConfig(trials=1 << 16, seed=29)
        for rho_db, k in settings:
            block = sample_channel_block(k, seed=mc.seed, chunk_index=0, n=mc.trials)
            for scheme in all_schemes:
                params = SystemParams(rho=db_to_linear(rho_db), k_antennas=k, scheme=scheme)
                expected = np.count_nonzero(_two_log_margins(block, gains, params) < params.rate)
                assert estimate_sop(gains, params, mc).value * mc.trials == expected, (rho_db, k, str(scheme))


class TestSecrecyRate:
    """The margin I_B - I_R; the achievable secrecy rate is its positive part."""

    def test_dt_equal_channels(self, channel_block):
        gains = LinkGains(1.0, 1.0, 1.0)
        block = channel_block(1.0, [1.0], [0.5])
        params = SystemParams(rho=10.0, scheme=SchemeId(Scheme.DT))
        assert rate_margins(block, gains, params)[0] == 0.0

    def test_margin_is_not_clipped(self, channel_block):
        gains = LinkGains(1.0, 1.0, 1.0)
        block = channel_block(0.1, [2.0], [0.5])  # eavesdropper much stronger
        params = SystemParams(rho=10.0, scheme=SchemeId(Scheme.DT))
        # Kept negative so that a zero target rate still counts it as an outage.
        assert rate_margins(block, gains, params)[0] == pytest.approx(math.log2(1.1 / 41.0), rel=1e-12)

    def test_af_without_relay_path(self, channel_block):
        gains = LinkGains(1.0, 1.0, 1.0)
        rho = 13.0
        h_ab, h_ar = 1.2 + 0.4j, 0.8 - 0.3j
        block = channel_block(h_ab, [h_ar], [1e-30])
        params = SystemParams(rho=rho, scheme=SchemeId(Scheme.AF))
        hab2, har2 = abs(h_ab) ** 2, abs(h_ar) ** 2
        expected = 0.5 * math.log2((1 + rho * hab2) / (1 + rho * har2))
        assert rate_margins(block, gains, params)[0] == pytest.approx(expected, abs=1e-12)

    def test_cj_scalar_formulas(self):
        gains = LinkGains(1.3, 0.8, 2.1)
        rho = 17.0
        params = SystemParams(rho=rho, scheme=SchemeId(Scheme.CJ))
        block = sample_channel_block(1, seed=1, chunk_index=0, n=10)
        margins = rate_margins(block, gains, params)
        for margin, h_ar, h_rb in zip(margins, hop(block, "h_ar")[:, 0], hop(block, "h_rb")[:, 0]):
            # The block's coefficients are unit-mean fading; the gains scale them.
            har2 = gains.gamma_ar * abs(h_ar) ** 2
            hrb2 = gains.gamma_rb * abs(h_rb) ** 2
            i_b = 0.5 * math.log2(
                1 + rho * hrb2 * har2 / (hrb2 + gains.gamma_ar + gains.gamma_rb + 1 / rho)
            )
            i_r = 0.5 * math.log2(1 + har2 / (hrb2 + 1 / rho))
            assert margin == pytest.approx(i_b - i_r, abs=1e-12)

    def test_af_nocsi_needs_transmit_pick(self, channel_block):
        # Without second-hop CSI the relay forwards on the block's random pick:
        # the pick of the stronger second hop matches the CSI selection, the
        # other pick forwards on the weaker hop and loses the secrecy margin.
        gains = LinkGains(1.0, 1.0, 1.0)
        nocsi = SystemParams(rho=10.0, k_antennas=2, scheme=SchemeId(Scheme.AF, SelectionMode.SELECT_NOCSI))
        csi = replace(nocsi, scheme=SchemeId(Scheme.AF, SelectionMode.SELECT_CSI))
        weak, strong = (
            rate_margins(channel_block(1.0, [1.0, 2.0], [1.0, 2.0], tx_pick=pick), gains, nocsi)[0]
            for pick in (0, 1)
        )
        best = rate_margins(channel_block(1.0, [1.0, 2.0], [1.0, 2.0]), gains, csi)[0]
        assert strong == pytest.approx(best, rel=1e-12)
        assert weak < 0.0 < strong

    def test_block_dimension_mismatch(self):
        gains = LinkGains(1.0, 1.0, 1.0)
        block = sample_channel_block(2, seed=0, chunk_index=0, n=8)
        params = SystemParams(rho=10.0, k_antennas=3)
        with pytest.raises(ValueError):
            rate_margins_block(block, gains, params)


class TestSharedFeatures:
    """The schemes of one chunk read each block feature from one computation."""

    @pytest.mark.parametrize("order", ["forward", "reverse"])
    def test_shared_block_matches_fresh_blocks(self, all_schemes, order):
        gains = LinkGains(db_to_linear(1.5), 0.8, db_to_linear(3.0))
        schemes = all_schemes if order == "forward" else all_schemes[::-1]
        for k in range(1, 5):
            shared = sample_channel_block(k, seed=13, chunk_index=k, n=512)
            for scheme in schemes:
                params = SystemParams(
                    rho=db_to_linear(12.0), k_antennas=k, scheme=scheme,
                    power=PowerAllocation(0.9, 0.7, 0.6),
                )
                fresh = replace(shared)  # the same draws with no feature computed yet
                assert np.array_equal(
                    rate_margins(shared, gains, params), rate_margins(fresh, gains, params)
                )

    def test_cached_features_are_read_only(self):
        block = sample_channel_block(3, seed=1, chunk_index=0, n=8)
        features = block.features(
            "g_ab", "sum_a", "sum_b", "argmax_ar", "argmax_rb", "argmax_ratio", "cross", "orthogonal",
            ("g_ar", "argmax_ar"), ("g_rb", "tx_pick"),
        )
        for feature in features:
            assert feature.shape == (8,)
            with pytest.raises(ValueError, match="read-only"):
                feature[0] = 0
        assert block.features("sum_a")[0] is block.features("sum_a")[0]
        pair = ("g_rb", "argmax_ratio")
        assert block.features(pair)[0] is block.features(pair)[0]

    def test_all_pairs_independent_of_workers(self, all_schemes, fig8_gains, monkeypatch):
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 1 << 12)  # ten chunks
        params = [SystemParams(rho=db_to_linear(15.0), k_antennas=3, scheme=s) for s in all_schemes]
        runs = [
            estimate_sop_many(fig8_gains, params, McConfig(trials=40_000, seed=17, workers=w))
            for w in (1, 4)
        ]
        assert runs[0] == runs[1]

    def test_unkept_blocks_are_scored_a_tile_at_a_time(self, all_schemes, fig8_gains, monkeypatch):
        # Figure 8's schemes at K = 4 on two chunks: outside a block scope no
        # block is kept, so no feature is computed over more than one tile of
        # 8192 rows; inside one, the second pass reads kept blocks whole.
        params = [SystemParams(rho=db_to_linear(12.0), k_antennas=4, scheme=s) for s in all_schemes]
        mc = McConfig(trials=131072, seed=19)
        calls, features = [], model.ChannelBlock.features

        def spy(block, *names):
            calls.append((block.kept, block.h_ab.shape[0]))
            return features(block, *names)

        monkeypatch.setattr(model.ChannelBlock, "features", spy)
        unkept = estimate_sop_many(fig8_gains, params, mc)
        assert calls and max(rows for _, rows in calls) <= montecarlo._MARGIN_ROWS
        assert not any(kept for kept, _ in calls)
        calls.clear()
        with model.block_scope():
            for _ in range(2):
                kept = estimate_sop_many(fig8_gains, params, mc)
        assert (True, montecarlo.CHUNK_SIZE) in calls
        assert kept == unkept

    @pytest.mark.parametrize("k", [1, 2, 3, 9, 10])
    def test_tiles_compute_the_features_of_a_whole_block(self, k):
        # Scoring tiles are whole feature tiles, so each sum is taken in a
        # product of the same rows as on the whole block, bit for bit.
        n, names = montecarlo.CHUNK_SIZE - 5, ("sum_a", "sum_b", "orthogonal", ("g_rb", "argmax_ratio"))
        block = sample_channel_block(k, seed=37, chunk_index=2, n=n)
        tiles = [tile.features(*names) for tile in block.tiles(montecarlo._MARGIN_ROWS)]
        assert len(tiles) > 1
        for name, whole, *parts in zip(names, block.features(*names), *tiles):
            assert np.array_equal(np.concatenate(parts), whole), name

    def test_single_antenna_modes_read_the_full_array_features(self, all_schemes, fig8_gains, monkeypatch):
        # At K = 1 the antenna modes coincide, so every mode reads the sums
        # and no antenna pick is computed.
        def no_pick(get):
            raise AssertionError("an antenna pick was computed at K = 1")

        monkeypatch.setattr(model, "_FORMULAS", {
            name: no_pick if name.startswith("argmax_") else formula for name, formula in model._FORMULAS.items()
        })
        block = sample_channel_block(1, seed=41, chunk_index=0, n=4096)
        for power in (PowerAllocation(), PowerAllocation(0.7, 0.4, 0.6), PowerAllocation(0.7, 0.0, 0.6)):
            for scheme in all_schemes:
                params = SystemParams(rho=db_to_linear(15.0), scheme=scheme, power=power)
                full = replace(params, scheme=SchemeId(scheme.scheme))
                assert np.array_equal(
                    rate_margins(block, fig8_gains, params), rate_margins(block, fig8_gains, full)
                ), (str(scheme), power)


class TestEstimates:
    def test_zero_rate_symmetry(self):
        gains = LinkGains(2.0, 2.0, 1.0)
        params = SystemParams(rho=10.0, rate=0.0, scheme=SchemeId(Scheme.DT))
        est = estimate_sop(gains, params, McConfig(trials=300_000, seed=5))
        assert abs(est.value - 0.5) < 4.0 * est.stderr

    def test_huge_rate_certain_outage(self):
        gains = LinkGains(1.0, 1.0, 1.0)
        params = SystemParams(rho=10.0, rate=50.0, scheme=SchemeId(Scheme.AF))
        est = estimate_sop(gains, params, McConfig(trials=50_000, seed=5))
        assert est.value == 1.0
        assert est.stderr == 0.0

    @pytest.mark.parametrize("grb_db", [3070.0, 3082.5])
    @pytest.mark.parametrize("mode,k", [(SelectionMode.FULL_ARRAY, 1), (SelectionMode.SELECT_NOCSI, 4)])
    def test_cj_at_the_top_of_the_float_range(self, mode, k, grb_db):
        # From gamma_rb = 1e307 on the products of both sides overflowed, and
        # the trials whose ratio was inf / inf counted as secure.
        gains = LinkGains(1.0, 1.0, db_to_linear(grb_db))
        params = SystemParams(rho=100.0, k_antennas=k, scheme=SchemeId(Scheme.CJ, mode))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = estimate_sop(gains, params, McConfig(trials=200_000, seed=21))
        assert abs(est.value - analytic.analytic_sop(gains, params)) < 4.0 * est.stderr

    def test_analytic_cross_check_af(self, fig1_gains):
        params = SystemParams(rho=db_to_linear(20.0), rate=0.1, scheme=SchemeId(Scheme.AF))
        est = estimate_sop(fig1_gains, params, McConfig(trials=400_000, seed=6))
        assert abs(est.value - analytic.sop_af_single(fig1_gains, params)) < 4.0 * est.stderr

    def test_positive_secrecy_matches_closed_forms(self, fig1_gains):
        """Positive secrecy is the complement of outage at zero target rate."""
        mc = McConfig(trials=400_000, seed=8)
        p_dt = SystemParams(rho=db_to_linear(10.0), rate=0.0, scheme=SchemeId(Scheme.DT))
        est = estimate_sop(fig1_gains, p_dt, mc)
        assert abs(1.0 - est.value - analytic.p_pos_dt(fig1_gains)) < 4.0 * est.stderr
        p_cj = SystemParams(rho=db_to_linear(10.0), rate=0.0, scheme=SchemeId(Scheme.CJ))
        est = estimate_sop(fig1_gains, p_cj, mc)
        assert abs(1.0 - est.value - analytic.p_pos_cj(fig1_gains, p_cj)) < 4.0 * est.stderr

    def test_worker_determinism(self, fig1_gains):
        params = SystemParams(rho=db_to_linear(15.0), rate=0.1, scheme=SchemeId(Scheme.AF))
        values = [
            estimate_sop(fig1_gains, params, McConfig(trials=200_000, seed=42, workers=w)).value
            for w in (1, 4, 16)
        ]
        assert values[0] == values[1] == values[2]

    def test_seed_and_trials_determine_the_estimate(self, fig1_gains):
        # Every run is cut into chunks of CHUNK_SIZE and each chunk's stream
        # is keyed by (seed, chunk index), so (seed, trials) fixes the estimate.
        params = SystemParams(rho=db_to_linear(15.0), rate=0.1, scheme=SchemeId(Scheme.CJ))
        a = estimate_sop(fig1_gains, params, McConfig(trials=131_072, seed=9))
        b = estimate_sop(fig1_gains, params, McConfig(trials=131_072, seed=9))
        assert a.value == b.value
        assert estimate_sop(fig1_gains, params, McConfig(trials=131_072, seed=10)).value != a.value

    def test_shared_draw_evaluation_matches_single(self, fig1_gains):
        mc = McConfig(trials=100_000, seed=10)
        params = [
            SystemParams(rho=db_to_linear(10.0), rate=0.1, scheme=SchemeId(s))
            for s in (Scheme.DT, Scheme.AF, Scheme.CJ)
        ]
        many = estimate_sop_many(fig1_gains, params, mc)
        singles = [estimate_sop(fig1_gains, p, mc) for p in params]
        for a, b in zip(many, singles):
            assert a.value == b.value

    @pytest.fixture
    def draws(self, monkeypatch):
        """The (seed, chunk) of every chunk drawn while the test runs."""
        drawn, block_rng = [], model.block_rng

        def spy(seed, chunk_index):
            drawn.append((seed, chunk_index))
            return block_rng(seed, chunk_index)

        monkeypatch.setattr(model, "block_rng", spy)
        return drawn

    def test_no_schemes_draw_nothing(self, fig1_gains, draws):
        assert estimate_sop_many(fig1_gains, [], McConfig(trials=100_000, seed=1)) == []
        assert draws == []

    def test_mixed_antenna_counts_rejected(self, fig1_gains, draws):
        mc = McConfig(trials=1_000, seed=1)
        params = [
            SystemParams(rho=10.0, k_antennas=1),
            SystemParams(rho=10.0, k_antennas=2),
        ]
        with pytest.raises(ValueError, match="^shared-draw evaluation requires a common antenna count$"):
            estimate_sop_many(fig1_gains, params, mc)
        assert draws == []

    @pytest.mark.parametrize("scheme,gab_db,gar_db", [
        (Scheme.DT, -200.0, -200.0), (Scheme.CJ, 0.0, -200.0), (Scheme.AF, -200.0, -200.0),
    ])
    def test_snrs_below_an_ulp_of_one_keep_their_digits(self, scheme, gab_db, gar_db):
        # At R = 0 a trial is secure where S_B > S_R; with both SNRs near
        # 1e-18, forming 1 + S tied every trial and counted none in outage.
        gains = LinkGains(db_to_linear(gab_db), db_to_linear(gar_db), db_to_linear(5.0))
        params = SystemParams(rho=db_to_linear(20.0), rate=0.0, scheme=SchemeId(scheme))
        est = estimate_sop(gains, params, McConfig(trials=100_000))
        assert abs(est.value - analytic.analytic_sop(gains, params)) < 4.0 * est.stderr

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=0)
        with pytest.raises(ValueError):
            McConfig(workers=0)
        # At most 2^20 chunks, listed before any is drawn, and 64 worker threads.
        assert McConfig(trials=1 << 36, workers=64).trials == 1 << 36
        with pytest.raises(ValueError, match="^trials"):
            McConfig(trials=(1 << 20) * montecarlo.CHUNK_SIZE + 1)
        with pytest.raises(ValueError, match="^workers"):
            McConfig(workers=65)


class TestChunkScheduler:
    """``_map_chunks``: a constant chunk size, and a thread pool only where
    chunks run side by side."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The thread pools started while the test runs."""
        import concurrent.futures

        started = []

        class SpyPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyPool)
        return started

    def test_config_has_no_chunk_field(self):
        assert [f.name for f in fields(McConfig)] == ["trials", "seed", "workers"]
        with pytest.raises(TypeError):
            McConfig(chunk_size=1 << 10)

    def test_one_chunk_starts_no_pool(self, pools, fig1_gains):
        params = SystemParams(rho=db_to_linear(15.0), scheme=SchemeId(Scheme.AF))
        one = estimate_sop(fig1_gains, params, McConfig(trials=montecarlo.CHUNK_SIZE, seed=3, workers=4))
        assert pools == []
        assert one == estimate_sop(fig1_gains, params, McConfig(trials=montecarlo.CHUNK_SIZE, seed=3))

    def test_two_chunks_start_one_pool(self, pools, fig1_gains):
        params = SystemParams(rho=db_to_linear(15.0), scheme=SchemeId(Scheme.CJ))
        trials = montecarlo.CHUNK_SIZE + 4096
        serial = estimate_sop(fig1_gains, params, McConfig(trials=trials, seed=3))
        assert pools == []
        assert estimate_sop(fig1_gains, params, McConfig(trials=trials, seed=3, workers=2)) == serial
        assert len(pools) == 1

    def test_chunk_plan(self, monkeypatch):
        # Tests shrink the chunk to make many chunks cheaply; the trials bound follows it.
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 1000)
        plan = montecarlo._map_chunks(lambda idx, n: (idx, n), McConfig(trials=2500, workers=2))
        assert plan == [(0, 1000), (1, 1000), (2, 500)]
        with pytest.raises(ValueError, match="^trials"):
            McConfig(trials=1000 * (1 << 20) + 1)


class TestPowerFractions:
    def test_af_with_reduced_alice_power_changes_outage(self, fig1_gains):
        mc = McConfig(trials=150_000, seed=11)
        full = SystemParams(rho=db_to_linear(10.0), rate=0.1, scheme=SchemeId(Scheme.AF))
        half = SystemParams(
            rho=db_to_linear(10.0), rate=0.1, scheme=SchemeId(Scheme.AF),
            power=PowerAllocation(frac_alice=0.25),
        )
        e_full = estimate_sop(fig1_gains, full, mc)
        e_half = estimate_sop(fig1_gains, half, mc)
        # Backing Alice off starves the eavesdropping relay more than Bob here.
        assert e_half.value < e_full.value

    def test_cj_without_jamming_reverts_toward_af_like_exposure(self, fig1_gains):
        mc = McConfig(trials=150_000, seed=12)
        params = SystemParams(
            rho=db_to_linear(20.0), rate=0.1, scheme=SchemeId(Scheme.CJ),
            power=PowerAllocation(frac_bob_jam=0.0),
        )
        jammed = SystemParams(rho=db_to_linear(20.0), rate=0.1, scheme=SchemeId(Scheme.CJ))
        # With no jamming the relay decodes cleanly and outage is much worse.
        assert estimate_sop(fig1_gains, params, mc).value > estimate_sop(fig1_gains, jammed, mc).value

    @pytest.mark.parametrize("k", [1, 3])
    def test_silent_relay_forwards_nothing(self, scheme, k, fig1_gains):
        # frac_relay = 0 is valid input: AF keeps only the direct link, CJ
        # leaves Bob nothing, and DT never reads the relay's power.
        a, rho = 0.7, db_to_linear(20.0)
        params = SystemParams(rho=rho, k_antennas=k, scheme=scheme, power=PowerAllocation(a, 0.0, 0.6))
        block = sample_channel_block(k, seed=5, chunk_index=0, n=512)
        margins = rate_margins(block, fig1_gains, params)
        assert np.all(np.isfinite(margins))
        full = scheme.mode is SelectionMode.FULL_ARRAY
        g_ab, eav = block.features("g_ab", "sum_a" if full else ("g_ar", "argmax_ar"))
        if scheme.scheme is Scheme.DT:
            powered = replace(params, power=PowerAllocation(a, 1.0, 0.6))
            np.testing.assert_array_equal(margins, rate_margins(block, fig1_gains, powered))
        elif scheme.scheme is Scheme.AF:
            expected = (0.5 * np.log2(1.0 + a * rho * fig1_gains.gamma_ab * g_ab)
                        - 0.5 * np.log2(1.0 + a * rho * fig1_gains.gamma_ar * eav))
            np.testing.assert_allclose(margins, expected, rtol=1e-14, atol=1e-14)
        else:
            # CJ leaves Bob nothing: the margin is the relay's rate, negated.
            expected = -0.5 * np.log2(1.0 + _cj_relay_sinr(block, fig1_gains, params))
            np.testing.assert_allclose(margins, expected, rtol=1e-13, atol=1e-14)


class TestAgainstDegenerateGeometry:
    def test_af_without_direct_link_worse_than_direct_transmission(self):
        gains = LinkGains(1e-9, 1.0, db_to_linear(5.0))
        params = SystemParams(rho=db_to_linear(20.0), rate=0.1, scheme=SchemeId(Scheme.AF))
        est = estimate_sop(gains, params, McConfig(trials=100_000, seed=13))
        # The half pre-log means the relay path alone cannot beat what the
        # relay itself decodes; outage is certain, above the direct-link value.
        assert est.value >= analytic.sop_dt_single(gains, params)
        assert est.value > 0.999

    def test_cj_nocsi_forwarding_gain_is_exponential(self):
        # The reused transmit antenna is chosen on first-hop gains only, so
        # its unit-mean second-hop gain keeps the plain Exp(1) law (no diversity).
        block = sample_channel_block(6, seed=14, chunk_index=0, n=60_000)
        g_rb = np.abs(hop(block, "h_rb")) ** 2
        m_star = np.argmax(np.abs(hop(block, "h_ar")) ** 2, axis=1)
        used = g_rb[np.arange(g_rb.shape[0]), m_star]
        res = scipy.stats.kstest(used, "expon")
        assert res.pvalue > 1e-3

    def test_cj_nocsi_reuse_matches_closed_form(self, fig8_gains):
        # The closed form describes the reused receive antenna: the forwarding
        # gain alone is a random pick's, but the joint outage law is not.
        params = SystemParams(
            rho=db_to_linear(12.0), rate=0.1, k_antennas=6,
            scheme=SchemeId(Scheme.CJ, SelectionMode.SELECT_NOCSI),
        )
        reuse = estimate_sop(fig8_gains, params, McConfig(trials=100_000, seed=15))
        closed = analytic.sop_cj_select_nocsi(fig8_gains, params)
        assert abs(reuse.value - closed) < max(4.0 * reuse.stderr, 0.005)


class TestRandomizedCalibration:
    def test_every_closed_form_tracks_simulation(self):
        """Each closed form within 4 standard errors at >= 95% of 20 random points.

        Points are drawn with moderate gains and SNRs so the outage stays
        away from the degenerate 0/1 corners where the binomial standard
        error collapses; all closed forms at a point share fading draws.
        """
        single_ops = {
            "dt_single": (_scheme(Scheme.DT), analytic.sop_dt_single),
            "af_single": (_scheme(Scheme.AF), analytic.sop_af_single),
            "cj_single": (_scheme(Scheme.CJ), analytic.sop_cj_single),
        }
        multi_ops = {
            "dt_multi": (_scheme(Scheme.DT), analytic.sop_dt_multi),
            "af_multi": (_scheme(Scheme.AF), analytic.sop_af_multi),
            "dt_select": (SchemeId(Scheme.DT, SelectionMode.SELECT_CSI), analytic.sop_dt_select),
            "af_select_csi": (SchemeId(Scheme.AF, SelectionMode.SELECT_CSI), analytic.sop_af_select_csi),
            "af_select_nocsi": (SchemeId(Scheme.AF, SelectionMode.SELECT_NOCSI), analytic.sop_af_select_nocsi),
            "cj_select_nocsi": (SchemeId(Scheme.CJ, SelectionMode.SELECT_NOCSI), analytic.sop_cj_select_nocsi),
        }
        rng = np.random.default_rng(4242)
        misses = {name: 0 for name in (*single_ops, *multi_ops)}
        n_points = 20
        for i in range(n_points):
            gains = LinkGains(*(db_to_linear(v) for v in rng.uniform(-8.0, 8.0, 3)))
            rho = db_to_linear(rng.uniform(5.0, 25.0))
            k = int(rng.integers(2, 7))
            mc = McConfig(trials=1_000_000, seed=9000 + i, workers=4)
            for group, k_eff in ((single_ops, 1), (multi_ops, k)):
                names = list(group)
                params = [
                    SystemParams(rho=rho, rate=0.1, k_antennas=k_eff, scheme=group[n][0])
                    for n in names
                ]
                estimates = estimate_sop_many(gains, params, mc)
                for name, p, est in zip(names, params, estimates):
                    closed = group[name][1](gains, p)
                    if abs(closed - est.value) > 4.0 * max(est.stderr, 1e-6):
                        misses[name] += 1
        for name, nmiss in misses.items():
            assert nmiss <= 0.05 * n_points, f"{name}: {nmiss}/{n_points} points outside 4 SE"


def _scheme(s):
    return SchemeId(s)


def _sweep_rows(argv, capsys):
    """CSV rows of a ``relaysec sweep`` run."""
    code = main(["sweep", *argv])
    assert code == 0
    return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))


class TestSweep:
    def test_single_point_equals_estimate(self, fig1_gains, capsys):
        [row] = _sweep_rows(
            ["--axis", "rho_db", "--points", "10", "--scheme", "af", "--gab-db", "0",
             "--gar-db", "0", "--grb-db", "5", "--trials", "50000", "--seed", "16"],
            capsys,
        )
        base = SystemParams(rho=db_to_linear(10.0), rate=0.1, scheme=SchemeId(Scheme.AF))
        est = estimate_sop(fig1_gains, base, McConfig(trials=50_000, seed=16))
        assert row["rho_db"] == "10"
        assert row["sop"] == f"{est.value:.10g}"

    def test_direct_and_af_improve_with_direct_gain(self, capsys):
        # Sweeping the direct-link gain upward drives both outages down.
        rows = _sweep_rows(
            ["--axis", "gab_db", "--points=-5,5,15,25", "--gar-db", "2", "--grb-db", "10",
             "--rho-db", "10", "--schemes", "dt,af", "--trials", "150000", "--seed", "17"],
            capsys,
        )
        for scheme in ("dt", "af"):
            vals = [float(r["sop"]) for r in rows if r["scheme"] == scheme]
            assert len(vals) == 4
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_joint_sweep_cj_flat_at_high_end(self, capsys):
        # CJ does not depend on the direct link, and with both gains rising
        # together it settles at the strong-second-hop constant.
        rows = _sweep_rows(
            ["--axis", "gab_and_grb_db", "--points", "35,40", "--gar-db", "2", "--rho-db", "10",
             "--schemes", "cj", "--trials", "200000", "--seed", "18"],
            capsys,
        )
        base_gains = LinkGains(1.0, db_to_linear(2.0), 1.0)
        base = SystemParams(rho=db_to_linear(10.0), rate=0.1, scheme=SchemeId(Scheme.CJ))
        limit = analytic.limits(base_gains, base, "cj_strong_second_hop")
        assert [(r["gab_db"], r["grb_db"]) for r in rows] == [("35", "35"), ("40", "40")]
        for row in rows:
            assert abs(float(row["sop"]) - limit) < max(6.0 * float(row["stderr"]), 0.01)

    def test_k_axis(self, capsys):
        rows = _sweep_rows(
            ["--axis", "k_antennas", "--points", "1,2", "--scheme", "cj", "--gab-db", "5",
             "--gar-db", "0", "--grb-db", "10", "--rho-db", "30", "--trials", "30000",
             "--seed", "19"],
            capsys,
        )
        assert [r["K"] for r in rows] == ["1", "2"]
        assert float(rows[1]["sop"]) > float(rows[0]["sop"])

    def test_unknown_axis(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "bogus", "--points", "1"])
        assert exc.value.code == 2
