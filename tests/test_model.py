"""Domain types, fading statistics, and the beamforming/selection rules.

The rules are checked through the margins of ``montecarlo._rates``, the one
signal model (``conftest.rate_margins``): each hand-built trial's margin must
equal the one computed by hand."""

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from conftest import block_of, hop, rate_margins, wedge
from relaysec import McConfig, model, montecarlo
from relaysec.model import (
    LinkGains,
    PowerAllocation,
    Scheme,
    SchemeId,
    SelectionMode,
    SopEstimate,
    SystemParams,
    db_to_linear,
    derived_coefficients,
    sample_channel_block,
    threshold_t,
)
from relaysec.montecarlo import estimate_sop


def _margin(block, gains, params) -> float:
    """The secrecy-rate margin of a one-trial block."""
    [margin] = rate_margins(block, gains, params)
    return float(margin)


def _two_phase(bob_snr, relay_snr) -> float:
    return 0.5 * math.log2(1.0 + bob_snr) - 0.5 * math.log2(1.0 + relay_snr)


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
        # A simulated chunk draws 4n normals per antenna, so an unbounded K
        # would exhaust memory.
        assert SystemParams(rho=1.0, k_antennas=1024).k_antennas == 1024
        with pytest.raises(ValueError, match="k_antennas"):
            SystemParams(rho=1.0, k_antennas=1025)

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

    def test_integral_antenna_count_is_stored_as_int(self):
        params = SystemParams(rho=1.0, k_antennas=3.0)
        assert params.k_antennas == 3 and isinstance(params.k_antennas, int)
        with pytest.raises(ValueError):
            SystemParams(rho=1.0, k_antennas=1.5)


class TestDbConversion:
    @pytest.mark.parametrize("db,lin", [(0.0, 1.0), (10.0, 10.0), (5.0, 3.1622776601683795)])
    def test_values(self, db, lin):
        assert db_to_linear(db) == pytest.approx(lin, rel=1e-12)

    def test_roundtrip(self):
        assert 10.0 * math.log10(db_to_linear(7.3)) == pytest.approx(7.3, abs=1e-12)


class TestSampling:
    @staticmethod
    def _squared_magnitudes(block) -> dict:
        """|h|^2 of each coefficient of the block, by link."""
        return {"h_ab": np.abs(block.h_ab) ** 2,
                **{name: np.abs(hop(block, name)).ravel() ** 2 for name in ("h_ar", "h_rb")}}

    def test_mean_square_magnitude(self):
        block = sample_channel_block(1, seed=1, chunk_index=0, n=1_000_000)
        assert np.mean(np.abs(block.h_ab) ** 2) == pytest.approx(1.0, abs=0.004)

    def test_pairwise_symmetry(self):
        # Unit-mean fading on both links makes either branch the larger with chance 1/2.
        block = sample_channel_block(1, seed=2, chunk_index=0, n=1_000_000)
        frac = np.mean(np.abs(block.h_ab) ** 2 > np.abs(hop(block, "h_ar")[:, 0]) ** 2)
        assert frac == pytest.approx(0.5, abs=0.002)

    def test_variance_matches_exponential(self):
        n = 250_000
        block = sample_channel_block(2, seed=3, chunk_index=0, n=n)
        for name, sq in self._squared_magnitudes(block).items():
            # The sample variance of an Exp(1) sample of size m has sdev ~ sqrt(8/m).
            assert abs(np.var(sq) - 1.0) < 3.0 * math.sqrt(8.0 / sq.size), name

    def test_kolmogorov_smirnov_exponential(self):
        block = sample_channel_block(2, seed=4, chunk_index=0, n=50_000)
        for name, sq in self._squared_magnitudes(block).items():
            assert scipy.stats.kstest(sq, "expon").pvalue > 1e-3, name

    def test_block_reproducibility(self):
        a = sample_channel_block(3, seed=42, chunk_index=5, n=128)
        sample_channel_block(3, seed=43, chunk_index=5, n=128)  # another key in between
        b = sample_channel_block(3, seed=42, chunk_index=5, n=128)
        assert b is not a
        assert np.array_equal(a.h_ab, b.h_ab)
        assert np.array_equal(hop(a, "h_ar"), hop(b, "h_ar"))
        assert np.array_equal(hop(a, "h_rb"), hop(b, "h_rb"))
        assert np.array_equal(a.tx_pick, b.tx_pick)
        c = sample_channel_block(3, seed=42, chunk_index=6, n=128)
        assert not np.array_equal(a.h_ab, c.h_ab)

    def test_single_draw(self):
        block = sample_channel_block(4, seed=0, chunk_index=0, n=1)
        assert block.h_ab.shape == block.tx_pick.shape == (1,)
        assert hop(block, "h_ar").shape == hop(block, "h_rb").shape == (1, 4)
        assert 0 <= block.tx_pick[0] < 4

    _KEY = dict(k=2, seed=7, chunk_index=1, n=64)

    def test_same_arguments_return_the_held_block(self):
        with model.block_scope():
            first = sample_channel_block(**self._KEY)
            # A block is kept from its second request on, when a later pass
            # is known to reread it.
            block = sample_channel_block(**self._KEY)
            assert block is not first
            assert sample_channel_block(**self._KEY) is block
        # The store went with the scope, so the next call draws anew.
        assert sample_channel_block(**self._KEY) is not block

    @pytest.mark.parametrize("field,value", [
        ("k", 3),
        ("seed", 8),
        ("chunk_index", 2),
        ("n", 65),
    ])
    def test_any_changed_argument_draws_anew(self, field, value):
        changed = {**self._KEY, field: value}
        with model.block_scope():
            held = [sample_channel_block(**self._KEY) for _ in range(2)][-1]
            other = [sample_channel_block(**changed) for _ in range(2)][-1]
            assert other is not held
            assert sample_channel_block(**changed) is other
            # K picks another block of the same chunk's stream, which keeps
            # only one; a seed, chunk or size of its own has its own stream.
            assert (sample_channel_block(**self._KEY) is held) is (field != "k")

    def test_gains_share_the_block(self, monkeypatch):
        # The gains enter only the margins, so two gains at one K read one
        # block: the kept one inside a scope, equal draws outside one.
        handed, sample = [], montecarlo.sample_channel_block

        def spy(*args):
            handed.append(sample(*args))
            return handed[-1]

        monkeypatch.setattr(montecarlo, "sample_channel_block", spy)
        params = SystemParams(rho=10.0, k_antennas=self._KEY["k"], scheme=SchemeId(Scheme.CJ))
        mc = McConfig(trials=self._KEY["n"], seed=self._KEY["seed"])
        gains = (LinkGains(1.0, 2.0, 3.0), LinkGains(1.0, 2.0, 4.0))
        with model.block_scope():
            for g in (*gains, *gains):
                estimate_sop(g, params, mc)
        assert handed[0] is not handed[1] and handed[1] is handed[2] is handed[3]
        handed.clear()
        for g in gains:
            estimate_sop(g, params, mc)
        first, second = handed
        assert first is not second
        assert np.array_equal(first.h_ab, second.h_ab) and np.array_equal(first.tx_pick, second.tx_pick)
        for name in ("h_ar", "h_rb"):
            assert np.array_equal(hop(first, name), hop(second, name))

    def test_stream_keeps_one_block(self):
        other = {**self._KEY, "k": 3}
        with model.block_scope():
            store = model._store
            first = [sample_channel_block(**self._KEY) for _ in range(2)][-1]
            first.features("sum_a", "cross")
            stream, = store.streams.values()
            assert stream.kept is first and first._store is store
            assert store.nbytes == stream.reserved + first.nbytes + 2 * 8 * self._KEY["n"]
            # Another K asked for twice in a row takes the stream's one
            # place, and the first block's bytes leave the count.
            second = [sample_channel_block(**other) for _ in range(2)][-1]
            assert stream.kept is second and first._store is None
            assert store.nbytes == stream.reserved + second.nbytes
            assert sample_channel_block(**other) is second
            assert sample_channel_block(**self._KEY) is not first

    def test_drawn_arrays_are_read_only(self):
        block = sample_channel_block(**self._KEY)
        for array in (block.h_ab, hop(block, "h_ar"), hop(block, "h_rb"), block.tx_pick):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_held_block_is_released_before_the_next_draw(self):
        # Outside a scope nothing holds a block but its caller: it is gone,
        # features and all, as soon as the caller drops it.
        block = sample_channel_block(**self._KEY)
        block.features("sum_a", "cross")
        held = weakref.ref(block)
        del block
        assert held() is None
        assert model._store is None

    def test_scope_drops_its_blocks_on_exit(self):
        with model.block_scope():
            store = model._store
            sample_channel_block(**self._KEY)
            held = weakref.ref(sample_channel_block(**self._KEY))
            stream, = store.streams.values()
            assert stream.kept is held()
        # The kept block refers to its stream, so the store must let go of it
        # for the pair to be freed without the cycle collector.
        assert held() is None
        assert model._store is None
        assert not store.streams and stream.kept is None

    def test_nested_scope_shares_the_outer_store(self):
        with model.block_scope():
            sample_channel_block(**self._KEY)
            block = sample_channel_block(**self._KEY)
            with model.block_scope():
                assert sample_channel_block(**self._KEY) is block
            # Leaving the inner scope drops nothing.
            assert sample_channel_block(**self._KEY) is block

    def test_store_never_exceeds_its_byte_bound(self, monkeypatch):
        gains, n, k = LinkGains(1.0, 2.0, 3.0), 256, 2
        params = [SystemParams(rho=10.0, k_antennas=k, scheme=s) for s in (
            SchemeId(Scheme.CJ), SchemeId(Scheme.AF, SelectionMode.SELECT_CSI))]
        fresh, sizes = [], []
        for idx in range(6):
            block = sample_channel_block(k, 1, idx, n)
            fresh.append([rate_margins(block, gains, p) for p in params])
            sizes.append((block.nbytes, sum(v.nbytes for v in block._memo.values())))
        (held, features), = set(sizes)
        stream = model._Stream.nbytes(n, k)
        # Room for every chunk's normals, two blocks with their features, a
        # third block's n-vectors and half of its features.
        bound = 6 * stream + 2 * (held + features) + held + features // 2
        monkeypatch.setattr(model, "BLOCK_STORE_BYTES", bound)
        with model.block_scope():
            store = model._store
            for _ in range(3):
                for idx in range(6):
                    block = sample_channel_block(k, 1, idx, n)
                    for p, want in zip(params, fresh[idx]):
                        assert np.array_equal(rate_margins(block, gains, p), want)
                    assert store.nbytes <= bound
            kept = {key[1]: s.kept for key, s in store.streams.items() if s.kept is not None}
            assert len(store.streams) == 6
            assert store.nbytes == 6 * stream + sum(
                b.nbytes + sum(v.nbytes for v in b._memo.values()) for b in kept.values()
            )
            # First come, first kept: the leading chunks stay, later ones are
            # not kept, and the third block keeps only the features that fit.
            assert list(kept) == [0, 1, 2]
            first, _, third = kept.values()
            assert len(third._memo) < len(first._memo)
            assert sample_channel_block(k, 1, 0, n) is sample_channel_block(k, 1, 0, n)
            assert sample_channel_block(k, 1, 5, n) is not sample_channel_block(k, 1, 5, n)


class TestNormalStreams:
    """Every block of a chunk is built from one stream of unit normals."""

    @staticmethod
    def _count_draws(monkeypatch) -> list:
        draws, block_rng = [], model.block_rng

        def spy(seed, chunk_index):
            draws.append((seed, chunk_index))
            return block_rng(seed, chunk_index)

        monkeypatch.setattr(model, "block_rng", spy)
        return draws

    _FEATURES = (
        "g_ab", "sum_a", "sum_b", "cross", "orthogonal", "argmax_ar", "argmax_rb", "argmax_ratio",
        *((gain, pick) for gain in ("g_ar", "g_rb")
          for pick in ("argmax_ar", "argmax_rb", "argmax_ratio", "tx_pick")),
    )

    @classmethod
    def _assert_same_draws(cls, block, want):
        for name in ("h_ab", "tx_pick"):
            assert np.array_equal(getattr(block, name), getattr(want, name)), name
        for name in ("h_ar", "h_rb"):
            assert np.array_equal(hop(block, name), hop(want, name)), name
        for name, got, expected in zip(cls._FEATURES, block.features(*cls._FEATURES),
                                       want.features(*cls._FEATURES)):
            assert np.array_equal(got, expected), name

    def test_blocks_of_one_scope_equal_unscoped_draws(self, monkeypatch):
        # n is not a multiple of the tile rows at any K, so tiles straddle
        # the stream's segments.
        n, seed = 20000, 11
        want = {(k, idx): sample_channel_block(k, seed, idx, n) for k in (1, 2, 3, 5) for idx in (0, 1)}
        draws = self._count_draws(monkeypatch)
        with model.block_scope():
            for _ in range(2):
                for k in (3, 1, 5, 2):
                    # Each K twice in a row, so its second block is the kept one.
                    for _ in range(2):
                        for idx in (0, 1):
                            self._assert_same_draws(sample_channel_block(k, seed, idx, n), want[k, idx])
        # One draw per chunk, grown to the largest K.
        assert draws == [(seed, 0), (seed, 1)]

    def test_segments_equal_one_call(self):
        n, k = 50, 4
        stream = model._Stream(3, 2, n)
        stream.grow(k)
        rng = model.block_rng(3, 2)
        normals = rng.standard_normal(2 * n + 4 * n * k) * math.sqrt(0.5)
        for start, stop in ((0, 2 * n), (0, 6 * n), (5 * n + 2, 11 * n), (7, 2 * n + 4 * n * k)):
            assert np.array_equal(stream.normals(start, stop), normals[start:stop])
        # The state after the last segment is the one-call end state.
        restored = np.random.Generator(np.random.Philox(0))
        restored.bit_generator.state = stream._states[-1]
        assert np.array_equal(restored.random(64), rng.random(64))

    def test_stream_that_cannot_grow_within_the_bound_keeps_its_head(self, monkeypatch):
        n, seed = 64, 3
        want = {k: sample_channel_block(k, seed, 0, n) for k in (2, 3)}
        monkeypatch.setattr(model, "BLOCK_STORE_BYTES", model._Stream.nbytes(n, 3) - 1)
        draws = self._count_draws(monkeypatch)
        with model.block_scope():
            store = model._store
            for _ in range(2):
                kept = sample_channel_block(2, seed, 0, n)
            head = store.streams[seed, 0, n]
            assert head.kept is kept
            # Three antennas do not fit: the head stays with the bytes counted
            # for it, and each K = 3 block is built from a copy of it that
            # draws the third antenna alone.  Asking for another K still
            # releases the kept block.
            grown = [sample_channel_block(3, seed, 0, n) for _ in range(2)]
            assert grown[0] is not grown[1]
            assert store.streams == {(seed, 0, n): head} and len(head._segments) == 2
            assert store.nbytes == head.reserved == model._Stream.nbytes(n, 2)
            assert head.kept is None and kept._store is None
            # The head still serves, and keeps, a block that fits.
            again = [sample_channel_block(2, seed, 0, n) for _ in range(3)]
            assert again[0] is not again[1] is again[2] is head.kept
        assert draws == [(seed, 0)]
        for block, k in ((kept, 2), *((block, 3) for block in grown), *((block, 2) for block in again)):
            self._assert_same_draws(block, want[k])


class TestAntennaSelection:
    def test_single_antenna(self, channel_block, all_schemes):
        # With one antenna every selection mode is the full array.
        gains = LinkGains(1.3, 0.8, 2.1)
        block = channel_block(0.4 - 0.2j, [0.5 + 0.1j], [0.7 - 0.3j])
        for scheme in all_schemes:
            full = SystemParams(rho=9.0, scheme=SchemeId(scheme.scheme))
            selected = SystemParams(rho=9.0, scheme=scheme)
            assert _margin(block, gains, selected) == pytest.approx(
                _margin(block, gains, full), rel=1e-12
            )

    def test_first_hop_argmax(self, channel_block):
        gains = LinkGains(1.0, 1.0, 1.0)
        block = channel_block(1.0, [1.0, 3.0, 2.0], [1.0, 1.0, 1.0])
        af = SystemParams(rho=10.0, k_antennas=3, scheme=SchemeId(Scheme.AF, SelectionMode.SELECT_CSI))
        # Receive on antenna 1 (|h|^2 = 9), transmit on antenna 0 (first of the ties).
        expected = _two_phase(10.0 + 10.0 * 1.0 * 9.0 / (1.0 + 1.0 + 0.1), 10.0 * 9.0)
        assert _margin(block, gains, af) == pytest.approx(expected, rel=1e-12)
        dt = replace(af, scheme=SchemeId(Scheme.DT, SelectionMode.SELECT_CSI))
        assert _margin(block, gains, dt) == pytest.approx(math.log2(11.0 / 91.0), rel=1e-12)

    def test_cj_ratio_rule(self, channel_block):
        gains = LinkGains(1.0, 1.0, 1.0)
        block = channel_block(1.0, [2.0, 1.0], [math.sqrt(2.0), math.sqrt(0.1)])
        params = SystemParams(rho=10.0, k_antennas=2, scheme=SchemeId(Scheme.CJ, SelectionMode.SELECT_CSI))
        # Receive on antenna 1 (1/0.1 beats 4/2), transmit on antenna 0 (|h|^2 = 2).
        bob = 10.0 * 2.0 * 1.0 / (2.0 + 1.0 + 1.0 + 0.1)
        relay = 1.0 / (0.1 + 0.1)
        assert _margin(block, gains, params) == pytest.approx(_two_phase(bob, relay), rel=1e-12)

    def test_cj_nocsi_reuses_receive_antenna(self, channel_block):
        gains = LinkGains(1.0, 1.0, 1.0)
        # The random pick (antenna 0) is ignored: antenna 1 receives and transmits.
        block = channel_block(1.0, [1.0, 5.0, 2.0], [9.0, 1.0, 4.0], tx_pick=0)
        params = SystemParams(rho=10.0, k_antennas=3, scheme=SchemeId(Scheme.CJ, SelectionMode.SELECT_NOCSI))
        bob = 10.0 * 1.0 * 25.0 / (1.0 + 1.0 + 1.0 + 0.1)
        relay = 25.0 / (1.0 + 0.1)
        assert _margin(block, gains, params) == pytest.approx(_two_phase(bob, relay), rel=1e-12)

    def test_af_nocsi_needs_rng(self, channel_block):
        # Without second-hop CSI the AF relay transmits on the block's random pick.
        gains = LinkGains(1.0, 1.0, 1.0)
        params = SystemParams(rho=10.0, k_antennas=2, scheme=SchemeId(Scheme.AF, SelectionMode.SELECT_NOCSI))
        for pick, hop2 in ((0, 1.0), (1, 4.0)):
            block = channel_block(1.0, [1.0, 2.0], [1.0, 2.0], tx_pick=pick)
            expected = _two_phase(10.0 + 10.0 * hop2 * 4.0 / (hop2 + 1.0 + 0.1), 40.0)
            assert _margin(block, gains, params) == pytest.approx(expected, rel=1e-12)

    def test_scale_invariance(self, all_schemes):
        # Scaling the mean gains by c^2 and the SNR by 1/c^2 leaves every
        # received SNR, hence every pick and margin, alone: each gain enters
        # only through rho times it or through a ratio of gains.
        c = 3.7
        gains = LinkGains(1.0, 0.7, 1.9)
        scaled_gains = LinkGains(c * c * 1.0, c * c * 0.7, c * c * 1.9)
        block = sample_channel_block(5, seed=9, chunk_index=0, n=25)
        for scheme in all_schemes:
            params = SystemParams(rho=20.0, k_antennas=5, scheme=scheme)
            np.testing.assert_allclose(
                rate_margins(block, scaled_gains, replace(params, rho=20.0 / (c * c))),
                rate_margins(block, gains, params),
                rtol=1e-10, atol=1e-12,
            )


class TestFeaturePass:
    """Each block feature against the plain numpy form of its definition.

    A squared magnitude as re^2 + im^2 lies within eps of |h|^2, and as the
    square of a hypot within 1 ulp within 2.5 eps, so the two within 4 eps
    of each other (the 4 ulp of a value at the bottom of its binade); a
    gathered gain and the cross term (the same sum, squared either way)
    inherit that.  Sums of K such terms in two orders add a summation error
    of at most log2(K) eps each way for numpy's pairwise sum and a blocked
    product alike.  The gain Q orthogonal to the jamming, a difference of
    such terms, loses digits by the factor |h_ar|^2 |h_rb|^2 / Q; its
    reference is Lagrange's identity.
    """

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 64, 1024])
    def test_features_match_numpy_forms(self, k):
        # Three tiles or more (16 rows a tile at K = 1024).
        n = max(64, 40000 // k)
        block = sample_channel_block(k, seed=31, chunk_index=k, n=n)
        h_ar, h_rb = hop(block, "h_ar"), hop(block, "h_rb")
        g_ab, g_ar, g_rb = (np.abs(h) ** 2 for h in (block.h_ab, h_ar, h_rb))
        picks = {
            "argmax_ar": np.argmax(g_ar, axis=1),
            "argmax_rb": np.argmax(g_rb, axis=1),
            "argmax_ratio": np.argmax(g_ar / g_rb, axis=1),
            "tx_pick": block.tx_pick,
        }
        for name in ("argmax_ar", "argmax_rb", "argmax_ratio"):
            np.testing.assert_array_equal(block.features(name)[0], picks[name], err_msg=name)
        rows = np.arange(n)
        references = {
            "g_ab": g_ab,
            "sum_a": g_ar.sum(axis=1),
            "sum_b": g_rb.sum(axis=1),
            "cross": np.abs(np.einsum("ij,ij->i", np.conj(h_rb), h_ar)) ** 2,
            **{("g_ar", pick): g_ar[rows, index] for pick, index in picks.items()},
            **{("g_rb", pick): g_rb[rows, index] for pick, index in picks.items()},
        }
        if k > 1:  # one antenna has no direction orthogonal to the jamming
            references["orthogonal"] = wedge(h_ar, h_rb)
        eps = np.finfo(np.float64).eps
        for (name, reference), value in zip(references.items(), block.features(*references)):
            bound = (4.0 + 2.0 * math.log2(k)) * eps if name in ("sum_a", "sum_b", "orthogonal") else 4.0 * eps
            if name == "orthogonal":
                bound = bound * references["sum_a"] * references["sum_b"] / reference
            assert np.all(np.abs(value - reference) / reference <= bound), name


class TestTileView:
    """``ChannelBlock.view``: a range of a block's trials as a block of its own."""

    _EXACT = (
        "g_ab", "argmax_ar", "argmax_rb", "argmax_ratio",
        *((gain, pick) for gain in ("g_ar", "g_rb")
          for pick in ("argmax_ar", "argmax_rb", "argmax_ratio", "tx_pick")),
    )

    @staticmethod
    def _block(source, k, n):
        if source == "sampled":
            return sample_channel_block(k, seed=23, chunk_index=1, n=n)
        rng = np.random.default_rng(k)
        coefficients = [(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(0.5)
                        for shape in (n, (n, k), (n, k))]
        return block_of(*coefficients, rng.integers(0, k, n))

    @pytest.mark.parametrize("k", [1, 3, 9, 10])
    @pytest.mark.parametrize("source", ["sampled", "built"])
    def test_view_reads_the_parents_rows(self, source, k):
        # The range starts and ends off every feature tile's boundary.
        n, rows = 20000, slice(1001, 13001)
        block = self._block(source, k, n)
        view = block.view(rows)
        assert view.k == k and view.h_ab.shape == (12000,) and not view.kept
        for name in ("h_ab", "tx_pick"):
            assert np.shares_memory(getattr(view, name), getattr(block, name)), name
            assert np.array_equal(getattr(view, name), getattr(block, name)[rows]), name
        for name in ("h_ar", "h_rb"):
            assert np.array_equal(hop(view, name), hop(block, name)[rows]), name
        for name, got, want in zip(self._EXACT, view.features(*self._EXACT), block.features(*self._EXACT)):
            assert np.array_equal(got, want[rows]), name
        # OpenBLAS's product gives a row's sum in an order that depends on
        # how many rows the call has, so the sums agree within a few ulp.
        names = ("sum_a", "sum_b", "orthogonal")
        got = dict(zip(names, view.features(*names)))
        want = {name: value[rows] for name, value in zip(names, block.features(*names))}
        bound = (4.0 + 2.0 * math.log2(k)) * np.finfo(np.float64).eps
        for name in ("sum_a", "sum_b"):
            assert np.all(np.abs(got[name] - want[name]) <= bound * want[name]), name
        # The orthogonal gain, a difference, within the same error of its terms.
        scale = want["sum_a"] * want["sum_b"]
        assert np.all(np.abs(got["orthogonal"] - want["orthogonal"]) <= 2.0 * bound * scale)


class TestMmseSinr:
    """The full-array CJ relay's max-SINR receiver against the jamming."""

    def test_orthogonal_vectors(self, channel_block):
        # Jamming orthogonal to the signal is nulled completely: SINR = rho.
        gains = LinkGains(1.0, 1.0, 1.0)
        block = channel_block(0.0, [1.0, 0.0], [0.0, 1.0])
        params = SystemParams(rho=13.0, k_antennas=2, scheme=SchemeId(Scheme.CJ))
        bob = 13.0 / (1.0 + 2.0 + 2.0 + 2.0 / 13.0)
        assert _margin(block, gains, params) == pytest.approx(_two_phase(bob, 13.0), rel=1e-12)

    def test_scalar_case(self, channel_block):
        gains = LinkGains(1.3, 0.8, 2.1)
        h_ar, h_rb = 0.9 + 0.3j, 0.2 - 0.7j
        block = channel_block(0.0, [h_ar], [h_rb])
        params = SystemParams(rho=8.0, scheme=SchemeId(Scheme.CJ))
        # The block's coefficients are unit-mean fading; the gains scale them.
        har2, hrb2 = 0.8 * abs(h_ar) ** 2, 2.1 * abs(h_rb) ** 2
        bob = 8.0 * hrb2 * har2 / (hrb2 + 0.8 + 2.1 + 1.0 / 8.0)
        relay = har2 / (hrb2 + 1.0 / 8.0)
        assert _margin(block, gains, params) == pytest.approx(_two_phase(bob, relay), rel=1e-12)

    def test_bounds(self):
        # 0 <= SINR <= rho*||h_ar||^2, so the relay term lies between zero and
        # the jamming-free one.
        gains = LinkGains(1.0, 1.0, 1.0)
        rho = 50.0
        block = sample_channel_block(3, seed=23, chunk_index=0, n=50)
        sum_a = np.sum(np.abs(hop(block, "h_ar")) ** 2, axis=1)
        sum_b = np.sum(np.abs(hop(block, "h_rb")) ** 2, axis=1)
        i_b = 0.5 * np.log2(1.0 + rho * sum_b * sum_a / (sum_b + 3.0 + 3.0 + 3.0 / rho))
        margins = rate_margins(block, gains, SystemParams(rho=rho, k_antennas=3, scheme=SchemeId(Scheme.CJ)))
        assert np.all(margins <= i_b + 1e-12)
        assert np.all(margins >= i_b - 0.5 * np.log2(1.0 + rho * sum_a) - 1e-12)


class TestMrcMrtTerms:
    """Full-array AF forwarding: MRC on receive, MRT on transmit."""

    def test_strong_second_hop_saturates(self, channel_block):
        # The forwarded SNR tends to the relay's own, rho*|h_ar|^2 = 40.
        gains = LinkGains(1.0, 1.0, 1.0)
        block = channel_block(1.0, [2.0], [1e6])
        params = SystemParams(rho=10.0, scheme=SchemeId(Scheme.AF))
        assert _margin(block, gains, params) == pytest.approx(_two_phase(10.0 + 40.0, 40.0), rel=1e-4)

    def test_single_antenna_matches_general(self, channel_block):
        gains = LinkGains(1.0, 0.6, 1.4)
        h_ab, h_ar, h_rb = 0.3 + 0.1j, 1.1 - 0.2j, 0.8 + 0.5j
        block = channel_block(h_ab, [h_ar], [h_rb])
        params = SystemParams(rho=7.0, scheme=SchemeId(Scheme.AF))
        # The block's coefficients are unit-mean fading; the gains scale them.
        har2, hrb2 = 0.6 * abs(h_ar) ** 2, 1.4 * abs(h_rb) ** 2
        bob = 7.0 * abs(h_ab) ** 2 + 7.0 * hrb2 * har2 / (hrb2 + 0.6 + 1.0 / 7.0)
        assert _margin(block, gains, params) == pytest.approx(_two_phase(bob, 7.0 * har2), rel=1e-12)

    def test_power_fractions_scale(self, channel_block):
        gains = LinkGains(1.0, 1.0, 1.0)
        block = channel_block(1.0, [1.0], [1.0])
        half = SystemParams(
            rho=10.0, scheme=SchemeId(Scheme.AF), power=PowerAllocation(frac_alice=0.5, frac_relay=1.0)
        )
        # Alice at half power halves the direct SNR (5), the forwarded signal
        # (5) and the relay's statistical input power alike (1 + 0.5 + 0.1).
        bob = 5.0 + 5.0 / (1.0 + 0.5 * 1.0 + 1.0 / 10.0)
        assert _margin(block, gains, half) == pytest.approx(_two_phase(bob, 5.0), rel=1e-12)


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

    def test_root_of_phi_where_its_square_overflows(self):
        # (2^{2R} - 1)^2 overflows above R = 256; the root does not below 512.
        gains = LinkGains(1.0, 2.0, 0.5)
        for rate in (256.5, 300.0, 511.0):
            coef = derived_coefficients(gains, SystemParams(rho=100.0, rate=rate))
            assert math.isfinite(coef.t)
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

    def test_beta2_where_its_products_overflow(self):
        gains = LinkGains(1.0, 5.0, 3.0)
        params = SystemParams(rho=10.0, rate=0.4)
        two2r = 2.0 ** 0.8
        ratio = (two2r * 5.0 + 1.0) / ((two2r - 1.0) * 5.0 + 1.0)
        assert derived_coefficients(gains, params).beta2 == pytest.approx(ratio, rel=1e-15)
        # At R = 511, 2^{2R} * gamma_ar overflows; the ratio tends to 1.
        assert derived_coefficients(gains, replace(params, rate=511.0)).beta2 == 1.0

    def test_uncorrected_threshold_is_smaller(self):
        # The paper prints 2 where the discriminant of phi(z) = 0 has 4.
        gains = LinkGains(1.0, 1.0, 3.0)
        params = SystemParams(rho=100.0, rate=0.1)
        two2r = 2.0 ** (2.0 * params.rate)
        c, s = two2r - 1.0, gains.gamma_ar + gains.gamma_rb + 1.0 / params.rho
        printed = (c + math.sqrt(c * c + 2.0 * params.rho * two2r * s)) / (2.0 * params.rho)
        assert printed < threshold_t(gains, params)
