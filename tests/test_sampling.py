import math

import numpy as np
import pytest

from bures import kernels, sampling
from bures.kernels import (COSET_RANGES, EIGEN_FACTOR_SUP, EIGEN_RANGES, THETA2_MAX,
                           coset_angles_from_uniforms, coset_unitary_batch,
                           density_batch, eigen_measure_factor, normalization_constant)
from bures.sampling import EnvelopeViolationError, sample, sample_chunks
from bures.checks import ks_statistic

KS_CRIT_1PCT = 1.6276


def _proposals(n: int, count: int, seed: int) -> int:
    """Attempts examined for ``sample(n, count, seed)``: the chunks' counts summed."""
    return sum(q for _, q in sample_chunks(n, count, seed))


class TestDeterminism:
    def test_identical_seeds_identical_streams(self):
        a = sample(2, 4096, seed=7)
        b = sample(2, 4096, seed=7)
        assert a.tobytes() == b.tobytes()
        assert _proposals(2, 4096, 7) == _proposals(2, 4096, 7)

    def test_different_seeds_differ(self):
        a = sample(2, 64, seed=7)
        b = sample(2, 64, seed=8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("n", [2, 3])
    def test_seed_edges_differ(self, n):
        # the Philox key is built as uint64, so the largest seed is not cast to 0
        rows = [sample(n, 8, seed=s) for s in (0, 2 ** 63, 2 ** 64 - 1)]
        for i in range(3):
            for j in range(i):
                assert not np.array_equal(rows[i], rows[j])

    def test_count_prefix_stability(self):
        small = sample(2, 100, seed=5)
        large = sample(2, 1000, seed=5)
        assert np.array_equal(large[:100], small)

    def test_prefix_across_chunk_boundary(self):
        # 40 000 samples span three index chunks; the 20 000 prefix ends
        # inside the second
        a = sample(2, 40_000, seed=11)
        c = sample(2, 20_000, seed=11)
        assert a[:20_000].tobytes() == c.tobytes()

    def test_three_state_determinism(self):
        a = sample(3, 128, seed=13)
        c = sample(3, 100, seed=13)
        assert a[:100].tobytes() == c.tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_row_by_row_reference(self, n, monkeypatch):
        # stream version 4 read literally: one draw per attempt from the
        # attempt stream, one per index from the coset stream; small index
        # chunks put several chunks into a short run, and a smaller slab puts
        # slab edges inside each chunk
        monkeypatch.setattr(sampling, "_INDEX_CHUNK", 16)
        monkeypatch.setattr(sampling, "_SLAB", 5)
        count, seed = 50, 2 ** 64 - 5
        lower, upper = np.array(EIGEN_RANGES[n]).T
        span = upper - lower
        want, proposals = [], 0
        for c, start in enumerate(range(0, count, 16)):
            attempts, coset = (np.random.Generator(np.random.Philox(
                key=np.array([seed, s], dtype=np.uint64), counter=[0, c, 0, 0]))
                for s in (0, 1))
            for _ in range(start, min(start + 16, count)):
                while True:
                    u = attempts.random(n)
                    proposals += 1
                    eig = lower + u[:n - 1] * span
                    if u[-1] * EIGEN_FACTOR_SUP[n] < eigen_measure_factor(n, eig[None])[0]:
                        break
                want.append(np.concatenate(
                    [eig, coset_angles_from_uniforms(n, coset.random(n * n - n))]))
        assert sample(n, count, seed=seed).tobytes() == np.array(want).tobytes()
        assert _proposals(n, count, seed) == proposals

    @pytest.mark.parametrize("n", [2, 3])
    def test_bytes_do_not_depend_on_round_size(self, n, monkeypatch):
        # 20 000 indices cross a chunk boundary; a round draws at most one
        # slab of attempts, so the slab bounds the round size too
        got, default = set(), sampling._SLAB
        for block, slab in ((1, default), (2, default), (5, default), (2, 1), (2, 7)):
            monkeypatch.setattr(sampling, "_BLOCK", block)
            monkeypatch.setattr(sampling, "_SLAB", slab)
            got.add((sample(n, 20_000, seed=17).tobytes(), _proposals(n, 20_000, 17)))
        assert len(got) == 1


class TestChunks:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("count", [0, 1, 16383, 16384, 16385, 2 * 16384 + 3])
    def test_chunks_concatenate_to_the_batch(self, n, count):
        seed = 2 ** 64 - 3
        chunks = list(sample_chunks(n, count, seed))
        rows = sample(n, count, seed)
        # full 16384-index chunks in index order, then the remainder
        assert [len(p) for p, _ in chunks] == [min(16384, count - a)
                                               for a in range(0, count, 16384)]
        got = np.concatenate([p for p, _ in chunks]) if chunks else np.empty((0, n * n - 1))
        assert got.tobytes() == rows.tobytes()
        assert sum(q for _, q in chunks) == _proposals(n, count, seed)

    def test_validates_before_drawing(self):
        # a bad argument raises at the call, not at the first chunk
        with pytest.raises(ValueError):
            sample_chunks(4, 10, seed=1)
        with pytest.raises(ValueError):
            sample_chunks(2, -1, seed=1)


def _grid(n: int, per_axis: int) -> np.ndarray:
    """eigen_measure_factor on the inclusive uniform grid of the eigenvalue box."""
    axes = np.meshgrid(*[np.linspace(lo, hi, per_axis) for lo, hi in EIGEN_RANGES[n]],
                       indexing="ij")
    return eigen_measure_factor(n, np.stack(axes, axis=-1))


class TestEnvelope:
    def test_two_state_grid_close_to_analytic_sup(self):
        grid = _grid(2, 2001).max()
        assert EIGEN_FACTOR_SUP[2] >= grid
        assert EIGEN_FACTOR_SUP[2] - grid <= 1e-6 * grid

    def test_three_state_grid_close_to_analytic_sup(self):
        grid = _grid(3, 2001).max()
        assert EIGEN_FACTOR_SUP[3] >= grid
        assert EIGEN_FACTOR_SUP[3] - grid <= 1e-6 * grid

    def test_refinement_stability(self):
        # the closed form takes the n=3 maximum on the edge t1 = 0; on nested
        # grids the argmax stays there and the maximum rises toward the sup
        maxima = []
        for per_axis in (101, 1001):
            vals = _grid(3, per_axis)
            assert np.unravel_index(np.argmax(vals), vals.shape)[0] == 0
            maxima.append(vals.max())
        assert maxima[0] <= maxima[1] <= EIGEN_FACTOR_SUP[3]

    def test_violation_aborts(self, monkeypatch):
        monkeypatch.setitem(kernels.EIGEN_FACTOR_SUP, 2, 4.0)
        with pytest.raises(EnvelopeViolationError):
            sample(2, 100, seed=1)

    def test_envelope_dominates_proposals(self):
        rows = sample(2, 5000, seed=2)
        # completing without EnvelopeViolationError is the contract; spot-check too
        assert eigen_measure_factor(2, rows[:, :1]).max() <= EIGEN_FACTOR_SUP[2]


class TestCosetMap:
    # inverse-CDF coset draws against the marginals of the closed-form factor
    def test_beta_marginal(self):
        u = np.random.default_rng(61).random((30_000, 2))
        beta = coset_angles_from_uniforms(2, u)[:, 1]
        d = ks_statistic(beta, lambda x: (1 - np.cos(2 * x)) / 2)
        assert d <= KS_CRIT_1PCT / math.sqrt(beta.size)

    def test_theta_big_marginal(self):
        u = np.random.default_rng(62).random((30_000, 6))
        theta = coset_angles_from_uniforms(3, u)[:, 3]
        d = ks_statistic(theta, lambda x: np.sin(x) ** 4)
        assert d <= KS_CRIT_1PCT / math.sqrt(theta.size)


class TestStatistics:
    # per attempt, P(accept) = (integral of the eigenvalue factor over the
    # box) / (M * box area), within 4 binomial SE over the attempts examined
    def test_acceptance_rate_two_state(self):
        proposals = _proposals(2, 20_000, 21)
        se = math.sqrt(0.25 / proposals)
        assert abs(20_000 / proposals - 0.5) <= 4 * se

    def test_acceptance_rate_three_state(self):
        # the eigenvalue integral is Z3 over the exact coset integral pi^3/4,
        # so this also ties the sampler to the quadrature constant
        want = (normalization_constant(3) / (math.pi ** 3 / 4)
                / (EIGEN_FACTOR_SUP[3] * (math.pi / 4) * THETA2_MAX))
        proposals = _proposals(3, 20_000, 22)
        se = math.sqrt(want * (1 - want) / proposals)
        assert abs(20_000 / proposals - want) <= 4 * se

    def test_theta_marginal(self):
        # theta-marginal density (8/pi) cos^2(2t): cdf = (4t + sin 4t)/pi
        theta = sample(2, 30_000, seed=23)[:, 0]
        cdf = lambda t: (4 * t + np.sin(4 * t)) / math.pi
        d = ks_statistic(theta, cdf)
        assert d <= KS_CRIT_1PCT / math.sqrt(theta.size)

    def test_mean_purity_three_state(self):
        rows = sample(3, 3000, seed=29)
        rhos = density_batch(3, rows[:, :2], rows[:, 2:])
        pur = (np.abs(rhos) ** 2).sum(axis=(1, 2))
        se = pur.std(ddof=1) / math.sqrt(pur.size)
        assert abs(pur.mean() - 0.684443199321445) <= 4 * se

    def test_coset_pushforward_two_state(self):
        rows = sample(2, 30_000, seed=31)
        u11 = np.abs(coset_unitary_batch(2, rows[:, 1:])[:, 0, 0]) ** 2
        d = ks_statistic(u11, lambda t: np.clip(t, 0, 1))
        assert d <= KS_CRIT_1PCT / math.sqrt(u11.size)


class TestSampleBatch:
    # the (count, n^2 - 1) angle array that sample returns
    def test_matrices_valid(self):
        rows = sample(3, 200, seed=37)
        rhos = density_batch(3, rows[:, :2], rows[:, 2:])
        assert np.abs(np.trace(rhos, axis1=1, axis2=2) - 1).max() <= 1e-13
        assert np.linalg.eigvalsh(rhos).min() >= -1e-12

    def test_params_read_only(self):
        rows = sample(2, 10, seed=43)
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0

    def test_in_box(self):
        rows = sample(3, 500, seed=47)
        lower, upper = np.array(EIGEN_RANGES[3] + COSET_RANGES[3]).T
        assert np.all(rows >= lower)
        assert np.all(rows <= upper)

    def test_count_zero(self):
        rows = sample(2, 0, seed=1)
        assert rows.shape == (0, 3)
        assert rows.dtype == np.float64 and not rows.flags.writeable


class TestValidation:
    def test_seed_bounds(self):
        # checked at the call, before any chunk is drawn
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="seed must fit an unsigned 64-bit integer"):
                sample_chunks(2, 1, seed)
        sample_chunks(2, 1, 2 ** 64 - 1)

    @pytest.mark.parametrize("seed", [1.5, 7.9, 7.0, "7", np.float64(7.0)])
    def test_non_integral_seed_rejected(self, seed):
        # int() would truncate these onto the streams of seeds 1 and 7
        with pytest.raises(TypeError):
            sample_chunks(2, 1, seed)

    def test_numpy_integer_seed_is_its_value(self):
        a = sample(2, 16, seed=np.uint64(2 ** 64 - 1))
        b = sample(2, 16, seed=2 ** 64 - 1)
        assert a.tobytes() == b.tobytes()

    def test_negative_count(self):
        with pytest.raises(ValueError):
            sample(2, -1, seed=1)
