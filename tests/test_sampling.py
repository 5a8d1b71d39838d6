import math

import numpy as np
import pytest

from bures import measure, sampling
from bures.euler import COSET_RANGES, EIGEN_RANGES, THETA2_MAX
from bures.measure import (EIGEN_FACTOR_SUP, coset_angles_from_uniforms,
                           eigen_measure_factor, normalization_constant)
from bures.sampling import EnvelopeViolationError, SamplerSpec, sample, sample_chunks
from bures.checks import ks_statistic

KS_CRIT_1PCT = 1.6276


class TestDeterminism:
    def test_identical_seeds_identical_streams(self):
        a = sample(2, 4096, SamplerSpec(seed=7))
        b = sample(2, 4096, SamplerSpec(seed=7))
        assert a.params.tobytes() == b.params.tobytes()
        assert a.total_proposals == b.total_proposals

    def test_different_seeds_differ(self):
        a = sample(2, 64, SamplerSpec(seed=7))
        b = sample(2, 64, SamplerSpec(seed=8))
        assert not np.array_equal(a.params, b.params)

    @pytest.mark.parametrize("n", [2, 3])
    def test_seed_edges_differ(self, n):
        # the Philox key is built as uint64, so the largest seed is not cast to 0
        rows = [sample(n, 8, SamplerSpec(seed=s)).params for s in (0, 2 ** 63, 2 ** 64 - 1)]
        for i in range(3):
            for j in range(i):
                assert not np.array_equal(rows[i], rows[j])

    def test_count_prefix_stability(self):
        small = sample(2, 100, SamplerSpec(seed=5))
        large = sample(2, 1000, SamplerSpec(seed=5))
        assert np.array_equal(large.params[:100], small.params)

    def test_prefix_across_chunk_boundary(self):
        # 40 000 samples span three index chunks; the 20 000 prefix ends
        # inside the second
        a = sample(2, 40_000, SamplerSpec(seed=11))
        c = sample(2, 20_000, SamplerSpec(seed=11))
        assert a.params[:20_000].tobytes() == c.params.tobytes()

    def test_three_state_determinism(self):
        a = sample(3, 128, SamplerSpec(seed=13))
        c = sample(3, 100, SamplerSpec(seed=13))
        assert a.params[:100].tobytes() == c.params.tobytes()

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
        batch = sample(n, count, SamplerSpec(seed=seed))
        assert batch.params.tobytes() == np.array(want).tobytes()
        assert batch.total_proposals == proposals

    @pytest.mark.parametrize("n", [2, 3])
    def test_bytes_do_not_depend_on_round_size(self, n, monkeypatch):
        # 20 000 indices cross a chunk boundary; a round draws at most one
        # slab of attempts, so the slab bounds the round size too
        got, default = set(), sampling._SLAB
        for block, slab in ((1, default), (2, default), (5, default), (2, 1), (2, 7)):
            monkeypatch.setattr(sampling, "_BLOCK", block)
            monkeypatch.setattr(sampling, "_SLAB", slab)
            batch = sample(n, 20_000, SamplerSpec(seed=17))
            assert batch.batch_size == block
            got.add((batch.params.tobytes(), batch.total_proposals))
        assert len(got) == 1


class TestChunks:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("count", [0, 1, 16383, 16384, 16385, 2 * 16384 + 3])
    def test_chunks_concatenate_to_the_batch(self, n, count):
        spec = SamplerSpec(seed=2 ** 64 - 3)
        chunks = list(sample_chunks(n, count, spec))
        batch = sample(n, count, spec)
        # full 16384-index chunks in index order, then the remainder
        assert [len(p) for p, _ in chunks] == [min(16384, count - a)
                                               for a in range(0, count, 16384)]
        got = np.concatenate([p for p, _ in chunks]) if chunks else np.empty((0, n * n - 1))
        assert got.tobytes() == batch.params.tobytes()
        assert sum(q for _, q in chunks) == batch.total_proposals

    def test_validates_before_drawing(self):
        # a bad argument raises at the call, not at the first chunk
        with pytest.raises(ValueError):
            sample_chunks(4, 10, SamplerSpec(seed=1))
        with pytest.raises(ValueError):
            sample_chunks(2, -1, SamplerSpec(seed=1))


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
        monkeypatch.setitem(measure.EIGEN_FACTOR_SUP, 2, 4.0)
        with pytest.raises(EnvelopeViolationError):
            sample(2, 100, SamplerSpec(seed=1))

    def test_envelope_dominates_proposals(self):
        batch = sample(2, 5000, SamplerSpec(seed=2))
        # completing without EnvelopeViolationError is the contract; spot-check too
        assert batch.envelope == EIGEN_FACTOR_SUP[2]
        assert eigen_measure_factor(2, batch.params[:, :1]).max() <= batch.envelope


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
        batch = sample(2, 20_000, SamplerSpec(seed=21))
        se = math.sqrt(0.25 / batch.total_proposals)
        assert abs(batch.acceptance_rate - 0.5) <= 4 * se

    def test_acceptance_rate_three_state(self):
        # the eigenvalue integral is Z3 over the exact coset integral pi^3/4,
        # so this also ties the sampler to the quadrature constant
        want = (normalization_constant(3) / (math.pi ** 3 / 4)
                / (EIGEN_FACTOR_SUP[3] * (math.pi / 4) * THETA2_MAX))
        batch = sample(3, 20_000, SamplerSpec(seed=22))
        se = math.sqrt(want * (1 - want) / batch.total_proposals)
        assert abs(batch.acceptance_rate - want) <= 4 * se

    def test_theta_marginal(self):
        # theta-marginal density (8/pi) cos^2(2t): cdf = (4t + sin 4t)/pi
        batch = sample(2, 30_000, SamplerSpec(seed=23))
        theta = batch.params[:, 0]
        cdf = lambda t: (4 * t + np.sin(4 * t)) / math.pi
        d = ks_statistic(theta, cdf)
        assert d <= KS_CRIT_1PCT / math.sqrt(theta.size)

    def test_mean_purity_three_state(self):
        batch = sample(3, 3000, SamplerSpec(seed=29))
        rhos = batch.matrices()
        pur = (np.abs(rhos) ** 2).sum(axis=(1, 2))
        se = pur.std(ddof=1) / math.sqrt(pur.size)
        assert abs(pur.mean() - 0.684443199321445) <= 4 * se

    def test_coset_pushforward_two_state(self):
        batch = sample(2, 30_000, SamplerSpec(seed=31))
        u11 = np.abs(batch.unitaries()[:, 0, 0]) ** 2
        d = ks_statistic(u11, lambda t: np.clip(t, 0, 1))
        assert d <= KS_CRIT_1PCT / math.sqrt(u11.size)


class TestSampleBatch:
    def test_matrices_valid(self):
        batch = sample(3, 200, SamplerSpec(seed=37))
        rhos = batch.matrices()
        assert np.abs(np.trace(rhos, axis1=1, axis2=2) - 1).max() <= 1e-13
        assert np.linalg.eigvalsh(rhos).min() >= -1e-12

    def test_params_read_only(self):
        batch = sample(2, 10, SamplerSpec(seed=43))
        with pytest.raises(ValueError):
            batch.params[0, 0] = 1.0

    def test_in_box(self):
        batch = sample(3, 500, SamplerSpec(seed=47))
        lower, upper = np.array(EIGEN_RANGES[3] + COSET_RANGES[3]).T
        assert np.all(batch.params >= lower)
        assert np.all(batch.params <= upper)

    def test_count_zero(self):
        batch = sample(2, 0, SamplerSpec(seed=1))
        assert batch.count == 0
        assert batch.params.shape == (0, 3)

class TestValidation:
    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            SamplerSpec(seed=-1)
        with pytest.raises(ValueError):
            SamplerSpec(seed=2 ** 64)
        SamplerSpec(seed=2 ** 64 - 1)

    @pytest.mark.parametrize("seed", [1.5, 7.9, 7.0, "7", np.float64(7.0)])
    def test_non_integral_seed_rejected(self, seed):
        # int() would truncate these onto the streams of seeds 1 and 7
        with pytest.raises(TypeError):
            SamplerSpec(seed=seed)

    def test_numpy_integer_seed_is_its_value(self):
        a = sample(2, 16, SamplerSpec(seed=np.uint64(2 ** 64 - 1)))
        b = sample(2, 16, SamplerSpec(seed=2 ** 64 - 1))
        assert a.params.tobytes() == b.params.tobytes()

    def test_negative_count(self):
        with pytest.raises(ValueError):
            sample(2, -1, SamplerSpec(seed=1))
