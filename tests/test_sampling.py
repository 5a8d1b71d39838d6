import math

import numpy as np
import pytest

from bures.euler import DensityMatrixParams
from bures.measure import angle_box
from bures.sampling import (EnvelopeViolationError, SamplerSpec,
                            estimate_coset_envelope, estimate_envelope, sample,
                            sample_coset, thread_count)
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

    def test_batch_size_invariance(self):
        a = sample(2, 2048, SamplerSpec(seed=3, batch_size=8))
        b = sample(2, 2048, SamplerSpec(seed=3, batch_size=64))
        assert a.params.tobytes() == b.params.tobytes()

    def test_count_prefix_stability(self):
        small = sample(2, 100, SamplerSpec(seed=5))
        large = sample(2, 1000, SamplerSpec(seed=5))
        assert np.array_equal(large.params[:100], small.params)

    def test_thread_invariance(self):
        spec = SamplerSpec(seed=11)
        # force multiple index chunks so threads actually split the work
        a = sample(2, 40_000, spec, threads=1)
        b = sample(2, 40_000, spec, threads=4)
        assert a.params.tobytes() == b.params.tobytes()

    def test_three_state_determinism(self):
        spec = SamplerSpec(seed=13)
        a = sample(3, 128, spec, threads=1)
        b = sample(3, 128, spec, threads=4)
        assert a.params.tobytes() == b.params.tobytes()


class TestEnvelope:
    def test_two_state_grid_close_to_analytic_sup(self):
        # sup of the normalized density is 8/pi^2 at theta=0, beta=pi/4
        est = estimate_envelope(2, grid_points=32)
        sup = 8 / math.pi ** 2
        assert abs(est / 1.5 - sup) <= 0.02 * sup

    def test_refinement_stability(self):
        e16 = estimate_envelope(2, grid_points=16)
        e32 = estimate_envelope(2, grid_points=32)
        assert abs(e16 - e32) / e32 < 0.05

    def test_grid_minimum(self):
        with pytest.raises(ValueError):
            estimate_envelope(2, grid_points=4)

    def test_violation_aborts(self):
        with pytest.raises(EnvelopeViolationError):
            sample(2, 100, SamplerSpec(seed=1, envelope_constant=0.05))

    def test_envelope_dominates_proposals(self):
        batch = sample(2, 5000, SamplerSpec(seed=2))
        # completing without EnvelopeViolationError is the contract; spot-check too
        from bures.measure import joint_density_batch
        dens = joint_density_batch(2, batch.params, normalized=True)
        assert dens.max() <= batch.envelope


class TestStatistics:
    def test_acceptance_rate_two_state(self):
        batch = sample(2, 20_000, SamplerSpec(seed=21))
        assert batch.acceptance_rate > 0.01

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
        batch = sample_coset(2, 30_000, SamplerSpec(seed=31))
        u11 = np.abs(batch.unitaries()[:, 0, 0]) ** 2
        d = ks_statistic(u11, lambda t: np.clip(t, 0, 1))
        assert d <= KS_CRIT_1PCT / math.sqrt(u11.size)


class TestSampleBatch:
    def test_matrices_valid(self):
        batch = sample(3, 200, SamplerSpec(seed=37))
        rhos = batch.matrices()
        assert np.abs(np.trace(rhos, axis1=1, axis2=2) - 1).max() <= 1e-13
        assert np.linalg.eigvalsh(rhos).min() >= -1e-12

    def test_iter_params_typed(self):
        batch = sample(2, 5, SamplerSpec(seed=41))
        items = list(batch.iter_params())
        assert len(items) == 5
        assert all(isinstance(p, DensityMatrixParams) for p in items)

    def test_params_read_only(self):
        batch = sample(2, 10, SamplerSpec(seed=43))
        with pytest.raises(ValueError):
            batch.params[0, 0] = 1.0

    def test_in_box(self):
        batch = sample(3, 500, SamplerSpec(seed=47))
        box = angle_box(3)
        assert np.all(batch.params >= np.asarray(box.lower))
        assert np.all(batch.params <= np.asarray(box.upper))

    def test_count_zero(self):
        batch = sample(2, 0, SamplerSpec(seed=1))
        assert batch.count == 0
        assert batch.params.shape == (0, 3)

    def test_coset_batch_rejects_matrix_access(self):
        batch = sample_coset(2, 4, SamplerSpec(seed=1))
        with pytest.raises(ValueError):
            batch.matrices()


class TestValidation:
    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            SamplerSpec(seed=-1)
        with pytest.raises(ValueError):
            SamplerSpec(seed=2 ** 64)
        SamplerSpec(seed=2 ** 64 - 1)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            sample(2, -1, SamplerSpec(seed=1))

    def test_bad_envelope(self):
        with pytest.raises(ValueError):
            SamplerSpec(seed=1, envelope_constant=0.0)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            SamplerSpec(seed=1, batch_size=0)

    def test_coset_envelope_grid_minimum(self):
        with pytest.raises(ValueError):
            estimate_coset_envelope(2, grid_points=7)


class TestThreadCount:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("BURES_THREADS", raising=False)
        assert thread_count() == 1

    def test_env(self, monkeypatch):
        monkeypatch.setenv("BURES_THREADS", "6")
        assert thread_count() == 6

    def test_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv("BURES_THREADS", "6")
        assert thread_count(2) == 2

    def test_invalid(self, monkeypatch):
        monkeypatch.setenv("BURES_THREADS", "zero")
        with pytest.raises(ValueError):
            thread_count()
        with pytest.raises(ValueError):
            thread_count(0)
