import dataclasses
import importlib
import sys
import tracemalloc

import numpy as np
import pytest

from bures.checks import MEAN_ENTROPY, MEAN_PURITY
from bures.functionals import FunctionalId, from_matrices
from bures.integration import IntegrationResult, integrate, integrate_mc
from bures import sampling
from bures.kernels import density_batch
from bures.sampling import sample, sample_chunks
from conftest import cli_usage

ENTROPY = FunctionalId.parse("entropy")
PURITY = FunctionalId.parse("purity")
CONST = FunctionalId.parse("moment:0")

# 1-D spectral reduction values (independent evaluation, frozen):
# mean entropy from mpmath tanh-sinh quadrature; mean purity analytic 7/8
MEAN_ENTROPY_2 = 0.21962769445322395
MEAN_PURITY_2 = 0.875
# the 2-D spectral-reduction means for n=3 on the paper's box, MEAN_ENTROPY[3]
# and MEAN_PURITY[3], are mpmath's tanh-sinh quadrature of the paper's
# formulas (tests/test_reference_values.py)


class TestQuadrature2:
    def test_constant_normalizes_to_one(self):
        res = integrate(2, CONST)
        assert abs(res.value - 1.0) <= 1e-6

    def test_mean_purity(self):
        res = integrate(2, PURITY)
        assert abs(res.value - MEAN_PURITY_2) <= 1e-6
        assert res.error_estimate <= 1e-6

    def test_mean_entropy(self):
        res = integrate(2, ENTROPY)
        assert abs(res.value - MEAN_ENTROPY_2) <= 1e-5

    def test_result_metadata(self):
        res = integrate(2, PURITY, 16)
        assert isinstance(res, IntegrationResult)
        assert [f.name for f in dataclasses.fields(res)] == ["value", "error_estimate"]


class TestQuadrature3:
    def test_constant_normalizes_to_one(self):
        res = integrate(3, CONST, 6)
        assert abs(res.value - 1.0) <= 1e-4

    def test_spectral_reduction_pins(self):
        ent = integrate(3, ENTROPY)
        pur = integrate(3, PURITY)
        assert abs(ent.value - MEAN_ENTROPY[3]) <= 1e-9
        assert abs(pur.value - MEAN_PURITY[3]) <= 1e-9

    def test_256_points_meet_the_independent_values(self):
        # entropy converges only algebraically (lam_2 ln lam_2 is not
        # analytic at the box edge t1 = 0): 2.8e-12 off at 64 points, 7e-16
        # at 256; purity is at roundoff from 64 points up
        points = 256
        assert abs(integrate(3, ENTROPY, points).value - MEAN_ENTROPY[3]) <= 1e-13
        assert abs(integrate(3, PURITY, points).value - MEAN_PURITY[3]) <= 1e-13

    def test_six_points_meet_the_benchmark_bound(self):
        # the `integrate --n 3 --functional entropy --points 6` run checked
        # against the same pin and bound by the benchmark
        res = integrate(3, ENTROPY, 6)
        assert abs(res.value - MEAN_ENTROPY[3]) <= 1e-4


class TestMonteCarlo:
    def test_deterministic(self):
        a = integrate_mc(2, PURITY, 2000, seed=9)
        b = integrate_mc(2, PURITY, 2000, seed=9)
        assert a == b

    def test_purity_agreement(self):
        res = integrate_mc(2, PURITY, 50_000, seed=31)
        assert abs(res.value - MEAN_PURITY_2) <= 4 * res.error_estimate

    def test_entropy_agreement_3state(self):
        res = integrate_mc(3, ENTROPY, 4_000, seed=17)
        assert abs(res.value - MEAN_ENTROPY[3]) <= 4 * res.error_estimate

    @pytest.mark.parametrize("n,fid", [(2, PURITY), (2, ENTROPY), (3, ENTROPY)],
                             ids=["n2-purity", "n2-entropy", "n3-entropy"])
    def test_chunked_reduction_matches_whole_array(self, n, fid):
        # 40 000 samples span three sampler chunks; the reference holds them all
        samples, seed = 40_000, 19
        params = sample(n, samples, seed=seed)
        vals = from_matrices(fid, density_batch(n, params[:, :n - 1], params[:, n - 1:]))
        want_se = vals.std(ddof=1) / np.sqrt(samples)
        res = integrate_mc(n, fid, samples, seed=seed)
        assert abs(res.value - vals.mean()) <= 1e-14 * abs(vals.mean())
        assert abs(res.error_estimate - want_se) <= 1e-14 * want_se

    @pytest.mark.parametrize("n", [2, 3])
    def test_memory_does_not_grow_with_samples(self, n):
        integrate_mc(n, ENTROPY, 2, seed=1)     # lazily built constants
        peaks = []
        for samples in (50_000, 200_000):
            tracemalloc.start()
            try:
                integrate_mc(n, ENTROPY, samples, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_kernels_see_bounded_slabs(self, monkeypatch):
        # every batch kernel on the sampler and MC paths gets at most one
        # slab of rows, however large the index chunk
        rows, mc = {}, importlib.import_module("bures.integration")
        calls = [(sampling, "eigen_measure_factor"), (sampling, "coset_angles_from_uniforms"),
                 (mc, "density_batch"), (mc, "from_matrices")]
        for module, name in calls:
            def spy(first, batch, *rest, _fn=getattr(module, name), _name=name):
                rows.setdefault(_name, []).append(len(batch))
                return _fn(first, batch, *rest)
            monkeypatch.setattr(module, name, spy)
        for _ in sample_chunks(3, 40_000, seed=3):
            pass
        integrate_mc(3, ENTROPY, 40_000, seed=3)
        assert {name: max(sizes) for name, sizes in rows.items()} == {
            name: sampling._SLAB for _, name in calls}

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss units and posix_spawn")
    def test_cli_peak_rss_does_not_grow_with_samples(self):
        argv = ("integrate", "--n", "2", "--functional", "entropy", "--method", "mc")
        small, _ = cli_usage(*argv, "--samples", "2")
        large, _ = cli_usage(*argv, "--samples", "200000")
        assert large - small <= 2048, (small, large)      # KiB

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss units and posix_spawn")
    def test_json_peak_rss_does_not_grow_with_count(self):
        # the JSON record keeps sampler chunk 0 while it counts the later
        # chunks' proposals, then streams the rows chunk by chunk as CSV
        # does, one 1024-row block per write.  The small run is one full
        # sampler chunk: below it the working set of a chunk and of a write
        # block is not yet reached, in either format.  Through a pipe read
        # slower than the CLI writes, the writes must stay bounded too
        argv = ("sample", "--n", "3", "--format", "json", "--seed", "1")
        for pipe in (False, True):
            small, _ = cli_usage(*argv, "--count", "16384", pipe=pipe)
            large, _ = cli_usage(*argv, "--count", "200000", pipe=pipe)
            assert large - small <= 2048, (pipe, small, large)      # KiB

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_minflt and posix_spawn")
    def test_json_minor_faults_do_not_grow_per_block(self):
        # each 1024-row write block is a fresh 0.76 MB bytes object; the CLI
        # holds the last one until the next is formed, so glibc reuses its
        # pages.  A block freed before the next is formed took over 30 k
        # more minor faults from 1e4 to 1e5 rows, a held one about 3 k
        argv = ("sample", "--n", "3", "--format", "json", "--seed", "1")
        _, small = cli_usage(*argv, "--count", "10000")
        _, large = cli_usage(*argv, "--count", "100000")
        assert large - small <= 10_000, (small, large)

    @pytest.mark.parametrize("n,label", [(n, label) for n in (2, 3)
                                         for label in ("entropy", "purity", "moment:3")])
    def test_same_result_for_any_slab(self, monkeypatch, n, label):
        # 450 samples in index chunks of 100 are five chunks, the last one
        # short; 7-row slabs split every chunk's kernel calls unevenly
        fid = FunctionalId.parse(label)
        monkeypatch.setattr(sampling, "_INDEX_CHUNK", 100)
        want = integrate_mc(n, fid, 450, seed=6)
        monkeypatch.setattr(sampling, "_SLAB", 7)
        assert integrate_mc(n, fid, 450, seed=6) == want

    def test_validation(self):
        with pytest.raises(ValueError):
            integrate_mc(2, PURITY, 0, seed=1)
        with pytest.raises(ValueError):
            integrate_mc(2, PURITY, 1, seed=1)
        with pytest.raises(TypeError):
            integrate_mc(2, lambda lam: lam.sum(axis=-1), 10, seed=1)


class TestValidation:
    def test_bad_n(self):
        with pytest.raises(ValueError):
            integrate(4, PURITY)

    def test_too_few_points(self):
        # below 4 the half-resolution rerun (P // 2) is not a rule of 2+ points
        with pytest.raises(ValueError):
            integrate(2, PURITY, 3)

    def test_points_is_an_int(self):
        # a float is a TypeError, not truncated to a rule; any integer type
        # gives the same rule, bit for bit
        with pytest.raises(TypeError):
            integrate(3, ENTROPY, 6.0)
        bits = lambda r: (r.value.hex(), r.error_estimate.hex())
        assert bits(integrate(3, ENTROPY, np.int64(64))) == bits(integrate(3, ENTROPY))

    def test_bad_functional(self):
        with pytest.raises(TypeError):
            integrate(2, "purity")
        # nor a callable on eigenvalue rows: quadrature takes a FunctionalId
        with pytest.raises(TypeError):
            integrate(2, lambda lam: lam.sum(axis=-1))
