import collections
import errno
import hashlib
import importlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

try:
    import fcntl
except ImportError:                     # not POSIX
    fcntl = None

from bures import cli, kernels, sampling
from bures.sampling import sample, sample_chunks

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schema" / "output_record.v1.json")
    .read_text())

N3_PARAMS = ("theta1=0.31,theta2=0.77,alpha=2.13,beta=0.95,"
             "gamma=0.41,theta_big=1.02,a=2.9,b=0.2")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_of(out: str) -> dict:
    rec = json.loads(out)
    jsonschema.validate(rec, SCHEMA)
    return rec


# the sample commands behind the golden digests of sampler stream version 4
_STREAM_V4_ARGV = [
    ("--n", "2", "--count", "20", "--seed", "99"),
    ("--n", "3", "--count", "5", "--seed", "7", "--format", "csv"),
    # more rows than one write block of the CLI (1024), ending mid-block
    ("--n", "3", "--count", "2500", "--seed", "3"),
    ("--n", "2", "--count", "2049", "--seed", "8", "--format", "csv"),
]
_STREAM_V4_IDS = ["n2-json", "n3-csv", "n3-json-blocks", "n2-csv-blocks"]


def _angle_columns(out: str, n: int, csv: bool) -> str:
    """The angle fields of a ``sample`` output as printed, one row a line."""
    if csv:
        d = n * n - 1
        return "\n".join(",".join(line.split(",")[:d]) for line in out.splitlines())
    return "\n".join(re.findall(r'"params": \{[^}]*\}', out))


class TestDensityCommand:
    def test_degenerate_point(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--n", "2", "--params",
                               "theta=0.7853981633974483,alpha=0,beta=0")
        assert code == 0
        rec = record_of(out)
        m = np.array(rec["matrix"]).reshape(2, 2, 2)
        assert np.abs(m[..., 0] - 0.5 * np.eye(2)).max() <= 1e-14
        assert rec["bures_density"] <= 1e-30

    def test_pure_point(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--n", "2", "--params",
                               "theta=0,alpha=0,beta=0")
        assert code == 0
        rec = record_of(out)
        m = np.array(rec["matrix"]).reshape(2, 2, 2)
        assert np.abs(m[..., 0] - np.diag([1.0, 0.0])).max() <= 1e-14

    def test_three_state_schema(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--n", "3",
                               "--params", N3_PARAMS, "--mode", "normalized")
        assert code == 0
        rec = record_of(out)
        assert rec["n"] == 3 and rec["mode"] == "normalized"
        assert len(rec["matrix"]) == 9
        assert len(rec["eigenvalues"]) == 3

    def test_space_separated_params(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--n", "2", "--params",
                               "theta=0.2", "alpha=1.0", "beta=0.3")
        assert code == 0
        record_of(out)

    @pytest.mark.parametrize("params,needle", [
        ("theta=0,alpha=0", "beta"),                       # missing
        ("theta=0,alpha=0,beta=0,gamma=1", "gamma"),       # extra/unknown
        ("theta=2.0,alpha=0,beta=0", "theta"),             # out of range
        ("theta=x,alpha=0,beta=0", "theta"),               # non-numeric
        ("theta=0,theta=0.1,alpha=0,beta=0", "theta"),     # duplicate
    ])
    def test_bad_params_exit_2_and_name_offender(self, capsys, params, needle):
        code, out, err = run_cli(capsys, "density", "--n", "2", "--params", params)
        assert code == 2
        assert needle in err


class TestSampleCommand:
    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "sample", "--n", "2", "--count", "3", "--seed", "7")
        _, out2, _ = run_cli(capsys, "sample", "--n", "2", "--count", "3", "--seed", "7")
        assert out1 == out2
        rec = record_of(out1)
        assert rec["count"] == 3 and len(rec["samples"]) == 3

    def test_csv_header_and_shape(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--n", "2", "--count", "2",
                               "--seed", "5", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ("theta,alpha,beta,m00_re,m00_im,m01_re,m01_im,"
                            "m10_re,m10_im,m11_re,m11_im")
        assert len(lines) == 3
        assert len(lines[1].split(",")) == 3 + 8

    def test_csv_three_state_header_width(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--n", "3", "--count", "1",
                               "--seed", "5", "--format", "csv")
        cols = out.strip().split("\n")[0].split(",")
        assert len(cols) == 8 + 2 * 9
        assert cols[:8] == ["theta1", "theta2", "alpha", "beta", "gamma",
                            "theta_big", "a", "b"]

    def test_count_zero(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--n", "2", "--count", "0", "--seed", "1")
        assert code == 0
        rec = record_of(out)
        assert rec["samples"] == []
        code, out, _ = run_cli(capsys, "sample", "--n", "2", "--count", "0",
                               "--seed", "1", "--format", "csv")
        assert code == 0
        assert out.strip().split("\n") == ["theta,alpha,beta,m00_re,m00_im,m01_re,"
                                           "m01_im,m10_re,m10_im,m11_re,m11_im"]

    @pytest.mark.parametrize("block", [1, 5])
    def test_record_batch_size_is_the_round_size(self, capsys, monkeypatch, block):
        # "batch_size" reads the sampler's attempts per round when the command
        # runs; the samples and total_proposals do not depend on it
        argv = ("sample", "--n", "3", "--count", "100", "--seed", "17", "--format", "json")
        _, default, _ = run_cli(capsys, *argv)
        field = '"batch_size": %d, ' % sampling._BLOCK
        monkeypatch.setattr(sampling, "_BLOCK", block)
        _, out, _ = run_cli(capsys, *argv)
        assert record_of(out)["batch_size"] == block
        assert out.replace('"batch_size": %d, ' % block, field) == default
        assert out != default

    @pytest.mark.parametrize("count,draws", [
        # one sampler chunk: its attempts and coset uniforms are drawn once
        (10000, {(0, 0): 1, (1, 0): 1}),
        # chunk 0 once; chunks 1-2 once for their rows, and their rejection
        # once more before, to count total_proposals
        (40000, {(0, 0): 1, (1, 0): 1, (0, 1): 2, (1, 1): 1, (0, 2): 2, (1, 2): 1}),
    ])
    def test_json_draws_chunk_0_once(self, capsys, monkeypatch, count, draws):
        # (stream, chunk) of every Philox stream the command opens:
        # stream 0 is the attempts, stream 1 the coset uniforms
        seen = collections.Counter()
        stream = sampling._stream

        def spy(seed, kind, chunk):
            seen[kind, chunk] += 1
            return stream(seed, kind, chunk)

        monkeypatch.setattr(sampling, "_stream", spy)
        code, out, _ = run_cli(capsys, "sample", "--n", "3", "--count", str(count),
                               "--seed", "2")
        assert code == 0
        assert seen == draws
        assert out.count('"params"') == count

    def test_negative_count_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--n", "2", "--count", "-2", "--seed", "1")
        assert code == 2

    def test_csv_values_reconstruct_matrix(self, capsys):
        _, out, _ = run_cli(capsys, "sample", "--n", "2", "--count", "1",
                            "--seed", "9", "--format", "csv")
        vals = [float(v) for v in out.strip().split("\n")[1].split(",")]
        m = np.array(vals[3::2]) + 1j * np.array(vals[4::2])
        m = m.reshape(2, 2)
        assert abs(np.trace(m) - 1) <= 1e-13


class TestIntegrateCommand:
    def test_purity_quadrature(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--n", "2",
                               "--functional", "purity")
        assert code == 0
        rec = record_of(out)
        assert abs(rec["value"] - 0.875) <= 1e-6

    def test_constant_alias(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--n", "2",
                               "--functional", "moment:0")
        rec = record_of(out)
        assert abs(rec["value"] - 1.0) <= 1e-6

    def test_mc_method(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--n", "2", "--functional",
                               "purity", "--method", "mc", "--samples", "20000",
                               "--seed", "3")
        assert code == 0
        rec = record_of(out)
        assert abs(rec["value"] - 0.875) <= 4 * rec["std_error"]

    def test_unknown_functional_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "--n", "2",
                               "--functional", "enthalpy")
        assert code == 2
        assert "enthalpy" in err

    @pytest.mark.parametrize("extra,flag", [
        (("--method", "mc", "--samples", "10", "--points", "5000"), "--points"),
        (("--samples", "10"), "--samples"),
        (("--points", "8", "--seed", "3"), "--seed"),
    ], ids=["mc-points", "quadrature-samples", "quadrature-seed"])
    def test_option_of_the_other_method_usage_error(self, capsys, extra, flag):
        code, out, err = run_cli(capsys, "integrate", "--n", "2", "--functional",
                                 "purity", *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize("command", [
        ("integrate", "--n", "2", "--functional", "purity"),
        ("volume", "--n", "2"),
    ], ids=["integrate", "volume"])
    def test_rule_option_removed(self, capsys, command):
        # Gauss-Legendre is the only rule: no option picks one, and the
        # record's "rule" field always names it
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, "--rule", "gauss-legendre"])
        assert exc.value.code == 2
        assert "--rule" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli.main([command[0], "--help"])
        assert "--rule" not in capsys.readouterr().out
        code, out, _ = run_cli(capsys, *command)
        assert code == 0
        assert record_of(out)["rule"] == "gauss-legendre"


class TestVolumeCommand:
    def test_two_state_pi_squared(self, capsys):
        code, out, _ = run_cli(capsys, "volume", "--n", "2")
        assert code == 0
        rec = record_of(out)
        assert abs(rec["value"] - math.pi ** 2) <= 1e-6

    def test_two_resolutions_consistent(self, capsys):
        _, out1, _ = run_cli(capsys, "volume", "--n", "2", "--points", "32")
        _, out2, _ = run_cli(capsys, "volume", "--n", "2", "--points", "64")
        v1, v2 = record_of(out1)["value"], record_of(out2)["value"]
        assert abs(v1 - v2) / v2 < 1e-6

    def test_three_state_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "volume", "--n", "3")
        assert code == 0
        rec = record_of(out)
        assert abs(rec["value"] - 7.959681468268041) / rec["value"] < 1e-4
        assert rec["error_estimate"] / rec["value"] < 1e-4


def _help(capsys, monkeypatch, command: str) -> str:
    monkeypatch.setenv("COLUMNS", "1000")       # each option's help on one line
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_states_the_constants(capsys, monkeypatch):
    # the help text writes the defaults and bounds as literals; each is the
    # constant the command runs with
    from bures.integration import DEFAULT_POINTS
    from bures.tensorgrid import MIN_POINTS
    bounds = f"{MIN_POINTS} to {cli.MAX_POINTS})"
    out = _help(capsys, monkeypatch, "integrate")
    assert (f"(method=quadrature; default {DEFAULT_POINTS[2]} for n=2, "
            f"{DEFAULT_POINTS[3]} for n=3; {bounds}") in out
    assert f"(method=mc; at least 2, default {cli.DEFAULT_SAMPLES});" in out
    assert f"one sampler chunk of {sampling._INDEX_CHUNK} samples" in out
    out = _help(capsys, monkeypatch, "volume")
    assert (f"(default {kernels.REFERENCE_POINTS[2]} for n=2, "
            f"{kernels.REFERENCE_POINTS[3]} for n=3; {bounds}") in out


class TestCheckCommand:
    def test_fast_suite_passes_quickly(self, capsys):
        import time
        t0 = time.monotonic()
        code, out, err = run_cli(capsys, "check", "--suite", "fast")
        elapsed = time.monotonic() - t0
        assert code == 0
        assert elapsed < 60.0
        rec = record_of(out)
        assert rec["passed"] is True
        names = {c["name"] for c in rec["checks"]}
        assert "generator_orthogonality" in names
        # the Bures means of both n against their reference tables
        assert {"mean_entropy", "entropy_error_estimate", "mean_purity"} <= names

    def test_full_suite_includes_statistical_checks(self):
        from bures.checks import FULL_CHECKS
        names = {fn.__name__ for fn in FULL_CHECKS}
        assert "check_pushforward_uniform_2state" in names
        assert "check_pushforward_dirichlet_3state" in names
        assert "check_mc_quadrature_agreement_2state" in names

    def test_full_suite_checks_the_n3_sampler_by_monte_carlo(self, monkeypatch):
        from bures import checks

        assert checks.check_mc_quadrature_agreement_3state in checks.FULL_CHECKS
        res = checks.check_mc_quadrature_agreement_3state()
        assert res.name == "mc_quadrature_agreement_3state"
        assert res.passed
        # a sampler whose eigenvalue factor is squared (over its sup, so the
        # bound holds) draws from a sharper density; the quadrature keeps
        # the true factor
        factor, sup = kernels.eigen_measure_factor, kernels.EIGEN_FACTOR_SUP[3]
        monkeypatch.setattr(sampling, "eigen_measure_factor",
                            lambda n, eigen: factor(n, eigen) ** 2 / sup)
        assert not checks.check_mc_quadrature_agreement_3state().passed

    def test_suite_runs_each_check_once(self, capsys):
        import inspect
        from bures import checks

        defined = [fn for name, fn in inspect.getmembers(checks, inspect.isfunction)
                   if name.startswith("check_") and fn.__module__ == checks.__name__]
        assert all(checks.FULL_CHECKS.count(fn) == 1 for fn in defined)
        assert set(checks.FULL_CHECKS) == set(defined)
        assert checks.FULL_CHECKS[:len(checks.FAST_CHECKS)] == checks.FAST_CHECKS
        code, out, _ = run_cli(capsys, "check", "--suite", "full")
        assert code == 0
        names = [c["name"] for c in record_of(out)["checks"]]
        assert len(names) == len(set(names)) == len(checks.FULL_CHECKS)

    def test_perturbed_n3_eigen_factor_fails_its_checks(self, capsys, monkeypatch):
        # the n=3 eigenvalue factor, up to 20% low near the top of the box:
        # the sampler's weight and the quadrature's, so the factor's check
        # form, the volume and both means must each see it
        from bures import checks
        factor = kernels.eigen_measure_factor

        def perturbed(n, angles):
            out = factor(n, angles)
            if n == 3:
                out = out * (1 - 0.3 * np.sin(np.asarray(angles)[..., 1]) ** 2)
            return out

        for module in (kernels, importlib.import_module("bures.integration"), checks):
            monkeypatch.setattr(module, "eigen_measure_factor", perturbed)
        # the cached box integral would otherwise hold the true Z3 during the
        # test and the perturbed one after it
        kernels._eigen_integral.cache_clear()
        try:
            code, out, _ = run_cli(capsys, "check", "--suite", "fast")
        finally:
            kernels._eigen_integral.cache_clear()
        assert code == 1
        failed = {c["name"] for c in json.loads(out)["checks"] if not c["passed"]}
        assert {"eigen_factor_check_form", "volume", "mean_entropy", "mean_purity"} <= failed

    def test_perturbed_n2_coset_factor_fails_its_check(self, capsys, monkeypatch):
        from bures import checks
        factor = kernels.coset_measure_factor

        def perturbed(n, angles):
            out = factor(n, angles)
            if n == 2:
                out = out * (1 + 0.2 * np.cos(np.atleast_2d(angles)[:, 0]) ** 2)
            return out

        for module in (kernels, checks):
            monkeypatch.setattr(module, "coset_measure_factor", perturbed)
        code, out, _ = run_cli(capsys, "check", "--suite", "fast")
        assert code == 1
        failed = {c["name"] for c in json.loads(out)["checks"] if not c["passed"]}
        assert "coset_factor_check_form" in failed

    def test_corrupted_generator_fails_orthogonality(self, capsys, monkeypatch):
        from bures import generators
        broken = list(generators._GELL_MANN)
        bad = broken[7].copy()
        bad[2, 2] = -1.9 / np.sqrt(3)
        bad.flags.writeable = False
        broken[7] = bad
        monkeypatch.setattr(generators, "_GELL_MANN", tuple(broken))
        code, out, err = run_cli(capsys, "check", "--suite", "fast")
        assert code == 1
        rec = json.loads(out)
        failed = [c["name"] for c in rec["checks"] if not c["passed"]]
        assert "generator_orthogonality" in failed


class TestOutputContract:
    def test_json_roundtrip_byte_identical(self, capsys):
        for argv in (["density", "--n", "2", "--params", "theta=0.3,alpha=1,beta=0.5"],
                     ["sample", "--n", "3", "--count", "2", "--seed", "11"],
                     ["integrate", "--n", "2", "--functional", "moment:2"],
                     ["volume", "--n", "2"]):
            _, out, _ = run_cli(capsys, *argv)
            rec = json.loads(out)
            assert cli.dumps_record(rec) + "\n" == out

    def test_numpy_scalars_print_as_python_numbers(self):
        rec = {"i": [np.int64(-3), np.uint8(7), np.int32(0)],
               "f": [np.float64(0.1), np.float32(0.1), np.float16(-2.5)],
               "b": [True, False]}
        want = {"i": [-3, 7, 0], "f": [0.1, float(np.float32(0.1)), -2.5], "b": [True, False]}
        assert cli.dumps_record(rec) == cli.dumps_record(want)
        assert cli.dumps_record(rec).startswith('{"i": [-3, 7, 0], "f": [1.0000000000000001e-01, ')
        with pytest.raises(TypeError):
            cli.dumps_record({"x": np.bool_(True)})

    def test_seventeen_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "density", "--n", "2", "--params",
                            "theta=0.7853981633974483,alpha=0,beta=0")
        assert "7.8539816339744828e-01" in out

    def test_csv_count_prefix_bytes(self, capsys):
        # the 20-row CSV of a seed is the header and first 20 rows of its 50-row CSV
        _, full, _ = run_cli(capsys, "sample", "--n", "2", "--count", "50", "--seed", "4",
                             "--format", "csv")
        _, prefix, _ = run_cli(capsys, "sample", "--n", "2", "--count", "20",
                               "--seed", "4", "--format", "csv")
        assert prefix.count("\n") == 21
        assert full.startswith(prefix)

    @pytest.mark.parametrize("n", [2, 3])
    # also at 16385 and 32771, which cross the sampler's 16384-row chunks:
    # both formats write each chunk as it is drawn, and JSON's ", " separator
    # must lead the first row of every chunk but the first
    @pytest.mark.parametrize("count,fmt", [
        (count, fmt) for fmt in ("json", "csv") for count in (0, 1, 1023, 1024, 1025, 2049)
    ] + [(16385, "csv"), (32771, "csv"), (16385, "json"), (32771, "json")])
    def test_sample_matches_percent_route(self, capsys, n, fmt, count):
        # the expected output is built from the sampler and the matrix kernel
        # with CPython's % on every float, as the CLI printed it before its
        # rows were formatted a block at a time.  The whole batch's matrices
        # are the cells the CLI forms in 1024-row blocks, bit for bit
        rows = sample(n, count, seed=21)
        cells = (kernels.density_batch(n, rows[:, :n - 1], rows[:, n - 1:])
                 .view(np.float64).reshape(count, 2 * n * n))
        names = cli._param_names(n)
        if fmt == "csv":
            head = names + tuple(f"m{i}{j}_{part}" for i in range(n) for j in range(n)
                                 for part in ("re", "im"))
            table = np.concatenate([rows, cells], axis=1).tolist()
            want = "".join(",".join(["%.16e"] * len(head)) % tuple(row) + "\n"
                           for row in table)
            want = ",".join(head) + "\n" + want
        else:
            want = cli.dumps_record({
                "schema_version": "1", "kind": "samples", "n": n, "seed": 21,
                "count": count, "envelope": kernels.EIGEN_FACTOR_SUP[n],
                "batch_size": sampling._BLOCK,
                "total_proposals": sum(q for _, q in sample_chunks(n, count, 21)),
                "params_order": list(names),
                "samples": [{"params": dict(zip(names, p)),
                             "matrix": c.reshape(-1, 2).tolist()}
                            for p, c in zip(rows.tolist(), cells)],
            }) + "\n"
        _, out, _ = run_cli(capsys, "sample", "--n", str(n), "--count", str(count),
                            "--seed", "21", "--format", fmt)
        assert out == want

    @pytest.mark.parametrize("argv,digest", zip(_STREAM_V4_ARGV, [
        "400f35890ee29fa17ab7af779f76f07caaa2cb79eb4817e6982772aaa1c87e5c",
        "4b1849d8a6197ccc8cbffc031e1644827ecc212c8410a493196c26e94b28dd09",
        "1d2279042ce42138f371f84474cedc494525f9ba6347f0bfedf571758eff8007",
        "4ac128e88d8f9abd3abe173dfab10130bcf9d895658410447ce6095558c31022",
    ]), ids=_STREAM_V4_IDS)
    def test_sampler_stream_version_4(self, capsys, argv, digest):
        # golden SHA-256 of the output: a change to the seed-to-sample
        # mapping must show here and carry a new stream version.  Captured
        # with the n=3 matrix written entry by entry in ``euler.density_batch``
        _, out, _ = run_cli(capsys, "sample", *argv)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv,digest", zip(_STREAM_V4_ARGV, [
        "8a5055259dd83445679730ee08af992bb370ef4bcb52e0b97019d602df53d959",
        "882dc2e83b4779b7476f9a5892b6cbf619ad834a8190a98222aed2fab3966f37",
        "5a9d19aaa7d23744c775bda9c26b0d99ecc641ae7fcb66a70e8ab05590cb2673",
        "cc8f1a683a56637b47cbb117e51cf8de8527b474acda45a40d734f58c7506dba",
    ]), ids=_STREAM_V4_IDS)
    def test_sample_angle_columns_pinned(self, capsys, argv, digest):
        # golden SHA-256 of the printed angles alone, of stream version 4:
        # they come from the sampler, so a change to the matrix kernel must
        # leave them as they are
        _, out, _ = run_cli(capsys, "sample", *argv)
        angles = _angle_columns(out, int(argv[1]), "csv" in argv)
        assert hashlib.sha256(angles.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv,digest", [
        (("integrate", "--n", "2", "--functional", "entropy"),
         "95ab23026113a22db2e3b737849713610006682e918bb5e60b8033894ce76c1a"),
        (("integrate", "--n", "3", "--functional", "entropy"),
         "0c80c8891605e4995d90148fea7a3449c1301728afef8816745c00e031cc43d6"),
        (("integrate", "--n", "3", "--functional", "entropy", "--points", "6"),
         "aecc6b7cd11aef08298cfc4f5292504a357ec00e9ddf4a299b0e377ee7f18423"),
        (("integrate", "--n", "3", "--functional", "purity", "--points", "5"),
         "d8b84584ef57bf2e23ca187771db10f40003acdc2eac3cbb750a3e7bce367060"),
        (("volume", "--n", "2"),
         "4d33bdc79e8c3f8d9c694f2b464a2d52b905a0410ad439ed5a9738c294588ca9"),
        (("volume", "--n", "3", "--points", "4"),
         "c91a8140549ac733d5cae5d54a05ee5aebcb9fe094d9d996fb92e94566bd8f35"),
        (("density", "--n", "3", "--params", "theta1=0.3,theta2=0.5,alpha=1,beta=0.2,"
          "gamma=0.4,theta_big=0.6,a=1.1,b=0.3", "--mode", "normalized"),
         "7ede5b38c2d8b3657a2442971bc2817988d10b160bd6e7b882e7cf347bb4329d"),
        (("density", "--n", "2", "--params", "theta=0.5,alpha=1.0,beta=0.7",
          "--mode", "raw"),
         "0d18fcd08d6d6d25a22b6f188e8296275e41beedfacc01b0f459ffff08a3f2dd"),
        # mc-n2, the benchmark's Monte Carlo command
        (("integrate", "--n", "2", "--functional", "entropy", "--method", "mc",
          "--samples", "200000", "--seed", "1"),
         "accea0a6e5807d2b5285ae8563ccda118161b96ff0110501dcbaf196008cae12"),
        (("integrate", "--n", "3", "--functional", "purity", "--method", "mc",
          "--samples", "50000", "--seed", "4"),
         "b684024399ea0b92101acb75ae88cf9cf0b5ed0a24b7626698040448148223b9"),
    ], ids=["integrate-n2", "integrate-n3", "integrate-n3-p6", "integrate-n3-purity-p5",
            "volume-n2", "volume-n3-p4", "density-n3-normalized", "density-n2-raw",
            "integrate-mc-n2", "integrate-mc-n3-purity"])
    def test_scalar_records_pinned(self, capsys, argv, digest):
        # golden SHA-256 of the quadrature, Monte Carlo and density records:
        # a change to the rule, the measure, the sampler or the serializer
        # must show here
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


_BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


class TestSubprocessEntry:
    def test_module_invocation_deterministic(self):
        cmd = [sys.executable, "-m", "bures", "sample", "--n", "2",
               "--count", "2", "--seed", "77"]
        r1 = subprocess.run(cmd, capture_output=True, text=True)
        r2 = subprocess.run(cmd, capture_output=True, text=True)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout

    # the process entry ends with os._exit once the CLI has its status; these
    # pin that every byte is out first, and that a profiler still reports.
    # They run with stdout block-buffered, as it is for a pipe by default
    def test_piped_csv_equals_in_process_bytes(self, capsys):
        # about 12 MB through a pipe: far more than the pipe and stdout buffer
        argv = ["sample", "--n", "3", "--count", "20000", "--seed", "5", "--format", "csv"]
        r = subprocess.run([sys.executable, "-m", "bures", *argv], capture_output=True,
                           env=_BUFFERED_ENV)
        assert r.returncode == 0, r.stderr
        _, out, _ = run_cli(capsys, *argv)
        assert r.stdout == out.encode()

    def test_argparse_error_exits_2_with_usage(self):
        r = subprocess.run([sys.executable, "-m", "bures", "integrate", "--n", "4"],
                           capture_output=True, text=True, env=_BUFFERED_ENV)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith("usage: bures integrate ")
        assert "argument --n: invalid choice" in r.stderr

    def test_help_exits_0_with_the_full_text(self, capsys, monkeypatch):
        # argparse raises SystemExit with the help text still in stdout's buffer
        monkeypatch.setenv("COLUMNS", "80")     # the same wrapping in both processes
        with pytest.raises(SystemExit) as exc:
            cli.main(["integrate", "--help"])
        assert exc.value.code == 0
        want = capsys.readouterr().out
        assert want.startswith("usage: bures integrate ") and "--functional" in want
        r = subprocess.run([sys.executable, "-m", "bures", "integrate", "--help"],
                           capture_output=True, text=True,
                           env={**_BUFFERED_ENV, "COLUMNS": "80"})
        assert r.returncode == 0
        assert r.stdout == want
        assert r.stderr == ""

    def test_profiler_still_reports(self):
        # under a profiler the entry exits through the interpreter, so cProfile
        # prints its table after the record
        r = subprocess.run([sys.executable, "-m", "cProfile", "-m", "bures", "volume",
                            "--n", "2"], capture_output=True, text=True, env=_BUFFERED_ENV)
        assert r.returncode == 0, r.stderr
        record, _, table = r.stdout.partition("\n")
        assert json.loads(record)["quantity"] == "volume"
        assert "function calls" in table and "Ordered by" in table

    @pytest.mark.parametrize("command", [
        # more than 10 000 nodes, where OpenBLAS would split a dot product
        # over its threads and round differently
        ["integrate", "--n", "3", "--functional", "entropy", "--points", "256"],
        ["volume", "--n", "3", "--points", "1024"],
    ])
    def test_bytes_do_not_depend_on_blas_threads(self, command):
        outs = []
        for threads in (None, "1", "2"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            r = subprocess.run([sys.executable, "-m", "bures", *command],
                               capture_output=True, text=True, env=env)
            assert r.returncode == 0, r.stderr
            outs.append(r.stdout)
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("argv", [
        ["-m", "bures", "integrate", "--n", "3", "--functional", "entropy",
         "--points", "256"],
        ["-m", "bures", "volume", "--n", "3", "--points", "200"],
        ["-m", "bures", "density", "--n", "3", "--params", N3_PARAMS, "--mode",
         "normalized"],
        # the library, which leaves the BLAS thread count to the environment
        ["-c", "import bures\n"
               "r = bures.integrate(3, bures.FunctionalId.parse('entropy'), 256)\n"
               "print(r.value.hex(), r.error_estimate.hex())"],
    ], ids=["integrate", "volume", "density", "library"])
    def test_quadrature_bytes_do_not_depend_on_blas(self, argv):
        # the quadrature sums in a fixed order with numpy alone, and density
        # builds rho in closed form, so neither OpenBLAS's thread count nor
        # the kernel it picks for the CPU shows
        base = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
        outs = set()
        for blas in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"},
                     {"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_CORETYPE": "Nehalem"}):
            r = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                               env={**base, **blas})
            assert r.returncode == 0, r.stderr
            outs.add(r.stdout)
        assert len(outs) == 1, outs

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_discarding_stdout_leaves_no_descriptor_open(self, tmp_path, monkeypatch):
        with open(tmp_path / "out", "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            before = len(os.listdir("/proc/self/fd"))
            cli._discard_stdout()
            cli._discard_stdout()
            assert len(os.listdir("/proc/self/fd")) == before

    def test_closed_pipe_ends_quietly(self):
        # the outputs (~4 MB of CSV, ~30 MB of JSON over three sampler
        # chunks) outgrow the pipe buffer, so the CLI is still writing when
        # the reader goes away
        for argv, head in [
            (["--n", "2", "--count", "20000", "--format", "csv"], b"theta,alpha,beta,"),
            (["--n", "3", "--count", "40000", "--format", "json"],
             b'{"schema_version": "1", "kind": "samples", '),
        ]:
            proc = subprocess.Popen([sys.executable, "-m", "bures", "sample", "--seed", "1",
                                     *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            start = proc.stdout.read(len(head))
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
            assert start == head
            assert b"Traceback" not in err
            assert err == b""
            assert proc.returncode == 0

    @pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
    def test_interrupt_exits_130_quietly(self):
        # Ctrl-C in the middle of a long output
        proc = subprocess.Popen([sys.executable, "-m", "bures", "sample", "--n", "3",
                                 "--count", "3000000", "--seed", "1", "--format", "csv"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.readline()                      # the header
        row = proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=120)
        assert row.count(b",") == 25
        assert b"Traceback" not in err
        assert proc.returncode == 130

    @pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
    def test_interrupt_of_monte_carlo_exits_130_quietly(self):
        # Ctrl-C while sampler chunks are reduced (5e6 n=3 samples take
        # seconds) ends the command as it ends the others
        proc = subprocess.Popen([sys.executable, "-m", "bures", "integrate", "--n", "3",
                                 "--functional", "entropy", "--method", "mc",
                                 "--samples", "5000000"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            time.sleep(1.0)                         # start-up is about 0.1 s
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert out == b""
        assert b"Traceback" not in err
        assert proc.returncode == 130

    @pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
    def test_interrupt_with_a_stalled_reader_exits_130(self):
        # the reader takes the start of the record, then stops reading but
        # keeps the pipe open, so the CLI's writes block on a full pipe when
        # Ctrl-C comes: the exit must not wait on that pipe
        proc = subprocess.Popen([sys.executable, "-m", "bures", "sample", "--n", "3",
                                 "--count", "1000000", "--seed", "1"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=_BUFFERED_ENV)
        try:
            head = proc.stdout.read(16)
            time.sleep(0.5)                         # the pipe fills
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=30)
            err = proc.stderr.read()
        finally:
            proc.kill()
            proc.stdout.close()
            proc.stderr.close()
        assert head == b'{"schema_version'
        assert b"Traceback" not in err
        assert proc.returncode == 130

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("command", [
        ["volume", "--n", "2"],
        ["density", "--n", "2", "--params", "theta=0.3,alpha=1,beta=0.5"],
        ["sample", "--n", "3", "--count", "3000", "--seed", "1"],
        # three sampler chunks, each written as it is drawn
        ["sample", "--n", "3", "--count", "40000", "--seed", "1"],
    ])
    def test_write_error_exits_1(self, command):
        # every write to /dev/full fails with ENOSPC
        with open("/dev/full", "w") as full:
            r = subprocess.run([sys.executable, "-m", "bures", *command],
                               stdout=full, stderr=subprocess.PIPE, text=True)
        assert r.returncode == 1
        assert r.stderr.startswith("error: cannot write output:")
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("error,code,message", [
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), 0, ""),
        (OSError(errno.ENOSPC, "No space left on device"), 1,
         "error: cannot write output: [Errno 28] No space left on device\n"),
    ], ids=["broken-pipe", "disk-full"])
    def test_write_error_mid_stream_keeps_the_exit_status(self, capsys, monkeypatch, tmp_path,
                                                          error, code, message):
        # sample's 3rd write (its 2nd row block) fails; the command ends with
        # the status of that error, writes nothing after it and leaves no
        # thread behind
        class Failing(io.RawIOBase):
            writes = 0

            def writable(self):
                return True

            def fileno(self):               # the descriptor the CLI discards
                return target.fileno()

            def write(self, data):
                self.writes += 1
                if self.writes == 3:
                    raise error
                return len(data)

        with open(tmp_path / "out", "wb") as target:
            binary = Failing()
            monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(binary, encoding="ascii"))
            threads = threading.active_count()
            status = cli.main(["sample", "--n", "3", "--count", "40000", "--seed", "1"])
            assert threading.active_count() == threads
        assert status == code
        assert binary.writes == 3
        assert capsys.readouterr().err == message

    @pytest.mark.skipif(os.name != "posix", reason="needs POSIX file descriptors")
    @pytest.mark.parametrize("command", [
        ["volume", "--n", "2"],
        ["sample", "--n", "2", "--count", "3", "--seed", "1"],
    ])
    def test_closed_stdout_exits_1(self, command):
        # fd 1 closed before the interpreter starts (`bures ... >&-`), so
        # sys.stdout is None
        r = subprocess.run([sys.executable, "-m", "bures", *command],
                           preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
                           text=True)
        assert r.returncode == 1
        assert r.stderr.startswith("error: cannot write output:")
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("command", [
        ["integrate", "--n", "2", "--functional", "purity", "--points", "0"],
        ["volume", "--n", "2", "--points", "0"],
        # over the cap; n=2 keeps the grid small should the cap be missing
        ["integrate", "--n", "2", "--functional", "purity", "--points", "1025"],
        ["volume", "--n", "2", "--points", "1025"],
        # below 4 the half-resolution rerun (P // 2) is not a rule of 2+ points
        ["integrate", "--n", "2", "--functional", "purity", "--points", "2"],
        ["integrate", "--n", "2", "--functional", "purity", "--points", "3"],
    ])
    def test_zero_points_usage_error(self, command):
        r = subprocess.run([sys.executable, "-m", "bures", *command],
                           capture_output=True, text=True)
        assert r.returncode == 2
        assert "points" in r.stderr
        assert "Traceback" not in r.stderr

    def test_single_mc_sample_usage_error(self):
        # one sample has no standard error; the record must not carry inf
        r = subprocess.run([sys.executable, "-m", "bures", "integrate", "--n", "2",
                            "--functional", "purity", "--method", "mc",
                            "--samples", "1"], capture_output=True, text=True)
        assert r.returncode == 2
        assert r.stdout == ""
        assert "samples" in r.stderr
        assert "Traceback" not in r.stderr

    def test_envelope_violation_exits_1(self, capsys, monkeypatch):
        monkeypatch.setitem(kernels.EIGEN_FACTOR_SUP, 3, 1.0)
        code, out, err = run_cli(capsys, "sample", "--n", "3", "--count", "10",
                                 "--seed", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("envelope violation:")
        assert "Traceback" not in err

    def test_mc_envelope_violation_exits_1(self, capsys, monkeypatch):
        # a lowered bound that the eigenvalue factor exceeds ends Monte
        # Carlo as it ends `sample`: status 1 and one line, no traceback
        monkeypatch.setitem(kernels.EIGEN_FACTOR_SUP, 3, 1.0)
        code, out, err = run_cli(capsys, "integrate", "--n", "3", "--functional", "entropy",
                                 "--method", "mc", "--samples", "40000", "--seed", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("envelope violation:")
        assert "Traceback" not in err

    def test_envelope_violation_after_rows_writes_them_first(self, capsys, monkeypatch):
        # a violation in sampler chunk 1 ends the command with status 1 once
        # the rows of chunk 0 are all written
        argv = ("sample", "--n", "2", "--seed", "1", "--format", "csv")
        _, chunk_0, _ = run_cli(capsys, *argv, "--count", "16384")
        rejection = sampling._rejection

        def failing(n, env, seed, chunk, out):
            if chunk == 1:
                raise sampling.EnvelopeViolationError("in chunk 1")
            return rejection(n, env, seed, chunk, out)

        monkeypatch.setattr(sampling, "_rejection", failing)
        threads = threading.active_count()
        code, out, err = run_cli(capsys, *argv, "--count", "20000")
        assert threading.active_count() == threads
        assert code == 1
        assert out == chunk_0
        assert err == "envelope violation: in chunk 1\n"

    def test_usage_error_exit_code(self):
        r = subprocess.run([sys.executable, "-m", "bures", "density", "--n", "2",
                            "--params", "theta=0"], capture_output=True, text=True)
        assert r.returncode == 2


_PIPE_BYTES = 1 << 20


def _grows_pipes() -> bool:
    """Whether an unprivileged process may grow a pipe to 1 MiB here."""
    if sys.platform != "linux" or not hasattr(fcntl, "F_SETPIPE_SZ"):
        return False
    try:
        return int(Path("/proc/sys/fs/pipe-max-size").read_text()) >= _PIPE_BYTES
    except (OSError, ValueError):
        return False


@pytest.mark.skipif(not _grows_pipes(), reason="needs F_SETPIPE_SZ up to 1 MiB (Linux)")
class TestPipeGrowth:
    # sample grows a pipe on stdout to 1 MiB, so that it holds a whole write
    # block; 0.65 MB of JSON, more than a default 64 KiB pipe
    ARGV = ["sample", "--n", "2", "--count", "2000", "--seed", "1"]

    def test_sample_grows_its_pipe(self):
        r, w = os.pipe()
        with open(r, "rb") as reader:
            assert fcntl.fcntl(r, fcntl.F_GETPIPE_SZ) < _PIPE_BYTES
            proc = subprocess.Popen([sys.executable, "-m", "bures", *self.ARGV], stdout=w)
            os.close(w)
            out = reader.read()
            assert proc.wait(timeout=60) == 0
            assert fcntl.fcntl(r, fcntl.F_GETPIPE_SZ) >= _PIPE_BYTES
        assert out.startswith(b'{"schema_version": "1", "kind": "samples", ')
        assert out.endswith(b"]}\n")

    def test_refused_growth_prints_the_same_bytes(self, capsys, monkeypatch):
        # the growth is for speed only: refused, it leaves the pipe as it was
        code, want, _ = run_cli(capsys, *self.ARGV)
        assert code == 0
        real, calls = fcntl.fcntl, []

        def refusing(fd, cmd, *arg):
            calls.append(cmd)
            if cmd == fcntl.F_SETPIPE_SZ:
                raise PermissionError(errno.EPERM, "Operation not permitted")
            return real(fd, cmd, *arg)

        monkeypatch.setattr(fcntl, "fcntl", refusing)
        r, w = os.pipe()
        got = []
        with open(r, "rb") as reader:
            drain = threading.Thread(target=lambda: got.append(reader.read()))
            drain.start()
            with open(w, "w", encoding="ascii") as out:
                monkeypatch.setattr(sys, "stdout", out)
                status = cli.main(self.ARGV)
            drain.join(60)
            assert not drain.is_alive()
            size = real(r, fcntl.F_GETPIPE_SZ)
        assert status == 0
        assert calls == [fcntl.F_GETPIPE_SZ, fcntl.F_SETPIPE_SZ]
        assert size < _PIPE_BYTES
        assert got == [want.encode()]
