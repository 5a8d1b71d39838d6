import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from bures import cli
from bures.euler import density_batch
from bures.sampling import SamplerSpec, sample

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


# the sample commands behind the golden digests of sampler stream version 3
_STREAM_V3_ARGV = [
    ("--n", "2", "--count", "20", "--seed", "99"),
    ("--n", "3", "--count", "5", "--seed", "7", "--format", "csv"),
    # more rows than one write block of the CLI (1024), ending mid-block
    ("--n", "3", "--count", "2500", "--seed", "3"),
    ("--n", "2", "--count", "2049", "--seed", "8", "--format", "csv"),
]
_STREAM_V3_IDS = ["n2-json", "n3-csv", "n3-json-blocks", "n2-csv-blocks"]


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
        assert any(c["name"] == "generator_orthogonality" for c in rec["checks"])

    def test_full_suite_includes_statistical_checks(self):
        from bures.checks import FULL_CHECKS
        names = {fn.__name__ for fn in FULL_CHECKS}
        assert "check_pushforward_uniform_2state" in names
        assert "check_pushforward_dirichlet_3state" in names
        assert "check_mc_quadrature_agreement_2state" in names

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

    def test_seventeen_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "density", "--n", "2", "--params",
                            "theta=0.7853981633974483,alpha=0,beta=0")
        assert "7.8539816339744828e-01" in out

    def test_batch_size_does_not_change_bytes(self, capsys):
        # the size of the requested batch: 20 rows are a prefix of 50
        outs = [run_cli(capsys, "sample", "--n", "2", "--count", "50", "--seed", "4",
                        "--format", "csv")[1] for _ in range(2)]
        assert outs[0] == outs[1]
        _, prefix, _ = run_cli(capsys, "sample", "--n", "2", "--count", "20",
                               "--seed", "4", "--format", "csv")
        assert outs[0].split("\n")[:21] == prefix.split("\n")[:21]

    @pytest.mark.parametrize("n", [2, 3])
    # CSV also at 16385 and 32771, which cross the sampler's 16384-row chunks:
    # it writes each chunk as it is drawn
    @pytest.mark.parametrize("count,fmt", [
        (count, fmt) for fmt in ("json", "csv") for count in (0, 1, 1023, 1024, 1025, 2049)
    ] + [(16385, "csv"), (32771, "csv")])
    def test_sample_matches_percent_route(self, capsys, n, fmt, count):
        # the expected output is built from the sampler and the matrix kernel
        # with CPython's % on every float, as the CLI printed it before its
        # rows were formatted a block at a time
        batch = sample(n, count, SamplerSpec(seed=21))
        k = n - 1
        # the kernel runs on the CLI's 1024-row blocks: for n=3 its einsum can
        # round a cell differently, by an ulp or two, given more rows at once
        blocks = [batch.params[a:a + 1024] for a in range(0, count, 1024)]
        mats = (np.concatenate([density_batch(n, p[:, :k], p[:, k:]) for p in blocks])
                if blocks else np.empty((0, n, n), complex))
        cells = mats.view(np.float64).reshape(count, 2 * n * n)
        names = cli._param_names(n)
        if fmt == "csv":
            head = names + tuple(f"m{i}{j}_{part}" for i in range(n) for j in range(n)
                                 for part in ("re", "im"))
            rows = np.concatenate([batch.params, cells], axis=1).tolist()
            want = "".join(",".join(["%.16e"] * len(head)) % tuple(row) + "\n"
                           for row in rows)
            want = ",".join(head) + "\n" + want
        else:
            want = cli.dumps_record({
                "schema_version": "1", "kind": "samples", "n": n, "seed": 21,
                "count": count, "envelope": float(batch.envelope),
                "batch_size": int(batch.batch_size),
                "total_proposals": int(batch.total_proposals),
                "params_order": list(names),
                "samples": [{"params": dict(zip(names, p)),
                             "matrix": c.reshape(-1, 2).tolist()}
                            for p, c in zip(batch.params.tolist(), cells)],
            }) + "\n"
        _, out, _ = run_cli(capsys, "sample", "--n", str(n), "--count", str(count),
                            "--seed", "21", "--format", fmt)
        assert out == want

    @pytest.mark.parametrize("argv,digest", zip(_STREAM_V3_ARGV, [
        "2526cdaadb29d3f602ee09d20be60413bee2d7c7a21f304474efa38396bae043",
        "cabade82392bf21ad37a9d665a0464af12db5ce990a0eadc78f1a33df7433fc2",
        "8098cf3933abdb91500a5db201b3a9529dcca64d18941aea0f59f51f447043b6",
        "08f997ae13986bd08fd526da4e13b82355bfc9a05bf35236bbb10c9bc6549bad",
    ]), ids=_STREAM_V3_IDS)
    def test_sampler_stream_version_3(self, capsys, argv, digest):
        # golden SHA-256 of the output: a change to the seed-to-sample
        # mapping must show here and carry a new stream version.  Captured
        # with the closed-form matrix kernel of ``euler.density_batch``; it
        # moved the matrix cells by at most 2**-51 and the angles not at all
        # (test_sample_angle_columns_pinned), so the stream is still version 3
        _, out, _ = run_cli(capsys, "sample", *argv)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv,digest", zip(_STREAM_V3_ARGV, [
        "28c14944cd73111c517d3d08ad01af72e33c1f362f240c4f1ef93bde8a856f83",
        "0eae28e133819a87a67b3f8825edb2c2c858b5797ed9435cf2932a7eab3b672f",
        "e81491ce050663deb61d89a9769a072b6bf2a3965d61d5f1ba51716f73b1555e",
        "8665156d251f29b6507615c5aafb9a58e997fad4c1b2ff621c11ef4fd6a3f420",
    ]), ids=_STREAM_V3_IDS)
    def test_sample_angle_columns_pinned(self, capsys, argv, digest):
        # golden SHA-256 of the printed angles alone: they come from the
        # sampler, so a change to the matrix kernel must leave them as they are
        _, out, _ = run_cli(capsys, "sample", *argv)
        angles = _angle_columns(out, int(argv[1]), "csv" in argv)
        assert hashlib.sha256(angles.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv,digest", [
        (("integrate", "--n", "2", "--functional", "entropy"),
         "19aeb6a086b1ba3c1f07f5de4e681fe40b40f3359b14ab926fd4ad1e60e19d1f"),
        (("integrate", "--n", "3", "--functional", "entropy"),
         "a3f1f1456df8b23dc7da5eb1000468b4bf4b01137186278591200667ea0a7dc2"),
        (("integrate", "--n", "3", "--functional", "entropy", "--points", "6"),
         "15eafaacf4dda05cd0bc7e2a9164b55a0c6391a4453d79f49e55e57c62da430f"),
        (("integrate", "--n", "3", "--functional", "purity", "--points", "5"),
         "0a13ed52c4135d6ad9b3de5f649c040bdbd5f51a287ef929b68bc14ad4b0e5c9"),
        (("volume", "--n", "2"),
         "0007f92cb024405b6346054e60621d5c0c1004387467cc55b5ea2187e0882afc"),
        (("volume", "--n", "3", "--points", "4"),
         "f5f2b787157b2b22c06ff96abe11cb915497f5cb2d05e2611525c3db5867f566"),
        (("density", "--n", "3", "--params", "theta1=0.3,theta2=0.5,alpha=1,beta=0.2,"
          "gamma=0.4,theta_big=0.6,a=1.1,b=0.3", "--mode", "normalized"),
         "d65eddc7eb2086655572a5fb09eb0b4cc0c5c7b0ed8ea8f5355a0c68880cb77a"),
        (("density", "--n", "2", "--params", "theta=0.5,alpha=1.0,beta=0.7",
          "--mode", "raw"),
         "aa36fe1e3d831876fe4f10d506b9ceffb2ba1078c6813c12fd59c9e711587b40"),
    ], ids=["integrate-n2", "integrate-n3", "integrate-n3-p6", "integrate-n3-purity-p5",
            "volume-n2", "volume-n3-p4", "density-n3-normalized", "density-n2-raw"])
    def test_scalar_records_pinned(self, capsys, argv, digest):
        # golden SHA-256 of the quadrature and density records: a change to
        # the rule, the measure or the serializer must show here
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSubprocessEntry:
    def test_module_invocation_deterministic(self):
        cmd = [sys.executable, "-m", "bures", "sample", "--n", "2",
               "--count", "2", "--seed", "77"]
        r1 = subprocess.run(cmd, capture_output=True, text=True)
        r2 = subprocess.run(cmd, capture_output=True, text=True)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout

    def test_closed_pipe_ends_quietly(self):
        # the output (~4 MB) outgrows the pipe buffer, so the CLI is still
        # writing when the reader goes away
        proc = subprocess.Popen([sys.executable, "-m", "bures", "sample", "--n", "2",
                                 "--count", "20000", "--seed", "1", "--format", "csv"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        header = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert header.startswith(b"theta,alpha,beta,")
        assert b"Traceback" not in err
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

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("command", [
        ["volume", "--n", "2"],
        ["density", "--n", "2", "--params", "theta=0.3,alpha=1,beta=0.5"],
        ["sample", "--n", "3", "--count", "3000", "--seed", "1"],
    ])
    def test_write_error_exits_1(self, command):
        # every write to /dev/full fails with ENOSPC
        with open("/dev/full", "w") as full:
            r = subprocess.run([sys.executable, "-m", "bures", *command],
                               stdout=full, stderr=subprocess.PIPE, text=True)
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
        from bures import measure
        monkeypatch.setitem(measure.EIGEN_FACTOR_SUP, 3, 1.0)
        code, out, err = run_cli(capsys, "sample", "--n", "3", "--count", "10",
                                 "--seed", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("envelope violation:")
        assert "Traceback" not in err

    def test_usage_error_exit_code(self):
        r = subprocess.run([sys.executable, "-m", "bures", "density", "--n", "2",
                            "--params", "theta=0"], capture_output=True, text=True)
        assert r.returncode == 2
