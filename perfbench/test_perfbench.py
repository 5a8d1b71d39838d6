"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

The output checks must count bad outputs as failures, the tracer must see
the kernels wherever the package binds them, and a reduced-size run must
print every metric with its unit.  The smoke runs take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
from tracing import layer_metrics

MC_ARGS = ["integrate", "--n", "2", "--functional", "entropy", "--method", "mc",
           "--samples", "2000", "--seed", "3"]


def _cli(*args: str) -> tuple[int, bytes, bytes]:
    status, out, err, *_ = run.run_child([sys.executable, "-m", "bures", *args],
                                         run.child_env())
    return status, out, err


@pytest.fixture(scope="module")
def samples_out() -> bytes:
    status, out, err = _cli("sample", "--n", "3", "--count", "200", "--seed", "2",
                            "--format", "json")
    assert status == 0, err
    return out


@pytest.fixture
def workdir(request):
    """A fresh directory under the checkout's benchmark output directory."""
    path = run.OUT / "tests" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _quad_record(value: float) -> dict:
    return {"schema_version": "1", "kind": "scalar", "n": 3, "functional": "entropy",
            "method": "quadrature", "value": value, "points_per_axis": 6}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def test_process_failures():
    checks.check_process(0, b"")
    with pytest.raises(checks.CheckFailed):
        checks.check_process(1, b"")
    with pytest.raises(checks.CheckFailed):
        checks.check_process(0, b"Traceback (most recent call last):\n")


def test_truncated_and_wrong_schema_records_fail():
    good = json.dumps(_quad_record(checks.MEAN_ENTROPY_3)).encode()
    assert checks.parse_record(good)["value"] == checks.MEAN_ENTROPY_3
    with pytest.raises(checks.CheckFailed):
        checks.parse_record(good[:-20])
    with pytest.raises(checks.CheckFailed):
        checks.parse_record(good.replace(b'"1"', b'"2"', 1))


def test_quadrature_value_outside_tolerance_fails():
    ok = checks.MEAN_ENTROPY_3 + 0.5 * checks.QUAD_TOL
    assert checks.check_quadrature(_quad_record(ok), 6) == pytest.approx(0.5 * checks.QUAD_TOL)
    with pytest.raises(checks.CheckFailed):
        checks.check_quadrature(_quad_record(checks.MEAN_ENTROPY_3 + 10 * checks.QUAD_TOL), 6)
    with pytest.raises(checks.CheckFailed):
        checks.check_quadrature(_quad_record(checks.MEAN_ENTROPY_3), 8)


def test_monte_carlo_value_outside_tolerance_fails():
    status, out, err = _cli(*MC_ARGS)
    assert status == 0, err
    record = checks.parse_record(out)
    assert checks.check_monte_carlo(record, 2000) <= checks.SIGMAS
    bad = dict(record, value=checks.MEAN_ENTROPY_2 + 10 * checks.SIGMAS * record["std_error"])
    with pytest.raises(checks.CheckFailed):
        checks.check_monte_carlo(bad, 2000)
    with pytest.raises(checks.CheckFailed):
        checks.check_monte_carlo(record, 1000)


def test_samples_pass_on_real_output(samples_out):
    assert checks.check_samples(checks.parse_record(samples_out), 200) <= checks.SIGMAS


def _corrupt(out: bytes, edit) -> dict:
    record = checks.parse_record(out)
    edit(record["samples"][7])
    return record


def _not_psd(row):
    # Hermitian with unit trace, eigenvalues 1.5, -0.5, 0
    row["matrix"] = [[0.5, 0.0], [1.0, 0.0], [0.0, 0.0],
                     [1.0, 0.0], [0.5, 0.0], [0.0, 0.0],
                     [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


def _not_hermitian(row):
    row["matrix"][1][1] += 1e-6


def _outside_box(row):
    row["params"]["beta"] = 2.0


def _wrong_spectrum(row):
    row["params"]["theta1"] = 0.5 * row["params"]["theta1"] + 0.01


@pytest.mark.parametrize("edit", [_not_psd, _not_hermitian, _outside_box, _wrong_spectrum])
def test_bad_samples_fail(samples_out, edit):
    with pytest.raises(checks.CheckFailed):
        checks.check_samples(_corrupt(samples_out, edit), 200)


def test_wrong_sample_count_fails(samples_out):
    record = checks.parse_record(samples_out)
    with pytest.raises(checks.CheckFailed):
        checks.check_samples(record, 201)
    record["samples"].pop()
    with pytest.raises(checks.CheckFailed):
        checks.check_samples(record, 200)


def test_biased_purity_fails(samples_out):
    record = checks.parse_record(samples_out)
    # keep only the purer half: every matrix stays valid, the mean moves
    pur = [sum(re * re + im * im for re, im in s["matrix"]) for s in record["samples"]]
    cut = sorted(pur)[len(pur) // 2]
    record["samples"] = [s for s, p in zip(record["samples"], pur) if p >= cut][:100]
    record["count"] = 100
    with pytest.raises(checks.CheckFailed):
        checks.check_samples(record, 100)


def test_stdout_differing_across_runs_of_a_seed_fails():
    bench = run.Bench(run.WORKLOADS["mc-n2"], seed=3, small=True)
    bench.runs = [run.Run("help", 0.2, 0.2, 30.0, 600, "h"),
                  run.Run("plain", 1.0, 1.0, 100.0, 256, "a"),
                  run.Run("plain", 1.0, 1.0, 100.0, 256, "a"),
                  run.Run("traced", 1.0, 1.0, 100.0, 256, "b")]
    bench.check_determinism()
    assert [r.error is None for r in bench.runs] == [True, True, True, False]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _span(name, parent, start, end, **counters):
    return dict(name=name, parent=parent, start=start, end=end, **counters)


def test_layer_metrics_self_time_and_sampler_counters():
    spans = [
        _span("cli.main", None, 0.0, 10.0),
        _span("sampling.sample", 0, 1.0, 9.0, proposals=400, count=10, envelope=2.0),
        _span("measure.joint_density_batch", 1, 2.0, 4.0, max=1.0),
        _span("measure.coset_measure_factor", 2, 2.5, 3.5, rows=200),
        _span("measure.joint_density_batch", 1, 5.0, 6.0, max=1.5),
        _span("tensorgrid.tensor_quadrature", 0, 9.0, 9.5, nodes=64),
        _span("tensorgrid.fn", 5, 9.1, 9.3),
    ]
    m = layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(10.0 - 8.0 - 0.5)
    assert m["sampling.self_s"] == pytest.approx(8.0 - 2.0 - 1.0)
    assert m["sampling.rounds"] == 2
    assert m["sampling.accept_ratio"] == pytest.approx(10 / 400)
    assert m["sampling.envelope_slack"] == pytest.approx(0.75)
    assert m["measure.coset_points_per_s"] == pytest.approx(200.0)
    assert m["tensorgrid.self_s"] == pytest.approx(0.3)
    assert m["tensorgrid.fn_s"] == pytest.approx(0.2)
    assert m["tensorgrid.nodes"] == 64


def test_traced_cli_sees_kernels_behind_the_factor_table(workdir):
    spans_path = workdir / "spans.json"
    status, out, err, *_ = run.run_child(
        [sys.executable, str(run.HERE / "traced_cli.py"), str(spans_path),
         "integrate", "--n", "2", "--functional", "purity", "--points", "8"],
        run.child_env())
    assert status == 0, err
    assert checks.parse_record(out)["kind"] == "scalar"
    spans = json.loads(spans_path.read_text())
    names = [s["name"] for s in spans]
    assert names[0] == "cli.main"
    # the Z2 quadrature reaches coset_measure_factor through measure._FACTOR_FNS
    kernel_parents = {names[s["parent"]] for s in spans
                      if s["name"] == "measure.coset_measure_factor"}
    assert kernel_parents == {"tensorgrid.fn"}
    norm = names.index("measure.normalization_constant")
    assert any(s["name"] == "tensorgrid.tensor_quadrature" and s["parent"] == norm
               for s in spans)
    m = layer_metrics(spans)
    assert m["tensorgrid.nodes"] == 64 + 64 ** 2 + 8 ** 3 + 4 ** 3
    assert m["integrate.integrate_s"] > 0.0


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------

def _result(stdout: str) -> tuple[list[str], dict]:
    lines = stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_json_matches_the_command():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_prints_every_metric(workload):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", "1", "--small"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines, result = _result(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.PER_LAYER)
    printed = {line.split()[1]: line.split()[3] for line in lines
               if line.startswith(workload + " ")}
    wanted = dict(run.END_TO_END + run.PER_LAYER + run.PER_LAYER_PRINTED_ONLY)
    wanted["fail_frac"] = "ratio"
    if workload == "quad-n3":
        wanted["abs_err"] = "nats"
    assert printed == wanted


def test_fails_without_the_source_tree(workdir):
    shutil.copytree(run.HERE, workdir / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    proc = subprocess.run(
        [sys.executable, str(workdir / run.HERE.name / "run.py"), "--workload", "mc-n2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=workdir)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
