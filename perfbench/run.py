"""End-to-end benchmark of the bures CLI.

    python3 perfbench/run.py --workload quad-n3 --seed 1 --seconds 40 --trace 0

Runs one workload as ``bures`` CLI subprocesses, one at a time from this one
process (closed loop, one client), with the environment the benchmark itself
inherited (``BURES_THREADS`` removed, as users run it, and ``src`` put first
on ``PYTHONPATH`` so the checkout's own source runs).  Each run first times
``bures <subcommand> --help`` several times (``setup_s``), then repeats the
workload command until ``--seconds`` would be exceeded (at least once) and
reports medians.  Every run's exit status, stderr and output are checked;
stdout must be byte-identical across the runs of one seed.

With ``--trace 1`` each repetition is an untraced run followed by a run under
``traced_cli.py``, which times calls into the ``bures`` modules from outside
the program; the per-layer metrics are the medians over the traced runs, and
``trace.overhead_s`` is the traced minus the untraced median wall time.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Run records,
spans and the machine description go to ``.bench_out/``.

Single runs on a 2-core box spread by about 25% (mc-n2: 4.26-5.56 s), and
``cpu_s`` tracks ``wall_s`` there, so the spread comes from the machine's
speed rather than the scheduler.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from tracing import layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HERE = Path(__file__).resolve().parent

HELP_RUNS = 9            # setup_s is the median of this many --help runs
CHILD_TIMEOUT_S = 100.0  # a hung CLI run is killed and counted as failed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: Callable[[int, bool], list[str]]   # (seed, small) -> CLI arguments
    check: Callable[[dict, list[str]], float]


def _arg(args: list[str], flag: str) -> int:
    return int(args[args.index(flag) + 1])


WORKLOADS = {w.name: w for w in (
    Workload(
        "quad-n3",
        why="The quadrature path with no sampling and no serialization: measure "
            "and tensorgrid changes show here and nowhere cleaner (Z3 over 1e6 "
            "coset nodes, then the 6^8-node grid).",
        # 6 points per axis is the smallest size that meets the 1e-4 check,
        # so the smoke size is the full size
        args=lambda seed, small: ["integrate", "--n", "3", "--functional", "entropy",
                                  "--points", "6"],
        check=lambda rec, args: checks.check_quadrature(rec, _arg(args, "--points")),
    ),
    Workload(
        "sample-n3",
        why="Every layer, including the cold-start constants, the 6x6 coset "
            "kernel on proposals at 2.5% acceptance and the JSON serializer; "
            "peak RSS grows with --count, so memory changes show here.",
        args=lambda seed, small: ["sample", "--n", "3",
                                  "--count", "500" if small else "10000",
                                  "--seed", str(seed), "--format", "json"],
        check=lambda rec, args: checks.check_samples(rec, _arg(args, "--count")),
    ),
    Workload(
        "mc-n2",
        why="The sampler with trivial n=2 constants and nothing serialized: the "
            "samples are reduced in memory, so a sampler change that helps one "
            "use and hurts the other shows against sample-n3.",
        args=lambda seed, small: ["integrate", "--n", "2", "--functional", "entropy",
                                  "--method", "mc",
                                  "--samples", "20000" if small else "200000",
                                  "--seed", str(seed)],
        check=lambda rec, args: checks.check_monte_carlo(rec, _arg(args, "--samples")),
    ),
)}

# (name, unit) of the metrics in the result line; the same lists as BENCHMARK.json
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PER_LAYER = (
    ("measure.coset_measure_factor_s", "s"),
    ("measure.coset_points", "count"),
    ("measure.coset_points_per_s", "1/s"),
    ("measure.normalization_constant_s", "s"),
    ("measure.eigen_measure_factor_s", "s"),
    ("euler.coset_factor_stack_s", "s"),
    ("euler.density_rows", "count"),
    ("tensorgrid.tensor_quadrature_s", "s"),
    ("tensorgrid.self_s", "s"),
    ("tensorgrid.fn_s", "s"),
    ("tensorgrid.nodes", "count"),
    ("sampling.proposals", "count"),
    ("sampling.rounds", "count"),
    ("sampling.accept_ratio", "ratio"),
    ("sampling.envelope_slack", "ratio"),
    ("cli.self_s", "s"),
    ("cli.dumps_record_s", "s"),
    ("cli.bytes_out", "B"),
    ("trace.overhead_s", "s"),
)
# Layer times that are exactly 0 on a workload that never enters the layer.
# They are printed and written to .bench_out/ but kept out of the result
# line, whose metrics must be present and measured on every workload.
PER_LAYER_PRINTED_ONLY = (
    ("measure.joint_density_batch_s", "s"),
    ("euler.density_batch_s", "s"),
    ("sampling.sample_s", "s"),
    ("sampling.self_s", "s"),
    ("sampling.estimate_envelope_s", "s"),
    ("functionals.from_matrices_s", "s"),
    ("functionals.from_eigenvalues_s", "s"),
    ("integrate.integrate_s", "s"),
    ("integrate.integrate_mc_s", "s"),
    ("integrate.self_s", "s"),
    ("cli.matrix_payload_s", "s"),
)


@dataclass
class Run:
    """One CLI process: what it cost and whether its output was right."""

    kind: str                  # "help", "plain" or "traced"
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    bytes_out: int
    digest: str
    error: str | None = None
    score: float | None = None   # abs_err, or |z| of the statistical check
    layers: dict = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BURES_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


_ENV_VALUES = ("PYTHON", "BURES", "OMP_", "OPENBLAS", "MKL_", "NUMPY")


def environment(env: dict[str, str]) -> dict:
    """The machine, the toolchain and what the CLI processes inherit.

    Values are kept for the variables that can change Python or numpy
    behaviour; the others are listed by name only.
    """
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "child_env": {k: env[k] for k in sorted(env) if k.startswith(_ENV_VALUES)},
        "child_env_names": sorted(env),
    }


def run_child(cmd: list[str], env: dict[str, str]) -> tuple[int, bytes, bytes, float, float, float]:
    """Run ``cmd`` to exit with stdout drained; returns status, stdout,
    stderr, wall seconds, CPU seconds and peak RSS in MB."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    err_chunks: list[bytes] = []
    reader = threading.Thread(target=lambda: err_chunks.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        proc.kill()
        proc.wait()
        reader.join()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out, b"".join(err_chunks), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


class Bench:
    """The runs of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, small: bool):
        self.workload = workload
        self.args = workload.args(seed, small)
        self.env = child_env()
        self.runs: list[Run] = []
        self.spans_dir = OUT / f"{workload.name}-seed{seed}-spans"

    def _record(self, kind: str, cmd: list[str], check) -> Run:
        status, out, err, wall, cpu, rss = run_child(cmd, self.env)
        run = Run(kind, wall, cpu, rss, len(out), hashlib.sha256(out).hexdigest())
        try:
            checks.check_process(status, err)
            run.score = check(out)
        except checks.CheckFailed as exc:
            run.error = str(exc)
        self.runs.append(run)
        return run

    def help(self) -> Run:
        sub = self.args[0]
        return self._record("help", [sys.executable, "-m", "bures", sub, "--help"],
                            lambda out: checks.check_help(out, sub))

    def invoke(self, traced: bool) -> Run:
        check = lambda out: self.workload.check(checks.parse_record(out), self.args)
        if not traced:
            return self._record("plain", [sys.executable, "-m", "bures", *self.args], check)
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        spans = self.spans_dir / f"run{len(self.runs)}.json"
        spans.unlink(missing_ok=True)
        run = self._record("traced", [sys.executable, str(HERE / "traced_cli.py"),
                                      str(spans), *self.args], check)
        if spans.is_file():
            with open(spans) as fh:
                run.layers = layer_metrics(json.load(fh))
        elif run.error is None:
            run.error = "traced run wrote no spans"
        run.layers["cli.bytes_out"] = run.bytes_out
        return run

    def check_determinism(self) -> None:
        """Stdout must be byte-identical across all runs of one seed."""
        runs = [r for r in self.runs if r.kind != "help"]
        for r in runs[1:]:
            if r.digest != runs[0].digest and r.error is None:
                r.error = "stdout differs from the first run of this seed"


def measure(bench: Bench, seconds: float, trace: bool) -> None:
    """Set-up runs, then repetitions until ``seconds`` would be exceeded."""
    for _ in range(HELP_RUNS):
        bench.help()
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        bench.invoke(traced=False)
        if trace:
            bench.invoke(traced=True)
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    bench.check_determinism()


def report(bench: Bench, trace: bool) -> tuple[dict, list[str]]:
    """The result line's metrics and the human-readable lines."""
    name = bench.workload.name
    setup = [r for r in bench.runs if r.kind == "help"]
    plain = [r for r in bench.runs if r.kind == "plain"]
    traced = [r for r in bench.runs if r.kind == "traced"]
    failed = [r for r in bench.runs if r.error is not None]
    samples = {"wall_s": [r.wall_s for r in plain], "cpu_s": [r.cpu_s for r in plain],
               "peak_rss_mb": [r.peak_rss_mb for r in plain],
               "setup_s": [r.wall_s for r in setup]}
    values = {key: statistics.median(v) for key, v in samples.items()}
    lines = [f"{name} {key} {values[key]:.6g} {unit} (median of {len(samples[key])}, "
             f"min {min(samples[key]):.6g}, max {max(samples[key]):.6g})"
             for key, unit in END_TO_END]
    if name == "quad-n3":
        scores = [r.score for r in plain if r.score is not None]
        if scores:
            lines.append(f"{name} abs_err {statistics.median(scores):.6g} nats "
                         f"(reference {checks.MEAN_ENTROPY_3})")
    lines.append(f"{name} fail_frac {len(failed) / len(bench.runs):.6g} ratio "
                 f"({len(failed)} of {len(bench.runs)} CLI runs failed)")
    lines += [f"{name} FAILED {r.kind} run: {r.error}" for r in failed]
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
    if trace:
        layers = {key: statistics.median(r.layers.get(key, 0.0) for r in traced)
                  for key, _ in PER_LAYER + PER_LAYER_PRINTED_ONLY
                  if key != "trace.overhead_s"}
        layers["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                      - values["wall_s"])
        lines += [f"{name} {key} {layers[key]:.6g} {unit} (traced, median of {len(traced)})"
                  for key, unit in PER_LAYER + PER_LAYER_PRINTED_ONLY]
        metrics = {key: {"value": layers[key], "unit": unit} for key, unit in PER_LAYER}
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the workload's inputs (sample and MC seeds)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for about this long (at least one run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the benchmark's own smoke test")
    opts = parser.parse_args(argv)
    if not (SRC / "bures" / "cli.py").is_file():
        print(f"error: no bures source under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if not 0 <= opts.seed < 2 ** 64:
        parser.error("--seed must fit an unsigned 64-bit integer")
    workload = WORKLOADS[opts.workload]
    OUT.mkdir(exist_ok=True)
    bench = Bench(workload, opts.seed, opts.small)
    env = environment(bench.env)
    measure(bench, opts.seconds, bool(opts.trace))
    metrics, lines = report(bench, bool(opts.trace))
    failed = sum(r.error is not None for r in bench.runs)
    result = {"correct": failed == 0, "attempted": len(bench.runs), "failed": failed,
              "metrics": metrics}
    tag = f"{workload.name}-seed{opts.seed}-trace{opts.trace}"
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump({"workload": workload.name, "why": workload.why,
                   "command": ["bures", *bench.args], "seed": opts.seed,
                   "seconds": opts.seconds, "environment": env, "result": result,
                   "runs": [vars(r) for r in bench.runs]}, fh, indent=1)
    print(f"# {workload.name}: bures {' '.join(bench.args)}")
    print(f"# why: {workload.why}")
    print(f"# closed loop, 1 client; nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} commit={env['commit']}")
    print(f"# CLI env: the benchmark's own, BURES_THREADS unset, "
          f"PYTHONPATH={bench.env['PYTHONPATH']}; full record in {OUT / tag}.json")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
