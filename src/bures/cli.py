"""Command-line interface.

The ``bures`` command and ``python -m bures`` enter through
``bures.__main__.run``.  It runs numpy's BLAS on one thread, so that the
output bytes do not depend on the core count, and once ``main`` here has
returned its status (or argparse has raised ``SystemExit`` for ``--help`` or
a usage error) it flushes stdout and stderr and ends the process with
``os._exit``, skipping interpreter teardown (see ``bures.__main__``);
``main`` returns the status to an in-process caller.  This module
imports only the standard library and registers the package's modules
unexecuted; each subcommand imports the modules it runs, so numpy loads only
once a subcommand runs, still after that thread count is set, and ``--help``
or a usage error never loads it.

Subcommands: density, sample, integrate, volume, check.  Output is a single
JSON record (or a CSV stream for ``sample --format csv``) with schema_version
"1"; every float is printed with 17 significant digits so serialized output
round-trips byte-for-byte.  Angles are radians only.  ``sample`` prints the
draws of ``sampling.sample_chunks`` (the ``sampling`` docstring gives the
contract of sampler stream version 5), each row its angles, then re and im
of each matrix cell, the matrix from the closed-form kernel
``kernels.density_batch``.  Both
formats print rows through one ``%.16e`` row template (for JSON, the JSON
writer's own output with its floats made fields) and one
``floatfmt.RowWriter`` per command, which forms each 1024-row write in
buffers of its own, byte-identical to ``%`` (see ``floatfmt``), and the
command writes it from there.  Both formats write each of the sampler's
16384-index chunks as it is drawn, and lets go of it before the next is
drawn, so memory does not grow with ``--count``; JSON, whose record gives
``total_proposals`` before the samples, draws n=3 chunk 0 and keeps it while
it counts the later chunks' proposals from their attempts alone
(``sampling.counted_chunks``; an n=2 chunk's proposals are its size).  The
blocks are written from
the main thread to stdout's file (``floatfmt.byte_writer``), which, if it is
a pipe, is grown to 1 MiB, so that it holds a whole block and the reader
drains it while the next is formed.  ``density`` prints rho from the
same kernel on its one row, and the eigenvalues from the closed-form spectrum
(``kernels.diag_eigenvalues_batch``), in descending order.  Quadrature has
one rule, ``kernels.eigen_box_integral``: Gauss-Legendre on the eigenvalue
box, its first axis graded toward the edge where lam ln lam is singular,
and records name it in their ``rule`` field.  Every quadrature, ``volume``
and ``integrate`` for both n, defaults to 32 points per axis
(``kernels.QUADRATURE_POINTS``), and both report the gap to a rerun at half
the points (``comparison_points`` in ``volume``'s record), with an ulp
floor, as the error estimate.  ``tensorgrid`` evaluates the rule on whole
rows of the box in blocks of at most 8192 nodes, sums each block pairwise
with numpy and adds the block sums in index order, so its memory does not
grow with ``--points`` and its bytes do not depend on the BLAS library,
kernel or thread count.
``integrate`` rejects an option of the method it does not run
(``--points`` with ``--method mc``, ``--samples``/``--seed`` with
quadrature).  ``--points`` is in [4, 1024] per axis: from 4 up the error
estimate's coarser rerun is another rule, and the cap bounds the time of the
rule's construction and of the 1024^2-node grid.  A reader that closes
stdout early ends the command quietly; any other failure to write stdout (a
closed fd 1 too) exits 1 with a message, and an interrupt (Ctrl-C) exits 130
without a traceback, without waiting on a reader that stopped reading.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys

SCHEMA_VERSION = "1"

USAGE_ERROR = 2
CHECK_FAILURE = 1
OUTPUT_FAILURE = 1
INTERRUPTED = 130       # 128 + SIGINT, as a shell reports it
MAX_POINTS = 1024       # the n=3 rule: P**2 nodes; bounds the time (README, notes on cost)
DEFAULT_SAMPLES = 1_000_000
DEFAULT_SEED = 0
RULE = "gauss-legendre"     # the records' "rule" field; the only quadrature rule


# "%.16e": 17 significant digits, a lossless round-trip for binary64; sample
# rows get it from floatfmt, a vectorized form of this format (its FIELD)
_FLOAT = "%.16e"
_WRITE_ROWS = 1024      # sample rows per write; keeps each block under 1 MB


def _register_lazily(names: tuple[str, ...]) -> None:
    """Put the subcommands' modules in ``sys.modules`` without running them.

    Each is made by importlib's ``LazyLoader`` and runs on its first
    attribute access, which the importing subcommand makes, so ``--help`` and
    usage errors run none of them.  ``import bures.cli`` still leaves every
    module a subcommand runs in ``sys.modules`` and on the package, as when
    the CLI imported them up front: perfbench's tracer finds and wraps their
    functions there.
    """
    package = sys.modules[__package__]
    for name in names:
        fullname = f"{__package__}.{name}"
        if fullname in sys.modules:
            continue
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(package, name, module)


_register_lazily(("euler", "floatfmt", "functionals", "generators", "integration",
                  "kernels", "linalg", "measure", "sampling", "tensorgrid"))


def dumps_record(obj) -> str:
    """Serialize a record to JSON with fixed float formatting and key order."""
    parts: list[str] = []
    _write_json(obj, parts)
    return "".join(parts)


def _write_json(obj, parts: list[str]) -> None:
    if isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            parts.append(f'"{k}": ')
            _write_json(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(", ")
            _write_json(v, parts)
        parts.append("]")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(int(obj)))
    elif isinstance(obj, float):
        parts.append(_FLOAT % obj)
    elif isinstance(obj, str):
        parts.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif obj is None:
        parts.append("null")
    else:
        # a numpy scalar exists only once numpy is loaded, so this import
        # loads nothing for one (np.float64 is a float and took that branch)
        import numpy as np

        if isinstance(obj, np.integer):
            parts.append(str(int(obj)))
        elif isinstance(obj, np.floating):
            parts.append(_FLOAT % obj)
        else:
            raise TypeError(f"cannot serialize {type(obj)!r}")


def _param_names(n: int) -> tuple[str, ...]:
    from .kernels import COSET_NAMES, EIGEN_NAMES

    return EIGEN_NAMES[n] + COSET_NAMES[n]


def parse_params(n: int, tokens: list[str]):
    """The ``--params`` tokens as a ``euler.DensityMatrixParams``."""
    from .euler import params_from_values

    expected = _param_names(n)
    got: dict[str, float] = {}
    for tok in tokens:
        for piece in tok.split(","):
            piece = piece.strip()
            if not piece:
                continue
            name, eq, text = piece.partition("=")
            if not eq:
                raise ValueError(f"expected name=value, got {piece!r}")
            name = name.strip()
            if name not in expected:
                raise ValueError(f"unknown parameter {name!r} for n={n} "
                                 f"(expected {', '.join(expected)})")
            if name in got:
                raise ValueError(f"duplicate parameter {name!r}")
            try:
                got[name] = float(text)
            except ValueError:
                raise ValueError(f"parameter {name!r} has non-numeric value {text!r}") from None
    missing = [nm for nm in expected if nm not in got]
    if missing:
        raise ValueError(f"missing parameter(s): {', '.join(missing)}")
    return params_from_values(n, [got[nm] for nm in expected])


def _points(args) -> int:
    from .kernels import MIN_POINTS, QUADRATURE_POINTS

    points = QUADRATURE_POINTS if args.points is None else args.points
    if not MIN_POINTS <= points <= MAX_POINTS:
        raise ValueError(f"--points must be in [{MIN_POINTS}, {MAX_POINTS}], got {points}")
    return points


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_density(args) -> int:
    import numpy as np

    from .kernels import density_batch, diag_eigenvalues_batch
    from .measure import bures_joint_density

    params = parse_params(args.n, args.params)
    eigen = np.array(params.eigen.angles)[None, :]
    rho = density_batch(args.n, eigen, np.array(params.coset.angles)[None, :])[0]
    eigvals = np.sort(diag_eigenvalues_batch(args.n, eigen)[0])[::-1]
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "density",
        "n": args.n,
        "mode": args.mode,
        "params": {k: float(v) for k, v in params.as_dict().items()},
        "matrix": rho.view(np.float64).reshape(-1, 2).tolist(),   # [re, im] pairs
        "eigenvalues": [float(w) for w in eigvals],
        "bures_density": bures_joint_density(params, args.mode == "normalized"),
    }
    print(dumps_record(record))
    return 0


def cmd_sample(args) -> int:
    import numpy as np

    from . import sampling
    from .floatfmt import RowWriter, byte_writer
    from .kernels import EIGEN_FACTOR_SUP, density_batch

    n, k = args.n, args.n - 1
    names = _param_names(n)
    # a row is the angles, then re and im of each matrix cell in row-major
    # order; both formats print it through one template of _FLOAT fields
    if args.format == "csv":
        chunks = sampling.sample_chunks(n, args.count, args.seed)
        cells = [f"m{i}{j}_{part}" for i in range(n) for j in range(n)
                 for part in ("re", "im")]
        head = ",".join(names + tuple(cells)) + "\n"
        row = ",".join([_FLOAT] * (len(names) + len(cells))) + "\n"
        sep, tail = "", ""
    else:
        # the record gives total_proposals before the samples: for n=3,
        # chunk 0 is drawn and kept, and the later chunks' proposals are
        # counted from their attempts alone before their rows stream
        total_proposals, chunks = sampling.counted_chunks(n, args.count, args.seed)
        head = dumps_record({
            "schema_version": SCHEMA_VERSION,
            "kind": "samples",
            "n": n,
            "seed": int(args.seed),
            "count": int(args.count),
            "envelope": float(EIGEN_FACTOR_SUP[n]),
            "batch_size": sampling._BLOCK,
            "total_proposals": total_proposals,
            "params_order": list(names),
            "samples": [],
        })[:-2]                                      # open at "samples": [
        row = dumps_record({"params": dict.fromkeys(names, 0.0),
                            "matrix": [[0.0, 0.0]] * (n * n)}).replace(_FLOAT % 0.0, _FLOAT)
        sep, tail = ", ", "]}\n"
    # sep leads every row but the first
    writer = RowWriter(sep + row, min(args.count, _WRITE_ROWS), hermitian=(len(names), n))
    skip = len(sep)
    # each sampler chunk is written as it is drawn, and holds a whole number
    # of write blocks, so rows fall into the same blocks as in one batch
    write = byte_writer(sys.stdout)
    write(head.encode())
    for chunk, _ in chunks:
        for start in range(0, len(chunk), _WRITE_ROWS):
            params = chunk[start:start + _WRITE_ROWS]
            mats = density_batch(n, params[:, :k], params[:, k:])
            table = np.concatenate([params, mats.view(np.float64).reshape(len(params), -1)],
                                   axis=1)
            write(writer.view(table)[skip:])
            skip = 0
        # let go of the chunk (params is a view of it) before the next one
        # is drawn, so that two chunks are never held at once
        del chunk, params
    write(tail.encode())
    return 0


def cmd_integrate(args) -> int:
    from .functionals import FunctionalId
    from .integration import integrate, integrate_mc

    fid = FunctionalId.parse(args.functional)
    # each method takes only its own options; the defaults are set here so
    # that an option given to the other method can be told from its default
    if args.method == "mc":
        unused = {"--points": args.points}
    else:
        unused = {"--samples": args.samples, "--seed": args.seed}
    for flag, value in unused.items():
        if value is not None:
            raise ValueError(f"{flag} does not apply to --method {args.method}")
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "scalar",
        "n": args.n,
        "quantity": "integral",
        "functional": fid.label,
        "method": args.method,
    }
    if args.method == "quadrature":
        points = _points(args)
        res = integrate(args.n, fid, points)
        record.update(value=res.value, error_estimate=res.error_estimate,
                      points_per_axis=points, rule=RULE)
    else:
        samples = DEFAULT_SAMPLES if args.samples is None else args.samples
        seed = DEFAULT_SEED if args.seed is None else args.seed
        res = integrate_mc(args.n, fid, samples, seed=seed)
        # the record's std_error is the Monte Carlo error estimate, repeated
        record.update(value=res.value, error_estimate=res.error_estimate,
                      samples=samples, std_error=res.error_estimate, seed=int(seed))
    print(dumps_record(record))
    return 0


def cmd_volume(args) -> int:
    from .kernels import estimated, normalization_constant

    points = _points(args)
    value, error = estimated(lambda pts: normalization_constant(args.n, pts), points)
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "scalar",
        "n": args.n,
        "quantity": "volume",
        "method": "quadrature",
        "value": value,
        "error_estimate": error,
        "points_per_axis": points,
        "comparison_points": points // 2,
        "rule": RULE,
    }
    print(dumps_record(record))
    return 0


def cmd_check(args) -> int:
    from .checks import run_suite     # the suite is compiled only when it runs
    results = run_suite(args.suite)
    ok = all(r.passed for r in results)
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "check",
        "n": 0,
        "suite": args.suite,
        "passed": ok,
        "checks": [{"name": r.name, "deviation": r.deviation,
                    "tolerance": r.tolerance, "passed": r.passed}
                   for r in results],
    }
    print(dumps_record(record))
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{status:4s} {r.name}: deviation {r.deviation:.3e} "
              f"(tolerance {r.tolerance:.3e})", file=sys.stderr)
    return 0 if ok else CHECK_FAILURE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bures",
        description="Euler-angle coordinates and Bures measures for 2- and "
                    "3-state density matrices. Angles are radians.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_n(p):
        p.add_argument("--n", type=int, choices=(2, 3), required=True,
                       help="Hilbert-space dimension")

    p = sub.add_parser("density",
                       help="evaluate the density matrix and Bures density at a point")
    add_n(p)
    p.add_argument("--params", nargs="+", required=True, metavar="NAME=VALUE",
                   help="full coordinate set, e.g. theta=0.3 alpha=1.0 beta=0.2 "
                        "(n=2) or theta1,theta2,alpha,beta,gamma,theta_big,a,b "
                        "(n=3); comma- or space-separated")
    p.add_argument("--mode", choices=("raw", "normalized"), default="raw")
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser(
        "sample", help="draw density matrices from the normalized Bures density",
        description="Draw density matrices from the normalized Bures density on "
                    "the angle box: coset angles exactly by inverse CDF; the "
                    "n=2 eigenvalue angle exactly too, as "
                    "asin(sqrt(u1) cos(pi u2 / 2)) / 2 from a uniform pair; "
                    "the n=3 eigenvalue angles by rejection against the exact "
                    "sup of the eigenvalue factor (reported as 'envelope', for "
                    "n=2 too). Sampler stream version 5: each 16384-index "
                    "chunk reads one Philox stream of attempts, keyed by "
                    "(seed, 0), and one of coset uniforms, keyed by (seed, 1), "
                    "in order, so every count prefix of a seed's output is the "
                    "same. 'batch_size' is the n=3 attempts drawn per pending "
                    "sample in one round, up to 4096 attempts a round (a cost "
                    "choice that leaves the samples as they are; n=2 has no "
                    "rounds, and its record reads the same value); "
                    "'total_proposals' counts the attempts examined up to and "
                    "including the last accepted one (for n=2, every attempt "
                    "is a sample, so it is the count). Rows are written as "
                    "each chunk is drawn, so memory does not grow with "
                    "--count; the n=3 JSON record, which gives total_proposals "
                    "first, keeps chunk 0 while it counts the later chunks' "
                    "attempts, so up to 16384 rows run the sampler once. "
                    "For n=3 the paper's box "
                    "counts some spectra twice, so the samples differ from the "
                    "Bures ensemble (mean purity 0.68444, not 46/66).")
    add_n(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv columns: the angles by name, then 2n^2 matrix "
                        "columns m{i}{j}_re, m{i}{j}_im in row-major order")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("integrate",
                       help="integrate a functional against the normalized Bures measure")
    add_n(p)
    p.add_argument("--functional", required=True,
                   help="entropy | purity | moment:k (moment:0 is the constant 1)")
    p.add_argument("--method", choices=("quadrature", "mc"), default="quadrature")
    p.add_argument("--points", type=int, default=None,
                   help="Gauss-Legendre points per axis of the eigenvalue box "
                        "(method=quadrature; default 32; 4 to 1024)")
    p.add_argument("--samples", type=int, default=None,
                   help="Monte Carlo sample count (method=mc; at least 2, default "
                        "1000000); reduced one sampler chunk of 16384 samples at "
                        "a time, merging each chunk's mean and variance in index "
                        "order, so memory does not grow with the count")
    p.add_argument("--seed", type=int, default=None,
                   help="Monte Carlo seed (method=mc; default 0)")
    p.set_defaults(fn=cmd_integrate)

    p = sub.add_parser("volume",
                       help="RAW normalization constant of the Bures density")
    add_n(p)
    p.add_argument("--points", type=int, default=None,
                   help="Gauss-Legendre points per axis of the eigenvalue box "
                        "(default 32; 4 to 1024)")
    p.set_defaults(fn=cmd_volume)

    p = sub.add_parser("check", help="run the invariant suite")
    p.add_argument("--suite", choices=("fast", "full"), default="fast")
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if sys.stdout is None:             # fd 1 was closed when Python started
        print("error: cannot write output: stdout is closed", file=sys.stderr)
        return OUTPUT_FAILURE
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:           # bad input, euler.AngleRangeError included
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RuntimeError as exc:
        # only the sampler raises EnvelopeViolationError, so for one the
        # sampler has run and this import loads nothing
        from .sampling import EnvelopeViolationError

        if not isinstance(exc, EnvelopeViolationError):
            raise
        print(f"envelope violation: {exc}", file=sys.stderr)
        return CHECK_FAILURE
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`); send what is still
        # buffered to devnull so the exit flush cannot raise
        _discard_stdout()
        return 0
    except OSError as exc:
        # stdout could not take the output (e.g. a full disk); the commands
        # do no other I/O
        _discard_stdout()
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return OUTPUT_FAILURE
    except KeyboardInterrupt:
        # Ctrl-C: drop what is still buffered, so that the exit flush
        # cannot block or raise, and exit as an interrupted command does
        _discard_stdout()
        return INTERRUPTED


def _discard_stdout() -> None:
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    finally:
        os.close(devnull)

