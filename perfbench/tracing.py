"""Per-layer tracing from outside the program.

The program is not instrumented.  ``install`` replaces public functions of the
``bures`` modules with timing wrappers in every module namespace that binds
them (``cli``, ``integrate`` and ``sampling`` import names with
``from .x import name``), records one span per call (name, start, end,
parent) in memory, and ``Tracer.dump`` writes them out when the run ends.
``layer_metrics`` turns the spans of one run into the per-layer metrics.

``linalg``, ``generators`` and ``checks`` are on no workload's hot path, so
they have no metrics here.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# (module, function) pairs that get a span named "<module>.<function>"
TRACED = (
    ("cli", "main"),
    ("cli", "dumps_record"),
    ("cli", "matrix_payload"),
    ("integrate", "integrate"),
    ("integrate", "integrate_mc"),
    ("sampling", "sample"),
    ("sampling", "estimate_envelope"),
    ("measure", "normalization_constant"),
    ("measure", "joint_density_batch"),
    ("measure", "eigen_measure_factor"),
    ("measure", "coset_measure_factor"),
    ("tensorgrid", "tensor_quadrature"),
    ("euler", "coset_factor_stack"),
    ("euler", "density_batch"),
    ("functionals", "from_matrices"),
    ("functionals", "from_eigenvalues"),
)


def _rows(call: dict, result) -> dict:
    return {"rows": int(len(result))}


def _joint(call: dict, result) -> dict:
    return {"max": float(result.max()) if len(result) else 0.0}


def _nodes(call: dict, result) -> dict:
    if "spec" not in call or "lower" not in call:
        return {}
    return {"nodes": int(call["spec"].points_per_axis ** len(call["lower"]))}


def _batch(call: dict, result) -> dict:
    return {"proposals": int(getattr(result, "total_proposals", 0)),
            "count": int(getattr(result, "count", 0)),
            "envelope": float(getattr(result, "envelope", None) or 0.0)}


# counters read off a call's arguments and result, kept on its span; they
# read what is there, so a later version of the program still runs traced
_COUNTERS = {
    "measure.coset_measure_factor": _rows,
    "measure.joint_density_batch": _joint,
    "tensorgrid.tensor_quadrature": _nodes,
    "euler.density_batch": _rows,
    "sampling.sample": _batch,
}


class Tracer:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter()}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.update(counter(signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _with_traced_integrand(tracer: Tracer, tensor_quadrature):
    """Give ``fn`` its own span, so that kernel time is not counted as
    tensorgrid self time."""

    @functools.wraps(tensor_quadrature)
    def traced(fn, *args, **kwargs):
        return tensor_quadrature(tracer.wrap("tensorgrid.fn", fn), *args, **kwargs)

    return traced


def install(tracer: Tracer) -> None:
    """Replace every traced function wherever a ``bures`` module binds it.

    A function that a later version of the program no longer has is skipped;
    its metrics then read 0.
    """
    import bures.cli  # noqa: F401  (imports every submodule)

    modules = [mod for name, mod in sys.modules.items()
               if name == "bures" or name.startswith("bures.")]
    replaced = {}
    for mod_name, fn_name in TRACED:
        original = getattr(sys.modules.get(f"bures.{mod_name}"), fn_name, None)
        if original is None:
            continue
        wrapped = tracer.wrap(f"{mod_name}.{fn_name}", original)
        if fn_name == "tensor_quadrature":
            wrapped = _with_traced_integrand(tracer, wrapped)
        replaced[original] = wrapped
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
    # the normalization constants reach the factor kernels through this
    # table, not through a module-level name
    table = getattr(sys.modules["bures.measure"], "_FACTOR_FNS", {})
    for key, entry in table.items():
        table[key] = tuple(replaced.get(f, f) for f in entry)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by metric name."""
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[i]

    def total(name: str) -> float:
        return sum(d for s, d in zip(spans, dur) if s["name"] == name)

    def self_time(*names: str) -> float:
        return sum(d - c for s, d, c in zip(spans, dur, child) if s["name"] in names)

    def under(i: int, name: str) -> int | None:
        """Index of the nearest ancestor of span ``i`` named ``name``."""
        p = spans[i]["parent"]
        while p is not None and spans[p]["name"] != name:
            p = spans[p]["parent"]
        return p

    def count(name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    coset_s = total("measure.coset_measure_factor")
    coset_points = count("measure.coset_measure_factor", "rows")
    rounds = 0
    slack = 0.0
    for i, s in enumerate(spans):
        if s["name"] != "measure.joint_density_batch":
            continue
        owner = under(i, "sampling.sample")
        if owner is not None:
            rounds += 1
            if spans[owner]["envelope"] > 0:
                slack = max(slack, s["max"] / spans[owner]["envelope"])
    proposals = count("sampling.sample", "proposals")
    accepted = count("sampling.sample", "count")
    return {
        "measure.coset_measure_factor_s": coset_s,
        "measure.coset_points": coset_points,
        "measure.coset_points_per_s": coset_points / coset_s if coset_s > 0 else 0.0,
        "measure.normalization_constant_s": total("measure.normalization_constant"),
        "measure.eigen_measure_factor_s": total("measure.eigen_measure_factor"),
        "measure.joint_density_batch_s": total("measure.joint_density_batch"),
        "euler.coset_factor_stack_s": total("euler.coset_factor_stack"),
        "euler.density_batch_s": total("euler.density_batch"),
        "euler.density_rows": count("euler.density_batch", "rows"),
        "tensorgrid.tensor_quadrature_s": total("tensorgrid.tensor_quadrature"),
        "tensorgrid.self_s": self_time("tensorgrid.tensor_quadrature"),
        "tensorgrid.fn_s": total("tensorgrid.fn"),
        "tensorgrid.nodes": count("tensorgrid.tensor_quadrature", "nodes"),
        "sampling.sample_s": total("sampling.sample"),
        "sampling.self_s": self_time("sampling.sample"),
        "sampling.estimate_envelope_s": total("sampling.estimate_envelope"),
        "sampling.proposals": proposals,
        "sampling.rounds": rounds,
        "sampling.accept_ratio": accepted / proposals if proposals else 0.0,
        "sampling.envelope_slack": slack,
        "functionals.from_matrices_s": total("functionals.from_matrices"),
        "functionals.from_eigenvalues_s": total("functionals.from_eigenvalues"),
        "integrate.integrate_s": total("integrate.integrate"),
        "integrate.integrate_mc_s": total("integrate.integrate_mc"),
        "integrate.self_s": self_time("integrate.integrate", "integrate.integrate_mc"),
        "cli.self_s": self_time("cli.main"),
        "cli.dumps_record_s": total("cli.dumps_record"),
        "cli.matrix_payload_s": total("cli.matrix_payload"),
    }
