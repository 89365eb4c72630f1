"""One workload in one fresh process: set up, warm up, time rounds of the
op list, and with --trace 1 run one more round under the tracer.

Started by run_bench.py with the checkout's src/ on PYTHONPATH; writes its
findings as JSON to --result.  Nothing before _T0 but the interpreter's own
start-up, so setup_s covers importing packdim and building the inputs.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--result", required=True)
    return p.parse_args(argv)


def _run_round(ops, tracer=None):
    records = []
    start = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        try:
            with tracer.span("op." + op.name) if tracer else nullcontext():
                raw = op.run()
            error = None
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            raw, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t
        rec = {"op": op.name, "latency_s": latency, "error": error}
        if error is None:
            values, verdict, problems = op.summarize(raw)
            rec.update(values=values, verdict=verdict, problems=problems)
        records.append(rec)
    return {"wall_s": time.perf_counter() - start, "ops": records}


# ---------------------------------------------------------------------------
# Tracing: bindings, counters, per-layer metrics
# ---------------------------------------------------------------------------


def _sampler_label(points, method) -> str:
    """Which sampler the documented ``auto`` rule picks: fft for a uniform
    1-D grid starting at 0 with at least 256 points, else cholesky."""
    import numpy as np

    if method != "auto":
        return method
    p = np.asarray(points, dtype=float)
    p = p.reshape(len(p), -1)
    if p.shape[1] != 1 or len(p) < 256:
        return "cholesky"
    t = p[:, 0]
    if t[0] != 0.0 or t[1] <= 0.0:
        return "cholesky"
    uniform = np.all(np.abs(t - t[1] * np.arange(len(t))) <= 1e-12 * abs(t[-1]))
    return "fft" if uniform else "cholesky"


def _install(tracer) -> None:
    import numpy as np
    import packdim.cli as cli
    import packdim.estimators as est
    import packdim.experiment as exp
    import packdim.fields as fld
    import packdim.kernels as ker
    import packdim.measures as mea
    import packdim.verify as ver

    def elements(args, kwargs, result):
        return {"elements": int(np.size(result))}

    def rows(args, kwargs, result):
        return {"rows": int(np.shape(args[0] if args else kwargs["matrix"])[0])}

    def cells(args, kwargs, result):
        return {"cells": int(result)}

    def trials(args, kwargs, result):
        return {"trials": int(result.trials)}

    def sampler(fn):
        sig = inspect.signature(fn)

        def count(args, kwargs, result):
            a = sig.bind(*args, **kwargs)
            a.apply_defaults()
            return {_sampler_label(a.arguments["points"], a.arguments["method"]): 1}

        return count

    for mod, attr in ((exp, "sample_many"), (fld, "sample")):
        fn = getattr(mod, attr, None)
        tracer.wrap(mod, attr, f"fields.{attr}", sampler(fn) if callable(fn) else None)
    tracer.wrap(fld, "cholesky_psd", "numerics.cholesky_psd", rows)
    for mod in (est, ker, ver):
        tracer.wrap(mod, "gaussian_interval_prob", "numerics.gaussian_interval_prob", elements)
    for mod in (exp, est):
        tracer.wrap(mod, "box_counting_dim", "estimators.box_counting_dim")
    tracer.wrap(est, "box_count_curve", "estimators.box_count_curve", cells)
    tracer.wrap(est, "box_count", "estimators.box_count", cells)
    tracer.wrap(exp, "dim_field", "estimators.dim_field")
    for name in ("dim_ball_mass", "dim_profile", "dim_slice_kernel"):
        tracer.wrap(est, name, f"estimators.{name}")
    tracer.wrap(est, "slice_kernel", "kernels.slice_kernel")
    tracer.wrap(ver, "expected_ball_mass", "kernels.expected_ball_mass")
    tracer.wrap(ker, "slice_measure", "measures.slice_measure")
    tracer.wrap(ver, "rect_mass", "measures.rect_mass")
    tracer.wrap(mea, "read_measure_csv", "measures.read_measure_csv")
    for name in _CHECKS:
        tracer.wrap(cli, name, f"verify.{name}", trials)
    for mod, names in ((cli, ("build_uniform_cantor", "build_tx_system", "extract_subsystem")),
                       (exp, ("build_uniform_cantor", "build_tx_system", "realize_explicit",
                              "natural_measure"))):
        for name in names:
            tracer.wrap(mod, name, "fractals.build")
    tracer.wrap(exp, "run_experiment", "experiment.run_experiment")
    tracer.wrap(cli, "main", "cli.main")


_DISPATCH_SPANS = ("experiment.run_experiment", "cli.main")
_CHECKS = ("check_doubling", "check_scale_doubling", "check_parts",
           "check_gaussian_interval_bound", "check_graph_expectation_bound")


def _per_layer(tracer, ops, names) -> tuple[dict, list[str]]:
    """Values of the per-layer metrics ``names``.  A name <span>.<field>
    reads field s, self_s, calls or a count of that span; the rest are
    derived below.  Names the tracer cannot give (cli.import_s, bench
    ratios) are left to run_bench.py."""
    from tracer import aggregate

    agg = aggregate(tracer.spans)
    spans = tracer.spans
    gone = tracer.gone
    notes = [f"binding {b} is missing" for b in tracer.missing]
    notes += [f"every binding of {s} is missing; its metrics are absent" for s in sorted(gone)]
    derived = {}
    sampling = {"fields.sample_many", "fields.sample"}
    if not sampling <= gone:
        for label in ("fft", "cholesky"):
            derived[f"fields.sample_{label}.s"] = sum(
                (end - start for name, start, end, _, counts in spans
                 if name in sampling and (counts or {}).get(label)),
                0.0,
            )
    checks = [f"verify.{c}" for c in _CHECKS]
    if not set(checks) <= gone:
        derived["verify.trials"] = sum(agg.get(c, {}).get("trials", 0) for c in checks)
    # Work counts from the inputs, one execution of every op.
    work = {}
    for op in ops:
        for key, value in op.work().items():
            work[key] = work.get(key, 0) + value
    derived["estimators.dim_field.pairs"] = work.get("pairs", 0)
    derived["estimators.box_count_curve.segments"] = work.get("segments", 0)
    derived["fields.values_drawn"] = work.get("values_drawn", 0)
    derived["fractals.atoms"] = work.get("fractal_atoms", 0)
    if "estimators.dim_field" not in gone:
        evaluated = sum(
            (counts or {}).get("elements", 0)
            for name, _, _, parent, counts in spans
            if name == "numerics.gaussian_interval_prob" and parent >= 0
            and spans[parent][0] == "estimators.dim_field"
        )
        derived["estimators.dim_field.useful_ratio"] = (
            work.get("useful_pairs", 0) / evaluated if evaluated else 0.0
        )
    # Work no layer span covers: the self time of the op spans and of the
    # spans that only dispatch to layers.
    op_total = sum(end - start for name, start, end, *_ in spans if name.startswith("op."))
    uncovered = sum(row["self_s"] for n, row in agg.items()
                    if n.startswith("op.") or n in _DISPATCH_SPANS)
    derived["bench.uncovered_share"] = uncovered / op_total if op_total else 0.0

    out = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif span in tracer.wanted and span not in gone:
            out[name] = agg.get(span, {}).get(field, 0.0 if field in ("s", "self_s") else 0)
    return out, notes


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse(argv)
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    t = time.perf_counter()
    import packdim.cli  # noqa: F401  (the CLI module pulls in the whole package)

    import_s = time.perf_counter() - t
    src = os.path.join(root, "src")
    import packdim

    if not os.path.abspath(packdim.__file__).startswith(src + os.sep):
        print(f"packdim was imported from {packdim.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    scratch = os.path.join(here, "out", f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, args.size, scratch)
        setup_s = time.perf_counter() - _T0
        result = {"setup_s": setup_s, "import_s": import_s}
        if not args.setup_only:
            result.update(_measure(args, ops, scratch, root))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _measure(args, ops, scratch, root) -> dict:
    import numpy
    import scipy
    import workloads

    # Warm-up on tiny inputs: lazy imports, LAPACK/FFT set-up, page faults.
    warmup = _run_round(workloads.build(args.workload, args.seed, "tiny", scratch))
    rounds = []
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < args.seconds:
        rounds.append(_run_round(ops))
    out = {
        "warmup": warmup,
        "rounds": rounds,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "python": sys.version.split()[0], "blas": _blas_name(numpy)},
    }
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        _install(tracer)
        try:
            traced = _run_round(ops, tracer)
        finally:
            tracer.restore()
        out["traced"] = traced
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        out["per_layer"], out["notes"] = _per_layer(tracer, ops, names)
        tracer.write(os.path.join(root, "bench", "out",
                                  f"trace-{args.workload}-seed{args.seed}.json"))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _blas_name(numpy) -> str:
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
