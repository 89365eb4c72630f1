#!/usr/bin/env python3
"""packdim benchmark: one workload, its end-to-end metrics, and with
--trace 1 its per-layer metrics.

    python3 bench/run_bench.py --workload line-graph --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; packdim is imported from the
checkout's src/.  Set-up is timed in several fresh interpreters, then one
more fresh process warms up, times rounds of the workload's op list for
--seconds and, with --trace 1, runs one traced round.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Reports, digests and spans go to
bench/out/.  Exits 2 without a result when the checkout has no package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
BUDGET_S = 170.0
SETUP_PROBES = 3  # fresh interpreters timed for setup_s, the workload process included
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _parse(argv, workloads):
    p = argparse.ArgumentParser(description="packdim benchmark")
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the smoke test")
    p.add_argument("--record", action="store_true",
                   help="store this run's output fingerprint as the reference for its seed")
    return p.parse_args(argv)


def _run_worker(extra, env, deadline) -> dict:
    result = os.path.join(OUT, f"result-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--result", result, *extra]
    try:
        proc = subprocess.run(cmd, env=env, timeout=max(1.0, deadline - time.monotonic()),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        if os.path.exists(result):
            os.remove(result)


def _canon(v):
    return v.hex() if isinstance(v, float) else v


def _fingerprint(ops) -> dict:
    return {op["op"]: {k: _canon(v) for k, v in sorted(op["values"].items())} for op in ops}


def _digest(fp: dict) -> str:
    return hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()


def _moved(recorded: dict, current: dict) -> list[str]:
    def show(v):
        return repr(float.fromhex(v)) if isinstance(v, str) else repr(v)

    lines = []
    for op in sorted(set(recorded) | set(current)):
        old, new = recorded.get(op, {}), current.get(op, {})
        for key in sorted(set(old) | set(new)):
            if old.get(key) != new.get(key):
                was = show(old[key]) if key in old else "absent"
                now = show(new[key]) if key in new else "absent"
                lines.append(f"{op} {key}: recorded {was}, now {now}")
    return lines


def main(argv=None) -> int:
    deadline = time.monotonic() + BUDGET_S
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    args = _parse(argv, [w["name"] for w in spec["workloads"]])
    if not os.path.isfile(os.path.join(ROOT, "src", "packdim", "__init__.py")):
        print(f"error: no packdim package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    try:
        probes = [_run_worker(common + ["--setup-only"], env, deadline)
                  for _ in range(SETUP_PROBES - 1)]
        res = _run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, deadline,
        )
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = res["rounds"]
    records = [op for r in rounds for op in r["ops"]]
    traced = res.get("traced")
    all_records = res["warmup"]["ops"] + records + (traced["ops"] if traced else [])
    attempted = len(all_records)
    failed = sum(1 for op in all_records if op["error"])
    verdicts = [op["verdict"] for op in records if op.get("verdict") is not None]
    setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
    imports = [p["import_s"] for p in probes] + [res["import_s"]]
    wall_s = statistics.median(r["wall_s"] for r in rounds)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "op_p50_s": statistics.median(op["latency_s"] for op in records),
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_rate": sum(verdicts) / len(verdicts) if verdicts else 0.0,
    }
    per_layer = {}
    if traced:
        per_layer = dict(res["per_layer"])
        per_layer["cli.import_s"] = statistics.median(imports)
        per_layer["bench.trace_overhead_ratio"] = traced["wall_s"] / wall_s
        per_layer["error_rate"] = failed / attempted

    # Correctness: no op raised, every output is finite and in range, and
    # every round (the traced one too) reproduces the first bit for bit.
    problems = [f"{op['op']}: {op['error']}" for op in all_records if op["error"]]
    problems += [f"{op['op']}: {p}" for op in all_records for p in op.get("problems", [])]
    fingerprints = [_fingerprint(r["ops"]) for r in rounds + ([traced] if traced else [])
                    if not any(op["error"] for op in r["ops"])]
    digest = _digest(fingerprints[0]) if fingerprints else None
    if any(_digest(fp) != digest for fp in fingerprints[1:]):
        problems.append("outputs differ between rounds of the same inputs")
    correct = not problems

    key = f"{args.workload}/{args.seed}"
    recorded = {}
    if os.path.exists(FINGERPRINTS):
        with open(FINGERPRINTS, encoding="utf-8") as fh:
            recorded = json.load(fh)
    moved = None
    if args.size == "full" and fingerprints:
        if args.record:
            recorded[key] = {"digest": digest, "ops": fingerprints[0]}
            with open(FINGERPRINTS, "w", encoding="utf-8") as fh:
                json.dump(recorded, fh, indent=1, sort_keys=True)
                fh.write("\n")
        if key in recorded:
            moved = _moved(recorded[key]["ops"], fingerprints[0])

    env_info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        **res["versions"],
        **{v: os.environ.get(v, "unset") for v in BLAS_VARS},
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": units[m["name"]]}
               for m in wanted if m["name"] in values}
    notes = list(res.get("notes", []))
    notes += [f"metric {m['name']} is absent" for m in wanted if m["name"] not in values]
    if traced and per_layer["bench.uncovered_share"] > 0.10:
        notes.append(f"named spans cover only {1 - per_layer['bench.uncovered_share']:.1%} "
                     "of the traced op time")

    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "env": env_info, "setup_samples_s": setups,
        "round_walls_s": [r["wall_s"] for r in rounds],
        "traced_wall_s": traced["wall_s"] if traced else None,
        "op_latencies_s": [[op["op"], op["latency_s"]] for op in records],
        "end_to_end": end_to_end, "per_layer": per_layer, "correct": correct,
        "problems": problems, "notes": notes, "digest": digest,
        "fingerprint": fingerprints[0] if fingerprints else None, "moved": moved,
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print("env: " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} timed rounds of "
          f"{len(rounds[0]['ops'])} ops, {attempted} ops attempted, {failed} failed, "
          f"{len(setups)} set-ups")
    for name, value in end_to_end.items():
        print(f"  {name} = {value!r} {units.get(name, '')}")
    print(f"  error_rate = {failed / attempted!r} share")
    for op in records[: len(rounds[0]["ops"])]:
        verdict = {True: "pass", False: "FAIL", None: "-"}[op.get("verdict")]
        print(f"  op {op['op']}: verdict {verdict}")
    for name, value in sorted(per_layer.items()):
        print(f"  layer {name} = {value!r} {units.get(name, '')}")
    print(f"digest {digest}")
    if moved is not None:
        print("fingerprint matches the recorded one" if not moved
              else f"fingerprint moved from the recorded one in {len(moved)} values:")
        for line in moved[:40]:
            print(f"  moved: {line}")
    for line in problems + notes:
        print(f"  note: {line}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
