"""resistnet benchmark: four closed-loop workloads and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --smoke                 # tiny load, checks the schema

Each run starts its workload in a fresh interpreter (worker.py) with one
client, measures set-up, runs whole cycles of generated jobs for at least
``--seconds``, then checks every job's output here, outside the timed
region, against references that do not use resistnet (reference.py).
The last line of stdout is the result object; the line before it holds
provenance and the run's details.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs three
passes of ``--seconds / 3`` each: untraced, traced, and traced with BLAS
pinned to one thread (a diagnostic; the other passes inherit the
environment), and reports the per-layer metrics of the traced passes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_RUNS = 3
# Per-layer metrics each workload exercises, the "on" column of the README's
# layer table.  --trace 1 reports every per-layer metric on every workload;
# the others read 0 where the workload never calls their layer.
EXERCISED = {
    "closed-form": ("lattice.resistance_s", "lattice.resistance_calls", "lattice.mode_terms", "cli.render_s"),
    "graph-float": ("spectral.decompose_s", "spectral.decompose_calls", "spectral.eigh_n3", "spectral.query_s",
                    "spectral.table_s", "network.assemble_s", "network.build_s", "network.dense_mb",
                    "network.dense_fill", "cli.parse_s", "cli.render_s"),
    "graph-exact": ("lattice.make_s", "network.build_s", "exact.solve_s", "exact.solve_calls", "exact.table_s",
                    "exact.den_digits_max", "cli.render_s"),
    "cli": ("cli.main_s", "cli.parse_s", "cli.render_s", "identities.quad_s", "golden.reproduce_s",
            "cli.errors_typed"),
}
# Seed reserved for confirming a claimed gain after tuning on other seeds.
HELD_OUT_SEED = 7919
WORKER_TIMEOUT_S = 170
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark itself could not run."""


# ---------------------------------------------------------------------------
# workers


def _worker_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def spawn(cfg: dict, env_extra: dict | None = None) -> tuple[float, dict | None]:
    """Start a worker; returns (set-up seconds, result or None for set-up only).

    The worker has ended when this returns or raises."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE,
        env=_worker_env(env_extra),
        text=True,
    )
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {cfg['workload']} timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker for {cfg['workload']} failed (exit {proc.returncode})")
    return setup_s, (json.loads(rest.splitlines()[-1]) if cfg["mode"] == "run" else None)


# ---------------------------------------------------------------------------
# checking and statistics


def check_outputs(workload: str, seed: int, smoke: bool, result: dict) -> dict:
    """Regenerate the jobs the worker ran and check each output."""
    import reference

    jobs = []
    for cycle in range(result["cycles"]):
        jobs += workloads.cycle_jobs(workload, seed, cycle, smoke)
    if len(jobs) != len(result["outputs"]):
        raise BenchError("worker output count does not match its jobs")
    failed, wrong = Counter(), 0
    reasons = []
    for job, out in zip(jobs, result["outputs"]):
        passed, contract, reason = reference.check_job(workload, job, out)
        if not passed:
            failed[job["kind"]] += 1
            wrong += not contract
            if len(reasons) < 8:
                reasons.append(reason)
    return {
        "attempted": len(jobs),
        "failed": sum(failed.values()),
        "wrong": wrong,
        "failed_by_kind": dict(failed),
        "failures": reasons,
        "mix": dict(Counter(job["kind"] for job in jobs)),
    }


def slot_bests(latencies: list[float], cycles: int) -> list[float]:
    """Each slot's best latency over the run's cycles.

    A slot keeps its kind and size in every cycle, so its repeats cost
    about the same.  On a shared host the machine's speed swings by a
    third within seconds, and a slow phase only ever adds time, so the
    fastest repeat is the steady measure of what a slot's job costs.
    """
    per_cycle = len(latencies) // cycles
    return [min(latencies[slot::per_cycle]) for slot in range(per_cycle)]


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = None
    # The ceiling keeps git from taking the commit of a repository above
    # the checkout; outside a git checkout the commit is null.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              env=env, timeout=30, check=False)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# one workload


def _cfg(args, workload: str, mode: str, seconds: float, trace: bool, inprocess: bool, tag: str) -> dict:
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": seconds,
        "mode": mode,
        "trace": trace,
        "inprocess": inprocess,
        "smoke": args.smoke,
        "workdir": args.workdir,
        "spans_path": spans_path(args, workload, tag),
    }


def spans_path(args, workload: str, tag: str) -> str:
    return os.path.join(args.outdir, f"spans-{workload}-seed{args.seed}-{tag}.jsonl")


def end_to_end(args, workload: str) -> tuple[dict, dict]:
    setups = []
    for _ in range(args.setup_runs - 1):
        setup_s, _ = spawn(_cfg(args, workload, "setup", 0, False, False, "setup"))
        setups.append(setup_s)
    setup_s, result = spawn(_cfg(args, workload, "run", args.seconds, False, False, "run"))
    setups.append(setup_s)
    checked = check_outputs(workload, args.seed, args.smoke, result)
    lat = result["latencies"]
    best = slot_bests(lat, result["cycles"])
    slowest = best.index(max(best))
    rss_kb = result["children_maxrss_kb"] if workload == "cli" else result["maxrss_kb"]
    n = len(lat)
    metrics = {
        "jobs_per_s": _metric(len(best) / sum(best), "1/s"),
        "job_p50_s": _metric(statistics.median(best), "s"),
        "job_tail_s": _metric(best[slowest], "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(rss_kb * 1024 / 1e6, "MB"),
        "ok_ratio": _metric((n - checked["failed"]) / n, "ratio"),
    }
    details = {
        "cycles": result["cycles"],
        "window_s": result["window_s"],
        "cycle_s": result["cycle_s"],
        "failed_ratio": checked["failed"] / n,
        "jobs_per_s_window": n / result["window_s"],
        "job_p50_s_all": statistics.median(lat),
        # over all jobs: the highest percentile with ten samples beyond it
        "job_tail_all": {"value": sorted(lat)[max(n - 11, 0)], "percentile": 100 * max(n - 10, 1) / n,
                         "samples": n},
        "job_tail_kind": workloads.cycle_jobs(workload, args.seed, 0, args.smoke)[slowest]["kind"],
        "setup_samples_s": setups,
        **checked,
    }
    return metrics, details


def per_layer(args, workload: str) -> tuple[dict, dict]:
    third = args.seconds / 3
    passes = {}
    for tag, traced, env in (("untraced", False, None), ("traced", True, None), ("1t", True, ONE_THREAD)):
        _, result = spawn(_cfg(args, workload, "run", third, traced, True, tag), env)
        result["checked"] = check_outputs(workload, args.seed, args.smoke, result)
        best = slot_bests(result["latencies"], result["cycles"])
        result["jobs_per_s"] = len(best) / sum(best)
        passes[tag] = result
    layers = passes["traced"]["layers"]
    metrics = {name: _metric(value, _layer_unit(name)) for name, value in layers.items()}
    untraced, traced, one = passes["untraced"], passes["traced"], passes["1t"]
    metrics["cli.import_s"] = _metric(statistics.median(p["import_s"] for p in passes.values()), "s")
    metrics["trace.jobs_per_s"] = _metric(traced["jobs_per_s"], "1/s")
    metrics["trace.jobs_per_s_untraced"] = _metric(untraced["jobs_per_s"], "1/s")
    metrics["trace.overhead_pct"] = _metric(100 * (untraced["jobs_per_s"] / traced["jobs_per_s"] - 1), "%")
    metrics["trace.jobs_per_s.1t"] = _metric(one["jobs_per_s"], "1/s")
    for name in ("spectral.decompose_s", "spectral.query_s", "spectral.table_s"):
        metrics[f"{name}.1t"] = _metric(one["layers"][name], "s/job")
    checked = {
        "attempted": sum(p["checked"]["attempted"] for p in passes.values()),
        "failed": sum(p["checked"]["failed"] for p in passes.values()),
        "wrong": sum(p["checked"]["wrong"] for p in passes.values()),
        "failures": [r for p in passes.values() for r in p["checked"]["failures"]][:8],
    }
    details = {
        "passes": {tag: {"cycles": p["cycles"], "jobs": len(p["latencies"]), "window_s": p["window_s"],
                         "failed_by_kind": p["checked"]["failed_by_kind"], "mix": p["checked"]["mix"]}
                   for tag, p in passes.items()},
        "spans_file": os.path.relpath(spans_path(args, workload, "traced")),
        **checked,
    }
    return metrics, details


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s/job"
    if name == "network.dense_mb":
        return "MB/job"
    if name == "network.dense_fill":
        return "ratio"
    if name == "exact.den_digits_max":
        return "digits"
    return "count/job"


def run_workload(args, workload: str) -> dict:
    measure = per_layer if args.trace else end_to_end
    metrics, details = measure(args, workload)
    info = {"workload": workload, "trace": args.trace, "seconds": args.seconds,
            "provenance": provenance(args.seed), **details}
    print(json.dumps(info, default=str))
    return {
        "correct": details["wrong"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# smoke


def smoke(args) -> int:
    """Every workload at tiny load, both trace settings, against the schema."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for workload in args.workloads:
        for trace in (0, 1):
            args.trace = trace
            out = run_workload(args, workload)
            print(json.dumps(out))
            wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            where = f"{workload} trace={trace}"
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(out)}")
            if got != wanted:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
            if not out["correct"] or out["attempted"] < 1:
                problems.append(f"{where}: correct={out['correct']} attempted={out['attempted']}")
            if not all(math.isfinite(m["value"]) for m in out["metrics"].values()):
                problems.append(f"{where}: non-finite metric")
            zero = [name for name in EXERCISED[workload] if trace and not out["metrics"][name]["value"] > 0]
            if zero:
                problems.append(f"{where}: exercised layers read 0: {zero}")
    for problem in problems:
        print("SMOKE FAIL", problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, 0.2 s, both trace settings")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "resistnet", "__init__.py")):
        print("run from the root of a resistnet checkout (src/resistnet missing)", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else 20.0
    args.setup_runs = 1 if args.smoke else SETUP_RUNS
    args.workloads = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    args.outdir = os.path.abspath(".perfbench-out")
    args.workdir = os.path.join(args.outdir, f"work-{os.getpid()}")
    os.makedirs(args.workdir, exist_ok=True)
    try:
        if args.smoke:
            return smoke(args)
        results = {w: run_workload(args, w) for w in args.workloads}
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    if len(results) == 1:
        (out,) = results.values()
    else:
        for out in results.values():
            print(json.dumps(out))
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}:{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
