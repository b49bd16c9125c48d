"""One workload process: import resistnet, run a warm-up job, then run
whole cycles of jobs for the timed window.

Started by run.py as ``python3 perfbench/worker.py '<json config>'`` with
src/ on PYTHONPATH.  Prints ``ready`` once set-up is done (import plus the
warm-up job); in "run" mode it then prints one JSON line with every job's
latency and output.  Only the standard library is imported before
resistnet, so the import is timed from a cold interpreter.
"""

from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import workloads


class Runner:
    """Runs jobs of one workload; the program is called through module
    attributes so that wrappers installed by the tracer see every call."""

    def __init__(self, cfg: dict) -> None:
        from resistnet import cli, exact, lattice, network, spectral

        self.cli, self.exact, self.lattice = cli, exact, lattice
        self.network, self.spectral = network, spectral
        self.cfg = cfg
        self.files: dict[str, str] = {}

    def run(self, workload: str, job: dict) -> dict:
        if workload == "cli":
            return self.cli_call(job)
        try:
            return {"text": getattr(self, workload.replace("-", "_"))(job)}
        except Exception as err:  # any exception from the program fails the job
            return {"error": f"{type(err).__name__}: {err}"}

    def closed_form(self, job: dict) -> str:
        lattice = self.lattice
        spec = lattice.LatticeSpec(
            dims=tuple(job["dims"]),
            resistances=tuple(job["res"]),
            bc=lattice.BoundaryCondition(job["bc"]),
        )
        values = [lattice.resistance(spec, tuple(c1), tuple(c2)) for c1, c2 in job["pairs"]]
        report = {
            "method": "closed-form",
            "spec": {"bc": job["bc"], "dims": "x".join(map(str, job["dims"])),
                     "resistances": [str(r) for r in job["res"]]},
            "pairs": [[",".join(map(str, c)) for c in pair] for pair in job["pairs"]],
            "values": values,
        }
        return self.cli.render_report(report, job["fmt"])

    def graph_float(self, job: dict) -> str:
        spectral = self.spectral
        net = self.cli.parse_network_json(json.loads(job["text"]))
        spectrum = spectral.decompose(self.network.assemble_laplacian(net))
        report = {"method": "spectral", "spec": {"nodes": net.n_nodes, "edges": len(net.edges)},
                  "pairs": job["pairs"]}
        if job["kind"] == "gf-table":
            table = spectral.resistance_matrix(spectrum)
            report["values"] = [float(table[a, b]) for a, b in job["pairs"]]
            report["kirchhoff_index"] = float(table.sum()) / 2
        else:
            report["values"] = [spectral.two_point_resistance(spectrum, a, b) for a, b in job["pairs"]]
        return self.cli.render_report(report, job["fmt"])

    def graph_exact(self, job: dict) -> str:
        exact, lattice = self.exact, self.lattice
        if "text" in job:
            net = self.cli.parse_network_json(json.loads(job["text"]), exact_mode=True)
            spec = None
        else:
            spec = lattice.LatticeSpec(
                dims=tuple(job["dims"]),
                resistances=tuple(job["res"]),
                bc=lattice.BoundaryCondition(job["bc"]),
            )
            net = lattice.make_lattice(spec)
        report: dict = {"method": "oracle", "spec": {"nodes": net.n_nodes, "edges": len(net.edges)}}
        if job["kind"].endswith("-table"):
            table = exact.exact_resistance_matrix(net)
            n = net.n_nodes
            report["table"] = [str(table[a][b]) for a in range(n) for b in range(a + 1, n)]
        else:
            a, b = job["pair"] if spec is None else (spec.node_index(c) for c in job["pair"])
            value = exact.solve_exact(net, a, b)
            report["pair"] = [a, b]
            report["value_exact"] = str(value)
            report["value_float"] = float(value)
        return self.cli.render_report(report, job["fmt"])

    def cli_call(self, job: dict) -> dict:
        argv = [self.files[a[1:]] if a.startswith("@") else a for a in job["argv"]]
        if self.cfg["inprocess"]:
            out, err = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = self.cli.main(argv)
            except Exception as exc:  # what the entry point would show as a traceback
                return {"code": 1, "stdout": out.getvalue(), "traceback": True,
                        "error": f"{type(exc).__name__}: {exc}"}
            return {"code": code, "stdout": out.getvalue(), "traceback": False}
        proc = subprocess.run(
            [sys.executable, "-m", "resistnet.cli", *argv],
            capture_output=True, text=True, timeout=120, check=False,
        )
        return {"code": proc.returncode, "stdout": proc.stdout,
                "traceback": "Traceback (most recent call last)" in proc.stderr}

    def write_files(self, jobs: list[dict]) -> None:
        """Input files of this cycle's cli jobs, written before timing."""
        self.files = {}
        for job in jobs:
            for name, content in job.get("files", {}).items():
                path = os.path.join(self.cfg["workdir"], f"{job['id']}-{name}")
                with open(path, "w") as fh:
                    fh.write(content)
                self.files[name] = path


def main() -> None:
    cfg = json.loads(sys.argv[1])
    start = time.perf_counter()
    import resistnet.cli  # noqa: F401  (timed: with the package, every layer)

    import_s = time.perf_counter() - start
    tracer = None
    if cfg["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    workload, seed = cfg["workload"], cfg["seed"]
    runner = Runner(cfg)
    warm = workloads.warmup_job(workload, seed)
    runner.write_files([warm])
    runner.run(workload, warm)
    print("ready", flush=True)
    if cfg["mode"] == "setup":
        return
    if tracer is not None:
        tracer.reset()

    latencies: list[float] = []
    outputs: list[dict] = []
    cycle_s: list[float] = []
    clock = time.perf_counter
    # Whole cycles only, so every run does the same mix; stop at the first
    # cycle boundary at or past the requested window.
    while True:
        jobs = workloads.cycle_jobs(workload, seed, len(cycle_s), cfg["smoke"])
        runner.write_files(jobs)
        begin = clock()
        for job in jobs:
            if tracer is not None:
                tracer.job = job["id"]
            t0 = clock()
            out = runner.run(workload, job)
            latencies.append(clock() - t0)
            outputs.append(out)
        cycle_s.append(clock() - begin)
        window = sum(cycle_s)
        if window >= cfg["seconds"]:
            break

    result = {
        "latencies": latencies,
        "outputs": outputs,
        "cycles": len(cycle_s),
        "cycle_s": cycle_s,
        "window_s": window,
        "import_s": import_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        tracer.job = None
        result["layers"] = tracer.layer_metrics(len(latencies))
        tracer.write(cfg["spans_path"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
