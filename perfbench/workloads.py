"""Seeded job generators for the four workloads.

A workload runs in cycles.  Each cycle is a fixed ladder of job slots: the
size and kind of every slot, and the order the slots run in, are set here,
so that runs with different seeds do the same amount of work and their
timings can be compared.  (The order matters: OpenBLAS is much slower on a
small matrix right after other small ones than after a large one.)  The
seed, with the cycle number, picks everything else: resistances,
topologies, node labels, query pairs and report formats.  The exception is
graph-exact, whose networks are fixed per slot (see _graph_exact_cycle).

Jobs are plain JSON-ready dicts.  run.py regenerates them to check each
output against a reference; worker.py runs them.  This module imports only
the standard library.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("closed-form", "graph-float", "graph-exact", "cli")
FORMATS = ("json", "csv", "text")
WRAPS = (
    "free1d",
    "periodic1d",
    "free2d",
    "periodic2d",
    "cylinder",
    "moebius",
    "klein",
    "free3d",
)
NDIM = {w: 1 if w.endswith("1d") else 3 if w.endswith("3d") else 2 for w in WRAPS}
# --bc word of each wrap; the wrap's dimension sets the number of --dims axes
CLI_BC = {
    "free1d": "free",
    "periodic1d": "periodic",
    "free2d": "free",
    "periodic2d": "periodic",
    "cylinder": "cylinder",
    "moebius": "moebius",
    "klein": "klein",
    "free3d": "free",
}


def _rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{cycle}")


def _ladder(lo: float, hi: float, rungs: int, i: int) -> float:
    """Rung i of a log-uniform ladder from lo to hi, both ends included."""
    return lo * (hi / lo) ** (i / (rungs - 1)) if rungs > 1 else lo


def _coords(rng: random.Random, dims) -> list[int]:
    return [rng.randrange(d) for d in dims]


def _pair(rng: random.Random, dims) -> list[list[int]]:
    while True:
        a, b = _coords(rng, dims), _coords(rng, dims)
        if a != b:
            return [a, b]


def _node_pairs(rng: random.Random, n: int, k: int) -> list[list[int]]:
    return [rng.sample(range(n), 2) for _ in range(k)]


def _finish(workload: str, cycle: int, jobs: list[dict]) -> list[dict]:
    random.Random(f"{workload}/order").shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = f"{cycle}.{i}"
    return jobs


# ---------------------------------------------------------------------------
# closed-form: LatticeSpec + lattice.resistance, every wrap


def _closed_form_cycle(rng: random.Random, cycle: int, smoke: bool) -> list[dict]:
    """Three slots per 1D wrap, four per 2D wrap and five for the 3D wrap,
    alternating one pair and a batch of pairs (31 jobs).

    Axis lengths are log-uniform: 2D 4..256, 3D 3..24, 1D 4..4096.  The
    2D and 3D slots pair rungs of the per-axis ladders through fixed
    permutations, so large and small axes mix.  Batch sizes run over 16..64,
    the largest batch on the smallest lattice, so that no single job holds
    most of a cycle's time.
    """
    slots = {1: 3, 2: 4, 3: 5}
    axis_range = {1: (4, 4096), 2: (4, 256), 3: (3, 24)}
    batch = (16, 64)
    if smoke:
        axis_range = {1: (4, 16), 2: (3, 8), 3: (2, 4)}
        batch = (2, 4)
    by_ndim: dict[int, list[str]] = {}
    for wrap in WRAPS:
        by_ndim.setdefault(NDIM[wrap], []).append(wrap)
    jobs = []
    for ndim, wraps in by_ndim.items():
        lo, hi = axis_range[ndim]
        rungs = slots[ndim] * len(wraps)
        for w, wrap in enumerate(wraps):
            for s in range(slots[ndim]):
                g = w * slots[ndim] + s
                # fixed, mutually distinct strides decorrelate the axes
                rung_of_axis = [(g * mult + off) % rungs for mult, off in ((1, 0), (7, 3), (3, 1))]
                u = [(rung + 0.5) / rungs for rung in rung_of_axis[:ndim]]
                dims = [max(2, round(lo * (hi / lo) ** x)) for x in u]
                jobs.append({"kind": "cf-batch" if s % 2 else "cf-single", "bc": wrap, "dims": dims})
    batches = sorted((j for j in jobs if j["kind"] == "cf-batch"), key=lambda j: math.prod(j["dims"]))
    for rank, job in enumerate(batches):
        job["count"] = round(batch[1] - (batch[1] - batch[0]) * rank / (len(batches) - 1))
    for job in jobs:
        dims = job["dims"]
        job["res"] = [round(2 ** rng.uniform(-1, 1), 4) for _ in dims]
        job["pairs"] = [_pair(rng, dims) for _ in range(job.pop("count", 1))]
        job["fmt"] = rng.choice(FORMATS)
    return jobs


# ---------------------------------------------------------------------------
# random networks


def _float_r(rng: random.Random) -> float:
    return round(2 ** rng.uniform(-2, 2), 6)


def _pq_r(rng: random.Random) -> str:
    return f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"


def diluted_grid(rng: random.Random, n: int, resistance) -> tuple[int, list]:
    """W x L grid, node x + W*y, keeping every horizontal edge, the first
    column's vertical edges, and 70 % of the other vertical edges."""
    width = max(2, round(math.sqrt(n)))
    length = max(2, round(n / width))
    edges = []
    for y in range(length):
        for x in range(width):
            node = x + width * y
            if x + 1 < width:
                edges.append([node, node + 1, resistance(rng)])
            if y + 1 < length and (x == 0 or rng.random() < 0.7):
                edges.append([node, node + width, resistance(rng)])
    return width * length, edges


def tree_plus_chords(rng: random.Random, n: int, resistance) -> tuple[int, list]:
    """Random recursive tree on shuffled labels plus n // 2 random chords
    (parallel edges allowed)."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges = [[labels[i], labels[rng.randrange(i)], resistance(rng)] for i in range(1, n)]
    edges += [rng.sample(range(n), 2) + [resistance(rng)] for _ in range(n // 2)]
    return n, edges


def network_text(n: int, edges: list) -> str:
    return json.dumps({"nodes": n, "edges": edges})


# ---------------------------------------------------------------------------
# graph-float: JSON text -> parse -> assemble -> decompose -> query -> render

# rungs per family, and the rungs that ask the all-pairs table
_GF_RUNGS = {"grid": 8, "tree": 9}
_GF_TABLE_SLOTS = {"grid": (2, 5), "tree": (3, 8)}


def _graph_float_cycle(rng: random.Random, cycle: int, smoke: bool) -> list[dict]:
    """Eight grid and nine tree sizes, n log-uniform over 32..2048; four of
    the 17 jobs ask the resistance_matrix table, the rest 1-4 pairs."""
    lo, hi = (6, 24) if smoke else (32, 2048)
    families = {"grid": diluted_grid, "tree": tree_plus_chords}
    jobs = []
    for family, make in families.items():
        for slot in range(_GF_RUNGS[family]):
            n, edges = make(rng, round(_ladder(lo, hi, _GF_RUNGS[family], slot)), _float_r)
            table = slot in _GF_TABLE_SLOTS[family]
            jobs.append(
                {
                    "kind": "gf-table" if table else "gf-pairs",
                    "family": family,
                    "n": n,
                    "text": network_text(n, edges),
                    "pairs": _node_pairs(rng, n, 4 if table else rng.randint(1, 4)),
                    "fmt": rng.choice(FORMATS),
                }
            )
    return jobs


# ---------------------------------------------------------------------------
# graph-exact: make_lattice or parse_network_json -> solve_exact -> render

# lattice slot order: wrap per rung of the n ladder 8..256
_GX_LATTICE_ORDER = (
    "free1d",
    "free2d",
    "cylinder",
    "free3d",
    "moebius",
    "periodic1d",
    "klein",
    "periodic2d",
)


def lattice_dims(wrap: str, n: int) -> list[int]:
    """Near-cubic axis lengths with about n nodes."""
    ndim = NDIM[wrap]
    if ndim == 1:
        return [n]
    if ndim == 2:
        m = max(2, round(math.sqrt(n)))
        return [m, max(2, round(n / m))]
    a = max(2, round(n ** (1 / 3)))
    return [a, a, max(2, round(n / (a * a)))]


def _graph_exact_cycle(rng: random.Random, cycle: int, smoke: bool) -> list[dict]:
    """Eight integer-resistance lattices (one per wrap, n 8..256), seven
    random p/q networks (n 12..96) and two all-pairs tables (n about 36-40):
    a Klein-bottle lattice and a p/q network."""
    lat_hi, rand_lo, rand_hi, table_n = (16, 6, 12, 8) if smoke else (256, 12, 96, 40)
    # Resistances and topologies set the size of Bareiss's integers, hence
    # the cost of each job.  They are drawn per slot, the same in every
    # cycle and for every seed, so every cycle costs the same; the seed and
    # the cycle number draw only the queried pairs and the report formats.

    def net_rng(slot: str) -> random.Random:
        return random.Random(f"graph-exact/networks/{slot}")

    jobs = []
    for slot, wrap in enumerate(_GX_LATTICE_ORDER):
        dims = lattice_dims(wrap, round(_ladder(8, lat_hi, 8, slot)))
        res_rng = net_rng(wrap)
        jobs.append(
            {
                "kind": "gx-lattice",
                "bc": wrap,
                "dims": dims,
                "res": [res_rng.randint(1, 3) for _ in dims],
                "pair": _pair(rng, dims),
                "fmt": rng.choice(FORMATS),
            }
        )
    for slot in range(7):
        n, edges = tree_plus_chords(net_rng(f"random{slot}"), round(_ladder(rand_lo, rand_hi, 7, slot)), _pq_r)
        jobs.append(
            {
                "kind": "gx-random",
                "n": n,
                "text": network_text(n, edges),
                "pair": rng.sample(range(n), 2),
                "fmt": rng.choice(FORMATS),
            }
        )
    dims = lattice_dims("klein", table_n - 4)
    table_rng = net_rng("lattice-table")
    jobs.append(
        {
            "kind": "gx-lattice-table",
            "bc": "klein",
            "dims": dims,
            "res": [table_rng.randint(1, 3) for _ in dims],
            "fmt": rng.choice(FORMATS),
        }
    )
    n, edges = tree_plus_chords(net_rng("random-table"), table_n, _pq_r)
    jobs.append(
        {
            "kind": "gx-random-table",
            "n": n,
            "text": network_text(n, edges),
            "fmt": rng.choice(FORMATS),
        }
    )
    return jobs


# ---------------------------------------------------------------------------
# cli: one subprocess call of the entry point per job


def _rational(rng: random.Random) -> str:
    return rng.choice(("1", "2", "3", "1/2", "3/2", "2/3"))


def _cli_lattice(rng: random.Random, mode: str) -> tuple[list[str], dict]:
    wrap = rng.choice(WRAPS)
    ndim = NDIM[wrap]
    # exact solves stay near 30 nodes; float ones keep the reference cheap
    hi = ({1: 40, 2: 40, 3: 12} if mode == "float" else {1: 30, 2: 5, 3: 3})[ndim]
    dims = [rng.randint(2, hi) for _ in range(ndim)]
    res = [_rational(rng) for _ in range(ndim)]
    c1, c2 = _pair(rng, dims)
    argv = ["lattice", "--bc", CLI_BC[wrap], "--dims", "x".join(map(str, dims))]
    for flag, r in zip(("--r", "--s", "--t"), res):
        argv += [flag, r]
    argv += ["--from", ",".join(map(str, c1)), "--to", ",".join(map(str, c2)), "--mode", mode]
    return argv, {"what": "pair", "bc": wrap, "dims": dims, "res": res, "pair": [c1, c2]}


def _small_network(rng: random.Random, resistance) -> tuple[int, list]:
    return tree_plus_chords(rng, rng.randint(5, 30), resistance)


def _int_or_pq(rng: random.Random):
    return rng.randint(1, 9) if rng.random() < 0.5 else _pq_r(rng)


def _cli_cycle(rng: random.Random, cycle: int, smoke: bool) -> list[dict]:
    """Fourteen calls: every subcommand and input route, plus four
    error-contract cases (bad node, negative node, bad --r literal,
    disconnected pair) with the error class and exit code the README
    documents."""
    jobs = []

    def add(kind, argv, check=None, files=None, expect=None):
        fmt = rng.choice(FORMATS)
        jobs.append(
            {
                "kind": kind,
                "argv": argv + ["--format", fmt],
                "files": files or {},
                "fmt": fmt,
                "expect": expect or {"code": 0},
                "check": check,
            }
        )

    # graph: text file (float), JSON file (exact), inline JSON (both)
    n, edges = _small_network(rng, _float_r)
    text = "".join(f"{i} {j} {r!r}\n" for i, j, r in edges)
    a, b = rng.sample(range(n), 2)
    add("cli-graph-text", ["graph", "--input", "@net.txt", "--from", str(a), "--to", str(b), "--mode", "float"],
        {"what": "pair", "network": {"nodes": n, "edges": edges}, "pair": [a, b]}, {"net.txt": text})
    for kind, mode in (("cli-graph-json", "exact"), ("cli-graph-inline", "both")):
        n, edges = _small_network(rng, _int_or_pq)
        obj = {"nodes": n, "edges": edges}
        a, b = rng.sample(range(n), 2)
        route = ["--input", "@net.json"] if kind == "cli-graph-json" else ["--inline", json.dumps(obj)]
        add(kind, ["graph", *route, "--from", str(a), "--to", str(b), "--mode", mode],
            {"what": "pair", "network": obj, "pair": [a, b]},
            {"net.json": json.dumps(obj)} if kind == "cli-graph-json" else None)
    for mode in ("float", "exact", "both"):
        argv, check = _cli_lattice(rng, mode)
        add(f"cli-lattice-{mode}", argv, check)
    which = rng.choice(("i1", "i2", "product-free", "product-periodic"))
    big_n = rng.randint(1, 40)
    lam = round(rng.uniform(0.1, 3.0), 3)
    ell = rng.randrange(2 * big_n if which == "i1" else big_n) if which in ("i1", "i2") else 0
    add("cli-identity", ["identity", "--which", which, "--N", str(big_n), "--ell", str(ell), "--lambda", str(lam)],
        {"what": "identity", "which": which, "N": big_n, "ell": ell, "lam": lam})
    for kind, ndim, reach in (("cli-infinite-2d", 2, 5), ("cli-infinite-3d", 3, 3)):
        delta = [0] * ndim
        while not any(delta):
            delta = [rng.randint(-reach, reach) for _ in range(ndim)]
        res = [rng.choice(("1", "2", "1/2")) for _ in range(ndim)]
        argv = ["infinite", "--delta=" + ",".join(map(str, delta))]
        for flag, r in zip(("--r", "--s", "--t"), res):
            argv += [flag, r]
        add(kind, argv, {"what": "infinite", "delta": delta, "res": res})
    add("cli-reproduce", ["reproduce"], {"what": "reproduce"})

    # error contract
    n, edges = _small_network(rng, _int_or_pq)
    bad = {"nodes": n, "edges": edges}
    add("cli-err-bad-node",
        ["graph", "--input", "@bad.json", "--from", "0", "--to", str(n + rng.randint(0, 5)), "--mode", "exact"],
        files={"bad.json": json.dumps(bad)}, expect={"code": 4, "error": "NodeIndexError"})
    add("cli-err-negative-node",
        ["graph", "--inline", json.dumps(bad), "--from", "0", "--to", str(-rng.randint(1, n)), "--mode", "exact"],
        expect={"code": 4, "error": "NodeIndexError"})
    argv, _ = _cli_lattice(rng, "float")
    argv[argv.index("--r") + 1] = rng.choice(("abc", "nan", "1/0", "2..5"))
    add("cli-err-bad-r", argv, expect={"code": 2, "error": "ParseError"})
    n1, e1 = _small_network(rng, _int_or_pq)
    n2, e2 = _small_network(rng, _int_or_pq)
    split = {"nodes": n1 + n2, "edges": e1 + [[i + n1, j + n1, r] for i, j, r in e2]}
    add("cli-err-disconnected",
        ["graph", "--inline", json.dumps(split), "--from", str(rng.randrange(n1)),
         "--to", str(n1 + rng.randrange(n2)), "--mode", rng.choice(("float", "exact", "both"))],
        expect={"code": 3, "error": "DisconnectedNetworkError"})
    return jobs


_CYCLES = {
    "closed-form": _closed_form_cycle,
    "graph-float": _graph_float_cycle,
    "graph-exact": _graph_exact_cycle,
    "cli": _cli_cycle,
}


def cycle_jobs(workload: str, seed: int, cycle: int, smoke: bool = False) -> list[dict]:
    """The jobs of one cycle, in run order, each with an id 'cycle.index'."""
    return _finish(workload, cycle, _CYCLES[workload](_rng(workload, seed, cycle), cycle, smoke))


def warmup_job(workload: str, seed: int) -> dict:
    """A small job of the workload's own kind, run once before timing."""
    rng = _rng(workload, seed, -1)
    if workload == "closed-form":
        dims = [8, 8]
        job = {"kind": "cf-single", "bc": "free2d", "dims": dims, "res": [1.0, 1.0],
               "pairs": [_pair(rng, dims)], "fmt": "json"}
    elif workload == "graph-float":
        n, edges = tree_plus_chords(rng, 64, _float_r)
        job = {"kind": "gf-pairs", "family": "tree", "n": n, "text": network_text(n, edges),
               "pairs": _node_pairs(rng, n, 2), "fmt": "json"}
    elif workload == "graph-exact":
        dims = [6, 6]
        job = {"kind": "gx-lattice", "bc": "free2d", "dims": dims, "res": [1, 2],
               "pair": _pair(rng, dims), "fmt": "json"}
    else:
        argv, check = _cli_lattice(rng, "float")
        job = {"kind": "cli-lattice-float", "argv": argv + ["--format", "json"], "files": {},
               "fmt": "json", "expect": {"code": 0}, "check": check}
    job["id"] = "warmup"
    return job
