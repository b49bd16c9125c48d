"""Independent references and the per-job correctness checks.

Nothing here imports resistnet: every answer the program gives is compared
with a value computed by other means.

- Float resistances come from a grounded sparse LU solve (scipy.sparse) of
  the same edge list.  Lattice edge lists are rebuilt here from the wrap
  rules, not taken from ``make_lattice``.
- Exact all-pairs tables must satisfy Foster's theorem exactly:
  sum over edges of c_e * R_e == n - 1, as Fractions.
- Infinite-lattice values come from the Bessel form of the lattice Green's
  function, R(x) = 2 * int_0^inf [prod_a ive(0, 2 c_a t) - prod_a ive(x_a, 2 c_a t)] dt.
- Identity values come from their defining sums and products.

Floats agree when |value - ref| <= TOL * max(1, |ref|), the comparison the
program itself uses with its default tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
import scipy.special

TOL = 1e-9

# Per axis: "free" chain, "ring", or "twist" (wraps onto the flipped width axis).
AXIS_WRAPS = {
    "free1d": ("free",),
    "periodic1d": ("ring",),
    "free2d": ("free", "free"),
    "periodic2d": ("ring", "ring"),
    "cylinder": ("ring", "free"),
    "moebius": ("twist", "free"),
    "klein": ("twist", "ring"),
    "free3d": ("free", "free", "free"),
}


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= TOL * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# networks


class Edges(NamedTuple):
    """Edge list as parallel sequences: endpoints and resistance per edge."""

    i: np.ndarray
    j: np.ndarray
    r: list

    def conductances(self) -> np.ndarray:
        return 1.0 / np.array([float(x) for x in self.r])


def lattice_edges(bc: str, dims, res) -> tuple[int, Edges]:
    """(n_nodes, edges) of a lattice, index x + M*y + M*N*z.

    A wrap that would join a node to itself adds nothing; a wrap on a
    length-2 axis adds a second, parallel edge.
    """
    dims = tuple(dims)
    strides = [math.prod(dims[:a]) for a in range(len(dims))]
    n = math.prod(dims)
    node = np.arange(n)
    coords = [(node // strides[a]) % dims[a] for a in range(len(dims))]
    ends_i, ends_j, rs = [], [], []
    for axis, wrap in enumerate(AXIS_WRAPS[bc]):
        x, d, step = coords[axis], dims[axis], strides[axis]
        inner = x + 1 < d
        parts = [(node[inner], node[inner] + step)]
        last = x == d - 1
        if wrap == "ring":
            parts.append((node[last], node[last] - (d - 1) * step))
        elif wrap == "twist":
            # (M-1, y) joins (0, N-1-y)
            y = coords[1][last]
            parts.append((node[last], node[last] - (d - 1) + (dims[1] - 1 - 2 * y) * strides[1]))
        for a, b in parts:
            keep = a != b
            ends_i.append(a[keep])
            ends_j.append(b[keep])
            rs += [res[axis]] * int(keep.sum())
    return n, Edges(np.concatenate(ends_i), np.concatenate(ends_j), rs)


def parse_edges(obj: dict) -> tuple[int, Edges]:
    """(n, edges) from the JSON network form; 'p/q' strings become Fractions."""
    entries = obj["edges"]
    return obj["nodes"], Edges(
        np.array([e[0] for e in entries], dtype=np.int64),
        np.array([e[1] for e in entries], dtype=np.int64),
        [Fraction(e[2]) if isinstance(e[2], str) else e[2] for e in entries],
    )


def _grounded_lu(n: int, edges: Edges):
    """Sparse LU of the Laplacian with node 0's row and column removed."""
    i, j, c = edges.i, edges.j, edges.conductances()
    rows = np.concatenate((i, j, i, j))
    cols = np.concatenate((i, j, j, i))
    vals = np.concatenate((c, c, -c, -c))
    lap = scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(n, n))
    return scipy.sparse.linalg.splu(lap[1:, 1:].tocsc(), permc_spec="MMD_AT_PLUS_A")


def pair_resistances(n: int, edges: Edges, pairs) -> list[float]:
    """Two-point resistances by grounded solves sharing one factorization."""
    lu = _grounded_lu(n, edges)
    rhs = np.zeros((n, len(pairs)))
    for k, (a, b) in enumerate(pairs):
        rhs[a, k] += 1.0
        rhs[b, k] -= 1.0
    pot = np.zeros((n, len(pairs)))
    pot[1:] = lu.solve(rhs[1:])
    return [float(pot[a, k] - pot[b, k]) for k, (a, b) in enumerate(pairs)]


def kirchhoff_index(n: int, edges: Edges) -> float:
    """Sum of R_ab over a < b as n * tr(G) - sum(G), G the inverse of the
    Laplacian grounded at node 0, from a dense Cholesky factor C of the
    grounded matrix: tr(G) = |C^-1|_F^2 and sum(G) = |C^-1 1|^2."""
    i, j, c = edges.i, edges.j, edges.conductances()
    lap = np.zeros((n, n))
    np.add.at(lap, (i, j), -c)
    np.add.at(lap, (j, i), -c)
    np.add.at(lap, (i, i), c)
    np.add.at(lap, (j, j), c)
    chol = scipy.linalg.cholesky(lap[1:, 1:], lower=True)
    inv, info = scipy.linalg.lapack.dtrtri(chol, lower=1)
    if info != 0:
        raise ValueError(f"dtrtri failed with info {info}")
    col = inv.sum(axis=1)
    return float(n * np.sum(inv * inv) - col @ col)


def foster_sum(edges: Edges, table: dict[tuple[int, int], Fraction]) -> Fraction:
    """sum over edges of c_e * R_e, exact."""
    return sum(
        (
            table[(min(i, j), max(i, j))] / Fraction(r)
            for i, j, r in zip(edges.i.tolist(), edges.j.tolist(), edges.r)
        ),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# infinite lattices and identities


def infinite_resistance(delta, res) -> float:
    """Infinite square or cubic lattice, via the Bessel-integral Green's function."""
    cond = [1.0 / float(r) for r in res]
    dim = len(cond)

    def integrand(t: float) -> float:
        zero = math.prod(scipy.special.ive(0, 2 * c * t) for c in cond)
        at = math.prod(scipy.special.ive(abs(x), 2 * c * t) for x, c in zip(delta, cond))
        return zero - at

    # Geometric panels keep every piece smooth.  Beyond the last one the
    # integrand is K t^-(d/2+1) to leading order (from the large-z expansion
    # of ive), whose integral is added in closed form; the next order adds
    # less than 1e-16 there.
    total, lo = 0.0, 0.0
    for k in range(29):
        hi = 2.0**k
        piece, _ = scipy.integrate.quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
        total += piece
        lo = hi
    k_lead = sum(x * x / (4 * c) for x, c in zip(delta, cond)) / math.sqrt(
        (4 * math.pi) ** dim * math.prod(cond)
    )
    total += k_lead * lo ** (-dim / 2) / (dim / 2)
    return 2 * total


def identity_sum(n: int, ell: int, lam: float, variant: int) -> float:
    k = np.arange(n)
    ang = variant * k * math.pi / n
    return math.fsum(np.cos(ell * ang) / (math.cosh(lam) - np.cos(ang))) / n


def identity_product(n: int, lam: float, periodic: bool) -> float:
    ang = (2 if periodic else 1) * np.arange(n) * math.pi / n
    return float(np.prod(math.cosh(lam) - np.cos(ang)))


# ---------------------------------------------------------------------------
# reading rendered reports


def read_report(text: str, fmt: str) -> dict[str, str]:
    """Flat key -> string view of a report in any of the three formats.

    Lists read back as ';'-joined strings, as the CSV and text formats
    write them; nested keys join with '.'.
    """
    if fmt == "json":
        flat: dict[str, str] = {}

        def walk(obj, prefix):
            for key, value in obj.items():
                if isinstance(value, dict):
                    walk(value, f"{prefix}{key}.")
                elif isinstance(value, list):
                    flat[prefix + key] = ";".join(
                        json.dumps(v) if isinstance(v, (list, dict)) else str(v)
                        for v in value
                    )
                else:
                    flat[prefix + key] = "" if value is None else str(value)

        walk(json.loads(text), "")
        return flat
    if fmt == "csv":
        header, values = list(csv.reader(io.StringIO(text)))
        return dict(zip(header, values))
    flat = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        flat[key] = value
    return flat


def floats(field: str) -> list[float]:
    return [float(x) for x in field.split(";")]


# ---------------------------------------------------------------------------
# per-job checks


class Mismatch(Exception):
    """A job's output disagrees with its reference."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _check_values(got: list[float], ref: list[float], what: str) -> None:
    _expect(len(got) == len(ref), f"{what}: {len(got)} values for {len(ref)} pairs")
    for g, r in zip(got, ref):
        _expect(close(g, r), f"{what}: {g!r} vs reference {r!r}")


def _job_network(job: dict) -> tuple[int, Edges]:
    if "text" in job:
        return parse_edges(json.loads(job["text"]))
    return lattice_edges(job["bc"], job["dims"], job["res"])


def _node(job: dict, coords) -> int:
    index, stride = 0, 1
    for c, d in zip(coords, job["dims"]):
        index += c * stride
        stride *= d
    return index


def check_closed_form(job: dict, rep: dict[str, str]) -> None:
    n, edges = _job_network(job)
    pairs = [(_node(job, c1), _node(job, c2)) for c1, c2 in job["pairs"]]
    _check_values(floats(rep["values"]), pair_resistances(n, edges, pairs), "closed form")


def check_graph_float(job: dict, rep: dict[str, str]) -> None:
    n, edges = _job_network(job)
    _check_values(floats(rep["values"]), pair_resistances(n, edges, job["pairs"]), "spectral")
    if job["kind"] == "gf-table":
        got = float(rep["kirchhoff_index"])
        ref = kirchhoff_index(n, edges)
        _expect(abs(got - ref) <= TOL * abs(ref), f"Kirchhoff index {got!r} vs {ref!r}")


def check_graph_exact(job: dict, rep: dict[str, str]) -> None:
    n, edges = _job_network(job)
    if job["kind"].endswith("-table"):
        entries = [Fraction(x) for x in rep["table"].split(";")]
        keys = [(a, b) for a in range(n) for b in range(a + 1, n)]
        _expect(len(entries) == len(keys), "table size")
        table = dict(zip(keys, entries))
        _expect(foster_sum(edges, table) == n - 1, "Foster's theorem fails")
        return
    a, b = job["pair"] if "text" in job else (_node(job, c) for c in job["pair"])
    value = Fraction(rep["value_exact"])
    _expect(float(rep["value_float"]) == float(value), "value_float is not float(value_exact)")
    (ref,) = pair_resistances(n, edges, [(a, b)])
    _expect(close(float(value), ref), f"exact {value} vs reference {ref!r}")


def _check_cli_value(job: dict, rep: dict[str, str]) -> None:
    spec = job["check"]
    if spec["what"] == "pair":
        if "network" in spec:
            n, edges = parse_edges(spec["network"])
            pair = spec["pair"]
        else:
            res = [Fraction(r) for r in spec["res"]]
            n, edges = lattice_edges(spec["bc"], spec["dims"], res)
            pair = [_node(spec, c) for c in spec["pair"]]
        (ref,) = pair_resistances(n, edges, [pair])
        _expect(close(float(rep["value_float"]), ref), f"value {rep['value_float']} vs {ref!r}")
        if "value_exact" in rep:
            _expect(close(float(Fraction(rep["value_exact"])), ref), "exact value")
    elif spec["what"] == "infinite":
        ref = infinite_resistance(spec["delta"], [Fraction(r) for r in spec["res"]])
        _expect(close(float(rep["value_float"]), ref), f"value {rep['value_float']} vs {ref!r}")
    elif spec["what"] == "identity":
        if spec["which"] in ("i1", "i2"):
            ref = identity_sum(spec["N"], spec["ell"], spec["lam"], 1 if spec["which"] == "i1" else 2)
            for key in ("closed", "direct"):
                _expect(close(float(rep[key]), ref), f"{key} {rep[key]} vs {ref!r}")
        else:
            ref = identity_product(spec["N"], spec["lam"], spec["which"] == "product-periodic")
            for key in ("lhs", "rhs"):
                got = float(rep[key])
                _expect(abs(got - ref) <= TOL * abs(ref), f"{key} {got!r} vs {ref!r}")
    elif spec["what"] == "reproduce":
        _expect(rep["passed"] == "True", "reproduce table did not pass")


def check_cli(job: dict, out: dict) -> None:
    """Exit code, no traceback, and the report or typed error the README documents."""
    _expect(not out["traceback"], "traceback")
    expect = job["expect"]
    _expect(out["code"] == expect["code"], f"exit {out['code']}, expected {expect['code']}")
    rep = read_report(out["stdout"], job["fmt"])
    if "error" in expect:
        _expect(rep.get("error.type") == expect["error"],
                f"error {rep.get('error.type')}, expected {expect['error']}")
        _expect(rep.get("error.exit_code") == str(expect["code"]), "error exit_code field")
    else:
        _check_cli_value(job, rep)


CHECKS = {
    "closed-form": check_closed_form,
    "graph-float": check_graph_float,
    "graph-exact": check_graph_exact,
}


def check_job(workload: str, job: dict, out: dict) -> tuple[bool, bool, str]:
    """(passed, is_error_contract_case, reason) for one job's output."""
    contract = workload == "cli" and "error" in job["expect"]
    try:
        if workload == "cli":
            check_cli(job, out)
        else:
            _expect("error" not in out, f"raised {out.get('error')}")
            CHECKS[workload](job, read_report(out["text"], job["fmt"]))
    except Mismatch as err:
        return False, contract, f"{job['id']} {job['kind']}: {err}"
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as err:
        return False, contract, f"{job['id']} {job['kind']}: unreadable report ({err!r})"
    return True, contract, ""
