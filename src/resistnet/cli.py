"""Command-line front end.

Subcommands: ``graph`` (file/inline network queries), ``lattice``
(closed-form grids), ``identity`` (lattice-sum and product identities),
``infinite`` (infinite-grid integrals), and ``reproduce`` (the golden
table).  Reports are machine-readable and byte-stable: identical requests
produce identical bytes.

Exit codes: 0 ok, 2 parse, 3 disconnected, 4 range, 5 numeric.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import exact, golden, identities, lattice, network, spectral
from .errors import (
    EXIT_NUMERIC,
    EXIT_OK,
    OutOfRangeError,
    ParseError,
    ResistnetError,
)


# ---------------------------------------------------------------------------
# network file formats


def parse_resistance_literal(raw, exact_mode: bool):
    """Edge resistance from a JSON number or 'p/q' string.

    Exact mode accepts integers and fraction literals only; float literals
    have no declared rational value and are rejected there.
    """
    if isinstance(raw, bool):
        raise ParseError(f"bad resistance {raw!r}")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, float):
        if exact_mode:
            raise ParseError(
                f"exact mode needs integer or p/q resistances, got {raw!r}"
            )
        return raw
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as err:
            raise ParseError(f"bad resistance literal {raw!r}") from err
    raise ParseError(f"bad resistance {raw!r}")


def network_to_json(net: network.Network) -> dict:
    """JSON-ready form: {"nodes": n, "edges": [[i, j, r], ...]}."""
    edges = []
    for i, j, r in net.edges:
        if isinstance(r, Fraction):
            edges.append([i, j, str(r)])
        else:
            edges.append([i, j, r])
    return {"nodes": net.n_nodes, "edges": edges}


def parse_network_json(obj, exact_mode: bool = False) -> network.Network:
    if not isinstance(obj, dict) or "nodes" not in obj or "edges" not in obj:
        raise ParseError('network JSON needs "nodes" and "edges"')
    if not isinstance(obj["nodes"], int):
        raise ParseError(f'"nodes" must be an integer, got {obj["nodes"]!r}')
    edges = []
    for entry in obj["edges"]:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ParseError(f"bad edge entry {entry!r}")
        i, j, raw = entry
        if not isinstance(i, int) or not isinstance(j, int):
            raise ParseError(f"bad edge endpoints {entry!r}")
        edges.append((i, j, parse_resistance_literal(raw, exact_mode)))
    return network.build_network(obj["nodes"], edges)


def parse_network_text(text: str, exact_mode: bool = False) -> network.Network:
    """One 'i j r' triple per line; '#' starts a comment."""
    edges = []
    max_node = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'i j r', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as err:
            raise ParseError(f"line {lineno}: bad node index in {line!r}") from err
        raw = parts[2]
        if "/" in raw:
            value = parse_resistance_literal(raw, exact_mode)
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    literal = float(raw)
                except ValueError as err:
                    raise ParseError(f"line {lineno}: bad resistance in {line!r}") from err
                value = parse_resistance_literal(literal, exact_mode)
        edges.append((i, j, value))
        max_node = max(max_node, i, j)
    return network.build_network(max_node + 1, edges)


def load_network(path: str | None, inline: str | None, exact_mode: bool) -> network.Network:
    if (path is None) == (inline is None):
        raise ParseError("give exactly one of --input or --inline")
    if inline is not None:
        try:
            obj = json.loads(inline)
        except ValueError as err:  # JSONDecodeError, or an int past the digit limit
            raise ParseError(f"bad inline JSON: {err}") from err
        return parse_network_json(obj, exact_mode)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:  # missing, a directory, not UTF-8
        raise ParseError(f"{path}: cannot read: {err}") from err
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except ValueError as err:
            raise ParseError(f"{path}: bad JSON: {err}") from err
        return parse_network_json(obj, exact_mode)
    return parse_network_text(text, exact_mode)


# ---------------------------------------------------------------------------
# small parsers


def parse_coords(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError as err:
        raise ParseError(f"bad coordinates {raw!r}") from err


def parse_dims(raw: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in raw.lower().split("x"))
    except ValueError as err:
        raise ParseError(f"bad dims {raw!r}") from err
    if not 1 <= len(dims) <= 3:
        raise ParseError(f"dims must have 1..3 axes, got {raw!r}")
    return dims


def parse_rational_option(raw: str) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as err:
        raise ParseError(f"bad resistance {raw!r}") from err


_BC_BY_WORD = {
    ("free", 1): lattice.BoundaryCondition.FREE_1D,
    ("free", 2): lattice.BoundaryCondition.FREE_2D,
    ("free", 3): lattice.BoundaryCondition.FREE_3D,
    ("periodic", 1): lattice.BoundaryCondition.PERIODIC_1D,
    ("periodic", 2): lattice.BoundaryCondition.PERIODIC_2D,
    ("cylinder", 2): lattice.BoundaryCondition.CYLINDER,
    ("moebius", 2): lattice.BoundaryCondition.MOEBIUS,
    ("klein", 2): lattice.BoundaryCondition.KLEIN,
}


def boundary_condition_for(word: str, ndim: int) -> lattice.BoundaryCondition:
    try:
        return _BC_BY_WORD[(word, ndim)]
    except KeyError:
        raise ParseError(f"boundary condition {word!r} undefined for {ndim}D dims")


# ---------------------------------------------------------------------------
# report rendering


def _exact_text(value: Fraction) -> str:
    """``value`` as 'p/q' text; OutOfRangeError past the interpreter's limit
    on the digits of an int turned into text."""
    try:
        return str(value)
    except ValueError as err:
        raise OutOfRangeError(f"exact value too long to print: {err}") from err


def _flatten(report: dict, prefix: str = "") -> dict[str, str]:
    flat: dict[str, str] = {}
    for key in sorted(report):
        value = report[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            flat[name] = ";".join(str(v) for v in value)
        else:
            flat[name] = "" if value is None else str(value)
    return flat


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    flat = _flatten(report)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(flat))
        writer.writerow(list(flat.values()))
        return buf.getvalue()
    lines = [f"{key}: {value}" for key, value in flat.items()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _axis_resistances(args) -> tuple[Fraction, Fraction, Fraction]:
    """--r/--s/--t, parsed here rather than by argparse so that a bad
    literal is reported as a ParseError."""
    return tuple(parse_rational_option(raw) for raw in (args.r, args.s, args.t))


def _answer(mode, report, float_method, float_route, exact_route) -> tuple[dict, int]:
    """Fill ``report`` from the float route, the exact oracle or both.

    Each route is a zero-argument solve.  ``both`` reads the tolerance
    before any solve, runs the float route first, and exits 5 when the two
    values disagree by golden's rule.
    """
    tol = golden.comparison_tolerance() if mode == "both" else None
    methods = []
    if mode != "exact":
        report["value_float"] = float_route()
        methods.append(float_method)
    if mode != "float":
        value = exact_route()
        report["value_exact"] = _exact_text(value)
        exact_f = network._to_float(value)
        report.setdefault("value_float", exact_f)  # exact mode: the oracle's float
        methods.append("oracle")
    report["method"] = "+".join(methods)
    if mode != "both":
        return report, EXIT_OK
    value_f = report["value_float"]
    report["discrepancy"] = abs(value_f - exact_f)
    return report, EXIT_OK if golden._close(value_f, exact_f, tol) else EXIT_NUMERIC


def _run_graph(args) -> tuple[dict, int]:
    net = load_network(args.input, args.inline, args.mode != "float")
    alpha, beta = args.src, args.dst
    network._check_nodes(net, alpha, beta)  # before any solve, in every mode
    report: dict = {
        "pair": [alpha, beta],
        "spec": {"nodes": net.n_nodes, "edges": len(net.edges)},
    }

    def spectral_sum():
        spectrum = spectral.decompose(network.assemble_laplacian(net))
        return spectral.two_point_resistance(spectrum, alpha, beta)

    return _answer(
        args.mode, report, "spectral", spectral_sum, lambda: exact.solve_exact(net, alpha, beta)
    )


def _run_lattice(args) -> tuple[dict, int]:
    dims = parse_dims(args.dims)
    bc = boundary_condition_for(args.bc, len(dims))
    res = _axis_resistances(args)[: len(dims)]
    spec = lattice.LatticeSpec(dims=dims, resistances=res, bc=bc)
    c1 = parse_coords(args.src)
    c2 = parse_coords(args.dst)
    if len(c1) != len(dims) or len(c2) != len(dims):
        raise ParseError(
            f"coordinates need {len(dims)} components for dims {args.dims}"
        )
    report: dict = {
        "pair": [",".join(map(str, c1)), ",".join(map(str, c2))],
        "spec": {
            "bc": bc.value,
            "dims": "x".join(map(str, dims)),
            "resistances": [str(r) for r in res],
        },
    }

    def oracle():
        # the pair is checked before the lattice is built; a lattice is connected
        alpha, beta = spec.node_index(c1), spec.node_index(c2)
        network._check_pair(alpha, beta)
        return exact.solve_exact(lattice.make_lattice(spec), alpha, beta)

    return _answer(
        args.mode, report, "closed-form", lambda: lattice.resistance(spec, c1, c2), oracle
    )


def _run_identity(args) -> tuple[dict, int]:
    which = args.which
    report: dict = {"method": "identity", "which": which, "N": args.n_terms, "damping": args.lam}
    # functions are looked up per call, so a wrapped module attribute is the one run
    if which in ("i1", "i2"):
        query = identities.IdentityQuery(
            n_terms=args.n_terms, offset=args.ell, damping=args.lam, variant=int(which[1])
        )
        closed = getattr(identities, f"{which}_closed")(query)
        direct = getattr(identities, f"{which}_direct")(query)
        both_infinite = math.isinf(closed) and math.isinf(direct)
        report.update(
            offset=args.ell,
            closed=closed,
            direct=direct,
            difference=0.0 if both_infinite else closed - direct,
        )
    else:
        product = getattr(identities, "product_identity_" + which.removeprefix("product-"))
        lhs, rhs = product(args.n_terms, args.lam)
        report.update(lhs=lhs, rhs=rhs, difference=lhs - rhs)
    return report, EXIT_OK


def _run_infinite(args) -> tuple[dict, int]:
    delta = parse_coords(args.delta)
    if len(delta) not in (2, 3):
        raise ParseError(f"--delta needs 2 or 3 components, got {args.delta!r}")
    res = _axis_resistances(args)[: len(delta)]
    integral = identities.r_infinite_2d if len(delta) == 2 else identities.r_infinite_3d
    value = integral(*delta, *res)
    report = {
        "method": "quadrature",
        "delta": list(delta),
        "spec": {"resistances": [str(x) for x in res]},
        "value_float": value,
    }
    return report, EXIT_OK


def _run_reproduce(args) -> tuple[dict, int]:
    rows = golden.reproduce_all()
    report = {
        "rows": [
            {
                "id": row.ident,
                "description": row.description,
                "expected": row.expected,
                "computed": row.computed,
                "passed": row.passed,
            }
            for row in rows
        ],
        "passed": all(row.passed for row in rows),
    }
    return report, EXIT_OK if report["passed"] else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resistnet",
        description=(
            "Two-point resistance of finite resistor networks: exact rational "
            "and spectral solvers for arbitrary graphs, closed forms for "
            "free/periodic/cylindrical/twisted grids, lattice-sum identities, "
            "and infinite-grid integrals.  Lattice nodes are indexed "
            "x + M*y + M*N*z (x fastest); coordinates are comma-separated "
            "per axis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    graph = sub.add_parser("graph", help="query a network from a file or inline JSON")
    graph.add_argument("--input", help="network file (JSON or 'i j r' lines)")
    graph.add_argument("--inline", help="network as an inline JSON object")
    graph.add_argument("--from", dest="src", type=int, required=True)
    graph.add_argument("--to", dest="dst", type=int, required=True)
    graph.add_argument("--mode", choices=("float", "exact", "both"), default="float")
    graph.set_defaults(run=_run_graph)

    lat = sub.add_parser("lattice", help="closed-form lattice resistance")
    lat.add_argument(
        "--bc",
        required=True,
        choices=("free", "periodic", "cylinder", "moebius", "klein"),
    )
    lat.add_argument("--dims", required=True, help="axis lengths, e.g. 5x4")
    lat.add_argument("--r", default="1")
    lat.add_argument("--s", default="1")
    lat.add_argument("--t", default="1")
    lat.add_argument("--from", dest="src", required=True, help="e.g. 0,0")
    lat.add_argument("--to", dest="dst", required=True, help="e.g. 3,3")
    lat.add_argument("--mode", choices=("float", "exact", "both"), default="float")
    lat.set_defaults(run=_run_lattice)

    ident = sub.add_parser("identity", help="lattice-sum and product identities")
    ident.add_argument(
        "--which",
        required=True,
        choices=("i1", "i2", "product-free", "product-periodic"),
    )
    ident.add_argument("--N", dest="n_terms", type=int, required=True)
    ident.add_argument("--ell", type=int, default=0)
    ident.add_argument("--lambda", dest="lam", type=float, required=True)
    ident.set_defaults(run=_run_identity)

    inf = sub.add_parser("infinite", help="infinite-lattice integral")
    inf.add_argument("--delta", required=True, help="offset, e.g. 1,0 or 1,1,0")
    inf.add_argument("--r", default="1")
    inf.add_argument("--s", default="1")
    inf.add_argument("--t", default="1")
    inf.set_defaults(run=_run_infinite)

    rep = sub.add_parser("reproduce", help="run the golden reference table")
    rep.set_defaults(run=_run_reproduce)

    for command in sub.choices.values():  # last, so --help lists it last
        command.add_argument("--format", choices=("json", "csv", "text"), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse already printed a usage message
        return int(err.code) if err.code else EXIT_OK
    try:
        report, code = args.run(args)
    except ResistnetError as err:
        error_report = {
            "error": {
                "type": type(err).__name__,
                "message": str(err),
                "exit_code": err.exit_code,
            }
        }
        sys.stdout.write(render_report(error_report, args.format))
        return err.exit_code
    sys.stdout.write(render_report(report, args.format))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
