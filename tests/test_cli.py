"""CLI behavior: reports, formats, exit codes, determinism, round trips."""

import hashlib
import json
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from resistnet import assemble_laplacian, build_network, lattice
from resistnet.cli import (
    _BC_BY_WORD,
    main,
    network_to_json,
    parse_network_json,
    parse_network_text,
)
from resistnet.exact import FREE_5X4


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


def test_lattice_both_mode(capsys):
    code, report = run_json(
        capsys,
        [
            "lattice", "--bc", "free", "--dims", "5x4",
            "--r", "1", "--s", "1",
            "--from", "0,0", "--to", "3,3", "--mode", "both",
        ],
    )
    assert code == 0
    assert report["method"] == "closed-form+oracle"
    assert Fraction(report["value_exact"]) == FREE_5X4
    assert report["value_float"] == pytest.approx(float(FREE_5X4), rel=1e-12)
    assert report["discrepancy"] <= 1e-9
    assert report["spec"]["bc"] == "free2d"


def test_lattice_one_dimensional(capsys):
    code, report = run_json(
        capsys,
        ["lattice", "--bc", "periodic", "--dims", "6", "--from", "1", "--to", "4",
         "--mode", "float"],
    )
    assert code == 0
    assert report["value_float"] == pytest.approx(1.5)


def test_graph_from_file(capsys, tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({
        "nodes": 4,
        "edges": [[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 0, 1], [1, 3, 2]],
    }))
    code, report = run_json(
        capsys,
        ["graph", "--input", str(path), "--from", "0", "--to", "2",
         "--mode", "both"],
    )
    assert code == 0
    assert Fraction(report["value_exact"]) == 1
    assert report["value_float"] == pytest.approx(1.0, rel=1e-12)


def test_graph_from_text_file(capsys, tmp_path):
    path = tmp_path / "net.txt"
    path.write_text("# a single resistor\n0 1 3/2\n")
    code, report = run_json(
        capsys,
        ["graph", "--input", str(path), "--from", "0", "--to", "1",
         "--mode", "exact"],
    )
    assert code == 0
    assert Fraction(report["value_exact"]) == Fraction(3, 2)


def test_identity_product(capsys):
    code, report = run_json(
        capsys,
        ["identity", "--which", "product-periodic", "--N", "1", "--lambda", "1.0"],
    )
    assert code == 0
    assert report["lhs"] == pytest.approx(math.cosh(1.0) - 1, rel=1e-14)
    assert report["rhs"] == pytest.approx(math.cosh(1.0) - 1, rel=1e-14)


def test_identity_sum(capsys):
    code, report = run_json(
        capsys,
        ["identity", "--which", "i1", "--N", "8", "--ell", "0", "--lambda", "1.0"],
    )
    assert code == 0
    assert abs(report["closed"] - report["direct"]) <= 1e-12


def test_infinite_command(capsys):
    code, report = run_json(capsys, ["infinite", "--delta", "1,0"])
    assert code == 0
    assert report["value_float"] == pytest.approx(0.5, abs=1e-8)


def test_reproduce_passes_and_is_byte_stable(capsys):
    code1, out1 = run_cli(capsys, ["reproduce"])
    code2, out2 = run_cli(capsys, ["reproduce"])
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"] is True
    assert all(row["passed"] for row in report["rows"])


def test_identical_requests_identical_bytes(capsys):
    argv = ["lattice", "--bc", "klein", "--dims", "5x4", "--from", "0,0",
            "--to", "3,3", "--mode", "both"]
    _, out1 = run_cli(capsys, argv)
    _, out2 = run_cli(capsys, argv)
    assert out1 == out2


def test_csv_and_text_formats(capsys):
    code, out = run_cli(
        capsys,
        ["lattice", "--bc", "free", "--dims", "5x4", "--from", "0,0",
         "--to", "3,3", "--format", "csv"],
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert "value_float" in header
    assert "1.70786" in row

    code, out = run_cli(
        capsys,
        ["lattice", "--bc", "free", "--dims", "5x4", "--from", "0,0",
         "--to", "3,3", "--format", "text"],
    )
    assert code == 0
    assert "value_float: 1.70786" in out


def test_exit_code_parse_error(capsys, tmp_path):
    code, report = run_json(
        capsys, ["graph", "--inline", "{bad json", "--from", "0", "--to", "1"]
    )
    assert code == 2
    assert report["error"]["type"] == "ParseError"
    # --input files that cannot be read or hold a bad text literal
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"nodes": 2, "edges": [[0, 1, "\xff"]]}')
    bad_literal = tmp_path / "bad.txt"
    bad_literal.write_text("0 1 abc\n")
    for path in (tmp_path / "missing.json", tmp_path, not_utf8, bad_literal):
        code, report = run_json(
            capsys, ["graph", "--input", str(path), "--from", "0", "--to", "1"]
        )
        assert code == 2
        assert report["error"]["type"] == "ParseError"
        assert (str(path) if path is not bad_literal else "line 1") in report["error"]["message"]
    # a JSON integer longer than Python parses
    huge = '{"nodes": 2, "edges": [[0, 1, 1%s]]}' % ("0" * 4400)
    code, report = run_json(capsys, ["graph", "--inline", huge, "--from", "0", "--to", "1"])
    assert code == 2
    assert report["error"]["type"] == "ParseError"
    # resistance literals of lattice/infinite, reported in the requested format
    for literal in ("abc", "nan", "1/0", "2..5"):
        for argv in (
            ["lattice", "--bc", "free", "--dims", "3x3", "--from", "0,0",
             "--to", "1,1", "--r", literal],
            ["infinite", "--delta", "1,1", "--s", literal],
        ):
            code, report = run_json(capsys, argv)
            assert code == 2
            assert report["error"]["type"] == "ParseError"
            code, out = run_cli(capsys, argv + ["--format", "text"])
            assert code == 2
            assert "error.type: ParseError\n" in out
            code, out = run_cli(capsys, argv + ["--format", "csv"])
            assert code == 2
            assert out.startswith("error.exit_code,error.message,error.type\n")


def test_exit_code_disconnected(capsys):
    code, report = run_json(
        capsys,
        ["graph", "--inline", '{"nodes": 4, "edges": [[0,1,1],[2,3,1]]}',
         "--from", "0", "--to", "3"],
    )
    assert code == 3
    assert report["error"]["type"] == "DisconnectedNetworkError"


def test_exit_code_range_error(capsys):
    code, report = run_json(
        capsys,
        ["graph", "--inline", '{"nodes": 2, "edges": [[0,1,1]]}',
         "--from", "0", "--to", "7"],
    )
    assert code == 4
    code, report = run_json(
        capsys,
        ["lattice", "--bc", "free", "--dims", "4x4", "--from", "0,0",
         "--to", "9,0"],
    )
    assert code == 4
    # exact and both modes range-check the pair before solving
    three = '{"nodes": 3, "edges": [[0,1,1],[1,2,1]]}'
    for dst in ("5", "-1"):
        for mode in ("float", "exact", "both"):
            code, report = run_json(
                capsys,
                ["graph", "--inline", three, "--from", "0", "--to", dst,
                 "--mode", mode],
            )
            assert code == 4
            assert report["error"]["type"] == "NodeIndexError"
    # the node range comes before connectivity, in every mode
    split = '{"nodes": 4, "edges": [[0,1,1],[2,3,1]]}'
    for mode in ("float", "exact", "both"):
        code, report = run_json(
            capsys,
            ["graph", "--inline", split, "--from", "0", "--to", "9",
             "--mode", mode],
        )
        assert code == 4
        assert report["error"] == {
            "exit_code": 4,
            "message": "node 9 outside 0..3",
            "type": "NodeIndexError",
        }
    # infinite-lattice resistances must be positive
    for args in (
        ["--delta", "1,1", "--r", "0"],
        ["--delta", "1,1", "--r", "-1"],
        ["--delta", "1,1", "--s", "0"],
        ["--delta", "1,1,1", "--t", "0"],
    ):
        code, report = run_json(capsys, ["infinite", *args])
        assert code == 4
        assert report["error"]["type"] == "NonPositiveResistanceError"
    # identity damping that is not finite, or too large for a float at this N
    for args in (
        ["--which", "i1", "--N", "5", "--lambda", "nan"],
        ["--which", "i1", "--N", "5", "--lambda", "inf"],
        ["--which", "product-free", "--N", "3", "--lambda", "nan"],
        ["--which", "product-free", "--N", "3", "--lambda", "inf"],
        ["--which", "product-free", "--N", "3", "--lambda", "1000"],
        ["--which", "product-periodic", "--N", "40", "--lambda", "50"],
        ["--which", "i1", "--N", "5", "--lambda", "1000"],
    ):
        code, report = run_json(capsys, ["identity", *args])
        assert code == 4
        assert report["error"]["type"] == "OutOfRangeError"
    # rationals outside the float range, on every route that converts them
    one_edge = '{"nodes": 2, "edges": [[0, 1, "%s"]]}'
    for argv in (
        ["lattice", "--bc", "free", "--dims", "3", "--from", "0", "--to", "2",
         "--r", "1e400"],
        ["lattice", "--bc", "free", "--dims", "3", "--from", "0", "--to", "2",
         "--r", "1e400", "--mode", "exact"],
        ["lattice", "--bc", "free", "--dims", "3", "--from", "0", "--to", "2",
         "--r", "1e-400", "--mode", "float"],
        ["infinite", "--delta", "1,0", "--r", "1e400"],
        ["infinite", "--delta", "1,0", "--r", "1e-400"],
        ["graph", "--inline", one_edge % "1e400", "--from", "0", "--to", "1"],
        ["graph", "--inline", one_edge % "1e400", "--from", "0", "--to", "1",
         "--mode", "exact"],
        ["graph", "--inline", one_edge % "1e400", "--from", "0", "--to", "1",
         "--mode", "both"],
        ["graph", "--inline", one_edge % "1e-400", "--from", "0", "--to", "1"],
        # each edge in range, but twenty conductances of 1e307 pass the
        # largest float: merged as parallel edges, or on a star's diagonal
        ["graph", "--inline", json.dumps({"nodes": 2, "edges": [[0, 1, 1e-307]] * 20}),
         "--from", "0", "--to", "1"],
        ["graph", "--inline",
         json.dumps({"nodes": 21, "edges": [[0, k, 1e-307] for k in range(1, 21)]}),
         "--from", "0", "--to", "1"],
    ):
        code, report = run_json(capsys, argv)
        assert code == 4
        assert report["error"]["type"] == "OutOfRangeError"
    # an exact value with more digits than Python turns into text
    chain = {"nodes": 17,
             "edges": [[k, k + 1, f"1/{10**300 + k}"] for k in range(16)]}
    code, report = run_json(
        capsys,
        ["graph", "--inline", json.dumps(chain), "--from", "0", "--to", "16",
         "--mode", "exact"],
    )
    assert code == 4
    assert report["error"]["type"] == "OutOfRangeError"


def test_tolerance_env_var_gates_both_mode(capsys, monkeypatch):
    argv = ["graph", "--inline", '{"nodes": 3, "edges": [[0,1,3],[1,2,5],[0,2,2]]}',
            "--from", "0", "--to", "2", "--mode", "both"]
    monkeypatch.setenv("RESISTNET_TOL", "1e-30")
    code, report = run_json(capsys, argv)
    assert code == 5  # any float rounding now exceeds the tolerance
    assert report["discrepancy"] > 0.0
    monkeypatch.setenv("RESISTNET_TOL", "1e-6")
    code, report = run_json(capsys, argv)
    assert code == 0
    monkeypatch.delenv("RESISTNET_TOL")
    code, _ = run_json(capsys, argv)
    assert code == 0


_TOL_ROUTES = {
    "graph": ["graph", "--inline", '{"nodes": 3, "edges": [[0,1,3],[1,2,5],[0,2,2]]}',
              "--from", "0", "--to", "2"],
    "lattice": ["lattice", "--bc", "free", "--dims", "5x4", "--from", "0,0", "--to", "3,3"],
}


@pytest.mark.parametrize(
    "raw, code, error",
    [("abc", 2, "ParseError"), ("", 2, "ParseError"), ("nan", 4, "OutOfRangeError"),
     ("-1", 4, "OutOfRangeError"), ("inf", 4, "OutOfRangeError"),
     ("1e400", 4, "OutOfRangeError")],
)
def test_tolerance_env_var_is_validated(capsys, monkeypatch, raw, code, error):
    """Only the routes that compare float with exact read RESISTNET_TOL."""
    monkeypatch.setenv("RESISTNET_TOL", raw)
    for argv in _TOL_ROUTES.values():
        got, report = run_json(capsys, argv + ["--mode", "both"])
        assert (got, report["error"]["type"]) == (code, error)
        assert "RESISTNET_TOL" in report["error"]["message"]
        for mode in ("float", "exact"):
            assert run_json(capsys, argv + ["--mode", mode])[0] == 0
    got, report = run_json(capsys, ["reproduce"])
    assert (got, report["error"]["type"]) == (code, error)


def test_tolerance_env_var_zero_is_exact_equality(capsys, monkeypatch):
    monkeypatch.setenv("RESISTNET_TOL", "0")
    code, report = run_json(capsys, ["lattice", "--bc", "free", "--dims", "5x4",
                                     "--from", "0,0", "--to", "1,0", "--mode", "both"])
    assert (code, report["discrepancy"]) == (0, 0.0)


MODES = ("float", "exact", "both")
_SQUARE = '{"nodes": 4, "edges": [[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 0, 1]]}'
_SPLIT = '{"nodes": 4, "edges": [[0, 1, 1], [2, 3, 1]]}'


def _graph(net, alpha, beta):
    return ["graph", "--inline", net, "--from", str(alpha), "--to", str(beta)]


def _free_4x4(c1, c2):
    return ["lattice", "--bc", "free", "--dims", "4x4", "--from", c1, "--to", c2]


_DISCONNECTED = "DisconnectedNetworkError"
# query -> (RESISTNET_TOL, argv, one cell per mode in MODES).  A cell is the
# exit code and then the error class, or for a report the value_float it
# pins (None: any value).
_CONTRACT = {
    "graph-valid": (None, _graph(_SQUARE, 0, 2), ((0, None),) * 3),
    "lattice-valid": (None, _free_4x4("0,0", "3,3"), ((0, None),) * 3),
    "graph-same-node": (
        None, _graph(_SQUARE, 1, 1), ((0, 0.0), (4, "SameNodeError"), (4, "SameNodeError"))
    ),
    "lattice-same-node": (
        None, _free_4x4("1,2", "1,2"), ((0, 0.0), (4, "SameNodeError"), (4, "SameNodeError"))
    ),
    "split-one-component": (
        None, _graph(_SPLIT, 0, 1), ((3, _DISCONNECTED), (0, None), (3, _DISCONNECTED))
    ),
    "split-across": (None, _graph(_SPLIT, 0, 3), ((3, _DISCONNECTED),) * 3),
    "split-same-node": (
        None, _graph(_SPLIT, 2, 2), ((3, _DISCONNECTED), (4, "SameNodeError"), (3, _DISCONNECTED))
    ),
    "graph-bad-node": (None, _graph(_SPLIT, 0, 9), ((4, "NodeIndexError"),) * 3),
    "lattice-bad-coordinate": (None, _free_4x4("0,0", "9,0"), ((4, "NodeIndexError"),) * 3),
    "bad-tolerance": (
        "abc", _graph(_SPLIT, 0, 1), ((3, _DISCONNECTED), (0, None), (2, "ParseError"))
    ),
}


@pytest.mark.parametrize(
    "query, mode", list(product(_CONTRACT, MODES)), ids="-".join
)
def test_mode_contract(capsys, monkeypatch, query, mode):
    """Today's answer per query and mode; which rows should agree across
    modes is an open decision, so this pins what the CLI does now."""
    tol, argv, cells = _CONTRACT[query]
    if tol is None:
        monkeypatch.delenv("RESISTNET_TOL", raising=False)
    else:
        monkeypatch.setenv("RESISTNET_TOL", tol)
    want_code, want = cells[MODES.index(mode)]
    code, report = run_json(capsys, argv + ["--mode", mode])
    assert code == want_code
    if isinstance(want, str):
        assert report["error"]["type"] == want
    else:
        assert "error" not in report
        assert want is None or report["value_float"] == want


def test_bad_lattice_pair_never_builds_the_lattice(capsys, monkeypatch):
    # a pair outside the lattice, or the same node twice, exits 4 unbuilt
    def unbuilt(spec):
        raise AssertionError("make_lattice ran for a bad pair")

    monkeypatch.setattr(lattice, "make_lattice", unbuilt)
    argv = ["lattice", "--bc", "free", "--dims", "2000x2000", "--from", "0,0"]
    for to, error in (("5000,0", "NodeIndexError"), ("0,-1", "NodeIndexError"),
                      ("0,0", "SameNodeError")):
        for mode in ("exact", "both"):
            code, report = run_json(capsys, argv + ["--to", to, "--mode", mode])
            assert (code, report["error"]["type"]) == (4, error)
    code, report = run_json(capsys, argv + ["--to", "5000,0", "--mode", "exact"])
    assert report["error"]["message"] == "coordinate (5000, 0) outside (2000, 2000)"


def cli_digest_corpus():
    """(RESISTNET_TOL, argv) requests whose reports carry no eigh digit.

    ``lattice`` in every mode on all eight wraps, with same-node and
    out-of-range pairs; ``graph --mode exact``; and the ``graph`` error
    reports of every mode.  Graph float and both values are left out:
    their last digits follow the BLAS thread count.  So is the exact value
    too long to print: its message is the interpreter's own, which differs
    between Python versions.  ``--from=`` lets a negative coordinate reach
    the range check instead of argparse.
    """
    requests = []
    dims = {1: "5", 2: "4x3", 3: "3x2x2"}
    for (word, ndim), mode in product(_BC_BY_WORD, MODES):
        sizes = [int(d) for d in dims[ndim].split("x")]
        last = ",".join(str(d - 1) for d in sizes)
        ones = ",".join("1" for _ in sizes)
        zero = ",".join("0" for _ in sizes)
        past = ",".join(str(d) for d in sizes)
        below = ",".join(["-1"] + ["0"] * (ndim - 1))
        for c1, c2 in ((zero, last), (ones, last), (ones, ones), (zero, past), (below, zero)):
            requests.append((None, [
                "lattice", "--bc", word, "--dims", dims[ndim], "--r", "2/3", "--s", "3",
                "--t", "1/2", f"--from={c1}", f"--to={c2}", "--mode", mode,
            ]))
    star = json.dumps({"nodes": 5, "edges": [[0, k, f"{k}/{k + 2}"] for k in range(1, 5)]
                       + [[1, 2, 7]]})
    for net, (alpha, beta) in product((_SQUARE, _SPLIT, star), ((0, 1), (0, 3), (1, 4))):
        requests.append((None, _graph(net, alpha, beta) + ["--mode", "exact"]))
    # each error with the modes that report it
    errors = [
        (None, _graph(_SPLIT, 0, 3), MODES),
        (None, _graph(_SPLIT, 0, 9), MODES),
        (None, _graph(_SPLIT, -1, 0), MODES),
        (None, _graph(_SQUARE, 2, 2), MODES),  # 0.0 in float mode
        (None, _graph('{"nodes": 2, "edges": [[0, 1, "1e400"]]}', 0, 1), MODES),
        (None, _graph('{"nodes": 2, "edges": [[0, 0, 1]]}', 0, 1), MODES),
        (None, _graph('{"nodes": 2, "edges": [[0, 1, -1]]}', 0, 1), MODES),
        (None, _graph("{bad", 0, 1), MODES),
        (None, _graph('{"nodes": 2, "edges": [[0, 1, 0.25]]}', 0, 1), ("exact", "both")),
        ("abc", _graph(_SPLIT, 0, 1), ("float", "both")),
        ("-1", _graph(_SQUARE, 0, 1), ("both",)),
    ]
    for tol, argv, modes in errors:
        requests += [(tol, argv + ["--mode", mode]) for mode in modes]
    return [(tol, argv + ["--format", fmt])
            for tol, argv in requests for fmt in ("json", "csv", "text")]


def test_cli_reports_pinned(capsys, monkeypatch):
    # no report here carries an eigh digit, so any rewrite of the CLI must keep these bytes
    outputs = []
    for tol, argv in cli_digest_corpus():
        if tol is None:
            monkeypatch.delenv("RESISTNET_TOL", raising=False)
        else:
            monkeypatch.setenv("RESISTNET_TOL", tol)
        outputs.append((tol, argv, *run_cli(capsys, argv)))
    assert len(outputs) == 474
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == "dd1924b871fa46c2aaa3fb0c6aa6722093541e39ab23824ca6f9c348e7c1ca58"


def test_exact_mode_rejects_float_literals(capsys):
    code, report = run_json(
        capsys,
        ["graph", "--inline", '{"nodes": 2, "edges": [[0,1,0.25]]}',
         "--from", "0", "--to", "1", "--mode", "exact"],
    )
    assert code == 2
    # float mode accepts the same input
    code, _ = run_json(
        capsys,
        ["graph", "--inline", '{"nodes": 2, "edges": [[0,1,0.25]]}',
         "--from", "0", "--to", "1"],
    )
    assert code == 0


def test_network_json_round_trip():
    net = build_network(
        3, [(0, 1, Fraction(2, 3)), (1, 2, 4), (0, 2, 0.25), (0, 1, Fraction(2, 3))]
    )
    restored = parse_network_json(network_to_json(net))
    assert restored.n_nodes == net.n_nodes
    assert np.array_equal(
        assemble_laplacian(restored).matrix, assemble_laplacian(net).matrix
    )


def test_network_text_parsing():
    net = parse_network_text("0 1 2\n1 2 1/2  # bridge\n\n# done\n")
    assert net.n_nodes == 3
    assert net.edges[1][2] == Fraction(1, 2)
