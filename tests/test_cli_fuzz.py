"""Property test of the CLI error contract over all five subcommands.

Every argv drawn here is well formed for argparse, so ``main`` must return
0, or one of the documented exit codes 2, 3, 4, 5 with an error object
that names the same code, and no report may carry a NaN.  The examples are
derandomized and no database is kept, so repeated runs draw the same ones.
"""

import contextlib
import csv
import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from resistnet import cli

# At collection Hypothesis caches the constants it finds in the package's
# source under its home directory.  A home that cannot be created makes it
# skip that cache, so the suite writes no .hypothesis/ directory.
set_hypothesis_home_dir(os.devnull)

FORMATS = st.sampled_from(("json", "csv", "text"))
# CLI resistance literals: valid ones, drawn three times as often, plus zero,
# negative, NaN and rationals beyond the float range in both directions.
R_LITERALS = st.sampled_from(
    ("1", "2", "1/2", "3/7", "0.25") * 3 + ("0", "-1", "nan", "1e400", "1e-400")
)
# JSON edge resistances: numbers and "p/q" strings, good and bad.
EDGE_RESISTANCES = st.sampled_from(
    (1, 2, 0.5, 1.5, "1/3", "5/2", 0, -1, float("nan"), "0", "1e400", "1e-400")
)
DAMPINGS = st.sampled_from(
    ("0", "0.05", "0.5", "1", "3", "50", "400", "1000", "1e-200", "-1", "nan", "inf")
)
MODES = st.sampled_from(("float", "exact", "both"))


def index_in(size: int):
    """Indices 0..size-1, and now and then -1 or size just outside them."""
    return st.sampled_from(tuple(range(size)) * 3 + (-1, size))


# --input routes, by file name: a path that does not exist, a directory,
# bytes that are not UTF-8, a bad text literal, and two readable networks.
# The test writes them under a temporary directory.
INPUT_FILES = {
    "missing.json": None,
    "directory": None,
    "latin1.json": b'{"nodes": 2, "edges": [[0, 1, "\xff"]]}',
    "latin1.txt": b"0 1 \xe9\n",
    "bad-literal.txt": b"0 1 abc\n",
    "net.json": b'{"nodes": 3, "edges": [[0, 1, 1], [1, 2, "1/2"]]}',
    "net.txt": b"# two resistors\n0 1 2\n1 2 0.5\n",
}


@st.composite
def graph_argv(draw):
    n = draw(st.integers(1, 6))
    node = index_in(n)
    edges = draw(st.lists(st.tuples(node, node, EDGE_RESISTANCES), max_size=8))
    inline = json.dumps({"nodes": n, "edges": [list(e) for e in edges]})
    return [
        "graph", f"--inline={inline}", f"--from={draw(node)}", f"--to={draw(node)}",
        f"--mode={draw(MODES)}",
    ]


@st.composite
def input_argv(draw):
    """``graph --input=<name>``; the test puts the file's path in its place."""
    node = index_in(3)
    return [
        "graph", "--input=" + draw(st.sampled_from(sorted(INPUT_FILES))),
        f"--from={draw(node)}", f"--to={draw(node)}", f"--mode={draw(MODES)}",
    ]


@st.composite
def lattice_argv(draw):
    bc = draw(st.sampled_from(("free", "periodic", "cylinder", "moebius", "klein")))
    ndim = {"free": 3, "periodic": 2}.get(bc)  # the most axes bc takes
    ndim = draw(st.integers(1, ndim)) if ndim else 2
    dims = draw(st.lists(st.integers(1, 6), min_size=ndim, max_size=ndim))

    def coords():
        return ",".join(str(draw(index_in(d))) for d in dims)

    return [
        "lattice", f"--bc={bc}", "--dims=" + "x".join(map(str, dims)),
        f"--from={coords()}", f"--to={coords()}",
        f"--r={draw(R_LITERALS)}", f"--s={draw(R_LITERALS)}", f"--t={draw(R_LITERALS)}",
        f"--mode={draw(MODES)}",
    ]


@st.composite
def identity_argv(draw):
    n = draw(st.integers(0, 40))
    return [
        "identity",
        "--which=" + draw(st.sampled_from(("i1", "i2", "product-free", "product-periodic"))),
        f"--N={n}", f"--ell={draw(st.integers(-1, 2 * n))}",
        f"--lambda={draw(DAMPINGS)}",
    ]


@st.composite
def infinite_argv(draw):
    delta = draw(st.lists(st.integers(-5, 5), min_size=2, max_size=3))
    return [
        "infinite", "--delta=" + ",".join(map(str, delta)),
        f"--r={draw(R_LITERALS)}", f"--s={draw(R_LITERALS)}", f"--t={draw(R_LITERALS)}",
    ]


ARGV = st.one_of(
    graph_argv(), input_argv(), lattice_argv(), identity_argv(), infinite_argv(),
    st.just(["reproduce"]),
)


def flat_report(out: str, fmt: str) -> dict[str, str]:
    """The report as the flat ``key -> text`` map that csv and text print."""
    if fmt == "json":
        return cli._flatten(json.loads(out))
    if fmt == "csv":
        header, values = csv.reader(io.StringIO(out))
        return dict(zip(header, values))
    return dict(line.split(": ", 1) for line in out.splitlines())


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    """``--input=<name>`` -> ``--input=<path>`` for every file in INPUT_FILES."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "directory").mkdir()
    for name, data in INPUT_FILES.items():
        if data is not None:
            (root / name).write_bytes(data)
    return {f"--input={name}": f"--input={root / name}" for name in INPUT_FILES}


@settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=ARGV, fmt=FORMATS)
def test_cli_main_keeps_the_error_contract(input_paths, argv, fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([input_paths.get(arg, arg) for arg in argv] + [f"--format={fmt}"])
    assert code in (0, 2, 3, 4, 5)
    report = flat_report(buf.getvalue(), fmt)
    if "error.exit_code" in report:
        assert report["error.exit_code"] == str(code) != "0"
    elif code != 0:
        # the one error without an error object: float and exact disagree
        assert code == 5 and "discrepancy" in report
    zero_damping = argv[0] == "identity" and float(argv[-1].split("=")[1]) == 0
    for key, value in report.items():
        for item in value.split(";"):
            assert item.lower() not in ("nan", "-nan"), (key, value)
            if item.lower() in ("inf", "-inf", "infinity", "-infinity"):
                assert zero_damping and key in ("closed", "direct"), (key, value)
