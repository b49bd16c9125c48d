"""README's library quick start runs, and gives the values its comments state."""

import ast
import math
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start():
    """The value of each bare expression in README's python block, by its source."""
    text = README.read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            values[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    return values


def test_quick_start_gives_the_stated_values():
    values = quick_start()
    assert values["rn.solve_exact(net, 0, 1)"] == Fraction(2, 3)
    assert values["rn.resistance(spec, (0, 0), (3, 3))"] == 0.6541494802837815
    # the last digits of the spectral route follow the BLAS build
    spectral = values["rn.two_point_resistance(spectrum, 0, 2)"]
    assert abs(spectral - 1.0000000000000002) <= 1e-12
    klein = values[
        "rn.solve_exact(rn.make_lattice(spec), spec.node_index((0, 0)), spec.node_index((3, 3)))"
    ]
    assert klein == Fraction(19824, 30305)
    assert math.isclose(values["rn.r_infinite_2d(1, 1)"], 2 / math.pi, rel_tol=1e-8)
    lhs, rhs = values["rn.product_identity_periodic(9, 2.0)"]
    assert math.isclose(lhs, rhs, rel_tol=1e-10)
