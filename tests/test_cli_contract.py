"""Fuzz of the config loader and the `simulate` exit-code contract: every
config either loads or raises ConfigError, and `kirchheat simulate` exits
0, 2 or 3 without a traceback, however far its numbers are from sane.

A config is a valid small scenario (n_modes <= 8, t_end <= 0.05,
dt >= 1e-4, so a run takes at most 500 steps) with up to two of its
fields replaced by an extreme or ill-typed value."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from kirchheat import ConfigError, ScenarioConfig, config_from_dict
from kirchheat.cli import main

EXTREMES = [0.0, -1.0, 5e-324, 1e-300, 1e-150, 1e-8, 1e8, 1e150, 1e300, 1.7e308,
            math.inf, -math.inf, math.nan, True, "1", [1.0]]
INT_EXTREMES = [-1, 0, 9, 10**9]

FLOAT_FIELDS = [("domain", "length"), ("domain", "lengths", 0), ("domain", "lengths", 1),
                ("params", "m0"), ("params", "m1"), ("params", "alpha"), ("params", "beta"),
                ("initial", "y0", "amplitude"), ("initial", "y1", "amplitude"),
                ("initial", "theta0", "amplitude"), ("initial", "y0", "coefficients", 0),
                ("stepper", "dt"), ("stepper", "newton_tol"), ("t_end",)]
INT_FIELDS = [("record_every",), ("stepper", "newton_max_iter"), ("initial", "y0", "mode")]
# n_modes stays <= 8 whatever is drawn: a huge mode count is a memory
# test, not a contract test
N_MODES_EXTREMES = [-1, 0]


def profile():
    amplitude = st.floats(-50.0, 50.0)
    return st.one_of(
        st.just({"kind": "zero"}),
        st.fixed_dictionaries({"kind": st.just("sine_mode"), "mode": st.integers(1, 4),
                               "amplitude": amplitude}),
        st.fixed_dictionaries({"kind": st.just("bump"), "amplitude": amplitude}),
        st.fixed_dictionaries({"kind": st.just("coefficients"),
                               "coefficients": st.lists(st.floats(-5.0, 5.0), min_size=1,
                                                        max_size=4)}),
    )


sign = st.sampled_from([1.0, -1.0])
length = st.floats(0.1, 10.0)
base = st.fixed_dictionaries({
    "spec_version": st.just(1),
    "domain": st.one_of(
        st.fixed_dictionaries({"kind": st.just("interval"), "length": length}),
        st.fixed_dictionaries({"kind": st.just("rectangle"),
                               "lengths": st.lists(length, min_size=2, max_size=2)})),
    "n_modes": st.integers(4, 8),
    "params": st.fixed_dictionaries({"m0": st.floats(0.1, 5.0), "m1": st.floats(0.0, 5.0),
                                     "alpha": st.floats(0.1, 3.0), "beta": st.floats(0.1, 3.0)}),
    "initial": st.fixed_dictionaries({"y0": profile(), "y1": profile(), "theta0": profile()}),
    "stepper": st.fixed_dictionaries({
        "method": st.sampled_from(["implicit_midpoint", "rk4"]),
        "dt": st.floats(1e-4, 0.05), "newton_max_iter": st.integers(1, 50)}),
    "t_end": st.floats(1e-4, 0.05),
    "record_every": st.integers(1, 5),
    "output": st.just({"prefix": "fuzz"}),
})
edits = st.lists(st.one_of(st.tuples(st.sampled_from(FLOAT_FIELDS), st.sampled_from(EXTREMES)),
                           st.tuples(st.sampled_from(INT_FIELDS), st.sampled_from(INT_EXTREMES)),
                           st.tuples(st.just(("n_modes",)), st.sampled_from(N_MODES_EXTREMES))),
                 max_size=2)


@st.composite
def configs(draw):
    tree = draw(base)
    if draw(sign) < 0.0:  # same-sign couplings of either sign
        tree["params"]["alpha"] *= -1.0
        tree["params"]["beta"] *= -1.0
    for path, value in draw(edits):
        node = tree
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
            if node is None:
                break
        if isinstance(node, dict) or (isinstance(node, list) and path[-1] < len(node)):
            node[path[-1]] = value
    return tree


@settings(max_examples=100, deadline=None)
@given(configs())
def test_config_loads_or_raises_config_error(tree):
    try:
        assert isinstance(config_from_dict(tree), ScenarioConfig)
    except ConfigError:
        pass


@settings(max_examples=100, deadline=None)
@given(configs())
def test_simulate_exits_0_2_or_3_without_traceback(tree):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(tree))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["simulate", str(path), "--outdir", tmp])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
