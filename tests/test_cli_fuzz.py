"""Property test of the input contract: every problem document, however
malformed, ends in success or a documented exit code, never a traceback."""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fpopt.cli import main  # noqa: E402

DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6}

# Any JSON value, kept small: these stand in for a field of the wrong type.
junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["diag", "C", "D", "c", "x"]), inner, max_size=2),
    max_leaves=6)

number = st.one_of(st.sampled_from([1.5, 2.0, 3.0, 1.0, 0.5, 0.0, -1.0, 1e-300, 1e-320, 1e300]),
                   st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3), junk)

matrix = st.one_of(
    st.sampled_from([
        {"diag": [1.0, 2.0]}, {"diag": [20.0, 1.0]}, {"diag": "ab"}, {"diag": [1e-300, 1.0]},
        {"diag": [1e-320, 1.0]},
        [[1.0, 0.0], [0.0, 2.0]], [[1.0, 0.5], [0.5, 2.0]], [[1.0, 2.0], [3.0, 4.0]],
        [[1, 0], [0]], [[0.0, -7.0], [0.3, 2.0]], {"diag": [0.0, 2.0]}, {"diag": [-1.0, 2.0]},
        [1.0, 2.0], [1.0, 2.0, 3.0], [[1.0]], [],
    ]),
    st.lists(st.lists(number, min_size=1, max_size=3), min_size=1, max_size=3),
    junk)

construct = st.fixed_dictionaries(
    {"c": number}, optional={"variant": st.sampled_from(["standard", "transpose", "sideways"])
                             | junk})

pair = st.one_of(st.fixed_dictionaries({"C": matrix, "D": matrix}),
                 st.fixed_dictionaries({"construct": construct | junk}),
                 junk)

segment = st.fixed_dictionaries({}, optional={"pair": pair, "construct": construct | junk,
                                              "C": matrix, "D": matrix, "duration": number})

analysis = st.fixed_dictionaries(
    {}, optional={"rate": number, "t_max": number, "tMax": number, "samples": number}) | junk

document = st.fixed_dictionaries(
    {"K": matrix},
    optional={"c": number,
              "variant": st.sampled_from(["standard", "transpose", "sideways"]) | junk,
              "pair": pair, "C": matrix, "D": matrix,
              "schedule": st.lists(segment, max_size=3) | junk,
              "analysis": analysis}) | junk


@pytest.mark.parametrize("command", [["optimize"], ["validate"], ["curve", "--samples", "64"]])
@settings(max_examples=75, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=document)
def test_every_document_maps_to_documented_exit(tmp_path, command, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command[0], str(path), *command[1:]])
    assert code in DOCUMENTED_EXITS
