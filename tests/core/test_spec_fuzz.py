"""The command-line spec grammars, fuzzed.

``--faults`` (:meth:`FaultPlan.from_spec`), ``--chaos``
(:meth:`ChaosSpec.from_spec`) and ``serve --workload``
(:meth:`WorkloadSpec.from_spec`) parse text a user typed.  Whatever the
text, each answers with a value or a one-line :class:`ReproError` --
never with an exception of Python's own, which the CLI would print as a
traceback.  Inputs are arbitrary text and text shaped like the grammar:
known and unknown keys, values that are numbers, not-quite numbers,
non-finite floats, flags and names.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.chaos import ChaosSpec
from repro.errors import ReproError
from repro.mapreduce.faults import FaultPlan
from repro.serve.workload import WorkloadSpec

VALUES = st.one_of(
    st.text(max_size=6),
    st.integers(-3, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(
        ["", " ", "nan", "-inf", "1e400", "-0", "0x10", "1_0", "0.5.5", "on", "off", "On",
         "yes", "chem-overlap", "bsbm-star", "rapid-analytics", "hive-mqo", "factorized",
         "cost", "rule", "=", ",", "é"]
    ),
)  # fmt: skip


@st.composite
def pairs(draw, fields):
    """A ``key=value`` list: each of *fields*' keys present or not, with
    one of its good values or any value, in any order, sometimes with a
    stray piece (an unknown key, a piece without ``=``)."""
    pieces = [
        f"{key}={draw(st.sampled_from(good) if draw(st.integers(0, 5)) else VALUES)}"
        for key, good in fields.items()
        if draw(st.integers(0, 5))
    ]
    if not draw(st.integers(0, 3)):
        pieces.append(draw(st.builds(lambda k, v: f" {k} = {v} ", st.text(max_size=5), VALUES)))
    return ",".join(draw(st.permutations(pieces)))


CHAOS = {
    "seeds": ["1", "3"], "rate": ["0.05", "0"], "attempts": ["1", "4"], "budget": ["0", "8"],
    "straggler": ["0.1"], "write": ["0.02"],
}
WORKLOAD = {
    "seeds": ["1", "2"], "clients": ["3"], "mix": ["chem-overlap", "bsbm-star"],
    "requests": ["16"], "window": ["0.5"], "rate": ["2"], "engine": ["rapid-analytics"],
    "batch": ["on", "off"], "cache": ["off"], "deadline": ["30"], "max_pending": ["8"],
    "representation": ["factorized"], "planner": ["cost"],
}
FAULTS = st.lists(
    st.one_of(st.sampled_from(["7", "0.05", "0", "1", "4"]), VALUES), min_size=1, max_size=6
).map(",".join)

PARSERS = {
    "faults": (FaultPlan, st.one_of(st.text(), FAULTS)),
    "chaos": (ChaosSpec, st.one_of(st.text(), pairs(CHAOS))),
    "workload": (WorkloadSpec, st.one_of(st.text(), pairs(WORKLOAD))),
}


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_a_spec_is_a_value_or_a_typed_error(name):
    parsed, texts = PARSERS[name]

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(texts)
    def check(text):
        try:
            value = parsed.from_spec(text)
        except ReproError as error:
            assert "\n" not in str(error)  # one line, the text as a repr
            return
        assert isinstance(value, parsed)

    check()

