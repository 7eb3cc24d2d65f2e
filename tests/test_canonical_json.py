"""`scenario.dumps` writes exactly the text of
``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, for every value
json writes, and raises TypeError where json does."""

import collections
import enum
import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from jensengap.scenario import dumps, dumps_each


def reference(v) -> str:
    return json.dumps(v, indent=2, sort_keys=True) + "\n"


# any code point, surrogates included, with the ones json escapes drawn often
chars = st.characters(exclude_categories=()) | st.sampled_from("\x00\x1f\x7f\"\\/\ud800é€\U0001f600")
text = st.text(chars, max_size=8)
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**70, -(2**70), 0])
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])
    | text
)
values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(text, children, max_size=4),
    max_leaves=40,
)


@given(values)
@example({})
@example([])
@example({"": [[], {}, ()], "b": {"a": {}}})
@example([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2**70, -(2**70)])
@example({"é\x00": "\ud800\x1f€", "\U0001f600": [True, False, None]})
def test_matches_json(v):
    assert dumps(v) == reference(v)


@given(st.lists(values, min_size=1, max_size=5))
@example([{}])
@example([[], {"a": [1.5]}, "x"])
def test_each_item_at_a_time_matches_the_whole_list(items):
    assert "".join(dumps_each(iter(items))) == dumps(items) == reference(items)


class Colour(enum.IntEnum):
    RED = 1


class Name(str, enum.Enum):
    A = "é"


class Loud(float):
    def __repr__(self):
        return "LOUD"


@pytest.mark.parametrize(
    "v",
    [
        Colour.RED,
        Name.A,
        Loud(2.5),
        Loud(math.inf),
        collections.OrderedDict(b=1, a=[2]),
        [Name.A, {Name.A: Colour.RED}],
    ],
    ids=["int-enum", "str-enum", "float-subclass", "float-subclass-inf", "ordered-dict", "nested"],
)
def test_subclasses_are_written_as_json_writes_their_base(v):
    assert dumps(v) == reference(v)


@pytest.mark.parametrize(
    "v",
    [{1, 2}, b"x", object(), [1, {"a": {3}}], {"a": (bytearray(b"x"),)}, 1j],
    ids=["set", "bytes", "object", "nested-set", "nested-bytearray", "complex"],
)
def test_what_json_rejects_raises_type_error(v):
    with pytest.raises(TypeError):
        reference(v)
    with pytest.raises(TypeError):
        dumps(v)


def test_keys_must_be_str():
    # json would write 1 as "1"; no document has a key that is not a str
    with pytest.raises(TypeError):
        dumps({1: 2})
