"""The JSON documents: emit(parse(text)) reproduces every canonical document."""

import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opennet import documents

from netlib import (
    mutate_preserving,
    preserving_rule,
    random_composable_span,
    random_marking,
    random_net,
)

DATA = Path(__file__).parent / "data"

ROUND_TRIP = {
    documents.NET_FORMAT: lambda t: documents.emit_net(*documents.parse_net(t)),
    documents.SPAN_FORMAT: lambda t: documents.emit_span(*documents.parse_span(t)),
    documents.RULE_FORMAT: lambda t: documents.emit_rule(*documents.parse_rule(t)),
    documents.ETA_FORMAT: lambda t: documents.emit_eta(documents.parse_eta(t)),
    documents.RELATION_FORMAT: lambda t: documents.emit_relation(documents.parse_relation(t)),
}


def canonical_documents(seed):
    """One canonical document of each kind, emitted from seeded random objects."""
    rng = random.Random(seed)
    z = random_net(rng)
    _, eta, _, _ = mutate_preserving(rng, z)
    meta = {"cap": 2, "kind": "strong", "mode": "firing", "result": "Bisimilar"}
    places = sorted(z.places)
    pairs = [(random_marking(rng, places), random_marking(rng, places))
             for _ in range(rng.randint(0, 3))]
    return {
        documents.NET_FORMAT: documents.emit_net(f"net{seed}", z),
        documents.SPAN_FORMAT: documents.emit_span(*random_composable_span(rng)),
        documents.RULE_FORMAT: documents.emit_rule(preserving_rule(rng),
                                                   meta if seed % 2 else None),
        documents.ETA_FORMAT: documents.emit_eta(eta),
        documents.RELATION_FORMAT: documents.emit_relation(pairs),
    }


@pytest.mark.parametrize("fmt", sorted(ROUND_TRIP))
def test_emit_parse_round_trip(fmt):
    for seed in range(40):
        text = canonical_documents(seed)[fmt]
        assert ROUND_TRIP[fmt](text) == text


def test_checked_in_documents_are_canonical():
    checked = 0
    for path in sorted(DATA.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        if isinstance(doc, dict) and doc.get("format") in ROUND_TRIP:
            assert ROUND_TRIP[doc["format"]](text) == text, path.name
            checked += 1
    assert checked >= 10


def test_null_fields_mean_no_fields():
    doc = {"format": documents.NET_FORMAT, "places": {"p": None}}
    _, z = documents.parse_net(json.dumps(doc))
    assert z.places == {"p"} and not (z.open_in or z.open_out or z.initial)
    doc["transitions"] = {"t": None}
    with pytest.raises(documents.DocumentError, match="needs a non-empty string label"):
        documents.parse_net(json.dumps(doc))


# -------------------------------------------------- the canonical writer

WRITER = settings(derandomize=True, deadline=None, database=None, max_examples=400)

# strings that need escaping: quotes, backslashes, control and non-ASCII
# characters, a lone surrogate and one outside the basic plane
awkward = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n\t", "é", "\u2028",
                           "\ud800", "\U0001f600", "p0", ""])
str_keys = st.text(max_size=4) | awkward
scalars = (st.none() | st.booleans() | st.integers() | st.sampled_from([-2**70, 10**40])
           | st.floats() | st.sampled_from([float("nan"), float("inf"), -0.0]) | str_keys)


def _containers(inner):
    return (st.lists(inner, max_size=4)
            | st.lists(inner, max_size=4).map(tuple)
            | st.dictionaries(str_keys, inner, max_size=4)
            # json turns these keys into strings; mixed kinds refuse to sort
            | st.dictionaries(st.integers() | st.booleans() | st.none(), inner, max_size=3)
            | st.dictionaries(st.floats(), inner, max_size=3))


json_values = st.recursive(scalars, _containers, max_leaves=30)
refused = st.sampled_from([{1, 2}, b"x", object(), 1j, {(1, 2): 0}, {"k": {frozenset(): 1}}])


def _outcome(write, value):
    try:
        return write(value)
    except TypeError as exc:
        return TypeError, str(exc)


def _reference(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


@WRITER
@given(json_values | st.recursive(refused, _containers, max_leaves=6))
def test_dumps_is_json_with_indent_and_sorted_keys(value):
    assert _outcome(documents.dumps, value) == _outcome(_reference, value)


def test_dumps_refuses_what_json_refuses():
    for value in ({1, 2}, [b"x"], {"a": [object()]}, {(1, 2): 0}, {"a": 1, 2: "b"}):
        with pytest.raises(TypeError) as expected:
            _reference(value)
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            documents.dumps(value)
