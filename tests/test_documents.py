"""The JSON documents: emit(parse(text)) reproduces every canonical document."""

import collections
import enum
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


def _net_doc(places=None, transitions=None):
    """A well-formed net `n`, with its places or transitions replaced."""
    return {
        "format": documents.NET_FORMAT,
        "name": "n",
        "places": places if places is not None else {
            "p": {"open_in": True, "initial": 1}, "q": {"open_out": True}},
        "transitions": transitions if transitions is not None else {
            "t": {"label": "a", "pre": {"p": 1}, "post": {"q": 1}}},
    }


def _transition(**fields):
    return {"t": {"label": "a", "pre": {"p": 1}, "post": {"q": 1}, **fields}}


MALFORMED_NETS = [
    (_net_doc(places={"": {}}), "place id must be a non-empty string, got ''"),
    (_net_doc(places={"L:p": {}}), "place id 'L:p' uses the reserved prefix 'L:'"),
    (_net_doc(places={"R:p": {}}), "place id 'R:p' uses the reserved prefix 'R:'"),
    (_net_doc(transitions={"": {"label": "a"}}),
     "transition id must be a non-empty string, got ''"),
    (_net_doc(transitions={"L:t": {"label": "a"}}),
     "transition id 'L:t' uses the reserved prefix 'L:'"),
    (_net_doc(transitions={"R:t": {"label": "a"}}),
     "transition id 'R:t' uses the reserved prefix 'R:'"),
    (_net_doc(places={"p": {"open_in": True, "size": 1, "colour": "red"}}),
     "place 'p' has unknown fields ['colour', 'size']"),
    (_net_doc(transitions=_transition(guard=True)),
     "transition 't' has unknown fields ['guard']"),
    (_net_doc(places={"p": {"open_in": 1}}), "open_in of place 'p' must be true or false"),
    (_net_doc(places={"p": {"open_out": "yes"}}), "open_out of place 'p' must be true or false"),
    (_net_doc(places={"p": {"initial": -1}}),
     "initial count of place 'p' must be a non-negative integer"),
    (_net_doc(places={"p": {"initial": True}}),
     "initial count of place 'p' must be a non-negative integer"),
    (_net_doc(transitions=_transition(pre={"p": True})),
     "pre-set of 't' count for 'p' must be a non-negative integer"),
    (_net_doc(transitions=_transition(pre={"p": 1, "q": -1})),
     "pre-set of 't' count for 'q' must be a non-negative integer"),
    (_net_doc(transitions=_transition(post={"q": 1.0})),
     "post-set of 't' count for 'q' must be a non-negative integer"),
    (_net_doc(transitions=_transition(pre=["p"])),
     "pre-set of 't' must be an object mapping places to counts"),
    (_net_doc(transitions=_transition(label="")), "transition 't' needs a non-empty string label"),
    (_net_doc(transitions=_transition(pre={"x": 1})),
     "net 'n' is not well-formed:\n"
     "UnknownPlace: pre-set of 't' references undeclared place 'x'"),
    (_net_doc(transitions={"p": {"label": "a", "pre": {"p": 1}, "post": {"y": 2, "x": 1}}}),
     "net 'n' is not well-formed:\n"
     "IdClash: 'p' is declared both as a place and as a transition\n"
     "UnknownPlace: post-set of 'p' references undeclared place 'x'\n"
     "UnknownPlace: post-set of 'p' references undeclared place 'y'"),
    # the first fault in document order is the one reported
    (_net_doc(places={"p": {"open_in": 1, "colour": "red"}, "L:q": {}}),
     "place 'p' has unknown fields ['colour']"),
    (_net_doc(places={"q": {"initial": -1}}, transitions={"L:t": {}}),
     "initial count of place 'q' must be a non-negative integer"),
    (_net_doc(transitions=_transition(label="", pre={"p": -1})),
     "transition 't' needs a non-empty string label"),
    (_net_doc(transitions=_transition(pre={"p": -1}, post={"q": -1})),
     "pre-set of 't' count for 'p' must be a non-negative integer"),
]


@pytest.mark.parametrize("doc, message", MALFORMED_NETS)
def test_malformed_net_documents_name_their_fault(doc, message):
    with pytest.raises(documents.DocumentError) as refused:
        documents.parse_net(json.dumps(doc))
    assert str(refused.value) == message


# -------------------------------------------------- the canonical writer

WRITER = settings(derandomize=True, deadline=None, database=None, max_examples=400)

# strings that need escaping: quotes, backslashes, control and non-ASCII
# characters, a lone surrogate and one outside the basic plane
awkward = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n\t", "é", "\u2028",
                           "\ud800", "\U0001f600", "p0", ""])
str_keys = st.text(max_size=4) | awkward


# subclasses of the types json writes: json takes each as its base type
class Flag(enum.IntEnum):
    OFF = 0
    ON = 7


class Name(str):
    pass


Pair = collections.namedtuple("Pair", "first second")

scalars = (st.none() | st.booleans() | st.integers() | st.sampled_from([-2**70, 10**40])
           | st.floats() | st.sampled_from([float("nan"), float("inf"), -0.0]) | str_keys
           | st.sampled_from(list(Flag)) | str_keys.map(Name))


def _containers(inner):
    return (st.lists(inner, max_size=4)
            | st.lists(inner, max_size=4).map(tuple)
            | st.tuples(inner, inner).map(lambda t: Pair(*t))
            | st.dictionaries(str_keys, inner, max_size=4)
            | st.dictionaries(str_keys | str_keys.map(Name), inner, max_size=4).map(
                collections.OrderedDict)
            # json turns these keys into strings; mixed kinds refuse to sort
            | st.dictionaries(st.integers() | st.booleans() | st.none()
                              | st.sampled_from(list(Flag)), inner, max_size=3)
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
