"""The JSON documents: emit(parse(text)) reproduces every canonical document."""

import json
import random
from pathlib import Path

import pytest

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
