"""Text formats for nets, spans, rules, correspondences and relations.

Everything is JSON with a fixed schema and one canonical serialization
(sorted keys, two-space indent, trailing newline), so emit is deterministic
and emit(parse(text)) is byte-identical for canonical input.  Identifiers
starting with "L:" or "R:" are reserved for the gluing construction and
rejected on input.
"""

from __future__ import annotations

import json

from . import nets
from .composition import RESERVED_PREFIXES
from .errors import DocumentError
from .multiset import Multiset
from .nets import Correspondence, Morphism, OpenNet, PetriNet, Transition
from .rewriting import Rule

NET_FORMAT = "opennet/1"
SPAN_FORMAT = "opennet-span/1"
RULE_FORMAT = "opennet-rule/1"
ETA_FORMAT = "opennet-eta/1"
RELATION_FORMAT = "opennet-relation/1"


def _loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise DocumentError(f"a document must be a JSON object, got {type(doc).__name__}")
    return doc


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _check_id(name, what):
    if not isinstance(name, str) or not name:
        raise DocumentError(f"{what} id must be a non-empty string, got {name!r}")
    for prefix in RESERVED_PREFIXES:
        if name.startswith(prefix):
            raise DocumentError(f"{what} id {name!r} uses the reserved prefix {prefix!r}")
    return name


def _is_count(value) -> bool:
    """A non-negative integer; JSON's true and false are not counts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _marking_from(obj, what="marking") -> Multiset:
    if not isinstance(obj, dict):
        raise DocumentError(f"{what} must be an object mapping places to counts")
    for place, count in obj.items():
        if not _is_count(count):
            raise DocumentError(f"{what} count for {place!r} must be a non-negative integer")
    return Multiset({p: c for p, c in obj.items() if c})


def marking_to_json(marking: Multiset) -> dict:
    return {place: count for place, count in marking.items()}


def net_from_json(doc: dict) -> tuple[str, OpenNet]:
    if not isinstance(doc, dict):
        raise DocumentError(f"a net must be a JSON object, got {type(doc).__name__}")
    if doc.get("format") != NET_FORMAT:
        raise DocumentError(f"expected format {NET_FORMAT!r}, got {doc.get('format')!r}")
    name = doc.get("name", "")
    places_doc = doc.get("places", {})
    trans_doc = doc.get("transitions", {})
    if not isinstance(places_doc, dict) or not isinstance(trans_doc, dict):
        raise DocumentError("places and transitions must be objects keyed by id")

    places = set()
    open_in = set()
    open_out = set()
    initial = {}
    for pid, attrs in places_doc.items():
        _check_id(pid, "place")
        if pid in places:
            raise DocumentError(f"duplicate place id {pid!r}")
        places.add(pid)
        attrs = attrs or {}
        if not isinstance(attrs, dict):
            raise DocumentError(f"place {pid!r} must map to an object of fields")
        unknown = set(attrs) - {"open_in", "open_out", "initial"}
        if unknown:
            raise DocumentError(f"place {pid!r} has unknown fields {sorted(unknown)}")
        if attrs.get("open_in", False):
            open_in.add(pid)
        if attrs.get("open_out", False):
            open_out.add(pid)
        count = attrs.get("initial", 0)
        if not _is_count(count):
            raise DocumentError(f"initial count of place {pid!r} must be a non-negative integer")
        if count:
            initial[pid] = count

    transitions = {}
    for tid, attrs in trans_doc.items():
        _check_id(tid, "transition")
        if tid in places:
            raise DocumentError(f"id {tid!r} is declared both as a place and a transition")
        if tid in transitions:
            raise DocumentError(f"duplicate transition id {tid!r}")
        attrs = attrs or {}
        if not isinstance(attrs, dict):
            raise DocumentError(f"transition {tid!r} must map to an object of fields")
        unknown = set(attrs) - {"label", "pre", "post"}
        if unknown:
            raise DocumentError(f"transition {tid!r} has unknown fields {sorted(unknown)}")
        label = attrs.get("label")
        if not isinstance(label, str) or not label:
            raise DocumentError(f"transition {tid!r} needs a non-empty string label")
        transitions[tid] = Transition(
            label=label,
            pre=_marking_from(attrs.get("pre", {}), f"pre-set of {tid!r}"),
            post=_marking_from(attrs.get("post", {}), f"post-set of {tid!r}"),
        )

    z = OpenNet(
        net=PetriNet(places=frozenset(places), transitions=transitions),
        open_in=frozenset(open_in),
        open_out=frozenset(open_out),
        initial=Multiset(initial),
    )
    report = nets.validate_net(z)
    if not report.ok:
        raise DocumentError(f"net {name!r} is not well-formed:\n{report}")
    return name, z


def net_to_json(name: str, z: OpenNet) -> dict:
    places = {}
    for pid in sorted(z.places):
        places[pid] = {
            "open_in": pid in z.open_in,
            "open_out": pid in z.open_out,
            "initial": z.initial.count(pid),
        }
    transitions = {}
    for tid in sorted(z.transitions):
        tr = z.transitions[tid]
        transitions[tid] = {
            "label": tr.label,
            "pre": marking_to_json(tr.pre),
            "post": marking_to_json(tr.post),
        }
    return {
        "format": NET_FORMAT,
        "name": name,
        "places": places,
        "transitions": transitions,
    }


def parse_net(text: str) -> tuple[str, OpenNet]:
    return net_from_json(_loads(text))


def emit_net(name: str, z: OpenNet) -> str:
    return _dumps(net_to_json(name, z))


def _morphism_from(doc: dict, source: OpenNet, target: OpenNet, what: str) -> Morphism:
    if not isinstance(doc, dict):
        raise DocumentError(f"{what} must be an object with 'places' and 'transitions'")
    place_map = doc.get("places", {})
    trans_map = doc.get("transitions", {})
    if not isinstance(place_map, dict) or not isinstance(trans_map, dict):
        raise DocumentError(f"{what} must map ids to ids under 'places' and 'transitions'")
    f = Morphism(source=source, target=target, place_map=dict(place_map),
                 trans_map=dict(trans_map))
    report = nets.validate_morphism(f)
    if not report.ok:
        raise DocumentError(f"{what} is not a legal morphism:\n{report}")
    if not nets.is_embedding(f):
        raise DocumentError(f"{what} must be injective")
    return f


def _morphism_to(f: Morphism) -> dict:
    return {
        "places": dict(sorted(f.place_map.items())),
        "transitions": dict(sorted(f.trans_map.items())),
    }


def _legs_from(doc: dict) -> tuple[Morphism, Morphism]:
    """The two embeddings of a span or rule document out of its interface."""
    for key in ("interface", "left", "right"):
        if key not in doc:
            raise DocumentError(f"missing the {key!r} net")
    _, z0 = net_from_json(doc["interface"])
    _, z1 = net_from_json(doc["left"])
    _, z2 = net_from_json(doc["right"])
    f1 = _morphism_from(doc.get("left_map", {}), z0, z1, "left map")
    f2 = _morphism_from(doc.get("right_map", {}), z0, z2, "right map")
    return f1, f2


def parse_span(text: str):
    """A span document: interface, left and right nets plus both leg maps."""
    doc = _loads(text)
    if doc.get("format") != SPAN_FORMAT:
        raise DocumentError(f"expected format {SPAN_FORMAT!r}, got {doc.get('format')!r}")
    return _legs_from(doc)


def emit_span(f1: Morphism, f2: Morphism, names=("interface", "left", "right")) -> str:
    return _dumps({
        "format": SPAN_FORMAT,
        "interface": net_to_json(names[0], f1.source),
        "left": net_to_json(names[1], f1.target),
        "right": net_to_json(names[2], f2.target),
        "left_map": _morphism_to(f1),
        "right_map": _morphism_to(f2),
    })


def parse_rule(text: str) -> tuple[Rule, dict]:
    """A rule document; returns the rule and any stored check metadata."""
    doc = _loads(text)
    if doc.get("format") != RULE_FORMAT:
        raise DocumentError(f"expected format {RULE_FORMAT!r}, got {doc.get('format')!r}")
    left, right = _legs_from(doc)
    meta = doc.get("behaviour_check", {})
    if not isinstance(meta, dict):
        raise DocumentError("'behaviour_check' must be an object")
    return Rule(left=left, right=right), meta


def emit_rule(rule: Rule, meta: dict | None = None,
              names=("interface", "left", "right")) -> str:
    doc = {
        "format": RULE_FORMAT,
        "interface": net_to_json(names[0], rule.interface),
        "left": net_to_json(names[1], rule.lhs),
        "right": net_to_json(names[2], rule.rhs),
        "left_map": _morphism_to(rule.left),
        "right_map": _morphism_to(rule.right),
    }
    if meta:
        doc["behaviour_check"] = meta
    return _dumps(doc)


def parse_eta(text: str) -> Correspondence:
    doc = _loads(text)
    if doc.get("format") != ETA_FORMAT:
        raise DocumentError(f"expected format {ETA_FORMAT!r}, got {doc.get('format')!r}")
    plus = doc.get("plus", {})
    minus = doc.get("minus", {})
    if not isinstance(plus, dict) or not isinstance(minus, dict):
        raise DocumentError("'plus' and 'minus' must be objects mapping places to places")
    return Correspondence(eta_in=dict(plus), eta_out=dict(minus))


def emit_eta(eta: Correspondence) -> str:
    return _dumps({
        "format": ETA_FORMAT,
        "plus": dict(sorted(eta.eta_in.items())),
        "minus": dict(sorted(eta.eta_out.items())),
    })


def parse_relation(text: str) -> list:
    doc = _loads(text)
    if doc.get("format") != RELATION_FORMAT:
        raise DocumentError(f"expected format {RELATION_FORMAT!r}, got {doc.get('format')!r}")
    pairs = doc.get("pairs", [])
    if not isinstance(pairs, list):
        raise DocumentError("'pairs' must be a list of two-element marking lists")
    out = []
    for i, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(f"pair {i} must be a two-element list")
        out.append((_marking_from(pair[0], f"pair {i} left"),
                    _marking_from(pair[1], f"pair {i} right")))
    return out


def emit_relation(pairs) -> str:
    return _dumps({
        "format": RELATION_FORMAT,
        "pairs": [
            [marking_to_json(u1), marking_to_json(u2)]
            for u1, u2 in pairs
        ],
    })
