"""Text formats for nets, spans, rules, correspondences and relations.

Everything is JSON with a fixed schema and one canonical serialization
(sorted keys, two-space indent, trailing newline), so emit is deterministic
and emit(parse(text)) is byte-identical for canonical input.  `dumps`
writes it directly: its output is byte-identical to `json.dumps(obj,
indent=2, sort_keys=True)` plus a newline, which it does not call because
an indent makes `json` fall back to its pure-Python encoder.
Identifiers starting with "L:" or "R:" are reserved for the gluing
construction and rejected on input.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

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
    except (RecursionError, ValueError) as exc:  # nesting too deep, a number too long
        raise DocumentError(f"unreadable JSON: {exc}")
    if not isinstance(doc, dict):
        raise DocumentError(f"a document must be a JSON object, got {type(doc).__name__}")
    return doc


def dumps(obj) -> str:
    """The canonical serialization of every document and report.

    Byte-identical to `json.dumps(obj, indent=2, sort_keys=True) + "\\n"`,
    with the same TypeError for a value JSON cannot hold, but written
    directly: `indent` makes `json` use its pure-Python encoder, which takes
    about twice as long on the reports of a rewriting session.  Strings go
    through the C escaper `json` itself uses; floats and values `json`
    refuses are handed to `json.dumps`.
    """
    return _encode(obj, "\n") + "\n"


def _encode(value, newline: str) -> str:
    """`value` as JSON, its nested lines indented past `newline`.

    Each container joins its own pieces, so the pieces of a whole document
    are never alive at once: on a 208 kB report one list of every piece
    peaked at 1.6 MB, against 0.4 MB this way (tracemalloc, Python 3.11).
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    comma = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts, sep = [], "[" + inner
        for item in value:
            parts.append(sep)
            parts.append(_encode(item, inner))
            sep = comma
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            return "{}"
        parts, sep = [], "{" + inner
        for key, item in sorted(value.items()):
            parts.append(sep)
            parts.append(_quote(key if isinstance(key, str) else _key(key)))
            parts.append(": ")
            parts.append(_encode(item, inner))
            sep = comma
        parts.append(newline + "}")
    else:  # floats, and the TypeError for anything JSON cannot hold
        return json.dumps(value)
    return "".join(parts)


def _key(key) -> str:
    """A non-string object key as `json` writes it."""
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _expect_format(doc: dict, fmt: str) -> dict:
    if doc.get("format") != fmt:
        raise DocumentError(f"expected format {fmt!r}, got {doc.get('format')!r}")
    return doc


def _id_map(obj, message: str) -> dict:
    """An object mapping ids to ids; JSON object keys are always strings."""
    if not isinstance(obj, dict) or not all(isinstance(v, str) for v in obj.values()):
        raise DocumentError(message)
    return dict(obj)


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
    _expect_format(doc, NET_FORMAT)
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise DocumentError(f"a net's name must be a string, got {name!r}")
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
        places.add(pid)
        attrs = {} if attrs is None else attrs
        if not isinstance(attrs, dict):
            raise DocumentError(f"place {pid!r} must map to an object of fields")
        unknown = set(attrs) - {"open_in", "open_out", "initial"}
        if unknown:
            raise DocumentError(f"place {pid!r} has unknown fields {sorted(unknown)}")
        for flag, opened in (("open_in", open_in), ("open_out", open_out)):
            value = attrs.get(flag, False)
            if not isinstance(value, bool):
                raise DocumentError(f"{flag} of place {pid!r} must be true or false")
            if value:
                opened.add(pid)
        count = attrs.get("initial", 0)
        if not _is_count(count):
            raise DocumentError(f"initial count of place {pid!r} must be a non-negative integer")
        if count:
            initial[pid] = count

    transitions = {}
    for tid, attrs in trans_doc.items():
        _check_id(tid, "transition")
        attrs = {} if attrs is None else attrs
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
    return dumps(net_to_json(name, z))


def _morphism_from(doc: dict, source: OpenNet, target: OpenNet, what: str) -> Morphism:
    if not isinstance(doc, dict):
        raise DocumentError(f"{what} must be an object with 'places' and 'transitions'")
    message = f"{what} must map ids to ids under 'places' and 'transitions'"
    f = Morphism(source=source, target=target,
                 place_map=_id_map(doc.get("places", {}), message),
                 trans_map=_id_map(doc.get("transitions", {}), message))
    report = nets.validate_morphism(f)
    if not report.ok:
        raise DocumentError(f"{what} is not a legal morphism:\n{report}")
    if not nets.is_embedding(f):
        raise DocumentError(f"{what} must be injective")
    return f


def morphism_to_json(f: Morphism) -> dict:
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
    return _legs_from(_expect_format(_loads(text), SPAN_FORMAT))


def emit_span(f1: Morphism, f2: Morphism, names=("interface", "left", "right")) -> str:
    return dumps({
        "format": SPAN_FORMAT,
        "interface": net_to_json(names[0], f1.source),
        "left": net_to_json(names[1], f1.target),
        "right": net_to_json(names[2], f2.target),
        "left_map": morphism_to_json(f1),
        "right_map": morphism_to_json(f2),
    })


def parse_rule(text: str) -> tuple[Rule, dict]:
    """A rule document; returns the rule and any stored check metadata."""
    doc = _expect_format(_loads(text), RULE_FORMAT)
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
        "left_map": morphism_to_json(rule.left),
        "right_map": morphism_to_json(rule.right),
    }
    if meta:
        doc["behaviour_check"] = meta
    return dumps(doc)


def parse_eta(text: str) -> Correspondence:
    doc = _expect_format(_loads(text), ETA_FORMAT)
    message = "'plus' and 'minus' must be objects mapping places to places"
    return Correspondence(eta_in=_id_map(doc.get("plus", {}), message),
                          eta_out=_id_map(doc.get("minus", {}), message))


def eta_to_json(eta: Correspondence) -> dict:
    return {
        "plus": dict(sorted(eta.eta_in.items())),
        "minus": dict(sorted(eta.eta_out.items())),
    }


def emit_eta(eta: Correspondence) -> str:
    return dumps({"format": ETA_FORMAT, **eta_to_json(eta)})


def parse_relation(text: str) -> list:
    doc = _expect_format(_loads(text), RELATION_FORMAT)
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
    return dumps({
        "format": RELATION_FORMAT,
        "pairs": [
            [marking_to_json(u1), marking_to_json(u2)]
            for u1, u2 in pairs
        ],
    })
