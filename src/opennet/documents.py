"""Text formats for nets, spans, rules, correspondences and relations.

Everything is JSON with a fixed schema and one canonical serialization
(sorted keys, two-space indent, trailing newline), so emit is deterministic
and emit(parse(text)) is byte-identical for canonical input.  `dumps`
writes it directly: its output is byte-identical to `json.dumps(obj,
indent=2, sort_keys=True)` plus a newline, which it does not call because
an indent makes `json` fall back to its pure-Python encoder.

The parsers own the checks on the JSON itself and make each one once per
value: ids (non-empty strings; identifiers starting with "L:" or "R:" are
reserved for the gluing construction and rejected), the known fields of
places and transitions, the open flags, counts and labels.  Each marking,
pre-set and post-set is checked and built in one loop and handed to
`multiset._wrap`, so it is not checked again as a `Multiset`.  The rules
on the objects built stay with their owners in `nets`: `validate_net`
(id clashes, arcs on undeclared places) and `validate_morphism`.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from . import multiset, nets
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
    directly: `indent` makes `json` use its pure-Python encoder, which took
    204 ms on the reports of a `reconfigure` pass where this takes 84 ms
    (`json`'s C encoder, which writes no indent, 41 ms).  Strings go
    through the C escaper `json` itself uses; floats and values `json`
    refuses are handed to `json.dumps`.  Each value is visited once, with
    no call per scalar (see `_encode`).
    """
    return _encode(obj, "\n") + "\n"


def _encode(value, newline: str) -> str:
    """`value` as JSON, its nested lines indented past `newline`.

    A container writes its str, int and bool members inline, so the writer
    makes one call per container, not one per value: 51,612 calls where one
    per value made 150,188 on the 32 reports of a `reconfigure` pass
    (3.69 MB of text, 84 ms against 101 ms, Python 3.11 on a 2-vCPU VM).
    Exact types are tested first; a subclass (an `IntEnum`, a `str` or
    `dict` subclass, a named tuple) falls through to the `isinstance` tests,
    which take it as its base type, as `json` does.  Keys are sorted alone,
    not as (key, value) pairs.  Each container joins its own pieces and
    keeps a nested container's text as a piece of its own, so no text is
    copied into a larger piece before the final join: the largest report
    (203 kB) peaks at 0.4 MB under tracemalloc.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        comma = "," + inner
        parts = []
        append = parts.append
        sep = "{" + inner
        for key in sorted(value):
            item = value[key]
            cls = item.__class__
            if key.__class__ is not str:
                key = key if isinstance(key, str) else _key(key)
            if cls is str:
                append(f"{sep}{_quote(key)}: {_quote(item)}")
            elif cls is int:
                append(f"{sep}{_quote(key)}: {int.__repr__(item)}")
            elif cls is bool:
                append(f"{sep}{_quote(key)}: {'true' if item else 'false'}")
            else:
                append(f"{sep}{_quote(key)}: ")
                append(_encode(item, inner))
            sep = comma
        append(newline + "}")
        return "".join(parts)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        comma = "," + inner
        parts = []
        append = parts.append
        sep = "[" + inner
        for item in value:
            cls = item.__class__
            if cls is str:
                append(sep + _quote(item))
            elif cls is int:
                append(sep + int.__repr__(item))
            elif cls is bool:
                append(sep + ("true" if item else "false"))
            else:
                append(sep)
                append(_encode(item, inner))
            sep = comma
        append(newline + "]")
        return "".join(parts)
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
    return json.dumps(value)  # floats, and the TypeError for anything JSON cannot hold


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


_PLACE_FIELDS = frozenset(("open_in", "open_out", "initial"))
_TRANSITION_FIELDS = frozenset(("label", "pre", "post"))


def _refuse_id(name, what):
    """Raise for an id that failed the one-line test the parser makes on each id:
    a non-empty string that starts with no reserved prefix."""
    if not isinstance(name, str) or not name:
        raise DocumentError(f"{what} id must be a non-empty string, got {name!r}")
    prefix = next(p for p in RESERVED_PREFIXES if name.startswith(p))
    raise DocumentError(f"{what} id {name!r} uses the reserved prefix {prefix!r}")


def _is_count(value) -> bool:
    """A non-negative integer; JSON's true and false are not counts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _marking_from(obj, what: str, owner) -> Multiset:
    """The multiset of a JSON object of counts, checked and built in one loop.

    `what` names the object in an error, with `owner` formatted into it, so
    the name costs nothing while the counts are good."""
    if not isinstance(obj, dict):
        raise DocumentError(f"{what.format(owner)} must be an object mapping places to counts")
    data = {}
    for place, count in obj.items():
        if count.__class__ is not int or count < 0:  # plain counts take one test
            if not _is_count(count):
                raise DocumentError(f"{what.format(owner)} count for {place!r} "
                                    "must be a non-negative integer")
            count = int(count)
        if count:
            data[place] = count
    return multiset._wrap(data)


def marking_to_json(marking: Multiset) -> dict:
    """The entries of a marking; `dumps` sorts them."""
    return dict(marking._entries)


def net_from_json(doc: dict) -> tuple[str, OpenNet]:
    """A net from its JSON object.  Values are checked in document order,
    so the first fault is the one reported; then `nets.validate_net`."""
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

    open_in = []
    open_out = []
    initial = {}
    for pid, attrs in places_doc.items():
        if not isinstance(pid, str) or not pid or pid.startswith(RESERVED_PREFIXES):
            _refuse_id(pid, "place")
        if attrs is None:
            continue
        if not isinstance(attrs, dict):
            raise DocumentError(f"place {pid!r} must map to an object of fields")
        if not _PLACE_FIELDS.issuperset(attrs):
            unknown = sorted(set(attrs) - _PLACE_FIELDS)
            raise DocumentError(f"place {pid!r} has unknown fields {unknown}")
        flag = attrs.get("open_in", False)
        if flag is True:
            open_in.append(pid)
        elif flag is not False:
            raise DocumentError(f"open_in of place {pid!r} must be true or false")
        flag = attrs.get("open_out", False)
        if flag is True:
            open_out.append(pid)
        elif flag is not False:
            raise DocumentError(f"open_out of place {pid!r} must be true or false")
        count = attrs.get("initial", 0)
        if count.__class__ is not int or count < 0:
            if not _is_count(count):
                raise DocumentError(
                    f"initial count of place {pid!r} must be a non-negative integer")
            count = int(count)
        if count:
            initial[pid] = count

    transitions = {}
    for tid, attrs in trans_doc.items():
        if not isinstance(tid, str) or not tid or tid.startswith(RESERVED_PREFIXES):
            _refuse_id(tid, "transition")
        attrs = {} if attrs is None else attrs
        if not isinstance(attrs, dict):
            raise DocumentError(f"transition {tid!r} must map to an object of fields")
        if not _TRANSITION_FIELDS.issuperset(attrs):
            unknown = sorted(set(attrs) - _TRANSITION_FIELDS)
            raise DocumentError(f"transition {tid!r} has unknown fields {unknown}")
        label = attrs.get("label")
        if not isinstance(label, str) or not label:
            raise DocumentError(f"transition {tid!r} needs a non-empty string label")
        transitions[tid] = Transition(
            label=label,
            pre=_marking_from(attrs.get("pre", {}), "pre-set of {!r}", tid),
            post=_marking_from(attrs.get("post", {}), "post-set of {!r}", tid),
        )

    z = OpenNet(
        net=PetriNet(places=frozenset(places_doc), transitions=transitions),
        open_in=frozenset(open_in),
        open_out=frozenset(open_out),
        initial=multiset._wrap(initial),
    )
    report = nets.validate_net(z)
    if not report.ok:
        raise DocumentError(f"net {name!r} is not well-formed: {report}")
    return name, z


def net_to_json(name: str, z: OpenNet) -> dict:
    """A net's JSON object; `dumps` sorts its places and transitions."""
    places = {}
    for pid in z.places:
        places[pid] = {
            "open_in": pid in z.open_in,
            "open_out": pid in z.open_out,
            "initial": z.initial.count(pid),
        }
    transitions = {}
    for tid, tr in z.transitions.items():
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
        raise DocumentError(f"{what} is not a legal morphism: {report}")
    if not nets.is_embedding(f):
        raise DocumentError(f"{what} must be injective")
    return f


def morphism_to_json(f: Morphism) -> dict:
    return {"places": dict(f.place_map), "transitions": dict(f.trans_map)}


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


def _legs_to_json(fmt: str, f1: Morphism, f2: Morphism, names) -> dict:
    """A span or rule document of two embeddings out of one interface, as
    `_legs_from` reads it: the interface net, then each leg's net and map."""
    doc = {"format": fmt, "interface": net_to_json(names[0], f1.source)}
    for key, f, name in (("left", f1, names[1]), ("right", f2, names[2])):
        doc[key] = net_to_json(name, f.target)
        doc[key + "_map"] = morphism_to_json(f)
    return doc


def emit_span(f1: Morphism, f2: Morphism, names=("interface", "left", "right")) -> str:
    return dumps(_legs_to_json(SPAN_FORMAT, f1, f2, names))


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
    doc = _legs_to_json(RULE_FORMAT, rule.left, rule.right, names)
    if meta:
        doc["behaviour_check"] = meta
    return dumps(doc)


def parse_eta(text: str) -> Correspondence:
    doc = _expect_format(_loads(text), ETA_FORMAT)
    message = "'plus' and 'minus' must be objects mapping places to places"
    return Correspondence(eta_in=_id_map(doc.get("plus", {}), message),
                          eta_out=_id_map(doc.get("minus", {}), message))


def eta_to_json(eta: Correspondence) -> dict:
    return {"plus": dict(eta.eta_in), "minus": dict(eta.eta_out)}


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
        out.append((_marking_from(pair[0], "pair {} left", i),
                    _marking_from(pair[1], "pair {} right", i)))
    return out


def emit_relation(pairs) -> str:
    return dumps({
        "format": RELATION_FORMAT,
        "pairs": [
            [marking_to_json(u1), marking_to_json(u2)]
            for u1, u2 in pairs
        ],
    })
