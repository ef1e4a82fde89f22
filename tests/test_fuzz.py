"""Arbitrary input against the document readers and the command line.

Only `OpenNetError` may leave a parser, and the command line answers any
file with exit 3 or a verdict's code, never a traceback.  The examples are
derived from the test itself, not drawn at random, so every run (offline
or in CI) tries the same inputs.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from opennet import documents
from opennet.cli import main
from opennet.errors import OpenNetError

DATA = Path(__file__).parent / "data"

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=300)

PARSERS = [documents.parse_net, documents.parse_span, documents.parse_rule,
           documents.parse_eta, documents.parse_relation]

# the schemas' own keys and formats, so that generated objects often get
# past the first checks and into the nested fields
KEYS = ["format", "name", "places", "transitions", "open_in", "open_out", "initial",
        "label", "pre", "post", "interface", "left", "right", "left_map", "right_map",
        "behaviour_check", "plus", "minus", "pairs", "p0", "t0"]
FORMATS = [documents.NET_FORMAT, documents.SPAN_FORMAT, documents.RULE_FORMAT,
           documents.ETA_FORMAT, documents.RELATION_FORMAT]

scalars = (st.none() | st.booleans() | st.integers(-2, 3) | st.floats()
           | st.sampled_from(FORMATS + KEYS) | st.text(max_size=3))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner,
                                     max_size=4)),
    max_leaves=24,
)
# documents shaped after the schemas, where each field is now and then
# replaced by an arbitrary value, so valid and nearly valid documents come up
place_ids = st.sampled_from(["p0", "p1"])
trans_ids = st.sampled_from(["t0", "t1"])


def _fields(required, optional):
    def field(v):  # one field in four is arbitrary
        return st.integers(0, 3).flatmap(lambda k: json_values if k == 0 else v)

    return st.fixed_dictionaries({k: field(v) for k, v in required.items()},
                                 optional={k: field(v) for k, v in optional.items()})


counts = st.integers(0, 2)
markings = st.dictionaries(place_ids, counts, max_size=2)
places = _fields({}, {"open_in": st.booleans(), "open_out": st.booleans(), "initial": counts})
transitions = _fields({"label": st.sampled_from(["a", "tau"])}, {"pre": markings, "post": markings})
nets = _fields({"format": st.just(documents.NET_FORMAT)}, {
    "name": st.text(max_size=3),
    "places": st.dictionaries(place_ids, places | st.none(), max_size=2),
    "transitions": st.dictionaries(trans_ids, transitions | st.none(), max_size=2),
})
maps = _fields({}, {"places": st.dictionaries(place_ids, place_ids, max_size=2),
                    "transitions": st.dictionaries(trans_ids, trans_ids, max_size=2)})
legs = {"interface": nets, "left": nets, "right": nets, "left_map": maps, "right_map": maps}
shaped = (
    nets
    | _fields({"format": st.sampled_from([documents.SPAN_FORMAT, documents.RULE_FORMAT])},
              legs)
    | _fields({"format": st.just(documents.ETA_FORMAT)},
              {"plus": st.dictionaries(place_ids, place_ids, max_size=2),
               "minus": st.dictionaries(place_ids, place_ids, max_size=2)})
    | _fields({"format": st.just(documents.RELATION_FORMAT)},
              {"pairs": st.lists(st.lists(markings, min_size=2, max_size=2), max_size=2)})
)
documents_text = (shaped | json_values).map(json.dumps) | st.text()


def _parse_all(text):
    for parse in PARSERS:
        try:
            parse(text)
        except OpenNetError:
            pass


@FUZZ
@given(shaped | json_values)
def test_parsers_raise_only_opennet_errors_on_json_values(value):
    _parse_all(json.dumps(value))


@FUZZ
@given(st.text())
@example("[" * 200_000)  # nesting deeper than the JSON reader's recursion
def test_parsers_raise_only_opennet_errors_on_text(text):
    _parse_all(text)


def _argvs(doc):
    chain3, copy, eta = (str(DATA / name) for name in
                         ("chain3.json", "chain3_copy.json", "chain3.eta.json"))
    return [
        ["validate", doc],
        ["lts", doc, "--cap", "1"],
        ["bisim", doc, doc, "--cap", "1"],
        ["bisim", chain3, copy, "--eta", doc, "--cap", "1"],
        ["upto", chain3, chain3, "--relation", doc, "--eta", eta, "--cap", "1"],
        ["compose", doc],
        ["match", doc, doc],
        ["check-rule", doc, "--cap", "1"],
    ]


@FUZZ
@given(documents_text | st.binary(max_size=8),
       st.integers(0, len(_argvs("")) - 1))
def test_cli_exits_3_or_with_a_verdict(content, which):
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "doc.json"
        if isinstance(content, bytes):
            doc.write_bytes(content)
        else:
            doc.write_text(content, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(_argvs(str(doc))[which])
    assert code in (0, 1, 2, 3)
    assert code != 3 or err.getvalue().startswith("error: ")
