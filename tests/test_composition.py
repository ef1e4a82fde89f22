"""Gluing nets along an interface: composability and the pushout."""

import itertools
import random

import pytest

from opennet import build_net, check_composable, glue_names, pushout
from opennet.composition import composability_failures, mediating_morphism, places_square
from opennet.errors import NotComposable, NotEmbedding, SourceMismatch
from opennet.multiset import Multiset, project
from opennet.nets import Morphism, OpenNet, identity, validate_morphism

from netlib import loop_span, random_composable_span, two_sided_span


def test_two_sided_span_composable():
    f1, f2 = two_sided_span()
    assert check_composable(f1, f2)


def test_identity_span_composable():
    z0 = build_net(["s"], {"t": ("a", {"s": 1}, {})}, open_in=["s"], initial={"s": 1})
    assert check_composable(identity(z0), identity(z0))


def test_composability_fails_when_flag_removed():
    f1, f2 = two_sided_span()
    # the first net produces into sp, so the second must keep sp input open
    z2 = f2.target
    stripped = OpenNet(net=z2.net, open_in=z2.open_in - {"sp"},
                       open_out=z2.open_out, initial=z2.initial)
    f2_stripped = Morphism(source=f2.source, target=stripped,
                           place_map=f2.place_map, trans_map=f2.trans_map)
    assert not check_composable(f1, f2_stripped)


def test_composability_requires_embeddings():
    z = build_net(["x", "y"], {})
    fold = Morphism(source=z, target=build_net(["s"], {}),
                    place_map={"x": "s", "y": "s"}, trans_map={})
    with pytest.raises(NotEmbedding):
        check_composable(fold, fold)


def test_composability_requires_shared_source():
    f1, _ = two_sided_span()
    g = identity(build_net(["q"], {}))
    with pytest.raises(SourceMismatch):
        check_composable(f1, g)


def test_pushout_of_loops():
    f1, f2 = loop_span()
    po = pushout(f1, f2)
    z3 = po.z3
    assert z3.places == frozenset({"s"})
    assert set(z3.transitions) == {"L:t1", "R:t2"}
    assert z3.label("L:t1") == "a" and z3.label("R:t2") == "b"
    assert z3.pre("L:t1") == Multiset({"s": 1}) == z3.post("L:t1")
    assert z3.open_in == frozenset({"s"}) and z3.open_out == frozenset({"s"})
    assert z3.initial == Multiset({"s": 1})
    # both projection equations for the initial marking
    assert project(po.alpha1.place_map, z3.initial) == f1.target.initial
    assert project(po.alpha2.place_map, z3.initial) == f2.target.initial


def test_pushout_of_identities_is_identity():
    z0 = build_net(["s"], {"t": ("a", {"s": 1}, {"s": 1})},
                   open_in=["s"], open_out=["s"], initial={"s": 1})
    po = pushout(identity(z0), identity(z0))
    assert po.z3 == z0
    assert po.alpha1 == identity(z0) and po.alpha2 == identity(z0)


def test_pushout_openness_is_intersection():
    z0 = build_net(["s"], {}, open_in=["s"], open_out=["s"])
    z1 = build_net(["s"], {}, open_in=["s"], open_out=["s"])
    z2 = build_net(["s"], {}, open_in=[], open_out=["s"])  # closed-in here
    f1 = Morphism(source=z0, target=z1, place_map={"s": "s"}, trans_map={})
    f2 = Morphism(source=z0, target=z2, place_map={"s": "s"}, trans_map={})
    po = pushout(f1, f2)
    assert "s" not in po.z3.open_in
    assert "s" in po.z3.open_out


def test_pushout_rejects_noncomposable():
    f1, f2 = two_sided_span()
    z2 = f2.target
    stripped = OpenNet(net=z2.net, open_in=z2.open_in - {"sp"},
                       open_out=z2.open_out, initial=z2.initial)
    f2s = Morphism(source=f2.source, target=stripped,
                   place_map=f2.place_map, trans_map=f2.trans_map)
    with pytest.raises(NotComposable, match="sp"):
        pushout(f1, f2s)


def test_glue_names_origins():
    f1, f2 = two_sided_span()
    po = pushout(f1, f2)
    naming = glue_names(po)
    assert naming["s"] == ("interface", "s")
    assert naming["t0"] == ("interface", "t0")
    assert naming["L:t1p"] == ("left", "t1p")
    assert naming["R:w2"] == ("right", "w2")


def test_glue_names_covers_every_item_of_the_two_sided_span():
    po = pushout(*two_sided_span())
    assert glue_names(po) == {
        "s": ("interface", "s"),
        "sp": ("interface", "sp"),
        "L:w1": ("left", "w1"),
        "R:w2": ("right", "w2"),
        "t0": ("interface", "t0"),
        "L:t1p": ("left", "t1p"),
        "L:t1c": ("left", "t1c"),
        "R:t2p": ("right", "t2p"),
        "R:t2c": ("right", "t2c"),
    }


def test_glue_names_origins_map_onto_their_items():
    rng = random.Random(18)
    for _ in range(80):
        f1, f2 = random_composable_span(rng)
        po = pushout(f1, f2)
        naming = glue_names(po)
        assert set(naming) == set(po.z3.places) | set(po.z3.transitions)
        for item, (origin, x) in naming.items():
            if item in po.z3.places:
                f1m, f2m, a1m, a2m = (f1.place_map, f2.place_map,
                                      po.alpha1.place_map, po.alpha2.place_map)
            else:
                f1m, f2m, a1m, a2m = (f1.trans_map, f2.trans_map,
                                      po.alpha1.trans_map, po.alpha2.trans_map)
            if origin == "interface":
                assert a1m[f1m[x]] == item
            elif origin == "left":
                assert a1m[x] == item and x not in f1m.values()
            else:
                assert origin == "right"
                assert a2m[x] == item and x not in f2m.values()


def test_two_sided_pushout_shape():
    f1, f2 = two_sided_span()
    po = pushout(f1, f2)
    z3 = po.z3
    assert z3.places == frozenset({"s", "sp", "L:w1", "R:w2"})
    assert set(z3.transitions) == {"t0", "L:t1p", "L:t1c", "R:t2p", "R:t2c"}
    assert z3.initial == Multiset({"s": 1, "L:w1": 1, "R:w2": 1})
    # boundary arcs absorbed on both sides: s and sp stay open both ways
    assert z3.open_in == frozenset({"s", "sp"})
    assert z3.open_out == frozenset({"s", "sp"})


def test_pushout_legs_validate_and_commute():
    rng = random.Random(20)
    for _ in range(60):
        f1, f2 = random_composable_span(rng)
        po = pushout(f1, f2)
        assert validate_morphism(po.alpha1).ok, str(validate_morphism(po.alpha1))
        assert validate_morphism(po.alpha2).ok, str(validate_morphism(po.alpha2))
        from opennet import compose

        assert compose(f1, po.alpha1) == compose(f2, po.alpha2)
        assert project(po.alpha1.place_map, po.z3.initial) == f1.target.initial
        assert project(po.alpha2.place_map, po.z3.initial) == f2.target.initial


def test_open_flag_toggle_on_private_place():
    f1, f2 = two_sided_span()
    po = pushout(f1, f2)
    z1 = f1.target
    # w1 is private to the left net and closed; opening it opens its image
    opened = OpenNet(net=z1.net, open_in=z1.open_in | {"w1"},
                     open_out=z1.open_out, initial=z1.initial)
    f1o = Morphism(source=f1.source, target=opened,
                   place_map=f1.place_map, trans_map=f1.trans_map)
    po2 = pushout(f1o, f2)
    assert "L:w1" not in po.z3.open_in
    assert "L:w1" in po2.z3.open_in
    assert po2.z3.open_out == po.z3.open_out


def _enlarge_cospan(rng, po):
    """A commuting cospan strictly above the pushout, built by decoration."""
    z3 = po.z3
    places = set(z3.places)
    transitions = {
        t: (z3.label(t), dict(z3.pre(t).items()), dict(z3.post(t).items()))
        for t in z3.transitions
    }
    initial = dict(z3.initial.items())
    places.add("deco")
    if rng.random() < 0.5:
        initial["deco"] = 1
    open_ok_in = sorted(z3.open_in)
    if open_ok_in and rng.random() < 0.5:
        transitions["deco_t"] = ("c", {"deco": 1}, {open_ok_in[0]: 1})
    open_in = set(z3.open_in)
    open_out = set(z3.open_out)
    if open_ok_in and rng.random() < 0.5 and "deco_t" not in transitions:
        open_in.discard(open_ok_in[0])  # closing below the maximum is allowed
    z3p = build_net(places, transitions, open_in, open_out, initial)
    inclusion = Morphism(
        source=z3, target=z3p,
        place_map={s: s for s in z3.places},
        trans_map={t: t for t in z3.transitions},
    )
    from opennet import compose

    return z3p, compose(po.alpha1, inclusion), compose(po.alpha2, inclusion)


def _all_morphisms(src, tgt):
    src_places, src_trans = sorted(src.places), sorted(src.transitions)
    tgt_places, tgt_trans = sorted(tgt.places), sorted(tgt.transitions)
    for p_imgs in itertools.product(tgt_places, repeat=len(src_places)):
        for t_imgs in itertools.product(tgt_trans, repeat=len(src_trans)) if src_trans else [()]:
            yield Morphism(
                source=src, target=tgt,
                place_map=dict(zip(src_places, p_imgs)),
                trans_map=dict(zip(src_trans, t_imgs)),
            )


def test_universal_property_brute_force():
    rng = random.Random(99)
    checked = 0
    for _ in range(40):
        f1, f2 = random_composable_span(rng)
        po = pushout(f1, f2)
        if len(po.z3.places) > 3 or len(po.z3.transitions) > 2:
            continue
        z3p, b1, b2 = _enlarge_cospan(rng, po)
        assert validate_morphism(b1).ok and validate_morphism(b2).ok
        expected = mediating_morphism(po, b1, b2)
        assert validate_morphism(expected).ok
        from opennet import compose

        found = [
            g
            for g in _all_morphisms(po.z3, z3p)
            if validate_morphism(g).ok
            and compose(po.alpha1, g) == b1
            and compose(po.alpha2, g) == b2
        ]
        assert found == [expected]
        checked += 1
    assert checked >= 10


def _crossed_span(strip1=(), strip2=()):
    """Interface places a and b, open both ways, with renamed images.

    The first side produces into a1 and consumes from b1; the second
    produces into b2 and consumes from a2.  `strip1` and `strip2` list the
    (place, polarity) flags each side drops.
    """
    z0 = build_net(["a", "b"], {}, open_in=["a", "b"], open_out=["a", "b"])

    def side(i, producer, consumer, strip):
        a, b = f"a{i}", f"b{i}"
        opens = {"+": {a, b}, "-": {a, b}}
        for s, polarity in strip:
            opens[polarity].discard(s)
        z = build_net([a, b], {f"p{i}": ("c", {}, {producer: 1}),
                               f"c{i}": ("e", {consumer: 1}, {})},
                      open_in=opens["+"], open_out=opens["-"])
        return Morphism(source=z0, target=z, place_map={"a": a, "b": b}, trans_map={})

    return side(1, "a1", "b1", strip1), side(2, "b2", "a2", strip2)


_FIRST_IN = ("interface place 'a' receives tokens from the first net but its "
             "image 'a2' is not input open in the second net")
_FIRST_OUT = ("interface place 'b' loses tokens to the first net but its "
              "image 'b2' is not output open in the second net")
_SECOND_IN = ("interface place 'b' receives tokens from the second net but its "
              "image 'b1' is not input open in the first net")
_SECOND_OUT = ("interface place 'a' loses tokens to the second net but its "
               "image 'a1' is not output open in the first net")


@pytest.mark.parametrize("strip1, strip2, expected", [
    ((), [("a2", "+")], [_FIRST_IN]),
    ((), [("b2", "-")], [_FIRST_OUT]),
    ([("b1", "+")], (), [_SECOND_IN]),
    ([("a1", "-")], (), [_SECOND_OUT]),
    ([("b1", "+"), ("a1", "-")], [("a2", "+"), ("b2", "-")],
     [_FIRST_IN, _FIRST_OUT, _SECOND_IN, _SECOND_OUT]),
    ((), (), []),
])
def test_composability_failure_texts(strip1, strip2, expected):
    f1, f2 = _crossed_span(strip1, strip2)
    assert composability_failures(f1, f2) == expected
    assert check_composable(f1, f2) == (not expected)


def _reflection_morphism(open_in=(), open_out=(), produce=False, consume=False):
    """Closed source places w and x mapped onto wy and xy, whose flags and
    extra producer or consumer make openness reflection fail."""
    transitions = {}
    for s in ("wy", "xy"):
        if produce:
            transitions[f"p_{s}"] = ("a", {}, {s: 1})
        if consume:
            transitions[f"c_{s}"] = ("a", {s: 1}, {})
    z1 = build_net(["wy", "xy"], transitions, open_in, open_out)
    return Morphism(source=build_net(["w", "x"], {}), target=z1,
                    place_map={"w": "wy", "x": "xy"}, trans_map={})


def _maps_open(s, word):
    return f"place {s!r} maps to an {word}-open place but is not {word} open"


def _gains(s, adjective, word):
    return f"the image of {s!r} gains an {adjective} arc, so {s!r} must be {word} open"


@pytest.mark.parametrize("kwargs, expected", [
    (dict(open_in=["xy"]), [_maps_open("x", "input")]),
    (dict(open_out=["xy"]), [_maps_open("x", "output")]),
    (dict(produce=True, open_in=["wy", "xy"]),
     [_maps_open("w", "input"), _maps_open("x", "input"),
      _gains("w", "ingoing", "input"), _gains("x", "ingoing", "input")]),
    (dict(consume=True, open_out=["wy", "xy"]),
     [_maps_open("w", "output"), _maps_open("x", "output"),
      _gains("w", "outgoing", "output"), _gains("x", "outgoing", "output")]),
    (dict(produce=True), [_gains("w", "ingoing", "input"), _gains("x", "ingoing", "input")]),
    (dict(consume=True), [_gains("w", "outgoing", "output"), _gains("x", "outgoing", "output")]),
    (dict(open_in=["wy", "xy"], open_out=["wy", "xy"], produce=True, consume=True),
     [_maps_open("w", "input"), _maps_open("w", "output"),
      _maps_open("x", "input"), _maps_open("x", "output"),
      _gains("w", "ingoing", "input"), _gains("x", "ingoing", "input"),
      _gains("w", "outgoing", "output"), _gains("x", "outgoing", "output")]),
])
def test_openness_reflection_texts(kwargs, expected):
    issues = validate_morphism(_reflection_morphism(**kwargs)).issues
    assert [(i.code, i.message) for i in issues] == [
        ("OpennessReflectionViolated", m) for m in expected]


@pytest.mark.parametrize("closing_side", [1, 2])
@pytest.mark.parametrize("polarity", ["+", "-"])
def test_pushout_openness_when_one_side_closes(closing_side, polarity):
    z0 = build_net(["s"], {}, open_in=["s"], open_out=["s"])

    def side(i):
        w = f"w{i}"
        opens = {"+": {"s", w}, "-": {"s", w}}
        if i == closing_side:
            opens[polarity].discard("s")
        z = build_net(["s", w], {}, open_in=opens["+"], open_out=opens["-"])
        return Morphism(source=z0, target=z, place_map={"s": "s"}, trans_map={})

    z3 = pushout(side(1), side(2)).z3
    closed = z3.open_in if polarity == "+" else z3.open_out
    kept = z3.open_out if polarity == "+" else z3.open_in
    assert closed == frozenset({"L:w1", "R:w2"})
    assert kept == frozenset({"s", "L:w1", "R:w2"})


@pytest.mark.parametrize("fold_first", [True, False])
def test_one_non_embedding_leg_is_refused(fold_first):
    z0 = build_net(["x", "y"], {})
    fold = Morphism(source=z0, target=build_net(["s"], {}),
                    place_map={"x": "s", "y": "s"}, trans_map={})
    legs = (fold, identity(z0)) if fold_first else (identity(z0), fold)
    with pytest.raises(NotEmbedding):
        check_composable(*legs)
    with pytest.raises(NotEmbedding):
        pushout(*legs)


@pytest.mark.parametrize("broken", ["beta1 source", "beta2 source", "targets"])
def test_mediating_morphism_refuses_a_cospan_failing_one_check(broken):
    f1, f2 = two_sided_span()
    po = pushout(f1, f2)
    b1, b2 = po.alpha1, po.alpha2
    other = identity(po.z3)
    if broken == "beta1 source":
        b1 = other
    elif broken == "beta2 source":
        b2 = other
    else:
        b2 = Morphism(source=b2.source, target=build_net(["q"], {}),
                      place_map=b2.place_map, trans_map=b2.trans_map)
    with pytest.raises(SourceMismatch):
        mediating_morphism(po, b1, b2)
