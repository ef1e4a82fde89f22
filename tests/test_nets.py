"""Open nets, morphisms, embeddings, and their validation."""

import random
from pathlib import Path

import pytest

from opennet import build_net, compose, documents, identity, is_embedding
from opennet.errors import DomainMismatch, PlaceNotOpen, UnknownPlace
from opennet.multiset import Multiset
from opennet.nets import (
    Correspondence,
    Issue,
    Morphism,
    close_place,
    gained_places,
    validate_correspondence,
    validate_morphism,
    validate_net,
)
from opennet.rewriting import find_matches

from netlib import (
    agency_a,
    random_composable_span,
    random_host,
    random_net,
    scan_arcs,
    scan_in_out_places,
    service_rule,
)

DATA = Path(__file__).parent / "data"


def test_validate_net_unknown_place_in_pre():
    z = build_net(["s"], {"t": ("a", {"ghost": 1}, {})})
    assert "UnknownPlace" in validate_net(z).codes()


def test_validate_net_agency_clean():
    assert validate_net(agency_a()).ok


def test_validate_net_open_place_not_declared():
    z = build_net(["s"], {}, open_in=["ghost"])
    assert "OpenPlaceNotDeclared" in validate_net(z).codes()


def test_validate_net_id_clash():
    z = build_net(["x"], {"x": ("a", {}, {})})
    assert "IdClash" in validate_net(z).codes()


def _fig1_nets(source_out_open=True):
    """An inclusion that attaches a fresh transition to two interface places.

    The new transition consumes from one place and produces into the other,
    so the source must have them output- and input-open respectively.
    """
    z0 = build_net(
        ["s", "sp"],
        {"ta": ("a", {"s": 1}, {"sp": 1})},
        open_in=["sp"],
        open_out=["s"] if source_out_open else [],
        initial={"s": 1},
    )
    z1 = build_net(
        ["s", "sp", "spp"],
        {
            "ta": ("a", {"s": 1}, {"sp": 1}),
            "tc": ("c", {"s": 1}, {"sp": 1}),
        },
        initial={"s": 1, "spp": 1},
    )
    f = Morphism(source=z0, target=z1,
                 place_map={"s": "s", "sp": "sp"}, trans_map={"ta": "ta"})
    return f


def test_validate_morphism_identity():
    assert validate_morphism(identity(agency_a())).ok


# one domain fault per row: place map, transition map, issue
_DOMAIN_FAULTS = [
    ({}, {"t": "t"}, Issue("NotTotal", "place 'a' has no image")),
    ({"a": "a"}, {}, Issue("NotTotal", "transition 't' has no image")),
    ({"a": "a", "ghost": "a"}, {"t": "t"},
     Issue("UnknownItem", "place map defined on undeclared place 'ghost'")),
    ({"a": "a"}, {"t": "t", "ghost": "t"},
     Issue("UnknownItem", "transition map defined on undeclared transition 'ghost'")),
    ({"a": "zz"}, {"t": "t"}, Issue("ImageOutsideTarget", "place 'a' maps to undeclared 'zz'")),
    ({"a": "a"}, {"t": "zz"},
     Issue("ImageOutsideTarget", "transition 't' maps to undeclared 'zz'")),
]


def _domain_nets():
    z0 = build_net(["a", "b"], {"t": ("x", {"a": 1}, {}), "u": ("x", {}, {})})
    z1 = build_net(["a", "b"], {"t": ("x", {"a": 1}, {}), "u": ("x", {}, {})})
    return z0, z1


@pytest.mark.parametrize("place_map, trans_map, issue", _DOMAIN_FAULTS,
                         ids=[f"{row[2].code}-{i}" for i, row in enumerate(_DOMAIN_FAULTS)])
def test_validate_morphism_domain_fault_texts(place_map, trans_map, issue):
    z0, z1 = _domain_nets()
    complete_p = {"b": "b", **place_map}
    complete_t = {"u": "u", **trans_map}
    f = Morphism(source=z0, target=z1, place_map=complete_p, trans_map=complete_t)
    assert validate_morphism(f).issues == [issue]


def test_validate_morphism_reports_domain_faults_in_order():
    # all NotTotal places, then all NotTotal transitions, then the place map
    # in sorted order, then the transition map in sorted order
    z0 = build_net(["a", "b", "c"], {"t": ("x", {}, {}), "u": ("x", {}, {}), "v": ("x", {}, {})})
    z1 = build_net(["a"], {"t": ("x", {}, {})})
    f = Morphism(source=z0, target=z1,
                 place_map={"c": "zz", "ghost": "yy", "b": "a"},
                 trans_map={"v": "zz", "gt": "t", "ghost": "yy"})
    assert [str(issue) for issue in validate_morphism(f).issues] == [
        "NotTotal: place 'a' has no image",
        "NotTotal: transition 't' has no image",
        "NotTotal: transition 'u' has no image",
        "ImageOutsideTarget: place 'c' maps to undeclared 'zz'",
        "UnknownItem: place map defined on undeclared place 'ghost'",
        "ImageOutsideTarget: place 'ghost' maps to undeclared 'yy'",
        "UnknownItem: transition map defined on undeclared transition 'ghost'",
        "ImageOutsideTarget: transition 'ghost' maps to undeclared 'yy'",
        "UnknownItem: transition map defined on undeclared transition 'gt'",
        "ImageOutsideTarget: transition 'v' maps to undeclared 'zz'",
    ]


def test_validate_morphism_new_transition_on_open_places():
    f = _fig1_nets()
    assert gained_places(f, "+") == frozenset({"sp"})
    assert gained_places(f, "-") == frozenset({"s"})
    assert validate_morphism(f).ok


def test_validate_morphism_rejects_missing_openness():
    f = _fig1_nets(source_out_open=False)
    report = validate_morphism(f)
    assert "OpennessReflectionViolated" in report.codes()


def test_validate_morphism_marking_reflection():
    z0 = build_net(["s"], {}, initial={"s": 1})
    z1 = build_net(["s"], {}, initial={"s": 2})
    f = Morphism(source=z0, target=z1, place_map={"s": "s"}, trans_map={})
    assert "MarkingReflectionViolated" in validate_morphism(f).codes()
    # unmatched target places may carry any number of tokens
    z2 = build_net(["s", "w"], {}, initial={"s": 1, "w": 5})
    g = Morphism(source=z0, target=z2, place_map={"s": "s"}, trans_map={})
    assert validate_morphism(g).ok


def test_marking_reflected_per_place():
    f = _fig1_nets()
    for s in f.source.places:
        assert f.source.initial.count(s) == f.target.initial.count(f.place_map[s])


def test_is_embedding_identity():
    assert is_embedding(identity(agency_a()))


def test_is_embedding_rejects_folding():
    # two equal-labelled transitions collapsing onto one
    z1 = build_net(
        ["sp", "spp"],
        {"tp": ("a", {"sp": 1}, {}), "tpp": ("a", {"spp": 1}, {})},
        initial={"sp": 1, "spp": 1},
    )
    z2 = build_net(["s"], {"t": ("a", {"s": 1}, {})}, initial={"s": 1})
    fold = Morphism(
        source=z1, target=z2,
        place_map={"sp": "s", "spp": "s"},
        trans_map={"tp": "t", "tpp": "t"},
    )
    assert validate_morphism(fold).ok
    assert not is_embedding(fold)


def test_is_embedding_needs_both_components_injective():
    z1 = build_net(["x", "y"], {"t1": ("a", {}, {}), "t2": ("a", {}, {})})
    z2 = build_net(["x", "y"], {"t": ("a", {}, {})})
    f = Morphism(source=z1, target=z2,
                 place_map={"x": "x", "y": "y"}, trans_map={"t1": "t", "t2": "t"})
    assert not is_embedding(f)


def test_compose_with_identity():
    f = _fig1_nets()
    assert compose(identity(f.source), f) == f
    assert compose(f, identity(f.target)) == f


def test_compose_domain_mismatch():
    f = _fig1_nets()
    with pytest.raises(DomainMismatch):
        compose(f, f)


def test_compose_chain_reflects_marking():
    z0 = build_net(["s"], {}, open_in=["s"], open_out=["s"], initial={"s": 1})
    z1 = build_net(["s", "w"], {}, open_in=["s"], open_out=["s"],
                   initial={"s": 1, "w": 1})
    z2 = build_net(["s", "w", "v"], {}, open_in=["s"], open_out=["s"],
                   initial={"s": 1, "w": 1, "v": 2})
    f = Morphism(source=z0, target=z1, place_map={"s": "s"}, trans_map={})
    g = Morphism(source=z1, target=z2,
                 place_map={"s": "s", "w": "w"}, trans_map={})
    fg = compose(f, g)
    assert validate_morphism(fg).ok
    for s in z0.places:
        assert z0.initial.count(s) == z2.initial.count(fg.place_map[s])
    assert is_embedding(fg)


def test_random_embedding_chains_validate():
    rng = random.Random(7)
    checked = 0
    for _ in range(40):
        f1, f2 = random_composable_span(rng)
        assert validate_morphism(f1).ok, str(validate_morphism(f1))
        assert validate_morphism(f2).ok, str(validate_morphism(f2))
        assert is_embedding(f1) and is_embedding(f2)
        checked += 1
    assert checked == 40


def test_close_place():
    z = build_net(["s"], {}, open_in=["s"], open_out=["s"], initial={"s": 1})
    closed = close_place(z, "s", "+")
    assert "s" not in closed.open_in and "s" in closed.open_out
    assert closed.initial == Multiset({"s": 1})
    with pytest.raises(PlaceNotOpen):
        close_place(closed, "s", "+")
    with pytest.raises(UnknownPlace):
        close_place(z, "ghost", "+")


def test_correspondence_validation():
    z1 = build_net(["a", "b"], {}, open_in=["a"], open_out=["a", "b"])
    z2 = build_net(["x", "y"], {}, open_in=["x"], open_out=["x", "y"])
    good = Correspondence(eta_in={"a": "x"}, eta_out={"a": "y", "b": "x"})
    assert validate_correspondence(good, z1, z2).ok
    bad = Correspondence(eta_in={"a": "x"}, eta_out={"a": "x", "b": "x"})
    assert not validate_correspondence(bad, z1, z2).ok


def _service_host():
    return documents.parse_net((DATA / "service_host.json").read_text(encoding="utf-8"))[1]


def test_place_producers_and_consumers_equal_a_scan():
    rng = random.Random(23)
    nets = [_service_host()]
    for _ in range(40):
        f1, f2 = random_composable_span(rng)
        nets += [random_net(rng, max_places=5, max_trans=5), f1.source, f1.target, f2.target]
    arcs = 0
    for z in nets:
        for s in sorted(z.places) + ["undeclared"]:
            assert (z.place_producers(s), z.place_consumers(s)) == scan_arcs(z, s)
            arcs += len(z.place_producers(s)) + len(z.place_consumers(s))
    assert arcs >= 300


def test_in_and_out_places_equal_a_scan():
    rng = random.Random(29)
    embeddings = find_matches(service_rule().lhs, _service_host())
    for _ in range(60):
        z = random_net(rng)
        host = random_host(rng, z)
        embeddings += [*random_composable_span(rng),
                       Morphism(source=z, target=host, place_map={s: s for s in z.places},
                                trans_map={t: t for t in z.transitions})]
    gained = 0
    for f in embeddings:
        assert (gained_places(f, "+"), gained_places(f, "-")) == scan_in_out_places(f)
        gained += len(gained_places(f, "+")) + len(gained_places(f, "-"))
    assert gained >= 60
