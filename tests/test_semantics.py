"""Steps, their projections along embeddings, and the transition systems.

The transition systems of a seeded corpus of random nets are pinned in
data/lts_corpus.json, recorded once and kept fixed; running this file as a
script writes that file again.
"""

import json
import random
from pathlib import Path

import pytest

from opennet import build_net, pushout
from opennet.errors import (
    IllegalEvent,
    InitialExceedsCap,
    InvalidBound,
    NotCompatible,
    NotEnabled,
    UnsupportedMode,
)
from opennet.multiset import EMPTY, Multiset
from opennet import semantics
from opennet.nets import Morphism
from opennet.semantics import (
    DEFAULT_CAP,
    FIRING,
    OVERFLOW,
    STEP,
    Lts,
    Obs,
    Step,
    StepSplit,
    build_lts,
    compose_steps,
    decompose_step,
    enabled_steps,
    events_post,
    events_pre,
    fire,
    format_label,
    format_marking,
    is_valid_step,
    make_step,
    minus,
    plus,
    project_event,
    project_events,
    project_step,
    to_dot,
    label_sort_key,
    relabel,
    trans,
    weak_closure,
)

from netlib import (
    absorber,
    agency_a,
    all_markings,
    chain,
    loop_span,
    naive_weak_closure,
    oracle_lts,
    oracle_steps,
    random_composable_span,
    random_marking,
    random_net,
    silent_then_act,
    two_sided_span,
    weighted,
)


def test_enabled_firings_on_open_place():
    z = absorber()
    steps = enabled_steps(z, EMPTY, FIRING)
    assert [st.events for st in steps] == [Multiset.of(plus("s"))]
    assert steps[0].target == Multiset({"s": 1})


def test_agency_has_parallel_step():
    z = agency_a()
    steps = enabled_steps(z, z.initial, STEP, cap=2, max_step=6)
    both = Multiset.of(trans("tF"), trans("tH"))
    assert any(st.events == both for st in steps)


def test_closed_dead_net_has_no_steps():
    z = build_net(["s"], {"t": ("a", {"s": 1}, {})})
    assert enabled_steps(z, EMPTY, FIRING) == []
    assert enabled_steps(z, EMPTY, STEP) == []


def test_fire_environment_deletion():
    z = build_net(["s"], {}, open_out=["s"], initial={"s": 1})
    assert fire(z, Multiset({"s": 1}), Multiset.of(minus("s"))) == EMPTY


def test_fire_empty_step_is_noop():
    z = build_net(["s"], {}, initial={"s": 1})
    u = Multiset({"s": 1})
    assert fire(z, u, EMPTY) == u


def test_fire_not_enabled():
    z = build_net(["s"], {"t": ("a", {"s": 1}, {})})
    with pytest.raises(NotEnabled):
        fire(z, EMPTY, Multiset.of(trans("t")))


def test_fire_illegal_event_on_closed_place():
    z = build_net(["s"], {})
    with pytest.raises(IllegalEvent):
        fire(z, EMPTY, Multiset.of(plus("s")))


def _inclusion_with_outside_transition():
    """An embedding whose target has a transition touching only interface
    and private places: its projection is pure interaction."""
    z = build_net(
        ["s", "r"], {},
        open_in=["r"], open_out=["s"],
        initial={"s": 1},
    )
    zp = build_net(
        ["s", "r", "x"],
        {"tc": ("c", {"s": 1, "x": 1}, {"r": 1})},
        initial={"s": 1, "x": 1},
    )
    return Morphism(source=z, target=zp, place_map={"s": "s", "r": "r"}, trans_map={})


def test_project_event_in_image():
    f1, _ = two_sided_span()
    assert project_event(f1, trans("t0")) == Multiset.of(trans("t0"))


def test_project_event_outside_image():
    f = _inclusion_with_outside_transition()
    assert project_event(f, trans("tc")) == Multiset.of(minus("s"), plus("r"))


def test_project_interaction_outside_image_is_empty():
    f1, _ = two_sided_span()
    # w1 is private to the target, so its interactions vanish
    opened = f1.target
    assert project_event(
        Morphism(source=f1.source, target=opened,
                 place_map=f1.place_map, trans_map=f1.trans_map),
        plus("sp"),
    ) == Multiset.of(plus("sp"))
    f = _inclusion_with_outside_transition()
    zp = f.target
    zp_open = build_net(
        sorted(zp.places),
        {t: (zp.label(t), dict(zp.pre(t).items()), dict(zp.post(t).items()))
         for t in zp.transitions},
        open_in=["x"], open_out=[],
        initial=dict(zp.initial.items()),
    )
    # x is input open in the target but has no preimage
    f2 = Morphism(source=build_net([], {}), target=zp_open, place_map={}, trans_map={})
    assert project_event(f2, plus("x")) == EMPTY


def test_project_preserves_pre_post():
    f = _inclusion_with_outside_transition()
    zp, z = f.target, f.source
    from opennet.multiset import project as mproject

    for event in [trans("tc")]:
        projected = project_events(f, Multiset.of(event))
        assert events_pre(z, projected) == mproject(f.place_map, zp.pre("tc"))
        assert events_post(z, projected) == mproject(f.place_map, zp.post("tc"))


def test_project_step_of_outside_transition():
    # the outside transition consumes the shared s and produces into the
    # shared r, so the source sees one deletion and one creation
    f = _inclusion_with_outside_transition()
    zp = f.target
    st = make_step(zp, zp.initial, Multiset.of(trans("tc")))
    projected = project_step(f, st)
    assert projected.events == Multiset.of(minus("s"), plus("r"))
    assert projected.source == Multiset({"s": 1})
    assert projected.target == Multiset({"r": 1})
    assert is_valid_step(f.source, projected)


def test_projection_reflects_behaviour_randomly():
    rng = random.Random(3)
    for _ in range(30):
        f1, f2 = random_composable_span(rng)
        for f in (f1, f2):
            zp = f.target
            for u in list(all_markings(zp.places, 1))[:16]:
                for st in enabled_steps(zp, u, STEP, cap=2, max_step=2)[:8]:
                    assert is_valid_step(f.source, project_step(f, st))


def test_empty_step_projects_to_empty():
    f1, _ = two_sided_span()
    zp = f1.target
    st = Step(events=EMPTY, source=zp.initial, target=zp.initial)
    projected = project_step(f1, st)
    assert projected.events == EMPTY
    assert projected.source == projected.target


def test_compose_steps_interface_transition_plus_interaction():
    f1, f2 = two_sided_span()
    po = pushout(f1, f2)
    z1, z2 = f1.target, f2.target
    u1 = z1.initial  # s + w1
    u2 = z2.initial  # s + w2
    a1 = Multiset.of(trans("t0"), trans("t1p"))
    a2 = Multiset.of(trans("t0"), plus("sp"))
    st1 = make_step(z1, u1, a1)
    st2 = make_step(z2, u2, a2)
    split = StepSplit(a1_internal=a1, a1_external=EMPTY,
                      a2_internal=EMPTY, a2_external=a2)
    st3 = compose_steps(po, st1, st2, split)
    assert st3.events == Multiset.of(trans("t0"), trans("L:t1p"))
    assert st3.source == Multiset({"s": 1, "L:w1": 1, "R:w2": 1})
    assert st3.target == Multiset({"sp": 2, "R:w2": 1})
    # projecting recovers both component steps
    assert project_step(po.alpha1, st3) == st1
    assert project_step(po.alpha2, st3) == st2


def test_compose_steps_shared_deletion():
    f1, f2 = loop_span()
    po = pushout(f1, f2)
    u = Multiset({"s": 1})
    st1 = make_step(f1.target, u, Multiset.of(minus("s")))
    st2 = make_step(f2.target, u, Multiset.of(minus("s")))
    split = StepSplit(
        a1_internal=Multiset.of(minus("s")), a1_external=EMPTY,
        a2_internal=EMPTY, a2_external=Multiset.of(minus("s")),
    )
    st3 = compose_steps(po, st1, st2, split)
    assert st3.events == Multiset.of(minus("s"))
    assert st3.source == Multiset({"s": 1}) and st3.target == EMPTY


def test_compose_steps_both_empty():
    f1, f2 = loop_span()
    po = pushout(f1, f2)
    st1 = Step(events=EMPTY, source=Multiset({"s": 1}), target=Multiset({"s": 1}))
    st2 = Step(events=EMPTY, source=Multiset({"s": 1}), target=Multiset({"s": 1}))
    split = StepSplit(EMPTY, EMPTY, EMPTY, EMPTY)
    st3 = compose_steps(po, st1, st2, split)
    assert st3.events == EMPTY and st3.source == Multiset({"s": 1})


def _half_closed_span():
    """A span over one place open both ways in the interface and the first
    net, closed in the second net, so it is closed in the glued net."""
    z0 = build_net(["s"], {}, open_in=["s"], open_out=["s"], initial={"s": 1})
    z2 = build_net(["s"], {}, initial={"s": 1})
    f1 = Morphism(source=z0, target=z0, place_map={"s": "s"}, trans_map={})
    f2 = Morphism(source=z0, target=z2, place_map={"s": "s"}, trans_map={})
    return f1, f2


def _idle(z):
    return Step(events=EMPTY, source=z.initial, target=z.initial)


def _incompatible_two_sided():
    """(name, po, st1, st2, split) rows on the two-sided span."""
    f1, f2 = two_sided_span()
    po = pushout(f1, f2)
    z1, z2 = f1.target, f2.target
    t0 = Multiset.of(trans("t0"))
    st1, st2 = make_step(z1, z1.initial, t0), make_step(z2, z2.initial, t0)
    minus_s = Multiset.of(minus("s"))
    plus_sp = Multiset.of(plus("sp"))
    return [
        ("first partition", po, st1, st2, StepSplit(EMPTY, EMPTY, EMPTY, t0)),
        ("second partition", po, st1, st2, StepSplit(t0, EMPTY, EMPTY, EMPTY)),
        # the first side removes a token from s; the second must mirror it
        ("second mirror", po, make_step(z1, z1.initial, minus_s), _idle(z2),
         StepSplit(minus_s, EMPTY, EMPTY, EMPTY)),
        # the second side adds a token to sp; the first must mirror it
        ("first mirror", po, _idle(z1), make_step(z2, z2.initial, plus_sp),
         StepSplit(EMPTY, EMPTY, plus_sp, EMPTY)),
        # each side holds an event that only the other side's net has
        ("first unknown transition", po, _holding(z1, trans("t2c")), _idle(z2),
         StepSplit(Multiset.of(trans("t2c")), EMPTY, EMPTY, EMPTY)),
        ("second unknown transition", po, _idle(z1), _holding(z2, trans("t1p")),
         StepSplit(EMPTY, EMPTY, Multiset.of(trans("t1p")), EMPTY)),
        ("first unknown place", po, _holding(z1, plus("w2")), _idle(z2),
         StepSplit(Multiset.of(plus("w2")), EMPTY, EMPTY, EMPTY)),
        ("second unknown place", po, _idle(z1), _holding(z2, minus("w1")),
         StepSplit(EMPTY, EMPTY, Multiset.of(minus("w1")), EMPTY)),
    ]


def _holding(z, event):
    """A step of z's initial marking holding one event z does not have."""
    return Step(events=Multiset.of(event), source=z.initial, target=z.initial)


def test_compose_steps_incompatible_texts():
    rows = {name: row for name, *row in _incompatible_two_sided()}
    expected = {
        "first partition": "split does not partition the first step's events",
        "second partition": "split does not partition the second step's events",
        "second mirror": "external part of the second step is 0, expected the mirror -s",
        "first mirror": "external part of the first step is 0, expected the mirror +sp",
        "first unknown transition": "the first step holds t2c, which its net does not have",
        "second unknown transition": "the second step holds t1p, which its net does not have",
        "first unknown place": "the first step holds +w2, which its net does not have",
        "second unknown place": "the second step holds -w1, which its net does not have",
    }
    for name, text in expected.items():
        with pytest.raises(NotCompatible) as info:
            compose_steps(*rows[name])
        assert str(info.value) == text, name


def test_compose_steps_without_a_mirror_or_an_embedding():
    f1, f2 = _half_closed_span()
    po = pushout(f1, f2)
    z1, z2 = f1.target, f2.target
    minus_s = Multiset.of(minus("s"))
    # the first side's interaction at s has no image in the second net
    st1 = make_step(z1, z1.initial, minus_s)
    with pytest.raises(NotCompatible) as info:
        compose_steps(po, st1, _idle(z2), StepSplit(minus_s, EMPTY, EMPTY, EMPTY))
    assert str(info.value) == "internal part has no mirror image: image place 's' is not output open"
    # the second side's interaction at s mirrors into the first net, but s
    # is closed in the glued net
    st2 = Step(events=minus_s, source=z2.initial, target=EMPTY)
    with pytest.raises(NotCompatible) as info:
        compose_steps(po, st1, st2, StepSplit(EMPTY, minus_s, minus_s, EMPTY))
    assert str(info.value) == "internal events cannot be embedded: image place 's' is not output open"


def test_decompose_private_transition():
    f1, f2 = two_sided_span()
    po = pushout(f1, f2)
    z3 = po.z3
    u3 = Multiset({"L:w1": 1})
    st3 = make_step(z3, u3, Multiset.of(trans("L:t1p")))
    st1, st2, split = decompose_step(po, st3)
    assert split.a1_internal == Multiset.of(trans("t1p"))
    assert all(e.kind != "trans" for e, _ in split.a2_internal.items())
    assert compose_steps(po, st1, st2, split) == st3


def test_decompose_interface_transition_goes_right():
    f1, f2 = two_sided_span()
    po = pushout(f1, f2)
    st3 = make_step(po.z3, Multiset({"s": 1}), Multiset.of(trans("t0")))
    st1, st2, split = decompose_step(po, st3)
    assert split.a2_internal == Multiset.of(trans("t0"))
    assert split.a1_internal == EMPTY
    assert split.a1_external == Multiset.of(trans("t0"))
    assert compose_steps(po, st1, st2, split) == st3


def test_decompose_compose_roundtrip_exhaustive():
    f1, f2 = loop_span()
    po = pushout(f1, f2)
    z3 = po.z3
    for u in all_markings(z3.places, 2):
        for st in enabled_steps(z3, u, STEP, cap=2, max_step=4):
            st1, st2, split = decompose_step(po, st)
            assert is_valid_step(f1.target, st1)
            assert is_valid_step(f2.target, st2)
            assert compose_steps(po, st1, st2, split) == st


def test_downup_mirrored_step():
    # a step of one side whose projection the other side mirrors verbatim
    f1, f2 = two_sided_span()
    po = pushout(f1, f2)
    z1, z2 = f1.target, f2.target
    a1 = Multiset.of(trans("t0"))
    st1 = make_step(z1, z1.initial, a1)
    a2 = Multiset.of(trans("t0"))  # image of the projection of a1
    st2 = make_step(z2, z2.initial, a2)
    split = StepSplit(a1_internal=a1, a1_external=EMPTY,
                      a2_internal=EMPTY, a2_external=a2)
    st3 = compose_steps(po, st1, st2, split)
    assert st3.events == Multiset.of(trans("t0"))


def test_build_lts_closed_chain():
    z = build_net(["s", "sp"], {"t": ("a", {"s": 1}, {"sp": 1})}, initial={"s": 1})
    lts = build_lts(z, FIRING, cap=2)
    assert len(lts.states) == 2
    assert lts.labelled_edges() == [(0, Obs("lab", "a"), 1)]


def test_build_lts_open_place_overflows():
    z = build_net(["s"], {}, open_in=["s"])
    lts = build_lts(z, FIRING, cap=2)
    assert ["OVF" if s is OVERFLOW else str(lts.marking(i)) for i, s in enumerate(lts.states)] \
        == ["0", "s", "s:2", "OVF"]
    assert (2, Obs("plus", "s"), 3) in lts.labelled_edges()
    assert lts.has_overflow()
    # no edges out of the overflow state
    assert all(src != 3 for src, _, _ in lts.edges)


def test_build_lts_makes_no_multiset_per_state(monkeypatch):
    z, made = chain(5), []
    init = Multiset.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Multiset, "__init__", counting)
    lts = build_lts(z, FIRING, cap=4)
    assert len(lts.states) == 3126
    assert len(made) < len(lts.states) // 100


def test_build_lts_agency_step_mode_parallel_label():
    z = agency_a()
    lts = build_lts(z, STEP, cap=2, max_step=6)
    parallel = Multiset.of(Obs("lab", "bookFlight"), Obs("lab", "bookHotel"))
    assert any(label == parallel for _, label, _ in lts.labelled_edges())


def test_build_lts_gives_equal_labels_one_index():
    # two transitions with one label share an index, and the per-state
    # edge set keeps one of their two equal edges
    transitions = {"t": ("a", {"s": 1}, {"sp": 1}), "u": ("b", {"sp": 1}, {"s": 1})}
    single = build_lts(build_net(["s", "sp"], transitions, initial={"s": 1}), FIRING, cap=2)
    transitions["t_dup"] = ("a", {"s": 1}, {"sp": 1})
    doubled = build_lts(build_net(["s", "sp"], transitions, initial={"s": 1}), FIRING, cap=2)
    assert doubled.labels == single.labels == [Obs("lab", "a"), Obs("lab", "b")]
    assert doubled.edges == single.edges == [(0, 0, 1), (1, 1, 0)]


def test_label_tables_hold_each_label_once():
    for seed in CORPUS_SEEDS:
        z = random_net(random.Random(seed))
        for mode, max_step in CORPUS_BUILDS.values():
            lts = build_lts(z, mode, cap=2, max_step=max_step)
            for system in (lts, weak_closure(lts, {"tau"})):
                assert len(set(system.labels)) == len(system.labels)
                assert {label for _, label, _ in system.edges} <= set(range(len(system.labels)))


def test_relabel_renames_the_table_and_shares_the_edges():
    lts = weak_closure(build_lts(absorber(), FIRING, cap=2), frozenset())
    renamed = relabel(lts, lambda obs: Obs(obs.kind, obs.name.upper()))
    assert renamed.edges is lts.edges and renamed.states is lts.states
    assert renamed.labels == [Obs("plus", "S"), Obs("lab", "A"), None]
    step = build_lts(agency_a(), STEP, cap=1, max_step=2)
    renamed = relabel(step, lambda obs: Obs(obs.kind, obs.name + "'"))
    assert renamed.edges is step.edges
    assert renamed.labels == [Multiset({Obs(o.kind, o.name + "'"): n for o, n in label.items()})
                              for label in step.labels]


def test_build_lts_rejects_oversized_root():
    z = build_net(["s"], {}, initial={"s": 9})
    with pytest.raises(InitialExceedsCap):
        build_lts(z, FIRING, cap=2)


@pytest.mark.parametrize("bounds", [{"cap": -1}, {"max_step": -1}])
def test_build_lts_rejects_negative_bounds(bounds):
    # the empty initial marking is within any cap, so only the bound check can refuse
    with pytest.raises(InvalidBound):
        build_lts(absorber(), STEP, **bounds)


@pytest.mark.parametrize("mode", ["Firing", "steps", None])
def test_an_unknown_mode_is_refused_where_the_search_starts(mode):
    text = f"unknown mode {mode!r}; expected 'firing' or 'step'"
    with pytest.raises(UnsupportedMode) as raised:
        build_lts(agency_a(), mode, cap=1)
    assert str(raised.value) == text
    with pytest.raises(UnsupportedMode) as raised:
        enabled_steps(agency_a(), agency_a().initial, mode, cap=1)
    assert str(raised.value) == text


def _distances(lts) -> list:
    """Each state's distance from the initial state, by its own breadth-first walk."""
    succ = [[] for _ in lts.states]
    for src, _, dst in lts.edges:
        succ[src].append(dst)
    dist, queue = {lts.initial: 0}, [lts.initial]
    for x in queue:
        for y in succ[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return [dist[i] for i in range(len(lts.states))]


def test_the_search_finds_a_level_at_a_time():
    """After k levels, the states within distance k are a prefix of the
    states, and the edges of those within k - 1 a prefix of the edges."""
    rng = random.Random(23)
    levels = 0
    for _ in range(60):
        z = random_net(rng, max_places=3)
        for mode, cap, max_step in ((FIRING, 2, 1), (STEP, 1, 2)):
            full = build_lts(z, mode, cap=cap, max_step=max_step)
            dist = _distances(full)
            search = semantics._Search(z, mode, cap, max_step)
            k = 0
            while not search.done:
                search.level()
                k += 1
                ball = search.ball()
                within = sum(d <= k for d in dist)
                assert ball.states == full.states[:within]
                assert ball.edges == [e for e in full.edges if dist[e[0]] < k]
                assert ball.edges == full.edges[:len(ball.edges)]
                assert ball.labels == full.labels[:len(ball.labels)]
                assert search.overflowed == (OVERFLOW in ball.states)
            levels += k
            lts = build_lts(z, search=search)
            assert (lts.states, lts.labels, lts.edges) == (full.states, full.labels, full.edges)
    assert levels >= 300


def test_build_lts_deterministic():
    z = agency_a()
    a = build_lts(z, STEP, cap=2, max_step=4)
    b = build_lts(z, STEP, cap=2, max_step=4)
    assert a.states == b.states and a.labels == b.labels and a.edges == b.edges


def test_weak_closure_empty_tau_adds_only_reflexive_loops():
    z = agency_a()
    strong = build_lts(z, FIRING, cap=2)
    weak = weak_closure(strong, frozenset())
    silent = [(s, l, d) for s, l, d in weak.labelled_edges() if l is None]
    assert silent == [(i, None, i) for i in range(len(strong.states))]
    visible = {(s, l, d) for s, l, d in weak.labelled_edges() if l is not None}
    assert visible == set(strong.labelled_edges())


def test_weak_closure_silent_path_then_visible():
    z = silent_then_act()
    strong = build_lts(z, FIRING, cap=3)
    weak = weak_closure(strong, frozenset({"tau"}))
    idx = {str(strong.marking(i)): i for i in range(len(strong.states))}
    # from the initial marking, the visible `a` is reachable through the tau
    assert (idx["s1"], Obs("lab", "a"), idx["0"]) in weak.labelled_edges()
    # and the tau itself became a silent move
    assert (idx["s1"], None, idx["p"]) in weak.labelled_edges()


def test_weak_closure_reflexive_everywhere():
    z = silent_then_act()
    weak = weak_closure(build_lts(z, FIRING, cap=3), frozenset({"tau"}))
    for i, state in enumerate(weak.states):
        if state is not OVERFLOW:
            assert (i, None, i) in weak.labelled_edges()


def test_weak_closure_step_mode_excludes_mixed_steps():
    # one tau and one visible in parallel: neither silent nor a visible step
    z = build_net(
        ["x", "y"],
        {"tt": ("tau", {"x": 1}, {}), "ta": ("a", {"y": 1}, {})},
        initial={"x": 1, "y": 1},
    )
    strong = build_lts(z, STEP, cap=2, max_step=4)
    weak = weak_closure(strong, frozenset({"tau"}))
    mixed = Multiset.of(Obs("lab", "a"), Obs("lab", "tau"))
    assert all(label != mixed for _, label, _ in weak.labelled_edges())
    # but the visible step alone is reachable after the silent one
    idx = {str(strong.marking(i)): i for i in range(len(strong.states))}
    assert (idx["x+y"], Multiset.of(Obs("lab", "a")), idx["x"]) in weak.labelled_edges()


def test_overflow_soundness_random():
    rng = random.Random(11)
    for _ in range(25):
        f1, _ = random_composable_span(rng)
        z = f1.target
        for mode in (FIRING, STEP):
            try:
                lts = build_lts(z, mode, cap=2, max_step=3)
            except InitialExceedsCap:
                continue
            overflow_ids = {i for i, s in enumerate(lts.states) if s is OVERFLOW}
            for src, _, dst in lts.edges:
                assert src not in overflow_ids
                target = lts.marking(dst)
                assert target is OVERFLOW or all(c <= 2 for _, c in target.items())


def test_dot_export_shapes():
    z = absorber()
    lts = build_lts(z, FIRING, cap=1)
    dot = to_dot(lts)
    assert "doubleoctagon" in dot
    assert dot.startswith("digraph lts {\n")


def test_dot_quotes_names_and_escapes_labels():
    z = build_net(['say "hi"', "back\\slash"],
                  {"t": ('a"b', {'say "hi"': 1}, {"back\\slash": 1})},
                  initial={'say "hi"': 1})
    lts = build_lts(z, FIRING, cap=1)
    dot = to_dot(lts, "chain3+x")
    assert dot.splitlines() == [
        'digraph "chain3+x" {',
        "  rankdir=LR;",
        '  n0 [label="say \\"hi\\"", shape=box];',
        '  n1 [label="back\\\\slash"];',
        '  n0 -> n1 [label="a\\"b"];',
        "}",
    ]
    assert to_dot(lts, "node").startswith('digraph "node" {')
    assert to_dot(lts, "_chain3").startswith("digraph _chain3 {")


# ------------------------------------------------------- step enumeration


def test_enabled_steps_match_the_oracle_on_random_nets():
    rng = random.Random(5)
    steps = overflowing = 0
    for _ in range(60):
        z = random_net(rng)
        for u in [z.initial] + [random_marking(rng, z.places, 3) for _ in range(3)]:
            for mode, max_step in ((FIRING, 6), (STEP, 0), (STEP, 1), (STEP, 2), (STEP, 3)):
                expected = oracle_steps(z, u, mode, 2, max_step)
                assert enabled_steps(z, u, mode, cap=2, max_step=max_step) == expected
                steps += len(expected)
                overflowing += sum(any(c > 2 for _, c in st.target.items())
                                   for st in expected)
    assert steps >= 3000 and overflowing >= 300


def test_enabled_steps_with_a_weight_two_arc_and_a_self_loop():
    # t0 needs two tokens on p; t1 gives back what it takes; t2 keeps p
    z = build_net(["p", "q", "r"],
                  {"t0": ("a", {"p": 2}, {"q": 1}), "t1": ("b", {"q": 1}, {"q": 1}),
                   "t2": ("c", {"p": 1, "q": 1}, {"p": 1, "r": 1})},
                  open_in=["p"], open_out=["r"], initial={"p": 2})
    steps = 0
    for u in all_markings(z.places, 3):
        for mode, max_step in ((FIRING, 6), (STEP, 1), (STEP, 2), (STEP, 4)):
            expected = oracle_steps(z, u, mode, 2, max_step)
            assert enabled_steps(z, u, mode, cap=2, max_step=max_step) == expected
            steps += len(expected)
    assert steps >= 1000


# counts on both sides of each packed field width (1, 2, 4, 8 and 16
# bytes), the last one wider than any machine word
CORNER_COUNTS = (2, 121, 122, 127, 128, 300, 2**30, 2**31, 2**70)


@pytest.mark.parametrize("tokens", CORNER_COUNTS)
def test_enabled_steps_match_the_oracle_at_large_counts(tokens):
    z = weighted()
    for u in (Multiset({"a": tokens}), Multiset({"a": tokens, "b": tokens})):
        for cap in (2, tokens):
            for mode, max_step in ((FIRING, 6), (STEP, 1), (STEP, 2), (STEP, 3)):
                expected = oracle_steps(z, u, mode, cap, max_step)
                assert enabled_steps(z, u, mode, cap=cap, max_step=max_step) == expected
                assert expected or mode == STEP and cap == 2


@pytest.mark.parametrize("mode", [FIRING, STEP])
def test_build_lts_refuses_a_huge_initial_count(mode):
    z = build_net(["s"], {}, open_out=["s"], initial={"s": 2**70})
    with pytest.raises(InitialExceedsCap):
        build_lts(z, mode, cap=4)


def test_build_lts_matches_the_oracle_lts():
    # steps of up to 200 `+a` put up to 203 tokens on a, beyond a 1-byte
    # field, and a pre weight of 200 needs a 2-byte field at any cap
    feed = build_net(["a", "b"], {}, open_in=["a"])
    heavy = build_net(["a"], {"t": ("t", {"a": 200}, {})}, open_in=["a"])
    for cap in range(4):
        for root in (Multiset(), Multiset({"a": cap, "b": cap})):
            for z, mode, max_step in ((weighted(), FIRING, 6),
                                      *((weighted(), STEP, k) for k in range(1, 5)),
                                      (weighted(open_in=False), STEP, 200),
                                      (feed, STEP, 200), (heavy, FIRING, 1)):
                lts = build_lts(z.with_initial(root), mode, cap=cap, max_step=max_step)
                states, edges = oracle_lts(z, mode, cap, max_step, root)
                assert [lts.marking(i) for i in range(len(lts.states))] == states
                assert lts.labelled_edges() == edges
                assert all(s is OVERFLOW or len(s) == len(lts.places) for s in lts.states)


def test_build_lts_on_a_net_with_no_places():
    assert build_lts(build_net([], {}), STEP).states == [()]
    z = build_net([], {"t": ("a", {}, {})})
    lts = build_lts(z, STEP, max_step=3)
    assert lts.states == [()] and lts.places == ()
    assert lts.labelled_edges() == oracle_lts(z, STEP, DEFAULT_CAP, 3)[1]
    assert [len(label) for label in lts.labels] == [1, 2, 3]


def test_post_set_never_enables_a_step_partner():
    z = build_net(["p0", "p1", "p2"],
                  {"t0": ("a", {"p0": 1}, {"p1": 1}), "t1": ("b", {"p1": 1}, {"p2": 1})},
                  initial={"p0": 1})
    steps = enabled_steps(z, z.initial, STEP, cap=2, max_step=3)
    assert [st.events for st in steps] == [Multiset.of(trans("t0"))]


def test_firing_lts_is_the_step_lts_with_one_event_steps():
    rng = random.Random(8)
    for _ in range(40):
        z = random_net(rng)
        firing = build_lts(z, FIRING, cap=2)
        step = build_lts(z, STEP, cap=2, max_step=1)
        assert firing.states == step.states
        assert ([(s, Multiset.of(label), d) for s, label, d in firing.labelled_edges()]
                == step.labelled_edges())


# ----------------------------------------------------------- weak closure


def tau_nets(rng, count):
    """Random nets with at least one tau-labelled transition."""
    nets = []
    while len(nets) < count:
        z = random_net(rng, max_trans=4)
        if any(z.label(t) == "tau" for t in z.transitions):
            nets.append(z)
    return nets


def test_weak_closure_matches_the_oracle():
    mixed = 0
    for z in tau_nets(random.Random(13), 40):
        for mode, max_step in ((FIRING, 1), (STEP, 2), (STEP, 3)):
            strong = build_lts(z, mode, cap=2, max_step=max_step)
            weak = weak_closure(strong, {"tau"})
            assert set(weak.labelled_edges()) == naive_weak_closure(strong, {"tau"})
            keys = [(s, label_sort_key(label), d) for s, label, d in weak.labelled_edges()]
            assert keys == sorted(set(keys))
            if mode == STEP:
                mixed += sum(len({o.name == "tau" for o in label.support()}) == 2
                             for _, label, _ in strong.labelled_edges())
    assert mixed >= 2000


def test_weak_closure_orders_edges_by_label_key_not_by_table_position():
    # the label table runs against label_sort_key order, the silent label
    # the closure appends sorts first, and state 5 overflowed
    labels = [Obs("plus", "p"), Obs("minus", "q"), Obs("lab", "tau"), Obs("lab", "b"),
              Obs("lab", "a")]
    assert sorted(labels, key=label_sort_key) == labels[::-1]
    plus_p, minus_q, tau, b, a = range(len(labels))
    edges = [(0, tau, 1), (1, tau, 2), (2, tau, 0), (0, b, 3), (1, a, 4), (2, plus_p, 5),
             (3, minus_q, 0), (3, tau, 4), (4, a, 1), (4, tau, 3), (1, b, 0)]
    lts = Lts(states=[(0,), (1,), (2,), (3,), (4,), OVERFLOW], places=("s",),
              labels=labels, edges=sorted(edges), initial=0, mode=FIRING, cap=1)
    weak = weak_closure(lts, {"tau"})
    expected = sorted(naive_weak_closure(lts, {"tau"}),
                      key=lambda e: (e[0], label_sort_key(e[1]), e[2]))
    assert weak.labelled_edges() == expected
    assert weak.labels == labels + [None] and len(expected) >= 40


@pytest.mark.parametrize("mode, max_step", [(FIRING, 1), (STEP, 2)])
def test_weak_closure_of_a_weak_closure_is_itself(mode, max_step):
    for z in [silent_then_act(), *tau_nets(random.Random(17), 10)]:
        weak = weak_closure(build_lts(z, mode, cap=2, max_step=max_step), {"tau"})
        again = weak_closure(weak, {"tau"})
        assert again.labels == weak.labels and again.edges == weak.edges


# ---------------------------------------------------------- pinned corpus

CORPUS = Path(__file__).parent / "data" / "lts_corpus.json"
CORPUS_SEEDS = range(60)
CORPUS_BUILDS = {"firing": (FIRING, 1), "step2": (STEP, 2), "step3": (STEP, 3)}
CORPUS_WEAK = ("firing", "step2")


def _lts_entry(seed, name, lts):
    return {
        "seed": seed,
        "lts": name,
        "states": [format_marking(lts.places, s) for s in lts.states],
        "edges": [[s, format_label(label), d] for s, label, d in lts.labelled_edges()],
    }


def corpus_entries():
    """The capped transition systems (cap 2) of one random net per seed,
    and the weak closures over `tau` of two of them."""
    entries = []
    for seed in CORPUS_SEEDS:
        z = random_net(random.Random(seed))
        for name, (mode, max_step) in CORPUS_BUILDS.items():
            lts = build_lts(z, mode, cap=2, max_step=max_step)
            entries.append(_lts_entry(seed, name, lts))
            if name in CORPUS_WEAK:
                entries.append(_lts_entry(seed, "weak-" + name, weak_closure(lts, {"tau"})))
    return entries


def test_format_marking_writes_what_the_multiset_writes():
    for seed in CORPUS_SEEDS:
        z = random_net(random.Random(seed))
        for mode, max_step in CORPUS_BUILDS.values():
            lts = build_lts(z, mode, cap=2, max_step=max_step)
            for system in (lts, weak_closure(lts, {"tau"})):
                for i, state in enumerate(system.states):
                    marking = system.marking(i)
                    assert format_marking(system.places, state) == str(marking)
                    assert state is OVERFLOW or state == tuple(map(marking.count, system.places))


def test_lts_corpus_matches_recorded():
    assert corpus_entries() == json.loads(CORPUS.read_text(encoding="utf-8"))


def write_corpus(entries):
    """One transition system per line, so a changed one shows as a changed line."""
    lines = ",\n".join(json.dumps(entry, sort_keys=True) for entry in entries)
    CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    write_corpus(corpus_entries())
