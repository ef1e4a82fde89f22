"""Bisimilarity checking, the up-to technique, and their supporting laws."""

import itertools
import random
from pathlib import Path

import pytest

from opennet import build_net, documents, equivalence, pushout, semantics
from opennet.cli import _verdict_json
from opennet.equivalence import (
    BISIMILAR,
    INCONCLUSIVE,
    NOT_BISIMILAR,
    UpToResult,
    _eta_rename,
    _Union,
    check_bisim,
    check_upto,
    induced_correspondence,
    out_degree,
    partition_refinement,
    search_correspondence,
    subtractable,
    subtractable_markings,
)
from opennet.errors import (
    InitialExceedsCap,
    InvalidBound,
    NotACorrespondence,
    PairExceedsCap,
    UnknownPlace,
    UnsupportedMode,
)
from opennet.multiset import EMPTY, Multiset
from opennet.nets import Correspondence, Morphism, close_place
from opennet.semantics import FIRING, OVERFLOW, STEP, Obs, build_lts, weak_closure

from netlib import (
    absorber,
    act_only,
    agency_a,
    agency_b,
    ccs_eta,
    chain,
    chain_x,
    check_play,
    columns,
    compared_ltss,
    mutate_preserving,
    naive_bisimulation,
    naive_weak_closure,
    naive_separation_depths,
    random_composable_span,
    random_lts,
    random_net,
    refine_union,
    rename_net,
    reversed_copy,
    silent_then_act,
    successors,
)

EMPTY_ETA = Correspondence(eta_in={}, eta_out={})
DATA = Path(__file__).parent / "data"


def test_agencies_strong_firing_bisimilar():
    verdict = check_bisim(agency_a(), agency_b(), EMPTY_ETA,
                          kind="strong", mode=FIRING, cap=2)
    assert verdict.result == BISIMILAR
    assert not verdict.touched_overflow
    initial_pair = (str(agency_a().initial), str(agency_b().initial))
    assert initial_pair in set(verdict.witness)


def test_agencies_strong_step_distinguished_by_parallel_booking():
    verdict = check_bisim(agency_a(), agency_b(), EMPTY_ETA,
                          kind="strong", mode=STEP, cap=2)
    assert verdict.result == NOT_BISIMILAR
    assert not verdict.touched_overflow
    first = verdict.play[0]
    assert first.side == 1
    assert first.label == Multiset.of(Obs("lab", "bookFlight"), Obs("lab", "bookHotel"))
    assert first.response_target is None


def test_ccs_pair_not_weakly_firing_bisimilar():
    verdict = check_bisim(silent_then_act(), act_only(), ccs_eta(),
                          kind="weak", mode=FIRING,
                          tau_labels={"tau"}, cap=3)
    assert verdict.result == NOT_BISIMILAR
    assert verdict.touched_overflow is False
    assert verdict.play  # a concrete distinguishing play is attached


def test_ccs_pair_closed_variant_weakly_bisimilar():
    verdict = check_bisim(silent_then_act(False), act_only(False), EMPTY_ETA,
                          kind="weak", mode=FIRING,
                          tau_labels={"tau"}, cap=3)
    assert verdict.result == BISIMILAR


def test_a_place_named_overflow_is_a_real_marking():
    """Overflow is decided on the states, never on their text: a place
    named OVERFLOW writes a real marking as "OVERFLOW"."""
    def net(place):
        return build_net([place], {"t": ("a", {place: 1}, {})}, initial={place: 1})

    verdict = check_bisim(net("OVERFLOW"), net("o"), EMPTY_ETA, cap=2)
    assert verdict.result == BISIMILAR
    assert not verdict.touched_overflow
    assert [list(pair) for pair in _verdict_json(verdict)["witness"]] == \
        [["OVERFLOW", "o"], ["0", "0"]]


def test_not_a_correspondence_rejected():
    with pytest.raises(NotACorrespondence):
        check_bisim(silent_then_act(), act_only(),
                    Correspondence(eta_in={}, eta_out={}), cap=2)


def test_step_refines_firing_on_random_pairs():
    rng = random.Random(5)
    seen_refutations = 0
    for _ in range(40):
        z1 = random_net(rng, max_places=3, max_trans=2, tau_ok=False)
        z2, eta, _, _ = mutate_preserving(rng, z1)
        # perturb: retarget one transition label to break equivalence sometimes
        verdict_f = check_bisim(z1, z2, eta, kind="strong", mode=FIRING, cap=2)
        if verdict_f.result == NOT_BISIMILAR:
            verdict_s = check_bisim(z1, z2, eta, kind="strong", mode=STEP,
                                    cap=2, max_step=3)
            assert verdict_s.result == NOT_BISIMILAR
            seen_refutations += 1
    # mutations are behaviour preserving, so refutations should not arise here
    assert seen_refutations == 0


def test_step_refines_firing_on_genuinely_different_nets():
    left = build_net(["s"], {"t": ("a", {"s": 1}, {"s": 1})},
                     open_in=["s"], open_out=["s"], initial={"s": 1})
    right = build_net(["s"], {"t": ("b", {"s": 1}, {"s": 1})},
                      open_in=["s"], open_out=["s"], initial={"s": 1})
    eta = Correspondence(eta_in={"s": "s"}, eta_out={"s": "s"})
    firing = check_bisim(left, right, eta, kind="strong", mode=FIRING, cap=2)
    assert firing.result == NOT_BISIMILAR
    step = check_bisim(left, right, eta, kind="strong", mode=STEP, cap=2, max_step=3)
    assert step.result == NOT_BISIMILAR


def test_search_correspondence_finds_witness():
    # two output-open places must be matched crosswise to align the labels
    z1 = build_net(
        ["x", "y"],
        {"tx": ("a", {"x": 1}, {}), "ty": ("b", {"y": 1}, {})},
        open_out=["x", "y"], initial={"x": 1, "y": 1},
    )
    z2 = build_net(
        ["p", "q"],
        {"tp": ("b", {"p": 1}, {}), "tq": ("a", {"q": 1}, {})},
        open_out=["p", "q"], initial={"p": 1, "q": 1},
    )
    verdict = search_correspondence(z1, z2, kind="strong", mode=FIRING, cap=2)
    assert verdict.result == BISIMILAR
    assert verdict.eta.eta_out == {"x": "q", "y": "p"}


def test_search_correspondence_rejects_unequal_interfaces():
    with pytest.raises(NotACorrespondence):
        search_correspondence(absorber(), build_net(["s"], {}), cap=2)


def _two_by_two(second_label):
    """Two input-open and two output-open places, one transition per pair."""
    return build_net(
        ["i1", "i2", "o1", "o2"],
        {"t1": ("a", {"i1": 1}, {"o1": 1}), "t2": (second_label, {"i2": 1}, {"o2": 1})},
        open_in=["i1", "i2"], open_out=["o1", "o2"],
    )


def _counting_builds(monkeypatch) -> list:
    """The nets `equivalence` hands to `build_lts`, collected as it runs."""
    builds = []

    def counting(z, *args, **kwargs):
        builds.append(z)
        return build_lts(z, *args, **kwargs)

    monkeypatch.setattr(equivalence, "build_lts", counting)
    return builds


def test_search_correspondence_explores_each_net_once(monkeypatch):
    # weakly NotBisimilar under all four correspondences, so every one is tried
    builds = _counting_builds(monkeypatch)
    z1, z2 = _two_by_two("b"), _two_by_two("c")
    verdict = search_correspondence(z1, z2, kind="weak", mode=FIRING, cap=1)
    assert verdict.result == NOT_BISIMILAR
    assert builds == [z1, z2]


def test_strong_search_refutes_each_candidate_near_the_initial_markings(monkeypatch):
    # every candidate is a plain check, answered before either net is built in full
    builds = _counting_builds(monkeypatch)
    verdict = search_correspondence(_two_by_two("b"), _two_by_two("c"), kind="strong",
                                    mode=FIRING, cap=1)
    assert verdict.result == NOT_BISIMILAR
    assert builds == []


def _search_pairs():
    """Seeded pairs with equal interface sizes, bisimilar by construction or
    drawn independently, and the pair that no correspondence relates."""
    rng = random.Random(31)
    yield _two_by_two("b"), _two_by_two("c")
    for _ in range(30):
        z = random_net(rng, max_places=3)
        yield z, mutate_preserving(rng, z)[0]
        other = random_net(rng, max_places=3, prefix="o")
        if (len(z.open_in), len(z.open_out)) == (len(other.open_in), len(other.open_out)):
            yield z, other


@pytest.mark.parametrize("options", [
    dict(kind="strong", mode=FIRING, cap=2),
    dict(kind="weak", mode=FIRING, tau_labels=frozenset({"tau"}), cap=2),
    dict(kind="strong", mode=STEP, cap=1, max_step=2),
])
def test_search_correspondence_reports_its_correspondence_as_check_bisim_does(options):
    results = set()
    for z1, z2 in _search_pairs():
        found = search_correspondence(z1, z2, **options)
        direct = check_bisim(z1, z2, found.eta, **options)
        assert _verdict_json(found) == _verdict_json(direct)
        results.add(found.result)
    assert {BISIMILAR, NOT_BISIMILAR} <= results


def test_search_correspondence_answers_its_first_inconclusive_candidate():
    # found by a seeded search over random nets: against a copy whose places
    # sort in reverse, the candidates come NotBisimilar four times, then
    # Inconclusive twice under two different correspondences, never Bisimilar
    z1 = random_net(random.Random(3385), max_places=4)
    z2 = reversed_copy(z1)
    assert (z1.open_in, len(z1.open_out)) == (frozenset(), 3)
    etas = [Correspondence(eta_in={}, eta_out=dict(zip(sorted(z1.open_out), outs)))
            for outs in itertools.permutations(sorted(z2.open_out))]
    verdicts = [check_bisim(z1, z2, eta, cap=1) for eta in etas]
    assert [v.result for v in verdicts] == [NOT_BISIMILAR] * 4 + [INCONCLUSIVE] * 2
    found = search_correspondence(z1, z2, cap=1)
    assert found.eta == etas[4]
    assert _verdict_json(found) == _verdict_json(verdicts[4])


def test_out_degree():
    assert out_degree(absorber(), "s") == 1
    isolated = build_net(["s"], {})
    assert out_degree(isolated, "s") == 0
    z = build_net(["s"], {"t": ("a", {"s": 2}, {})}, open_out=["s"])
    assert out_degree(z, "s") == 2
    with pytest.raises(UnknownPlace):
        out_degree(isolated, "ghost")


def test_subtractable():
    z = absorber()
    assert subtractable(z, Multiset({"s": 2}), Multiset({"s": 1}))
    assert not subtractable(z, Multiset({"s": 1}), Multiset({"s": 1}))
    assert subtractable(z, EMPTY, EMPTY)
    assert subtractable(z, Multiset({"s": 5}), EMPTY)
    closed = build_net(["s"], {})
    assert not subtractable(closed, Multiset({"s": 5}), Multiset({"s": 1}))


def test_subtractable_markings_enumeration():
    z = absorber()
    found = list(subtractable_markings(z, Multiset({"s": 3})))
    assert found == [EMPTY, Multiset({"s": 1}), Multiset({"s": 2})]


def test_close_place_drops_interaction_edges():
    from opennet.semantics import build_lts

    z = absorber()
    closed = close_place(z, "s", "+")
    lts = build_lts(closed, FIRING, cap=2)
    assert len(lts.states) == 1 and lts.edges == []


ID_ETA = Correspondence(eta_in={"s": "s"}, eta_out={})


def test_upto_accepts_absorber_relation():
    result = check_upto(absorber(), absorber(), ID_ETA,
                        [(EMPTY, EMPTY), (Multiset({"s": 1}), Multiset({"s": 1}))],
                        cap=4)
    assert result.accepted


def test_upto_rejects_a_non_bijective_eta():
    z = chain(3)
    pair = (Multiset({"p0": 1}), Multiset({"p0": 1}))
    with pytest.raises(NotACorrespondence):
        check_upto(z, z, EMPTY_ETA, [pair], cap=2)


def test_upto_direct_check_agrees():
    verdict = check_bisim(absorber(), absorber(), ID_ETA,
                          kind="weak", mode=FIRING, cap=4)
    assert verdict.result == BISIMILAR
    assert verdict.touched_overflow  # the open place always outruns the cap


def test_upto_rejects_without_successor_pair():
    result = check_upto(absorber(), absorber(), ID_ETA, [(EMPTY, EMPTY)], cap=4)
    assert not result.accepted
    assert "+s" in result.reason


def test_upto_accepts_under_a_renaming_eta():
    renamed, _, _ = rename_net(absorber(), "_r")
    eta = Correspondence(eta_in={"s": "s_r"}, eta_out={})
    pairs = [(EMPTY, EMPTY), (Multiset({"s": 1}), Multiset({"s_r": 1}))]
    assert check_upto(absorber(), renamed, eta, pairs, cap=4).accepted
    swapped = [(u2, u1) for u1, u2 in pairs]
    assert check_upto(renamed, absorber(), eta.inverse(), swapped, cap=4).accepted


def test_upto_rejects_under_a_renaming_eta():
    renamed, _, _ = rename_net(absorber(), "_r")
    eta = Correspondence(eta_in={"s": "s_r"}, eta_out={})
    result = check_upto(absorber(), renamed, eta, [(EMPTY, EMPTY)], cap=4)
    assert not result.accepted
    assert result.reason == (
        "pair (0, 0): first-net move +s to s has no answer landing back in the relation"
    )
    # the second net's -s1p must be mirrored back through eta_out as -s1
    pairs = [(Multiset({"s1": 1}), Multiset({"s1p": 1})),
             (Multiset({"p": 1}), Multiset({"s1p": 1})), (EMPTY, EMPTY)]
    result = check_upto(silent_then_act(), act_only(), ccs_eta(), pairs,
                        tau_labels={"tau"}, cap=3)
    assert not result.accepted
    assert result.reason == (
        "pair (p, s1p): second-net move -s1p to 0 has no answer landing back in the relation"
    )


def _drained(place, label):
    """An input-open place drained by one transition labelled `label`."""
    return build_net([place], {"t": (label, {place: 1}, {})}, open_in=[place])


def test_upto_answers_a_silent_challenge_with_silent_moves():
    eta = Correspondence(eta_in={"p": "q"}, eta_out={})
    pairs = [(EMPTY, EMPTY), (Multiset({"p": 1}), Multiset({"q": 1}))]
    result = check_upto(_drained("p", "tau"), _drained("q", "tau"), eta, pairs,
                        tau_labels={"tau"}, cap=3)
    assert result.accepted
    # the second net's visible b cannot answer the silent move
    result = check_upto(_drained("p", "tau"), _drained("q", "b"), eta, pairs,
                        tau_labels={"tau"}, cap=3)
    assert not result.accepted
    assert result.reason == (
        "pair (p, q): first-net move tau to 0 has no answer landing back in the relation"
    )


def test_upto_skips_a_cut_whose_mirrored_surplus_the_answer_lacks():
    # p's out-degree is 1, so after the loop one of p's two tokens is
    # surplus; the only answer, q:2 -a-> 0, holds no q to cut in mirror
    loop = build_net(["p"], {"t": ("a", {"p": 1}, {"p": 1})}, open_in=["p"])
    drain = build_net(["q"], {"t": ("a", {"q": 2}, {})}, open_in=["q"])
    eta = Correspondence(eta_in={"p": "q"}, eta_out={})
    result = check_upto(loop, drain, eta, [(Multiset({"p": 2}), Multiset({"q": 2}))], cap=3)
    assert not result.accepted
    assert result.reason == (
        "pair (p:2, q:2): first-net move a to p:2 has no answer landing back in the relation"
    )


def test_upto_empty_relation_vacuously_accepted():
    result = check_upto(absorber(), absorber(), ID_ETA, [], cap=4)
    assert result.accepted


def test_upto_rejects_step_mode():
    with pytest.raises(UnsupportedMode):
        check_upto(absorber(), absorber(), ID_ETA, [], mode=STEP)


def test_upto_pair_exceeding_cap():
    with pytest.raises(PairExceedsCap):
        check_upto(absorber(), absorber(), ID_ETA,
                   [(Multiset({"s": 9}), Multiset({"s": 9}))], cap=4)


def test_upto_at_cap_0():
    # cap 0 is a legal bound: a closed net with nothing enabled is accepted
    z = build_net(["p"], {"t": ("a", {"p": 1}, {})})
    result = check_upto(z, z, EMPTY_ETA, [(EMPTY, EMPTY)], cap=0)
    assert result == UpToResult(accepted=True, reason=None, touched_overflow=False)
    # and the absorber's first token already lies beyond it
    with pytest.raises(PairExceedsCap) as info:
        check_upto(absorber(), absorber(), ID_ETA, [(EMPTY, EMPTY)], cap=0)
    assert str(info.value) == "challenge from 0 reaches s, beyond the cap 0; raise the cap"


def test_upto_refuses_a_pair_on_undeclared_places():
    z = chain(3)
    for pair in [(Multiset({"zz": 1}), Multiset({"p0": 1})),
                 (Multiset({"p0": 1}), Multiset({"p0": 1, "zz": 1}))]:
        with pytest.raises(UnknownPlace, match="zz"):
            check_upto(z, z, Correspondence(eta_in={"p0": "p0"}, eta_out={"p2": "p2"}),
                       [pair], cap=2)


def test_upto_enlarged_relation_stays_accepted():
    # pumping any pair with one token on the open place preserves acceptance
    base = [(EMPTY, EMPTY), (Multiset({"s": 1}), Multiset({"s": 1}))]
    enlarged = base + [(u1 + Multiset({"s": 1}), u2 + Multiset({"s": 1}))
                       for u1, u2 in base]
    result = check_upto(absorber(), absorber(), ID_ETA, enlarged, cap=4)
    assert result.accepted


def test_upto_soundness_every_pair_bisimilar():
    pairs = [(EMPTY, EMPTY), (Multiset({"s": 1}), Multiset({"s": 1}))]
    result = check_upto(absorber(), absorber(), ID_ETA, pairs, cap=4)
    assert result.accepted
    for u1, u2 in pairs:
        verdict = check_bisim(
            absorber().with_initial(u1), absorber().with_initial(u2),
            ID_ETA, kind="weak", mode=FIRING, cap=4,
        )
        assert verdict.result == BISIMILAR


def _corpus_systems():
    """The firing, step (max_step 2) and weak-closed systems of the nets
    behind data/lts_corpus.json, with their real labels: `Obs`, step
    multisets, and the silent labels None and EMPTY."""
    for seed in range(60):
        z = random_net(random.Random(seed))
        for mode, max_step in ((FIRING, 1), (STEP, 2)):
            lts = build_lts(z, mode, cap=2, max_step=max_step)
            yield lts
            yield weak_closure(lts, {"tau"})


def test_partition_refinement_matches_naive_oracle():
    rng = random.Random(2024)
    systems = [random_lts(rng, max_states=30, max_labels=5) for _ in range(100)]
    shapes = set()
    for lts in systems + list(_corpus_systems()):
        succ = successors(lts)
        blocks = partition_refinement(*columns(lts))
        related = naive_bisimulation(len(lts.states), succ)
        for i in range(len(lts.states)):
            for j in range(len(lts.states)):
                assert (blocks[i] == blocks[j]) == ((i, j) in related)
        shapes |= {"EMPTY" if label == EMPTY else type(label).__name__
                   for _, label, _ in lts.labelled_edges()}
    assert shapes == {"str", "Obs", "Multiset", "NoneType", "EMPTY"}


def test_refinement_rounds_match_naive_depths_within_one_system():
    rounds_seen = 0
    for lts in _corpus_systems():
        n, succ = len(lts.states), successors(lts)
        rounds = []
        partition_refinement(*columns(lts), rounds)
        depths = naive_separation_depths(n, succ, n, succ)
        # the refinement stops at the first round that changes nothing
        assert len(rounds) == max(depths.values(), default=0)
        for k, blocks in enumerate(rounds, start=1):
            for i in range(n):
                for j in range(n):
                    assert (blocks[i] == blocks[j]) == (depths.get((i, j), k + 1) > k)
        rounds_seen += len(rounds)
    assert rounds_seen >= 300


def test_refinement_sees_labels_only_through_equality():
    # label ids are indices into `shaped`, not numbered from 0: the small
    # systems use only ids 2 and 4, where a packing width of 2 (the number of
    # ids) would merge (4, block b) with (2, block b + 1)
    shaped = ["a", ("a", 1), None, Multiset({"a": 2}), Multiset.of("a"), (), 0]
    rng = random.Random(31)
    rounds_seen = 0
    for trial in range(240):
        labels, size = (shaped, 12) if trial % 2 else ([shaped[2], shaped[4]], 5)
        lts = random_lts(rng, max_states=size, labels=labels, max_out=3)
        n, succ = len(lts.states), successors(lts)
        indices, targets = columns(lts)
        ids = [[shaped.index(lts.labels[label]) for label in out] for out in indices]
        rounds = []
        partition_refinement(ids, targets, rounds)
        depths = naive_separation_depths(n, succ, n, succ)
        assert len(rounds) == max(depths.values(), default=0)
        for k, round_blocks in enumerate(rounds, start=1):
            for i in range(n):
                for j in range(n):
                    assert (round_blocks[i] == round_blocks[j]) == (depths.get((i, j), k + 1) > k)
        rounds_seen += len(rounds)
    assert rounds_seen >= 120


def _random_lts_pairs(count=240):
    """Seeded pairs over one alphabet; every sixth pair has an edgeless side."""
    rng = random.Random(7)
    labels = ["l0", "l1"]
    for k in range(count):
        lts1 = random_lts(rng, max_states=10, labels=labels, max_out=0 if k % 6 == 5 else 2)
        lts2 = random_lts(rng, max_states=10, labels=labels, max_out=0 if k % 12 == 11 else 2)
        yield lts1, lts2


def test_pair_depths_match_naive_oracle():
    bisimilar = separated = 0
    for lts1, lts2 in _random_lts_pairs():
        n1, n2 = len(lts1.states), len(lts2.states)
        union = refine_union(lts1, lts2)
        numbers1, numbers2 = union.numbers
        oracle = naive_separation_depths(n1, successors(lts1), n2, successors(lts2))
        for i in range(n1):
            for j in range(n2):
                assert union.depth(numbers1[i], numbers2[j]) == oracle.get((i, j), 0), (i, j)
        if union.depth(*union.initial):
            separated += 1
        else:
            bisimilar += 1
    assert bisimilar >= 20 and separated >= 20


def test_refine_union_merges_equal_labels_held_at_different_indices():
    # the second table lists fresh but equal copies of the first one's labels
    # in reverse order, so the systems line up only if labels merge by value
    obs = Obs("lab", "a")
    first = [obs, Multiset({obs: 2}), None, EMPTY]
    second = [Multiset(), None, Multiset({Obs("lab", "a"): 2}), Obs("lab", "a")]
    rng = random.Random(11)
    bisimilar = separated = 0
    for _ in range(120):
        lts1 = random_lts(rng, max_states=8, labels=first, max_out=2)
        lts2 = random_lts(rng, max_states=8, labels=second, max_out=2)
        n1, n2 = len(lts1.states), len(lts2.states)
        union = refine_union(lts1, lts2)
        numbers1, numbers2 = union.numbers
        assert list(union.table) == first
        oracle = naive_separation_depths(n1, successors(lts1), n2, successors(lts2))
        for i in range(n1):
            for j in range(n2):
                assert union.depth(numbers1[i], numbers2[j]) == oracle.get((i, j), 0), (i, j)
        initial_depth = oracle.get((lts1.initial, lts2.initial), 0)
        if initial_depth:
            check_play(lts1, lts2, union.play(), initial_depth)
            separated += 1
        else:
            bisimilar += 1
    assert bisimilar >= 10 and separated >= 10


def test_plays_from_refinement_are_lost_games():
    plays = 0
    for lts1, lts2 in _random_lts_pairs():
        union = refine_union(lts1, lts2)
        initial_depth = union.depth(*union.initial)
        if initial_depth:
            check_play(lts1, lts2, union.play(), initial_depth)
            plays += 1
    assert plays >= 20


@pytest.mark.parametrize("case", ["agency-step", "ccs-weak"])
def test_verdict_play_is_a_lost_game(case):
    if case == "agency-step":
        args = (agency_a(), agency_b(), EMPTY_ETA)
        options = dict(kind="strong", mode=STEP, cap=2)
    else:
        args = (silent_then_act(), act_only(), ccs_eta())
        options = dict(kind="weak", mode=FIRING, tau_labels=frozenset({"tau"}), cap=2)
    verdict = check_bisim(*args, **options)
    assert verdict.result == NOT_BISIMILAR
    lts1, lts2 = compared_ltss(*args, **options)
    oracle = naive_separation_depths(len(lts1.states), successors(lts1),
                                     len(lts2.states), successors(lts2))
    check_play(lts1, lts2, verdict.play, oracle[(lts1.initial, lts2.initial)])


def test_chain5_against_chain5_x_at_cap_4(monkeypatch):
    """The case whose cross-product depth fixpoint took minutes, and which
    is answered near the initial markings, building neither system."""
    builds = _counting_builds(monkeypatch)
    options = dict(kind="strong", mode=FIRING, cap=4)
    eta = Correspondence(eta_in={"p0": "p0"}, eta_out={"p4": "p4"})
    verdict = check_bisim(chain(5), chain_x(5), eta, **options)
    assert builds == []
    assert verdict.result == NOT_BISIMILAR
    assert len(verdict.play) == 3
    lts1, lts2 = compared_ltss(chain(5), chain_x(5), eta, **options)
    check_play(lts1, lts2, verdict.play, 3)


def congruence_quadruple(rng, weak):
    """A span plus a behaviour-preserving mutant of its second component.

    The mutant must itself be an embedding of the interface, composable
    with the first leg; mutations breaking that (say a duplicate of an
    interface transition, which adds a gained arc) are discarded.
    """
    from opennet import check_composable
    from opennet.nets import validate_morphism

    f1, f2 = random_composable_span(rng)
    z2 = f2.target
    w2, eta, pmap, tmap = mutate_preserving(rng, z2, weak=weak)
    g2 = Morphism(
        source=f2.source, target=w2,
        place_map={s: pmap[y] for s, y in f2.place_map.items()},
        trans_map={t: tmap[y] for t, y in f2.trans_map.items()},
    )
    if not validate_morphism(g2).ok or not check_composable(f1, g2):
        return None
    return f1, f2, g2, w2, eta


@pytest.mark.parametrize("weak,tau", [(False, frozenset()), (True, frozenset({"tau"}))])
def test_congruence_under_composition(weak, tau):
    rng = random.Random(31 if weak else 13)
    kind = "weak" if weak else "strong"
    done = 0
    attempts = 0
    while done < 100 and attempts < 3000:
        attempts += 1
        quad = congruence_quadruple(rng, weak)
        if quad is None:
            continue
        f1, f2, g2, w2, eta = quad
        base = check_bisim(f2.target, w2, eta, kind=kind, mode=FIRING,
                           tau_labels=tau, cap=2)
        if base.result != BISIMILAR or base.touched_overflow:
            continue
        po_z = pushout(f1, f2)
        po_w = pushout(f1, g2)
        eta_prime = induced_correspondence(po_z, po_w, eta)
        verdict = check_bisim(po_z.z3, po_w.z3, eta_prime, kind=kind,
                              mode=FIRING, tau_labels=tau, cap=2)
        if verdict.touched_overflow:
            assert verdict.result in (BISIMILAR, INCONCLUSIVE), (
                f"congruence broken: {verdict.result}"
            )
        else:
            assert verdict.result == BISIMILAR, f"congruence broken: {verdict.result}"
        done += 1
    assert done == 100, f"only {done} overflow-free quadruples in {attempts} attempts"


def test_closing_preserves_bisimilarity():
    rng = random.Random(77)
    done = 0
    attempts = 0
    while done < 50 and attempts < 500:
        attempts += 1
        z = random_net(rng, max_places=3, max_trans=2, tau_ok=False)
        w, eta, _, _ = mutate_preserving(rng, z)
        if not (z.open_in or z.open_out):
            continue
        verdict = check_bisim(z, w, eta, kind="strong", mode=FIRING, cap=2)
        if verdict.result != BISIMILAR:
            continue
        if z.open_in:
            s, polarity = sorted(z.open_in)[0], "+"
            image = eta.eta_in[s]
            eta_closed = Correspondence(
                eta_in={k: v for k, v in eta.eta_in.items() if k != s},
                eta_out=dict(eta.eta_out),
            )
        else:
            s, polarity = sorted(z.open_out)[0], "-"
            image = eta.eta_out[s]
            eta_closed = Correspondence(
                eta_in=dict(eta.eta_in),
                eta_out={k: v for k, v in eta.eta_out.items() if k != s},
            )
        after = check_bisim(close_place(z, s, polarity),
                            close_place(w, image, polarity),
                            eta_closed, kind="strong", mode=FIRING, cap=2)
        assert after.result == BISIMILAR
        done += 1
    assert done == 50, f"only {done} closable bisimilar pairs in {attempts} attempts"


def test_inconclusive_when_real_state_matches_overflow():
    # left: one move into a dead place; right: one move straight over the cap.
    # the truncation can only relate the dead marking with overflow, which is
    # not evidence of anything.
    left = build_net(["p", "d"], {"t": ("a", {"p": 1}, {"d": 1})}, initial={"p": 1})
    right = build_net(["q", "w"], {"t": ("a", {"q": 1}, {"w": 3})}, initial={"q": 1})
    verdict = check_bisim(left, right, EMPTY_ETA, kind="strong", mode=FIRING, cap=2)
    assert verdict.result == INCONCLUSIVE
    assert verdict.touched_overflow


@pytest.mark.parametrize("overflowing_first", [True, False])
def test_touched_overflow_when_only_one_side_overflows(overflowing_first):
    quiet = build_net(["q"], {}, open_out=["q"])
    growing = build_net(["p", "q"], {"t": ("a", {"p": 1}, {"p": 1, "q": 1})},
                        open_out=["q"], initial={"p": 1})
    pair = (growing, quiet) if overflowing_first else (quiet, growing)
    verdict = check_bisim(*pair, Correspondence(eta_in={}, eta_out={"q": "q"}), cap=2)
    assert verdict.result == NOT_BISIMILAR
    assert verdict.touched_overflow


# ------------------------------------------- the local NotBisimilar answer


def _full_verdict(z1, z2, eta, mode, cap, max_step):
    """The strong verdict on the two systems explored in full."""
    lts1, lts2 = (build_lts(z, mode, cap=cap, max_step=max_step) for z in (z1, z2))
    return _Union(lts1, lts2, _eta_rename(eta)).refine().verdict(eta, "strong")


LOCAL_OPTIONS = [(FIRING, cap, 1) for cap in (1, 2, 3)] + [
    (STEP, cap, max_step) for cap in (1, 2) for max_step in (2, 3)]


def _strong_pairs(count):
    """Seeded pairs: independent random nets under the correspondence that
    pairs their open places in sorted order, and behaviour-preserving
    mutants under their own correspondence."""
    rng = random.Random(2208)
    for _ in range(count):
        z = random_net(rng, max_places=3)
        yield z, *mutate_preserving(rng, z)[:2]
        other = random_net(rng, max_places=3, prefix="o")
        if (len(z.open_in), len(z.open_out)) == (len(other.open_in), len(other.open_out)):
            yield z, other, Correspondence(
                eta_in=dict(zip(sorted(z.open_in), sorted(other.open_in))),
                eta_out=dict(zip(sorted(z.open_out), sorted(other.open_out))))


def test_strong_checks_answer_as_the_full_systems_do(monkeypatch):
    builds = _counting_builds(monkeypatch)
    local = results = 0
    outcomes = set()
    for z1, z2, eta in _strong_pairs(120):
        for mode, cap, max_step in LOCAL_OPTIONS:
            del builds[:]
            verdict = check_bisim(z1, z2, eta, mode=mode, cap=cap, max_step=max_step)
            assert _verdict_json(verdict) == _verdict_json(
                _full_verdict(z1, z2, eta, mode, cap, max_step))
            local += not builds
            outcomes.add((verdict.result, not builds, verdict.touched_overflow))
            results += 1
    assert results >= 1000
    # answered near the initial markings, and in full both ways
    assert {(NOT_BISIMILAR, True, True), (NOT_BISIMILAR, False, True),
            (BISIMILAR, False, False)} <= outcomes
    assert local >= 100


def test_a_loop_against_a_two_step_cycle_is_bisimilar():
    # within radius 1 the cycle's second state has no edge yet: refining that
    # ball for a second round would separate the initial pair
    loop = build_net(["p"], {"t": ("a", {"p": 1}, {"p": 1})}, initial={"p": 1})
    cycle = build_net(["q0", "q1"], {"t0": ("a", {"q0": 1}, {"q1": 1}),
                                     "t1": ("a", {"q1": 1}, {"q0": 1})}, initial={"q0": 1})
    for mode in (FIRING, STEP):
        verdict = check_bisim(loop, cycle, EMPTY_ETA, mode=mode, cap=1)
        assert verdict.result == BISIMILAR
        assert verdict.witness == [("p", "q0"), ("p", "q1")]


def test_a_play_beyond_the_radii_is_answered_in_full(monkeypatch):
    builds = _counting_builds(monkeypatch)
    drained = build_net([f"p{i}" for i in range(8)], {
        **{f"t{i}": (f"a{i}", {f"p{i}": 1}, {f"p{i + 1}": 1}) for i in range(7)},
        "d": ("z", {"p7": 1}, {})}, open_in=["p0"], open_out=["p7"], initial={"p0": 1})
    eta = Correspondence(eta_in={"p0": "p0"}, eta_out={"p7": "p7"})
    verdict = check_bisim(chain(8), drained, eta, cap=1)
    assert len(verdict.play) == 8 and len(builds) == 2


def _growing(label):
    """A closed net that puts one more token on q with each move."""
    return build_net(["p", "q"], {"t": (label, {"p": 1}, {"p": 1, "q": 1})}, initial={"p": 1})


def _closed_chain(*labels):
    places = [f"c{i}" for i in range(len(labels) + 1)]
    return build_net(places, {f"t{i}": (label, {places[i]: 1}, {places[i + 1]: 1})
                              for i, label in enumerate(labels)}, initial={places[0]: 1})


@pytest.mark.parametrize("pair, touched", [
    # input-open: overflow lies within the ball that answers
    ((chain(3), chain_x(3), Correspondence(eta_in={"p0": "p0"}, eta_out={"p2": "p2"})), True),
    # closed: answered at radius 1, overflow three moves away
    ((_growing("a"), _growing("b"), EMPTY_ETA), True),
    # closed and never over the cap: the searches run to their end
    ((_closed_chain("a", "b", "b"), _closed_chain("a", "c", "b"), EMPTY_ETA), False),
])
def test_touched_overflow_of_a_local_answer_is_the_full_systems_flag(monkeypatch, pair, touched):
    builds = _counting_builds(monkeypatch)
    for mode in (FIRING, STEP):
        verdict = check_bisim(*pair, mode=mode, cap=2, max_step=2)
        assert builds == []
        assert verdict.result == NOT_BISIMILAR and verdict.touched_overflow is touched
        assert _verdict_json(verdict) == _verdict_json(_full_verdict(*pair, mode, 2, 2))


# ------------------------------------------------ the union's edge columns


def _data_net(name):
    return documents.parse_net((DATA / name).read_text(encoding="utf-8"))[1]


@pytest.mark.parametrize("first, second, mode, cap, result, builds_made", [
    ("chain3.json", "chain3_copy.json", FIRING, 3, BISIMILAR, 2),
    ("chain3.json", "chain3_copy.json", STEP, 3, BISIMILAR, 2),
    # a play of 8 moves: local attempts first, then the full systems
    ("chain8.json", "chain8_drain.json", FIRING, 1, NOT_BISIMILAR, 2),
])
def test_a_strong_check_renames_each_label_of_the_first_net_once(
        monkeypatch, first, second, mode, cap, result, builds_made):
    z1, z2 = _data_net(first), _data_net(second)
    eta = Correspondence(eta_in=dict(zip(sorted(z1.open_in), sorted(z2.open_in))),
                         eta_out=dict(zip(sorted(z1.open_out), sorted(z2.open_out))))
    builds = _counting_builds(monkeypatch)
    renamed = []
    rename = semantics.rename_label

    def counting(label, fn):
        renamed.append(label)
        return rename(label, fn)

    monkeypatch.setattr(semantics, "rename_label", counting)
    verdict = check_bisim(z1, z2, eta, mode=mode, cap=cap)
    assert verdict.result == result and len(builds) == builds_made
    assert len(renamed) == len(build_lts(z1, mode, cap=cap).labels)


def _system_columns(union, side):
    """The union's rows of one system, in its own order, each target
    written back as the system's own state index."""
    numbers = union.numbers[side]
    own = {x: j for j, x in enumerate(numbers)}
    return ([union.labels[x] for x in numbers],
            [[own[y] for y in union.targets[x]] for x in numbers])


def test_columns_grown_level_by_level_are_the_columns_of_the_finished_system():
    """Grown after every level of a search, and once more after it ends,
    the columns are those read at once from the finished system: the same
    table and rows, each edge in them exactly once, and every union state
    numbered once."""
    rng = random.Random(23)
    levels = 0
    for _ in range(60):
        z = random_net(rng, max_places=3)
        for mode, cap, max_step in ((FIRING, 2, 1), (STEP, 1, 2)):
            search = semantics._Search(z, mode, cap, max_step)
            grown = _Union(search, search, lambda label: label)
            while not search.done:
                search.level()
                grown.grow()
                levels += 1
            lts = build_lts(z, search=search)
            grown.grow()
            once = _Union(lts, lts, lambda label: label)
            once.grow()
            assert list(grown.table) == list(once.table) == lts.labels
            for union in (grown, once):
                numbered = sorted(union.numbers[0] + union.numbers[1])
                assert numbered == list(range(2 * len(lts.states)))
                for side in (0, 1):
                    assert _system_columns(union, side) == columns(lts)
    assert levels >= 300


@pytest.mark.parametrize("pair, result", [
    # Bisimilar: three local attempts, then the full union
    ((chain(3), chain(3), Correspondence(eta_in={"p0": "p0"}, eta_out={"p2": "p2"})),
     BISIMILAR),
    # NotBisimilar near the initial markings
    ((chain(3), chain_x(3), Correspondence(eta_in={"p0": "p0"}, eta_out={"p2": "p2"})),
     NOT_BISIMILAR),
])
def test_the_refinement_reads_the_union_rows_as_they_are(monkeypatch, pair, result):
    """Every refinement of a strong check gets the union's own row lists:
    no concatenation of the two systems, no shifted copy of the second."""
    unions, calls = [], []
    grow, refine = _Union.grow, equivalence.partition_refinement

    def recording_grow(union):
        unions.append(union)
        grow(union)

    def recording_refine(labels, targets, *args):
        calls.append((labels, targets))
        return refine(labels, targets, *args)

    monkeypatch.setattr(_Union, "grow", recording_grow)
    monkeypatch.setattr(equivalence, "partition_refinement", recording_refine)
    assert check_bisim(*pair, cap=2).result == result
    union = unions[0]
    assert all(other is union for other in unions) and calls
    assert all(labels is union.labels and targets is union.targets for labels, targets in calls)


def test_the_union_saturates_each_row_as_the_naive_weak_closure():
    """A weak check saturates the union's rows of the two raw systems in
    place: state by state, each row holds exactly the weak edges of its
    system (`naive_weak_closure`), each once, with its targets in the same
    system, and the overflow state's row is empty."""
    rng = random.Random(2709)
    rows = overflow_rows = 0
    for _ in range(40):
        z1, z2 = random_net(rng, max_trans=4), random_net(rng, max_trans=4, prefix="o")
        for mode, max_step in ((FIRING, 1), (STEP, 2)):
            systems = [build_lts(z, mode, cap=2, max_step=max_step) for z in (z1, z2)]
            union = _Union(*systems, lambda label: label).saturate({"tau"})
            table = list(union.table)
            for side, lts in enumerate(systems):
                weak = naive_weak_closure(lts, {"tau"})
                own = {x: j for j, x in enumerate(union.numbers[side])}
                for j, x in enumerate(union.numbers[side]):
                    row = [(table[a], own[y]) for a, y in zip(union.labels[x], union.targets[x])]
                    assert len(set(row)) == len(row)
                    assert set(row) == {(label, k) for i, label, k in weak if i == j}
                    overflow_rows += lts.states[j] is OVERFLOW
                    assert not row or lts.states[j] is not OVERFLOW
                    rows += 1
    assert rows >= 1000 and overflow_rows >= 40


def test_a_weak_check_answers_as_the_union_of_the_two_weak_closures():
    """The union saturated in place gives the verdict, witness and play that
    the union of the two weak-closed systems gives."""
    results = set()
    for z1, z2, eta in _strong_pairs(60):
        for mode, cap, max_step in ((FIRING, 1, 1), (FIRING, 2, 1), (STEP, 1, 2)):
            verdict = check_bisim(z1, z2, eta, kind="weak", mode=mode, tau_labels={"tau"},
                                  cap=cap, max_step=max_step)
            closed = (weak_closure(build_lts(z, mode, cap=cap, max_step=max_step), {"tau"})
                      for z in (z1, z2))
            expected = _Union(*closed, _eta_rename(eta)).refine().verdict(eta, "weak")
            assert _verdict_json(verdict) == _verdict_json(expected)
            results.add(verdict.result)
    assert results == {BISIMILAR, NOT_BISIMILAR}


def test_a_local_answer_decodes_only_the_states_the_union_numbers(monkeypatch):
    """After the answer, the searches run on to learn whether one overflows,
    and the states they find there are never decoded."""
    decoded = []
    lower = semantics._lower

    def counting_lower(*args):
        *lowered, decode = lower(*args)

        def counting(m):
            decoded.append(m)
            return decode(m)

        return (*lowered, counting)

    monkeypatch.setattr(semantics, "_lower", counting_lower)
    # answered at radius 1; the first overflow is three moves away
    searches = [semantics._Search(z, FIRING, 2, 1) for z in (_growing("a"), _growing("b"))]
    union = _Union(*searches, _eta_rename(EMPTY_ETA))
    verdict = equivalence._local_verdict(searches, union, EMPTY_ETA)
    assert verdict.result == NOT_BISIMILAR and verdict.touched_overflow
    found = sum(len(search.packed) for search in searches)
    assert len(decoded) == len(union.labels) == 4 and found == 8


@pytest.mark.parametrize("kind", ["strong", "weak"])
@pytest.mark.parametrize("mode", [FIRING, STEP])
def test_refusals_come_in_their_order(kind, mode):
    def net(initial, open_in=()):
        return build_net(["p"], {"t": ("a", {"p": 1}, {"p": 1})}, open_in=list(open_in),
                         initial={"p": initial})

    bad_eta = Correspondence(eta_in={"p": "p"}, eta_out={})
    cases = [
        ((net(3), net(3), bad_eta, -1, 2), NotACorrespondence,
         "NotBijective: input component is not a bijection onto the open places; "
         "NotBijective: input component is not total on the open places"),
        ((net(3), net(4), EMPTY_ETA, -1, 2), InvalidBound,
         "the cap (-1) and the step bound (2) must be non-negative"),
        ((net(1), net(1), EMPTY_ETA, 1, -1), InvalidBound,
         "the cap (1) and the step bound (-1) must be non-negative"),
        ((net(3), net(4), EMPTY_ETA, 2, 2), InitialExceedsCap,
         "marking p:3 exceeds the per-place cap 2"),
        ((net(1), net(4), EMPTY_ETA, 2, 2), InitialExceedsCap,
         "marking p:4 exceeds the per-place cap 2"),
    ]
    for (z1, z2, eta, cap, max_step), error, text in cases:
        with pytest.raises(error) as raised:
            check_bisim(z1, z2, eta, kind=kind, mode=mode, cap=cap, max_step=max_step)
        assert str(raised.value) == text


@pytest.mark.parametrize("search", [False, True])
@pytest.mark.parametrize("options, text", [
    (dict(kind="Weak"), "unknown kind 'Weak'; expected 'strong' or 'weak'"),
    (dict(kind="weak", mode="Firing"), "unknown mode 'Firing'; expected 'firing' or 'step'"),
    (dict(mode="steps"), "unknown mode 'steps'; expected 'firing' or 'step'"),
])
def test_an_unknown_kind_or_mode_is_refused(search, options, text):
    z1, z2 = agency_a(), agency_b()
    with pytest.raises(UnsupportedMode) as raised:
        if search:
            search_correspondence(z1, z2, cap=1, **options)
        else:
            check_bisim(z1, z2, EMPTY_ETA, cap=1, **options)
    assert str(raised.value) == text
