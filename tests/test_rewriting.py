"""Double-pushout rewriting: matches, side conditions and the reconfiguration theorem.

The property tests run over two seeded corpora of rules, each rule with a
random host grown around its left-hand side:

- "span" rules are random composable spans, so every side condition can
  fail;
- "preserving" rules have bisimilar sides by construction
  (netlib.preserving_rule), the rules the theorem is about.

The condition reports of every match are pinned in
data/rewriting_reports.json, recorded once and kept fixed; running this
file as a script writes that file again.
"""

import gc
import itertools
import json
import random
from pathlib import Path

import pytest

from opennet.composition import mediating_morphism, pushout
from opennet.equivalence import BISIMILAR, NOT_BISIMILAR, check_bisim, induced_correspondence
from opennet import build_net, documents, rewriting
from opennet.errors import ConditionsViolated, EtaUndefined, NotProper
from opennet.nets import Morphism, compose, identity, is_embedding, validate_morphism
from opennet.rewriting import (
    Rule,
    apply_rule,
    check_behaviour_preserving,
    check_cor_proper,
    check_po_complement,
    check_proper,
    find_matches,
    pushout_complement,
    rule_correspondence,
)

from netlib import (
    duplicating_rule,
    net_isomorphic,
    preserving_rule,
    random_composable_span,
    random_host,
    random_net,
    service_host,
    service_rule,
)

REPORTS = Path(__file__).parent / "data" / "rewriting_reports.json"
SEEDS = range(150)


def corpus(kind):
    """(seed, rule, host) for every seed; the host is grown around the lhs."""
    for seed in SEEDS:
        rng = random.Random(seed)
        if kind == "span":
            f1, f2 = random_composable_span(rng)
            rule = Rule(left=f1, right=f2)
        else:
            rule = preserving_rule(rng)
        yield seed, rule, random_host(rng, rule.lhs)


def matches_of(kind):
    """(seed, rule, match) for every match of every corpus rule."""
    for seed, rule, host in corpus(kind):
        for m in find_matches(rule.lhs, host):
            yield seed, rule, m


def report_entries():
    """The condition reports of every match of both corpora, in corpus order."""
    entries = []
    for kind in ("span", "preserving"):
        for seed, rule, m in matches_of(kind):
            entries.append({
                "kind": kind,
                "seed": seed,
                "places": dict(sorted(m.place_map.items())),
                "transitions": dict(sorted(m.trans_map.items())),
                "po_complement": str(check_po_complement(rule, m)),
                "proper": str(check_proper(rule, m)),
                "cor_proper": sorted(v.condition for v in check_cor_proper(rule, m).violations),
            })
    return entries


# ------------------------------------------------------------ side conditions


def test_condition_reports_match_recorded():
    # cor_proper holds the conditions of check_cor_proper's violations; the
    # recording mapped the paper's (a), (b), (c) to 1, 2, 4
    assert report_entries() == json.loads(REPORTS.read_text(encoding="utf-8"))


def test_corpus_exercises_every_condition():
    recorded = json.loads(REPORTS.read_text(encoding="utf-8"))
    seen = {line.split()[1] for entry in recorded
            for line in entry["proper"].splitlines() if line != "ok"}
    assert seen == {"1", "2", "3", "4", "5"}
    assert sum(entry["proper"] == "ok" for entry in recorded) >= 200


def test_cor_proper_is_the_selection_of_conditions_1_2_4():
    for kind in ("span", "preserving"):
        for _, rule, m in matches_of(kind):
            cor = check_cor_proper(rule, m).violations
            proper = check_proper(rule, m).violations
            assert cor == [v for v in proper if v.condition in {"1", "2", "4"}]


def test_apply_rule_rejects_improper_matches_with_the_report():
    improper = 0
    for _, rule, m in matches_of("span"):
        report = check_proper(rule, m)
        if report.ok:
            continue
        improper += 1
        with pytest.raises(NotProper) as exc:
            apply_rule(rule, m)
        assert str(exc.value.report) == str(report)
    assert improper >= 50


def test_pushout_complement_rejects_with_the_report():
    rejected = 0
    for _, rule, m in matches_of("span"):
        report = check_po_complement(rule, m)
        if report.ok:
            continue
        rejected += 1
        with pytest.raises(ConditionsViolated) as exc:
            pushout_complement(rule, m)
        assert str(exc.value.report) == str(report)
    assert rejected >= 50


def test_pushout_complement_builds_the_context_of_apply_rule():
    built = proper = 0
    for _, rule, m in matches_of("span"):
        if not check_po_complement(rule, m).ok:
            continue
        built += 1
        context, to_context, embed = pushout_complement(rule, m)
        # gluing the left-hand side back onto the context gives the host's size
        glued = pushout(to_context, rule.left).z3
        assert len(glued.places) == len(m.target.places)
        assert len(glued.transitions) == len(m.target.transitions)
        if check_proper(rule, m).ok:
            proper += 1
            t = apply_rule(rule, m)
            assert (context, to_context, embed) == (t.context, t.to_context, t.context_embedding)
    assert built > proper >= 50


def test_apply_rule_checks_the_conditions_once(monkeypatch):
    calls = []
    checked = rewriting.check_po_complement

    def counting(rule, m):
        calls.append(m)
        return checked(rule, m)

    monkeypatch.setattr(rewriting, "check_po_complement", counting)
    rule = duplicating_rule()
    (m,) = find_matches(rule.lhs, service_host())
    apply_rule(rule, m)
    assert calls == [m]


# ---------------------------------------------------------- the two squares


@pytest.mark.parametrize("kind", ["span", "preserving"])
def test_proper_match_gives_two_commuting_squares(kind):
    proper = 0
    for _, rule, m in matches_of(kind):
        if not check_proper(rule, m).ok:
            continue
        proper += 1
        t = apply_rule(rule, m)
        for square in (t.left_square, t.right_square):
            legs = (square.f1, square.f2, square.alpha1, square.alpha2)
            assert all(validate_morphism(f).ok for f in legs)
            assert compose(square.f1, square.alpha1) == compose(square.f2, square.alpha2)
        assert t.left_square.z3 == m.target
        host = m.target
        assert mediating_morphism(t.left_square, t.context_embedding, m) == identity(host)
        # the left square is a pushout: gluing the context back gives the host
        glued = pushout(t.to_context, rule.left)
        iso = mediating_morphism(glued, t.context_embedding, m)
        assert validate_morphism(iso).ok and is_embedding(iso)
        assert len(iso.place_map) == len(host.places)
        assert len(iso.trans_map) == len(host.transitions)
        assert net_isomorphic(glued.z3, host)
    assert proper >= 80


# ------------------------------------------------------ the reconfiguration theorem


def _preserving_corpus():
    """Matches of the preserving corpus whose rule is Bisimilar at cap 2."""
    for seed, rule, host in corpus("preserving"):
        if check_behaviour_preserving(rule, cap=2).result != BISIMILAR:
            continue
        for m in find_matches(rule.lhs, host):
            yield rule, m


def test_cor_proper_matches_of_preserving_rules_are_proper():
    cor_proper = 0
    for rule, m in _preserving_corpus():
        if check_cor_proper(rule, m).ok:
            cor_proper += 1
            assert check_proper(rule, m).ok
    assert cor_proper >= 150


def test_preserving_rules_preserve_bisimilarity():
    bisimilar = 0
    for rule, m in _preserving_corpus():
        if not check_proper(rule, m).ok:
            continue
        t = apply_rule(rule, m)
        eta = induced_correspondence(t.left_square, t.right_square, rule_correspondence(rule))
        verdict = check_bisim(m.target, t.result, eta, cap=2)
        assert verdict.result != NOT_BISIMILAR
        bisimilar += verdict.result == BISIMILAR
    assert bisimilar >= 150


def test_duplicating_rule_is_a_positive_example():
    rule, host = duplicating_rule(), service_host()
    assert check_behaviour_preserving(rule).result == BISIMILAR
    (m,) = find_matches(rule.lhs, host)
    assert check_cor_proper(rule, m).ok and check_proper(rule, m).ok
    t = apply_rule(rule, m)
    assert sorted(t.result.label(x) for x in t.result.transitions) == [
        "file", "quote", "quote", "store", "submit"]
    eta = induced_correspondence(t.left_square, t.right_square, rule_correspondence(rule))
    assert check_bisim(host, t.result, eta).result == BISIMILAR


def test_service_rule_changes_behaviour():
    rule = service_rule()
    assert check_behaviour_preserving(rule).result == NOT_BISIMILAR
    (m,) = find_matches(rule.lhs, service_host())
    assert check_proper(rule, m).ok


@pytest.mark.parametrize("polarity", ["+", "-"])
def test_a_deleted_open_place_leaves_the_correspondence_undefined(polarity):
    z0 = build_net(["s"], {}, open_in=["s"], open_out=["s"])
    opens = {"+": {"s"}, "-": {"s"}}
    opens[polarity].add("d")  # open, but outside the left leg's image
    lhs = build_net(["s", "d"], {}, open_in=opens["+"], open_out=opens["-"])
    leg = Morphism(source=z0, target=lhs, place_map={"s": "s"}, trans_map={})
    rule = Rule(left=leg, right=identity(z0))
    assert validate_morphism(leg).ok
    with pytest.raises(EtaUndefined, match="open place 'd' of the left-hand side is not "
                       "preserved as an open interface place"):
        rule_correspondence(rule)


# ------------------------------------------------------------------ matching


def brute_force_matches(lhs, z):
    """Every injective map of lhs into z that validates, in find_matches' order."""
    places, trans = sorted(lhs.places), sorted(lhs.transitions)
    found = []
    for p_image in itertools.permutations(sorted(z.places), len(places)):
        for t_image in itertools.permutations(sorted(z.transitions), len(trans)):
            m = Morphism(source=lhs, target=z, place_map=dict(zip(places, p_image)),
                         trans_map=dict(zip(trans, t_image)))
            if validate_morphism(m).ok:
                found.append(m)
    found.sort(key=lambda m: (sorted(m.trans_map.items()), sorted(m.place_map.items())))
    return found


def _copies(z, k):
    """k disjoint copies of z, the ids of copy i suffixed with i."""
    def image(ms, i):
        return {f"{s}{i}": c for s, c in ms.items()}

    return build_net(
        [f"{s}{i}" for i in range(k) for s in z.places],
        {f"{t}{i}": (tr.label, image(tr.pre, i), image(tr.post, i))
         for i in range(k) for t, tr in z.transitions.items()},
        initial={s: c for i in range(k) for s, c in image(z.initial, i).items()},
    )


def test_find_matches_leaves_no_cycle_per_candidate():
    # what only the cyclic collector frees after a search does not grow with
    # the number of matches
    _, host = documents.parse_net(
        (REPORTS.parent / "service_host.json").read_text(encoding="utf-8"))
    lhs = service_rule().lhs
    freed = []
    for k in (1, 10):
        copies = _copies(host, k)
        gc.collect()
        gc.disable()
        try:
            matches = find_matches(lhs, copies)
            freed.append(gc.collect())
        finally:
            gc.enable()
        assert len(matches) == k
    assert freed[0] == freed[1]


def test_find_matches_equals_brute_force():
    total = several = 0
    for seed in range(300):
        rng = random.Random(seed)
        lhs = random_net(rng, max_places=3, max_trans=2)
        if seed % 3:
            host = random_host(rng, lhs, max_new_places=1, max_new_trans=1)
        else:
            host = random_net(rng, max_places=4, max_trans=3)
        expected = brute_force_matches(lhs, host)
        assert find_matches(lhs, host) == expected
        total += len(expected)
        several += len(expected) > 1
    assert total >= 200 and several >= 25


def write_reports(entries):
    """One entry per line, so a changed report shows as a changed line."""
    lines = ",\n".join(json.dumps(entry, sort_keys=True) for entry in entries)
    REPORTS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    write_reports(report_entries())
