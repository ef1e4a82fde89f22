"""Double-pushout reconfiguration of open nets.

A rule is a span of embeddings between three open nets: the left-hand side
is cut out of the host net, the interface is preserved, and the right-hand
side is glued in.  Rule application needs side conditions beyond the usual
dangling condition, because openness must survive both squares; when several
contexts complete the left square, the maximally open one is the canonical
choice.  Rules whose two sides are bisimilar under the interface-induced
correspondence preserve the observable behaviour of any host they apply to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import multiset, nets
from .composition import PushoutResult, check_composable, pushout
from .equivalence import BisimVerdict, check_bisim
from .errors import (
    ConditionsViolated,
    EtaUndefined,
    NotEmbedding,
    NotProper,
    SourceMismatch,
)
from .nets import Correspondence, Morphism, OpenNet, PetriNet
from .semantics import DEFAULT_CAP, DEFAULT_MAX_STEP, FIRING


@dataclass(frozen=True)
class Rule:
    """A reconfiguration rule: two embeddings out of a common interface net."""

    left: Morphism   # interface -> left-hand side
    right: Morphism  # interface -> right-hand side

    @property
    def interface(self) -> OpenNet:
        return self.left.source

    @property
    def lhs(self) -> OpenNet:
        return self.left.target

    @property
    def rhs(self) -> OpenNet:
        return self.right.target


@dataclass(frozen=True)
class Violation:
    condition: str
    item: str
    message: str

    def __str__(self):
        return f"condition {self.condition} at {self.item!r}: {self.message}"


@dataclass
class ConditionReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, condition: str, item: str, message: str):
        self.violations.append(Violation(condition, item, message))

    def conditions(self) -> set:
        return {v.condition for v in self.violations}

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def find_matches(lhs: OpenNet, z: OpenNet) -> list:
    """All embeddings of a pattern net into a host net, in canonical order.

    Backtracks over the pattern's transitions first (unifying the adjacent
    places through the pre/post multisets), then over the remaining isolated
    places, and keeps exactly those maps that validate as open-net
    morphisms.
    """
    pattern_trans = sorted(lhs.transitions)
    host_trans = sorted(z.transitions)
    pattern_places, host_places = sorted(lhs.places), sorted(z.places)
    matches = []

    def unify_places(pairs, partial_places, used_places):
        """Extend the place assignment so each (pattern multiset, host multiset)
        pair is matched bijectively with equal counts; yields extensions."""
        if not pairs:
            yield partial_places, used_places
            return
        (p_ms, h_ms), rest = pairs[0], pairs[1:]
        p_support = sorted(p_ms.support())

        def assign(idx, places, used, taken):
            if idx == len(p_support):
                if multiset.image({s: places[s] for s in p_support}, p_ms) == h_ms:
                    yield from unify_places(rest, places, used)
                return
            s = p_support[idx]
            if s in places:
                c = places[s]
                if c in taken or h_ms.count(c) != p_ms.count(s):
                    return
                yield from assign(idx + 1, places, used, taken | {c})
                return
            for c in sorted(h_ms.support()):
                if c in taken or c in used:
                    continue
                if h_ms.count(c) != p_ms.count(s):
                    continue
                yield from assign(
                    idx + 1, {**places, s: c}, used | {c}, taken | {c}
                )

        yield from assign(0, partial_places, used_places, set())

    def extend_transitions(idx, trans_assign, used_trans, place_assign, used_places):
        if idx == len(pattern_trans):
            # the isolated places of the pattern go to the unused host places
            free = [s for s in pattern_places if s not in place_assign]
            pool = [c for c in host_places if c not in used_places] if free else []
            for combo in itertools.permutations(pool, len(free)):
                full_places = {**place_assign, **dict(zip(free, combo))}
                candidate = Morphism(
                    source=lhs, target=z,
                    place_map=full_places, trans_map=dict(trans_assign),
                )
                if nets.validate_morphism(candidate).ok:
                    matches.append(candidate)
            return
        t = pattern_trans[idx]
        for c in host_trans:
            if c in used_trans or z.label(c) != lhs.label(t):
                continue
            pairs = [(lhs.pre(t), z.pre(c)), (lhs.post(t), z.post(c))]
            for new_places, new_used in unify_places(pairs, place_assign, used_places):
                extend_transitions(
                    idx + 1, {**trans_assign, t: c}, used_trans | {c},
                    new_places, new_used,
                )

    extend_transitions(0, {}, set(), {}, set())
    matches.sort(key=lambda m: (sorted(m.trans_map.items()), sorted(m.place_map.items())))
    return matches


def _require_match(rule: Rule, m: Morphism):
    if m.source != rule.lhs:
        raise SourceMismatch("the match does not start from the rule's left-hand side")
    if not nets.is_embedding(m):
        raise NotEmbedding("a match must be injective")


def _deleted_places(rule: Rule) -> frozenset:
    return rule.lhs.places - rule.left.place_image()

def _deleted_transitions(rule: Rule) -> frozenset:
    return frozenset(rule.lhs.transitions) - rule.left.trans_image()


def check_po_complement(rule: Rule, m: Morphism) -> ConditionReport:
    """The three conditions for the context net to exist and form a pushout.

    1. dangling: every host transition at a deleted place is itself deleted;
    2. a preserved open place of the pattern that loses an adjacent
       transition must be open in the host;
    3. a deleted open place must be open in the host.
    """
    _require_match(rule, m)
    report = ConditionReport()
    z = m.target
    deleted_places = _deleted_places(rule)
    deleted_trans_images = {m.trans_map[t] for t in _deleted_transitions(rule)}

    for s in sorted(deleted_places):
        hs = m.place_map[s]
        hanging = (z.place_producers(hs) | z.place_consumers(hs)) - deleted_trans_images
        for t in sorted(hanging):
            report.add(
                "1", s,
                f"host transition {t!r} stays attached to deleted place image {hs!r}",
            )

    for polarity, word, arc in nets.DIRECTIONS:
        for s0 in sorted(nets.gained_places(rule.left, polarity)):
            s = rule.left.place_map[s0]
            if s in rule.lhs.opens(polarity) and m.place_map[s] not in z.opens(polarity):
                report.add(
                    "2", s,
                    f"pattern place {s!r} loses an {arc} transition but its host image "
                    f"{m.place_map[s]!r} is not {word} open",
                )

    for polarity, word, _ in nets.DIRECTIONS:
        preserved_open = {rule.left.place_map[s0] for s0 in rule.interface.opens(polarity)}
        for s in sorted(rule.lhs.opens(polarity) - preserved_open):
            if m.place_map[s] not in z.opens(polarity):
                report.add(
                    "3", s,
                    f"{word}-open pattern place {s!r} is deleted or loses its flag but "
                    f"its host image {m.place_map[s]!r} is not {word} open",
                )
    return report


def pushout_complement(rule: Rule, m: Morphism):
    """Remove the matched pattern-minus-interface part from the host.

    Returns (context net, interface->context, context->host).  Among all
    contexts completing the square the maximally open one is produced: a
    place that is open in the interface but closed in the pattern stays
    open in the context.
    """
    report = check_po_complement(rule, m)
    if not report.ok:
        raise ConditionsViolated(str(report), report=report)
    return _complement(rule, m)


def _complement(rule: Rule, m: Morphism):
    """The context construction, for a match that meets conditions 1-3."""
    z = m.target
    removed_places = {m.place_map[s] for s in _deleted_places(rule)}
    removed_trans = {m.trans_map[t] for t in _deleted_transitions(rule)}

    places = z.places - removed_places
    transitions = {t: tr for t, tr in z.transitions.items() if t not in removed_trans}

    n_places = {s0: m.place_map[rule.left.place_map[s0]] for s0 in rule.interface.places}
    n_trans = {t0: m.trans_map[rule.left.trans_map[t0]] for t0 in rule.interface.transitions}

    # the host's flags on the kept places, plus every interface place that
    # is open but closed in the pattern: the maximally open context
    open_in, open_out = (
        (z.opens(polarity) & places)
        | {n_places[s0] for s0 in rule.interface.opens(polarity)
           if rule.left.place_map[s0] not in rule.lhs.opens(polarity)}
        for polarity in ("+", "-"))
    initial = z.initial.restrict(places)

    context = OpenNet(
        net=PetriNet(places=places, transitions=transitions),
        open_in=open_in,
        open_out=open_out,
        initial=initial,
    )
    to_context = Morphism(
        source=rule.interface, target=context, place_map=n_places, trans_map=n_trans
    )
    embed = Morphism(
        source=context, target=z,
        place_map={s: s for s in places},
        trans_map={t: t for t in transitions},
    )
    # The construction is supposed to guarantee this; fail loudly if not.
    if not check_composable(rule.left, to_context):
        raise ConditionsViolated(
            "internal error: the derived context is not composable with the left leg"
        )
    return context, to_context, embed


def check_proper(rule: Rule, m: Morphism) -> ConditionReport:
    """Conditions for the whole transformation to exist.

    Adds to the complement conditions:
    4. a preserved place gaining an adjacent transition in the right-hand
       side must be open in the host;
    5. a preserved place with extra host arcs must be open in the
       right-hand side.
    """
    report = check_po_complement(rule, m)
    z = m.target
    for polarity, word, arc in nets.DIRECTIONS:
        added = nets.gained_places(rule.right, polarity) - nets.gained_places(rule.left, polarity)
        for s0 in sorted(added):
            host = m.place_map[rule.left.place_map[s0]]
            if host not in z.opens(polarity):
                report.add(
                    "4", s0,
                    f"the rule adds an {arc} transition at preserved place {s0!r} but "
                    f"its host image {host!r} is not {word} open",
                )
    left_inverse_p = {v: k for k, v in rule.left.place_map.items()}
    for (polarity, word, _), verb in zip(nets.DIRECTIONS, ("feed", "drain")):
        for s in sorted(nets.gained_places(m, polarity)):
            s0 = left_inverse_p.get(s)
            if s0 is not None and rule.right.place_map[s0] not in rule.rhs.opens(polarity):
                report.add(
                    "5", s,
                    f"host arcs {verb} preserved place {s!r} but its right-hand-side image "
                    f"{rule.right.place_map[s0]!r} is not {word} open",
                )
    return report


@dataclass
class TransformResult:
    """Everything produced by one rule application: the context with its two
    morphisms, the rewritten net with the right-hand side's embedding, and
    both pushout squares (the left one reassembled, the right one computed)."""

    context: OpenNet
    to_context: Morphism        # interface -> context
    context_embedding: Morphism  # context -> host
    result: OpenNet
    right_embedding: Morphism   # right-hand side -> result
    context_to_result: Morphism  # context -> result
    left_square: PushoutResult
    right_square: PushoutResult


def apply_rule(rule: Rule, m: Morphism) -> TransformResult:
    """Rewrite the match's host net with the rule.

    The host is the target of the match.  Raises NotProper when the side
    conditions fail; the report rides along on the exception.
    """
    report = check_proper(rule, m)
    if not report.ok:
        raise NotProper(str(report), report=report)
    context, to_context, embed = _complement(rule, m)
    right_square = pushout(to_context, rule.right)
    left_square = PushoutResult(
        z3=m.target, alpha1=embed, alpha2=m, f1=to_context, f2=rule.left
    )
    return TransformResult(
        context=context,
        to_context=to_context,
        context_embedding=embed,
        result=right_square.z3,
        right_embedding=right_square.alpha2,
        context_to_result=right_square.alpha1,
        left_square=left_square,
        right_square=right_square,
    )


def rule_correspondence(rule: Rule) -> Correspondence:
    """The correspondence between the two sides induced by the interface.

    Defined only when every open place of the left-hand side is the image
    of an interface place open the same way.
    """
    inverse = {v: k for k, v in rule.left.place_map.items()}
    eta_in, eta_out = {}, {}
    for polarity, store in (("+", eta_in), ("-", eta_out)):
        for s in rule.lhs.opens(polarity):
            s0 = inverse.get(s)
            if s0 is None or s0 not in rule.interface.opens(polarity):
                raise EtaUndefined(
                    f"open place {s!r} of the left-hand side is not preserved as an "
                    "open interface place, so the induced correspondence is partial"
                )
            store[s] = rule.right.place_map[s0]
    return Correspondence(eta_in=eta_in, eta_out=eta_out)


def check_behaviour_preserving(rule: Rule, kind: str = "strong", mode: str = FIRING,
                               tau_labels=frozenset(), cap: int = DEFAULT_CAP,
                               max_step: int = DEFAULT_MAX_STEP) -> BisimVerdict:
    """Compare the two sides of a rule under the induced correspondence.

    A Bisimilar verdict means every application of the rule preserves the
    host's observable behaviour, up to the stated bound.
    """
    eta = rule_correspondence(rule)
    return check_bisim(
        rule.lhs, rule.rhs, eta, kind=kind, mode=mode,
        tau_labels=tau_labels, cap=cap, max_step=max_step,
    )


def check_cor_proper(rule: Rule, m: Morphism) -> ConditionReport:
    """The simplified match conditions for behaviour-preserving rules.

    The paper's (a) is the dangling condition 1; (b) is condition 2, host
    openness where the rule deletes transitions at a place that is open in
    the pattern; (c) is condition 4, host openness where the rule adds
    transitions at a preserved place.  For behaviour-preserving rules these
    imply the full properness conditions, so the report is check_proper's
    without its violations of conditions 3 and 5.
    """
    report = check_proper(rule, m)
    return ConditionReport([v for v in report.violations if v.condition in {"1", "2", "4"}])
