"""Gluing two open nets along a shared interface net.

Both nets embed a common interface; when the interface usage of each side is
matched by openness on the other (composability), the two nets can be glued.
The glued net is built as the disjoint union quotiented by the interface,
which is valid because both legs are injective.  Item names follow a fixed
scheme: interface items keep the interface net's names, items private to the
first leg's target get an "L:" prefix, items private to the second leg's
target an "R:" prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import multiset, nets
from .errors import NotComposable, NotEmbedding, SourceMismatch
from .multiset import SetPushout
from .nets import Morphism, OpenNet, PetriNet, Transition

LEFT_PREFIX = "L:"
RIGHT_PREFIX = "R:"
RESERVED_PREFIXES = (LEFT_PREFIX, RIGHT_PREFIX)


@dataclass(frozen=True)
class PushoutResult:
    """The glued net with its two legs and the span it was computed from."""

    z3: OpenNet
    alpha1: Morphism
    alpha2: Morphism
    f1: Morphism
    f2: Morphism

    @property
    def z0(self) -> OpenNet:
        return self.f1.source

    @property
    def z1(self) -> OpenNet:
        return self.f1.target

    @property
    def z2(self) -> OpenNet:
        return self.f2.target


def _require_span(f1: Morphism, f2: Morphism):
    if not nets.is_embedding(f1) or not nets.is_embedding(f2):
        raise NotEmbedding("both span legs must be embeddings")
    if f1.source != f2.source:
        raise SourceMismatch("span legs do not share their source net")


def composability_failures(f1: Morphism, f2: Morphism) -> list:
    """All violations of the composability conditions, as readable strings."""
    failures = []
    pairs = (
        (f1, f2, "first", "second"),
        (f2, f1, "second", "first"),
    )
    verbs = ("receives tokens from", "loses tokens to")
    for fa, fb, name_a, name_b in pairs:
        for (polarity, word, _), verb in zip(nets.DIRECTIONS, verbs):
            for s in sorted(nets.gained_places(fa, polarity)):
                if fb.place_map[s] not in fb.target.opens(polarity):
                    failures.append(
                        f"interface place {s!r} {verb} the {name_a} net but its "
                        f"image {fb.place_map[s]!r} is not {word} open in the {name_b} net"
                    )
    return failures


def check_composable(f1: Morphism, f2: Morphism) -> bool:
    """True iff the two embeddings can be glued into a pushout of open nets."""
    _require_span(f1, f2)
    return not composability_failures(f1, f2)


def _glued_names(items, leg_map, prefix: str) -> dict:
    """The glued name of each item of a leg's target: the interface item
    that the leg maps onto it, or else its own id after `prefix`."""
    back = {x: x0 for x0, x in leg_map.items()}
    return {x: back[x] if x in back else prefix + x for x in items}


def pushout(f1: Morphism, f2: Morphism) -> PushoutResult:
    """Glue the targets of two composable embeddings along their source.

    Open places of the result are those whose every preimage is open on its
    side; the initial marking amalgamates the two component markings over
    the interface marking.
    """
    _require_span(f1, f2)
    failures = composability_failures(f1, f2)
    if failures:
        raise NotComposable("; ".join(failures))

    z1, z2 = f1.target, f2.target
    places, transitions = set(), {}
    closed = {polarity: set() for polarity, _, _ in nets.DIRECTIONS}
    glued = []  # (place names, transition names) of each leg's target
    for f, z, prefix in ((f1, z1, LEFT_PREFIX), (f2, z2, RIGHT_PREFIX)):
        place_names = _glued_names(z.places, f.place_map, prefix)
        trans_names = _glued_names(z.transitions, f.trans_map, prefix)
        places.update(place_names.values())
        for t, name in trans_names.items():
            transitions[name] = Transition(
                label=z.label(t),
                pre=multiset.image(place_names, z.pre(t)),
                post=multiset.image(place_names, z.post(t)),
            )
        # a glued place is open iff no preimage on either side is closed
        for polarity, images in closed.items():
            images.update(place_names[s] for s in z.places - z.opens(polarity))
        glued.append((place_names, trans_names))
    places = frozenset(places)

    (a1_places, a1_trans), (a2_places, a2_trans) = glued
    marking_square = SetPushout(f1=f1.place_map, f2=f2.place_map, a1=a1_places, a2=a2_places)
    z3 = OpenNet(
        net=PetriNet(places=places, transitions=transitions),
        open_in=places - closed["+"],
        open_out=places - closed["-"],
        initial=multiset.join(z1.initial, z2.initial, marking_square),
    )
    alpha1 = Morphism(source=z1, target=z3, place_map=a1_places, trans_map=a1_trans)
    alpha2 = Morphism(source=z2, target=z3, place_map=a2_places, trans_map=a2_trans)
    return PushoutResult(z3=z3, alpha1=alpha1, alpha2=alpha2, f1=f1, f2=f2)


def glue_names(po: PushoutResult) -> dict:
    """Where each item of the glued net came from.

    Maps every place and transition id of the result to a pair
    (origin, original id): ("interface", x0) when a leg maps the interface
    item x0 onto it, else ("left", x) or ("right", x) for the item x of that
    leg's target.  The dict's order means nothing; writers sort it.
    """
    naming = {}
    for _, component, _ in nets.COMPONENTS:
        for f, alpha, side in ((po.f1, po.alpha1, "left"), (po.f2, po.alpha2, "right")):
            interface = {x: x0 for x0, x in component(f).items()}
            for x, item in component(alpha).items():
                naming[item] = ("interface", interface[x]) if x in interface else (side, x)
    return naming


def places_square(po: PushoutResult) -> SetPushout:
    """The underlying pushout square on place sets."""
    return SetPushout(
        f1=po.f1.place_map,
        f2=po.f2.place_map,
        a1=po.alpha1.place_map,
        a2=po.alpha2.place_map,
    )


def mediating_morphism(po: PushoutResult, beta1: Morphism, beta2: Morphism) -> Morphism:
    """The unique morphism out of the pushout commuting with a cospan.

    Both legs of the pushout are jointly surjective, so the mediating map is
    fully determined; a ValueError signals a non-commuting cospan.
    """
    if beta1.source != po.z1 or beta2.source != po.z2 or beta1.target != beta2.target:
        raise SourceMismatch("cospan does not match the pushout span")
    maps = []
    for kind, component, _ in nets.COMPONENTS:
        out = {}
        for alpha, beta in ((po.alpha1, beta1), (po.alpha2, beta2)):
            beta_map = component(beta)
            for x, x3 in component(alpha).items():
                y = beta_map[x]
                if x3 in out and out[x3] != y:
                    raise ValueError(f"cospan does not commute on {kind} {x3!r}")
                out[x3] = y
        maps.append(out)
    place_map, trans_map = maps
    return Morphism(source=po.z3, target=beta1.target, place_map=place_map, trans_map=trans_map)
