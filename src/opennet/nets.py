"""Marked open Petri nets, their morphisms, and validation.

An open net is a labelled P/T net together with two sets of open places
(input open: the environment may create tokens there; output open: the
environment may remove them) and an initial marking.  Morphisms map places
to places and transitions to transitions, preserve pre/post-sets and labels,
reflect openness, and reflect the initial marking.

Every openness rule holds for both directions alike, so the code states it
once and runs it over `DIRECTIONS`.  A direction is named by its polarity,
"+" for input and "-" for output; `OpenNet.opens(polarity)` is the open
set of that direction, and each `DIRECTIONS` row carries the words the
messages use for it.  In the same way a morphism's two components, one on
places and one on transitions, obey the same rules, which run over
`COMPONENTS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter
from typing import Mapping

from . import multiset
from .errors import DomainMismatch, PlaceNotOpen, UnknownPlace
from .multiset import Multiset


@dataclass(frozen=True, eq=True)
class Transition:
    label: str
    pre: Multiset
    post: Multiset


@dataclass(frozen=True, eq=True)
class PetriNet:
    places: frozenset
    transitions: Mapping[str, Transition]


_NO_ARCS = (frozenset(), frozenset())

# (polarity, open-flag word, arc word) for each direction
DIRECTIONS = (("+", "input", "ingoing"), ("-", "output", "outgoing"))

# (item word, morphism component, net items) for each kind of item
COMPONENTS = (
    ("place", attrgetter("place_map"), attrgetter("places")),
    ("transition", attrgetter("trans_map"), attrgetter("transitions")),
)


@dataclass(frozen=True, eq=True)
class OpenNet:
    """A net with its open places and initial marking.

    Nets are immutable after construction: no code changes a net's
    transitions once it is built.  That is what lets the arc index, the
    producers and consumers of each place, be built on first use in one
    pass over the transitions and then kept for the net's lifetime.
    """

    net: PetriNet
    open_in: frozenset
    open_out: frozenset
    initial: Multiset

    @property
    def places(self) -> frozenset:
        return self.net.places

    @property
    def transitions(self) -> Mapping[str, Transition]:
        return self.net.transitions

    def label(self, t: str) -> str:
        return self.net.transitions[t].label

    def pre(self, t: str) -> Multiset:
        return self.net.transitions[t].pre

    def post(self, t: str) -> Multiset:
        return self.net.transitions[t].post

    @cached_property
    def _arcs(self) -> dict:
        """place -> (producers, consumers), for every place some arc touches."""
        arcs = {}
        for t, tr in self.net.transitions.items():
            for s in tr.post._entries:
                arcs.setdefault(s, ([], []))[0].append(t)
            for s in tr.pre._entries:
                arcs.setdefault(s, ([], []))[1].append(t)
        return {s: (frozenset(p), frozenset(c)) for s, (p, c) in arcs.items()}

    def place_producers(self, s: str) -> frozenset:
        """Transitions with s in their post-set."""
        return self._arcs.get(s, _NO_ARCS)[0]

    def place_consumers(self, s: str) -> frozenset:
        """Transitions with s in their pre-set."""
        return self._arcs.get(s, _NO_ARCS)[1]

    def opens(self, polarity: str) -> frozenset:
        """The input-open places for "+", the output-open ones for "-"."""
        return self.open_in if polarity == "+" else self.open_out

    def with_initial(self, marking: Multiset) -> "OpenNet":
        return replace(self, initial=marking)


def build_net(places, transitions=None, open_in=(), open_out=(), initial=None) -> OpenNet:
    """Convenience constructor from plain dicts.

    `transitions` maps ids to (label, pre, post) with pre/post given as
    place->count mappings (or iterables of places).
    """
    trans = {}
    for tid, (label, pre, post) in (transitions or {}).items():
        trans[tid] = Transition(label=label, pre=Multiset(pre), post=Multiset(post))
    return OpenNet(
        net=PetriNet(places=frozenset(places), transitions=trans),
        open_in=frozenset(open_in),
        open_out=frozenset(open_out),
        initial=Multiset(initial),
    )


@dataclass(frozen=True, eq=True)
class Morphism:
    """A structure-preserving map between open nets.

    The maps are stored explicitly; nothing is ever inferred from item
    names coinciding.
    """

    source: OpenNet
    target: OpenNet
    place_map: Mapping[str, str]
    trans_map: Mapping[str, str]

    def place_image(self) -> frozenset:
        return frozenset(self.place_map.values())

    def trans_image(self) -> frozenset:
        return frozenset(self.trans_map.values())

    def place_preimages(self, s: str) -> frozenset:
        return frozenset(x for x, y in self.place_map.items() if y == s)


def identity(z: OpenNet) -> Morphism:
    return Morphism(
        source=z,
        target=z,
        place_map={s: s for s in z.places},
        trans_map={t: t for t in z.transitions},
    )


def compose(f: Morphism, g: Morphism) -> Morphism:
    """The composite morphism applying f first, then g."""
    if f.target != g.source:
        raise DomainMismatch("target of the first morphism differs from source of the second")
    return Morphism(
        source=f.source,
        target=g.target,
        place_map={s: g.place_map[y] for s, y in f.place_map.items()},
        trans_map={t: g.trans_map[y] for t, y in f.trans_map.items()},
    )


def gained_places(f: Morphism, polarity: str) -> frozenset:
    """Source places whose image gains a producer ("+") or a consumer ("-")
    transition outside f's image.

    From the source's point of view these places receive tokens from, or
    lose tokens to, the environment, so a valid morphism requires them to
    be open that way.
    """
    arcs = OpenNet.place_producers if polarity == "+" else OpenNet.place_consumers
    return frozenset(
        s for s in f.source.places
        if arcs(f.target, f.place_map[s]) - {f.trans_map[t] for t in arcs(f.source, s)})


def is_embedding(f: Morphism) -> bool:
    """True iff both component maps are injective."""
    return len(set(f.place_map.values())) == len(f.place_map) and len(
        set(f.trans_map.values())
    ) == len(f.trans_map)


@dataclass(frozen=True)
class Issue:
    code: str
    message: str

    def __str__(self):
        return f"{self.code}: {self.message}"


@dataclass
class ValidationReport:
    issues: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, code: str, message: str):
        self.issues.append(Issue(code, message))

    def codes(self) -> set:
        return {issue.code for issue in self.issues}

    def __str__(self):
        if self.ok:
            return "ok"
        return "; ".join(sorted(map(str, self.issues)))


def validate_net(z: OpenNet) -> ValidationReport:
    """Check every structural invariant of an open net; empty report iff ok."""
    report = ValidationReport()
    places = z.places
    for item in sorted(places.intersection(z.transitions)):
        report.add("IdClash", f"{item!r} is declared both as a place and as a transition")
    # one superset test per arc side; only the transitions that fail it are
    # sorted and reported
    stray = [t for t, tr in z.transitions.items()
             if not (places.issuperset(tr.pre._entries) and places.issuperset(tr.post._entries))]
    for t in sorted(stray):
        tr = z.transitions[t]
        for s in sorted(tr.pre.support() - places):
            report.add("UnknownPlace", f"pre-set of {t!r} references undeclared place {s!r}")
        for s in sorted(tr.post.support() - places):
            report.add("UnknownPlace", f"post-set of {t!r} references undeclared place {s!r}")
    for polarity, word, _ in DIRECTIONS:
        for s in sorted(z.opens(polarity) - z.places):
            report.add("OpenPlaceNotDeclared", f"{word}-open place {s!r} is not declared")
    for s in sorted(z.initial.support() - z.places):
        report.add("UnknownPlace", f"initial marking references undeclared place {s!r}")
    return report


def validate_morphism(f: Morphism) -> ValidationReport:
    """Check totality, structure preservation, openness reflection and
    marking reflection; empty report iff f is a legal open-net morphism."""
    report = ValidationReport()
    src, tgt = f.source, f.target

    for kind, component, items in COMPONENTS:
        mapping = component(f)
        for x in sorted(x for x in items(src) if x not in mapping):
            report.add("NotTotal", f"{kind} {x!r} has no image")
    for kind, component, items in COMPONENTS:
        declared, images = items(src), items(tgt)
        for x, y in sorted(component(f).items()):
            if x not in declared:
                report.add("UnknownItem", f"{kind} map defined on undeclared {kind} {x!r}")
            if y not in images:
                report.add("ImageOutsideTarget", f"{kind} {x!r} maps to undeclared {y!r}")
    if not report.ok:
        return report

    for t in sorted(src.transitions):
        ft = f.trans_map[t]
        if tgt.label(ft) != src.label(t):
            report.add(
                "LabelMismatch",
                f"transition {t!r} is labelled {src.label(t)!r} but its image {ft!r} "
                f"is labelled {tgt.label(ft)!r}",
            )
        if tgt.pre(ft) != multiset.image(f.place_map, src.pre(t)):
            report.add("PrePostMismatch", f"pre-set of {t!r} is not preserved by the map")
        if tgt.post(ft) != multiset.image(f.place_map, src.post(t)):
            report.add("PrePostMismatch", f"post-set of {t!r} is not preserved by the map")

    for s in sorted(src.places):
        for polarity, word, _ in DIRECTIONS:
            if f.place_map[s] in tgt.opens(polarity) and s not in src.opens(polarity):
                report.add(
                    "OpennessReflectionViolated",
                    f"place {s!r} maps to an {word}-open place but is not {word} open",
                )
    for polarity, word, arc in DIRECTIONS:
        for s in sorted(gained_places(f, polarity) - src.opens(polarity)):
            report.add(
                "OpennessReflectionViolated",
                f"the image of {s!r} gains an {arc} arc, so {s!r} must be {word} open",
            )

    if src.initial != multiset.project(f.place_map, tgt.initial):
        report.add(
            "MarkingReflectionViolated",
            "initial marking of the source is not the projection of the target's",
        )
    return report


def close_place(z: OpenNet, s: str, polarity: str) -> OpenNet:
    """The same net with one open flag removed; marking unchanged."""
    if s not in z.places:
        raise UnknownPlace(f"no place {s!r} in the net")
    words = {sign: word for sign, word, _ in DIRECTIONS}
    if polarity not in words:
        raise ValueError(f"polarity must be '+' or '-', got {polarity!r}")
    if s not in z.opens(polarity):
        raise PlaceNotOpen(f"place {s!r} is not {words[polarity]} open")
    closed = z.opens(polarity) - {s}
    return replace(z, open_in=closed) if polarity == "+" else replace(z, open_out=closed)


@dataclass(frozen=True)
class Correspondence:
    """Paired bijections between the open-place sets of two nets.

    A place that is open in both directions may have different images under
    the input and output components.
    """

    eta_in: Mapping[str, str]
    eta_out: Mapping[str, str]

    def inverse(self) -> "Correspondence":
        return Correspondence(
            eta_in={v: k for k, v in self.eta_in.items()},
            eta_out={v: k for k, v in self.eta_out.items()},
        )


def validate_correspondence(eta: Correspondence, z1: OpenNet, z2: OpenNet) -> ValidationReport:
    report = ValidationReport()
    for name, mapping, dom, cod in (
        ("input", eta.eta_in, z1.open_in, z2.open_in),
        ("output", eta.eta_out, z1.open_out, z2.open_out),
    ):
        if frozenset(mapping) != dom:
            report.add("NotBijective", f"{name} component is not total on the open places")
        if frozenset(mapping.values()) != cod or len(set(mapping.values())) != len(mapping):
            report.add("NotBijective", f"{name} component is not a bijection onto the open places")
    return report
