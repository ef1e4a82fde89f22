"""Firing and step semantics of open nets.

Besides its own transitions, an open net executes environment interactions:
token creation on an input-open place and token deletion on an output-open
place.  A step runs a whole multiset of such events at once; a firing is the
step of exactly one event, so one step enumerator serves both modes.  This
module enumerates steps, builds the capped labelled transition systems
(firing or step variant), computes the weak closure with respect to a set of
silent labels, and projects/amalgamates steps across embeddings and pushouts
of open nets.

Markings are `Multiset`s at the API.  Step enumeration and the LTS build
lower the net once per call: a marking, and each event's pre-set and change,
become one int with a field of counts per place in sorted order (`_lower`).
The build expands each marking in one loop over its enabled events, each
giving its one-event step; only step mode with a bound above 1 goes on to
the larger steps.  An `Lts` keeps its states decoded, as tuples of counts
over its `places`.  Labels are kept once each in the label table and edges
carry their index, so the weak saturation, the renaming through a
correspondence and the bisimilarity check compare integers; only output
looks the states and the labels up.  The saturation (`saturate`) works on
per-state rows of label ids and targets, the layout the bisimilarity check
refines: `weak_closure` sorts its rows into an `Lts`, and a weak check
saturates the rows of its union in place.
"""

from __future__ import annotations

import collections
import itertools
import sys
from dataclasses import dataclass, replace

from . import multiset
from .composition import PushoutResult, places_square
from .errors import (
    IllegalEvent,
    InitialExceedsCap,
    InvalidBound,
    NotCompatible,
    NotEnabled,
    ProjectionMismatch,
    UnsupportedMode,
)
from .multiset import EMPTY, Multiset, format_counts
from .nets import Morphism, OpenNet

FIRING = "firing"
STEP = "step"

DEFAULT_CAP = 4
DEFAULT_MAX_STEP = 6

TRANS = "trans"
PLUS = "plus"
MINUS = "minus"


@dataclass(frozen=True, order=True)
class Event:
    """A transition firing or an environment interaction at an open place."""

    kind: str
    name: str

    def __str__(self):
        if self.kind == TRANS:
            return self.name
        return ("+" if self.kind == PLUS else "-") + self.name


def trans(t: str) -> Event:
    return Event(TRANS, t)


def plus(s: str) -> Event:
    return Event(PLUS, s)


def minus(s: str) -> Event:
    return Event(MINUS, s)


@dataclass(frozen=True, order=True)
class Obs:
    """One observation: a transition label or an interaction at an open place."""

    kind: str  # "lab" | "plus" | "minus"
    name: str

    def __str__(self):
        if self.kind == "lab":
            return self.name
        return ("+" if self.kind == PLUS else "-") + self.name


def observe(z: OpenNet, event: Event) -> Obs:
    """The labelling function, extended to interactions as the identity."""
    if event.kind == TRANS:
        return Obs("lab", z.label(event.name))
    return Obs(event.kind, event.name)


def _check_event(z: OpenNet, event: Event):
    if event.kind == TRANS:
        if event.name not in z.transitions:
            raise IllegalEvent(f"unknown transition {event.name!r}")
    elif event.kind == PLUS:
        if event.name not in z.open_in:
            raise IllegalEvent(f"place {event.name!r} is not input open")
    elif event.kind == MINUS:
        if event.name not in z.open_out:
            raise IllegalEvent(f"place {event.name!r} is not output open")
    else:
        raise IllegalEvent(f"unknown event kind {event.kind!r}")


def event_pre(z: OpenNet, event: Event) -> Multiset:
    if event.kind == TRANS:
        return z.pre(event.name)
    if event.kind == MINUS:
        return Multiset.of(event.name)
    return EMPTY


def event_post(z: OpenNet, event: Event) -> Multiset:
    if event.kind == TRANS:
        return z.post(event.name)
    if event.kind == PLUS:
        return Multiset.of(event.name)
    return EMPTY


def events_pre(z: OpenNet, events: Multiset) -> Multiset:
    return multiset.msum(event_pre(z, e).scale(n) for e, n in events.items())


def events_post(z: OpenNet, events: Multiset) -> Multiset:
    return multiset.msum(event_post(z, e).scale(n) for e, n in events.items())


@dataclass(frozen=True)
class Step:
    """A multiset of events together with its source and target markings."""

    events: Multiset
    source: Multiset
    target: Multiset


def fire(z: OpenNet, u: Multiset, events: Multiset) -> Multiset:
    """Execute a multiset of events at marking u; returns the new marking."""
    for event in events.support():
        _check_event(z, event)
    needed = events_pre(z, events)
    if not needed <= u:
        raise NotEnabled(f"events need {needed} but the marking is {u}")
    return (u - needed) + events_post(z, events)


def make_step(z: OpenNet, u: Multiset, events: Multiset) -> Step:
    return Step(events=events, source=u, target=fire(z, u, events))


def is_valid_step(z: OpenNet, step: Step) -> bool:
    try:
        return fire(z, step.source, step.events) == step.target
    except (NotEnabled, IllegalEvent):
        return False


def all_events(z: OpenNet) -> list:
    """Every extended event of the net, in canonical order."""
    events = [trans(t) for t in z.transitions]
    events += [plus(s) for s in z.open_in]
    events += [minus(s) for s in z.open_out]
    return sorted(events)


def _lower(z: OpenNet, u: Multiset, cap: int, max_step: int):
    """The places in sorted order (u's included), the events in `all_events`
    order, and the net and u packed: a marking is one int whose field i,
    `size` bytes wide, holds the count of place i.  `size` is the smallest of
    1, 2, 4, 8, 16, ... bytes that keeps below the field's top bit the
    largest pre weight and every count a step from u reaches, at most
    max(cap, u's counts) plus max_step times the largest post weight.  Each
    event gets its pre-set `need`, its change post − pre `delta` (a signed
    int) and the top bits `pmask` of its pre-set places; `guard` holds every
    field's top bit, `ones` 2^(w−1) − 1 and `over` 2^(w−1) − 1 − cap in
    every w-bit field, and `decode` turns a packed marking into its counts.
    """
    places = tuple(sorted(set(z.places) | u.support()))
    index = {s: i for i, s in enumerate(places)}
    events = all_events(z)
    pres = [event_pre(z, e).items() for e in events]
    posts = [event_post(z, e).items() for e in events]
    top = max([cap, *(c for _, c in u.items()), *(c for pre in pres for _, c in pre)])
    top += max_step * max((c for post in posts for _, c in post), default=0)
    size = 1
    while top >> 8 * size - 1:
        size *= 2
    width, n = 8 * size, len(places)
    field = sum(1 << width * i for i in range(n))  # 1 in every field
    guard = field << width - 1
    ones = guard - field

    def pack(items) -> int:
        return sum(c << width * index[s] for s, c in items)

    if size <= 8:  # a machine word per field: read them all at once
        fmt, little = {1: "B", 2: "H", 4: "I", 8: "Q"}[size], sys.byteorder == "little"

        def decode(m: int) -> tuple:
            fields = memoryview(m.to_bytes(size * n, sys.byteorder)).cast(fmt)
            return tuple(fields if little else fields[::-1])
    else:
        def decode(m: int) -> tuple:
            return tuple(m >> width * i & (1 << width) - 1 for i in range(n))

    need = [pack(pre) for pre in pres]
    delta = [pack(post) - pre for post, pre in zip(posts, need)]
    pmask = [(pre + ones) & guard for pre in need]
    return (places, events, need, delta, pmask, guard, ones, ones - cap * field,
            pack(u.items()), decode)


def _enabled(need, pmask, guard, ones, u: int) -> list:
    """The indices of the events enabled at the packed marking u, ascending.

    No count reaches a field's top bit (see `_lower`), so free − need and
    target + delta never borrow from or carry into a neighbouring field, and
    with every top bit set in the marking `free`, an event is enabled when
    free − need keeps them all.  An event with a pre-set place empty at u is
    skipped at once.
    """
    empty = guard & ~(u + ones)  # the top bits of the places empty at u
    free = u | guard
    return [e for e in range(len(need))
            if not pmask[e] & empty and (free - need[e]) & guard == guard]


def _larger_steps(need, delta, guard, enabled, u: int, max_step: int) -> list:
    """Every multiset of 2 to max_step events enabled together at the packed
    marking u, drawn from `enabled` (`_enabled`'s list).

    Returns (event indices ascending, packed target) pairs in (size,
    elements) order, wherever the target lands: each step of one size is
    extended, in order, by the events from its last one on, so the next
    size comes out in order too.  Every pre-set is drawn from u itself, so
    a post-set never enables another event of the same step, and an event
    not enabled alone is in no step.
    """
    found = []
    # (events, position of the last one in `enabled`, marking left, target)
    layer = [((e,), k, (u | guard) - need[e], u + delta[e]) for k, e in enumerate(enabled)]
    for _ in range(max_step - 1):
        larger = []
        for chosen, last, free, target in layer:
            for k in range(last, len(enabled)):
                e = enabled[k]
                if (rest := free - need[e]) & guard == guard:
                    larger.append((chosen + (e,), k, rest, target + delta[e]))
        if not larger:
            break
        found += [(chosen, target) for chosen, _, _, target in larger]
        layer = larger
    return found


def _step_bound(mode: str, max_step: int, cap: int) -> int:
    """The most events in one step: 1 when firing.  An unknown mode is
    refused first, then a negative bound."""
    if mode not in (FIRING, STEP):
        raise UnsupportedMode(f"unknown mode {mode!r}; expected {FIRING!r} or {STEP!r}")
    if cap < 0 or max_step < 0:
        raise InvalidBound(
            f"the cap ({cap}) and the step bound ({max_step}) must be non-negative")
    return 1 if mode == FIRING else max_step


def enabled_steps(z: OpenNet, u: Multiset, mode: str = FIRING,
                  cap: int = DEFAULT_CAP, max_step: int = DEFAULT_MAX_STEP) -> list:
    """All steps executable at u, in canonical order.

    Firing mode lists every single-event step regardless of where it lands;
    step mode lists every non-empty multiset of at most max_step events
    whose target stays within the per-place cap.  An unknown mode and a
    negative bound are refused as `build_lts` refuses them.
    """
    bound = _step_bound(mode, max_step, cap)
    places, events, need, delta, pmask, guard, ones, over, marking, decode = _lower(
        z, u, cap, bound)
    enabled = _enabled(need, pmask, guard, ones, marking) if bound else []
    steps = [((e,), marking + delta[e]) for e in enabled]
    if bound > 1:
        steps += _larger_steps(need, delta, guard, enabled, marking, bound)
    return [
        Step(events=Multiset(events[e] for e in chosen), source=u,
             target=Multiset(dict(zip(places, decode(target)))))
        for chosen, target in steps
        if mode == FIRING or not (target + over) & guard
    ]


def project_event(f: Morphism, event: Event) -> Multiset:
    """Project one event of the target net along an embedding.

    A transition in the image projects to its unique preimage; a transition
    outside the image is seen as interactions on the interface places it
    touches; an interaction projects to the corresponding interaction on the
    preimage place (empty when there is none).
    """
    src = f.source
    if event.kind == TRANS:
        for t, ft in f.trans_map.items():
            if ft == event.name:
                return Multiset.of(trans(t))
        consumed = multiset.project(f.place_map, f.target.pre(event.name))
        produced = multiset.project(f.place_map, f.target.post(event.name))
        data = {}
        for s, n in consumed.items():
            data[minus(s)] = n
        for s, n in produced.items():
            data[plus(s)] = data.get(plus(s), 0) + n
        return Multiset(data)
    preimage = multiset.project(f.place_map, Multiset.of(event.name))
    maker = plus if event.kind == PLUS else minus
    return Multiset({maker(s): n for s, n in preimage.items()})


def project_events(f: Morphism, events: Multiset) -> Multiset:
    return multiset.msum(project_event(f, e).scale(n) for e, n in events.items())


def image_event(f: Morphism, event: Event) -> Event:
    """Map an event of the source forward; interactions require the image
    place to be open in the target, otherwise the image is undefined."""
    if event.kind == TRANS:
        return trans(f.trans_map[event.name])
    s = f.place_map[event.name]
    if event.kind == PLUS:
        if s not in f.target.open_in:
            raise IllegalEvent(f"image place {s!r} is not input open")
        return plus(s)
    if s not in f.target.open_out:
        raise IllegalEvent(f"image place {s!r} is not output open")
    return minus(s)


def image_events(f: Morphism, events: Multiset) -> Multiset:
    return Multiset({image_event(f, e): n for e, n in events.items()})


def project_step(f: Morphism, step: Step) -> Step:
    """Project a step of the target net to a step of the source net.

    The result is always a valid step: embeddings reflect behaviour.
    """
    return Step(
        events=project_events(f, step.events),
        source=multiset.project(f.place_map, step.source),
        target=multiset.project(f.place_map, step.target),
    )


@dataclass(frozen=True)
class StepSplit:
    """A decomposition of two component steps into internal/external parts."""

    a1_internal: Multiset
    a1_external: Multiset
    a2_internal: Multiset
    a2_external: Multiset


def compose_steps(po: PushoutResult, st1: Step, st2: Step, split: StepSplit) -> Step:
    """Amalgamate two compatible component steps into a step of the glued net.

    The split must partition each step's events so that the external part of
    each side is exactly the mirror image of the other side's internal part
    through the interface.
    """
    for side, z, st, internal, external in (
        ("first", po.f1.target, st1, split.a1_internal, split.a1_external),
        ("second", po.f2.target, st2, split.a2_internal, split.a2_external),
    ):
        for event, _ in st.events.items():
            if event.name not in (z.transitions if event.kind == TRANS else z.places):
                raise NotCompatible(f"the {side} step holds {event}, which its net does not have")
        if st.events != internal + external:
            raise NotCompatible(f"split does not partition the {side} step's events")
    u0_left = multiset.project(po.f1.place_map, st1.source)
    u0_right = multiset.project(po.f2.place_map, st2.source)
    if u0_left != u0_right:
        raise ProjectionMismatch(
            f"source markings disagree on the interface: {u0_left} vs {u0_right}"
        )
    try:
        mirror2 = image_events(po.f2, project_events(po.f1, split.a1_internal))
        mirror1 = image_events(po.f1, project_events(po.f2, split.a2_internal))
    except IllegalEvent as exc:
        raise NotCompatible(f"internal part has no mirror image: {exc}") from exc
    for side, external, mirror in (
        ("second", split.a2_external, mirror2),
        ("first", split.a1_external, mirror1),
    ):
        if external != mirror:
            raise NotCompatible(
                f"external part of the {side} step is {external}, "
                f"expected the mirror {mirror}"
            )
    try:
        events = image_events(po.alpha1, split.a1_internal) + image_events(
            po.alpha2, split.a2_internal
        )
    except IllegalEvent as exc:
        raise NotCompatible(f"internal events cannot be embedded: {exc}") from exc
    square = places_square(po)
    source = multiset.join(st1.source, st2.source, square)
    target = multiset.join(st1.target, st2.target, square)
    return Step(events=events, source=source, target=target)


def decompose_step(po: PushoutResult, st3: Step):
    """Project a step of the glued net onto both components, with a split.

    The canonical split sends private transitions and interactions on private
    places to the internal part of their own side, and everything shared
    (interface transitions and interactions on interface places) to the
    internal part of the second component.  Composing the result gives back
    the original step.
    """
    st1 = project_step(po.alpha1, st3)
    st2 = project_step(po.alpha2, st3)

    image1_trans = po.alpha1.trans_image()
    shared_trans = {po.alpha1.trans_map[po.f1.trans_map[t0]] for t0 in po.z0.transitions}
    image1_places = po.alpha1.place_image()

    left_private = {}
    for event, n in st3.events.items():
        if event.kind == TRANS:
            if event.name in image1_trans and event.name not in shared_trans:
                left_private[event] = n
        else:
            if event.name in image1_places and event.name not in po.alpha2.place_image():
                left_private[event] = n
    a1_internal = project_events(po.alpha1, Multiset(left_private))
    a1_external = st1.events - a1_internal
    rest = st3.events - Multiset(left_private)
    a2_internal = project_events(po.alpha2, rest)
    a2_external = st2.events - a2_internal
    split = StepSplit(
        a1_internal=a1_internal,
        a1_external=a1_external,
        a2_internal=a2_internal,
        a2_external=a2_external,
    )
    return st1, st2, split


class _OverflowState:
    """Absorbing placeholder for markings outside the cap region."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "OVERFLOW"


OVERFLOW = _OverflowState()


@dataclass
class Lts:
    """A finite labelled transition system over markings.

    States are markings within the cap, as tuples of counts over `places`,
    plus at most one `OVERFLOW`.  `labels` holds each distinct label once: a
    single observation (firing mode), a multiset of observations (step mode)
    or the silent label of a weak closure.  An edge carries its label index.
    """

    states: list
    places: tuple
    labels: list
    edges: list  # (source index, label index, target index)
    initial: int
    mode: str
    cap: int

    def labelled_edges(self) -> list:
        """The edges as (source index, label, target index)."""
        return [(src, self.labels[label], dst) for src, label, dst in self.edges]

    def has_overflow(self) -> bool:
        return any(state is OVERFLOW for state in self.states)

    def marking(self, i: int):
        """State i as a `Multiset`; the overflow state stays `OVERFLOW`."""
        state = self.states[i]
        return state if state is OVERFLOW else Multiset(dict(zip(self.places, state)))


def label_sort_key(label):
    """A total order on every label shape an Lts can carry.

    Used only where an order is part of the output: the edge order of
    weak_closure and the canonical challenge of a distinguishing play.
    """
    if label is None:
        return ("0silent",)
    if isinstance(label, Obs):
        return ("1obs", label.kind, label.name)
    if isinstance(label, Multiset):
        flat = tuple((item.kind, item.name, n) for item, n in label.items())
        return ("2multi",) + flat
    return ("3other", repr(label))


class _Search:
    """The breadth-first search of `build_lts`, run a level at a time.

    The search keys its states by packed marking (`_lower`): a target is
    over the cap when (target + over) sets a top bit.  `packed` lists them
    in the order found; `states` decodes each one the first time it is
    read, so a search in progress lists `states`, `labels` and `edges` as an
    `Lts` does, and its `initial` state is 0, while a search that runs on
    unread (to learn whether it overflows) decodes nothing.  After k calls
    of `level`, the first k levels hold every state within distance k of
    the initial marking, and `edges` the edges of every state within
    distance k − 1, in the order `build_lts` lists them; `done` tells when
    nothing is left.  `labels` maps each label found so far to its index;
    `event_labels` gives each event's one-event step its label index, and
    `step_labels` each larger step's, both filled when first fired.
    """

    initial = 0

    def __init__(self, z: OpenNet, mode: str, cap: int, max_step: int):
        bound = _step_bound(mode, max_step, cap)
        if any(n > cap for _, n in z.initial.items()):
            raise InitialExceedsCap(f"marking {z.initial} exceeds the per-place cap {cap}")
        self.mode, self.cap, self.bound = mode, cap, bound
        (self.places, events, self.need, self.delta, self.pmask, self.guard, self.ones,
         self.over, first, self.decode) = _lower(z, z.initial, cap, bound)
        self.observed = [observe(z, e) for e in events]
        # two events share a label exactly when they observe the same
        counts = collections.Counter(self.observed)
        self.shared = [counts[obs] > 1 for obs in self.observed]
        self.labels = {}  # label -> label index; equal labels share one index
        self.event_labels = [None] * len(events)  # event index -> label index
        self.step_labels = {}  # event indices of a larger step -> label index
        self.packed = [first]
        self.decoded = []  # states[:len(decoded)], decoded
        self.index = {first: 0}
        self.edges = []
        self.expanded = 0  # packed[:expanded] have their edges listed

    @property
    def states(self) -> list:
        """Every state found so far, each decoded when first read."""
        decoded, decode = self.decoded, self.decode
        decoded += [m if m is OVERFLOW else decode(m)
                    for m in itertools.islice(self.packed, len(decoded), None)]
        return decoded

    @property
    def done(self) -> bool:
        return self.expanded == len(self.packed)

    @property
    def overflowed(self) -> bool:
        return OVERFLOW in self.index

    def _label(self, chosen) -> int:
        """The label index of the step of the events `chosen`."""
        observed = self.observed
        obs = (observed[chosen[0]] if self.mode == FIRING
               else Multiset(observed[e] for e in chosen))
        return self.labels.setdefault(obs, len(self.labels))

    def level(self):
        """List the edges of every state found but not yet expanded.

        Each enabled event gives its one-event step; an edge is listed once
        per (label, target), so only events that share a label are checked
        against the edges already listed.  Larger steps, listed after them,
        are always checked.
        """
        need, delta, pmask, guard, ones, over, bound = (
            self.need, self.delta, self.pmask, self.guard, self.ones, self.over, self.bound)
        event_labels, shared, step_labels, packed, index, edges = (
            self.event_labels, self.shared, self.step_labels, self.packed, self.index,
            self.edges)
        stop = len(packed)
        for src in range(self.expanded, stop):
            u = packed[src]
            if u is OVERFLOW or not bound:
                continue
            enabled = _enabled(need, pmask, guard, ones, u)
            seen = set()
            for e in enabled:
                label = event_labels[e]
                if label is None:
                    label = event_labels[e] = self._label((e,))
                target = u + delta[e]
                if (target + over) & guard:
                    target = OVERFLOW
                dst = index.get(target)
                if dst is None:
                    dst = index[target] = len(packed)
                    packed.append(target)
                if shared[e]:
                    if (label, dst) in seen:
                        continue
                    seen.add((label, dst))
                edges.append((src, label, dst))
            if bound == 1:
                continue
            for chosen, target in _larger_steps(need, delta, guard, enabled, u, bound):
                label = step_labels.get(chosen)
                if label is None:
                    label = step_labels[chosen] = self._label(chosen)
                if (target + over) & guard:
                    target = OVERFLOW
                dst = index.get(target)
                if dst is None:
                    dst = index[target] = len(packed)
                    packed.append(target)
                if (label, dst) not in seen:
                    seen.add((label, dst))
                    edges.append((src, label, dst))
        self.expanded = stop

    def lts(self) -> Lts:
        """Run the search to the end; its index is dropped."""
        while not self.done:
            self.level()
        del self.index
        return Lts(self.states, self.places, list(self.labels), self.edges, initial=0,
                   mode=self.mode, cap=self.cap)


def build_lts(z: OpenNet, mode: str = FIRING, cap: int = DEFAULT_CAP,
              max_step: int = DEFAULT_MAX_STEP, *, search: _Search | None = None) -> Lts:
    """Breadth-first exploration of the capped marking space.

    Any step that would leave the cap region leads to the absorbing overflow
    state, which has no outgoing edges.  Exploration order is canonical, so
    repeated runs yield identical state and edge lists.  A firing is the
    step of one event, so firing mode explores the steps of size 1.

    The exploration goes a level at a time (`_Search`), so for every k the
    states within distance k of the initial marking are a prefix of
    `states`, and the edges of the states within distance k − 1, which all
    land among them, are a prefix of `edges`.  `search`, when given, is a
    search of z with these bounds that a caller has started; it is run on to
    the end instead of a new one.
    """
    return (search or _Search(z, mode, cap, max_step)).lts()


def silent_label(mode: str):
    """The label of a weak closure's silent moves: None in firing mode, the
    empty step in step mode.  It observes nothing, so it is silent."""
    return None if mode == FIRING else EMPTY


def saturate(labels, targets, table, mode: str, tau_labels, skip):
    """The weak moves of a system whose state x has the edges
    zip(labels[x], targets[x]), label ids indexing `table`.

    A label is silent when every observation in it is a silent transition
    label, and visible when none is; interactions at open places are never
    silent, and a step mixing silent and visible observations is neither,
    so it is dropped.  `table` must hold `silent_label(mode)`.  For each
    state, its visible moves followed by its silent reach are taken once;
    the weak row of state i then maps the silent label to every j reachable
    by silent edges (i itself included), and each visible label a to every
    k at the end of a silent*;a;silent* path from i.  Yields a row per
    state, in order, as a dict from label id to a set of targets, once every
    strong row is read; the states in `skip` (the overflow state) get an
    empty row.  The targets are the int objects of `targets` and of
    `range(len(labels))`, so the rows share them.
    """
    tau_labels = frozenset(tau_labels)
    kinds = []  # per label id: True silent, False visible, None neither
    for label in table:
        observed = () if label is None else (label,) if mode == FIRING else label.support()
        tau = [o.kind == "lab" and o.name in tau_labels for o in observed]
        kinds.append(True if all(tau) else None if any(tau) else False)
    silent = table.index(silent_label(mode))
    states = range(len(labels))
    succ = [[d for a, d in zip(lbls, dsts) if kinds[a]] for lbls, dsts in zip(labels, targets)]
    reach = []
    for i in states:
        found = {i}
        if succ[i]:
            queue = [i]
            for x in queue:
                for y in succ[x]:
                    if y not in found:
                        found.add(y)
                        queue.append(y)
        reach.append(found)
    after = []  # per state: its visible moves followed by silent reach
    for lbls, dsts in zip(labels, targets):
        moves = {}
        for a, d in zip(lbls, dsts):
            if kinds[a] is False:
                got = moves.get(a)
                moves[a] = reach[d] if got is None else got | reach[d]
        after.append(moves)
    for i in states:
        if i in skip:
            yield {}
            continue
        if len(reach[i]) == 1:
            row = dict(after[i])  # its sets are shared, never updated
        else:
            row = {}
            for j in reach[i]:
                for a, ks in after[j].items():
                    got = row.get(a)
                    if got is None:
                        row[a] = set(ks)
                    else:
                        got |= ks
        row[silent] = reach[i]
        yield row


def weak_closure(lts: Lts, tau_labels) -> Lts:
    """Saturate an Lts with weak transitions (`saturate`).

    The silent label joins the label table unless it is there already; it
    observes nothing, so it is silent when a closure is closed again, and
    that gives the closure back unchanged.  A state's edges are ordered by
    label (`label_sort_key`), then target.
    """
    silent = silent_label(lts.mode)
    labels = lts.labels if silent in lts.labels else [*lts.labels, silent]
    rows_labels, rows_targets = [[] for _ in lts.states], [[] for _ in lts.states]
    for src, label, dst in lts.edges:
        rows_labels[src].append(label)
        rows_targets[src].append(dst)
    skip = {i for i, state in enumerate(lts.states) if state is OVERFLOW}
    rank = sorted(range(len(labels)), key=lambda label: label_sort_key(labels[label]))
    rank = {label: r for r, label in enumerate(rank)}
    edges = []
    for i, row in enumerate(saturate(rows_labels, rows_targets, labels, lts.mode, tau_labels,
                                     skip)):
        for a in sorted(row, key=rank.__getitem__):
            edges += [(i, a, k) for k in sorted(row[a])]
    return replace(lts, labels=labels, edges=edges)


def relabel(lts: Lts, fn) -> Lts:
    """The Lts with fn applied to every observation of every non-silent label.

    Only the label table is renamed: the result shares the states and the
    edges of `lts`.
    """
    return replace(lts, labels=[rename_label(label, fn) for label in lts.labels])


def rename_label(label, fn):
    """The label with fn applied to each of its observations."""
    if label is None:
        return label
    if isinstance(label, Obs):
        return fn(label)
    return Multiset({fn(o): n for o, n in label.items()})


def format_marking(places, state) -> str:
    """The text of an `Lts` state over its `places`, as `str` of its
    `Multiset` writes it; the overflow state reads "OVERFLOW"."""
    return "OVERFLOW" if state is OVERFLOW else format_counts(zip(places, state))


def format_label(label) -> str:
    if label is None:
        return "0"
    if isinstance(label, Multiset):
        return "{" + ",".join(str(o) if n == 1 else f"{o}:{n}" for o, n in label.items()) + "}"
    return str(label)


def to_dot(lts: Lts, name: str = "lts") -> str:
    """Graphviz rendering; the overflow state is drawn as a double octagon.
    A name that is not a plain DOT identifier is quoted, and labels are escaped."""
    def quote(text):
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    plain = name.isascii() and name.isidentifier() and name.lower() not in (
        "graph", "digraph", "subgraph", "node", "edge", "strict")
    lines = [f"digraph {name if plain else quote(name)} {{", "  rankdir=LR;"]
    for i, state in enumerate(lts.states):
        if state is OVERFLOW:
            lines.append(f'  n{i} [label="overflow", shape=doubleoctagon];')
        else:
            shape = ", shape=box" if i == lts.initial else ""
            lines.append(f"  n{i} [label={quote(format_marking(lts.places, state))}{shape}];")
    for src, label, dst in lts.labelled_edges():
        lines.append(f"  n{src} -> n{dst} [label={quote(format_label(label))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
