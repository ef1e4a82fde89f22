"""Firing and step semantics of open nets.

Besides its own transitions, an open net executes environment interactions:
token creation on an input-open place and token deletion on an output-open
place.  A step runs a whole multiset of such events at once; a firing is a
singleton step.  This module enumerates steps, builds the capped labelled
transition systems (firing or step variant), computes the weak closure with
respect to a set of silent labels, and projects/amalgamates steps across
embeddings and pushouts of open nets.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import multiset
from .composition import PushoutResult, places_square
from .errors import (
    IllegalEvent,
    InitialExceedsCap,
    InvalidBound,
    NotCompatible,
    NotEnabled,
    ProjectionMismatch,
)
from .multiset import EMPTY, Multiset
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


def _within_cap(u: Multiset, cap: int) -> bool:
    return all(count <= cap for _, count in u.items())


def _step_key(step: Step):
    return (step.events.size(), tuple(step.events.elements()))


def _candidate_steps(z, u, mode, cap, max_step, keep_overflowing):
    """Enumerate steps from u; optionally keep steps whose target breaks the cap."""
    if mode == FIRING:
        steps = []
        for event in all_events(z):
            if event_pre(z, event) <= u:
                target = (u - event_pre(z, event)) + event_post(z, event)
                if keep_overflowing or _within_cap(target, cap):
                    steps.append(Step(events=Multiset.of(event), source=u, target=target))
        return steps

    generators = all_events(z)
    found = []

    def extend(index, chosen, remaining_pre):
        if index == len(generators):
            if chosen:
                events = Multiset(dict(chosen))
                target = (u - events_pre(z, events)) + events_post(z, events)
                if keep_overflowing or _within_cap(target, cap):
                    found.append(Step(events=events, source=u, target=target))
            return
        event = generators[index]
        count = 0
        pre = event_pre(z, event)
        budget = max_step - sum(chosen.values())
        while count <= budget:
            if count:
                chosen[event] = count
            extend(index + 1, chosen, remaining_pre - pre.scale(count))
            if count:
                del chosen[event]
            count += 1
            if not pre.scale(count) <= remaining_pre or count > budget:
                break
        return

    extend(0, {}, u)
    return sorted(found, key=_step_key)


def enabled_steps(z: OpenNet, u: Multiset, mode: str = FIRING,
                  cap: int = DEFAULT_CAP, max_step: int = DEFAULT_MAX_STEP) -> list:
    """All steps executable at u, in canonical order.

    Firing mode lists every single-event step regardless of where it lands;
    step mode lists every non-empty multiset of at most max_step events
    whose target stays within the per-place cap.
    """
    keep = mode == FIRING
    return _candidate_steps(z, u, mode, cap, max_step, keep_overflowing=keep)


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
    if st1.events != split.a1_internal + split.a1_external:
        raise NotCompatible("split does not partition the first step's events")
    if st2.events != split.a2_internal + split.a2_external:
        raise NotCompatible("split does not partition the second step's events")
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
    if split.a2_external != mirror2:
        raise NotCompatible(
            f"external part of the second step is {split.a2_external}, "
            f"expected the mirror {mirror2}"
        )
    if split.a1_external != mirror1:
        raise NotCompatible(
            f"external part of the first step is {split.a1_external}, "
            f"expected the mirror {mirror1}"
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

    States are markings within the cap plus at most one overflow state;
    edges carry a single observation (firing mode), a multiset of
    observations (step mode), or None for silent weak transitions.
    """

    states: list
    edges: list  # (source index, label, target index)
    initial: int
    mode: str
    cap: int

    def successors(self):
        out = [[] for _ in self.states]
        for src, label, dst in self.edges:
            out[src].append((label, dst))
        return out

    def has_overflow(self) -> bool:
        return any(state is OVERFLOW for state in self.states)


def label_sort_key(label):
    """A total order on every label shape an Lts can carry."""
    if label is None:
        return ("0silent",)
    if isinstance(label, Obs):
        return ("1obs", label.kind, label.name)
    if isinstance(label, Multiset):
        flat = tuple((item.kind, item.name, n) for item, n in label.items())
        return ("2multi",) + flat
    return ("3other", repr(label))


def _label_of(z: OpenNet, events: Multiset, mode: str):
    if mode == FIRING:
        (event,) = tuple(events.support())
        return observe(z, event)
    data = {}
    for event, n in events.items():
        obs = observe(z, event)
        data[obs] = data.get(obs, 0) + n
    return Multiset(data)


def build_lts(z: OpenNet, mode: str = FIRING, cap: int = DEFAULT_CAP,
              max_step: int = DEFAULT_MAX_STEP, root: Multiset | None = None) -> Lts:
    """Breadth-first exploration of the capped marking space.

    Any step that would leave the cap region leads to the absorbing overflow
    state, which has no outgoing edges.  Exploration order is canonical, so
    repeated runs yield identical state and edge lists.
    """
    if cap < 0 or max_step < 0:
        raise InvalidBound(f"the cap ({cap}) and the step bound ({max_step}) must be non-negative")
    start = z.initial if root is None else root
    if not _within_cap(start, cap):
        raise InitialExceedsCap(f"marking {start} exceeds the per-place cap {cap}")
    states = [start]
    index = {start: 0}
    edges = []
    seen = set()
    overflow_index = None
    frontier = 0
    while frontier < len(states):
        u = states[frontier]
        if u is not OVERFLOW:
            for step in _candidate_steps(z, u, mode, cap, max_step, keep_overflowing=True):
                label = _label_of(z, step.events, mode)
                if _within_cap(step.target, cap):
                    if step.target not in index:
                        index[step.target] = len(states)
                        states.append(step.target)
                    edge = (frontier, label, index[step.target])
                else:
                    if overflow_index is None:
                        overflow_index = len(states)
                        states.append(OVERFLOW)
                        index[OVERFLOW] = overflow_index
                    edge = (frontier, label, overflow_index)
                if edge not in seen:
                    seen.add(edge)
                    edges.append(edge)
        frontier += 1
    return Lts(states=states, edges=edges, initial=0, mode=mode, cap=cap)


def _is_silent(label, mode: str, tau_labels) -> bool:
    if mode == FIRING:
        return label.kind == "lab" and label.name in tau_labels
    return all(obs.kind == "lab" and obs.name in tau_labels for obs, _ in label.items())


def weak_closure(lts: Lts, tau_labels) -> Lts:
    """Saturate an Lts with weak transitions.

    Silent edges are those whose label projects to nothing once the silent
    transition labels are dropped; interactions at open places are never
    silent.  The result has an edge labelled None for every silent path
    (reflexively, except out of the overflow state) and an edge for every
    silent*;visible;silent* path, where the visible step contains no
    silent-labelled transition at all.
    """
    tau_labels = frozenset(tau_labels)
    n = len(lts.states)
    silent_succ = [set() for _ in range(n)]
    visible = []
    for src, label, dst in lts.edges:
        if _is_silent(label, lts.mode, tau_labels):
            silent_succ[src].add(dst)
        elif lts.mode == FIRING:
            visible.append((src, label, dst))
        else:
            stripped = Multiset(
                {obs: cnt for obs, cnt in label.items()
                 if not (obs.kind == "lab" and obs.name in tau_labels)}
            )
            if stripped == label:
                visible.append((src, label, dst))

    closure = []
    for i in range(n):
        reach = {i}
        queue = [i]
        while queue:
            x = queue.pop()
            for y in silent_succ[x]:
                if y not in reach:
                    reach.add(y)
                    queue.append(y)
        closure.append(reach)

    silent_label = None if lts.mode == FIRING else EMPTY
    new_edges = set()
    for i in range(n):
        if lts.states[i] is OVERFLOW:
            continue
        for j in closure[i]:
            new_edges.add((i, silent_label, j))
    for src, label, dst in visible:
        starts = [i for i in range(n) if src in closure[i] and lts.states[i] is not OVERFLOW]
        for i in starts:
            for j in closure[dst]:
                new_edges.add((i, label, j))

    ordered = sorted(new_edges, key=lambda e: (e[0], label_sort_key(e[1]), e[2]))
    return Lts(states=list(lts.states), edges=ordered, initial=lts.initial,
               mode=lts.mode, cap=lts.cap)


def relabel(lts: Lts, fn) -> Lts:
    """A copy of the Lts with fn applied to every non-silent label."""
    edges = []
    for src, label, dst in lts.edges:
        if label is None:
            edges.append((src, None, dst))
        elif isinstance(label, Obs):
            edges.append((src, fn(label), dst))
        else:
            edges.append((src, Multiset({fn(o): n for o, n in label.items()}), dst))
    return Lts(states=list(lts.states), edges=edges, initial=lts.initial,
               mode=lts.mode, cap=lts.cap)


def format_marking(state) -> str:
    if state is OVERFLOW:
        return "OVERFLOW"
    return str(state)


def format_label(label) -> str:
    if label is None:
        return "0"
    if isinstance(label, Obs):
        return str(label)
    if isinstance(label, Multiset):
        if not label:
            return "{}"
        return "{" + ",".join(
            str(o) if n == 1 else f"{o}:{n}" for o, n in label.items()
        ) + "}"
    return str(label)


def to_dot(lts: Lts, name: str = "lts") -> str:
    """Graphviz rendering; the overflow state is drawn as a double octagon."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for i, state in enumerate(lts.states):
        if state is OVERFLOW:
            lines.append(f'  n{i} [label="overflow", shape=doubleoctagon];')
        else:
            shape = ", shape=box" if i == lts.initial else ""
            lines.append(f'  n{i} [label="{format_marking(state)}"{shape}];')
    for src, label, dst in lts.edges:
        lines.append(f'  n{src} -> n{dst} [label="{format_label(label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
