"""Shared nets, generators and helpers for the test suite.

The example nets are reconstructions used across many tests: two travel
agencies that differ only in the degree of parallelism, a pair of nets
mirroring the classic silent-prefix situation from process calculi, a
token-absorbing loop on an input-open place, and two rules on a quote
service with an interface of one input and one output place: one refines
it (and changes behaviour), one duplicates its transition (and preserves
behaviour).  The slow fixpoint algorithms at the end are the oracles the
refinement engine is checked against.
"""

from __future__ import annotations

import itertools
import random

from opennet import build_net, identity
from opennet.errors import NotEnabled
from opennet.multiset import Multiset
from opennet.nets import Correspondence, Morphism, OpenNet, PetriNet, Transition
from opennet import nets as netmod
from opennet.rewriting import Rule
from opennet.semantics import FIRING, OVERFLOW, Step, all_events, fire, observe

# ---------------------------------------------------------------- fixtures


def agency_a() -> OpenNet:
    """Independent flight and hotel booking; the two can run in parallel."""
    return build_net(
        places=["p1", "p2", "q1", "q2"],
        transitions={
            "tF": ("bookFlight", {"p1": 1}, {"q1": 1}),
            "tH": ("bookHotel", {"p2": 1}, {"q2": 1}),
        },
        initial={"p1": 1, "p2": 1},
    )


def weighted(open_in=True) -> OpenNet:
    """t takes three tokens from a and puts two on b, u moves one back;
    b is output-open, and a input-open unless open_in is false."""
    return build_net(
        places=["a", "b"],
        transitions={"t": ("t", {"a": 3}, {"b": 2}), "u": ("u", {"b": 1}, {"a": 1})},
        open_in=["a"] if open_in else [],
        open_out=["b"],
        initial={"a": 3},
    )


def agency_b() -> OpenNet:
    """One clerk handles all bookings: a shared resource serialises them."""
    return build_net(
        places=["p1", "p2", "q1", "q2", "r"],
        transitions={
            "tF": ("bookFlight", {"p1": 1, "r": 1}, {"q1": 1, "r": 1}),
            "tH": ("bookHotel", {"p2": 1, "r": 1}, {"q2": 1, "r": 1}),
        },
        initial={"p1": 1, "p2": 1, "r": 1},
    )


def silent_then_act(open_flags=True) -> OpenNet:
    """A silent move followed by an `a`, from a marked output-open place."""
    return build_net(
        places=["s1", "p"],
        transitions={
            "tt": ("tau", {"s1": 1}, {"p": 1}),
            "ta": ("a", {"p": 1}, {}),
        },
        open_out=["s1"] if open_flags else [],
        initial={"s1": 1},
    )


def act_only(open_flags=True) -> OpenNet:
    """A single `a` from a marked output-open place."""
    return build_net(
        places=["s1p"],
        transitions={"ta": ("a", {"s1p": 1}, {})},
        open_out=["s1p"] if open_flags else [],
        initial={"s1p": 1},
    )


def ccs_eta() -> Correspondence:
    return Correspondence(eta_in={}, eta_out={"s1": "s1p"})


def absorber() -> OpenNet:
    """One input-open place drained by an `a`-transition; initially empty."""
    return build_net(
        places=["s"],
        transitions={"ta": ("a", {"s": 1}, {})},
        open_in=["s"],
        initial={},
    )


def loop_span():
    """Two loops on a shared place, glued over it.

    The interface is a single marked place open in both directions; each
    side adds one labelled loop on it.
    """
    z0 = build_net(["s"], {}, open_in=["s"], open_out=["s"], initial={"s": 1})
    z1 = build_net(
        ["s"], {"t1": ("a", {"s": 1}, {"s": 1})},
        open_in=["s"], open_out=["s"], initial={"s": 1},
    )
    z2 = build_net(
        ["s"], {"t2": ("b", {"s": 1}, {"s": 1})},
        open_in=["s"], open_out=["s"], initial={"s": 1},
    )
    f1 = Morphism(source=z0, target=z1, place_map={"s": "s"}, trans_map={})
    f2 = Morphism(source=z0, target=z2, place_map={"s": "s"}, trans_map={})
    return f1, f2


def two_sided_span():
    """A span whose interface carries a transition and two open places.

    Each side adds a private producer into one interface place and a private
    consumer from the other, so both legs have non-trivial gained-arc sets
    and the composability conditions bite.
    """
    z0 = build_net(
        ["s", "sp"],
        {"t0": ("a", {"s": 1}, {"sp": 1})},
        open_in=["s", "sp"], open_out=["s", "sp"],
        initial={"s": 1},
    )
    z1 = build_net(
        ["s", "sp", "w1"],
        {
            "t0": ("a", {"s": 1}, {"sp": 1}),
            "t1p": ("c", {"w1": 1}, {"sp": 1}),
            "t1c": ("e", {"s": 1}, {"w1": 1}),
        },
        open_in=["s", "sp"], open_out=["s", "sp"],
        initial={"s": 1, "w1": 1},
    )
    z2 = build_net(
        ["s", "sp", "w2"],
        {
            "t0": ("a", {"s": 1}, {"sp": 1}),
            "t2p": ("c", {"w2": 1}, {"s": 1}),
            "t2c": ("e", {"sp": 1}, {"w2": 1}),
        },
        open_in=["s", "sp"], open_out=["s", "sp"],
        initial={"s": 1, "w2": 1},
    )
    f1 = Morphism(source=z0, target=z1,
                  place_map={"s": "s", "sp": "sp"}, trans_map={"t0": "t0"})
    f2 = Morphism(source=z0, target=z2,
                  place_map={"s": "s", "sp": "sp"}, trans_map={"t0": "t0"})
    return f1, f2


def service_rule() -> Rule:
    """Refine one abstract quote service into a two-stage pipeline.

    The interface is an inquiry place (tokens arrive from outside) and an
    itinerary place (tokens leave to the outside); the left side serves
    inquiries in one internal action, the right side in two through a
    private buffer.
    """
    k = build_net(
        ["inq", "itin"], {},
        open_in=["inq", "itin"], open_out=["inq", "itin"],
        initial={},
    )
    lhs = build_net(
        ["inq", "itin"],
        {"serve": ("quote", {"inq": 1}, {"itin": 1})},
        open_in=["inq"], open_out=["itin"],
        initial={},
    )
    rhs = build_net(
        ["inq", "itin", "buf"],
        {
            "search": ("search", {"inq": 1}, {"buf": 1}),
            "offer": ("offer", {"buf": 1}, {"itin": 1}),
        },
        open_in=["inq"], open_out=["itin"],
        initial={},
    )
    left = Morphism(source=k, target=lhs,
                    place_map={"inq": "inq", "itin": "itin"}, trans_map={})
    right = Morphism(source=k, target=rhs,
                     place_map={"inq": "inq", "itin": "itin"}, trans_map={})
    return Rule(left=left, right=right)


def service_host() -> OpenNet:
    """A six-place closed workflow containing the abstract quote service."""
    return build_net(
        places=["start", "inq", "itin", "done", "log", "archive"],
        transitions={
            "submit": ("submit", {"start": 1}, {"inq": 1}),
            "serve": ("quote", {"inq": 1}, {"itin": 1}),
            "file": ("file", {"itin": 1}, {"done": 1, "log": 1}),
            "store": ("store", {"log": 1}, {"archive": 1}),
        },
        initial={"start": 1},
    )


def duplicating_rule() -> Rule:
    """service_rule's quote service, answered by two identical quote transitions.

    Same interface and left-hand side as service_rule, but the right-hand
    side keeps `serve` and adds a copy `serve_dup`.  Both sides are
    bisimilar under the induced correspondence, so the rule is behaviour
    preserving; its one match in service_host is proper.
    """
    base = service_rule()
    rhs = build_net(
        ["inq", "itin"],
        {
            "serve": ("quote", {"inq": 1}, {"itin": 1}),
            "serve_dup": ("quote", {"inq": 1}, {"itin": 1}),
        },
        open_in=["inq"], open_out=["itin"],
        initial={},
    )
    right = Morphism(source=base.interface, target=rhs,
                     place_map={"inq": "inq", "itin": "itin"}, trans_map={})
    return Rule(left=base.left, right=right)


def loop_replacement_rule() -> Rule:
    """Replace a labelled loop by a two-transition round trip."""
    k = build_net(["s"], {}, open_in=["s"], open_out=["s"], initial={"s": 1})
    lhs = build_net(
        ["s"], {"t": ("a", {"s": 1}, {"s": 1})},
        open_in=["s"], open_out=["s"], initial={"s": 1},
    )
    rhs = build_net(
        ["s", "p"],
        {"t1": ("a", {"s": 1}, {"p": 1}), "t2": ("a", {"p": 1}, {"s": 1})},
        open_in=["s"], open_out=["s"], initial={"s": 1},
    )
    left = Morphism(source=k, target=lhs, place_map={"s": "s"}, trans_map={})
    right = Morphism(source=k, target=rhs, place_map={"s": "s"}, trans_map={})
    return Rule(left=left, right=right)


# ------------------------------------------------------------- generators

LABELS = ["a", "b", "c", "tau"]


def random_marking(rng: random.Random, places, max_count=2) -> Multiset:
    return Multiset({s: rng.randint(0, max_count) for s in places})


def random_net(rng: random.Random, max_places=4, max_trans=3,
               prefix="", tau_ok=True) -> OpenNet:
    """A small random open net; flags and markings drawn independently."""
    n_places = rng.randint(1, max_places)
    places = [f"{prefix}s{i}" for i in range(n_places)]
    labels = LABELS if tau_ok else LABELS[:3]
    transitions = {}
    for i in range(rng.randint(0, max_trans)):
        pre = random_marking(rng, rng.sample(places, rng.randint(0, len(places))), 2)
        post = random_marking(rng, rng.sample(places, rng.randint(0, len(places))), 2)
        transitions[f"{prefix}t{i}"] = (rng.choice(labels), pre, post)
    open_in = [s for s in places if rng.random() < 0.4]
    open_out = [s for s in places if rng.random() < 0.4]
    return build_net(places, transitions, open_in, open_out,
                     random_marking(rng, places, 1))


def _extend(rng: random.Random, z0: OpenNet, prefix: str, max_new_places=2,
            max_new_trans=2) -> tuple[OpenNet, Morphism]:
    """Grow a net around z0 and return the inclusion (flags fixed later)."""
    places = sorted(z0.places) + [f"{prefix}s{i}" for i in range(rng.randint(0, max_new_places))]
    transitions = {
        t: (z0.label(t), dict(z0.pre(t).items()), dict(z0.post(t).items()))
        for t in z0.transitions
    }
    for i in range(rng.randint(0, max_new_trans)):
        pre = random_marking(rng, rng.sample(places, rng.randint(0, min(2, len(places)))), 1)
        post = random_marking(rng, rng.sample(places, rng.randint(0, min(2, len(places)))), 1)
        transitions[f"{prefix}t{i}"] = (rng.choice(LABELS), pre, post)
    initial = dict(z0.initial.items())
    for s in places:
        if s not in z0.places and rng.random() < 0.5:
            initial[s] = rng.randint(1, 2)
    z = build_net(places, transitions, [], [], initial)
    f = Morphism(
        source=z0, target=z,
        place_map={s: s for s in z0.places},
        trans_map={t: t for t in z0.transitions},
    )
    return z, f


def _with_flags(z: OpenNet, open_in, open_out) -> OpenNet:
    return OpenNet(net=z.net, open_in=frozenset(open_in),
                   open_out=frozenset(open_out), initial=z.initial)


def random_composable_span(rng: random.Random, max_interface=2):
    """A random span of composable embeddings with varied open flags.

    Interface places forced open by arc growth on either side stay open
    everywhere they must; the remaining flags are chosen freely.
    """
    n0 = rng.randint(1, max_interface)
    places0 = [f"s{i}" for i in range(n0)]
    transitions0 = {}
    if rng.random() < 0.4:
        pre = random_marking(rng, rng.sample(places0, rng.randint(0, len(places0))), 1)
        post = random_marking(rng, rng.sample(places0, rng.randint(0, len(places0))), 1)
        transitions0["t0"] = (rng.choice(LABELS), pre, post)
    z0_bare = build_net(places0, transitions0, [], [],
                        random_marking(rng, places0, 1))

    z1_bare, f1 = _extend(rng, z0_bare, "l")
    z2_bare, f2 = _extend(rng, z0_bare, "r")

    in1, out1 = netmod.gained_places(f1, "+"), netmod.gained_places(f1, "-")
    in2, out2 = netmod.gained_places(f2, "+"), netmod.gained_places(f2, "-")
    open_in0 = set(in1 | in2)
    open_out0 = set(out1 | out2)
    for s in places0:
        if rng.random() < 0.3:
            open_in0.add(s)
        if rng.random() < 0.3:
            open_out0.add(s)
    z0 = _with_flags(z0_bare, open_in0, open_out0)

    def side_flags(z_bare, own_prefix, needed_in, needed_out):
        open_in = set(needed_in)
        open_out = set(needed_out)
        for s in sorted(z_bare.places):
            if s in z0.places:
                if s in open_in0 and rng.random() < 0.5:
                    open_in.add(s)
                if s in open_out0 and rng.random() < 0.5:
                    open_out.add(s)
            else:
                if rng.random() < 0.3:
                    open_in.add(s)
                if rng.random() < 0.3:
                    open_out.add(s)
        return _with_flags(z_bare, open_in, open_out)

    # each side must keep open what the *other* side's growth needs
    z1 = side_flags(z1_bare, "l", in2, out2)
    z2 = side_flags(z2_bare, "r", in1, out1)
    f1 = Morphism(source=z0, target=z1, place_map=f1.place_map, trans_map=f1.trans_map)
    f2 = Morphism(source=z0, target=z2, place_map=f2.place_map, trans_map=f2.trans_map)
    return f1, f2


def rename_net(z: OpenNet, suffix: str) -> tuple[OpenNet, dict, dict]:
    """An isomorphic copy with every id suffixed; returns the two maps."""
    pmap = {s: s + suffix for s in z.places}
    tmap = {t: t + suffix for t in z.transitions}
    return _renamed(z, pmap, tmap), pmap, tmap


def reversed_copy(z: OpenNet) -> OpenNet:
    """An isomorphic copy whose place ids `r1`, `r2`, ... sort in the reverse
    order of z's (up to nine places), so a correspondence search meets the
    identity last."""
    names = sorted(z.places, reverse=True)
    return _renamed(z, {s: f"r{k}" for k, s in enumerate(names, start=1)},
                    {t: t + "_r" for t in z.transitions})


def _renamed(z: OpenNet, pmap: dict, tmap: dict) -> OpenNet:
    from opennet import multiset

    transitions = {
        tmap[t]: Transition(
            label=z.label(t),
            pre=multiset.image(pmap, z.pre(t)),
            post=multiset.image(pmap, z.post(t)),
        )
        for t in z.transitions
    }
    return OpenNet(
        net=PetriNet(places=frozenset(pmap.values()), transitions=transitions),
        open_in=frozenset(pmap[s] for s in z.open_in),
        open_out=frozenset(pmap[s] for s in z.open_out),
        initial=multiset.image(pmap, z.initial),
    )


def mutate_preserving(rng: random.Random, z: OpenNet, weak=False):
    """A net bisimilar to z by construction, with the witness correspondence.

    Mutations: whole-net renaming, an extra isolated closed place, a
    duplicated transition, and (for weak comparisons) a silent self-loop on
    a marked place.
    """
    w, pmap, tmap = rename_net(z, "_m")
    transitions = {
        t: (w.label(t), dict(w.pre(t).items()), dict(w.post(t).items()))
        for t in w.transitions
    }
    places = set(w.places)
    initial = dict(w.initial.items())
    if rng.random() < 0.5:
        places.add("extra_m")
        if rng.random() < 0.5:
            initial["extra_m"] = 1
    if transitions and rng.random() < 0.5:
        t = rng.choice(sorted(transitions))
        label, pre, post = transitions[t]
        transitions[t + "_dup"] = (label, dict(pre), dict(post))
    if weak and initial and rng.random() < 0.5:
        s = rng.choice(sorted(initial))
        transitions["tau_loop_m"] = ("tau", {s: 1}, {s: 1})
    w2 = build_net(places, transitions, w.open_in, w.open_out, initial)
    eta = Correspondence(
        eta_in={s: pmap[s] for s in z.open_in},
        eta_out={s: pmap[s] for s in z.open_out},
    )
    return w2, eta, pmap, tmap


def preserving_rule(rng: random.Random, max_places=3, max_trans=2) -> Rule:
    """A rule whose two sides are strongly bisimilar by construction.

    The left-hand side is a random net.  The interface is its open places,
    each open both ways and with no transitions, like service_rule's; the
    right-hand side is mutate_preserving's copy of the left, and the right
    leg follows that copy's renaming.
    """
    lhs = random_net(rng, max_places, max_trans)
    shared = sorted(lhs.open_in | lhs.open_out)
    k = build_net(shared, {}, shared, shared, lhs.initial.restrict(shared))
    rhs, _, pmap, _ = mutate_preserving(rng, lhs)
    left = Morphism(source=k, target=lhs, place_map={s: s for s in shared}, trans_map={})
    right = Morphism(source=k, target=rhs, place_map={s: pmap[s] for s in shared},
                     trans_map={})
    return Rule(left=left, right=right)


def random_host(rng: random.Random, z: OpenNet, max_new_places=2, max_new_trans=2) -> OpenNet:
    """z grown by a few places and transitions, as a host to match z into.

    A place of z is open in the host only in a direction z opens it, so the
    inclusion is a match whenever the new arcs land at places open the
    right way; the other matches are whatever find_matches finds.
    """
    grown, _ = _extend(rng, z, "h", max_new_places, max_new_trans)
    open_in = [s for s in sorted(grown.places)
               if (s not in z.places or s in z.open_in) and rng.random() < 0.5]
    open_out = [s for s in sorted(grown.places)
                if (s not in z.places or s in z.open_out) and rng.random() < 0.5]
    return _with_flags(grown, open_in, open_out)


def net_isomorphic(z1: OpenNet, z2: OpenNet) -> bool:
    """Brute-force isomorphism of small open nets (flags and marking exact)."""
    from opennet.rewriting import find_matches
    from opennet import is_embedding, validate_morphism

    if len(z1.places) != len(z2.places) or len(z1.transitions) != len(z2.transitions):
        return False
    for m in find_matches(z1, z2):
        inverse = Morphism(
            source=z2, target=z1,
            place_map={v: k for k, v in m.place_map.items()},
            trans_map={v: k for k, v in m.trans_map.items()},
        )
        if len(m.place_map) == len(z2.places) and len(m.trans_map) == len(z2.transitions):
            if validate_morphism(inverse).ok:
                return True
    return False


def scan_arcs(z: OpenNet, s) -> tuple[frozenset, frozenset]:
    """The producers and consumers of s, by a scan over every transition."""
    return (frozenset(t for t in z.transitions if s in z.post(t)),
            frozenset(t for t in z.transitions if s in z.pre(t)))


def scan_in_out_places(f: Morphism) -> tuple[frozenset, frozenset]:
    """`nets.gained_places(f, "+")` and `(f, "-")`, computed from scan_arcs."""
    return tuple(
        frozenset(s for s in f.source.places
                  if scan_arcs(f.target, f.place_map[s])[side]
                  - {f.trans_map[t] for t in scan_arcs(f.source, s)[side]})
        for side in (0, 1))


def all_markings(places, cap):
    """Every marking over the given places with counts up to cap."""
    places = sorted(places)
    for counts in itertools.product(range(cap + 1), repeat=len(places)):
        yield Multiset({s: c for s, c in zip(places, counts) if c})


def random_lts(rng: random.Random, max_states=30, max_labels=5, labels=None, max_out=3):
    """A random edge-labelled graph for checking the refinement engine.

    `labels` fixes the alphabet (otherwise l0.. up to `max_labels` of them
    are drawn); each state gets up to `max_out` outgoing edges.
    """
    from opennet.semantics import Lts

    n = rng.randint(2, max_states)
    if labels is None:
        labels = [f"l{i}" for i in range(rng.randint(1, max_labels))]
    edges = []
    for src in range(n):
        for _ in range(rng.randint(0, max_out)):
            edges.append((src, rng.randrange(len(labels)), rng.randrange(n)))
    edges = sorted(set(edges))
    return Lts(states=[(i,) for i in range(n)], places=("s",), labels=list(labels),
               edges=edges, initial=0, mode="firing", cap=0)


def successors(lts) -> list:
    """Per state, its (label, target) pairs, labels looked up in the table."""
    out = [[] for _ in lts.states]
    for src, label, dst in lts.labelled_edges():
        out[src].append((label, dst))
    return out


def columns(lts) -> tuple[list, list]:
    """Per state, the label indices and the targets of its edges: the two
    columns `partition_refinement` reads, taken from `Lts.edges`."""
    labels, targets = [[] for _ in lts.states], [[] for _ in lts.states]
    for src, label, dst in lts.edges:
        labels[src].append(label)
        targets[src].append(dst)
    return labels, targets


def chain(n: int) -> OpenNet:
    """chain-n: t_i moves a token p_i -> p_(i+1) with label a_i.

    p0 is input-open, p(n-1) output-open, and p0 holds the only token.
    """
    places = [f"p{i}" for i in range(n)]
    transitions = {
        f"t{i}": (f"a{i}", {places[i]: 1}, {places[i + 1]: 1}) for i in range(n - 1)
    }
    return build_net(places, transitions, [places[0]], [places[-1]], {places[0]: 1})


def chain_x(n: int) -> OpenNet:
    """chain-n plus x: 2·p0 -> p(n-1), labelled a0 like the first link."""
    z = chain(n)
    transitions = {
        t: (z.label(t), dict(z.pre(t).items()), dict(z.post(t).items()))
        for t in z.transitions
    }
    transitions["x"] = ("a0", {"p0": 2}, {f"p{n - 1}": 1})
    return build_net(sorted(z.places), transitions, z.open_in, z.open_out,
                     dict(z.initial.items()))


# ---------------------------------------------------------------- oracles


def oracle_steps(z, u, mode, cap, max_step):
    """Every multiset of at most max_step events (one in firing mode) that
    `fire` executes at u, in (size, elements) order; step mode keeps only
    targets within the cap.  A size with no enabled step ends the search:
    each larger multiset contains one of that size and needs at least as
    much."""
    bound = 1 if mode == FIRING else max_step
    found = []
    for size in range(1, bound + 1):
        enabled = False
        for combo in itertools.combinations_with_replacement(all_events(z), size):
            events = Multiset(combo)
            try:
                target = fire(z, u, events)
            except NotEnabled:
                continue
            enabled = True
            if mode == FIRING or all(c <= cap for _, c in target.items()):
                found.append(Step(events=events, source=u, target=target))
        if not enabled:
            break
    return found


def oracle_lts(z, mode, cap, max_step, root=None):
    """`build_lts` by breadth-first search over `oracle_steps`: the states as
    `Multiset`s (or `OVERFLOW`, where every target beyond the cap goes) and
    the edges as (source, label, target), each (label, target) once per
    source in the order first found."""
    start = z.initial if root is None else root
    states, index, edges = [start], {start: 0}, []
    for src, u in enumerate(states):
        if u is OVERFLOW:
            continue
        seen = set()
        for step in oracle_steps(z, u, mode, float("inf"), max_step):
            observed = Multiset(observe(z, e) for e in step.events.elements())
            label = next(observed.elements()) if mode == FIRING else observed
            target = (OVERFLOW if any(c > cap for _, c in step.target.items())
                      else step.target)
            if target not in index:
                index[target] = len(states)
                states.append(target)
            if (label, index[target]) not in seen:
                seen.add((label, index[target]))
                edges.append((src, label, index[target]))
    return states, edges


def naive_bisimulation(lts_states: int, successors) -> set:
    """Greatest bisimulation as a set of state pairs, by fixpoint descent.

    Quadratic and slow; the independent oracle for partition refinement.
    """
    related = {(i, j) for i in range(lts_states) for j in range(lts_states)}

    def transfer(a, b):
        for label, a2 in successors[a]:
            if not any(lbl == label and (a2, b2) in related for lbl, b2 in successors[b]):
                return False
        return True

    changed = True
    while changed:
        changed = False
        for pair in sorted(related):
            a, b = pair
            if not (transfer(a, b) and transfer(b, a)):
                related.discard(pair)
                changed = True
    return related


def naive_separation_depths(n1, succ1, n2, succ2) -> dict:
    """For each cross pair, the game round at which it is distinguished.

    Pairs missing from the result are bisimilar.  Round k means the
    challenger can win in k moves and no fewer.  A fixpoint over the cross
    product of states: the independent oracle for the pair depths read
    off the partition-refinement rounds.
    """

    def transfer_ok(challenger_edges, responder_edges, alive_pairs) -> bool:
        for label, a2 in challenger_edges:
            if not any(lbl == label and (a2, b2) in alive_pairs for lbl, b2 in responder_edges):
                return False
        return True

    alive = {(i, j) for i in range(n1) for j in range(n2)}
    depths = {}
    round_no = 0
    while True:
        round_no += 1
        swapped = {(b, a) for a, b in alive}
        dropped = set()
        for i, j in alive:
            ok = transfer_ok(succ1[i], succ2[j], alive) and transfer_ok(
                succ2[j], succ1[i], swapped
            )
            if not ok:
                dropped.add((i, j))
        if not dropped:
            return depths
        for pair in dropped:
            depths[pair] = round_no
            alive.discard(pair)


def check_play(lts1, lts2, play, initial_depth):
    """Assert that a play is a lost bisimulation game on the two systems.

    Moves name states by their formatted markings, so each system's states
    are looked up by that text.
    """
    from opennet.semantics import format_marking

    index1 = {format_marking(lts1.places, s): k for k, s in enumerate(lts1.states)}
    index2 = {format_marking(lts2.places, s): k for k, s in enumerate(lts2.states)}
    assert len(index1) == len(lts1.states) and len(index2) == len(lts2.states)
    edges1, edges2 = set(lts1.labelled_edges()), set(lts2.labelled_edges())
    assert len(play) == initial_depth
    pair = (lts1.initial, lts2.initial)
    for n, move in enumerate(play):
        assert (index1[move.source_pair[0]], index2[move.source_pair[1]]) == pair
        if move.side == 1:
            a, b = pair
            edges_a, edges_b, index_a, index_b = edges1, edges2, index1, index2
        else:
            b, a = pair
            edges_a, edges_b, index_a, index_b = edges2, edges1, index2, index1
        a2 = index_a[move.challenger_target]
        assert (a, move.label, a2) in edges_a
        if move.response_target is None:
            assert n == len(play) - 1
            assert not any(src == b and lbl == move.label for src, lbl, _ in edges_b)
            return
        b2 = index_b[move.response_target]
        assert (b, move.label, b2) in edges_b
        pair = (a2, b2) if move.side == 1 else (b2, a2)
    raise AssertionError("the play ends with an answered move")


def compared_ltss(z1, z2, eta, kind="strong", mode="firing", tau_labels=frozenset(),
                  cap=3, max_step=None):
    """The two transition systems `check_bisim` compares.

    Both nets are explored (and weakly closed for weak checks); the first
    one's interaction labels are then renamed through eta.
    """
    from opennet.semantics import DEFAULT_MAX_STEP, Obs, build_lts, relabel, weak_closure

    def prepared(z):
        lts = build_lts(z, mode=mode, cap=cap,
                        max_step=DEFAULT_MAX_STEP if max_step is None else max_step)
        return weak_closure(lts, tau_labels) if kind == "weak" else lts

    def through_eta(obs):
        table = {"plus": eta.eta_in, "minus": eta.eta_out}.get(obs.kind)
        return obs if table is None else Obs(obs.kind, table[obs.name])

    return relabel(prepared(z1), through_eta), prepared(z2)


def naive_weak_closure(lts, tau_labels) -> set:
    """The weak edges of an Lts as a set, straight from the definition.

    A label is silent when every observation in it is a transition label in
    `tau_labels` (the empty step included), and visible when none is; a step
    mixing the two is neither.  τ* is the reflexive-transitive closure of
    the silent edges, found by fixpoint iteration.  Every τ* pair (i, j)
    gives (i, silent, j), and every τ*·a·τ* path gives (i, a, k), for each
    state i other than the overflow state.
    """
    from opennet.semantics import FIRING, OVERFLOW

    def observations(label):
        return [label] if lts.mode == FIRING else list(label.support())

    def silent_count(label):
        return sum(o.kind == "lab" and o.name in tau_labels for o in observations(label))

    edges = lts.labelled_edges()
    silent = {(s, d) for s, label, d in edges
              if silent_count(label) == len(observations(label))}
    visible = {(s, label, d) for s, label, d in edges if silent_count(label) == 0}
    star = {(i, i) for i in range(len(lts.states))} | silent
    while True:
        longer = star | {(a, d) for a, b in star for c, d in silent if b == c}
        if longer == star:
            break
        star = longer
    reach = {}
    for a, b in star:
        reach.setdefault(a, set()).add(b)
    silent_label = None if lts.mode == FIRING else Multiset()
    starts = [i for i in reach if lts.states[i] is not OVERFLOW]
    weak = {(i, silent_label, j) for i in starts for j in reach[i]}
    weak |= {(i, label, k) for i in starts for j in reach[i]
             for s, label, d in visible if s == j for k in reach[d]}
    return weak
