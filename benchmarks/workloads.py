"""Seeded input documents and operations for the three benchmark workloads.

Everything here is plain data built with the standard library: the nets are
written straight to the JSON document formats, so generation does not go
through the package under test, and every expected answer is known from
how the inputs were built, not from running the checker.

A workload is a list of `Op`s plus the documents they read.  An op is one
CLI call; its arguments name documents as ``@name`` and the runner swaps in
the path of the written file.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable

NET_FORMAT = "opennet/1"
SPAN_FORMAT = "opennet-span/1"
RULE_FORMAT = "opennet-rule/1"
ETA_FORMAT = "opennet-eta/1"

EXIT_BISIMILAR = 0
EXIT_NOT_BISIMILAR = 1

DEFAULT_SEED = 0
HELD_OUT_SEEDS = (9001, 31337)  # never run while the workloads were tuned

def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class Op:
    """One CLI call with its expected exit code and known-answer check.

    `check` gets the parsed JSON stdout (or None for non-JSON output) and
    returns an error message, or None when the output is as constructed.
    A pass of the workload runs the op `repeat` times.
    """

    family: str
    argv: tuple
    exit_code: int
    check: Callable | None = None
    repeat: int = 1


@dataclass
class Workload:
    docs: dict = field(default_factory=dict)  # file name -> text
    ops: list = field(default_factory=list)

    def add_doc(self, name: str, doc) -> str:
        text = dumps(doc)
        if self.docs.setdefault(name, text) != text:
            raise ValueError(f"document {name!r} generated twice with different content")
        return "@" + name

    def op_key(self, op: Op) -> str:
        """A content digest of the call: arguments with documents hashed in."""
        h = hashlib.sha256()
        for arg in op.argv:
            if arg.startswith("@"):
                arg = "@" + hashlib.sha256(self.docs[arg[1:]].encode()).hexdigest()
            h.update(arg.encode() + b"\0")
        return h.hexdigest()[:16]


# ----------------------------------------------------------------- nets


def net_doc(name, places, transitions, open_in=(), open_out=(), initial=None) -> dict:
    """A net document; `transitions` maps ids to (label, pre, post) dicts."""
    initial = initial or {}
    return {
        "format": NET_FORMAT,
        "name": name,
        "places": {
            p: {"open_in": p in open_in, "open_out": p in open_out,
                "initial": initial.get(p, 0)}
            for p in places
        },
        "transitions": {
            t: {"label": label, "pre": dict(pre), "post": dict(post)}
            for t, (label, pre, post) in transitions.items()
        },
    }


def net_parts(doc):
    """(places, transitions, open_in, open_out, initial) of a net document."""
    places = list(doc["places"])
    transitions = {t: (a["label"], a["pre"], a["post"]) for t, a in doc["transitions"].items()}
    open_in = [p for p, a in doc["places"].items() if a["open_in"]]
    open_out = [p for p, a in doc["places"].items() if a["open_out"]]
    initial = {p: a["initial"] for p, a in doc["places"].items() if a["initial"]}
    return places, transitions, open_in, open_out, initial


def eta_doc(plus, minus) -> dict:
    return {"format": ETA_FORMAT, "plus": dict(plus), "minus": dict(minus)}


def morphism_doc(places, transitions=()) -> dict:
    return {"places": {p: p for p in places}, "transitions": {t: t for t in transitions}}


def chain(n, place="p", trans="t", tau_odd=False) -> dict:
    """chain-n: t_i moves a token p_i -> p_(i+1); p0 input open, p(n-1) output open."""
    places = [f"{place}{i}" for i in range(n)]
    transitions = {
        f"{trans}{i}": ("tau" if tau_odd and i % 2 else f"a{i}",
                        {places[i]: 1}, {places[i + 1]: 1})
        for i in range(n - 1)
    }
    return net_doc(f"chain{n}", places, transitions, [places[0]], [places[-1]],
                   {places[0]: 1})


def chain_eta(n, a="p", b="q") -> dict:
    return eta_doc({f"{a}0": f"{b}0"}, {f"{a}{n - 1}": f"{b}{n - 1}"})


def with_transition(doc, tid, label, pre, post) -> dict:
    places, transitions, open_in, open_out, initial = net_parts(doc)
    transitions[tid] = (label, pre, post)
    return net_doc(doc["name"] + "+" + tid, places, transitions, open_in, open_out, initial)


def agency(k, shared_clerk, reverse=False) -> dict:
    """The travel agency with k bookings: request places p_i (input open)
    feed booking transitions into confirmation places q_i (output open).
    With `shared_clerk` every booking also reads one clerk token r, which
    serialises bookings without changing the interleavings.  `reverse`
    numbers the places backwards, so the correspondence search meets the
    right pairing last."""
    idx = list(range(k))
    names = [k - 1 - i for i in idx] if reverse else idx
    p = [f"p{names[i]}" for i in idx]
    q = [f"q{names[i]}" for i in idx]
    places = p + q
    transitions = {}
    for i in idx:
        pre, post = {p[i]: 1}, {q[i]: 1}
        if shared_clerk:
            pre, post = {**pre, "r": 1}, {**post, "r": 1}
        transitions[f"b{i}"] = (f"book{i}", pre, post)
    initial = {s: 1 for s in p}
    if shared_clerk:
        places.append("r")
        initial["r"] = 1
    return net_doc("agency-" + ("b" if shared_clerk else "a"), places, transitions, p, q, initial)


def agency_eta(k) -> dict:
    return eta_doc({f"p{i}": f"p{i}" for i in range(k)}, {f"q{i}": f"q{i}" for i in range(k)})


def renamed(doc, suffix) -> tuple[dict, dict]:
    """An isomorphic copy with every id suffixed, and the place renaming."""
    places, transitions, open_in, open_out, initial = net_parts(doc)
    pmap = {p: p + suffix for p in places}

    def image(ms):
        return {pmap[p]: c for p, c in ms.items()}

    copy = net_doc(
        doc["name"] + suffix, [pmap[p] for p in places],
        {t + suffix: (label, image(pre), image(post))
         for t, (label, pre, post) in transitions.items()},
        [pmap[p] for p in open_in], [pmap[p] for p in open_out], image(initial),
    )
    return copy, pmap


def reachable_states(doc, cap) -> int:
    """Size of the capped firing state space, overflow state included.

    An independent count, used only to keep seeded nets within a size
    window so that every seed costs about the same to check.
    """
    places, transitions, open_in, open_out, initial = net_parts(doc)
    index = {p: i for i, p in enumerate(places)}

    def vec(ms):
        v = [0] * len(places)
        for p, c in ms.items():
            v[index[p]] += c
        return v

    events = [(vec(pre), vec(post)) for _, pre, post in transitions.values()]
    events += [(vec({}), vec({p: 1})) for p in open_in]
    events += [(vec({p: 1}), vec({})) for p in open_out]
    start = tuple(vec(initial))
    seen = {start}
    frontier = [start]
    overflow = False
    while frontier:
        u = frontier.pop()
        for pre, post in events:
            if all(a >= b for a, b in zip(u, pre)):
                v = tuple(a - b + c for a, b, c in zip(u, pre, post))
                if max(v, default=0) > cap:
                    overflow = True
                elif v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return len(seen) + overflow


def random_net(rng, prefix, labels) -> dict:
    """A random open net with at least one input-open place.

    An input-open place gives every marking a move, so no real marking is
    ever a deadlock that strong bisimilarity could equate with the overflow
    state.
    """
    places = [f"{prefix}s{i}" for i in range(4)]
    transitions = {}
    for i in range(4):
        pre = {p: rng.randint(1, 2) for p in rng.sample(places, rng.randint(1, 2))}
        post = {p: rng.randint(1, 2) for p in rng.sample(places, rng.randint(0, 2))}
        transitions[f"{prefix}t{i}"] = (rng.choice(labels), pre, post)
    open_in = [p for p in places if rng.random() < 0.4] or [rng.choice(places)]
    open_out = [p for p in places if rng.random() < 0.4]
    initial = {p: 1 for p in places if rng.random() < 0.5}
    return net_doc(prefix + "random", places, transitions, open_in, open_out, initial)


def sized_random_net(rng, prefix, labels, cap, lo, hi) -> dict:
    """Draw random nets until the capped state space has lo..hi states."""
    while True:
        doc = random_net(rng, prefix, labels)
        if lo <= reachable_states(doc, cap) <= hi:
            return doc


def bisimilar_variant(doc, weak) -> tuple[dict, dict]:
    """A net bisimilar to doc by construction, and the correspondence.

    The copy is renamed and gains a closed marked place no visible
    transition touches and a duplicate of its first transition; for weak
    checks a silent self-loop on the new place is added too.
    """
    copy, pmap = renamed(doc, "_m")
    places, transitions, open_in, open_out, initial = net_parts(copy)
    places.append("extra_m")
    initial["extra_m"] = 1
    first = sorted(transitions)[0]
    transitions[first + "_dup"] = transitions[first]
    if weak:
        transitions["tau_loop_m"] = ("tau", {"extra_m": 1}, {"extra_m": 1})
    variant = net_doc(copy["name"], places, transitions, open_in, open_out, initial)
    eta = eta_doc(
        {p: pmap[p] for p, a in doc["places"].items() if a["open_in"]},
        {p: pmap[p] for p, a in doc["places"].items() if a["open_out"]},
    )
    return variant, eta


def with_fresh_input_consumer(doc) -> dict:
    """doc plus a transition with an unused label draining an input-open place.

    The environment can always put a token there, so the new label is
    always reachable and the result is never bisimilar to doc.
    """
    places, transitions, open_in, open_out, initial = net_parts(doc)
    transitions["fresh_t"] = ("fresh", {sorted(open_in)[0]: 1}, {})
    return net_doc(doc["name"] + "+fresh", places, transitions, open_in, open_out, initial)


# --------------------------------------------------------- known answers


def fmt_marking(marking: dict) -> str:
    """The CLI's rendering of a marking: sorted place:count terms joined by +."""
    if not marking:
        return "0"
    return "+".join(p if c == 1 else f"{p}:{c}" for p, c in sorted(marking.items()))


def expect_witness_pairs(count):
    def check(out):
        got = len(out.get("witness") or [])
        if got != count:
            return f"expected {count} witness pairs, got {got}"
        return None

    return check


def expect_play(moves, start):
    def check(out):
        play = out.get("play") or []
        if len(play) != moves:
            return f"expected a play of {moves} moves, got {len(play)}"
        if play[0]["from"] != list(start):
            return f"play starts at {play[0]['from']}, not the initial pair {list(start)}"
        return None

    return check


def expect_net_size(places, transitions):
    def check(out):
        net = out["net"]
        got = (len(net["places"]), len(net["transitions"]))
        if got != (places, transitions):
            return f"expected {places} places and {transitions} transitions, got {got}"
        return None

    return check


def expect_proper_matches(count):
    def check(out):
        if out["count"] != count or len(out["matches"]) != count:
            return f"expected {count} matches, got {out['count']}"
        if not all(m["proper"] for m in out["matches"]):
            return "a match of the service rule was reported improper"
        return None

    return check


# ------------------------------------------------------------ workloads


def bisim_argv(a, b, *, eta="auto", kind="strong", mode="firing", cap, tau="", max_step=None):
    argv = ["bisim", a, b, "--eta", eta, "--kind", kind, "--mode", mode, "--cap", str(cap)]
    if max_step is not None:
        argv += ["--max-step", str(max_step)]
    if tau:
        argv += ["--tau", tau]
    return tuple(argv)


def bisim_equal(seed: int) -> Workload:
    """Bisimilar pairs only: the paper's families plus seeded random pairs.

    Of the 20 calls in a pass, the repeats put the median among the
    chain4-firing calls and the 90th percentile among the chain5-weak ones,
    so the cheap seeded calls move neither.
    """
    w = Workload()
    rng = random.Random(seed)
    for n, cap, eta, repeat in ((4, 4, True, 4), (3, 3, False, 2)):
        a = w.add_doc(f"chain{n}.json", chain(n))
        b = w.add_doc(f"chain{n}_copy.json", chain(n, "q", "u"))
        e = w.add_doc(f"chain{n}.eta.json", chain_eta(n)) if eta else "auto"
        w.ops.append(Op(f"chain{n}-firing", bisim_argv(a, b, eta=e, cap=cap), EXIT_BISIMILAR,
                        expect_witness_pairs((cap + 1) ** n + 1), repeat))
    a = w.add_doc("chain5_tau.json", chain(5, tau_odd=True))
    b = w.add_doc("chain5_tau_copy.json", chain(5, "q", "u", tau_odd=True))
    e = w.add_doc("chain5.eta.json", chain_eta(5))
    w.ops.append(Op("chain5-weak", bisim_argv(a, b, eta=e, kind="weak", cap=3, tau="tau"),
                    EXIT_BISIMILAR, repeat=4))
    a, b = "@chain4.json", "@chain4_copy.json"
    w.ops.append(Op("chain4-step", bisim_argv(a, b, eta="@chain4.eta.json", mode="step", cap=2),
                    EXIT_BISIMILAR))
    a = w.add_doc("agency3_a.json", agency(3, False))
    b = w.add_doc("agency3_b.json", agency(3, True))
    e = w.add_doc("agency3.eta.json", agency_eta(3))
    w.ops.append(Op("agency3-firing", bisim_argv(a, b, eta=e, cap=2), EXIT_BISIMILAR,
                    repeat=2))
    # the right pairing is the last of the 2! x 2! candidates
    a = w.add_doc("agency2_a.json", agency(2, False))
    b = w.add_doc("agency2_b_rev.json", agency(2, True, reverse=True))
    w.ops.append(Op("agency2-firing-search", bisim_argv(a, b, cap=2), EXIT_BISIMILAR))

    for i, weak in enumerate((False, False, False, False, True, True)):
        labels = ["a", "b", "c", "tau"]
        z = sized_random_net(rng, f"n{i}", labels, cap=3, lo=60, hi=120)
        z2, eta = bisimilar_variant(z, weak)
        a = w.add_doc(f"random{i}.json", z)
        b = w.add_doc(f"random{i}_variant.json", z2)
        e = w.add_doc(f"random{i}.eta.json", eta) if i % 2 == 0 else "auto"
        kind = "weak" if weak else "strong"
        w.ops.append(Op(f"random-{kind}", bisim_argv(a, b, eta=e, kind=kind, cap=3,
                                                     tau="tau" if weak else ""),
                        EXIT_BISIMILAR))
    return w


def bisim_differ(seed: int) -> Workload:
    """NotBisimilar pairs only, each with its distinguishing play.

    Of the 18 calls in a pass, the repeats put the median among the
    agency3-step calls and the 90th percentile among the chain4-vs-x ones.
    """
    w = Workload()
    rng = random.Random(seed)
    for n in (4, 3):
        base = chain(n)
        a = w.add_doc(f"chain{n}.json", base)
        e = w.add_doc(f"chain{n}.eta.json", chain_eta(n, "p", "p"))
        last = f"p{n - 1}"
        x = w.add_doc(f"chain{n}_x.json", with_transition(base, "x", "a0", {"p0": 2}, {last: 1}))
        w.ops.append(Op(f"chain{n}-vs-x", bisim_argv(a, x, eta=e, cap=3), EXIT_NOT_BISIMILAR,
                        repeat=4 if n == 4 else 1))
        f = w.add_doc(f"chain{n}_fresh.json", with_transition(base, "f", "fresh", {last: 1}, {}))
        start = fmt_marking({"p0": 1})
        w.ops.append(Op(f"chain{n}-vs-fresh", bisim_argv(a, f, eta=e, cap=3),
                        EXIT_NOT_BISIMILAR, expect_play(n, (start, start)),
                        repeat=4 if n == 4 else 1))
    # steps of at most two events: enough to book in parallel
    for k, cap, repeat in ((2, 2, 1), (3, 1, 2)):
        a = w.add_doc(f"agency{k}_a.json", agency(k, False))
        b = w.add_doc(f"agency{k}_b.json", agency(k, True))
        e = w.add_doc(f"agency{k}.eta.json", agency_eta(k))
        w.ops.append(Op(f"agency{k}-step",
                        bisim_argv(a, b, eta=e, mode="step", cap=cap, max_step=2),
                        EXIT_NOT_BISIMILAR, repeat=repeat))
    a = w.add_doc("silent_then_act.json", net_doc(
        "silent_then_act", ["s1", "p"],
        {"tt": ("tau", {"s1": 1}, {"p": 1}), "ta": ("a", {"p": 1}, {})},
        open_out=["s1"], initial={"s1": 1}))
    b = w.add_doc("act_only.json", net_doc(
        "act_only", ["s1p"], {"ta": ("a", {"s1p": 1}, {})},
        open_out=["s1p"], initial={"s1p": 1}))
    e = w.add_doc("ccs.eta.json", eta_doc({}, {"s1": "s1p"}))
    w.ops.append(Op("ccs-weak", bisim_argv(a, b, eta=e, kind="weak", cap=2, tau="tau"),
                    EXIT_NOT_BISIMILAR))

    for i in range(4):
        z = sized_random_net(rng, f"n{i}", ["a", "b", "c"], cap=3, lo=30, hi=50)
        z2, eta = bisimilar_variant(z, weak=False)
        a = w.add_doc(f"random{i}.json", z)
        b = w.add_doc(f"random{i}_fresh.json", with_fresh_input_consumer(z2))
        e = w.add_doc(f"random{i}.eta.json", eta)
        w.ops.append(Op("random-vs-fresh", bisim_argv(a, b, eta=e, cap=3), EXIT_NOT_BISIMILAR))
    return w


def random_span(rng) -> tuple[dict, tuple]:
    """A composable span of embeddings, and the glued net's size.

    Interface places stay open both ways on every side, which makes any
    growth around them composable; the private parts are random and of a
    fixed size, so every seed costs about the same.
    """
    n_private, n_trans = 150, 200
    iface = [f"s{i}" for i in range(12)]
    i_trans = {"t0": (rng.choice("abc"), {iface[0]: 1}, {iface[1]: 1})}
    i_initial = {p: 1 for p in iface if rng.random() < 0.5}
    sides = []
    for prefix in ("l", "r"):
        own = [f"{prefix}s{i}" for i in range(n_private)]
        places = iface + own
        transitions = dict(i_trans)
        for i in range(n_trans):
            pre = {p: 1 for p in rng.sample(places, rng.randint(1, 2))}
            post = {p: 1 for p in rng.sample(places, rng.randint(0, 2))}
            transitions[f"{prefix}t{i}"] = (rng.choice("abc"), pre, post)
        open_in = iface + [p for p in own if rng.random() < 0.3]
        open_out = iface + [p for p in own if rng.random() < 0.3]
        initial = {**i_initial, **{p: 1 for p in own if rng.random() < 0.3}}
        sides.append(net_doc(prefix, places, transitions, open_in, open_out, initial))
    interface = net_doc("interface", iface, i_trans, iface, iface, i_initial)
    span = {
        "format": SPAN_FORMAT,
        "interface": interface,
        "left": sides[0],
        "right": sides[1],
        "left_map": morphism_doc(iface, i_trans),
        "right_map": morphism_doc(iface, i_trans),
    }
    size = (len(iface) + 2 * n_private, len(i_trans) + 2 * n_trans)
    return span, size


def rule_doc(k_places, lhs, rhs) -> dict:
    interface = net_doc("interface", k_places, {}, k_places, k_places)
    return {
        "format": RULE_FORMAT,
        "interface": interface,
        "left": lhs,
        "right": rhs,
        "left_map": morphism_doc(k_places),
        "right_map": morphism_doc(k_places),
    }


def service_rule() -> dict:
    """Refine the one-step quote service into search then offer via a buffer."""
    lhs = net_doc("left", ["inq", "itin"], {"serve": ("quote", {"inq": 1}, {"itin": 1})},
                  ["inq"], ["itin"])
    rhs = net_doc("right", ["inq", "itin", "buf"],
                  {"search": ("search", {"inq": 1}, {"buf": 1}),
                   "offer": ("offer", {"buf": 1}, {"itin": 1})},
                  ["inq"], ["itin"])
    return rule_doc(["inq", "itin"], lhs, rhs)


def loop_replacement_rule() -> dict:
    """Replace an a-loop on s by an a-round-trip through a new place."""
    interface = net_doc("interface", ["s"], {}, ["s"], ["s"], {"s": 1})
    lhs = net_doc("left", ["s"], {"t": ("a", {"s": 1}, {"s": 1})}, ["s"], ["s"], {"s": 1})
    rhs = net_doc("right", ["s", "p"],
                  {"t1": ("a", {"s": 1}, {"p": 1}), "t2": ("a", {"p": 1}, {"s": 1})},
                  ["s"], ["s"], {"s": 1})
    return {**rule_doc(["s"], lhs, rhs), "interface": interface}


def duplicating_rule() -> dict:
    """Add a second quote transition beside the first: behaviour preserving."""
    lhs = net_doc("left", ["inq", "itin"], {"serve": ("quote", {"inq": 1}, {"itin": 1})},
                  ["inq"], ["itin"])
    rhs = net_doc("right", ["inq", "itin"],
                  {"serve": ("quote", {"inq": 1}, {"itin": 1}),
                   "serve2": ("quote", {"inq": 1}, {"itin": 1})},
                  ["inq"], ["itin"])
    return rule_doc(["inq", "itin"], lhs, rhs)


def service_host(rng, k) -> dict:
    """k independent workflows start -> inq -> itin -> done, each with its
    own quote service; copy ids are drawn from the seed."""
    ids = rng.sample(range(10 * k), k)
    places, transitions, initial = [], {}, {}
    for c in ids:
        start, inq, itin, done = (f"w{c}_{x}" for x in ("start", "inq", "itin", "done"))
        places += [start, inq, itin, done]
        transitions[f"w{c}_submit"] = ("submit", {start: 1}, {inq: 1})
        transitions[f"w{c}_serve"] = ("quote", {inq: 1}, {itin: 1})
        transitions[f"w{c}_file"] = ("file", {itin: 1}, {done: 1})
        initial[start] = 1
    return net_doc(f"service-host-{k}", places, transitions, initial=initial)


def reconfigure(seed: int) -> Workload:
    """Structure-only operations: gluing, validation and rewriting.

    Every call does enough work (compose of a 312-place span, rewriting of
    a 400-place host) that argparse and file opening are a small part of
    it.  Of the 40 calls in a pass, the repeats put the median among the
    compose calls and the 90th percentile among the k=100 apply calls.
    """
    w = Workload()
    rng = random.Random(seed)
    for i in range(6):
        span, (n_places, n_trans) = random_span(rng)
        s = w.add_doc(f"span{i}.json", span)
        w.ops.append(Op("compose", ("compose", s), 0, expect_net_size(n_places, n_trans),
                        repeat=2))
        left = w.add_doc(f"span{i}_left.json", span["left"])
        w.ops.append(Op("validate", ("validate", left), 0))
    rules = {
        "service": w.add_doc("service_rule.json", service_rule()),
        "loop": w.add_doc("loop_rule.json", loop_replacement_rule()),
        "duplicate": w.add_doc("duplicate_rule.json", duplicating_rule()),
    }
    for k, repeat, applies in ((100, 3, 8), (40, 1, 1)):
        host = w.add_doc(f"service_host{k}.json", service_host(rng, k))
        w.ops.append(Op("validate", ("validate", host), 0))
        w.ops.append(Op(f"match-{k}", ("match", rules["service"], host), 0,
                        expect_proper_matches(k), repeat))
        w.ops.append(Op(f"match-dup-{k}", ("match", rules["duplicate"], host), 0,
                        expect_proper_matches(k), repeat))
        for m in rng.sample(range(k), applies):
            w.ops.append(Op(f"apply-{k}", ("apply", rules["service"], host, "--match", str(m)),
                            0, expect_net_size(4 * k + 1, 3 * k + 1)))
    for name, exit_code in (("service", EXIT_NOT_BISIMILAR), ("loop", EXIT_NOT_BISIMILAR),
                            ("duplicate", EXIT_BISIMILAR)):
        w.ops.append(Op(f"check-rule-{name}", ("check-rule", rules[name], "--cap", "3"),
                        exit_code))
    return w


BUILDERS = {"bisim-equal": bisim_equal, "bisim-differ": bisim_differ,
            "reconfigure": reconfigure}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
