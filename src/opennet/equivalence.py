"""Bisimilarity checking between open nets.

Verdicts are always relative to a per-place bound on the explored markings:
a `Bisimilar` result certifies bisimilarity on the capped region, and the
`touched_overflow` flag records whether the exploration was truncated at
all.  A `NotBisimilar` verdict comes with a distinguishing play; when
neither net overflowed the bound, the play is valid for the unbounded nets.
`Inconclusive` is returned when the only way to relate the initial markings
equates a real marking with the overflow state, i.e. the verdict would rest
on unexplored behaviour.

One refinement of the disjoint union of the two transition systems yields
everything: its final partition decides the verdict and groups the witness
pairs, and its rounds give the depth of every cross pair, the number of
moves in which the challenger wins from it.  The play starts at the initial
pair and lowers the depth by one per move, so it is as long as the initial
pair's depth.  Witness and play write states as their markings' text.  One
object (`_Union`) owns the union: it numbers each state once, when it first
reads it, lays the edges out once, and gives the depth, the play and the
verdict.  It is grown from the two searches in a strong check, and read once
from the two systems and saturated in a weak check.  A correspondence search
is a loop over `check_bisim`, which refutes a wrong eta near the initial
markings, except a weak search over several candidates: a weak check has no
such answer, so those candidates share one exploration and one closure per
net, and the union reads the two weak-closed systems once per eta.

A strong check first answers NotBisimilar, when it can, from the states
near the initial markings (on-the-fly checking, after Fernandez & Mounier,
CAV 1991).  `build_lts` explores level by level, so the states within
distance k of the initial marking are a prefix of `Lts.states`, and the
edges of those within distance k - 1 a prefix of `Lts.edges`.  The union of
these two balls is refined for at most k rounds, at k = 1, 2 and 4.  The
answer is exact for these reasons:
- the round-r block of a state at distance j depends only on the edges of
  the states within distance j + r - 1, so it is exact when j + r <= k; at
  j = 0, a separation within k rounds is the initial pair's depth d;
- a play of depth d <= k consults, at distance j, only rounds below d - j,
  so it is the play of the full systems;
- the truncated rounds are still the nested partitions of a finite graph,
  so `depth`'s binary search over them stays valid.
Otherwise the same two searches run to their end, the union grows by the
states and edges the attempts did not read, and it is refined in full; no
level is explored twice.  Weak checks take the full path, since a weak edge
spans any number of silent steps: the union reads the two raw systems once
and saturates its own rows in place (`semantics.saturate`), so no
weak-closed system is built; weak bisimilarity is strong bisimilarity of
the saturated systems (Milner, Communication and Concurrency, 1989).
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from operator import add

from . import multiset, semantics
from .errors import (
    InvalidBound,
    NotACorrespondence,
    PairExceedsCap,
    UnknownPlace,
    UnsupportedMode,
)
from .multiset import Multiset
from .nets import Correspondence, OpenNet, validate_correspondence
from .semantics import (
    DEFAULT_CAP,
    DEFAULT_MAX_STEP,
    FIRING,
    OVERFLOW,
    Obs,
    build_lts,
    label_sort_key,
    weak_closure,
)

__all__ = [
    "BisimVerdict",
    "PlayMove",
    "check_bisim",
    "search_correspondence",
    "induced_correspondence",
    "check_upto",
    "UpToResult",
    "out_degree",
    "subtractable",
    "subtractable_markings",
    "partition_refinement",
]

BISIMILAR = "Bisimilar"
NOT_BISIMILAR = "NotBisimilar"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class PlayMove:
    """One exchange of the bisimulation game.

    The challenger on `side` (1 or 2) plays `label` reaching
    `challenger_target`; `response_target` is the strongest answer of the
    other net, or None when there is no answer at all.
    """

    side: int
    label: object
    source_pair: tuple
    challenger_target: object
    response_target: object


@dataclass
class BisimVerdict:
    """A check's answer; `witness` relates markings as (text, text) pairs, like `PlayMove`."""

    kind: str  # "strong" | "weak"
    mode: str  # "firing" | "step"
    result: str
    bound: int
    witness: list | None
    play: list | None
    touched_overflow: bool
    eta: Correspondence | None = None


def out_degree(z: OpenNet, s: str) -> int:
    """The largest number of tokens one extended event can remove from s."""
    if s not in z.places:
        raise UnknownPlace(f"no place {s!r} in the net")
    candidates = [tr.pre.count(s) for tr in z.transitions.values()]
    if s in z.open_out:
        candidates.append(1)
    candidates.append(0)
    return max(candidates)


def subtractable(z: OpenNet, u: Multiset, v: Multiset) -> bool:
    """Whether v consists of surplus tokens on input-open places of u.

    Surplus means exceeding the place's out-degree, so removing v cannot
    disable any single event.
    """
    if not v.support() <= z.open_in:
        return False
    return all(v.count(s) <= max(u.count(s) - out_degree(z, s), 0) for s in v.support())


def subtractable_markings(z: OpenNet, u: Multiset):
    """All markings subtractable from u, in canonical order."""
    places = sorted(z.open_in)
    ceilings = [max(u.count(s) - out_degree(z, s), 0) for s in places]
    for counts in itertools.product(*(range(c + 1) for c in ceilings)):
        yield Multiset({s: c for s, c in zip(places, counts) if c})


def partition_refinement(labels, targets, rounds: list | None = None, until=None) -> list:
    """Coarsest bisimulation partition of a finite labelled graph.

    State i's edges are the columns `labels[i]` and `targets[i]`, read in
    step: edge k goes to state `targets[i][k]` under label id
    `labels[i][k]`, a non-negative int that equal labels share.  Returns a
    block id per state; equal ids mean bisimilar states, and ids mean
    nothing else.

    Naive refinement (Kanellakis & Smolka): round k splits each block by the
    set of (label, round k-1 block) pairs its states can reach, so two
    states share a round-k block iff they are k-step bisimilar.  Each
    partition refines the one before it.  When `rounds` is given, the block
    list of every round that changed the partition is appended to it, round
    1 first, so its last entry (if any) is the returned partition.  When
    `until` is given, it is asked about the block list of each round that
    changed the partition, and the refinement stops at the first one it
    accepts: the partition returned is then that round's.
    """
    width = 1 + max((max(lbls) for lbls in labels if lbls), default=0)
    blocks = [0] * len(labels)
    signatures = map(frozenset, labels)  # round 1: every target is in block 0
    while True:
        # blocks are numbered in order of first sight, so a partition that
        # did not change keeps its ids
        numbering = {}
        new_blocks = [numbering.setdefault(sig, len(numbering)) for sig in signatures]
        if new_blocks == blocks:
            return blocks
        if rounds is not None:
            rounds.append(new_blocks)
        if until is not None and until(new_blocks):
            return new_blocks
        blocks = new_blocks
        # a (label id, block) pair is packed into the one int id + block *
        # width, so a signature is the own block and a set of ints
        scaled = [b * width for b in blocks]
        signatures = ((own, frozenset(map(add, lbls, map(scaled.__getitem__, dsts))))
                      for own, lbls, dsts in zip(blocks, labels, targets))


def _eta_rename(eta: Correspondence):
    """The renaming of a label's interactions through eta."""
    def fn(obs: Obs) -> Obs:
        if obs.kind == "plus":
            return Obs("plus", eta.eta_in[obs.name])
        if obs.kind == "minus":
            return Obs("minus", eta.eta_out[obs.name])
        return obs

    return functools.partial(semantics.rename_label, fn=fn)


class _Union:
    """The disjoint union of two systems, each an `Lts` or a
    `semantics._Search` in progress: anything that lists `states`, `labels`
    and `edges`, and names its `places`, `initial`, `mode` and `cap`.

    The union numbers each state once, when `grow` first reads it:
    `numbers[s][j]` is state j of system s, and each system keeps its own
    order.  Per union state, `labels` and `targets` are the edge columns
    `partition_refinement` reads: label ids, merged by value into `table`
    (those of the first system renamed by `rename`, each once), and union
    states; a weak check has `saturate` turn them into weak rows.  `refine`
    keeps its final partition in `blocks` and each round's in `rounds`; the
    depth, the play and the verdict are read off them.
    """

    def __init__(self, first, second, rename):
        self.systems, self.renames = (first, second), (rename, lambda label: label)
        self.table = {}  # label -> union label id
        self.ids = ([], [])  # per system: its label index -> union label id
        self.numbers = ([], [])  # per system: its state index -> union state
        self.labels, self.targets = [], []  # per union state
        self.read = [0, 0]  # per system: its edges already in the columns
        self.blocks, self.rounds = None, []

    def grow(self):
        """Add what the two systems listed since the last call; each label
        is renamed, each state numbered and each edge read once."""
        table, labels, targets = self.table, self.labels, self.targets
        for side, system in enumerate(self.systems):
            ids, numbers = self.ids[side], self.numbers[side]
            ids += [table.setdefault(self.renames[side](label), len(table))
                    for label in itertools.islice(system.labels, len(ids), None)]
            new = len(system.states) - len(numbers)
            numbers += range(len(labels), len(labels) + new)
            labels += [[] for _ in range(new)]
            targets += [[] for _ in range(new)]
            for src, label, dst in itertools.islice(system.edges, self.read[side], None):
                x = numbers[src]
                labels[x].append(ids[label])
                targets[x].append(numbers[dst])
            self.read[side] = len(system.edges)

    def saturate(self, tau_labels) -> _Union:
        """Grow, then replace each row by its weak row (`semantics.saturate`),
        the silent label joined to the table: the union of the two weak
        closures, with no weak edge written twice.  The systems must be
        read in full."""
        self.grow()
        table, labels, targets = self.table, self.labels, self.targets
        mode = self.systems[0].mode
        table.setdefault(semantics.silent_label(mode), len(table))
        skip = {numbers[j] for system, numbers in zip(self.systems, self.numbers)
                for j, state in enumerate(system.states) if state is OVERFLOW}
        rows = semantics.saturate(labels, targets, list(table), mode, tau_labels, skip)
        # saturate reads every strong row before it yields the first weak one
        for x, row in enumerate(rows):
            labels[x], targets[x] = lbls, dsts = [], []
            for label, row_targets in row.items():
                lbls += [label] * len(row_targets)
                dsts += row_targets
        return self

    def refine(self, until=None) -> _Union:
        """Grow, then refine the union, `until` as `partition_refinement`
        takes it; `until` may read `rounds`, which holds every round up to
        the one it is asked about."""
        self.grow()
        self.rounds = []
        self.blocks = partition_refinement(self.labels, self.targets, self.rounds, until)
        return self

    @property
    def initial(self) -> tuple:
        """The union states of the two initial markings."""
        return tuple(numbers[system.initial]
                     for system, numbers in zip(self.systems, self.numbers))

    def separated(self, blocks) -> bool:
        """Whether the block list `blocks` parts the initial markings."""
        x, y = self.initial
        return blocks[x] != blocks[y]

    def depth(self, x: int, y: int) -> int:
        """The first round whose partition separates union states x and y,
        so the challenger wins from (x, y) in that many moves and no fewer;
        0 means bisimilar.  Partitions are nested, so the rounds that
        separate a pair form a suffix and a binary search finds it."""
        rounds = self.rounds
        # the number of rounds, a prefix, that keep x and y in one block
        shared = bisect.bisect(range(len(rounds)), False,
                               key=lambda k: rounds[k][x] != rounds[k][y])
        return 0 if shared == len(rounds) else shared + 1

    def names(self):
        """The marking text of a union state, each state formatted at most
        once; a verdict builds it when it writes its witness or play."""
        places, states = [None] * len(self.labels), [None] * len(self.labels)
        for system, numbers in zip(self.systems, self.numbers):
            for x, state in zip(numbers, system.states):
                places[x], states[x] = system.places, state
        return functools.cache(lambda x: semantics.format_marking(places[x], states[x]))

    def play(self) -> list:
        """A shortest alternating challenge/response trace for the initial pair.

        At a pair of depth d the challenger picks a move all of whose answers
        land in pairs of depth below d; the canonical one comes first by
        side, then label order, then target.  Since the pair is (d-1)-step
        bisimilar, one answer reaches a (d-2)-step bisimilar pair, of depth
        exactly d-1, and the responder takes its deepest answer; at depth 1
        there is no answer at all.  So every move lowers the depth by one,
        and the play is exactly as long as the depth of the initial pair.
        """
        table = list(self.table)
        keys = [label_sort_key(label) for label in table]
        labels, targets, depth, name = self.labels, self.targets, self.depth, self.names()
        play, pair = [], self.initial
        while pair is not None and (here := depth(*pair)):
            x, y = pair
            candidates = []
            for side, a, b in ((1, x, y), (2, y, x)):
                for label, a2 in zip(labels[a], targets[a]):
                    responses = sorted(b2 for lbl, b2 in zip(labels[b], targets[b])
                                       if lbl == label)
                    rdepths = [depth(a2, b2) for b2 in responses]
                    if all(0 < d < here for d in rdepths):
                        candidates.append((side, label, a2, responses, rdepths))
            # a2 and the responses are each of one system, whose order they keep
            side, label, a2, responses, rdepths = min(
                candidates, key=lambda c: (c[0], keys[c[1]], c[2]))
            response = max(zip(rdepths, responses))[1] if responses else None
            play.append(PlayMove(
                side=side,
                label=table[label],
                source_pair=(name(x), name(y)),
                challenger_target=name(a2),
                response_target=None if response is None else name(response),
            ))
            pair = None if response is None else (a2, response) if side == 1 else (response, a2)
        return play

    def verdict(self, eta: Correspondence, kind: str) -> BisimVerdict:
        """The verdict read off the last refinement: NotBisimilar with the
        play when it parts the initial markings; otherwise the witness pairs
        the states of each shared block, and Inconclusive when one of its
        pairs mixes a real marking with OVERFLOW."""
        first = self.systems[0]
        touched = any(OVERFLOW in system.states for system in self.systems)
        if self.separated(self.blocks):
            return BisimVerdict(kind=kind, mode=first.mode, result=NOT_BISIMILAR,
                                bound=first.cap, witness=None, play=self.play(),
                                touched_overflow=touched, eta=eta)
        blocks, (numbers1, numbers2) = self.blocks, self.numbers
        by_block = {}
        for y in numbers2:
            by_block.setdefault(blocks[y], []).append(y)
        pairs = [(x, y) for x in numbers1 for y in by_block.get(blocks[x], ())]
        overflow = {x for system, numbers in zip(self.systems, self.numbers)
                    for x, state in zip(numbers, system.states) if state is OVERFLOW}
        mixed_overflow = any((x in overflow) != (y in overflow) for x, y in pairs)
        names = list(map(self.names(), range(len(self.labels))))  # each state once
        return BisimVerdict(
            kind=kind, mode=first.mode, result=INCONCLUSIVE if mixed_overflow else BISIMILAR,
            bound=first.cap, witness=[(names[x], names[y]) for x, y in pairs], play=None,
            touched_overflow=touched or mixed_overflow, eta=eta,
        )


RADII = (1, 2, 4)


def _local_verdict(searches, union: _Union, eta: Correspondence) -> BisimVerdict | None:
    """A strong check's NotBisimilar verdict, found from the balls around
    the initial markings as the module docstring says; None when they do
    not settle it, or when both searches are done before.  `union` is the
    union of the two searches.

    Both searches advance in lockstep, and the refinement stops once the
    initial pair separates or the partition stops changing.  After an
    answer, the searches go on only until one of them overflows, or both are
    done, which decides `touched_overflow` as the full systems would; the
    union does not read the states they find, so none is decoded.
    """
    reached = 0
    for radius in RADII:
        for _ in range(radius - reached):
            for search in searches:
                search.level()
        reached = radius
        if all(search.done for search in searches):
            return None  # nothing is left to spare
        union.refine(until=lambda blocks: union.separated(blocks) or len(union.rounds) == radius)
        if not union.separated(union.blocks):
            continue
        verdict = union.verdict(eta, "strong")
        while not (any(search.overflowed for search in searches)
                   or all(search.done for search in searches)):
            for search in searches:
                search.level()
        verdict.touched_overflow = any(search.overflowed for search in searches)
        return verdict
    return None


def _check_kind(kind: str):
    if kind not in ("strong", "weak"):
        raise UnsupportedMode(f"unknown kind {kind!r}; expected 'strong' or 'weak'")


def _check_correspondence(eta: Correspondence, z1: OpenNet, z2: OpenNet):
    report = validate_correspondence(eta, z1, z2)
    if not report.ok:
        raise NotACorrespondence(str(report))


def check_bisim(z1: OpenNet, z2: OpenNet, eta: Correspondence,
                kind: str = "strong", mode: str = FIRING,
                tau_labels=frozenset(), cap: int = DEFAULT_CAP,
                max_step: int = DEFAULT_MAX_STEP) -> BisimVerdict:
    """Decide (weak) firing or step bisimilarity up to the marking cap.

    The correspondence aligns the interaction observations of the first net
    with those of the second; transition labels are compared as they are.
    A strong check first looks for a NotBisimilar answer near the initial
    markings (`_local_verdict`), and otherwise explores both nets in full.
    """
    _check_kind(kind)
    _check_correspondence(eta, z1, z2)
    if kind == "weak":
        lts1, lts2 = (build_lts(z, mode=mode, cap=cap, max_step=max_step) for z in (z1, z2))
        union = _Union(lts1, lts2, _eta_rename(eta)).saturate(tau_labels)
        return union.refine().verdict(eta, kind)
    searches = [semantics._Search(z, mode, cap, max_step) for z in (z1, z2)]
    union = _Union(*searches, _eta_rename(eta))
    verdict = _local_verdict(searches, union, eta)
    if verdict is None:
        # finish the searches the union reads; no level is explored twice
        for z, search in zip((z1, z2), searches):
            build_lts(z, search=search)
        verdict = union.refine().verdict(eta, kind)
    return verdict


MAX_AUTO_INTERFACE = 5


def search_correspondence(z1: OpenNet, z2: OpenNet, kind="strong", mode=FIRING,
                          tau_labels=frozenset(), cap=DEFAULT_CAP,
                          max_step=DEFAULT_MAX_STEP) -> BisimVerdict:
    """Try every correspondence between the open places and keep any witness.

    Bisimilarity of nets quantifies existentially over correspondences, so
    the nets are bisimilar iff some eta works: the answer is the first
    Bisimilar candidate's verdict, else the first Inconclusive one's, else
    the first candidate's.  Interfaces are required to be small, the search
    being factorial.  A strong search checks each candidate with
    `check_bisim`, whose local answer refutes a wrong eta without exploring
    either net in full.  A weak check has no such answer, so a weak search
    over several candidates explores and closes each net once, for only
    the first system's labels depend on eta.
    """
    _check_kind(kind)
    for side in ("+", "-"):
        if len(z1.opens(side)) > MAX_AUTO_INTERFACE or len(z2.opens(side)) > MAX_AUTO_INTERFACE:
            raise NotACorrespondence(
                f"interface too large for automatic search (>{MAX_AUTO_INTERFACE} places); "
                "provide a correspondence explicitly"
            )
    if len(z1.open_in) != len(z2.open_in) or len(z1.open_out) != len(z2.open_out):
        raise NotACorrespondence(
            "no correspondence exists: the open interfaces have different sizes"
        )
    ins1, ins2 = sorted(z1.open_in), sorted(z2.open_in)
    outs1, outs2 = sorted(z1.open_out), sorted(z2.open_out)
    etas = [Correspondence(eta_in=dict(zip(ins1, perm_in)), eta_out=dict(zip(outs1, perm_out)))
            for perm_in in itertools.permutations(ins2)
            for perm_out in itertools.permutations(outs2)]
    if kind == "strong" or len(etas) == 1:
        verdicts = (check_bisim(z1, z2, eta, kind, mode, tau_labels, cap, max_step)
                    for eta in etas)
    else:
        lts1, lts2 = (weak_closure(build_lts(z, mode=mode, cap=cap, max_step=max_step),
                                   tau_labels) for z in (z1, z2))
        verdicts = (_Union(lts1, lts2, _eta_rename(eta)).refine().verdict(eta, kind)
                    for eta in etas)
    first = fallback = None
    for verdict in verdicts:
        if verdict.result == BISIMILAR:
            return verdict
        if verdict.result == INCONCLUSIVE and fallback is None:
            fallback = verdict
        if first is None:
            first = verdict
    return fallback or first


def induced_correspondence(po1, po2, eta: Correspondence) -> Correspondence:
    """Lift a correspondence between the second components of two pushouts.

    Both pushouts must share the first leg's target (the common context).
    An open place of the first glued net coming from the context maps to the
    same context place in the second glued net; one coming from the varying
    component maps through eta.
    """
    eta_in = {}
    eta_out = {}
    for polarity, store, component in (("+", eta_in, eta.eta_in), ("-", eta_out, eta.eta_out)):
        for s3 in po1.z3.opens(polarity):
            pre1 = po1.alpha1.place_preimages(s3)
            if pre1:
                (s,) = pre1
                store[s3] = po2.alpha1.place_map[s]
            else:
                (s,) = po1.alpha2.place_preimages(s3)
                store[s3] = po2.alpha2.place_map[component[s]]
    return Correspondence(eta_in=eta_in, eta_out=eta_out)


@dataclass
class UpToResult:
    accepted: bool
    reason: str | None
    touched_overflow: bool


def check_upto(z1: OpenNet, z2: OpenNet, eta: Correspondence, pairs,
               tau_labels=frozenset(), cap: int = DEFAULT_CAP,
               mode: str = FIRING) -> UpToResult:
    """Check a finite relation against the up-to transfer conditions.

    After each challenge/response exchange, tokens on input-open places
    exceeding the place's out-degree may be discarded from both successor
    markings before looking the pair up in the relation again.  Acceptance
    certifies that every pair is weakly firing bisimilar.

    The technique is specific to firing behaviour: a parallel step can
    consume arbitrarily many tokens, so no out-degree bound exists.
    """
    _check_correspondence(eta, z1, z2)
    if cap < 0:
        raise InvalidBound(f"the cap ({cap}) must be non-negative")
    if mode != FIRING:
        raise UnsupportedMode(
            "the up-to technique applies to firing bisimilarity only; "
            "step-mode out-degrees are unbounded"
        )
    pair_list = sorted(pairs, key=lambda p: (str(p[0]), str(p[1])))
    relation = set(pair_list)
    for pair in pair_list:
        for z, u in zip((z1, z2), pair):
            if not u.support() <= z.places:
                raise UnknownPlace(f"marking {u} in the relation names an undeclared place")
            if not all(c <= cap for _, c in u.items()):
                raise PairExceedsCap(f"marking {u} in the relation exceeds the cap {cap}")

    touched = False
    # per distinct root marking, per net: whether its weak-closed transition
    # system overflows, and the root's weak moves within the cap, by label
    cache = {}

    def responses(z, which, root, want_label):
        key = (which, root)
        if key not in cache:
            lts = weak_closure(build_lts(z.with_initial(root), FIRING, cap=cap), tau_labels)
            moves = {}
            for src, label, dst in lts.labelled_edges():
                if src == lts.initial and lts.states[dst] is not OVERFLOW:
                    moves.setdefault(label, []).append(lts.marking(dst))
            cache[key] = (lts.has_overflow(), moves)
        overflows, moves = cache[key]
        nonlocal touched
        touched = touched or overflows
        return moves.get(want_label, [])

    inverse = eta.inverse()
    for u1, u2 in pair_list:
        # mirror carries the challenger's places over to the responder's
        for direction, side, challenger_z, responder_z, cu, ru, mirror in (
            (1, "first", z1, z2, u1, u2, eta),
            (2, "second", z2, z1, u2, u1, inverse),
        ):
            mirror_label = _eta_rename(mirror)
            for step in semantics.enabled_steps(challenger_z, cu, FIRING, cap, 1):
                target = step.target
                if not all(c <= cap for _, c in target.items()):
                    raise PairExceedsCap(
                        f"challenge from {cu} reaches {target}, beyond the cap {cap}; "
                        "raise the cap"
                    )
                (event,) = tuple(step.events.support())
                label = semantics.observe(challenger_z, event)
                if label.kind == "lab" and label.name in tau_labels:
                    want = None
                else:
                    want = mirror_label(label)
                answered = False
                for answer in responses(responder_z, direction % 2 + 1, ru, want):
                    for v in subtractable_markings(challenger_z, target):
                        v_mirror = multiset.image(mirror.eta_in, v)
                        if not v_mirror <= answer:
                            continue
                        cut = target - v
                        cut_answer = answer - v_mirror
                        candidate = (cut, cut_answer) if direction == 1 else (cut_answer, cut)
                        if candidate in relation:
                            answered = True
                            break
                    if answered:
                        break
                if not answered:
                    return UpToResult(
                        accepted=False,
                        reason=(
                            f"pair ({u1}, {u2}): {side}-net move "
                            f"{semantics.format_label(label)} to {target} has no "
                            "answer landing back in the relation"
                        ),
                        touched_overflow=touched,
                    )
    return UpToResult(accepted=True, reason=None, touched_overflow=touched)
