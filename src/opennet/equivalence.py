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
pair's depth.  Witness and play write states as their markings' text.

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
Otherwise the same two searches run to their end and the full union is
refined; no level is explored twice.  Weak checks take the full path: a
closure edge spans any number of silent steps.
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
    Lts,
    Obs,
    build_lts,
    label_sort_key,
    relabel,
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
    while True:
        # a (label id, block) pair is packed into the one int id + block *
        # width, so a signature is a set of ints; blocks are numbered in
        # order of first sight, so a partition that did not change keeps its ids
        scaled = [b * width for b in blocks]
        numbering, new_blocks = {}, []
        for own, lbls, dsts in zip(blocks, labels, targets):
            sig = (own, frozenset(map(add, lbls, map(scaled.__getitem__, dsts))))
            new_blocks.append(numbering.setdefault(sig, len(numbering)))
        if new_blocks == blocks:
            return blocks
        if rounds is not None:
            rounds.append(new_blocks)
        if until is not None and until(new_blocks):
            return new_blocks
        blocks = new_blocks


def _refine_union(lts1: Lts, lts2: Lts):
    """Refine the disjoint union of two transition systems.

    State j of `lts2` is state n1 + j of the union, n1 being the number of
    states of `lts1`, and the two label tables are merged by value into
    one, so the refinement and the play compare label ids only.  Returns
    the union's label table, its edge columns (per union state, the label
    indices and the targets of its edges), the final block list, and
    depth(x, y) for union states x and y: the first round whose partition
    separates the two, so the challenger wins from (x, y) in that many
    moves and no fewer; 0 means bisimilar.  Partitions are nested, so the
    rounds that separate a pair form a suffix and a binary search finds it.
    """
    table = {}
    n1 = len(lts1.states)
    labels = [[] for _ in range(n1 + len(lts2.states))]
    targets = [[] for _ in labels]
    for offset, lts in ((0, lts1), (n1, lts2)):
        ids = [table.setdefault(label, len(table)) for label in lts.labels]
        for src, label, dst in lts.edges:
            labels[offset + src].append(ids[label])
            targets[offset + src].append(offset + dst)
    rounds = []
    blocks = partition_refinement(labels, targets, rounds)
    return list(table), labels, targets, blocks, _depth(rounds)


def _depth(rounds: list):
    """depth(x, y) over the rounds of a refinement, as `_refine_union`
    describes it."""
    def depth(x: int, y: int) -> int:
        # the number of rounds, a prefix, that keep x and y in one block
        shared = bisect.bisect(range(len(rounds)), False,
                               key=lambda k: rounds[k][x] != rounds[k][y])
        return 0 if shared == len(rounds) else shared + 1

    return depth


def _state_namer(lts1: Lts, lts2: Lts):
    """The marking text of a union state, each state formatted at most once."""
    places = [lts1.places] * len(lts1.states) + [lts2.places] * len(lts2.states)
    states = lts1.states + lts2.states
    return functools.cache(lambda x: semantics.format_marking(places[x], states[x]))


def _extract_play(lts1: Lts, lts2: Lts, table, labels, targets, depth, name):
    """A shortest alternating challenge/response trace for the initial pair.

    The play walks the union states and label indices `_refine_union`
    returns, and `name` writes a union state.  At a pair of depth d the
    challenger picks a move all of whose answers land in pairs of depth
    below d.  Since the pair is (d-1)-step bisimilar, one answer reaches a
    (d-2)-step bisimilar pair, of depth exactly d-1, and the responder
    takes its deepest answer; at depth 1 there is no answer at all.  So
    every move lowers the depth by one, and the play is exactly as long as
    the depth of the initial pair.
    """
    keys = [label_sort_key(label) for label in table]
    play = []
    pair = (lts1.initial, len(lts1.states) + lts2.initial)
    while pair is not None and depth(*pair):
        x, y = pair
        move, pair = _best_challenge(name, table, keys, labels, targets, x, y, depth)
        play.append(move)
    return play


def _best_challenge(name, table, keys, labels, targets, x, y, depth):
    """The canonical winning challenge at a separated pair of union states.

    A challenge wins iff every response lands in a pair separated strictly
    earlier; the responder then answers with its most resistant option.
    Returns the move and the pair it leads to (None when the responder is
    stuck).
    """
    here = depth(x, y)
    candidates = []
    for side, a, b in ((1, x, y), (2, y, x)):
        for label, a2 in zip(labels[a], targets[a]):
            responses = sorted(b2 for lbl, b2 in zip(labels[b], targets[b]) if lbl == label)
            rdepths = [depth(a2, b2) for b2 in responses]
            if all(0 < d < here for d in rdepths):
                candidates.append((side, label, a2, responses, rdepths))
    # canonical: side, then label order, then target state index
    candidates.sort(key=lambda c: (c[0], keys[c[1]], c[2]))
    side, label, a2, responses, rdepths = candidates[0]
    response = max(zip(rdepths, responses))[1] if responses else None
    move = PlayMove(
        side=side,
        label=table[label],
        source_pair=(name(x), name(y)),
        challenger_target=name(a2),
        response_target=None if response is None else name(response),
    )
    if response is None:
        return move, None
    return move, (a2, response) if side == 1 else (response, a2)


def _eta_obs(eta: Correspondence):
    def fn(obs: Obs) -> Obs:
        if obs.kind == "plus":
            return Obs("plus", eta.eta_in[obs.name])
        if obs.kind == "minus":
            return Obs("minus", eta.eta_out[obs.name])
        return obs

    return fn


class _Columns:
    """One system of a local check: its search, and the edges found so far
    in `_refine_union`'s columns, with targets counted within this system."""

    def __init__(self, search, rename):
        self.search, self.rename = search, rename
        self.ids = []  # search label index -> union label id
        self.labels, self.targets = [], []
        self.read = 0  # the search's edges already in the columns

    def grow(self, table: dict):
        """Add what the search found since the last call; table merges the
        (renamed) labels of both systems by value."""
        search, ids, labels, targets = self.search, self.ids, self.labels, self.targets
        ids += [table.setdefault(self.rename(label), len(table))
                for label in itertools.islice(search.table, len(ids), None)]
        new = len(search.states) - len(labels)
        labels += [[] for _ in range(new)]
        targets += [[] for _ in range(new)]
        for src, label, dst in search.edges[self.read:]:
            labels[src].append(ids[label])
            targets[src].append(dst)
        self.read = len(search.edges)


RADII = (1, 2, 4)


def _local_verdict(searches, eta: Correspondence, cap: int) -> BisimVerdict | None:
    """A strong check's NotBisimilar verdict, found from the balls around
    the initial markings as the module docstring says; None when they do
    not settle it, or when both searches are done before.

    Both searches advance in lockstep, and the refinement stops once the
    initial pair separates or the partition stops changing.  After an
    answer, the searches go on only until one of them overflows, or both are
    done, which decides `touched_overflow` as the full systems would.
    """
    table = {}
    columns = [_Columns(searches[0], functools.partial(semantics.rename_label, fn=_eta_obs(eta))),
               _Columns(searches[1], lambda label: label)]
    reached = 0
    for radius in RADII:
        for _ in range(radius - reached):
            for search in searches:
                search.level()
        reached = radius
        if all(search.done for search in searches):
            return None  # nothing is left to spare
        for side in columns:
            side.grow(table)
        first, second = columns
        n1 = len(first.labels)
        labels = first.labels + second.labels
        targets = first.targets + [[dst + n1 for dst in row] for row in second.targets]
        rounds = []
        blocks = partition_refinement(
            labels, targets, rounds,
            until=lambda blocks: blocks[0] != blocks[n1] or len(rounds) == radius)
        if blocks[0] == blocks[n1]:
            continue
        lts1, lts2 = (search.ball() for search in searches)
        play = _extract_play(lts1, lts2, list(table), labels, targets, _depth(rounds),
                             _state_namer(lts1, lts2))
        while not (any(search.overflowed for search in searches)
                   or all(search.done for search in searches)):
            for search in searches:
                search.level()
        return BisimVerdict(
            kind="strong", mode=lts1.mode, result=NOT_BISIMILAR, bound=cap, witness=None,
            play=play, touched_overflow=any(search.overflowed for search in searches), eta=eta,
        )
    return None


def _prepared_lts(z: OpenNet, kind, mode, tau_labels, cap, max_step) -> Lts:
    lts = build_lts(z, mode=mode, cap=cap, max_step=max_step)
    if kind == "weak":
        lts = weak_closure(lts, tau_labels)
    return lts


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
        lts1, lts2 = (_prepared_lts(z, kind, mode, tau_labels, cap, max_step) for z in (z1, z2))
        return _verdict(lts1, lts2, eta, kind, cap)
    searches = [semantics._Search(z, mode, cap, max_step) for z in (z1, z2)]
    verdict = _local_verdict(searches, eta, cap)
    if verdict is None:
        # finish the searches already started; no level is explored twice
        lts1, lts2 = (build_lts(z, search=search) for z, search in zip((z1, z2), searches))
        verdict = _verdict(lts1, lts2, eta, kind, cap)
    return verdict


def _verdict(lts1: Lts, lts2: Lts, eta: Correspondence, kind: str, cap: int) -> BisimVerdict:
    """The verdict on two prepared transition systems, the first one's
    interactions renamed through eta."""
    lts1 = relabel(lts1, _eta_obs(eta))
    touched = lts1.has_overflow() or lts2.has_overflow()

    table, labels, targets, blocks, depth = _refine_union(lts1, lts2)
    n1, name = len(lts1.states), _state_namer(lts1, lts2)

    if blocks[lts1.initial] == blocks[n1 + lts2.initial]:
        by_block = {}
        for j in range(n1, len(blocks)):
            by_block.setdefault(blocks[j], []).append(j)
        states = lts1.states + lts2.states
        pairs = [(i, j) for i in range(n1) for j in by_block.get(blocks[i], ())]
        mixed_overflow = any((states[i] is OVERFLOW) != (states[j] is OVERFLOW) for i, j in pairs)
        result = INCONCLUSIVE if mixed_overflow else BISIMILAR
        return BisimVerdict(
            kind=kind, mode=lts1.mode, result=result, bound=cap,
            witness=[(name(i), name(j)) for i, j in pairs], play=None,
            touched_overflow=touched or mixed_overflow, eta=eta,
        )

    play = _extract_play(lts1, lts2, table, labels, targets, depth, name)
    return BisimVerdict(
        kind=kind, mode=lts1.mode, result=NOT_BISIMILAR, bound=cap,
        witness=None, play=play, touched_overflow=touched, eta=eta,
    )


MAX_AUTO_INTERFACE = 5


def search_correspondence(z1: OpenNet, z2: OpenNet, kind="strong", mode=FIRING,
                          tau_labels=frozenset(), cap=DEFAULT_CAP,
                          max_step=DEFAULT_MAX_STEP) -> BisimVerdict:
    """Try every correspondence between the open places and keep any witness.

    Bisimilarity of nets quantifies existentially over correspondences, so
    the nets are bisimilar iff some eta works.  Interfaces are required to
    be small, the search being factorial.
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
    if len(etas) == 1:  # nothing to share between candidates: a plain check
        return check_bisim(z1, z2, etas[0], kind, mode, tau_labels, cap, max_step)
    # only the labels depend on eta, so each net is explored once
    lts1, lts2 = (_prepared_lts(z, kind, mode, tau_labels, cap, max_step) for z in (z1, z2))
    first = fallback = None
    for eta in etas:
        verdict = _verdict(lts1, lts2, eta, kind, cap)
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
            lts = _prepared_lts(z.with_initial(root), "weak", FIRING, tau_labels, cap,
                                DEFAULT_MAX_STEP)
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
            mirror_obs = _eta_obs(mirror)
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
                    want = mirror_obs(label)
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
