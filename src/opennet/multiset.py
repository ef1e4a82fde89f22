"""Finite multisets and the projection/join operations used everywhere else.

A multiset is an immutable map from items to positive counts; an absent item
has count 0.  Items only need to be hashable and mutually orderable (plain
strings in practice, event records elsewhere in the package), and every
iteration order is canonical (sorted) so that downstream output is stable.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import NotSubmultiset, ProjectionMismatch


class Multiset:
    """Immutable finite multiset with pointwise arithmetic.

    ``u + v`` is the pointwise sum, ``u - v`` the difference (defined only
    when ``v <= u``), and ``u <= v`` the pointwise order.  Counts are plain
    Python integers: they never wrap around, and negative counts are
    rejected at construction time.
    """

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries=None):
        data = {}
        if entries is None:
            pass
        elif isinstance(entries, Multiset):
            data = dict(entries._entries)
        elif isinstance(entries, Mapping):
            for item, count in entries.items():
                if not isinstance(count, int):
                    raise TypeError(f"count for {item!r} is not an integer: {count!r}")
                if count < 0:
                    raise ValueError(f"negative count for {item!r}: {count}")
                if count > 0:
                    data[item] = data.get(item, 0) + count
        else:
            for item in entries:
                data[item] = data.get(item, 0) + 1
        object.__setattr__(self, "_entries", data)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def of(cls, *items) -> "Multiset":
        return cls(items)

    def count(self, item) -> int:
        return self._entries.get(item, 0)

    __getitem__ = count

    def __contains__(self, item) -> bool:
        return item in self._entries

    def support(self) -> frozenset:
        return frozenset(self._entries)

    def items(self):
        """Sorted (item, count) pairs; the canonical iteration order."""
        return sorted(self._entries.items(), key=lambda kv: kv[0])

    def elements(self):
        """Each item repeated by its multiplicity, in canonical order."""
        for item, count in self.items():
            for _ in range(count):
                yield item

    def size(self) -> int:
        """Total multiplicity."""
        return sum(self._entries.values())

    def __len__(self) -> int:
        return self.size()

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other):
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(frozenset(self._entries.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other: "Multiset") -> "Multiset":
        data = dict(self._entries)
        for item, count in other._entries.items():
            data[item] = data.get(item, 0) + count
        return _wrap(data)

    def __sub__(self, other: "Multiset") -> "Multiset":
        data = dict(self._entries)
        for item, count in other._entries.items():
            have = data.get(item, 0)
            if count > have:
                raise NotSubmultiset(
                    f"cannot subtract {count} x {item!r} from {have} x {item!r}"
                )
            if count == have:
                del data[item]
            else:
                data[item] = have - count
        return _wrap(data)

    def __le__(self, other: "Multiset") -> bool:
        return all(count <= other.count(item) for item, count in self._entries.items())

    def __ge__(self, other: "Multiset") -> bool:
        return other <= self

    def scale(self, factor: int) -> "Multiset":
        if factor < 0:
            raise ValueError(f"negative scale factor: {factor}")
        if factor == 0:
            return EMPTY
        return _wrap({item: count * factor for item, count in self._entries.items()})

    def restrict(self, keep) -> "Multiset":
        """Sub-multiset of the items contained in `keep`."""
        return _wrap({i: c for i, c in self._entries.items() if i in keep})

    def __repr__(self):
        inner = ", ".join(f"{item!r}: {count}" for item, count in self.items())
        return f"Multiset({{{inner}}})"

    def __str__(self):
        return format_counts(self.items())


def format_counts(pairs) -> str:
    """The text of (item, count) pairs, in their order, zero counts skipped:
    "p+q:2" for p once and q twice, "0" for none.  The one writer of markings."""
    return "+".join(str(i) if n == 1 else f"{i}:{n}" for i, n in pairs if n) or "0"


def _wrap(data: dict) -> Multiset:
    """The trusted path: `data` maps items to positive ints and is not shared.
    The object is made without `__init__`, so nothing is checked or copied."""
    ms = object.__new__(Multiset)
    ms._entries = data
    ms._hash = None
    return ms


EMPTY = Multiset()


def msum(parts: Iterable[Multiset]) -> Multiset:
    total = EMPTY
    for part in parts:
        total = total + part
    return total


def project(f: Mapping, u: Multiset) -> Multiset:
    """Pull a multiset over the codomain of `f` back to its domain.

    The result assigns to each x the count u(f(x)); a non-injective f thus
    duplicates counts across all preimages.
    """
    data = {}
    for x, y in f.items():
        count = u.count(y)
        if count:
            data[x] = data.get(x, 0) + count
    return _wrap(data)


def image(f: Mapping, u: Multiset) -> Multiset:
    """Push a multiset forward along `f`, summing counts that collide.
    `f` must be defined on every item of `u`."""
    data = {}
    for x, count in u._entries.items():
        y = f[x]
        data[y] = data.get(y, 0) + count
    return _wrap(data)


@dataclass(frozen=True)
class SetPushout:
    """A pushout square of injections in the category of sets.

    ``f1: S0 -> S1`` and ``f2: S0 -> S2`` are the span legs, ``a1: S1 -> S3``
    and ``a2: S2 -> S3`` the cospan legs; a1 and a2 are injective and
    jointly surjective, and a1(f1(x)) == a2(f2(x)).
    """

    f1: Mapping
    f2: Mapping
    a1: Mapping
    a2: Mapping


def join(u1: Multiset, u2: Multiset, diagram: SetPushout) -> Multiset:
    """Amalgamate two multisets that agree on the shared interface.

    Returns the unique multiset over S3 projecting to u1 along a1 and to u2
    along a2.  Raises ProjectionMismatch when the agreement precondition
    fails.
    """
    p1 = project(diagram.f1, u1)
    p2 = project(diagram.f2, u2)
    if p1 != p2:
        raise ProjectionMismatch(
            f"interface projections differ: {p1} (left) vs {p2} (right)"
        )
    data = {}
    for x, count in u1.items():
        data[diagram.a1[x]] = count
    for x, count in u2.items():
        data[diagram.a2[x]] = count
    return _wrap(data)
