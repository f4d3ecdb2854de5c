"""Shared protocol vocabulary: values, sender tallies, validity predicates,
payloads, bit accounting.

Values are plain ints constrained to a configurable bit width L (default 32).
The distinguished "no value" symbol used by the reducer and the echo cascades
is the module-level sentinel BOT, which is never a member of the value domain.
"""

from __future__ import annotations

DEFAULT_VALUE_WIDTH = 32

# Widths used by the "full" accounting policy for fields that the default
# ("payload-only") policy excludes.
KIND_TAG_BITS = 8
VIEW_FIELD_BITS = 16
PATH_SEGMENT_BITS = 16


class _Bot:
    """Singleton sentinel for the out-of-band default symbol (not a Value)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BOT"


BOT = _Bot()


def value_sort_key(v):
    """Deterministic ordering over Value ∪ {BOT}; BOT sorts last."""
    if v is BOT:
        return (1, 0)
    return (0, v)


class Tally:
    """Support per value: each (sender, value) pair counts once, or with
    first_only a sender's first message only. Senders are process ids >= 0,
    held as int bit masks: bit s of `backers[v]` is set once sender s backs
    v, and bit s of `senders` once s is counted. `add` returns v's new
    support, or 0 if the message does not count, so `support == k` marks a
    crossing. `total` (distinct senders counted) and `top` (plurality)
    serve the gap rules: `total - top` senders back no plurality value.
    Counting senders, not pairs, keeps a faulty sender that names many
    values at one sender's weight: if every correct sender backs v, the
    senders outside v's backers are faulty, at most t of them."""

    __slots__ = ("first_only", "backers", "senders", "total", "top")

    def __init__(self, first_only: bool = False):
        self.first_only = first_only
        self.backers: dict = {}     # value -> mask of senders
        self.senders = 0
        self.total = 0
        self.top = 0

    def add(self, sender, v) -> int:
        bit = 1 << sender
        if not self.senders & bit:
            self.senders |= bit
            self.total += 1
        elif self.first_only:
            return 0
        backers = self.backers.get(v, 0)
        if backers & bit:
            return 0
        self.backers[v] = backers = backers | bit
        support = backers.bit_count()
        if support > self.top:
            self.top = support
        return support

    def count(self, v) -> int:
        return self.backers.get(v, 0).bit_count()

    def __len__(self):   # distinct values named
        return len(self.backers)


class PayloadError(ValueError):
    """Raised when a payload is built with an unknown kind or missing fields."""


# Message kinds. ECHO..ECHO5 serve the graded consensus (in the sync BA only
# ECHO, ECHO2) and the reducer / validation broadcast; paths disambiguate.
KINDS = (
    "INIT",
    "ECHO",
    "ECHO2",
    "ECHO3",
    "ECHO4",
    "ECHO5",
    "START-VIEW",
    "FINISH",
    "SYNC-ROUND",
    "HALF-REPORT",
)
_KIND_SET = frozenset(KINDS)


class Record:
    """Base of the value records. A record's `__slots__` lists its fields in
    order, and its `__init__` takes each by name and runs its checks.
    Records are equal by class and fields, print as a dataclass does (the
    layer pins hash that repr) and are not hashable; `replace(**changes)`
    rebuilds through `__init__`, checks included. See `runtime`."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        return type(self)(
            **({f: getattr(self, f) for f in self.__slots__} | changes))


class Payload(Record):
    """A typed wire message. `value` may be an int, BOT, or None (absent).
    A record: never edited once built (see `runtime`)."""

    __slots__ = ("kind", "value", "view", "parity", "inner")

    def __init__(self, kind: str, value=None, view: int | None = None,
                 parity: int | None = None, inner: Payload | None = None):
        if kind not in _KIND_SET:
            raise PayloadError(f"unknown payload kind {kind!r}")
        if kind == "SYNC-ROUND":
            if parity not in (0, 1) or inner is None:
                raise PayloadError("SYNC-ROUND needs a parity bit and an inner payload")
        elif kind == "START-VIEW":
            if view is None or view < 1:
                raise PayloadError("START-VIEW needs a view >= 1")
        elif value is None:   # every other kind carries a value
            raise PayloadError(f"{kind} needs a value (or BOT)")
        self.kind, self.value, self.view = kind, value, view
        self.parity, self.inner = parity, inner


class ValidityPredicate(Record):
    """Pure predicate over values: always-true, membership, or modulo.
    `check(v)` reads `kind`, so a predicate holds its four fields alone."""

    __slots__ = ("kind", "members", "divisor", "residue")

    def __init__(self, kind: str = "always-true", members=frozenset(),
                 divisor: int = 0, residue: int = 0):
        if kind not in ("always-true", "membership", "modulo"):
            raise ValueError(f"unknown predicate kind {kind!r}")
        if kind == "modulo" and not (   # an int divisor >= 1, int residue
                type(divisor) is type(residue) is int and divisor >= 1):
            raise ValueError(f"bad modulo fields {divisor!r}, {residue!r}")
        self.kind, self.members = kind, members
        self.divisor, self.residue = divisor, residue

    @classmethod
    def always_true(cls):
        return cls("always-true")

    @classmethod
    def membership(cls, values):
        return cls("membership", members=frozenset(values))

    @classmethod
    def modulo(cls, divisor, residue):
        return cls("modulo", divisor=divisor, residue=residue)

    def check(self, v) -> bool:
        if self.kind == "modulo":
            return v % self.divisor == self.residue
        return self.kind == "always-true" or v in self.members


def payload_bits(p: Payload, policy: str = "payload-only",
                 value_width: int = DEFAULT_VALUE_WIDTH) -> int:
    """Declared-width bit size of a payload.

    payload-only: 8-bit kind tag + value fields at L bits + parity bits;
    view numbers excluded. full: view numbers also counted, at 16 bits.
    `SimConfig` rejects any other policy.
    """
    bits = KIND_TAG_BITS
    if p.value is not None:
        bits += value_width  # BOT occupies the same declared field width
    if p.parity is not None:
        bits += 1
    if p.inner is not None:
        bits += payload_bits(p.inner, policy, value_width)
    if p.view is not None and policy == "full":
        bits += VIEW_FIELD_BITS
    return bits


def path_bits(path: tuple, policy: str) -> int:
    """Routing-header charge; zero under the default policy."""
    if policy == "full":
        return PATH_SEGMENT_BITS * len(path)
    return 0

