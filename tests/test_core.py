import pytest
from hypothesis import given, strategies as st

from operlab.core import (BOT, Payload, PayloadError, Tally,
                          ValidityPredicate, path_bits, payload_bits,
                          value_sort_key)


def test_value_payload_is_40_bits():
    assert payload_bits(Payload("ECHO", value=7)) == 40


def test_bot_occupies_full_value_field():
    assert payload_bits(Payload("ECHO", value=BOT)) == 40


def test_view_excluded_from_default_accounting():
    p = Payload("START-VIEW", view=3)
    assert payload_bits(p, "payload-only") == 8
    assert payload_bits(p, "full") == 24


def test_wrapped_round_message_counts_inner():
    p = Payload("SYNC-ROUND", parity=1, inner=Payload("ECHO", value=5))
    assert payload_bits(p) == 8 + 1 + 40


def test_custom_value_width():
    assert payload_bits(Payload("INIT", value=3), value_width=8) == 16


def test_path_bits():
    assert path_bits(("crux@1", "gc1"), "payload-only") == 0
    assert path_bits(("crux@1", "gc1"), "full") == 32


def test_bot_sorts_last():
    assert sorted([BOT, 5, 1], key=value_sort_key) == [1, 5, BOT]


def test_bot_is_singleton():
    assert BOT is type(BOT)()
    assert repr(BOT) == "BOT"


VALUE_KINDS = ("INIT", "ECHO", "ECHO2", "ECHO3", "ECHO4", "ECHO5", "FINISH",
               "HALF-REPORT")


@pytest.mark.parametrize("kind,kwargs", [
    ("ECHO", {}),                       # missing value
    ("START-VIEW", {}),                 # missing view
    ("START-VIEW", {"view": 0}),        # views start at 1
    ("SYNC-ROUND", {"parity": 0}),      # missing inner
    ("SYNC-ROUND", {"inner": Payload("ECHO", value=1)}),  # missing parity
    ("NOPE", {"value": 1}),             # unknown kind
    # every other value kind without its value
    *((kind, {}) for kind in VALUE_KINDS if kind != "ECHO"),
])
def test_malformed_payload_rejected(kind, kwargs):
    with pytest.raises(PayloadError):
        Payload(kind, **kwargs)


@pytest.mark.parametrize("kind,kwargs", [
    *((kind, {"value": BOT}) for kind in VALUE_KINDS),
    ("START-VIEW", {"view": 1}),        # a view and no value
])
def test_well_formed_payload_accepted(kind, kwargs):
    p = Payload(kind, **kwargs)
    assert (p.value, p.view) == (kwargs.get("value"), kwargs.get("view"))


def test_validity_predicates():
    assert ValidityPredicate.always_true().check(123)
    member = ValidityPredicate.membership([1, 2, 3])
    assert member.check(2) and not member.check(9)
    mod = ValidityPredicate.modulo(5, 2)
    assert mod.check(7) and not mod.check(8)


@pytest.mark.parametrize("divisor, residue", [
    (0, 0), (-3, 1), (2.0, 1), (True, 0), (4, "1"), (4, None)])
def test_modulo_predicate_rejects_bad_fields_when_built(divisor, residue):
    with pytest.raises(ValueError, match="bad modulo fields"):
        ValidityPredicate.modulo(divisor, residue)


def test_validity_predicate_rejects_an_unknown_kind_when_built():
    with pytest.raises(ValueError, match="unknown predicate kind 'bogus'"):
        ValidityPredicate("bogus")


@given(st.booleans(),
       st.lists(st.tuples(st.integers(0, 200),
                          st.sampled_from((1, 2, 3, BOT))), max_size=40))
def test_tally_matches_dict_of_sets(first_only, messages):
    # ids up to 200: a sender mask spans several 30-bit int digits
    tally = Tally(first_only=first_only)
    backers: dict = {}   # reference: value -> senders
    seen: set = set()
    for sender, v in messages:
        repeat = sender in seen
        seen.add(sender)
        if first_only and repeat:
            assert tally.add(sender, v) == 0
        else:
            counted = sender not in backers.get(v, ())
            backers.setdefault(v, set()).add(sender)
            assert tally.add(sender, v) == (len(backers[v]) if counted else 0)
        for w in (1, 2, 3, BOT):
            assert tally.count(w) == len(backers.get(w, ()))
        assert tally.total == sum(len(s) for s in backers.values())
        assert tally.top == max((len(s) for s in backers.values()), default=0)
        assert len(tally) == len(backers)
