"""The int parser for wire rationals against Fraction(str): the same value, or
the same error class and message, for ints, 'p/q' strings and strings the
grammar rejects; and the int read of a cochain table value against the old
(Fraction % 1) * m read."""

import tracemalloc
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from orbipar.errors import MalformedInput
from orbipar.jsonio import (MAX_RATIONAL_DIGITS, cochain_from_json, rational_from_json,
                            rational_parts)

from helpers import fraction_cochain_value, fraction_rational, rational

BOUND = 10 ** MAX_RATIONAL_DIGITS
# magnitudes around the digit cap, and multiples of it that reduce below it
EDGES = [BOUND - 1, BOUND, BOUND + 1, 10 * BOUND, 2 * BOUND, BOUND // 2]
MAGNITUDES = st.one_of(st.integers(0, 30), st.integers(0, 10 ** 70), st.sampled_from(EDGES))
SIGNS = st.sampled_from(["", "+", "-"])
ZEROS = st.sampled_from(["", "", "0", "00", "0" * 70])


@st.composite
def rational_texts(draw):
    """'p/q' and 'p' strings: signs, leading zeros, zero denominators, the cap."""
    text = draw(SIGNS) + draw(ZEROS) + str(draw(MAGNITUDES))
    if draw(st.booleans()):
        den = draw(st.one_of(MAGNITUDES, st.sampled_from([0, 0, 1, 2, 6])))
        text += "/" + draw(ZEROS) + str(den)
    return text


GARBAGE = st.text(alphabet="0123456789+-/ ._eEx\n", max_size=12)
INPUTS = st.one_of(rational_texts(), GARBAGE,
                   st.one_of(st.integers(), st.sampled_from(EDGES + [-e for e in EDGES])))


def outcome(read, *args):
    try:
        return read(*args)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), exc.args


@settings(max_examples=600, deadline=None)
@given(x=INPUTS)
@example(x="1/00")
@example(x="-0/0")
@example(x="-5/000")
@example(x="1" * 4301)
@example(x="1/" + "0" * 4301)
@example(x=f"{BOUND}/10")
@example(x=f"-{BOUND}/{BOUND}")
@example(x="1/2\n")
@example(x="")
@example(x="٣")
@example(x=True)
def test_parser_matches_fraction_str(x):
    expected = outcome(fraction_rational, x)
    for _ in range(2):  # the second read of a string comes from the parse cache
        assert outcome(rational, x) == expected
        parts = outcome(rational_parts, x)
        if isinstance(expected, Fraction):
            assert parts == (expected.numerator, expected.denominator)
            assert all(type(v) is int for v in parts)
        else:
            assert parts == expected
    assert outcome(rational_from_json, x) == expected


def test_parser_error_text_examples():
    assert outcome(rational, "1/00") == (MalformedInput, ("bad rational '1/00': Fraction(1, 0)",))
    assert outcome(rational, "-7/0") == (MalformedInput, ("bad rational '-7/0': Fraction(-7, 0)",))
    assert outcome(rational, 2.5) == (MalformedInput, ("expected a rational string, got 2.5",))
    assert rational_parts("-0004/06") == (-2, 3) and rational_parts("-0") == (0, 1)


def test_parse_cache_memory_is_bounded():
    """1,024 distinct leading-zero texts, each a small rational under the
    int-string limit, keep under 1 MB alive; so do 1,024 distinct texts of
    the longest canonical length, the longest the cache keeps."""
    batches = [lambda i: f"{'0' * 4000}{i + 1}/{'0' * 4000}1",
               lambda i: f"-{10 ** 63 + i}/{BOUND - 1}"]
    tracemalloc.start()
    try:
        for text in batches:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(1024):
                rational_parts(text(i))  # the text is dropped unless a cache keeps it
            grown = tracemalloc.get_traced_memory()[0] - before
            assert grown < 1 << 20, grown
    finally:
        tracemalloc.stop()


def _cochain_value(value, m):
    payload = {"group": [2], "coeff_order": m, "table": [[1, 1, value]]}
    return cochain_from_json(payload).table[1][1]


@settings(max_examples=400, deadline=None)
@given(value=st.one_of(rational_texts(), st.integers(-10 ** 6, 10 ** 6), GARBAGE,
                       st.builds(lambda p, q: f"{p}/{q}", st.integers(-60, 60),
                                 st.integers(1, 24))),
       m=st.one_of(st.integers(1, 24), st.sampled_from([36, 720, 2 ** 40, BOUND - 1])))
@example(value="-1/3", m=6)
@example(value="7/2", m=4)
@example(value="5", m=3)
@example(value="1/4", m=6)
@example(value="1/0", m=6)
def test_cochain_read_matches_fraction_mod_one(value, m):
    assert outcome(_cochain_value, value, m) == outcome(fraction_cochain_value, value, m)
