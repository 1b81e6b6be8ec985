"""Seed derivation: the batch form is derive_seed, seed for seed.  And the
stream refuses an empty range."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipdlab.rng import SplitMix64, derive_seed, derive_seeds

# ints below zero and of 64 bits or more, and text that is not ASCII or
# holds the separator itself
_parts = st.one_of(
    st.integers(max_value=-1),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(0, 2**64 - 1),
    st.text(st.sampled_from("ab\x1f\u00e9\u20ac\U0001f600"), max_size=6),
    st.text(max_size=6),
)
_tuples = st.lists(_parts, min_size=1, max_size=4).map(tuple)


@given(prefixes=st.lists(_tuples, max_size=4), tails=st.lists(_tuples, max_size=5))
@settings(max_examples=200, deadline=None)
def test_batch_equals_derive_seed_per_prefix_then_tail(prefixes, tails):
    digests = derive_seeds(prefixes, tails)
    assert isinstance(digests, bytes)
    assert np.frombuffer(digests, "<u8").tolist() == [
        derive_seed(*prefix, *tail) for prefix in prefixes for tail in tails]


@pytest.mark.parametrize("prefixes, tails", [([], [(1,)]), ([(1, "a")], []), ([], [])])
def test_no_prefix_or_no_tail_gives_no_seed(prefixes, tails):
    assert derive_seeds(prefixes, tails) == b""


@pytest.mark.parametrize("prefixes, tails", [
    ([()], [(1,)]),
    ([(1,)], [()]),
    ([(1,), ()], [(2,)]),
    ([()], []),  # refused even when nothing would be derived
], ids=["empty_prefix", "empty_tail", "second_prefix", "no_tails"])
def test_an_empty_prefix_or_tail_is_refused(prefixes, tails):
    # it would hash a separator that derive_seed never writes: derive_seed(1)
    # hashes "1", and prefix (1,) with tail () would hash "1\x1f"
    with pytest.raises(ValueError, match="empty prefix or tail"):
        derive_seeds(prefixes, tails)


def test_randrange_refuses_an_empty_range():
    with pytest.raises(ValueError, match="^randrange needs a positive bound$"):
        SplitMix64(1).randrange(0)
