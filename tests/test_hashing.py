import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swipe import _hashkernel_py
from swipe import hashing

TOKENS = st.lists(st.text(min_size=1, max_size=8), min_size=0, max_size=12)


def test_hash64_deterministic():
    assert hashing.hash64(b"segment", 0) == hashing.hash64(b"segment", 0)
    assert hashing.hash64(b"segment", 0) != hashing.hash64(b"segment", 1)
    assert hashing.hash64(b"segment", 0) != hashing.hash64(b"segmenu", 0)


def test_hash64_known_value_is_stable():
    # frozen reference value; changing the hash silently would invalidate
    # every saved checkpoint
    assert hashing.hash64(b"abc", 0) == 0xab20dcdb6214056b
    assert hashing.hash64(b"", 0) == 0xa8c7f832281a39c5
    assert hashing.hash64(b"abc", 1) == 0xb60b96e484addb6c
    ids = hashing.ngram_bucket_ids(["the", "cat", "İstanbul"], 1000, (1, 2), 7)
    assert list(ids) == [505, 918, 169, 918, 678]


def test_bucket_ids_layout_orders_then_position():
    ids = hashing.ngram_bucket_ids(["a", "b", "c"], 10**9, orders=(1, 2), seed=3)
    assert len(ids) == 3 + 2
    unigrams = hashing.ngram_bucket_ids(["a", "b", "c"], 10**9, orders=(1,), seed=3)
    assert list(ids[:3]) == list(unigrams)


def test_bucket_ids_empty_and_short():
    assert hashing.ngram_bucket_ids([], 8, orders=(1, 2), seed=0).size == 0
    only_unigram = hashing.ngram_bucket_ids(["x"], 8, orders=(1, 2), seed=0)
    assert only_unigram.size == 1  # no room for a bigram


def test_bucket_ids_range_and_dtype():
    ids = hashing.ngram_bucket_ids(list("abcdefg"), 7, orders=(1, 2, 3), seed=5)
    assert ids.dtype == np.int64
    assert ids.min() >= 0 and ids.max() < 7


def test_bad_arguments():
    with pytest.raises(ValueError):
        hashing.ngram_bucket_ids(["a"], 0)
    with pytest.raises(ValueError):
        hashing.ngram_bucket_ids(["a"], 8, orders=(0,))


def test_ngram_separator_prevents_concat_collisions():
    joined = hashing.ngram_bucket_ids(["ab"], 10**9, orders=(1,), seed=0)
    split = hashing.ngram_bucket_ids(["a", "b"], 10**9, orders=(2,), seed=0)
    assert list(joined) != list(split)


@settings(max_examples=100, deadline=None)
@given(tokens=TOKENS, seed=st.integers(0, 2**32 - 1), buckets=st.integers(1, 10**6))
def test_pure_python_twin_matches_selected_kernel(tokens, seed, buckets):
    fast = hashing.ngram_bucket_ids(tokens, buckets, orders=(1, 2), seed=seed)
    pure = _hashkernel_py.ngram_bucket_ids(tokens, (1, 2), buckets, seed)
    assert list(fast) == list(pure)


@pytest.mark.skipif(not hashing.HAVE_NATIVE_KERNEL, reason="compiled kernel not built")
def test_native_kernel_active_matches_pure_hash64():
    from swipe import _hashkernel

    for seed in (0, 1, 2**63, 2**64 - 1):
        for data in (b"", b"a", b"hello world", bytes(range(256))):
            assert _hashkernel.hash64(data, seed) == _hashkernel_py.hash64(data, seed)


def test_derive_seed_stable_and_distinct():
    assert hashing.derive_seed("train-shuffle", 7) == hashing.derive_seed("train-shuffle", 7)
    assert hashing.derive_seed("train-shuffle", 7) != hashing.derive_seed("encoder-init", 7)
    assert 0 <= hashing.derive_seed("x", 123) < 2**32
