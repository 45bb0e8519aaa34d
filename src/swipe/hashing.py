"""Deterministic n-gram hashing (the hashing trick).

Hash definition (stable across platforms and Python versions):

* FNV-1a, 64-bit: ``h = offset_basis``; per byte ``h ^= byte; h *= prime``
  (mod 2**64).
* The 8 bytes of the seed (little-endian, unsigned) are absorbed first.
* An n-gram is hashed by absorbing each token's UTF-8 bytes in order, with a
  single 0x1F separator byte between consecutive tokens.
* Bucket id = hash mod n_buckets.

`hash64` is the scalar definition; `ngram_bucket_ids` computes the same
hashes for every n-gram of a document at once with numpy uint64 arithmetic,
whose multiply wraps mod 2**64 exactly as the definition requires.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

# There is one pure numpy kernel; perfbench/run.py reads this flag.
HAVE_NATIVE_KERNEL = False

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF
_FNV_PRIME_INV = pow(_FNV_PRIME, -1, 2**64)
_SEP = 0x1F

#: Widest byte matrix the kernel builds: a token of more UTF-8 bytes enters
#: it with its first WIDTH_CAP bytes and absorbs the rest in a loop of its
#: own, so one long token costs its own bytes, not (tokens x its bytes).
WIDTH_CAP = 64

# _UNPAD[j]: the inverse prime to the power j, for every pad length j.
_UNPAD = np.cumprod(np.array([1] + [_FNV_PRIME_INV] * WIDTH_CAP, dtype=np.uint64))


def _absorb(h: int, data) -> int:
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


def hash64(data: bytes, seed: int = 0) -> int:
    """Seeded 64-bit FNV-1a of a byte string (platform independent)."""
    return _absorb(_absorb(_FNV_OFFSET, (seed & _MASK).to_bytes(8, "little")), data)


def _absorb_tokens(h: np.ndarray, columns: np.ndarray, unpad: np.ndarray,
                   tails: list[tuple[int, bytes]]) -> None:
    """Absorb one token's bytes into each state of `h`, in place.

    `columns[j]` holds byte j of every token, 0 past its end. XOR with a 0 pad
    byte is a no-op, so each pad byte only multiplies the state by the prime;
    the prime is odd, hence invertible mod 2**64, and `unpad` (the inverse
    prime to the power of each token's pad length) undoes those multiplies.
    A token longer than the columns absorbs the rest of its bytes from
    `tails`, (index into `h`, bytes past the columns) pairs.
    """
    prime = np.uint64(_FNV_PRIME)
    for col in columns:
        h ^= col
        h *= prime
    h *= unpad
    for i, tail in tails:
        h[i] = _absorb(int(h[i]), tail)


@functools.lru_cache(maxsize=256)
def _start_state(seed: int) -> np.uint64:
    """State after absorbing the seed: where every n-gram's hash starts."""
    return np.uint64(hash64(b"", seed))


def ngram_counts(lengths, orders) -> np.ndarray:
    """(segments, orders) array: how many n-grams of each order each segment has."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.maximum(lengths[:, None] - np.asarray(orders, dtype=np.int64) + 1, 0)


def ngram_bucket_ids(
    tokens: list[str],
    n_buckets: int,
    orders: tuple[int, ...] = (1, 2),
    seed: int = 0,
    lengths: list[int] | np.ndarray | None = None,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Hash every n-gram of `tokens` into `[0, n_buckets)`.

    `lengths` splits `tokens` into consecutive segments (None: one segment);
    no n-gram crosses a segment boundary. Ids are emitted segment by
    segment, within a segment for each order in ascending order, positions
    left to right, which equals concatenating one call per segment. Orders
    longer than a segment contribute nothing to it; an empty token list
    yields an empty array. `counts` is `ngram_counts(lengths,
    sorted(orders))` for a caller that holds it already.
    """
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
    orders = sorted(orders)
    if orders and orders[0] < 1:
        raise ValueError(f"n-gram order must be >= 1, got {orders[0]}")
    n = len(tokens)
    lengths = [n] if lengths is None else list(map(operator.index, lengths))
    if sum(lengths) != n or min(lengths, default=0) < 0:
        raise ValueError(f"segment lengths {lengths} do not split {n} tokens")
    if n == 0 or not orders:
        return np.empty(0, dtype=np.int64)

    # Byte matrix of the first WIDTH_CAP bytes of every token, one row per
    # byte position: (width, n) uint8; the bytes past it are absorbed one
    # long token at a time.
    encoded = list(map(str.encode, tokens))
    n_bytes = np.fromiter(map(len, encoded), dtype=np.int64, count=n)
    widest = int(n_bytes.max())
    width = min(max(widest, 1), WIDTH_CAP)
    matrix = np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(n, width)
    columns = np.ascontiguousarray(matrix.T)
    unpad = _UNPAD.take(width - n_bytes, mode="clip")  # a negative pad (long token) is 0
    tails = ([(i, token[WIDTH_CAP:]) for i, token in enumerate(encoded)
              if len(token) > WIDTH_CAP] if widest > WIDTH_CAP else [])

    # flat[bases[k - 1] + i]: hash of the order-k n-gram starting at flat token i.
    sizes = [max(n - k + 1, 0) for k in range(1, orders[-1] + 1)]
    bases = [0, *itertools.accumulate(sizes)]
    flat = np.empty(bases[-1], dtype=np.uint64)
    h = flat[:n]
    h[:] = _start_state(seed)
    _absorb_tokens(h, columns, unpad, tails)
    for k in range(2, orders[-1] + 1):
        if not sizes[k - 1]:
            break
        prev, h = h, flat[bases[k - 1]:bases[k]]
        np.bitwise_xor(prev[:-1], np.uint64(_SEP), out=h)
        h *= np.uint64(_FNV_PRIME)
        _absorb_tokens(h, columns[:, k - 1:], unpad[k - 1:],
                       [(i - k + 1, tail) for i, tail in tails if i >= k - 1])

    # Gather segment-major, then order, then position: the block for
    # (segment s, order k) is flat[bases[k - 1] + start_s:][:count], and the
    # blocks are laid out back to back.
    lengths = np.asarray(lengths, dtype=np.int64)
    if counts is None:
        counts = ngram_counts(lengths, orders)
    ends = counts.cumsum()
    shift = (lengths.cumsum() - lengths)[:, None] + counts
    shift += np.asarray([bases[k - 1] for k in orders])
    index = np.repeat(shift.ravel() - ends, counts.ravel())
    index += np.arange(len(index))
    ids = flat.take(index)
    np.remainder(ids, np.uint64(n_buckets), out=ids)
    return ids.view(np.int64)  # the bits astype(np.int64) would copy


def derive_seed(name: str, seed: int) -> int:
    """Fan a base seed out into a named sub-seed (stable across runs)."""
    return hash64(name.encode("utf-8"), seed) % (2**32)
