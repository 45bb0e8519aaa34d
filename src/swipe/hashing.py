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

import numpy as np

# There is one pure numpy kernel; perfbench/run.py reads this flag.
HAVE_NATIVE_KERNEL = False

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF
_FNV_PRIME_INV = pow(_FNV_PRIME, -1, 2**64)
_SEP = 0x1F


def _absorb(h: int, data) -> int:
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


def hash64(data: bytes, seed: int = 0) -> int:
    """Seeded 64-bit FNV-1a of a byte string (platform independent)."""
    return _absorb(_absorb(_FNV_OFFSET, (seed & _MASK).to_bytes(8, "little")), data)


def _absorb_tokens(h: np.ndarray, columns: np.ndarray, unpad: np.ndarray) -> np.ndarray:
    """Absorb one token's bytes into each state of `h`, in place.

    `columns[j]` holds byte j of every token, 0 past its end. XOR with a 0 pad
    byte is a no-op, so each pad byte only multiplies the state by the prime;
    the prime is odd, hence invertible mod 2**64, and `unpad` (the inverse
    prime to the power of each token's pad length) undoes those multiplies.
    """
    prime = np.uint64(_FNV_PRIME)
    for col in columns:
        h ^= col
        h *= prime
    h *= unpad
    return h


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
) -> np.ndarray:
    """Hash every n-gram of `tokens` into `[0, n_buckets)`.

    `lengths` splits `tokens` into consecutive segments (None: one segment);
    no n-gram crosses a segment boundary. Ids are emitted segment by
    segment, within a segment for each order in ascending order, positions
    left to right, which equals concatenating one call per segment. Orders
    longer than a segment contribute nothing to it; an empty token list
    yields an empty array.
    """
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
    orders = sorted(orders)
    for order in orders:
        if order < 1:
            raise ValueError(f"n-gram order must be >= 1, got {order}")
    n = len(tokens)
    lengths = np.asarray([n] if lengths is None else lengths, dtype=np.int64)
    if lengths.sum() != n or np.any(lengths < 0):
        raise ValueError(f"segment lengths {lengths.tolist()} do not split {n} tokens")
    if n == 0 or not orders:
        return np.empty(0, dtype=np.int64)

    # Padded byte matrix, one row per byte position: (width, n) uint8.
    encoded = list(map(str.encode, tokens))
    n_bytes = np.fromiter(map(len, encoded), dtype=np.int64, count=n)
    width = max(int(n_bytes.max()), 1)
    matrix = np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(n, width)
    columns = np.ascontiguousarray(matrix.T)
    inverse_powers = np.full(width + 1, _FNV_PRIME_INV, dtype=np.uint64)
    inverse_powers[0] = 1
    unpad = np.cumprod(inverse_powers)[width - n_bytes]

    # states[k - 1][i]: hash of the order-k n-gram starting at flat token i.
    states = [_absorb_tokens(np.full(n, hash64(b"", seed), dtype=np.uint64), columns, unpad)]
    for k in range(2, orders[-1] + 1):
        h = states[-1][:-1] ^ np.uint64(_SEP)
        h *= np.uint64(_FNV_PRIME)
        states.append(_absorb_tokens(h, columns[:, k - 1:], unpad[k - 1:]))

    # Gather segment-major, then order, then position: the block for
    # (segment s, order k) is states[k - 1][start_s : start_s + len_s - k + 1].
    flat = np.concatenate([states[k - 1] for k in orders])
    bases = np.cumsum([0] + [len(states[k - 1]) for k in orders[:-1]])
    starts = (np.cumsum(lengths) - lengths)[:, None] + bases[None, :]
    counts = ngram_counts(lengths, orders).ravel()
    shift = np.repeat(starts.ravel() - (np.cumsum(counts) - counts), counts)
    index = shift + np.arange(len(shift))
    return (flat[index] % np.uint64(n_buckets)).astype(np.int64)


def derive_seed(name: str, seed: int) -> int:
    """Fan a base seed out into a named sub-seed (stable across runs)."""
    return hash64(name.encode("utf-8"), seed) % (2**32)
