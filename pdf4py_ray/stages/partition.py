"""Explicit hash partitioning with salting for skewed conversations.

``part_id = crc32(conv_id) % P`` co-locates a conversation's turns and
fixes the output layout. Long conversations (hot keys) are *salted*:
when a conversation would exceed ``salt_turns`` turns in one
partition, its turns spread over sub-partitions keyed by
``turn_idx // salt_turns`` (north_rule: "salted repartitioning for
skewed long conversations"). Extraction is per-turn, so salting is
safe; the final stable sort restores conversation order.
"""

from __future__ import annotations

import zlib
from typing import Optional

import numpy as np
import pyarrow as pa


def _key_partition(conv_id: str, salt: int, num_partitions: int) -> int:
    key = f"{conv_id}#{salt}" if salt else conv_id
    return zlib.crc32(key.encode()) % num_partitions


def conv_partition(conv_id: str, turn_idx: int, num_partitions: int,
                   salt_turns: Optional[int] = None) -> int:
    return _key_partition(conv_id, turn_idx // salt_turns if salt_turns else 0,
                          num_partitions)


def add_part_id(batch: pa.Table, num_partitions: int,
                salt_turns: Optional[int] = None) -> pa.Table:
    """``batch`` with an int32 ``part_id`` column equal to
    :func:`conv_partition` row by row: one crc32 per distinct
    ``(conv_id, turn_idx // salt_turns)`` key, scattered back."""
    conv = batch["conv_id"].combine_chunks().dictionary_encode()
    turn = batch["turn_idx"]
    if conv.null_count or turn.null_count:
        raise ValueError("add_part_id: conv_id and turn_idx must not be null")
    names = conv.dictionary.to_pylist()
    salts = np.zeros(1, dtype=np.int64)
    salt_rank = 0
    if salt_turns:  # dense salt ranks keep the combined key below n²
        salts, salt_rank = np.unique(turn.to_numpy() // salt_turns, return_inverse=True)
    keys = conv.indices.to_numpy(zero_copy_only=False).astype(np.int64) * len(salts)
    keys += salt_rank
    uniq, inverse = np.unique(keys, return_inverse=True)
    conv_of, salt_of = np.divmod(uniq, len(salts))
    part = np.fromiter((_key_partition(names[c], s, num_partitions)
                        for c, s in zip(conv_of.tolist(), salts[salt_of].tolist())),
                       dtype=np.int32, count=len(uniq))
    return batch.append_column("part_id", pa.array(part[inverse], type=pa.int32()))
