"""``add_part_id`` against the per-row ``conv_partition``."""

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf4py_ray.stages.partition import add_part_id, conv_partition


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["c0", "c1", "conv-000042", "é", ""]),
                          st.integers(-40, 1 << 40)), max_size=60),
       st.sampled_from([None, 0, 1, 3, 16]),
       st.integers(1, 64),
       st.integers(0, 4))
def test_add_part_id_equals_conv_partition(rows, salt_turns, num_partitions, cuts):
    convs = [c for c, _ in rows]
    turns = [t for _, t in rows]
    step = max(1, len(rows) // (cuts + 1))
    chunks = [slice(i, i + step) for i in range(0, len(rows), step)] or [slice(0, 0)]
    batch = pa.table({
        "conv_id": pa.chunked_array([convs[s] for s in chunks], pa.string()),
        "turn_idx": pa.chunked_array([turns[s] for s in chunks], pa.int64()),
    })
    out = add_part_id(batch, num_partitions, salt_turns)
    assert out.column_names == ["conv_id", "turn_idx", "part_id"]
    assert out.schema.field("part_id").type == pa.int32()
    assert out["part_id"].to_pylist() == [
        conv_partition(c, t, num_partitions, salt_turns) for c, t in rows]
