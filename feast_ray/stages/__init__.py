from feast_ray.stages.transform import (
    SqlBatchTransform,
    sql_transform,
    substrait_eval,
    substrait_transform,
    transform,
)
from feast_ray.stages.filters import filter_mask, ttl_filter
from feast_ray.stages.dedup import bucketed_group_reduce, keep_latest
from feast_ray.stages.aggregate import AggSpec, grouped_agg, session_agg, windowed_agg
from feast_ray.stages.join import (
    asof_join,
    broadcast_join,
    copartitioned_asof_join,
    cross_join,
    hash_join,
    interval_join,
    semi_join,
)
from feast_ray.stages.relational import (
    distinct,
    group_limit,
    top_frequencies,
    topk,
    union_align,
)
from feast_ray.stages.validate import validate_stage

__all__ = [
    "transform",
    "substrait_transform",
    "substrait_eval",
    "session_agg",
    "bucketed_group_reduce",
    "sql_transform",
    "SqlBatchTransform",
    "filter_mask",
    "ttl_filter",
    "keep_latest",
    "AggSpec",
    "grouped_agg",
    "windowed_agg",
    "broadcast_join",
    "asof_join",
    "copartitioned_asof_join",
    "hash_join",
    "interval_join",
    "cross_join",
    "semi_join",
    "distinct",
    "topk",
    "group_limit",
    "top_frequencies",
    "union_align",
    "validate_stage",
]
