"""Training-data corpus cleaning: quality gate -> exact dedup ->
MinHash near-dup removal, as ONE composable Ray Data pipeline.

This is the composite a 100-TB pretraining-data run actually executes
over the `documents` table, built from the engine's own stages:

1. **quality gate** — vectorized token/stopword metrics
   (stages/textstats.quality_batch); rows failing integer-form gates
   (``n_tokens_ws >= min_tokens`` and ``10 * n_stopwords >=
   n_tokens_ws`` — i.e. stopword ratio >= 10%, the classic gibberish
   filter) drop inside the map stage, before anything shuffles.
2. **exact dedup** — min-id winner per identical text
   (stages/dedup.exact_dedup: one balanced hash-bucket shuffle, the
   64-bit key travels instead of the text).
3. **near-dup removal** — MinHash+LSH candidates verified by exact
   shingle Jaccard (stages/dedup.minhash_dedup_pairs, fully
   distributed); every verified pair drops its non-anchor member via
   a distributed LEFT ANTI join (no driver-side drop set).

Determinism: every stage is arrival-order independent (min-id winners,
fixed hash seeds), so the surviving set is identical under any
parallelism — which is what lets the whole composite be value-checked
against one DuckDB oracle (queries.ORACLES["corpus_clean"]).

Scale notes: the survivor stream feeds both the LSH candidate pass and
the membership join, so a long pipeline recomputes the gate+dedup
prefix twice; at real scale, checkpoint the survivors to Parquet
between steps 2 and 3 (write_parquet + read_parquet) — the composite
accepts any Dataset, so the checkpointed variant is the same call
sequence.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..stages.dedup import exact_dedup, minhash_dedup_pairs
from ..stages.exchange import collect_refs
from ..stages.textstats import quality_batch

# anti-join broadcast budget: 5M int64 victim ids = 40 MB in every
# worker's plasma — past this the distributed left_anti join takes over
_DROP_BROADCAST_MAX = 5_000_000


def corpus_clean(ds: ray.data.Dataset, *, id_col: str = "doc_id",
                 text_col: str = "text", min_tokens: int = 30,
                 stopword_pct: int = 10,
                 jaccard_threshold: float = 0.5,
                 num_partitions: int | None = None,
                 **minhash_kwargs) -> ray.data.Dataset:
    """documents -> surviving (id, text, n_tokens_ws, n_chars_actual).

    Gates are integer-form (``stopword_pct`` percent) so the SQL oracle
    compares exactly — no float-boundary ambiguity.
    """
    from ..stages.dedup import default_join_partitions

    if num_partitions is None:
        num_partitions = default_join_partitions()

    def gate(batch: pa.Table) -> pa.Table:
        batch = quality_batch(batch, text_col)
        nt = batch["n_tokens_ws"].to_numpy(zero_copy_only=False)
        ns = batch["n_stopwords"].to_numpy(zero_copy_only=False)
        keep = (nt >= min_tokens) & (ns * 100 >= nt * stopword_pct)
        batch = batch.filter(pa.array(keep))
        return batch.select([id_col, text_col, "n_tokens_ws",
                             "n_chars_actual"])

    gated = ds.map_batches(gate, batch_format="pyarrow", batch_size=None)
    # the repartition rebalances blocks after the dedup shuffle AND
    # heals the schema-less empty blocks sparse map_groups stages emit
    # (they poison downstream hash-join partitions); it's one extra
    # balanced exchange over data the dedup already moved once.
    # materialize() = the checkpoint the module docstring calls for:
    # the survivor stream is consumed by BOTH the LSH chain (itself
    # multi-pass) and the final membership join — without it every
    # consumer re-executes the gate+dedup prefix (measured 80-120s ->
    # ~25s at sf0.1). Survivors are the post-dedup narrow stream; at
    # 100-TB scale swap for write_parquet/read_parquet as documented.
    survivors = exact_dedup(gated, text_col, id_col) \
        .repartition(num_partitions).materialize()

    pairs = minhash_dedup_pairs(survivors, text_col=text_col,
                                id_col=id_col,
                                threshold=jaccard_threshold,
                                num_partitions=num_partitions,
                                **minhash_kwargs)
    # the verified pair list is tiny vs the corpus; materializing it
    # lets the no-near-dups case skip the anti-join entirely (Ray's
    # hash join cannot take a fully-empty side)
    drops = pairs.select_columns(["id_b"]).materialize()
    n_drops = drops.count()
    if n_drops and n_drops <= _DROP_BROADCAST_MAX:
        # near-dup victims are a shrinking fraction of the corpus:
        # broadcast the sorted id array once (<=40 MB at the budget)
        # and anti-join as a zero-shuffle searchsorted filter
        drop_ids = np.unique(np.concatenate(
            [t["id_b"].to_numpy(zero_copy_only=False)
             for t in ray.get(collect_refs(drops)) if t.num_rows]))
        dref = ray.put(drop_ids)

        def anti(batch: pa.Table) -> pa.Table:
            di = ray.get(dref)
            ids = batch[id_col].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(di, ids)
            pos[pos == len(di)] = 0
            return batch.filter(pa.array(di[pos] != ids))

        survivors = survivors.map_batches(anti, batch_format="pyarrow",
                                          batch_size=None)
    elif n_drops:
        # scale fallback: both sides stay distributed
        drops = drops.repartition(max(1, min(num_partitions, n_drops)))
        survivors = survivors.join(drops, "left_anti", num_partitions,
                                   on=(id_col,), right_on=("id_b",))
    return survivors.select_columns([id_col, "n_tokens_ws",
                                     "n_chars_actual"])
