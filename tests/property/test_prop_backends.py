"""Differential exactness battery: every kernel backend vs the oracle.

The backend registry's contract (``repro.query.backends``) is *bit
identity*, not tolerance: for any prepared index and any query mode, a
registered backend must return a ``ScanResult`` that compares equal to
the ``python`` reference — the same ``items`` tuple (ids, proximities
and order), the same ``n_visited``/``n_computed``/``n_pruned`` counters,
and the same ``terminated_early`` flag.  This suite drives that contract
across the three structural graph families × every query mode:

- top-k (canonical-heap scans) for k ∈ {1, 5, n},
- threshold (Definition 2 range queries) across loose and tight θ,
- personalized multi-seed scans via ``seed_workspace``,
- fixed-schedule scans (precomputed BFS trees),
- shard scans (``scan_shard``) against ``scan_shard_reference``, from
  an empty heap and from one primed with the other shards' candidates,
  also on planted partitions whose shards span several scan blocks,
- the dynamic index in its pending-Woodbury-correction state and
  again after compaction.

``ScanResult`` is a frozen dataclass, so a single ``==`` covers items
and counters at once; any drift — even 1 ulp, even a counter off by
one — fails the property.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro import DynamicKDash, KDash
from repro.core import ShardedIndex
from repro.core.bfs_tree import BFSTree
from repro.core.sharded import (
    canonical_heap,
    heap_items,
    merge_candidates,
    scan_shard_reference,
)
from repro.graph import (
    erdos_renyi_graph,
    grid_graph,
    planted_partition_graph,
    scale_free_digraph,
)
from repro.query.backends import available_backends, get_backend

ORACLE = "python"

#: Every registered backend that must reproduce the oracle bitwise.
CONTENDERS = tuple(n for n in available_backends() if n != ORACLE)


@st.composite
def family_graphs(draw):
    """Graphs from three structurally distinct families."""
    family = draw(st.sampled_from(["erdos_renyi", "scale_free", "grid"]))
    seed = draw(st.integers(0, 10_000))
    if family == "erdos_renyi":
        n = draw(st.integers(8, 30))
        return erdos_renyi_graph(n, 0.15, seed=seed)
    if family == "scale_free":
        n = draw(st.integers(8, 30))
        return scale_free_digraph(n, 3 * n, seed=seed)
    rows = draw(st.integers(3, 5))
    cols = draw(st.integers(3, 5))
    return grid_graph(rows, cols)


@st.composite
def shard_graphs(draw):
    """``family_graphs`` plus planted partitions of 60–200 nodes, whose
    shards span several scan blocks, the last one usually partial."""
    if draw(st.booleans()):
        return draw(family_graphs())
    n_blocks = draw(st.integers(2, 5))
    size = draw(st.integers(-(-60 // n_blocks), 200 // n_blocks))
    return planted_partition_graph(
        [size] * n_blocks,
        p_in=min(1.0, 6.0 / size),
        p_out=0.2 / (n_blocks * size),
        directed=True,
        seed=draw(st.integers(0, 10_000)),
    )


def k_values(n: int):
    """The battery's k axis: 1, 5 and the full n."""
    return sorted({1, min(5, n), n})


def assert_backends_match(prepared, y, seeds, *, total_mass, **kw):
    """One scan per backend; all must equal the python oracle exactly."""
    oracle = get_backend(ORACLE).scan(
        prepared, y, seeds, total_mass=total_mass, **kw
    )
    for name in CONTENDERS:
        got = get_backend(name).scan(
            prepared, y, seeds, total_mass=total_mass, **kw
        )
        assert got == oracle, (name, seeds, kw)
    return oracle


class TestScanDifferential:
    """Single-index scans: every backend equals the oracle bitwise."""

    @given(family_graphs(), st.integers(0, 10_000))
    def test_topk_bit_identical(self, graph, query_seed):
        rng = np.random.default_rng(query_seed)
        n = graph.n_nodes
        prepared = KDash(graph, c=0.9).build()._prepared
        y = np.zeros(n)
        for query in sorted({int(rng.integers(n)) for _ in range(2)}):
            rows = prepared.scatter_column(y, query)
            total_mass = prepared.total_mass_of(query)
            for k in k_values(n):
                assert_backends_match(
                    prepared, y, (query,), total_mass=total_mass, k=k
                )
            y[rows] = 0.0

    @given(family_graphs(), st.integers(0, 10_000))
    def test_threshold_bit_identical(self, graph, query_seed):
        rng = np.random.default_rng(query_seed)
        n = graph.n_nodes
        prepared = KDash(graph, c=0.9).build()._prepared
        y = np.zeros(n)
        for query in sorted({int(rng.integers(n)) for _ in range(2)}):
            rows = prepared.scatter_column(y, query)
            total_mass = prepared.total_mass_of(query)
            # Loose θ prunes whole layers; tight θ scans everything; an
            # impossible θ (>1) exits on the Definition 2 bound at once.
            for theta in (1e-2, 1e-6, 1e-12, 2.0):
                assert_backends_match(
                    prepared,
                    y,
                    (query,),
                    total_mass=total_mass,
                    threshold=theta,
                )
            y[rows] = 0.0

    @given(family_graphs(), st.integers(0, 10_000))
    def test_personalized_multi_seed(self, graph, query_seed):
        rng = np.random.default_rng(query_seed)
        n = graph.n_nodes
        prepared = KDash(graph, c=0.9).build()._prepared
        seeds = sorted({int(rng.integers(n)) for _ in range(3)})
        weights = rng.integers(1, 5, size=len(seeds)).astype(float)
        shares = {s: w / weights.sum() for s, w in zip(seeds, weights)}
        y, total_mass = prepared.seed_workspace(shares)
        for k in k_values(n):
            assert_backends_match(
                prepared, y, tuple(shares), total_mass=total_mass, k=k
            )

    @given(family_graphs(), st.integers(0, 10_000))
    def test_fixed_schedule_bit_identical(self, graph, query_seed):
        """Precomputed BFS schedules (the root-override serving path)."""
        rng = np.random.default_rng(query_seed)
        n = graph.n_nodes
        prepared = KDash(graph, c=0.9).build()._prepared
        query = int(rng.integers(n))
        root = int(rng.integers(n))
        schedule = BFSTree(graph, root, include_unreached=True)
        y = np.zeros(n)
        rows = prepared.scatter_column(y, query)
        total_mass = prepared.total_mass_of(query)
        for k in k_values(n):
            # Even under a full schedule the Lemma 2 cut-off may stop
            # the scan early; bit-identity (items + counters +
            # terminated_early) is the whole contract here.
            assert_backends_match(
                prepared,
                y,
                (query,),
                total_mass=total_mass,
                k=k,
                schedule=schedule,
            )
        y[rows] = 0.0


class TestShardScanDifferential:
    """``scan_shard`` vs ``scan_shard_reference`` on every shard."""

    @given(
        shard_graphs(),
        st.integers(0, 10_000),
        st.sampled_from((1, 2, 5)),
    )
    def test_shard_scans_bit_identical(self, graph, query_seed, n_shards):
        """Each shard is scanned from an empty heap (a home request),
        then once more from a heap primed with every other shard's
        candidates (a remote request late in a gather)."""
        rng = np.random.default_rng(query_seed)
        n = graph.n_nodes
        index = KDash(graph, c=0.9).build()
        sharded = ShardedIndex.from_index(index, n_shards)
        y = sharded.workspace()
        query = int(rng.integers(n))
        rows, vals = sharded.scatter_column(y, query)
        ymax = float(vals.max()) if vals.size else 0.0
        shards = [sharded.shard(s) for s in range(sharded.n_shards)]

        def check(shard, heap, case):
            heap_ref = list(heap)
            want = scan_shard_reference(shard, sharded.c, y, ymax, heap_ref)
            for name in CONTENDERS:
                heap_got = list(heap)
                got = get_backend(name).scan_shard(
                    shard, sharded.c, y, ymax, heap_got
                )
                assert got == want, (name, shard.shard_id, case)
                # Raw array order: the same heapreplace sequence.
                assert heap_got == heap_ref, (name, shard.shard_id, case)
            return heap_items(heap_ref)

        for k in k_values(n):
            found = [check(s, canonical_heap(n, k), ("empty", k)) for s in shards]
            for shard in shards:
                primed = canonical_heap(n, k)
                for other, items in zip(shards, found):
                    if other is not shard:
                        merge_candidates(primed, items)
                check(shard, primed, ("primed", k))
        sharded.clear_rows(y, rows)


class TestDynamicBackendAgreement:
    """The dynamic index serves identical answers under every backend.

    Two regimes, both exercised: with *pending* Woodbury corrections the
    corrected path ranks a dense corrected column (backend-independent
    arithmetic, but the battery pins that no backend perturbs it); after
    ``rebuild()`` the clean path routes back through the base index's
    pruned scan — i.e. through the backend registry — and must stay
    bit-identical across backends.
    """

    @given(family_graphs(), st.integers(0, 10_000))
    def test_pending_and_compacted_states_agree(self, graph, stream_seed):
        rng = np.random.default_rng(stream_seed)
        n = graph.n_nodes
        dynamics = {
            name: DynamicKDash.from_index(
                KDash(graph, c=0.9, kernel_backend=name).build(),
                rebuild_threshold=None,
            )
            for name in available_backends()
        }
        inserts = [
            (int(rng.integers(n)), int(rng.integers(n)), float(rng.integers(1, 4)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        queries = sorted({int(rng.integers(n)) for _ in range(3)})

        for dyn in dynamics.values():
            dyn.apply_updates(inserts, ())
        pendings = {d.n_pending_columns for d in dynamics.values()}
        assert len(pendings) == 1  # identical update stream, same rank

        oracle_dyn = dynamics[ORACLE]
        for stage in ("pending", "compacted"):
            for query in queries:
                for k in k_values(n):
                    want = oracle_dyn.top_k(query, k)
                    for name, dyn in dynamics.items():
                        if name == ORACLE:
                            continue
                        got = dyn.top_k(query, k)
                        assert got.items == want.items, (stage, name, query, k)
            if stage == "pending":
                for dyn in dynamics.values():
                    dyn.rebuild()

