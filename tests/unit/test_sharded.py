"""Unit coverage for the sharded index and the scatter-gather planner."""

import numpy as np
import pytest

from repro.core import KDash, ShardedIndex, shard_assignment
from repro.core.sharded import (
    BOUND_SLACK,
    SCAN_BLOCK,
    ShardIndex,
    block_bounds,
    canonical_heap,
    heap_items,
    merge_candidates,
    scan_shard,
)
from repro.exceptions import InvalidParameterError
from repro.graph import erdos_renyi_graph, planted_partition_graph, star_graph
from repro.query import QueryEngine, ScatterGatherPlanner


@pytest.fixture(scope="module")
def clustered_graph():
    return planted_partition_graph([15] * 4, 0.4, 0.01, directed=True, seed=9)


@pytest.fixture(scope="module")
def clustered_index(clustered_graph):
    return KDash(clustered_graph, c=0.95).build()


class TestShardAssignment:
    def test_range_is_contiguous_and_balanced(self):
        assignment = shard_assignment(star_graph(9), 5, partitioner="range")
        assert list(assignment) == sorted(assignment)
        sizes = np.bincount(assignment, minlength=5)
        assert sizes.max() - sizes.min() <= 1

    def test_louvain_keeps_communities_whole(self, clustered_graph):
        from repro.community import louvain_communities

        assignment = shard_assignment(clustered_graph, 2, partitioner="louvain")
        communities = louvain_communities(clustered_graph, seed=0)
        for members in communities.communities():
            assert len({int(assignment[u]) for u in members}) == 1

    def test_deterministic(self, clustered_graph):
        a = shard_assignment(clustered_graph, 3, partitioner="louvain")
        b = shard_assignment(clustered_graph, 3, partitioner="louvain")
        assert np.array_equal(a, b)

    def test_single_shard(self, clustered_graph):
        assert set(shard_assignment(clustered_graph, 1, "range")) == {0}

    def test_rejects_unknown_partitioner(self, clustered_graph):
        with pytest.raises(InvalidParameterError, match="partitioner"):
            shard_assignment(clustered_graph, 2, partitioner="metis")

    def test_rejects_bad_shard_count(self, clustered_graph):
        with pytest.raises(InvalidParameterError):
            shard_assignment(clustered_graph, 0, partitioner="range")

    def test_more_shards_than_nodes_leaves_empties(self):
        assignment = shard_assignment(star_graph(2), 8, partitioner="range")
        assert assignment.size == 3
        assert set(assignment) < set(range(8))


class TestShardedIndex:
    def test_members_partition_the_node_set(self, clustered_index):
        sharded = ShardedIndex.from_index(clustered_index, 4)
        seen = np.concatenate([s.members for s in sharded.shards])
        assert sorted(seen.tolist()) == list(range(sharded.n))

    def test_summary_bounds_dominate_member_proximities(self, clustered_index):
        """The colmax bound must upper-bound every member's exact value,
        and so must every block bound the shard scan computes."""
        # One shard of 60 members spans four blocks, the last partial.
        for n_shards in (1, 4):
            sharded = ShardedIndex.from_index(clustered_index, n_shards)
            y = sharded.workspace()
            for query in range(0, sharded.n, 7):
                rows, vals = sharded.scatter_column(y, query)
                ymax = float(vals.max())
                column = clustered_index.proximity_column(query)
                for summary, shard in zip(sharded.summaries, sharded.shards):
                    bound = summary.bound(sharded.c, rows, vals)
                    if shard.members.size:
                        assert bound >= column[shard.members].max()
                    bounds = block_bounds(shard, sharded.c, y, ymax)
                    assert len(bounds) == -(-shard.n_members // SCAN_BLOCK)
                    for b, bound in enumerate(bounds):
                        first = b * SCAN_BLOCK
                        block = shard.scan_nodes[first : first + SCAN_BLOCK]
                        assert bound >= column[block].max()
                sharded.clear_rows(y, rows)

    def test_scan_norms_descend(self, clustered_index):
        sharded = ShardedIndex.from_index(clustered_index, 3)
        for shard in sharded.shards:
            assert shard.scan_norms == sorted(shard.scan_norms, reverse=True)

    def test_boundary_frac_low_for_louvain_on_clusters(self, clustered_index):
        sharded = ShardedIndex.from_index(clustered_index, 4, partitioner="louvain")
        fracs = [s.boundary_frac for s in sharded.summaries if s.n_members]
        assert fracs and max(fracs) < 0.3

    def test_empty_shards_are_served(self):
        index = KDash(star_graph(2), c=0.9).build()
        sharded = ShardedIndex.from_index(index, 8, partitioner="range")
        planner = ScatterGatherPlanner(sharded)
        assert planner.top_k(0, 3).items == index.top_k(0, 3).items

    def test_shard_accessor_rejects_out_of_range(self, clustered_index):
        sharded = ShardedIndex.from_index(clustered_index, 2)
        with pytest.raises(InvalidParameterError, match="out of range"):
            sharded.shard(2)

    def test_spec_roundtrip(self, clustered_index):
        sharded = ShardedIndex.from_index(
            clustered_index, 3, partitioner="range", seed=5
        )
        assert sharded.spec == (3, "range", 5)


class TestBlockScan:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_holder_cap_orders_blocks(self, backend):
        """A block's bound is capped by its first member's Hölder bound.

        Block 0 holds 16 rows of norm 1 on one column (colmax sum 0.95),
        block 1 holds 16 disjoint rows of norm 0.9 (colmax sum 14.4,
        Hölder bound 0.9).  Capped, block 0 is visited first and its
        0.95-proximity members certify block 1 out.
        """
        n = 17
        shard = ShardIndex(
            0,
            np.arange(32),
            list(range(32)),
            [1.0] * 16 + [0.9] * 16,
            np.arange(33),
            np.array([0] * 16 + list(range(1, 17))),
            np.array([1.0] * 16 + [0.9] * 16),
            np.zeros(33, dtype=np.int64),  # empty seed columns: unused here
            [],
            [],
        )
        y = np.ones(n)
        y[0] = 0.95
        c = 0.9
        assert block_bounds(shard, c, y, 1.0) == [
            c * 0.95 * BOUND_SLACK,
            c * 1.0 * 0.9 * BOUND_SLACK,
        ]
        heap = canonical_heap(n, 1)
        assert scan_shard(shard, c, y, 1.0, heap, backend=backend) == (32, 16)
        assert heap_items(heap) == ((0, c * 0.95),)


class TestCanonicalHeapHelpers:
    def test_merge_keeps_canonical_topk(self):
        heap = canonical_heap(10, 3)
        merge_candidates(heap, [(4, 0.5), (7, 0.5), (2, 0.5), (9, 0.9)])
        items = sorted(heap_items(heap))
        # 0.9 wins, then the two *smallest-id* 0.5 nodes survive the tie.
        assert items == [(2, 0.5), (4, 0.5), (9, 0.9)]

    def test_merge_returns_new_theta(self):
        heap = canonical_heap(5, 2)
        theta = merge_candidates(heap, [(1, 0.4), (2, 0.7)])
        assert theta == 0.4


class TestScanRequest:
    @pytest.fixture(scope="class")
    def sharded(self, clustered_index):
        return ShardedIndex.from_index(clustered_index, 4, partitioner="louvain")

    def test_home_request_returns_bounds_and_clears_the_workspace(self, sharded):
        y = sharded.workspace()
        items, bounds, checked, computed, seed = sharded.scan_request(
            y, sharded.home_shard(7), 7, 5, home=True
        )
        assert len(items) == 5 and len(bounds) == sharded.n_shards
        assert 0 < computed <= checked
        assert not y.any()
        remote = sharded.scan_request(y, (sharded.home_shard(7) + 1) % 4, 7, 5, items)
        assert remote[1] is None

    @pytest.mark.parametrize("k", [1, 5, 60])
    def test_primed_request_continues_the_running_heap(self, sharded, k):
        """Priming with the home scan's items equals scanning on in the
        home scan's own heap: dummies are evicted before real entries."""
        y = sharded.workspace()
        query = 20
        home = sharded.home_shard(query)
        home_items = sharded.scan_request(y, home, query, k, home=True)[0]
        for other in range(sharded.n_shards):
            if other == home:
                continue
            rows, vals = sharded.scatter_column(y, query)
            heap = canonical_heap(sharded.n, k)
            scan_shard(sharded.shard(home), sharded.c, y, float(vals.max()), heap)
            want = scan_shard(
                sharded.shard(other), sharded.c, y, float(vals.max()), heap
            )
            sharded.clear_rows(y, rows)
            got = sharded.scan_request(y, other, query, k, home_items)
            assert got[2:] == want
            assert sorted(got[0]) == sorted(heap_items(heap))

    def test_home_reply_carries_the_seed_column(self, sharded, clustered_index):
        """The seed column lives in the home payload, verbatim, and the
        home reply hands it on; no other shard holds it."""
        prepared = clustered_index.prepared
        y = sharded.workspace()
        for query in range(0, sharded.n, 5):
            want = prepared.l_inv.column(int(prepared.position_arr[query]))
            home = sharded.home_shard(query)
            seed = sharded.scan_request(y, home, query, 5, home=True)[4]
            for got in (seed, sharded.shard(home).seed_column(query)):
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            other = sharded.shard((home + 1) % sharded.n_shards)
            with pytest.raises(InvalidParameterError, match="not a member"):
                other.seed_column(query)
        assert sum(s.l_inv_indices.size for s in sharded.shards) == prepared.l_inv.nnz

    def test_partial_load_answers_remote_requests(self, sharded, tmp_path):
        """A worker holding only shard t scans for a query homed
        elsewhere from the seed column the request carries, exactly as
        a full load scans."""
        from repro.core import load_sharded_index, save_sharded_index

        path = str(tmp_path / "sharded.npz")
        save_sharded_index(sharded, path)
        full = load_sharded_index(path)
        y = full.workspace()
        for t in range(full.n_shards):
            worker = load_sharded_index(path, only=[t])
            for query in range(0, full.n, 3):
                home = full.home_shard(query)
                if home == t:
                    continue
                with pytest.raises(InvalidParameterError, match="not loaded"):
                    worker.seed_column(query)
                items, _, _, _, seed = full.scan_request(y, home, query, 5, home=True)
                want = full.scan_request(y, t, query, 5, items)
                assert worker.scan_request(y, t, query, 5, items, seed) == want
                assert not y.any()


class TestScatterGatherPlanner:
    def test_matches_engine_on_er_graph(self, er_graph):
        index = KDash(er_graph, c=0.9).build()
        engine = QueryEngine(index, cache_size=0)
        planner = ScatterGatherPlanner(ShardedIndex.from_index(index, 3))
        for q in range(0, er_graph.n_nodes, 5):
            assert planner.top_k(q, 6).items == engine.top_k(q, 6).items

    def test_skips_shards_on_clustered_graph(self, clustered_index):
        planner = ScatterGatherPlanner(
            ShardedIndex.from_index(clustered_index, 4, partitioner="louvain")
        )
        planner.top_k_many(range(clustered_index.graph.n_nodes), 5)
        assert planner.stats.shards_skipped > 0
        assert 0.0 < planner.stats.skip_rate <= 1.0
        assert planner.stats.mean_fan_out < 4

    def test_k_larger_than_n_pads_identically(self, clustered_index):
        planner = ScatterGatherPlanner(ShardedIndex.from_index(clustered_index, 2))
        n = clustered_index.graph.n_nodes
        assert (
            planner.top_k(0, n + 10).items
            == clustered_index.top_k(0, n + 10).items
        )

    def test_huge_k_costs_what_k_equals_n_costs(self, clustered_index):
        """Candidate heaps hold min(k, n) dummies, never k of them."""
        import tracemalloc

        n = clustered_index.graph.n_nodes
        planner = ScatterGatherPlanner(ShardedIndex.from_index(clustered_index, 2))
        for top_k in (clustered_index.top_k, planner.top_k):
            want = top_k(3, n)
            tracemalloc.start()
            try:
                got = top_k(3, 10**6)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20
            assert (got.items, got.n_visited, got.n_computed) == (
                want.items,
                want.n_visited,
                want.n_computed,
            )

    def test_rejects_partial_sharded_index(self, clustered_index, tmp_path):
        from repro.core import load_sharded_index, save_sharded_index

        sharded = ShardedIndex.from_index(clustered_index, 3)
        path = str(tmp_path / "idx.npz")
        save_sharded_index(sharded, path)
        partial = load_sharded_index(path, only=[1])
        with pytest.raises(InvalidParameterError, match="payload"):
            ScatterGatherPlanner(partial)

    def test_rejects_invalid_query(self, clustered_index):
        planner = ScatterGatherPlanner(ShardedIndex.from_index(clustered_index, 2))
        with pytest.raises(Exception):
            planner.top_k(clustered_index.graph.n_nodes, 5)

    def test_stats_dict_shape(self, clustered_index):
        planner = ScatterGatherPlanner(ShardedIndex.from_index(clustered_index, 2))
        planner.top_k(0, 5)
        stats = planner.stats.as_dict()
        for key in ("queries", "skip_rate", "mean_fan_out", "shards_skipped", "reshards"):
            assert key in stats
        assert stats["queries"] == 1
        planner.reset_stats()
        assert planner.stats.queries == 0

    def test_last_plan_counters(self, clustered_index):
        planner = ScatterGatherPlanner(ShardedIndex.from_index(clustered_index, 4))
        planner.top_k(3, 5)
        plan = planner.last_plan
        assert plan.shards_visited + plan.shards_skipped <= 4
        assert plan.fan_out == plan.shards_visited
        assert plan.nodes_computed <= plan.nodes_checked


class TestPlannerDynamic:
    def test_corrected_then_resharded(self):
        from repro.core import DynamicKDash

        graph = erdos_renyi_graph(40, 0.12, seed=4)
        dyn = DynamicKDash(graph, c=0.9, rebuild_threshold=None)
        engine = QueryEngine(dyn)
        planner = ScatterGatherPlanner(
            ShardedIndex.from_index(dyn.base_index, 2), dynamic=dyn
        )
        assert planner.top_k(1, 4).items == engine.top_k(1, 4).items
        engine.apply_updates(inserts=[(1, 20, 2.0)])
        assert planner.top_k(1, 4).items == engine.top_k(1, 4).items
        assert planner.last_plan.corrected
        engine.rebuild()
        engine.clear_cache()
        assert planner.top_k(1, 4).items == engine.top_k(1, 4).items
        assert not planner.last_plan.corrected
        assert planner.stats.reshards == 1
        # The planner's handle now serves the *new* sharded index.
        assert planner.sharded is not None
