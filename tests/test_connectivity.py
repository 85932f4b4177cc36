import subprocess
import sys

import numpy as np
import pytest

from gridifier.connectivity import (
    EXHAUSTIVE_CUTOFF,
    Direction,
    EdgeSet,
    bilateral_knn,
    invert_edges,
    knn,
    knn_brute,
    knn_tree,
    self_knn,
)
from gridifier.errors import ConfigError, DataError, InvariantError
from gridifier.pccore import GridSpec, make_grid_coords


def bilateral_oracle(cloud, grid, k):
    """Two independent exhaustive passes, joined as a Python set of pairs."""
    edges = set()
    for i, row in enumerate(knn_brute(grid, cloud, k)):
        for j in row:
            edges.add((int(j), int(i)))
    for j, row in enumerate(knn_brute(cloud, grid, k)):
        for i in row:
            edges.add((int(j), int(i)))
    return edges


class TestKnn:
    def test_nearest_of_two(self):
        got = knn(np.array([[0.0]]), np.array([[-1.0], [0.5]]), k=1)
        np.testing.assert_array_equal(got, [[1]])

    def test_query_on_target(self):
        targets = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        got = knn(np.array([[3.0, 4.0]]), targets, k=1)
        assert got[0, 0] == 1

    def test_tie_breaks_to_smaller_index(self):
        # two targets equidistant from the query
        targets = np.array([[1.0, 0.0], [-1.0, 0.0]])
        got = knn(np.array([[0.0, 0.0]]), targets, k=1)
        assert got[0, 0] == 0

    def test_rows_sorted_by_distance_then_index(self):
        rng = np.random.default_rng(0)
        targets = rng.normal(size=(40, 3))
        q = rng.normal(size=(5, 3))
        got = knn(q, targets, k=6)
        for m in range(5):
            d2 = ((targets[got[m]] - q[m]) ** 2).sum(axis=1)
            assert np.all(np.diff(d2) >= 0)

    def test_k_larger_than_targets(self):
        with pytest.raises(ConfigError):
            knn(np.zeros((1, 2)), np.zeros((3, 2)), k=4)

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            knn(np.array([[np.nan, 0.0]]), np.zeros((3, 2)), k=1)

    @pytest.mark.parametrize("seed", range(8))
    def test_tree_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(64, 700))
        m = int(rng.integers(1, 300))
        d = int(rng.choice([2, 3]))
        k = int(rng.integers(1, 10))
        targets = rng.uniform(-1, 1, (t, d))
        queries = rng.uniform(-1.2, 1.2, (m, d))
        accelerated = knn_tree(queries, targets, k)
        np.testing.assert_array_equal(accelerated, knn_brute(queries, targets, k))

    def test_tree_matches_brute_with_duplicates(self):
        rng = np.random.default_rng(99)
        base = rng.uniform(-1, 1, (50, 3))
        # many exact duplicates force distance ties
        targets = np.concatenate([base, base, base, rng.uniform(-1, 1, (80, 3))])
        queries = np.concatenate([base[:20], rng.uniform(-1, 1, (60, 3))])
        for k in (1, 4, 9):
            accelerated = knn_tree(queries, targets, k)
            np.testing.assert_array_equal(accelerated, knn_brute(queries, targets, k))

    def test_reference_example_dense(self):
        rng = np.random.default_rng(2024)
        queries = rng.uniform(-1, 1, (256, 3))
        targets = rng.uniform(-1, 1, (512, 3))
        np.testing.assert_array_equal(
            knn(queries, targets, 9), knn_brute(queries, targets, 9)
        )

    def test_all_points_identical(self):
        targets = np.zeros((200, 3))
        got = knn(np.ones((3, 3)), targets, k=5)
        np.testing.assert_array_equal(got, np.tile(np.arange(5), (3, 1)))


def _tie_heavy_cases():
    """Queries, targets and k for searches at or above the exhaustive cutoff."""
    rng = np.random.default_rng(31)
    lattice = make_grid_coords(GridSpec(resolution=9, dim=3))
    on_nodes = lattice[rng.integers(0, lattice.shape[0], 1000)]
    base = rng.uniform(-1, 1, (200, 3))
    dense = rng.uniform(-1, 1, (2000, 3))
    plane = make_grid_coords(GridSpec(resolution=30, dim=2))
    # every cell centre is equidistant from its 8 corner nodes
    centres = make_grid_coords(GridSpec(resolution=8, lo=-7 / 8, hi=7 / 8))
    return {
        "lattice_on_itself": (lattice, lattice, 9),
        "cloud_on_lattice_nodes": (on_nodes, lattice, 9),
        "lattice_on_cloud_nodes": (lattice, on_nodes, 9),
        "duplicated_coordinates": (
            np.concatenate([base[:60], rng.uniform(-1, 1, (100, 3))]),
            np.concatenate([base, base, base]),
            9,
        ),
        "k_equals_targets": (
            rng.uniform(-1, 1, (20, 3)),
            rng.uniform(-1, 1, (EXHAUSTIVE_CUTOFF, 3)),
            EXHAUSTIVE_CUTOFF,
        ),
        "k_one_cell_centres": (centres, lattice, 1),
        "k_one_random": (np.concatenate([dense[:100], rng.uniform(-1, 1, (300, 3))]), dense, 1),
        "two_dimensional": (
            np.concatenate([plane[::7], rng.uniform(-1, 1, (200, 2))]),
            np.concatenate([plane, rng.uniform(-1, 1, (300, 2))]),
            6,
        ),
    }


_TIE_HEAVY = _tie_heavy_cases()


@pytest.mark.parametrize(
    "queries, targets, k", list(_TIE_HEAVY.values()), ids=list(_TIE_HEAVY)
)
def test_tree_search_matches_brute_force_above_cutoff(queries, targets, k):
    assert targets.shape[0] >= EXHAUSTIVE_CUTOFF
    expected = knn_brute(queries, targets, k)
    np.testing.assert_array_equal(knn_tree(queries, targets, k), expected)
    np.testing.assert_array_equal(knn(queries, targets, k), expected)


def _small_tie_heavy_cases():
    """Queries, targets and k for searches below the exhaustive cutoff."""
    rng = np.random.default_rng(32)
    lattice = make_grid_coords(GridSpec(resolution=6, dim=3))
    on_nodes = lattice[rng.integers(0, lattice.shape[0], 300)]
    base = rng.uniform(-1, 1, (100, 3))
    plane = make_grid_coords(GridSpec(resolution=15, dim=2))
    # every cell centre is equidistant from its 8 corner nodes
    centres = make_grid_coords(GridSpec(resolution=5, lo=-0.8, hi=0.8))
    return {
        "lattice_on_itself": (lattice, lattice, 9),
        "cloud_on_lattice_nodes": (on_nodes, lattice, 9),
        "lattice_on_cloud_nodes": (lattice, on_nodes, 9),
        "triplicated_points": (
            np.concatenate([base[:40], rng.uniform(-1, 1, (80, 3))]),
            np.concatenate([base, base, base]),
            9,
        ),
        "k_one_cell_centres": (centres, lattice, 1),
        "k_equals_targets": (rng.uniform(-1, 1, (20, 3)), rng.uniform(-1, 1, (100, 3)), 100),
        "two_dimensional": (
            np.concatenate([plane[::7], rng.uniform(-1, 1, (100, 2))]),
            np.concatenate([plane, rng.uniform(-1, 1, (100, 2))]),
            6,
        ),
    }


_SMALL_TIE_HEAVY = _small_tie_heavy_cases()


@pytest.mark.parametrize(
    "queries, targets, k", list(_SMALL_TIE_HEAVY.values()), ids=list(_SMALL_TIE_HEAVY)
)
def test_search_matches_brute_force_below_cutoff(queries, targets, k):
    assert targets.shape[0] < EXHAUSTIVE_CUTOFF
    np.testing.assert_array_equal(knn(queries, targets, k), knn_brute(queries, targets, k))


def test_searches_below_cutoff_never_import_scipy_spatial():
    # the import costs a few hundred ms of start-up that small-cloud runs
    # (both training studies) would otherwise pay
    code = (
        "import sys, numpy as np\n"
        "from gridifier.connectivity import bilateral_knn\n"
        "rng = np.random.default_rng(0)\n"
        "bilateral_knn(rng.uniform(-1, 1, (256, 3)), rng.uniform(-1, 1, (216, 3)), 3)\n"
        "print('scipy.spatial' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestEdgeSet:
    def test_out_of_bounds_rejected(self):
        with pytest.raises(DataError):
            EdgeSet(np.array([0, 5]), np.array([0, 0]), Direction.CLOUD_TO_GRID, 3, 2)

    def test_duplicates_rejected(self):
        with pytest.raises(InvariantError):
            EdgeSet(np.array([1, 1]), np.array([0, 0]), Direction.CLOUD_TO_GRID, 3, 2)

    def test_unsorted_rejected(self):
        with pytest.raises(InvariantError):
            EdgeSet(np.array([1, 0]), np.array([1, 0]), Direction.CLOUD_TO_GRID, 3, 2)

    def test_degree_helpers(self):
        e = EdgeSet(np.array([0, 2, 1]), np.array([0, 0, 1]), Direction.CLOUD_TO_GRID, 3, 2)
        np.testing.assert_array_equal(e.out_degrees(), [1, 1, 1])
        np.testing.assert_array_equal(e.in_degrees(), [2, 1])


class TestBilateral:
    def test_single_point_single_cell(self):
        e = bilateral_knn(np.zeros((1, 2)), np.ones((1, 2)), k=1)
        assert e.n_edges == 1
        assert (e.src[0], e.dst[0]) == (0, 0)

    def test_degree_lower_bounds_and_completeness(self):
        rng = np.random.default_rng(1)
        cloud = rng.uniform(-1, 1, (150, 3))
        grid = make_grid_coords(GridSpec(resolution=5, dim=3))
        k = 4
        e = bilateral_knn(cloud, grid, k)
        # both passes guarantee k edges per node on the selecting side, so
        # after the union no node on either side can sit below k or at zero
        assert e.out_degrees().min() >= k
        assert e.in_degrees().min() >= k

    @pytest.mark.xfail(
        strict=True,
        reason="union degrees have no per-node 2k ceiling: a point can be "
        "selected by more than k counterparts, so this bound fails on "
        "random instances; kept as a counterexample",
    )
    def test_per_node_upper_bound_does_not_hold(self):
        rng = np.random.default_rng(1)
        cloud = rng.uniform(-1, 1, (150, 3))
        grid = make_grid_coords(GridSpec(resolution=5, dim=3))
        k = 4
        e = bilateral_knn(cloud, grid, k)
        assert e.out_degrees().max() <= 2 * k
        assert e.in_degrees().max() <= 2 * k

    def test_union_equals_two_pass_oracle(self):
        rng = np.random.default_rng(5)
        cloud = rng.uniform(-1, 1, (200, 3))
        grid = make_grid_coords(GridSpec(resolution=6, dim=3))
        e = bilateral_knn(cloud, grid, k=9)
        got = {(int(s), int(d)) for s, d in zip(e.src, e.dst)}
        assert got == bilateral_oracle(cloud, grid, 9)

    def test_union_equals_two_pass_oracle_large_cloud(self):
        rng = np.random.default_rng(17)
        cloud = rng.uniform(-1, 1, (8000, 3))
        grid = make_grid_coords(GridSpec(resolution=9, dim=3))
        e = bilateral_knn(cloud, grid, k=9)
        got = {(int(s), int(d)) for s, d in zip(e.src, e.dst)}
        assert got == bilateral_oracle(cloud, grid, 9)

    def test_edge_count_bounds(self):
        rng = np.random.default_rng(8)
        cloud = rng.uniform(-1, 1, (120, 2))
        grid = make_grid_coords(GridSpec(resolution=9, dim=2))
        k = 3
        e = bilateral_knn(cloud, grid, k)
        assert k * max(120, 81) <= e.n_edges <= k * (120 + 81)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        cloud = rng.uniform(-1, 1, (90, 3))
        grid = make_grid_coords(GridSpec(resolution=4, dim=3))
        a = bilateral_knn(cloud, grid, 3)
        b = bilateral_knn(cloud, grid, 3)
        np.testing.assert_array_equal(a.src, b.src)
        np.testing.assert_array_equal(a.dst, b.dst)

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
            bilateral_knn(np.zeros((2, 2)), np.ones((5, 2)), k=3)


class TestInvert:
    def test_small_example(self):
        e = EdgeSet(np.array([0, 2]), np.array([1, 1]), Direction.CLOUD_TO_GRID, 3, 2)
        inv = invert_edges(e)
        assert inv.direction is Direction.GRID_TO_CLOUD
        assert {(int(s), int(d)) for s, d in zip(inv.src, inv.dst)} == {(1, 0), (1, 2)}

    def test_involution(self):
        rng = np.random.default_rng(3)
        cloud = rng.uniform(-1, 1, (70, 3))
        grid = make_grid_coords(GridSpec(resolution=4, dim=3))
        e = bilateral_knn(cloud, grid, 2)
        back = invert_edges(invert_edges(e))
        np.testing.assert_array_equal(back.src, e.src)
        np.testing.assert_array_equal(back.dst, e.dst)
        assert back.direction is e.direction

    def test_inverted_bilateral_covers_cloud(self):
        rng = np.random.default_rng(4)
        cloud = rng.uniform(-1, 1, (130, 3))
        grid = make_grid_coords(GridSpec(resolution=5, dim=3))
        k = 3
        inv = invert_edges(bilateral_knn(cloud, grid, k))
        assert inv.in_degrees().min() >= k

    def test_cardinality_preserved(self):
        rng = np.random.default_rng(6)
        cloud = rng.uniform(-1, 1, (50, 2))
        grid = make_grid_coords(GridSpec(resolution=7, dim=2))
        e = bilateral_knn(cloud, grid, 2)
        assert invert_edges(e).n_edges == e.n_edges


class TestSelfKnn:
    def test_includes_self_loop(self):
        rng = np.random.default_rng(7)
        coords = rng.uniform(-1, 1, (30, 3))
        e = self_knn(coords, k=4)
        assert e.direction is Direction.CLOUD_TO_CLOUD
        self_loops = {(int(i), int(i)) for i in range(30)}
        got = {(int(s), int(d)) for s, d in zip(e.src, e.dst)}
        assert self_loops <= got

    def test_edge_count(self):
        rng = np.random.default_rng(13)
        e = self_knn(rng.uniform(-1, 1, (25, 2)), k=3)
        assert e.n_edges == 25 * 3
