import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from replaygraph import (Graph, MlpModel, graph_from_edges, induced_subgraph,
                         normalize_adjacency, propagate, synthetic_sbm_graph)
from replaygraph.graph import GraphFormatError, propagated_rows


def path_graph(n, feature_dim=2):
    edges = [(i, i + 1) for i in range(n - 1)]
    features = np.arange(n * feature_dim, dtype=np.float64).reshape(n, feature_dim)
    labels = np.zeros(n, dtype=np.int64)
    return graph_from_edges(n, edges, features, labels, class_count=1)


class TestGraphValidation:
    def test_roundtrip_counts(self):
        g = path_graph(4)
        assert g.num_nodes == 4
        assert g.adjacency.nnz // 2 == 3
        assert g.feature_dim == 2

    def test_adjacency_must_be_square(self):
        with pytest.raises(GraphFormatError, match="square"):
            Graph(sp.csr_matrix(np.ones((2, 3))), np.zeros((2, 1)),
                  np.zeros(2, dtype=np.int64), 1)

    def test_adjacency_size_must_match_features(self):
        with pytest.raises(GraphFormatError, match="num_nodes = 2"):
            Graph(sp.csr_matrix(np.zeros((3, 3))), np.zeros((2, 1)),
                  np.zeros(2, dtype=np.int64), 1)

    def test_weighted_entry_rejected(self):
        with pytest.raises(GraphFormatError, match="unweighted"):
            Graph(sp.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]])), np.zeros((2, 1)),
                  np.zeros(2, dtype=np.int64), 1)

    def test_duplicate_entries_count_as_weight(self):
        duplicated = sp.csr_matrix((np.ones(4), np.array([1, 1, 0, 0]), np.array([0, 2, 4])),
                                   shape=(2, 2))
        with pytest.raises(GraphFormatError, match="unweighted"):
            Graph(duplicated, np.zeros((2, 1)), np.zeros(2, dtype=np.int64), 1)

    def test_neighbor_out_of_range(self):
        with pytest.raises(GraphFormatError, match="neighbor"):
            graph_from_edges(2, [(0, 1), (1, 7)], np.zeros((2, 1)),
                             np.zeros(2, dtype=np.int64), 1)

    def test_label_out_of_range(self):
        with pytest.raises(GraphFormatError, match="label"):
            Graph(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
                  np.zeros((2, 1)), np.array([0, 3]), 2)

    @pytest.mark.parametrize("labels, class_count, message", [
        ([0, 0, 0], 1, "labels must have length num_nodes = 2"),
        ([0, 0], 0, "class_count must be positive"),
    ])
    def test_labels_and_class_count_checked(self, labels, class_count, message):
        with pytest.raises(GraphFormatError, match=message):
            Graph(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])), np.zeros((2, 1)),
                  np.array(labels), class_count)

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(GraphFormatError, match="symmetric"):
            Graph(sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])),
                  np.zeros((2, 1)), np.zeros(2, dtype=np.int64), 1)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 12), data=st.data(),
           shape=st.sampled_from(["as drawn", "symmetric", "symmetric less one",
                                  "permutation"]),
           form=st.sampled_from(["csr", "unsorted csr", "coo"]))
    def test_symmetry_agrees_with_the_elementwise_comparison(self, n, data, shape, form):
        # the constructor tests symmetry on the canonical structure; it must
        # reject exactly the 0/1 matrices for which A != A.T has an entry
        node = st.integers(0, n - 1)
        cells = data.draw(st.sets(st.tuples(node, node), max_size=3 * n))  # empty rows too
        if shape == "permutation":  # equal row and column counts; symmetric for an involution
            cells = {(i, j) for i, j in enumerate(data.draw(st.permutations(range(n)))) if i != j}
        elif shape != "as drawn":
            cells |= {(j, i) for i, j in cells}
            if shape == "symmetric less one" and cells:
                cells.discard(data.draw(st.sampled_from(sorted(cells))))
        # row by row, columns descending: a CSR made of these is not canonical
        order = sorted(cells, key=lambda cell: (cell[0], -cell[1]))
        rows, cols = np.array(order, dtype=np.int64).reshape(-1, 2).T
        if form == "coo":
            a = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        else:
            indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
            a = sp.csr_matrix((np.ones(len(rows)), cols, indptr), shape=(n, n))
            if form == "csr":
                a.sort_indices()
        elementwise = sp.csr_matrix(a)
        expected = (elementwise != elementwise.T).nnz == 0
        try:
            Graph(a, np.zeros((n, 1)), np.zeros(n, dtype=np.int64), 1)
            symmetric = True
        except GraphFormatError as exc:
            assert "symmetric" in str(exc)
            symmetric = False
        assert symmetric == expected

    def test_adjacency_is_stored_as_float64_csr(self):
        g = Graph(sp.coo_matrix(np.array([[0, 1], [1, 0]])), np.zeros((2, 1)),
                  np.zeros(2, dtype=np.int64), 1)
        assert g.adjacency.format == "csr" and g.adjacency.dtype == np.float64
        assert g.adjacency.nnz // 2 == 1

    def test_dense_features_are_stored_as_float64_csr(self):
        features = np.array([[1, 0, -0.0], [0, 0, 2]])
        g = Graph(sp.csr_matrix((2, 2)), features, np.zeros(2, dtype=np.int64), 1)
        assert sp.issparse(g.features) and g.features.format == "csr"
        assert g.features.dtype == np.float64
        assert np.array_equal(g.features.toarray(), features)
        assert g.features.nnz == 3  # the -0.0 is stored, the +0.0s are not

    def test_features_must_be_2d(self):
        with pytest.raises(GraphFormatError, match="2-D"):
            Graph(sp.csr_matrix((2, 2)), np.zeros(2), np.zeros(2, dtype=np.int64), 1)

    def test_later_writes_to_the_callers_arrays_do_not_reach_the_graph(self):
        adjacency = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        features = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        labels = np.array([0, 1])
        g = Graph(adjacency, features, labels, 2)
        given = [adjacency.data, adjacency.indices, adjacency.indptr,
                 features.data, features.indices, features.indptr, labels]
        kept = [g.adjacency.data, g.adjacency.indices, g.adjacency.indptr,
                g.features.data, g.features.indices, g.features.indptr, g.labels]
        assert not any(np.shares_memory(a, b) for a in given for b in kept)
        features.data[:] = np.nan
        adjacency.data[:] = 5.0
        labels[:] = 7
        assert np.array_equal(g.features.toarray(), [[1.0, 0.0], [0.0, 2.0]])
        assert np.array_equal(g.adjacency.toarray(), [[0.0, 1.0], [1.0, 0.0]])
        assert g.labels.tolist() == [0, 1]

    def test_canonical_form_leaves_the_callers_adjacency_as_given(self):
        # row 0 lists its neighbors out of order; the graph's copy is sorted
        adjacency = sp.csr_matrix((np.ones(4), np.array([2, 1, 0, 0]), np.array([0, 2, 3, 4])),
                                  shape=(3, 3))
        g = Graph(adjacency, np.zeros((3, 1)), np.zeros(3, dtype=np.int64), 1)
        assert adjacency.indices.tolist() == [2, 1, 0, 0]
        assert g.adjacency.indices.tolist() == [1, 2, 0, 0]

    def test_from_edges_symmetrizes_dedupes_and_drops_self_loops(self):
        g = graph_from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 2)],
                             np.zeros((3, 1)), np.zeros(3, dtype=np.int64), 1)
        assert g.adjacency.nnz // 2 == 1
        assert g.adjacency.nnz == 2
        assert np.array_equal(g.adjacency.toarray(), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])


class TestGraphFromEdges:
    def build(self, edges, n=3):
        return graph_from_edges(n, edges, np.zeros((n, 1)), np.zeros(n, dtype=np.int64), 1)

    @pytest.mark.parametrize("edges", [[], (), np.zeros((0, 2), dtype=np.int64)])
    def test_empty_edge_list(self, edges):
        g = self.build(edges)
        assert g.adjacency.nnz // 2 == 0
        assert g.adjacency.shape == (3, 3)

    def test_array_and_generator_match_list(self):
        pairs = [(0, 1), (2, 1), (1, 2), (1, 1)]
        expected = self.build(pairs).adjacency.toarray()
        assert np.array_equal(expected, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        for edges in (np.array(pairs), (pair for pair in pairs)):
            adjacency = self.build(edges).adjacency
            assert adjacency.has_canonical_format
            assert np.array_equal(adjacency.toarray(), expected)

    def test_edges_must_be_pairs(self):
        with pytest.raises(GraphFormatError, match="pairs"):
            self.build(np.array([[0, 1, 2]]))


class TestNormalizeAdjacency:
    def test_single_node(self):
        g = graph_from_edges(1, [], np.ones((1, 1)), np.zeros(1, dtype=np.int64), 1)
        s = normalize_adjacency(g)
        assert np.allclose(s.matrix.toarray(), [[1.0]])

    def test_two_node_edge(self):
        g = path_graph(2)
        s = normalize_adjacency(g)
        assert np.allclose(s.matrix.toarray(), 0.5 * np.ones((2, 2)))

    def test_three_node_path_entry(self):
        g = path_graph(3)
        s = normalize_adjacency(g)
        assert np.isclose(s.matrix[0, 1], 1.0 / np.sqrt(6.0))

    def test_symmetry(self, rng):
        g = random_graph(rng, 20)
        s = normalize_adjacency(g).matrix
        assert abs(s - s.T).max() < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_bytes_of_the_diagonal_products(self, seed):
        # scaling each stored entry by its row's and column's factor rounds
        # as D @ (A + I) @ D does
        g = synthetic_sbm_graph([30, 40, 50], 0.2, 0.02, 0.5, seed=seed)
        a_tilde = (g.adjacency + sp.eye(g.num_nodes, format="csr")).tocsr()
        d = sp.diags(1.0 / np.sqrt(np.asarray(a_tilde.sum(axis=1)).ravel()))
        expected = (d @ a_tilde @ d).tocsr()
        expected.sort_indices()
        s = normalize_adjacency(g).matrix
        assert s.has_sorted_indices
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(s, part), getattr(expected, part)), part
        assert s.data.tobytes() == expected.data.tobytes()

    def test_spectral_radius_at_most_one(self, rng):
        for trial in range(5):
            g = random_graph(np.random.default_rng(trial), 20)
            dense = normalize_adjacency(g).matrix.toarray()
            radius = max(abs(np.linalg.eigvalsh(dense)))
            assert radius <= 1.0 + 1e-6


def random_graph(rng, n):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
    return graph_from_edges(n, edges, rng.standard_normal((n, 3)),
                            rng.integers(0, 2, n), class_count=2)


class TestPropagate:
    def test_zero_steps_is_identity(self, rng):
        g = random_graph(rng, 8)
        s = normalize_adjacency(g)
        out = propagate(s, g.features, 0)
        assert np.array_equal(out.values.toarray(), g.features.toarray())

    def test_two_node_average(self):
        g = path_graph(2)
        s = normalize_adjacency(g)
        out = propagate(s, np.array([[0.0], [2.0]]), 1)
        assert np.allclose(out.values.toarray(), [[1.0], [1.0]])

    def test_complete_graph_idempotent(self):
        g = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)], np.ones((3, 1)),
                             np.zeros(3, dtype=np.int64), 1)
        s = normalize_adjacency(g)
        x = np.array([[1.0], [2.0], [3.0]])
        once = propagate(s, x, 1).values.toarray()
        twice = propagate(s, x, 2).values.toarray()
        assert np.allclose(once, twice)

    def test_composition(self, rng):
        g = random_graph(rng, 12)
        s = normalize_adjacency(g)
        x = rng.standard_normal((12, 4))
        direct = propagate(s, x, 5).values.toarray()
        staged = propagate(s, propagate(s, x, 2).values, 3).values.toarray()
        assert np.allclose(direct, staged, atol=1e-10)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("kind", ["sbm", "bag-of-words"])
    def test_sparse_product_has_the_bytes_of_the_dense_product(self, kind, k):
        # S^k X over CSR X sums each entry in the order S @ dense X does, so
        # keeping X sparse changes no propagated bit.
        if kind == "sbm":
            g = synthetic_sbm_graph([30, 30, 30], 0.2, 0.02, 0.5, seed=k)
            assert g.features.nnz == g.num_nodes * g.feature_dim
        else:
            rng = np.random.default_rng(k)
            n = 90
            bag = (rng.random((n, 60)) < 0.05).astype(np.float64)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.05]
            g = graph_from_edges(n, edges, bag, np.zeros(n, dtype=np.int64), 1)
            assert g.features.nnz == bag.sum()
        s = normalize_adjacency(g)
        expected = g.features.toarray()
        for _ in range(k):
            expected = s.matrix @ expected
        # every row, then some in any order, then some repeated: the last
        # hop multiplies just the rows asked for
        half = np.random.default_rng(k).permutation(g.num_nodes)[:g.num_nodes // 2]
        for rows in (None, half, [5, 2, 5, 0]):
            values = propagate(s, g.features, k, rows).values
            out = values.toarray()
            assert isinstance(out, np.ndarray) and out.flags.c_contiguous
            assert out.tobytes() == (expected if rows is None else expected[rows]).tobytes()
            # propagate is the hop chain of propagated_rows multiplied onto its x
            chain = propagated_rows(s, g.features, k, rows)
            product = chain.x
            for hop in chain.hops:
                product = hop @ product
            for a, b in ((values.data, product.data), (values.indices, product.indices),
                         (values.indptr, product.indptr)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("rows", [None, [2, 0]])
    @pytest.mark.parametrize("dense", [False, True])
    def test_result_shares_no_array_with_the_inputs(self, rng, k, rows, dense):
        g = random_graph(rng, 8)
        s = normalize_adjacency(g)
        x = g.features.toarray() if dense else g.features
        out = propagate(s, x, k, rows).values
        given = [s.matrix.data, s.matrix.indices, s.matrix.indptr]
        given += [x] if dense else [x.data, x.indices, x.indptr]
        assert not any(np.shares_memory(a, b) for a in (out.data, out.indices, out.indptr)
                       for b in given)

    def test_dimension_mismatch(self):
        g = path_graph(3)
        s = normalize_adjacency(g)
        with pytest.raises(ValueError):
            propagate(s, np.zeros((2, 4)), 1)

    def test_negative_depth(self):
        g = path_graph(3)
        s = normalize_adjacency(g)
        with pytest.raises(ValueError):
            propagate(s, g.features, -1)


class TestPropagatedRows:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 40), st.sampled_from([0, 1, 2, 3]), st.integers(1, 12),
           st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_logits_match_the_dense_float64_rows(self, n, k, d, class_count, seed):
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, n, (rng.integers(0, 3 * n + 1), 2))
        x = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.5)
        g = graph_from_edges(n, edges, x, np.zeros(n, dtype=np.int64), 1)
        s = normalize_adjacency(g)
        order = rng.permutation(n)
        test = order[rng.integers(0, n):]  # the rest is the training split
        rows = propagated_rows(s, g.features, k, test)
        dense = propagate(s, g.features, k).values.toarray()[test]
        assert rows.shape == dense.shape

        model = MlpModel.zeros(class_count, d)
        model.set_flat(rng.standard_normal(model.num_params))
        mask = np.flatnonzero(rng.random(class_count) < 0.6)
        mask = mask if mask.size else np.array([class_count - 1])
        w, b = (a[mask] for a in model.layers[0])
        z = rows @ w.T + b
        expected = dense @ w.T + b
        assert z.dtype == np.float64 and z.shape == expected.shape
        assert np.all(np.abs(z - expected) <= 1e-12 * np.max(np.abs(z), initial=0.0))

        top = np.sort(expected, axis=1)
        clear = (top[:, -1] - top[:, -2] > 1e-9) if mask.size > 1 else np.ones(len(test), bool)
        got, want = model.predict(rows, mask), model.predict(dense, mask)
        assert np.array_equal(got[clear], want[clear])

    def test_rows_are_the_first_layers_input_at_any_depth(self, rng):
        g = random_graph(rng, 10)
        s = normalize_adjacency(g)
        rows = propagated_rows(s, g.features, 2, [7, 1, 4])
        dense = propagate(s, g.features, 2, [7, 1, 4]).values.toarray()
        model = MlpModel.init(input_dim=3, hidden_dim=5, class_count=4, seed=1)
        assert np.array_equal(model.predict(rows, (0, 2, 3)), model.predict(dense, (0, 2, 3)))

    def test_checked_like_propagate(self):
        g = path_graph(3)
        s = normalize_adjacency(g)
        with pytest.raises(ValueError, match="feature matrix has shape"):
            propagated_rows(s, np.zeros((2, 4)), 1, [0])
        with pytest.raises(ValueError, match="depth"):
            propagated_rows(s, g.features, -1, [0])
        with pytest.raises(ValueError, match=r"inputs have shape \(2, 2\), expected \(n, 3\)"):
            MlpModel.zeros(2, 3).predict(propagated_rows(s, g.features, 1, [0, 2]))


class TestInducedSubgraph:
    def test_all_nodes_preserves_structure(self, rng):
        g = random_graph(rng, 10)
        sub = induced_subgraph(g, list(range(10)))
        assert sub.adjacency.nnz // 2 == g.adjacency.nnz // 2
        assert np.array_equal(sub.labels, g.labels)
        assert (sub.adjacency != g.adjacency).nnz == 0

    def test_single_node(self):
        g = path_graph(4)
        sub = induced_subgraph(g, [2])
        assert sub.num_nodes == 1
        assert sub.adjacency.nnz // 2 == 0
        assert np.array_equal(sub.features.toarray(), g.features.toarray()[[2]])

    def test_path_keeping_endpoints_drops_edges(self):
        g = path_graph(3)
        sub = induced_subgraph(g, [0, 2])
        assert sub.num_nodes == 2
        assert sub.adjacency.nnz // 2 == 0

    def test_labels_follow_nodes(self):
        g = graph_from_edges(3, [(0, 1)], np.zeros((3, 1)), np.array([0, 1, 2]), 3)
        sub = induced_subgraph(g, [2, 1])
        # nodes are renumbered in ascending order of their ids in g
        assert np.array_equal(sub.labels, [1, 2])

    def test_positions_follow_ascending_node_ids(self, rng):
        g = random_graph(rng, 15)
        nodes = np.array([8, 2, 13, 5, 2])
        sub = induced_subgraph(g, nodes)
        keep = np.unique(nodes)
        pos = np.searchsorted(keep, nodes)
        dense = g.adjacency.toarray()
        assert np.array_equal(sub.adjacency.toarray(), dense[np.ix_(keep, keep)])
        assert np.array_equal(sub.adjacency.toarray()[np.ix_(pos, pos)],
                              dense[np.ix_(nodes, nodes)])
        assert np.array_equal(sub.features.toarray()[pos], g.features.toarray()[nodes])
        assert np.array_equal(sub.labels[pos], g.labels[nodes])

    def test_symmetry_preserved(self, rng):
        g = random_graph(rng, 15)
        sub = induced_subgraph(g, [0, 2, 4, 6, 8])
        assert (sub.adjacency != sub.adjacency.T).nnz == 0

    def test_empty_set_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            induced_subgraph(g, [])

    @pytest.mark.parametrize("nodes", [[0, 3], [-1, 1]])
    def test_node_out_of_range_rejected(self, nodes):
        with pytest.raises(ValueError, match="subgraph node index out of range"):
            induced_subgraph(path_graph(3), nodes)

    @pytest.mark.parametrize("seed", range(8))
    def test_bytes_equal_the_checked_constructor(self, seed):
        # Graph(...) keeps the bytes of the slices it is given: a principal
        # submatrix on sorted distinct nodes is already canonical, so
        # checking a subgraph moves no artifact byte
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        g = random_graph(rng, n)
        if seed % 2:  # sparse 0/1 features, as a bag-of-words file gives
            g = Graph(g.adjacency, (rng.random((n, 5)) < 0.3).astype(float), g.labels, 2)
        for nodes in (rng.permutation(n)[:int(rng.integers(1, n + 1))],  # unsorted
                      rng.integers(0, n, 2 * n),                          # repeated
                      [int(rng.integers(n))],                             # one node
                      rng.integers(0, n, n).tolist()):
            sub = induced_subgraph(g, nodes)
            keep = np.unique(nodes)
            adjacency, features = g.adjacency[keep][:, keep], g.features[keep]
            assert type(sub) is Graph and sub.class_count == g.class_count
            for got, want in ((sub.adjacency, adjacency), (sub.features, features)):
                assert type(got) is type(want) and got.shape == want.shape
                for part in ("data", "indices", "indptr"):
                    a, b = getattr(got, part), getattr(want, part)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert sub.labels.dtype == g.labels.dtype
            assert sub.labels.tobytes() == g.labels[keep].tobytes()
