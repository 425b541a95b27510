"""Sparse graph container, symmetric adjacency normalization, and feature propagation.

The classifier for graph tasks is linear over K-step propagated features
``S^K X`` with ``S = D^{-1/2} (A + I) D^{-1/2}``, so all graph structure is
consumed up front by the functions in this module. Node features ``X`` are
held as a sparse CSR matrix until propagation ends; only ``S^K X`` is dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # scipy.sparse is slow to import; only graph runs need it
    import scipy.sparse as sp


class GraphFormatError(ValueError):
    """Raised when graph arrays violate the CSR/label contracts."""


@dataclass(frozen=True)
class Graph:
    """Undirected attributed graph in CSR form with integer class labels.

    ``csr_offsets``/``csr_neighbors`` encode an unweighted symmetric
    adjacency: the neighbors of node ``u`` are
    ``csr_neighbors[csr_offsets[u]:csr_offsets[u + 1]]``. ``features`` is
    given dense or sparse and always stored as an (n, d) float64 scipy CSR
    matrix (see :func:`_feature_matrix`). ``labels`` holds global class
    ids in ``[0, class_count)``. ``label_names``, when present, records the
    original string labels in first-appearance order.
    """

    csr_offsets: np.ndarray
    csr_neighbors: np.ndarray
    features: sp.csr_matrix
    labels: np.ndarray
    class_count: int
    label_names: tuple[str, ...] | None = None

    def __post_init__(self):
        offsets = np.asarray(self.csr_offsets, dtype=np.int64)
        neighbors = np.asarray(self.csr_neighbors, dtype=np.int64)
        features = _feature_matrix(self.features)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "csr_offsets", offsets)
        object.__setattr__(self, "csr_neighbors", neighbors)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

        n = features.shape[0]
        if offsets.shape != (n + 1,):
            raise GraphFormatError(f"csr_offsets must have length num_nodes + 1 = {n + 1}")
        if offsets[0] != 0 or offsets[-1] != len(neighbors):
            raise GraphFormatError("csr_offsets must start at 0 and end at len(csr_neighbors)")
        if np.any(np.diff(offsets) < 0):
            raise GraphFormatError("csr_offsets must be non-decreasing")
        if len(neighbors) and (neighbors.min() < 0 or neighbors.max() >= n):
            raise GraphFormatError("neighbor index out of range")
        if labels.shape != (n,):
            raise GraphFormatError(f"labels must have length num_nodes = {n}")
        if self.class_count <= 0:
            raise GraphFormatError("class_count must be positive")
        if n and (labels.min() < 0 or labels.max() >= self.class_count):
            raise GraphFormatError("label outside [0, class_count)")
        adj = self.adjacency()
        if (adj != adj.T).nnz != 0:
            raise GraphFormatError("adjacency must be symmetric")

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def num_edges(self) -> int:
        """Undirected edge count (each edge stored twice in CSR)."""
        return len(self.csr_neighbors) // 2

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def adjacency(self) -> sp.csr_matrix:
        """Unweighted adjacency as a scipy CSR matrix."""
        import scipy.sparse as sp
        n = self.features.shape[0]
        data = np.ones(len(self.csr_neighbors), dtype=np.float64)
        return sp.csr_matrix((data, self.csr_neighbors, self.csr_offsets), shape=(n, n))


def _feature_matrix(x) -> sp.csr_matrix:
    """Return a feature matrix, dense or sparse, as (n, d) float64 CSR.

    A dense input keeps every entry that is not ``+0.0``, so a ``-0.0`` is
    stored too. (``.toarray()`` adds stored entries onto ``+0.0`` and reads
    it back as ``+0.0``, as any propagation hop would.)
    """
    import scipy.sparse as sp
    if sp.issparse(x):
        return sp.csr_matrix(x, dtype=np.float64)
    dense = np.asarray(x, dtype=np.float64)
    if dense.ndim != 2:
        raise GraphFormatError(f"features must be 2-D, got shape {dense.shape}")
    rows, cols = np.nonzero((dense != 0) | np.signbit(dense))
    return sp.csr_matrix((dense[rows, cols], (rows, cols)), shape=dense.shape)


def graph_from_edges(num_nodes: int, edges, features, labels, class_count: int,
                     label_names=None) -> Graph:
    """Build a Graph from an iterable of undirected (u, v) pairs.

    Edges are symmetrized and deduplicated; self loops are dropped (the
    normalization step adds its own).
    """
    import scipy.sparse as sp
    pairs = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    if pairs:
        arr = np.array(sorted(pairs), dtype=np.int64)
        rows = np.concatenate([arr[:, 0], arr[:, 1]])
        cols = np.concatenate([arr[:, 1], arr[:, 0]])
    else:
        rows = cols = np.zeros(0, dtype=np.int64)
    adj = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(num_nodes, num_nodes))
    adj.sort_indices()
    return Graph(adj.indptr, adj.indices, features, labels, class_count, label_names)


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Symmetrically normalized adjacency with self loops, entries 1/sqrt(deg(u)deg(v))."""

    matrix: sp.csr_matrix

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PropagatedFeatures:
    """Dense node representations S^K X together with the depth K used."""

    values: np.ndarray
    depth: int


def normalize_adjacency(g: Graph) -> NormalizedAdjacency:
    """Return D^{-1/2} (A + I) D^{-1/2} in CSR form.

    Self loops guarantee every degree is positive, so no special casing of
    isolated nodes is needed.
    """
    import scipy.sparse as sp
    a_tilde = (g.adjacency() + sp.eye(g.num_nodes, format="csr")).tocsr()
    deg = np.asarray(a_tilde.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    d = sp.diags(inv_sqrt)
    s = (d @ a_tilde @ d).tocsr()
    s.sort_indices()
    return NormalizedAdjacency(s)


def propagate(s: NormalizedAdjacency, x, k: int) -> PropagatedFeatures:
    """Compute S^k X by k successive sparse-sparse multiplies, densified once.

    ``x`` may be dense or sparse; it is taken as CSR (:func:`_feature_matrix`).
    Each output entry sums its products in the order a sparse-dense multiply
    would, and missing entries would only add ``+0.0``, so the result has the
    same bytes as ``S @ ... @ S @ dense_x``.
    """
    if k < 0:
        raise ValueError("propagation depth must be >= 0")
    out = _feature_matrix(x)
    if out.shape[0] != s.num_nodes:
        raise ValueError(
            f"feature matrix has shape {out.shape}, expected ({s.num_nodes}, feature_dim)")
    for _ in range(k):
        out = s.matrix @ out
    return PropagatedFeatures(out.toarray(), k)


def induced_subgraph(g: Graph, nodes) -> tuple[Graph, dict[int, int]]:
    """Subgraph on the given node set plus the old-to-new index mapping.

    Nodes are relabeled 0..len(nodes)-1 in ascending original order. Labels
    keep their global class ids and class_count is unchanged.
    """
    keep = np.unique(np.asarray(list(nodes), dtype=np.int64))
    if keep.size == 0:
        raise ValueError("cannot induce a subgraph on an empty node set")
    if keep.min() < 0 or keep.max() >= g.num_nodes:
        raise ValueError("subgraph node index out of range")
    sub = g.adjacency()[keep][:, keep].tocsr()
    sub.sort_indices()
    mapping = {int(old): new for new, old in enumerate(keep)}
    graph = Graph(sub.indptr, sub.indices, g.features[keep], g.labels[keep],
                  g.class_count, g.label_names)
    return graph, mapping
