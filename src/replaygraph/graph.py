"""Sparse graph container, symmetric adjacency normalization, and feature propagation.

The classifier for graph tasks is linear over K-step propagated features
``S^K X`` with ``S = D^{-1/2} (A + I) D^{-1/2}``, so all graph structure is
consumed up front by the functions in this module. Node features ``X`` and
``S^K X`` are both sparse CSR matrices: :func:`propagated_rows` builds the
hop chain, and :func:`propagate` multiplies it out for the caller to densify
the rows it needs (``replay.prepare_task_data``). Rows that only meet a thin
dense matrix (a classifier head) are never made: the chain's ``@ W``
multiplies in the other order, ``S^K (X W)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # scipy.sparse is slow to import; only graph runs need it
    import scipy.sparse as sp


class GraphFormatError(ValueError):
    """Raised when graph arrays violate the adjacency/label contracts."""


@dataclass(frozen=True)
class Graph:
    """Undirected attributed graph with integer class labels.

    ``adjacency`` is the unweighted symmetric (n, n) adjacency, stored as a
    float64 scipy CSR matrix in canonical form (sorted indices, no
    duplicates) whose stored entries are all 1; an edge between two nodes is
    stored twice. ``features`` is given dense or sparse and always stored as
    an (n, d) float64 scipy CSR matrix (see :func:`_feature_matrix`).
    ``labels`` holds global class ids in ``[0, class_count)``.
    """

    adjacency: sp.csr_matrix
    features: sp.csr_matrix
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        import scipy.sparse as sp
        # copies, so no later write to the caller's arrays reaches the checked
        # graph and canonicalizing leaves the caller's adjacency as it was
        adjacency = sp.csr_matrix(self.adjacency, dtype=np.float64, copy=True)
        adjacency.sum_duplicates()
        features = _feature_matrix(self.features, copy=True)
        labels = np.array(self.labels, dtype=np.int64)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

        n = features.shape[0]
        if adjacency.shape != (n, n):
            raise GraphFormatError(f"adjacency must be square with side num_nodes = {n}, "
                                   f"got shape {adjacency.shape}")
        if np.any(adjacency.data != 1.0):
            raise GraphFormatError("adjacency entries must all be 1 (unweighted)")
        if labels.shape != (n,):
            raise GraphFormatError(f"labels must have length num_nodes = {n}")
        if self.class_count <= 0:
            raise GraphFormatError("class_count must be positive")
        if n and (labels.min() < 0 or labels.max() >= self.class_count):
            raise GraphFormatError("label outside [0, class_count)")
        if (adjacency != adjacency.T).nnz != 0:
            raise GraphFormatError("adjacency must be symmetric")

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def _feature_matrix(x, copy: bool = False) -> sp.csr_matrix:
    """Return a feature matrix, dense or sparse, as (n, d) float64 CSR; the
    result shares the arrays of a float64 CSR input unless ``copy``.

    A dense input keeps every entry that is not ``+0.0``, so a ``-0.0`` is
    stored too. (``.toarray()`` adds stored entries onto ``+0.0`` and reads
    it back as ``+0.0``, as any propagation hop would.)
    """
    import scipy.sparse as sp
    if sp.issparse(x):
        return sp.csr_matrix(x, dtype=np.float64, copy=copy)
    dense = np.asarray(x, dtype=np.float64)
    if dense.ndim != 2:
        raise GraphFormatError(f"features must be 2-D, got shape {dense.shape}")
    rows, cols = np.nonzero((dense != 0) | np.signbit(dense))
    return sp.csr_matrix((dense[rows, cols], (rows, cols)), shape=dense.shape)


def graph_from_edges(num_nodes: int, edges, features, labels, class_count: int) -> Graph:
    """Build a Graph from undirected (u, v) pairs: an iterable of pairs or
    an (m, 2) integer array.

    Edges are symmetrized and deduplicated; self loops are dropped (the
    normalization step adds its own).
    """
    import scipy.sparse as sp
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphFormatError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= num_nodes):
        raise GraphFormatError(f"neighbor index outside [0, num_nodes = {num_nodes})")
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    adj = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(num_nodes, num_nodes))
    adj.data[:] = 1.0  # converting to CSR summed each repeated edge into one entry
    return Graph(adj, features, labels, class_count)


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Symmetrically normalized adjacency with self loops, entries 1/sqrt(deg(u)deg(v))."""

    matrix: sp.csr_matrix


@dataclass(frozen=True)
class PropagatedFeatures:
    """Node representations S^K X as float64 CSR with no duplicate entries;
    as the last hop's product leaves them, a row's column indices may be
    unsorted."""

    values: sp.csr_matrix


def normalize_adjacency(g: Graph) -> NormalizedAdjacency:
    """Return D^{-1/2} (A + I) D^{-1/2} in CSR form.

    Self loops guarantee every degree is positive, so no special casing of
    isolated nodes is needed.
    """
    import scipy.sparse as sp
    s = (g.adjacency + sp.eye(g.num_nodes, format="csr")).tocsr()
    inv_sqrt = 1.0 / np.sqrt(np.asarray(s.sum(axis=1)).ravel())
    # Each stored entry times its row's, then its column's 1/sqrt(deg): the
    # one product per factor that D @ (A + I) @ D makes, so the same bits.
    s.data *= np.repeat(inv_sqrt, np.diff(s.indptr))
    s.data *= inv_sqrt[s.indices]
    s.sort_indices()
    return NormalizedAdjacency(s)


def propagate(s: NormalizedAdjacency, x, k: int, rows=None) -> PropagatedFeatures:
    """Compute S^k X as CSR, or with ``rows`` (node indices) only those rows
    of it, in that order: the chain :func:`propagated_rows` builds,
    multiplied out onto its ``x``. The result shares no array with ``x``.
    """
    chain = propagated_rows(s, x, k, rows)
    out = chain.x
    for hop in chain.hops:
        out = hop @ out
    if k == 0 and rows is None:  # no product or gather made a new matrix
        out = out.copy()
    return PropagatedFeatures(out)


@dataclass(frozen=True)
class PropagatedRows:
    """Rows of ``S^k X`` as their hop chain (:func:`propagated_rows`).

    Multiplied out onto ``x`` (:func:`propagate`), each entry sums its
    products in the order a sparse-dense multiply would, and missing entries
    would only add ``+0.0``, so ``.toarray()`` has the bytes of ``(S @ ... @
    S @ dense_x)[rows]``. ``self @ w`` is ``S^k (X w)`` instead: k sparse ×
    thin-dense products for a thin ``w`` (a classifier's head), APPNP's
    predict-then-propagate order (Klicpera et al. 2019), whose sums agree
    with those of ``(S^k X)[rows] @ w`` to rounding, not bit for bit."""

    x: sp.csr_matrix
    hops: tuple  # (S,) * (k - 1) + (S[rows],); none at k = 0, where x is X[rows]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.hops[-1] if self.hops else self.x).shape[0], self.x.shape[1]

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        out = self.x @ w
        for hop in self.hops:
            out = hop @ out
        return out


def propagated_rows(s: NormalizedAdjacency, x, k: int, rows=None) -> PropagatedRows:
    """Rows ``rows`` (node indices; every node when None) of ``S^k X``, in
    that order, as the hop chain :class:`PropagatedRows`. ``x`` may be dense
    or sparse; it is taken as CSR (:func:`_feature_matrix`), so the chain
    holds ``x`` itself when it is float64 CSR, unless ``k`` = 0 gathers rows."""
    if k < 0:
        raise ValueError("propagation depth must be >= 0")
    x = _feature_matrix(x)
    if x.shape[0] != s.matrix.shape[0]:
        raise ValueError(f"feature matrix has shape {x.shape}, "
                         f"expected ({s.matrix.shape[0]}, feature_dim)")
    if k == 0:
        return PropagatedRows(x if rows is None else x[rows], ())
    last = s.matrix if rows is None else s.matrix[rows]
    return PropagatedRows(x, (s.matrix,) * (k - 1) + (last,))


def induced_subgraph(g: Graph, nodes) -> Graph:
    """Subgraph on the given node set.

    Nodes are renumbered 0..len(nodes)-1 in ascending order of their ids in
    ``g``, so node ``u`` of ``g`` is ``np.searchsorted(np.unique(nodes), u)``
    in the subgraph. Labels keep their global class ids and class_count is
    unchanged.

    The parts are not checked again: the principal submatrix of a checked
    adjacency on sorted distinct nodes is itself symmetric, all ones and
    canonical, the rows of a float64 CSR feature matrix are one too, and a
    subset of in-range labels stays in range.
    """
    keep = np.unique(np.asarray(nodes if isinstance(nodes, np.ndarray) else list(nodes),
                                dtype=np.int64))
    if keep.size == 0:
        raise ValueError("cannot induce a subgraph on an empty node set")
    if keep.min() < 0 or keep.max() >= g.num_nodes:
        raise ValueError("subgraph node index out of range")
    sub = object.__new__(Graph)  # Graph(...) would run __post_init__'s checks
    sub.__dict__.update(adjacency=g.adjacency[keep][:, keep], features=g.features[keep],
                        labels=g.labels[keep], class_count=g.class_count)
    return sub
