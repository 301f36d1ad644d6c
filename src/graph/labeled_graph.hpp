/// \file labeled_graph.hpp
/// Host-side dynamic undirected labeled graph (the "data graph" G).
///
/// This is the CPU-resident master copy of the data graph.  The GPU-side
/// copy lives in a GPMA (src/gpma); both are kept in sync by the update
/// pipeline.  Adjacency lists are maintained sorted by neighbor id so
/// that candidate-set intersection can use merge/binary-search, exactly
/// like the device kernels do.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "util/common.hpp"

namespace bdsm {

/// One adjacency entry: the neighbor and the label of the connecting edge
/// (kNoLabel when the dataset has unlabeled edges, e.g. GH/ST/AZ/LJ).
struct Neighbor {
  VertexId v;
  Label elabel;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

class LabeledGraph {
 public:
  LabeledGraph() = default;

  /// Creates a graph with `n` vertices and the given vertex labels.
  explicit LabeledGraph(std::vector<Label> vertex_labels)
      : vlabels_(std::move(vertex_labels)), adj_(vlabels_.size()) {}

  size_t NumVertices() const { return vlabels_.size(); }
  size_t NumEdges() const { return num_edges_; }

  Label VertexLabel(VertexId v) const { return vlabels_[v]; }
  const std::vector<Label>& vertex_labels() const { return vlabels_; }

  size_t Degree(VertexId v) const { return adj_[v].size(); }

  /// Sorted (by neighbor id) adjacency list of v.
  std::span<const Neighbor> Neighbors(VertexId v) const {
    return {adj_[v].data(), adj_[v].size()};
  }

  /// Appends a new isolated vertex; returns its id.
  VertexId AddVertex(Label label);

  /// Relabels an existing vertex (used by CaLiG's transformed graph to
  /// recycle orphaned edge-vertices).
  void SetVertexLabel(VertexId v, Label label) { vlabels_[v] = label; }

  /// Inserts undirected edge (u, v) with the given edge label.
  /// Returns false (and leaves the graph unchanged) if the edge already
  /// exists or u == v; BDSM batches are sanitized against such conflicts.
  bool InsertEdge(VertexId u, VertexId v, Label elabel = kNoLabel);

  /// Removes undirected edge (u, v).  Returns false if absent.
  bool RemoveEdge(VertexId u, VertexId v);

  bool HasEdge(VertexId u, VertexId v) const;

  /// Existence test that also yields the stored label (one search of the
  /// shorter adjacency list; *elabel is untouched when absent).
  bool FindEdge(VertexId u, VertexId v, Label* elabel) const;

  /// Label of edge (u, v); kNoLabel if the edge is absent.
  Label EdgeLabel(VertexId u, VertexId v) const;

  /// Number of neighbors of v whose *vertex* label is `l`
  /// (the |N^l(v)| of the paper's preprocessing).  O(deg(v)).
  size_t CountNeighborsWithLabel(VertexId v, Label l) const;

  /// Number of distinct vertex labels present (max label + 1).
  size_t VertexLabelAlphabet() const;
  /// Number of distinct edge labels present (max label + 1); 0 when all
  /// edges are unlabeled.
  size_t EdgeLabelAlphabet() const;

  double AverageDegree() const {
    return NumVertices() == 0
               ? 0.0
               : 2.0 * static_cast<double>(num_edges_) /
                     static_cast<double>(NumVertices());
  }

  /// All edges, canonicalized (u < v).  O(|E|); used by tests & oracles.
  std::vector<Edge> CollectEdges() const;

  /// Structural equality: same vertex labels and identical (sorted)
  /// adjacency, edge labels included.  Two graphs that evolved through
  /// different but equivalent update orders compare equal — the
  /// invariant the persistence layer's replica serialization round-trip
  /// (persist/snapshot.hpp) is verified against.
  friend bool operator==(const LabeledGraph&, const LabeledGraph&) = default;

 private:
  // Finds the position of v in adj_[u]; adj_[u].size() if absent.
  size_t FindSlot(VertexId u, VertexId v) const;

  std::vector<Label> vlabels_;
  std::vector<std::vector<Neighbor>> adj_;
  size_t num_edges_ = 0;
};

}  // namespace bdsm
