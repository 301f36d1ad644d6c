#include "graph/labeled_graph.hpp"

#include <algorithm>

namespace bdsm {

VertexId LabeledGraph::AddVertex(Label label) {
  vlabels_.push_back(label);
  adj_.emplace_back();
  return static_cast<VertexId>(vlabels_.size() - 1);
}

size_t LabeledGraph::FindSlot(VertexId u, VertexId v) const {
  const auto& list = adj_[u];
  auto it = std::lower_bound(
      list.begin(), list.end(), v,
      [](const Neighbor& n, VertexId x) { return n.v < x; });
  if (it != list.end() && it->v == v) {
    return static_cast<size_t>(it - list.begin());
  }
  return list.size();
}

bool LabeledGraph::InsertEdge(VertexId u, VertexId v, Label elabel) {
  if (u == v || u >= NumVertices() || v >= NumVertices()) return false;
  if (HasEdge(u, v)) return false;
  auto insert_into = [&](VertexId a, VertexId b) {
    auto& list = adj_[a];
    auto it = std::lower_bound(
        list.begin(), list.end(), b,
        [](const Neighbor& n, VertexId x) { return n.v < x; });
    list.insert(it, Neighbor{b, elabel});
  };
  insert_into(u, v);
  insert_into(v, u);
  ++num_edges_;
  return true;
}

bool LabeledGraph::RemoveEdge(VertexId u, VertexId v) {
  if (u >= NumVertices() || v >= NumVertices()) return false;
  size_t su = FindSlot(u, v);
  if (su == adj_[u].size()) return false;
  size_t sv = FindSlot(v, u);
  GAMMA_CHECK(sv != adj_[v].size());
  adj_[u].erase(adj_[u].begin() + static_cast<ptrdiff_t>(su));
  adj_[v].erase(adj_[v].begin() + static_cast<ptrdiff_t>(sv));
  --num_edges_;
  return true;
}

bool LabeledGraph::FindEdge(VertexId u, VertexId v, Label* elabel) const {
  if (u >= NumVertices() || v >= NumVertices()) return false;
  // Search the shorter list; both directions carry the same label.
  VertexId a = u, b = v;
  if (adj_[a].size() > adj_[b].size()) std::swap(a, b);
  size_t s = FindSlot(a, b);
  if (s == adj_[a].size()) return false;
  *elabel = adj_[a][s].elabel;
  return true;
}

bool LabeledGraph::HasEdge(VertexId u, VertexId v) const {
  Label unused;
  return FindEdge(u, v, &unused);
}

Label LabeledGraph::EdgeLabel(VertexId u, VertexId v) const {
  Label el = kNoLabel;
  FindEdge(u, v, &el);
  return el;
}

size_t LabeledGraph::CountNeighborsWithLabel(VertexId v, Label l) const {
  size_t n = 0;
  for (const Neighbor& nb : adj_[v]) {
    if (vlabels_[nb.v] == l) ++n;
  }
  return n;
}

size_t LabeledGraph::VertexLabelAlphabet() const {
  Label mx = 0;
  bool any = false;
  for (Label l : vlabels_) {
    if (l != kNoLabel) {
      mx = std::max(mx, l);
      any = true;
    }
  }
  return any ? static_cast<size_t>(mx) + 1 : 0;
}

size_t LabeledGraph::EdgeLabelAlphabet() const {
  Label mx = 0;
  bool any = false;
  for (VertexId v = 0; v < NumVertices(); ++v) {
    for (const Neighbor& nb : adj_[v]) {
      if (nb.elabel != kNoLabel) {
        mx = std::max(mx, nb.elabel);
        any = true;
      }
    }
  }
  return any ? static_cast<size_t>(mx) + 1 : 0;
}

std::vector<Edge> LabeledGraph::CollectEdges() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges_);
  for (VertexId v = 0; v < NumVertices(); ++v) {
    for (const Neighbor& nb : adj_[v]) {
      if (v < nb.v) edges.emplace_back(v, nb.v);
    }
  }
  return edges;
}

}  // namespace bdsm
