//===- graph/MinCut.h - Stoer-Wagner global minimum cut --------*- C++ -*-===//
///
/// \file
/// The weighted global minimum-cut building block of the fusion algorithm
/// (Section III-A of the paper). The paper chooses the Stoer-Wagner
/// algorithm [14]: deterministic, O(|V||E| + |V|^2 log |V|), and defined for
/// undirected edge-weighted graphs, "which is also applicable to directed
/// graphs as in our case" -- directed edges are taken as undirected and
/// parallel edges have their weights summed.
///
/// Implementation. Kernel DAGs are sparse (the blocks fusion cuts average
/// about 22 vertices of mean degree 2.2), so the working graph is kept as
/// adjacency lists and merged groups as linked lists. Each phase's
/// maximum-adjacency search scans only the *frontier*, the unadded
/// vertices with positive attachment, taking the largest attachment and
/// the smallest id on ties; when the frontier is empty it takes the
/// smallest unadded vertex through a cursor that only moves forward. A
/// phase costs O(|V| + |E| + |V| * frontier), so a cut costs
/// O(|V|(|V| + |E|) + |V|^2 * frontier): O(|V|^3) in the worst case, as
/// with the dense matrix scan, but O(|V|^2) times the frontier's width on
/// kernel DAGs, whose frontiers stay narrow.
///
/// Exactness. The results are bit-identical to the dense O(|V|^3)
/// formulation (kept as the reference in tests/test_graph.cpp): every
/// vertex off the frontier has attachment +0.0, so the dense scan's pick
/// -- the first maximum in id order -- is the frontier's pick, or the
/// smallest unadded vertex when every attachment is zero. Each attachment
/// and each merged weight adds the same nonzero weights in the same order
/// as the dense scan, whose remaining terms add +0.0 to a non-negative sum
/// and change nothing. So the weight's bits and both sides of every
/// CutResult are the dense ones, and the first minimum phase still wins.
///
/// Precondition: weights are +0.0 or positive and not NaN (asserted). The
/// benefit model floors every edge weight at its epsilon.
///
//===----------------------------------------------------------------------===//

#ifndef KF_GRAPH_MINCUT_H
#define KF_GRAPH_MINCUT_H

#include "graph/Digraph.h"

#include <vector>

namespace kf {

/// Result of a global minimum cut: the two sides of the bipartition and the
/// total weight of the crossing edges. Sides are always non-empty.
struct CutResult {
  double Weight = 0.0;
  std::vector<unsigned> SideA;
  std::vector<unsigned> SideB;
};

/// Stoer-Wagner minimum cut of the dense symmetric weight matrix \p Weights
/// (Weights[i][j] is the undirected weight between i and j; the diagonal is
/// ignored). Requires at least two vertices. Sides hold vertex indices.
/// The matrix is read into adjacency lists of its nonzero entries; the
/// fusion path uses the Digraph overload, which never builds a matrix.
///
/// Tie-breaking is deterministic: the maximum-adjacency search starts from
/// vertex 0 and prefers the smallest vertex index, and the first
/// cut-of-the-phase achieving the minimum weight is kept -- matching the
/// paper's "the algorithm selects the first one encountered".
CutResult stoerWagnerMinCut(const std::vector<std::vector<double>> &Weights);

/// Minimum cut of the subgraph of \p G induced by \p Nodes, with sides as
/// node ids of \p G. Parallel and anti-parallel edge weights are summed in
/// edge-id order, the order buildUndirectedWeights uses, so the result
/// equals the matrix overload's on buildUndirectedWeights(G, Nodes).
CutResult stoerWagnerMinCut(const Digraph &G,
                            const std::vector<Digraph::NodeId> &Nodes);

/// Builds the dense symmetric weight matrix over \p Nodes, the input of
/// the brute-force cut and of the matrix overload. Exposed for testing.
std::vector<std::vector<double>>
buildUndirectedWeights(const Digraph &G,
                       const std::vector<Digraph::NodeId> &Nodes);

} // namespace kf

#endif // KF_GRAPH_MINCUT_H
