//===- graph/MinCut.cpp ---------------------------------------------------===//

#include "graph/MinCut.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

using namespace kf;

std::vector<std::vector<double>>
kf::buildUndirectedWeights(const Digraph &G,
                           const std::vector<Digraph::NodeId> &Nodes) {
  size_t N = Nodes.size();
  std::vector<unsigned> Position(G.numNodes(), ~0u);
  for (size_t I = 0; I != N; ++I)
    Position[Nodes[I]] = static_cast<unsigned>(I);

  std::vector<std::vector<double>> W(N, std::vector<double>(N, 0.0));
  for (Digraph::EdgeId E : G.internalEdges(Nodes)) {
    const Digraph::Edge &Ed = G.edge(E);
    unsigned A = Position[Ed.From];
    unsigned B = Position[Ed.To];
    if (A == B)
      continue; // Ignore self loops; they never cross a cut.
    W[A][B] += Ed.Weight;
    W[B][A] += Ed.Weight;
  }
  return W;
}

namespace {

/// One undirected neighbour of a working vertex. Each vertex lists a
/// neighbour at most once, and both endpoints carry the same weight.
struct Arc {
  unsigned To;
  double Weight;
};

using Adjacency = std::vector<std::vector<Arc>>;

/// Adds \p Weight to the undirected pair {A, B}, creating its arcs on the
/// first edge. Pairs start at +0.0, as the dense matrix's entries do.
void addPairWeight(Adjacency &Adj, unsigned A, unsigned B, double Weight) {
  auto It = std::find_if(Adj[A].begin(), Adj[A].end(),
                         [B](const Arc &X) { return X.To == B; });
  if (It == Adj[A].end()) {
    Adj[A].push_back(Arc{B, 0.0});
    Adj[B].push_back(Arc{A, 0.0});
    It = Adj[A].end() - 1;
  }
  It->Weight += Weight;
  for (Arc &X : Adj[B])
    if (X.To == A)
      X.Weight = It->Weight;
}

/// Stoer-Wagner over the adjacency lists \p Adj of vertices 0..N-1; see
/// the file comment of graph/MinCut.h for why every pick and every sum
/// equals the dense formulation's.
CutResult sparseStoerWagner(Adjacency Adj) {
  unsigned N = static_cast<unsigned>(Adj.size());
  assert(N >= 2 && "minimum cut needs at least two vertices");

  // Groups: the original vertices merged into working vertex V are the
  // list V, GroupNext[V], ... ending at GroupTail[V].
  std::vector<unsigned> GroupNext(N, ~0u);
  std::vector<unsigned> GroupTail(N);
  std::iota(GroupTail.begin(), GroupTail.end(), 0u);
  // Active working vertices, ascending.
  std::vector<unsigned> Active(N);
  std::iota(Active.begin(), Active.end(), 0u);

  std::vector<double> Attach(N, 0.0);
  std::vector<char> Added(N, 0);
  std::vector<unsigned> Frontier; // Unadded vertices with Attach > 0.
  std::vector<unsigned> Slot(N, ~0u);

  CutResult Best;
  bool HaveBest = false;

  while (Active.size() > 1) {
    // One minimum-cut phase: a maximum-adjacency search. The first pick
    // is the smallest active vertex (the frontier starts empty).
    for (unsigned V : Active) {
      Attach[V] = 0.0;
      Added[V] = 0;
    }
    Frontier.clear();
    size_t Cursor = 0;
    unsigned S = ~0u, T = ~0u;
    for (size_t Step = 0; Step != Active.size(); ++Step) {
      unsigned Next;
      if (Frontier.empty()) {
        // Every unadded vertex has zero attachment: the smallest wins.
        while (Added[Active[Cursor]])
          ++Cursor;
        Next = Active[Cursor];
      } else {
        // Largest attachment, smallest id on ties.
        size_t Pos = 0;
        for (size_t I = 1; I != Frontier.size(); ++I) {
          unsigned V = Frontier[I], B = Frontier[Pos];
          if (Attach[V] > Attach[B] || (Attach[V] == Attach[B] && V < B))
            Pos = I;
        }
        Next = Frontier[Pos];
        Frontier[Pos] = Frontier.back();
        Frontier.pop_back();
      }
      Added[Next] = 1;
      S = T;
      T = Next;
      for (const Arc &X : Adj[Next]) {
        if (Added[X.To])
          continue;
        double Old = Attach[X.To];
        Attach[X.To] = Old + X.Weight;
        if (Old == 0.0 && Attach[X.To] > 0.0)
          Frontier.push_back(X.To);
      }
    }

    // "The first one encountered" wins on ties, hence strict less-than.
    double PhaseCut = Attach[T];
    if (!HaveBest || PhaseCut < Best.Weight) {
      HaveBest = true;
      Best.Weight = PhaseCut;
      Best.SideA.clear();
      for (unsigned V = T; V != ~0u; V = GroupNext[V])
        Best.SideA.push_back(V);
    }

    // Merge T into S: S's arc to each neighbour V of T gains T's weight
    // (V's arc to S mirrors it), and V's arc to T goes.
    for (size_t I = 0; I != Adj[S].size(); ++I)
      Slot[Adj[S][I].To] = static_cast<unsigned>(I);
    for (const Arc &X : Adj[T]) {
      unsigned V = X.To;
      if (V == S)
        continue;
      std::vector<Arc> &Back = Adj[V];
      if (Slot[V] == ~0u) {
        Slot[V] = static_cast<unsigned>(Adj[S].size());
        Adj[S].push_back(X);
        for (Arc &Y : Back)
          if (Y.To == T)
            Y.To = S;
        continue;
      }
      double Merged = Adj[S][Slot[V]].Weight += X.Weight;
      for (Arc &Y : Back)
        if (Y.To == S)
          Y.Weight = Merged;
      Back.erase(std::find_if(Back.begin(), Back.end(),
                              [T](const Arc &Y) { return Y.To == T; }));
    }
    for (const Arc &X : Adj[S])
      Slot[X.To] = ~0u;
    auto ToT = std::find_if(Adj[S].begin(), Adj[S].end(),
                            [T](const Arc &X) { return X.To == T; });
    if (ToT != Adj[S].end())
      Adj[S].erase(ToT);
    Adj[T].clear();
    GroupNext[GroupTail[S]] = T;
    GroupTail[S] = GroupTail[T];
    Active.erase(std::find(Active.begin(), Active.end(), T));
  }

  // SideB is the complement of SideA over the original vertices.
  std::vector<bool> InA(N, false);
  for (unsigned V : Best.SideA)
    InA[V] = true;
  for (unsigned I = 0; I != N; ++I)
    if (!InA[I])
      Best.SideB.push_back(I);
  std::sort(Best.SideA.begin(), Best.SideA.end());
  assert(!Best.SideA.empty() && !Best.SideB.empty() &&
         "cut must produce two non-empty sides");
  return Best;
}

} // namespace

CutResult
kf::stoerWagnerMinCut(const std::vector<std::vector<double>> &Weights) {
  size_t N = Weights.size();
  Adjacency Adj(N);
  for (size_t I = 0; I != N; ++I)
    for (size_t J = 0; J != N; ++J) {
      if (I == J)
        continue; // The diagonal never crosses a cut.
      double W = Weights[I][J];
      assert(W >= 0.0 && !std::signbit(W) && W == Weights[J][I] &&
             "weights must be symmetric, +0.0 or positive");
      if (W != 0.0) // A zero entry adds nothing to any sum.
        Adj[I].push_back(Arc{static_cast<unsigned>(J), W});
    }
  return sparseStoerWagner(std::move(Adj));
}

CutResult kf::stoerWagnerMinCut(const Digraph &G,
                                const std::vector<Digraph::NodeId> &Nodes) {
  std::vector<unsigned> Position(G.numNodes(), ~0u);
  for (size_t I = 0; I != Nodes.size(); ++I)
    Position[Nodes[I]] = static_cast<unsigned>(I);

  // Internal edges in edge-id order: each pair's weight is summed in
  // buildUndirectedWeights' order, so it is the same double.
  Adjacency Adj(Nodes.size());
  for (Digraph::EdgeId E : G.internalEdges(Nodes)) {
    const Digraph::Edge &Ed = G.edge(E);
    assert(Ed.Weight >= 0.0 && "minimum cut needs non-negative weights");
    unsigned A = Position[Ed.From];
    unsigned B = Position[Ed.To];
    if (A != B) // Self loops never cross a cut.
      addPairWeight(Adj, A, B, Ed.Weight);
  }

  CutResult Local = sparseStoerWagner(std::move(Adj));
  CutResult Result;
  Result.Weight = Local.Weight;
  for (unsigned I : Local.SideA)
    Result.SideA.push_back(Nodes[I]);
  for (unsigned I : Local.SideB)
    Result.SideB.push_back(Nodes[I]);
  return Result;
}
