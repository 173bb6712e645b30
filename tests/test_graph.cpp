//===- tests/test_graph.cpp - Graph substrate tests ----------------------------===//
//
// Digraph invariants, topological sorting, connectivity, and -- most
// importantly -- the Stoer-Wagner minimum cut validated against the
// exhaustive oracle on randomized connected graphs (the property the
// fusion algorithm's splitting step relies on), and bit for bit against
// the dense O(V^3) formulation on every graph shape the fusion sees.
//
//===----------------------------------------------------------------------===//

#include "graph/BruteForceMinCut.h"
#include "graph/Digraph.h"
#include "graph/MinCut.h"
#include "graph/RandomGraphs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

using namespace kf;

namespace {

/// The dense O(V^3) Stoer-Wagner the library shipped before the sparse
/// frontier search, kept verbatim as the reference: every CutResult of the
/// library must equal this one exactly (weight bits and both sides).
CutResult
referenceStoerWagner(const std::vector<std::vector<double>> &Weights) {
  size_t N = Weights.size();
  assert(N >= 2 && "minimum cut needs at least two vertices");

  // Working copy of the weight matrix; vertices get merged in place.
  std::vector<std::vector<double>> W = Weights;
  // Groups[i] lists the original vertices merged into working vertex i.
  std::vector<std::vector<unsigned>> Groups(N);
  for (size_t I = 0; I != N; ++I)
    Groups[I] = {static_cast<unsigned>(I)};
  // Active working vertices, in a deterministic order.
  std::vector<unsigned> Active(N);
  for (size_t I = 0; I != N; ++I)
    Active[I] = static_cast<unsigned>(I);

  CutResult Best;
  bool HaveBest = false;

  while (Active.size() > 1) {
    // One minimum-cut phase: a maximum-adjacency search starting from the
    // first active vertex (the paper starts from kernel dx in its example).
    std::vector<unsigned> Order{Active.front()};
    std::vector<bool> Added(N, false);
    Added[Active.front()] = true;
    std::vector<double> Attach(N, 0.0);
    for (unsigned V : Active)
      if (V != Active.front())
        Attach[V] = W[Active.front()][V];

    while (Order.size() != Active.size()) {
      unsigned Next = ~0u;
      double BestAttach = -1.0;
      for (unsigned V : Active) {
        if (Added[V])
          continue;
        // Strict > keeps the smallest index on ties: deterministic.
        if (Attach[V] > BestAttach) {
          BestAttach = Attach[V];
          Next = V;
        }
      }
      Added[Next] = true;
      Order.push_back(Next);
      for (unsigned V : Active)
        if (!Added[V])
          Attach[V] += W[Next][V];
    }

    unsigned T = Order[Order.size() - 1];
    unsigned S = Order[Order.size() - 2];
    double PhaseCut = Attach[T];

    // "The first one encountered" wins on ties, hence strict less-than.
    if (!HaveBest || PhaseCut < Best.Weight) {
      HaveBest = true;
      Best.Weight = PhaseCut;
      Best.SideA = Groups[T];
    }

    // Merge T into S.
    for (unsigned V : Active) {
      if (V == S || V == T)
        continue;
      W[S][V] += W[T][V];
      W[V][S] = W[S][V];
    }
    Groups[S].insert(Groups[S].end(), Groups[T].begin(), Groups[T].end());
    Active.erase(std::find(Active.begin(), Active.end(), T));
  }

  // SideB is the complement of SideA over the original vertices.
  std::vector<bool> InA(N, false);
  for (unsigned V : Best.SideA)
    InA[V] = true;
  for (size_t I = 0; I != N; ++I)
    if (!InA[I])
      Best.SideB.push_back(static_cast<unsigned>(I));
  std::sort(Best.SideA.begin(), Best.SideA.end());
  assert(!Best.SideA.empty() && !Best.SideB.empty() &&
         "cut must produce two non-empty sides");
  return Best;
}

/// Exact CutResult equality: the weight's bit pattern and both sides.
::testing::AssertionResult sameCut(const CutResult &Got,
                                   const CutResult &Want) {
  if (std::bit_cast<uint64_t>(Got.Weight) !=
      std::bit_cast<uint64_t>(Want.Weight))
    return ::testing::AssertionFailure()
           << "weight " << Got.Weight << " vs reference " << Want.Weight;
  if (Got.SideA != Want.SideA || Got.SideB != Want.SideB)
    return ::testing::AssertionFailure()
           << "sides differ (|A| " << Got.SideA.size() << " vs reference "
           << Want.SideA.size() << ")";
  return ::testing::AssertionSuccess();
}

/// Graph shapes for the reference differential.
enum class CutShape { KernelDag, Dense, Disconnected, EqualWeights, Zeros };

/// A random digraph of \p N nodes in shape \p Shape. Every shape adds
/// some parallel and anti-parallel edges, whose weights the cut sums.
Digraph randomCutGraph(CutShape Shape, unsigned N, Rng &Gen) {
  Digraph G;
  for (unsigned V = 0; V != N; ++V)
    G.addNode("n" + std::to_string(V));
  auto Weight = [&]() -> double {
    switch (Shape) {
    case CutShape::EqualWeights:
      return 1.0;
    case CutShape::Zeros:
      return static_cast<double>(Gen.nextBelow(3)); // 0, 1 or 2.
    case CutShape::KernelDag:
      // The benefit model's epsilon floor recurs on most kernel DAGs.
      return Gen.nextBelow(3) == 0 ? 1e-3 : Gen.uniform(1.0, 500.0);
    default:
      return Gen.uniform(0.5, 100.0);
    }
  };
  auto Pick = [&]() { return static_cast<unsigned>(Gen.nextBelow(N)); };
  switch (Shape) {
  case CutShape::Dense:
    for (unsigned A = 0; A != N; ++A)
      for (unsigned B = A + 1; B != N; ++B)
        G.addEdge(A, B, Weight());
    break;
  case CutShape::Disconnected: {
    // Components are residue classes; some vertices stay isolated.
    unsigned Parts = 2 + static_cast<unsigned>(Gen.nextBelow(4));
    for (unsigned E = 0; E != 2 * N; ++E) {
      unsigned A = Pick(), B = Pick();
      if (A != B && A % Parts == B % Parts && A % 7 != 3 && B % 7 != 3)
        G.addEdge(std::min(A, B), std::max(A, B), Weight());
    }
    break;
  }
  default:
    // Layered DAG of mean degree about 2.3: a random earlier producer per
    // node plus a few extra forward edges.
    for (unsigned V = 1; V != N; ++V)
      G.addEdge(static_cast<unsigned>(Gen.nextBelow(V)), V, Weight());
    for (unsigned E = 0; E != N / 6 + 1; ++E) {
      unsigned A = Pick(), B = Pick();
      if (A != B)
        G.addEdge(std::min(A, B), std::max(A, B), Weight());
    }
    break;
  }
  // Parallel and anti-parallel duplicates of existing edges.
  unsigned Edges = G.numEdges();
  for (unsigned E = 0; Edges && E != 1 + N / 10; ++E) {
    Digraph::Edge Ed = G.edge(static_cast<unsigned>(Gen.nextBelow(Edges)));
    if (Gen.nextBelow(2))
      G.addEdge(Ed.To, Ed.From, Weight());
    else
      G.addEdge(Ed.From, Ed.To, Weight());
  }
  return G;
}

TEST(Digraph, BasicConstruction) {
  Digraph G;
  Digraph::NodeId A = G.addNode("a");
  Digraph::NodeId B = G.addNode("b");
  Digraph::EdgeId E = G.addEdge(A, B, 3.5);
  EXPECT_EQ(G.numNodes(), 2u);
  EXPECT_EQ(G.numEdges(), 1u);
  EXPECT_EQ(G.label(A), "a");
  EXPECT_DOUBLE_EQ(G.edge(E).Weight, 3.5);
  EXPECT_EQ(G.successors(A), std::vector<Digraph::NodeId>{B});
  EXPECT_EQ(G.predecessors(B), std::vector<Digraph::NodeId>{A});
  EXPECT_TRUE(G.successors(B).empty());
}

TEST(Digraph, FindNodeByLabel) {
  Digraph G;
  G.addNode("x");
  Digraph::NodeId Y = G.addNode("y");
  EXPECT_EQ(G.findNode("y"), Y);
  EXPECT_FALSE(G.findNode("z").has_value());
}

TEST(Digraph, TopologicalOrderIsDeterministicAndValid) {
  Digraph G;
  for (int I = 0; I != 5; ++I)
    G.addNode("n" + std::to_string(I));
  G.addEdge(0, 2);
  G.addEdge(1, 2);
  G.addEdge(2, 3);
  G.addEdge(2, 4);
  auto Order = G.topologicalOrder();
  ASSERT_TRUE(Order.has_value());
  // Kahn with smallest-id tie-break: 0 1 2 3 4.
  EXPECT_EQ(*Order, (std::vector<Digraph::NodeId>{0, 1, 2, 3, 4}));
}

TEST(Digraph, CycleDetection) {
  Digraph G;
  G.addNode("a");
  G.addNode("b");
  G.addEdge(0, 1);
  EXPECT_FALSE(G.hasCycle());
  G.addEdge(1, 0);
  EXPECT_TRUE(G.hasCycle());
  EXPECT_FALSE(G.topologicalOrder().has_value());
}

TEST(Digraph, WeakConnectivityIgnoresDirection) {
  Digraph G;
  for (int I = 0; I != 4; ++I)
    G.addNode("n" + std::to_string(I));
  G.addEdge(0, 1);
  G.addEdge(2, 1); // 2 connects against the flow.
  EXPECT_TRUE(G.isWeaklyConnected({0, 1, 2}));
  EXPECT_FALSE(G.isWeaklyConnected({0, 3}));
  EXPECT_TRUE(G.isWeaklyConnected({3}));
  EXPECT_FALSE(G.isWeaklyConnected({}));
}

TEST(Digraph, InternalEdgesAndBlockWeight) {
  Digraph G;
  for (int I = 0; I != 3; ++I)
    G.addNode("n" + std::to_string(I));
  G.addEdge(0, 1, 5.0);
  G.addEdge(1, 2, 7.0);
  EXPECT_EQ(G.internalEdges({0, 1}).size(), 1u);
  EXPECT_DOUBLE_EQ(G.blockWeight({0, 1}), 5.0);
  EXPECT_DOUBLE_EQ(G.blockWeight({0, 1, 2}), 12.0);
  EXPECT_DOUBLE_EQ(G.totalWeight(), 12.0);
}

TEST(StoerWagner, TwoVertexGraph) {
  std::vector<std::vector<double>> W = {{0, 4}, {4, 0}};
  CutResult Cut = stoerWagnerMinCut(W);
  EXPECT_DOUBLE_EQ(Cut.Weight, 4.0);
  EXPECT_EQ(Cut.SideA.size() + Cut.SideB.size(), 2u);
}

TEST(StoerWagner, DisconnectedGraphCutsForFree) {
  std::vector<std::vector<double>> W = {{0, 1, 0, 0},
                                        {1, 0, 0, 0},
                                        {0, 0, 0, 1},
                                        {0, 0, 1, 0}};
  CutResult Cut = stoerWagnerMinCut(W);
  EXPECT_DOUBLE_EQ(Cut.Weight, 0.0);
}

TEST(StoerWagner, KnownWheatstoneBridge) {
  // Classic example: path weights force the cut across the light edges.
  //   0 -2- 1
  //   |     |
  //   3     1
  //   |     |
  //   2 -2- 3
  std::vector<std::vector<double>> W(4, std::vector<double>(4, 0.0));
  W[0][1] = W[1][0] = 2.0;
  W[0][2] = W[2][0] = 3.0;
  W[1][3] = W[3][1] = 1.0;
  W[2][3] = W[3][2] = 2.0;
  CutResult Cut = stoerWagnerMinCut(W);
  EXPECT_DOUBLE_EQ(Cut.Weight, 3.0); // Isolate vertex 3: 1 + 2.
}

TEST(StoerWagner, MatchesBruteForceOnRandomGraphs) {
  // Property: on random connected graphs the Stoer-Wagner cut weight
  // equals the exhaustive minimum over all bipartitions.
  Rng Gen(2026);
  for (int Round = 0; Round != 60; ++Round) {
    unsigned N = 2 + static_cast<unsigned>(Gen.nextBelow(9));
    unsigned Extra = static_cast<unsigned>(Gen.nextBelow(2 * N));
    auto W = randomConnectedWeights(N, Extra, 1.0, 50.0, Gen);
    CutResult Fast = stoerWagnerMinCut(W);
    CutResult Oracle = bruteForceMinCut(W);
    EXPECT_NEAR(Fast.Weight, Oracle.Weight, 1e-9)
        << "round " << Round << ", n=" << N;
  }
}

TEST(StoerWagner, CutSidesPartitionTheVertices) {
  Rng Gen(7);
  auto W = randomConnectedWeights(12, 10, 1.0, 10.0, Gen);
  CutResult Cut = stoerWagnerMinCut(W);
  std::vector<bool> Seen(12, false);
  for (unsigned V : Cut.SideA)
    Seen[V] = true;
  for (unsigned V : Cut.SideB) {
    EXPECT_FALSE(Seen[V]) << "vertex on both sides";
    Seen[V] = true;
  }
  EXPECT_TRUE(std::all_of(Seen.begin(), Seen.end(),
                          [](bool B) { return B; }));
}

TEST(StoerWagner, ReportedWeightMatchesCrossingEdges) {
  Rng Gen(11);
  for (int Round = 0; Round != 20; ++Round) {
    auto W = randomConnectedWeights(8, 6, 1.0, 9.0, Gen);
    CutResult Cut = stoerWagnerMinCut(W);
    double Crossing = 0.0;
    for (unsigned A : Cut.SideA)
      for (unsigned B : Cut.SideB)
        Crossing += W[A][B];
    EXPECT_NEAR(Cut.Weight, Crossing, 1e-9);
  }
}

TEST(StoerWagner, DigraphOverloadSumsAntiparallelEdges) {
  Digraph G;
  for (int I = 0; I != 3; ++I)
    G.addNode("n" + std::to_string(I));
  G.addEdge(0, 1, 2.0);
  G.addEdge(1, 0, 3.0); // Anti-parallel: undirected weight 5.
  G.addEdge(1, 2, 1.0);
  CutResult Cut = stoerWagnerMinCut(G, {0, 1, 2});
  EXPECT_DOUBLE_EQ(Cut.Weight, 1.0); // Isolate node 2.
  // Sides are node ids of G.
  std::vector<unsigned> All = Cut.SideA;
  All.insert(All.end(), Cut.SideB.begin(), Cut.SideB.end());
  std::sort(All.begin(), All.end());
  EXPECT_EQ(All, (std::vector<unsigned>{0, 1, 2}));
}

TEST(StoerWagner, SubsetCutIgnoresOutsideEdges) {
  Digraph G;
  for (int I = 0; I != 4; ++I)
    G.addNode("n" + std::to_string(I));
  G.addEdge(0, 1, 10.0);
  G.addEdge(1, 2, 1.0);
  G.addEdge(2, 3, 10.0); // Outside the queried subset.
  CutResult Cut = stoerWagnerMinCut(G, {0, 1, 2});
  EXPECT_DOUBLE_EQ(Cut.Weight, 1.0);
}

TEST(StoerWagner, BitIdenticalToDenseReferenceOnEveryShape) {
  // Both overloads against the dense O(V^3) reference: the matrix one on
  // buildUndirectedWeights' matrix, the Digraph one on the same block
  // (sides mapped back to node ids). Every fourth graph queries a random
  // subset of its nodes in shuffled order, as Algorithm 1's sub-blocks do.
  Rng Gen(4242);
  const CutShape Shapes[] = {CutShape::KernelDag, CutShape::Dense,
                             CutShape::Disconnected, CutShape::EqualWeights,
                             CutShape::Zeros};
  unsigned Graphs = 0;
  for (int Round = 0; Round != 420; ++Round)
    for (CutShape Shape : Shapes) {
      // Mostly block-sized graphs; every tenth spans the full 2-130.
      unsigned N = 2 + static_cast<unsigned>(
                           Gen.nextBelow(Round % 10 == 0 ? 129 : 48));
      Digraph G = randomCutGraph(Shape, N, Gen);
      std::vector<Digraph::NodeId> Nodes;
      for (unsigned V = 0; V != N; ++V)
        if (Round % 4 != 3 || Gen.nextBelow(3) != 0)
          Nodes.push_back(V);
      if (Nodes.size() < 2)
        Nodes = {0, N - 1};
      if (Round % 4 == 3)
        for (size_t I = Nodes.size() - 1; I > 0; --I)
          std::swap(Nodes[I], Nodes[Gen.nextBelow(I + 1)]);

      std::vector<std::vector<double>> W = buildUndirectedWeights(G, Nodes);
      CutResult Want = referenceStoerWagner(W);
      ASSERT_TRUE(sameCut(stoerWagnerMinCut(W), Want))
          << "matrix overload, shape " << static_cast<int>(Shape)
          << ", n=" << Nodes.size() << ", round " << Round;

      CutResult WantIds;
      WantIds.Weight = Want.Weight;
      for (unsigned I : Want.SideA)
        WantIds.SideA.push_back(Nodes[I]);
      for (unsigned I : Want.SideB)
        WantIds.SideB.push_back(Nodes[I]);
      ASSERT_TRUE(sameCut(stoerWagnerMinCut(G, Nodes), WantIds))
          << "Digraph overload, shape " << static_cast<int>(Shape)
          << ", n=" << Nodes.size() << ", round " << Round;
      ++Graphs;
    }
  EXPECT_GE(Graphs, 2000u);
}

TEST(StoerWagner, DenseMatrixOverloadMatchesReferenceOnRandomMatrices) {
  // randomConnectedWeights matrices, including all-tied integer weights.
  Rng Gen(77);
  for (int Round = 0; Round != 200; ++Round) {
    unsigned N = 2 + static_cast<unsigned>(Gen.nextBelow(60));
    unsigned Extra = static_cast<unsigned>(Gen.nextBelow(3 * N));
    auto W = Round % 2 ? randomConnectedWeights(N, Extra, 1.0, 50.0, Gen)
                       : randomConnectedWeights(N, Extra, 1.0, 1.0, Gen);
    ASSERT_TRUE(sameCut(stoerWagnerMinCut(W), referenceStoerWagner(W)))
        << "round " << Round << ", n=" << N;
  }
}

TEST(BruteForce, FourVertexExact) {
  std::vector<std::vector<double>> W(4, std::vector<double>(4, 0.0));
  W[0][1] = W[1][0] = 1.0;
  W[1][2] = W[2][1] = 1.0;
  W[2][3] = W[3][2] = 1.0;
  W[3][0] = W[0][3] = 1.0;
  CutResult Cut = bruteForceMinCut(W);
  EXPECT_DOUBLE_EQ(Cut.Weight, 2.0); // Any cut of the 4-cycle crosses 2.
}

TEST(RandomGraphs, DagIsAcyclicAndConnected) {
  Rng Gen(77);
  for (int Round = 0; Round != 10; ++Round) {
    Digraph G = randomDag(15, 0.1, Gen);
    EXPECT_FALSE(G.hasCycle());
    std::vector<Digraph::NodeId> All;
    for (Digraph::NodeId N = 0; N != G.numNodes(); ++N)
      All.push_back(N);
    EXPECT_TRUE(G.isWeaklyConnected(All));
  }
}

TEST(RandomGraphs, WeightsMatrixIsSymmetric) {
  Rng Gen(3);
  auto W = randomConnectedWeights(10, 8, 1.0, 5.0, Gen);
  for (size_t I = 0; I != W.size(); ++I)
    for (size_t J = 0; J != W.size(); ++J)
      EXPECT_DOUBLE_EQ(W[I][J], W[J][I]);
}

} // namespace
