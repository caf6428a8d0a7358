// Cross-file lock-acquisition-order analysis for af_lint v2 (DESIGN.md §6.1).
//
// The analyzer scans the semantic model (model.h) for af::Mutex members,
// AF_GUARDED_BY / AF_REQUIRES(/AF_EXCLUSIVE_LOCKS_REQUIRED) annotations and
// MutexLock / UniqueLock / .lock() acquisition sites, then walks every
// function body with a held-lock set:
//
//   * a direct acquisition while holding H adds edges h -> acquired for all
//     h in H (RAII scopes end at their closing brace; explicit
//     lockvar.unlock()/.lock() pairs are tracked);
//   * a call while holding H adds edges h -> a for every mutex a the callee
//     transitively acquires (call summaries are closed over a fixpoint, so
//     a pipeline method holding its mutex while calling a lock table's
//     method yields the pipeline-mutex -> shard-mutex edge even though the
//     shard lock lives two files away);
//   * AF_REQUIRES / AF_EXCLUSIVE_LOCKS_REQUIRED capabilities are *held at
//     entry*, not acquired, so annotated helpers contribute edges from the
//     required mutex without ever being acquisition sites themselves.
//
// The resulting graph fails the lint on
//   * any cycle (including self-edges: re-acquiring a held non-reentrant
//     mutex is an instant deadlock), and
//   * any edge that lands on the same or an earlier level of the documented
//     hierarchy (a pipeline mutex is always acquired before any range-lock
//     shard mutex).
//
// Names in the hierarchy are qualified-name suffixes ("SsdPipeline::mu_"
// matches "af::sim::SsdPipeline::mu_"), so fixtures can model the same
// shapes under test namespaces.
#pragma once

#include <string>
#include <vector>

#include "lint.h"
#include "model.h"

namespace af::lint::lockorder {

struct Edge {
  std::string from;  // qualified mutex id, e.g. "af::sim::SsdPipeline::mu_"
  std::string to;
  std::string file;  // acquisition / call site
  int line = 0;
  std::string via;  // "Class::function" the edge was observed in
};

struct MutexDecl {
  std::string id;  // qualified "Class::member"
  std::string file;
  int line = 0;
};

struct Graph {
  std::vector<MutexDecl> mutexes;
  std::vector<Edge> edges;  // deduplicated on (from, to), first site kept
};

struct Hierarchy {
  /// levels[i] must be acquired before levels[j] for i < j; mutexes in the
  /// same level must never nest. Entries are qualified-name suffixes.
  std::vector<std::vector<std::string>> levels;
};

/// The project's documented order: SsdPipeline::mu_ before the range-lock
/// table's order/shard mutexes. The single-threaded scheduler holds neither
/// today; the levels keep the order for any locked pipeline and the fixture
/// tests model it. ThreadPool::mu_ is a leaf taken on its own and is
/// deliberately outside the hierarchy (cycle detection still covers it).
[[nodiscard]] Hierarchy default_hierarchy();

[[nodiscard]] Graph build_graph(const Model& model);

/// Cycle + hierarchy findings; rule name "lock-order".
[[nodiscard]] std::vector<Finding> check(const Graph& graph,
                                         const Hierarchy& hierarchy);

/// Convenience: model + graph + check in one call.
[[nodiscard]] std::vector<Finding> analyze(
    const std::vector<SourceFile>& files, const Hierarchy& hierarchy);

}  // namespace af::lint::lockorder
