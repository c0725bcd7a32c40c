#ifndef GDIM_STORE_GRAPH_STORE_H_
#define GDIM_STORE_GRAPH_STORE_H_

#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "graph/graph.h"

namespace gdim {

/// An immutable capture of the store's live graphs, taken by
/// GraphStore::Freeze() on the engine's writer thread and then read by a
/// background dimension refresh on any thread. graphs[i] is the graph with
/// external id ids[i]; ids are strictly ascending — the same order the
/// serving engines keep their physical rows in, so a generation built from
/// this capture lines up with the engines' id-ordered world row for row.
struct FrozenGraphSet {
  std::vector<int> ids;
  GraphDatabase graphs;

  bool empty() const { return ids.empty(); }
  size_t size() const { return ids.size(); }
};

/// The in-memory store of the *live graphs* behind a serving engine, keyed
/// by stable external id. The engines only keep fingerprints — a graph's
/// projection onto the currently selected dimension — which is exactly the
/// right thing for scanning and exactly the wrong thing for re-selecting
/// the dimension: once the corpus has churned, re-fingerprinting requires
/// the graphs themselves. The store is that missing ingredient.
///
/// It mirrors the engine's lifecycle verbatim: populated from the source
/// database at load and by every successful INSERT, marked by REMOVE, and
/// pruned by Compact (entries are append-only in between, so a remove is
/// O(log n) and never shifts memory a frozen capture was taken from).
/// Ids must be strictly ascending across the store's lifetime — the same
/// contract the engines enforce — which keeps entries sorted by id for
/// free.
///
/// Not thread-safe: the store belongs to the engine's single writer (the
/// BatchExecutor dispatcher), like the engines themselves — a contract
/// checked the same way: mutators and Freeze() REQUIRE writer_role().
/// Freeze() hands an independent copy to background readers.
class GraphStore {
 public:
  GraphStore() = default;

  /// The single-writer capability; see the class comment.
  ThreadRole& writer_role() const GDIM_RETURN_CAPABILITY(writer_role_) {
    return writer_role_;
  }

  /// Registers a live graph under id. Ids must be strictly ascending over
  /// the store's lifetime (InvalidArgument otherwise) — callers feed the
  /// engine-assigned external ids, which already are.
  Status Put(int id, Graph graph) GDIM_REQUIRES(writer_role_);

  /// Marks the graph with this id dead and releases the graph's own memory
  /// (no reader can reach a dead graph); NotFound if no live entry has it.
  /// The entry's slot is reclaimed by the next Compact().
  Status Remove(int id) GDIM_REQUIRES(writer_role_);

  /// Prunes dead entries; returns how many were reclaimed.
  int Compact() GDIM_REQUIRES(writer_role_);

  /// Live graphs currently in the store.
  int live_count() const { return live_; }
  /// Physical entries, including dead ones awaiting Compact().
  int total_entries() const { return static_cast<int>(entries_.size()); }

  /// The live graph with this id, or nullptr. The pointer is valid until
  /// the next Compact(); a Remove of this id empties the graph it shows.
  const Graph* FindLive(int id) const;

  /// External ids of the live graphs, ascending.
  std::vector<int> live_ids() const;

  /// Copies the live set out for a background reader. Graphs are small
  /// (the corpus this system serves is many small graphs, not one big
  /// one), so the pause is O(live graphs) with a tiny constant. The copy
  /// must be ordered against writers, hence REQUIRES.
  FrozenGraphSet Freeze() const GDIM_REQUIRES(writer_role_);

 private:
  struct Entry {
    int id = 0;
    Graph graph;
    bool dead = false;
  };

  /// Index into entries_ of the entry with this id (dead or live), or -1.
  int FindEntry(int id) const;

  std::vector<Entry> entries_;  ///< ascending id
  int live_ = 0;
  int last_id_ = -1;  ///< largest id ever Put; enforces ascending ids
  /// See writer_role(). mutable: acquiring a role is not a state change.
  mutable ThreadRole writer_role_;
};

}  // namespace gdim

#endif  // GDIM_STORE_GRAPH_STORE_H_
