#include "store/graph_store.h"

#include <algorithm>
#include <string>
#include <utility>

namespace gdim {

Status GraphStore::Put(int id, Graph graph) {
  if (id <= last_id_) {
    return Status::InvalidArgument(
        "store ids must be strictly ascending: got " + std::to_string(id) +
        " after " + std::to_string(last_id_));
  }
  entries_.push_back(Entry{id, std::move(graph), false});
  last_id_ = id;
  ++live_;
  return Status::OK();
}

int GraphStore::FindEntry(int id) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, int target) { return e.id < target; });
  if (it == entries_.end() || it->id != id) return -1;
  return static_cast<int>(it - entries_.begin());
}

Status GraphStore::Remove(int id) {
  const int at = FindEntry(id);
  if (at < 0 || entries_[static_cast<size_t>(at)].dead) {
    return Status::NotFound("no live graph with id " + std::to_string(id));
  }
  Entry& entry = entries_[static_cast<size_t>(at)];
  entry.dead = true;
  // Under churn without compaction, dead graphs would otherwise pin their
  // vertex and adjacency storage until the next Compact.
  entry.graph = Graph();
  --live_;
  return Status::OK();
}

int GraphStore::Compact() {
  const int reclaimed = total_entries() - live_;
  if (reclaimed == 0) return 0;
  std::vector<Entry> survivors;
  survivors.reserve(static_cast<size_t>(live_));
  for (Entry& e : entries_) {
    if (!e.dead) survivors.push_back(std::move(e));
  }
  entries_ = std::move(survivors);
  return reclaimed;
}

const Graph* GraphStore::FindLive(int id) const {
  const int at = FindEntry(id);
  if (at < 0 || entries_[static_cast<size_t>(at)].dead) return nullptr;
  return &entries_[static_cast<size_t>(at)].graph;
}

std::vector<int> GraphStore::live_ids() const {
  std::vector<int> ids;
  ids.reserve(static_cast<size_t>(live_));
  for (const Entry& e : entries_) {
    if (!e.dead) ids.push_back(e.id);
  }
  return ids;
}

FrozenGraphSet GraphStore::Freeze() const {
  FrozenGraphSet frozen;
  frozen.ids.reserve(static_cast<size_t>(live_));
  frozen.graphs.reserve(static_cast<size_t>(live_));
  for (const Entry& e : entries_) {
    if (e.dead) continue;
    frozen.ids.push_back(e.id);
    frozen.graphs.push_back(e.graph);
  }
  return frozen;
}

}  // namespace gdim
