// GraphStore tests: the live-graph side table behind the reindex subsystem
// mirrors the engine lifecycle (Put on insert, Remove marks, Compact
// prunes) and hands out frozen captures in ascending-id order.

#include <gtest/gtest.h>

#include <vector>

#include "common/sync.h"
#include "graph/graph.h"
#include "store/graph_store.h"

namespace gdim {
namespace {

Graph LabelGraph(std::vector<LabelId> labels) {
  Graph g;
  for (LabelId l : labels) g.AddVertex(l);
  return g;
}

TEST(GraphStoreTest, PutFindRemoveLifecycle) {
  GraphStore store;
  ScopedRole writer(&store.writer_role());
  ASSERT_TRUE(store.Put(0, LabelGraph({0})).ok());
  ASSERT_TRUE(store.Put(3, LabelGraph({3})).ok());
  ASSERT_TRUE(store.Put(7, LabelGraph({7})).ok());
  EXPECT_EQ(store.live_count(), 3);
  EXPECT_EQ(store.total_entries(), 3);
  EXPECT_EQ(store.live_ids(), (std::vector<int>{0, 3, 7}));

  const Graph* three = store.FindLive(3);
  ASSERT_NE(three, nullptr);
  EXPECT_EQ(*three, LabelGraph({3}));
  EXPECT_EQ(store.FindLive(1), nullptr);  // never stored
  EXPECT_EQ(store.FindLive(8), nullptr);  // past the end

  ASSERT_TRUE(store.Remove(3).ok());
  EXPECT_TRUE(three->Empty());  // the dead graph's memory is released
  EXPECT_EQ(store.Remove(3).code(), StatusCode::kNotFound);  // already dead
  EXPECT_EQ(store.Remove(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.FindLive(3), nullptr);
  EXPECT_EQ(store.live_count(), 2);
  EXPECT_EQ(store.total_entries(), 3);  // dead entry awaits Compact
  EXPECT_EQ(store.live_ids(), (std::vector<int>{0, 7}));
}

TEST(GraphStoreTest, IdsMustAscendAcrossTheLifetime) {
  GraphStore store;
  ScopedRole writer(&store.writer_role());
  ASSERT_TRUE(store.Put(5, LabelGraph({0})).ok());
  EXPECT_EQ(store.Put(5, LabelGraph({1})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Put(2, LabelGraph({1})).code(),
            StatusCode::kInvalidArgument);
  // Removing the largest id does not free it for reuse — external ids are
  // never re-issued, and the store enforces the same contract.
  ASSERT_TRUE(store.Remove(5).ok());
  store.Compact();
  EXPECT_EQ(store.Put(5, LabelGraph({1})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(store.Put(6, LabelGraph({1})).ok());
}

TEST(GraphStoreTest, CompactPrunesDeadEntriesAndReportsReclaimed) {
  GraphStore store;
  ScopedRole writer(&store.writer_role());
  for (int id = 0; id < 6; ++id) {
    ASSERT_TRUE(store.Put(id, LabelGraph({static_cast<LabelId>(id)})).ok());
  }
  ASSERT_TRUE(store.Remove(1).ok());
  ASSERT_TRUE(store.Remove(4).ok());
  EXPECT_EQ(store.Compact(), 2);
  EXPECT_EQ(store.total_entries(), 4);
  EXPECT_EQ(store.live_count(), 4);
  EXPECT_EQ(store.live_ids(), (std::vector<int>{0, 2, 3, 5}));
  EXPECT_EQ(*store.FindLive(5), LabelGraph({5}));
  EXPECT_EQ(store.Compact(), 0);  // idempotent when nothing is dead
}

TEST(GraphStoreTest, FreezeCapturesTheLiveSetInIdOrder) {
  GraphStore store;
  ScopedRole writer(&store.writer_role());
  for (int id = 0; id < 5; ++id) {
    ASSERT_TRUE(store.Put(id, LabelGraph({static_cast<LabelId>(id)})).ok());
  }
  ASSERT_TRUE(store.Remove(2).ok());
  FrozenGraphSet frozen = store.Freeze();
  EXPECT_EQ(frozen.ids, (std::vector<int>{0, 1, 3, 4}));
  ASSERT_EQ(frozen.graphs.size(), 4u);
  for (size_t i = 0; i < frozen.ids.size(); ++i) {
    EXPECT_EQ(frozen.graphs[i],
              LabelGraph({static_cast<LabelId>(frozen.ids[i])}));
  }
  // The capture is independent: churn after the freeze does not touch it.
  ASSERT_TRUE(store.Remove(0).ok());
  store.Compact();
  ASSERT_TRUE(store.Put(9, LabelGraph({9})).ok());
  EXPECT_EQ(frozen.ids, (std::vector<int>{0, 1, 3, 4}));
  EXPECT_EQ(frozen.graphs[0], LabelGraph({0}));

  GraphStore empty;
  ScopedRole empty_writer(&empty.writer_role());
  EXPECT_TRUE(empty.Freeze().empty());
}

}  // namespace
}  // namespace gdim
