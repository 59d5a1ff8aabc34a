// Unit tests for storage::RecordGc, the copy-on-write record lifetime
// rules of the pipelined store: deferral until the superseding checkpoint
// publishes, snapshot lookups at a checkpoint, parking for pinned readers,
// and the per-checkpoint parking bound under overlapping pins.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "storage/record_gc.h"

namespace oe::storage {
namespace {

using Record = RecordGc::Record;

TEST(RecordGcTest, RetiredRecordWaitsForItsSupersedingCheckpoint) {
  RecordGc gc;
  std::vector<uint64_t> to_free;
  // Version 1 superseded by a write at batch 3; checkpoint 1 is published.
  gc.Retire({7, 100, 1}, /*superseded_at=*/3, /*published=*/1, &to_free);
  EXPECT_TRUE(to_free.empty());
  EXPECT_EQ(gc.Records(), 1u);
  EXPECT_EQ(gc.Parked(), 0u);

  gc.Publish(2, &to_free);  // checkpoint 2 still reaches it
  EXPECT_TRUE(to_free.empty());
  EXPECT_EQ(gc.RecordAt(7, 2), 100u);

  gc.Publish(3, &to_free);
  EXPECT_EQ(to_free, std::vector<uint64_t>{100});
  EXPECT_EQ(gc.Records(), 0u);
  EXPECT_EQ(gc.RecordAt(7, 2), kNullOffset);
}

TEST(RecordGcTest, RecordSupersededByPublishedStateIsFreedAtOnce) {
  RecordGc gc;
  std::vector<uint64_t> to_free;
  gc.Retire({7, 100, 1}, /*superseded_at=*/2, /*published=*/2, &to_free);
  EXPECT_EQ(to_free, std::vector<uint64_t>{100});
  EXPECT_EQ(gc.Records(), 0u);
}

TEST(RecordGcTest, RecordAtResolvesTheNewestRecordAtOrBelowCheckpoint) {
  RecordGc gc;
  std::vector<uint64_t> to_free;
  // Key 7's chain: v1 (offset 10) until 3, v3 (offset 20) until 5, live v5.
  gc.Retire({7, 10, 1}, 3, /*published=*/0, &to_free);
  gc.Retire({7, 20, 3}, 5, /*published=*/0, &to_free);
  gc.Retire({8, 30, 2}, 4, /*published=*/0, &to_free);
  ASSERT_TRUE(to_free.empty());
  EXPECT_EQ(gc.Records(), 3u);
  EXPECT_EQ(gc.RecordAt(7, 0), kNullOffset);
  EXPECT_EQ(gc.RecordAt(7, 1), 10u);
  EXPECT_EQ(gc.RecordAt(7, 2), 10u);
  EXPECT_EQ(gc.RecordAt(7, 3), 20u);
  EXPECT_EQ(gc.RecordAt(7, 4), 20u);
  EXPECT_EQ(gc.RecordAt(8, 1), kNullOffset);
  EXPECT_EQ(gc.RecordAt(8, 3), 30u);
  EXPECT_EQ(gc.RecordAt(9, 3), kNullOffset);

  gc.Publish(3, &to_free);
  EXPECT_EQ(to_free, std::vector<uint64_t>{10});
  EXPECT_EQ(gc.RecordAt(7, 2), kNullOffset);
  EXPECT_EQ(gc.RecordAt(7, 4), 20u);
}

TEST(RecordGcTest, PinnedReaderParksWhatItsCheckpointReaches) {
  RecordGc gc;
  std::vector<uint64_t> to_free;
  gc.Pin(2);
  gc.Retire({7, 10, 1}, 4, /*published=*/2, &to_free);  // [1, 4) holds 2
  gc.Retire({8, 20, 3}, 4, /*published=*/2, &to_free);  // [3, 4) does not
  gc.Publish(4, &to_free);
  EXPECT_EQ(to_free, std::vector<uint64_t>{20});
  EXPECT_EQ(gc.Parked(), 1u);
  EXPECT_EQ(gc.RecordAt(7, 2), 10u);

  to_free.clear();
  gc.Unpin(2, &to_free);
  EXPECT_EQ(to_free, std::vector<uint64_t>{10});
  EXPECT_EQ(gc.Parked(), 0u);
  EXPECT_EQ(gc.Records(), 0u);
}

// Readers whose pins overlap without ever all releasing: A pins 1, the
// checkpoint advances, B pins 2, A releases, A pins 3, B releases, and so
// on, while every key is rewritten (its record retired) at every step. The
// pin count never reaches zero, yet the parked set stays within one record
// per key per distinct pinned checkpoint, and every record is freed once.
TEST(RecordGcTest, OverlappingPinsKeepParkedRecordsBounded) {
  constexpr uint64_t kKeys = 8;
  constexpr uint64_t kSteps = 64;
  RecordGc gc;
  std::vector<uint64_t> to_free;
  std::vector<Record> live(kKeys);
  uint64_t next_offset = 1;
  for (uint64_t k = 0; k < kKeys; ++k) live[k] = {k, next_offset++, 0};
  std::set<uint64_t> freed;
  auto collect = [&] {
    for (uint64_t offset : to_free) {
      ASSERT_TRUE(freed.insert(offset).second) << "double free " << offset;
    }
    to_free.clear();
  };

  uint64_t published = 0;
  std::set<uint64_t> pinned;
  for (uint64_t step = 1; step <= kSteps; ++step) {
    // Batch `step` rewrites every key: the old record is superseded.
    for (Record& head : live) {
      gc.Retire(head, step, published, &to_free);
      head = {head.key, next_offset++, step};
    }
    collect();
    // Checkpoint `step` publishes while the previous reader is pinned.
    gc.Publish(step, &to_free);
    published = step;
    collect();
    // The previous reader still sees its checkpoint's records.
    if (step > 1) {
      for (const Record& head : live) {
        EXPECT_NE(gc.RecordAt(head.key, step - 1), kNullOffset);
      }
    }
    // The next reader pins before the previous one releases.
    gc.Pin(step);
    pinned.insert(step);
    EXPECT_LE(gc.Parked(), kKeys * pinned.size()) << "step " << step;
    if (step > 1) {
      gc.Unpin(step - 1, &to_free);
      pinned.erase(step - 1);
      collect();
    }
    EXPECT_LE(gc.Parked(), kKeys * pinned.size()) << "step " << step;
  }
  gc.Unpin(kSteps, &to_free);
  collect();
  EXPECT_EQ(gc.Parked(), 0u);
  EXPECT_EQ(gc.Records(), 0u);
  // Every record but the live heads was freed exactly once.
  EXPECT_EQ(freed.size(), kKeys * kSteps);
}

TEST(RecordGcTest, ClearForgetsRecordsButKeepsPins) {
  RecordGc gc;
  std::vector<uint64_t> to_free;
  gc.Pin(1);
  gc.Retire({7, 10, 1}, 3, /*published=*/1, &to_free);
  gc.Clear();
  EXPECT_EQ(gc.Records(), 0u);
  EXPECT_EQ(gc.RecordAt(7, 1), kNullOffset);
  // The pin survives: a record retired now is still parked for it.
  gc.Retire({8, 20, 1}, 2, /*published=*/2, &to_free);
  EXPECT_TRUE(to_free.empty());
  gc.Unpin(1, &to_free);
  EXPECT_EQ(to_free, std::vector<uint64_t>{20});
}

}  // namespace
}  // namespace oe::storage
