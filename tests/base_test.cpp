#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "src/base/arena.h"
#include "src/base/file.h"
#include "src/base/hash.h"
#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/base/strings.h"

namespace sep {
namespace {

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> bad = Err("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "nope");
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(Result, VoidResult) {
  Result<> ok = Ok();
  EXPECT_TRUE(ok.ok());
  Result<> bad = Err("broken");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "broken");
}

TEST(File, WriteReadAndAppend) {
  const std::string path = ::testing::TempDir() + "/base_test_file.bin";
  ASSERT_TRUE(WriteFile(path, std::string("one\0two", 7)).ok());
  ASSERT_TRUE(WriteFile(path, "\n3", /*append=*/true).ok());
  const Result<std::string> back = ReadFile(path);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(*back, std::string("one\0two\n3", 9));
  ASSERT_TRUE(WriteFile(path, "x").ok());  // replaces
  EXPECT_EQ(ReadFile(path).value_or(""), "x");
}

TEST(File, FailuresAreErrors) {
  const Result<std::string> missing = ReadFile("/nonexistent/dir/file");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().rfind("cannot open /nonexistent/dir/file", 0), 0u);
  EXPECT_FALSE(ReadFile(::testing::TempDir()).ok());  // a directory opens but cannot be read
  EXPECT_FALSE(WriteFile("/nonexistent/dir/file", "data").ok());
  // /dev/full accepts the open and the buffered write; the flush at close
  // fails, and that failure must not be lost.
  const Result<> full = WriteFile("/dev/full", "data");
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.error().rfind("cannot write /dev/full", 0), 0u);
  EXPECT_FALSE(WriteFile("/dev/full", "data", /*append=*/true).ok());
  EXPECT_FALSE(WriteFile("/dev/full", std::string(1 << 16, 'x')).ok());
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextInRangeBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.NextBelow(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, ForkIndependent) {
  Rng parent(3);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(Hash, OrderSensitive) {
  Hasher a;
  a.Mix(1).Mix(2);
  Hasher b;
  b.Mix(2).Mix(1);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Hash, RangeIncludesLength) {
  std::vector<std::uint16_t> one = {0};
  std::vector<std::uint16_t> two = {0, 0};
  Hasher a;
  a.MixRange(one);
  Hasher b;
  b.MixRange(two);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Strings, SplitPreservesEmpties) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitWhitespaceDropsEmpties) {
  auto parts = SplitWhitespace("  a \t b  ");
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(Strings, TrimBothEnds) { EXPECT_EQ(Trim("  x y \t"), "x y"); }

TEST(Strings, OctalFormatting) { EXPECT_EQ(Octal(0777), "000777"); }

TEST(Strings, HexFormatting) { EXPECT_EQ(Hex(0xBEEF), "0xBEEF"); }

TEST(Strings, FormatBasic) { EXPECT_EQ(Format("%d-%s", 3, "x"), "3-x"); }

TEST(Strings, JoinWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(Strings, CaseConversion) {
  EXPECT_EQ(ToUpper("aBc"), "ABC");
  EXPECT_EQ(ToLower("aBc"), "abc");
}

TEST(ShardedIndexTest, PackedIdRoundTrip) {
  for (std::size_t s : {std::size_t{0}, std::size_t{5}, kShardCount - 1}) {
    for (std::size_t l : {std::size_t{0}, std::size_t{77}, kShardLocalMax}) {
      const std::int32_t packed = PackShardId(s, l);
      EXPECT_GE(packed, 0);  // sign bit stays clear: -1 remains a sentinel
      EXPECT_EQ(ShardOfId(packed), s);
      EXPECT_EQ(LocalOfId(packed), l);
    }
  }
  EXPECT_EQ(ShardForHash(~0ull), kShardCount - 1);
  EXPECT_EQ(ShardForHash(0ull), 0u);
}

// N threads intern overlapping ranges of keys concurrently, forcing both
// shard-index growth and duplicate insert races. Afterwards: exact dedup
// (size == distinct keys) and agreement (every thread got the same packed
// id for the same key). The exhaustive checker's state store relies on
// this; the CI tsan leg runs this binary to certify it under race
// detection.
TEST(ShardedIndexTest, ConcurrentGrowthDedupsExactly) {
  constexpr std::uint64_t kKeys = 8192;
  constexpr int kThreads = 4;
  ShardedIndex index;
  // Per-shard record storage guarded by the shard mutex via the callbacks.
  std::array<std::vector<std::uint64_t>, kShardCount> records;

  std::vector<std::vector<std::int32_t>> ids(
      kThreads, std::vector<std::int32_t>(kKeys, -1));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the key space at a different stride so insert
      // order differs per thread and collisions interleave.
      for (std::uint64_t n = 0; n < kKeys; ++n) {
        const std::uint64_t key = (n * (2 * static_cast<std::uint64_t>(t) + 1)) % kKeys;
        const std::uint64_t hash = Mix64(key + 1);
        const std::size_t shard = ShardForHash(hash);
        auto [packed, inserted] = index.FindOrInsert(
            hash, [&](std::int32_t local) { return records[shard][static_cast<std::size_t>(local)] == key; },
            [&] {
              records[shard].push_back(key);
              return records[shard].size() - 1;
            },
            [&](std::int32_t local) {
              return Mix64(records[shard][static_cast<std::size_t>(local)] + 1);
            });
        ids[static_cast<std::size_t>(t)][key] = packed;
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  EXPECT_EQ(index.size(), kKeys);
  EXPECT_LE(index.max_load(), kKeys);
  EXPECT_GT(index.bytes(), 0u);
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const std::int32_t expected = ids[0][key];
    ASSERT_GE(expected, 0);
    EXPECT_EQ(records[ShardOfId(expected)][LocalOfId(expected)], key);
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(ids[static_cast<std::size_t>(t)][key], expected)
          << "thread " << t << " key " << key;
    }
  }
}

}  // namespace
}  // namespace sep
