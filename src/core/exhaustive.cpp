#include "src/core/exhaustive.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>

#include "src/base/arena.h"
#include "src/base/hash.h"
#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/base/thread_pool.h"
#include "src/base/work_steal.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace sep {

namespace {

// The checker is parallel but its report is deterministic BY CONSTRUCTION,
// in two layers:
//
//   1. Work-stealing exploration (schedule-dependent, result-pure). Workers
//      pull states from per-worker Chase–Lev deques (src/base/work_steal.h),
//      expand them, and intern every successor into a sharded
//      content-addressed store (ShardedStateStore below). A state's packed
//      id and shard are pure functions of its serialized content, never of
//      the interning thread. Each fresh state is expanded exactly once (the
//      thread whose intern was fresh re-enqueues it). Workers record, per
//      expanded state, the packed ids of its successors plus any FAILED
//      per-transition checks; passing checks are never materialized — the
//      check sequence of a successor is synthesizable from its ordinal.
//
//   2. Canonical replay (schedule-independent). After the stealing pool
//      drains, a single merge thread replays the exact level-synchronous
//      serial algorithm over the recorded successor lists: same FIFO id
//      assignment, same kLevelChunk dispatch granularity, same
//      overflow-before-intern and max_violations early-stop semantics, same
//      per-level heartbeat trace events. The replay therefore produces the
//      report — ids, violation order, truncation points, transition counts —
//      that a 1-thread run of the pre-stealing checker produced, regardless
//      of thread count or steal schedule. If the replay needs a state the
//      stealing phase never expanded (early stop drained it), it expands it
//      on demand on the merge thread. If the stealing phase overshot a
//      truncated run (discovered more states than the canonical set), the
//      store is rebuilt with only canonical states in canonical order so
//      peak_state_bytes stays schedule-independent too.
//
// Pair checking needs no schedule of its own: one parallel pass per colour
// computes every state's effect signature, and the merge thread compares
// stored signatures pair by pair (CheckPairs).
//
// restore_count reports the SERIAL-EQUIVALENT exploration cost (the number
// of RestoreFullState calls the canonical serial schedule performs) plus the
// signature passes' restores, a fixed number per state; both are
// independent of thread count. The actual per-worker restore counts — which
// include stealing overshoot — are exported as per-worker gauges instead.
//
// No live SharedSystem is retained per explored state. Each state exists
// only as its serialized FullState() words; workers reconstruct live
// machines on demand (RestoreFullState) into per-worker scratch instances.

constexpr std::size_t kChunkWords = 64;
// States merged per canonical-replay batch. This is the granularity at
// which the serial checker dispatched expansion work, and the goldens pin
// its stop semantics (restore counts, truncation points), so the replay
// keeps it even though the stealing pool no longer batches.
constexpr std::size_t kLevelChunk = 64;

// Trace payload words are 16-bit; saturate rather than wrap so a reader can
// tell "at least 65535" from a small value.
Word SaturateWord(std::size_t value) {
  return static_cast<Word>(std::min<std::size_t>(value, 0xFFFF));
}

// Compact interned storage for serialized states, sharded for concurrent
// growth. Serializations are cut into kChunkWords-word chunks at fixed
// offsets; each distinct chunk is stored once. Chunks and states live in
// separate shard spaces, each routed by the top bits of the content hash
// (ShardForHash), so the layout of a finished store is a pure function of
// the state SET — identical for every steal schedule.
//
// A state record is its packed chunk-ref list plus exact word count. Because
// chunk ids are content-addressed within a run, two equal serializations
// always produce identical ref lists, so state equality is a cheap ref-list
// memcmp that never touches the chunk shards (no nested locks).
//
// Capacity determinism: every growable vector starts from a fixed reserved
// base large enough that growth is pure doubling (appends are ≤ kChunkWords
// words), making each shard's capacity — and thus bytes() — a function of
// its final contents, not of insertion order.
class ShardedStateStore {
 public:
  ShardedStateStore() {
    for (std::size_t s = 0; s < kShardCount; ++s) {
      state_data_[s].chunk_refs.reserve(1024);
      state_data_[s].ref_offsets.reserve(256);
      state_data_[s].lens.reserve(256);
      state_data_[s].hashes.reserve(256);
      chunk_data_[s].words.reserve(4096);
      chunk_data_[s].offsets.reserve(256);
      chunk_data_[s].hashes.reserve(256);
    }
  }

  std::size_t states() const { return state_count_.load(std::memory_order_relaxed); }

  // Any thread. Returns the packed id of the chunk with this content,
  // interning it if new.
  std::uint32_t InternChunk(std::uint64_t hash, const Word* words, std::size_t count) {
    const std::size_t s = ShardForHash(hash);
    ChunkShardData& d = chunk_data_[s];
    const auto [packed, fresh] = chunk_index_.FindOrInsert(
        hash,
        [&](std::int32_t local) {
          const std::size_t i = static_cast<std::size_t>(local);
          return d.hashes[i] == hash && d.offsets[i + 1] - d.offsets[i] == count &&
                 std::memcmp(d.words.data() + d.offsets[i], words, count * sizeof(Word)) == 0;
        },
        [&]() {
          const std::size_t local = d.hashes.size();
          SEP_CHECK(local <= kShardLocalMax);
          d.words.insert(d.words.end(), words, words + count);
          d.offsets.push_back(static_cast<std::uint32_t>(d.words.size()));
          d.hashes.push_back(hash);
          return local;
        },
        [&](std::int32_t existing) { return d.hashes[static_cast<std::size_t>(existing)]; });
    (void)fresh;
    return static_cast<std::uint32_t>(packed);
  }

  struct InternedState {
    std::int32_t id;
    bool fresh;
  };

  // Any thread. `refs` is the state's packed chunk-ref list; `len` its exact
  // word count; `hash` the hash of the full serialization.
  InternedState InternState(std::uint64_t hash, const std::uint32_t* refs, std::size_t nrefs,
                            std::size_t len) {
    const std::size_t s = ShardForHash(hash);
    StateShardData& d = state_data_[s];
    const auto [packed, fresh] = state_index_.FindOrInsert(
        hash,
        [&](std::int32_t local) {
          const std::size_t i = static_cast<std::size_t>(local);
          return d.hashes[i] == hash && d.lens[i] == len &&
                 d.ref_offsets[i + 1] - d.ref_offsets[i] == nrefs &&
                 std::memcmp(d.chunk_refs.data() + d.ref_offsets[i], refs,
                             nrefs * sizeof(std::uint32_t)) == 0;
        },
        [&]() {
          const std::size_t local = d.hashes.size();
          SEP_CHECK(local <= kShardLocalMax);
          d.chunk_refs.insert(d.chunk_refs.end(), refs, refs + nrefs);
          d.ref_offsets.push_back(static_cast<std::uint32_t>(d.chunk_refs.size()));
          d.lens.push_back(static_cast<std::uint32_t>(len));
          d.hashes.push_back(hash);
          return local;
        },
        [&](std::int32_t existing) { return d.hashes[static_cast<std::size_t>(existing)]; });
    if (fresh) {
      state_count_.fetch_add(1, std::memory_order_relaxed);
    }
    return {packed, fresh};
  }

  // After the last intern, lock-free reads: the phase barrier between
  // exploration and pair checking provides the happens-before edge.
  void Freeze() { frozen_ = true; }

  // Reconstructs state `packed`'s serialized words into `out` (its chunk-ref
  // list lands in `refs`). Thread-safe: locks shards unless frozen.
  void MaterializeState(std::int32_t packed, std::vector<std::uint32_t>& refs,
                        std::vector<Word>& out) const {
    const std::size_t s = ShardOfId(packed);
    const std::size_t local = LocalOfId(packed);
    const StateShardData& d = state_data_[s];
    std::size_t len = 0;
    {
      std::unique_lock<std::mutex> lock;
      if (!frozen_) {
        lock = std::unique_lock<std::mutex>(state_index_.shard(s).mu);
      }
      refs.assign(d.chunk_refs.begin() + d.ref_offsets[local],
                  d.chunk_refs.begin() + d.ref_offsets[local + 1]);
      len = d.lens[local];
    }
    out.clear();
    out.reserve(len);
    for (const std::uint32_t ref : refs) {
      const std::size_t cs = ShardOfId(static_cast<std::int32_t>(ref));
      const std::size_t cl = LocalOfId(static_cast<std::int32_t>(ref));
      const ChunkShardData& cd = chunk_data_[cs];
      std::unique_lock<std::mutex> lock;
      if (!frozen_) {
        lock = std::unique_lock<std::mutex>(chunk_index_.shard(cs).mu);
      }
      out.insert(out.end(), cd.words.begin() + cd.offsets[cl], cd.words.begin() + cd.offsets[cl + 1]);
    }
    SEP_CHECK(out.size() == len);
  }

  std::uint64_t StateHash(std::int32_t packed) const {
    return state_data_[ShardOfId(packed)].hashes[LocalOfId(packed)];
  }

  std::size_t shard_max_load() const { return state_index_.max_load(); }

  // Resident footprint: arenas, per-state tables and hash indexes.
  std::size_t bytes() const {
    std::size_t total = state_index_.bytes() + chunk_index_.bytes();
    for (std::size_t s = 0; s < kShardCount; ++s) {
      const StateShardData& sd = state_data_[s];
      const ChunkShardData& cd = chunk_data_[s];
      total += sd.chunk_refs.capacity() * sizeof(std::uint32_t) +
               sd.ref_offsets.capacity() * sizeof(std::uint32_t) +
               sd.lens.capacity() * sizeof(std::uint32_t) +
               sd.hashes.capacity() * sizeof(std::uint64_t) +
               cd.words.capacity() * sizeof(Word) +
               cd.offsets.capacity() * sizeof(std::uint32_t) +
               cd.hashes.capacity() * sizeof(std::uint64_t);
    }
    return total;
  }

 private:
  struct StateShardData {
    // State i's chunk refs occupy chunk_refs[ref_offsets[i] ..
    // ref_offsets[i + 1]).
    std::vector<std::uint32_t> chunk_refs;
    std::vector<std::uint32_t> ref_offsets{0};
    std::vector<std::uint32_t> lens;
    std::vector<std::uint64_t> hashes;
  };
  struct ChunkShardData {
    // Chunk i occupies words[offsets[i] .. offsets[i + 1]).
    std::vector<Word> words;
    std::vector<std::uint32_t> offsets{0};
    std::vector<std::uint64_t> hashes;
  };

  ShardedIndex state_index_;
  ShardedIndex chunk_index_;
  std::array<StateShardData, kShardCount> state_data_;
  std::array<ChunkShardData, kShardCount> chunk_data_;
  std::atomic<std::size_t> state_count_{0};
  bool frozen_ = false;
};

// Per-worker direct-mapped cache of hot chunks. Most successors of one
// state share almost all chunks with it, so this makes the common-chunk
// intern path lock-free. Sound by construction: a hit requires a full
// content memcmp, never hash identity alone — a silent collision in a
// verification tool is not an acceptable failure mode.
struct ChunkCache {
  static constexpr std::size_t kEntries = 512;
  struct Entry {
    std::uint64_t hash = 0;
    std::int64_t ref = -1;
    std::uint32_t len = 0;
  };
  std::vector<Entry> entries = std::vector<Entry>(kEntries);
  std::vector<Word> words = std::vector<Word>(kEntries * kChunkWords);
};

std::uint32_t InternChunkCached(ShardedStateStore& store, ChunkCache& cache, const Word* words,
                                std::size_t count) {
  const std::uint64_t hash = HashWords(words, count);
  // Shard routing consumes the TOP hash bits; the cache slot uses the low
  // bits so cache placement and shard placement stay independent.
  ChunkCache::Entry& e = cache.entries[hash & (ChunkCache::kEntries - 1)];
  Word* const slot = cache.words.data() + (hash & (ChunkCache::kEntries - 1)) * kChunkWords;
  if (e.ref >= 0 && e.hash == hash && e.len == count &&
      std::memcmp(slot, words, count * sizeof(Word)) == 0) {
    return static_cast<std::uint32_t>(e.ref);
  }
  const std::uint32_t ref = store.InternChunk(hash, words, count);
  e.hash = hash;
  e.ref = ref;
  e.len = static_cast<std::uint32_t>(count);
  std::memcpy(slot, words, count * sizeof(Word));
  return ref;
}

// One FAILED check, recorded by a worker. Passing checks are never stored:
// the canonical replay synthesizes the full check sequence from the
// per-successor check counts and splices the recorded failures in at their
// successor ordinals.
struct FailRec {
  std::uint32_t ordinal = 0;  // successor position within the expansion
  std::int16_t condition = 0;
  std::int16_t colour = kColourNone;
  std::string description;
};

// One expanded state: a slice of the owning worker's flat succs/fails logs.
struct ExpandRec {
  std::int32_t from = -1;  // packed state id
  std::uint32_t succ_begin = 0;
  std::uint32_t succ_end = 0;
  std::uint32_t fail_begin = 0;
  std::uint32_t fail_end = 0;
};

// Append-only per-worker recording; owned by exactly one pool thread during
// exploration, read by the merge thread after the pool barrier.
struct WorkerLog {
  std::vector<ExpandRec> recs;
  std::vector<std::int32_t> succs;        // packed successor ids
  std::vector<std::uint8_t> succ_checks;  // checks evaluated per successor
  std::vector<FailRec> fails;             // ordinal = successor ordinal
};

class ExhaustiveRun {
 public:
  ExhaustiveRun(const SharedSystem& initial, const ExhaustiveOptions& options)
      : options_(options),
        initial_(initial.Clone()),
        store_(std::make_unique<ShardedStateStore>()),
        pool_(options.threads) {
    scratch_.resize(static_cast<std::size_t>(pool_.size()));
    logs_.resize(static_cast<std::size_t>(pool_.size()));
    colours_ = initial_->ColourCount();
    units_ = initial_->UnitCount();
    // Successors per expansion: the operation, each input value into each
    // unit, each unit's activity. Constant per system/options, which is what
    // lets the replay reconstruct the serial restore schedule exactly.
    fanout_ = 1 + static_cast<std::size_t>(units_) *
                      static_cast<std::size_t>(options_.inputs_per_unit) +
              static_cast<std::size_t>(units_);
  }

  ExhaustiveReport Run() {
    std::optional<std::vector<Word>> init_key = initial_->FullState();
    if (!init_key.has_value()) {
      report_.violations.push_back(
          {0, kColourNone, 0, "system does not support FullState(); exhaustive mode needs it"});
      return std::move(report_);
    }
    // Probe restore support once, by restoring the initial state onto a
    // throwaway clone (self-restore would mask asymmetric encodings).
    if (!initial_->Clone()->RestoreFullState(*init_key)) {
      report_.violations.push_back({0, kColourNone, 0,
                                    "system does not support RestoreFullState(); the compact "
                                    "exhaustive checker needs it"});
      return std::move(report_);
    }

    const std::int32_t initial_id = InternKey(*init_key);
    Explore(initial_id);
    BuildLocator();
    ReplayExplore(initial_id);
    if (canon_to_packed_.size() != store_->states()) {
      // Truncated run overshoot: the stealing pool discovered states the
      // canonical schedule never admits. Rebuild the store with only
      // canonical states, in canonical order, so peak_state_bytes is a
      // function of the canonical set alone.
      RebuildStore();
    }
    store_->Freeze();
    if (report_.complete || canon_to_packed_.size() <= options_.max_states) {
      CheckPairs();
    }

    report_.states_explored = canon_to_packed_.size();
    report_.peak_state_bytes = store_->bytes();
    report_.restore_count = sim_restores_;
    report_.shard_max_load = store_->shard_max_load();
    report_.worker_expanded.resize(scratch_.size());
    for (std::size_t w = 0; w < scratch_.size(); ++w) {
      report_.worker_expanded[w] = logs_[w].recs.size();
    }
    // Gauges are always on (like every other module's counters); only the
    // trace recorder is gated by obs::Enabled().
    obs::Metrics().GetGauge("exhaustive.states").Set(report_.states_explored);
    obs::Metrics().GetGauge("exhaustive.transitions").Set(report_.transitions);
    obs::Metrics().GetGauge("exhaustive.pairs_checked").Set(report_.pairs_checked);
    obs::Metrics().GetGauge("exhaustive.restore_count").Set(report_.restore_count);
    obs::Metrics().GetGauge("exhaustive.peak_state_bytes").Set(report_.peak_state_bytes);
    obs::Metrics().GetGauge("exhaustive.steal_count").Set(report_.steal_count);
    obs::Metrics().GetGauge("exhaustive.shard_max_load").Set(report_.shard_max_load);
    // Per-worker counters expose exploration balance across the pool:
    // `expanded` is stealing-phase work done, `restores` the actual (not
    // serial-equivalent) reconstruction count including overshoot.
    for (std::size_t w = 0; w < scratch_.size(); ++w) {
      obs::Metrics()
          .GetGauge(Format("exhaustive.worker%zu.expanded", w))
          .Set(report_.worker_expanded[w]);
      obs::Metrics()
          .GetGauge(Format("exhaustive.worker%zu.restores", w))
          .Set(scratch_[w].restores);
    }
    return std::move(report_);
  }

 private:
  // Per-worker scratch: two live systems reconstructed on demand plus the
  // reusable buffers of every hot loop. Indexed by the pool's worker index;
  // never touched by two threads at once.
  struct Scratch {
    std::unique_ptr<SharedSystem> base;  // the "from" state / signature state
    std::unique_ptr<SharedSystem> work;  // mutated per successor
    std::vector<Word> key;               // materialized serialization
    std::vector<Word> ser;               // successor serialization scratch
    std::vector<Word> phi;               // abstraction scratch
    std::vector<std::vector<Word>> before_phi;  // per-colour Φ of the from state
    std::vector<std::uint32_t> refs;            // chunk-ref scratch (materialize)
    std::vector<std::uint32_t> intern_refs;     // chunk-ref scratch (intern)
    ChunkCache cache;
    std::uint64_t restores = 0;
  };

  Scratch& ScratchHere() {
    Scratch& sc = scratch_[static_cast<std::size_t>(ThreadPool::CurrentWorkerIndex())];
    if (sc.base == nullptr) {
      sc.base = initial_->Clone();
      sc.work = initial_->Clone();
      sc.before_phi.resize(static_cast<std::size_t>(colours_));
    }
    return sc;
  }

  static void Restore(SharedSystem& sys, std::span<const Word> key, Scratch& sc) {
    const bool ok = sys.RestoreFullState(key);
    SEP_CHECK(ok);
    ++sc.restores;
  }

  // Chunks `key` and interns the state; any thread. The merge thread calls
  // it through worker slot 0's scratch.
  std::int32_t InternKey(const std::vector<Word>& key) {
    Scratch& sc = ScratchHere();
    sc.intern_refs.clear();
    for (std::size_t base = 0; base < key.size(); base += kChunkWords) {
      sc.intern_refs.push_back(InternChunkCached(*store_, sc.cache, key.data() + base,
                                                 std::min(kChunkWords, key.size() - base)));
    }
    const std::uint64_t hash = HashWords(key.data(), key.size());
    return store_
        ->InternState(hash, sc.intern_refs.data(), sc.intern_refs.size(), key.size())
        .id;
  }

  // --- worker-side pure computation (stealing phase) ---

  // Appends Φ^colour of `sys` into `buf` (cleared first) and compares it
  // against `expected`.
  static bool SamePhi(const SharedSystem& sys, int colour, std::vector<Word>& buf,
                      const std::vector<Word>& expected) {
    buf.clear();
    sys.AppendAbstract(colour, buf);
    return buf == expected;
  }

  // One successor of the state held in sc.base / sc.key: reconstruct it
  // in sc.work, apply `mutate`, record FAILED checks only, serialize,
  // intern into the sharded store and log the packed id. If the intern was
  // fresh, hand the state to the scheduler (exactly one thread sees fresh).
  template <typename Mutate, typename PerColourCheck>
  void Successor(Scratch& sc, WorkerLog& log, const ExpandRec& rec, StealScheduler* sched,
                 int lane, Mutate mutate, PerColourCheck check) {
    const std::uint32_t ordinal = static_cast<std::uint32_t>(log.succs.size()) - rec.succ_begin;
    Restore(*sc.work, sc.key, sc);
    mutate(*sc.work);
    // The number of checks a successor contributes is NOT a pure function
    // of its ordinal: a from-state whose active colour is outside the
    // regime range (e.g. kernel mode) is checked against every colour, not
    // colours-1 of them. Record the actual count for the replay.
    log.succ_checks.push_back(check(*sc.work, sc, ordinal));
    sc.ser.clear();
    sc.work->AppendFullState(sc.ser);
    sc.intern_refs.clear();
    for (std::size_t base = 0; base < sc.ser.size(); base += kChunkWords) {
      sc.intern_refs.push_back(InternChunkCached(*store_, sc.cache, sc.ser.data() + base,
                                                 std::min(kChunkWords, sc.ser.size() - base)));
    }
    const std::uint64_t hash = HashWords(sc.ser.data(), sc.ser.size());
    const ShardedStateStore::InternedState interned =
        store_->InternState(hash, sc.intern_refs.data(), sc.intern_refs.size(), sc.ser.size());
    log.succs.push_back(interned.id);
    if (interned.fresh) {
      if (store_->states() >= options_.max_states) {
        // Budget heuristic only: the replay decides the true overflow point.
        stop_.store(true, std::memory_order_relaxed);
      }
      if (sched != nullptr && !stop_.load(std::memory_order_relaxed)) {
        sched->Emit(lane, interned.id);
      }
    }
  }

  // Every successor of one state, in the canonical order the serial checker
  // generates them: the operation, then each input value into each unit,
  // then each unit's activity. `sched == nullptr` is the merge thread's
  // backfill path (record only, no scheduling).
  void ExpandOne(std::int32_t from, StealScheduler* sched, int lane) {
    Scratch& sc = ScratchHere();
    WorkerLog& log = logs_[static_cast<std::size_t>(ThreadPool::CurrentWorkerIndex())];
    ExpandRec rec;
    rec.from = from;
    rec.succ_begin = static_cast<std::uint32_t>(log.succs.size());
    rec.fail_begin = static_cast<std::uint32_t>(log.fails.size());

    store_->MaterializeState(from, sc.refs, sc.key);
    Restore(*sc.base, sc.key, sc);
    for (int c = 0; c < colours_; ++c) {
      sc.before_phi[static_cast<std::size_t>(c)].clear();
      sc.base->AppendAbstract(c, sc.before_phi[static_cast<std::size_t>(c)]);
    }

    // (a) the operation NEXTOP(s).
    const int active = sc.base->Colour();
    Successor(
        sc, log, rec, sched, lane, [](SharedSystem& sys) { sys.ExecuteOperation(); },
        [&](const SharedSystem& after, Scratch& s, std::uint32_t ordinal) -> std::uint8_t {
          std::uint8_t checks = 0;
          for (int c = 0; c < colours_; ++c) {
            if (c == active) {
              continue;
            }
            ++checks;
            if (!SamePhi(after, c, s.phi, s.before_phi[static_cast<std::size_t>(c)])) {
              log.fails.push_back(
                  {ordinal, 2, static_cast<std::int16_t>(c),
                   Format("operation of colour %d changed Φ of colour %d", active, c)});
            }
          }
          return checks;
        });

    // (b) every input in the alphabet, into every unit.
    for (int unit = 0; unit < units_; ++unit) {
      const int owner = initial_->UnitColour(unit);
      for (int value = 1; value <= options_.inputs_per_unit; ++value) {
        Successor(
            sc, log, rec, sched, lane,
            [&](SharedSystem& sys) { sys.InjectInput(unit, static_cast<Word>(value)); },
            [&](const SharedSystem& after, Scratch& s, std::uint32_t ordinal) -> std::uint8_t {
              std::uint8_t checks = 0;
              for (int c = 0; c < colours_; ++c) {
                if (c == owner) {
                  continue;
                }
                ++checks;
                if (!SamePhi(after, c, s.phi, s.before_phi[static_cast<std::size_t>(c)])) {
                  log.fails.push_back({ordinal, 4, static_cast<std::int16_t>(c),
                                       Format("input to unit %d visible to colour %d", unit, c)});
                }
              }
              return checks;
            });
      }
    }

    // (c) every unit's activity.
    for (int unit = 0; unit < units_; ++unit) {
      const int owner = initial_->UnitColour(unit);
      Successor(
          sc, log, rec, sched, lane,
          [&](SharedSystem& sys) {
            sys.StepUnit(unit);
            (void)sys.DrainOutput(unit);  // keep the state space bounded
          },
          [&](const SharedSystem& after, Scratch& s, std::uint32_t ordinal) -> std::uint8_t {
            std::uint8_t checks = 0;
            for (int c = 0; c < colours_; ++c) {
              if (c == owner) {
                continue;
              }
              ++checks;
              if (!SamePhi(after, c, s.phi, s.before_phi[static_cast<std::size_t>(c)])) {
                log.fails.push_back(
                    {ordinal, 4, static_cast<std::int16_t>(c),
                     Format("activity of unit %d visible to colour %d", unit, c)});
              }
            }
            return checks;
          });
    }

    rec.succ_end = static_cast<std::uint32_t>(log.succs.size());
    rec.fail_end = static_cast<std::uint32_t>(log.fails.size());
    log.recs.push_back(rec);
    const std::size_t new_fails = rec.fail_end - rec.fail_begin;
    if (new_fails > 0 &&
        fail_count_.fetch_add(new_fails, std::memory_order_relaxed) + new_fails >=
            static_cast<std::size_t>(options_.max_violations)) {
      // Violation-budget heuristic; again, the replay decides the true cut.
      stop_.store(true, std::memory_order_relaxed);
    }
  }

  void Explore(std::int32_t initial_id) {
    StealScheduler sched(pool_.size(), options_.steal_seed);
    sched.Seed(initial_id);
    sched.Run(pool_, [&](std::int64_t item, int lane) {
      if (stop_.load(std::memory_order_relaxed)) {
        return;  // drained, not expanded; the replay backfills if needed
      }
      ExpandOne(static_cast<std::int32_t>(item), &sched, lane);
    });
    report_.steal_count += sched.steal_count();
  }

  // --- canonical replay (merge thread only) ---

  // Maps a packed id to its slot in a lazily grown per-shard table
  // (backfill interns states after the tables were first sized).
  static std::int64_t& SlotIn(std::array<std::vector<std::int64_t>, kShardCount>& table,
                              std::int32_t packed) {
    std::vector<std::int64_t>& shard = table[ShardOfId(packed)];
    const std::size_t local = LocalOfId(packed);
    if (local >= shard.size()) {
      shard.resize(local + 1, -1);
    }
    return shard[local];
  }

  void BuildLocator() {
    for (std::size_t w = 0; w < logs_.size(); ++w) {
      for (std::size_t r = 0; r < logs_[w].recs.size(); ++r) {
        SlotIn(locator_, logs_[w].recs[r].from) =
            static_cast<std::int64_t>((w << 40) | r);
      }
    }
  }

  // Guarantees an ExpandRec exists for `packed`: states drained by an early
  // stop are expanded here, on the merge thread, record-only.
  std::int64_t EnsureRecord(std::int32_t packed) {
    std::int64_t loc = SlotIn(locator_, packed);
    if (loc < 0) {
      ExpandOne(packed, nullptr, 0);
      const std::size_t w = static_cast<std::size_t>(ThreadPool::CurrentWorkerIndex());
      loc = static_cast<std::int64_t>((w << 40) | (logs_[w].recs.size() - 1));
      SlotIn(locator_, packed) = loc;
    }
    return loc;
  }

  bool Done() const {
    return static_cast<int>(report_.violations.size()) >= options_.max_violations;
  }

  void CountViolation(int condition, int colour, const std::string& description) {
    ++report_.conditions[static_cast<std::size_t>(condition)].violations;
    if (static_cast<int>(report_.violations.size()) < options_.max_violations) {
      report_.violations.push_back({condition, colour, 0, description});
    }
  }

  // Replays the serial level-synchronous BFS over the recorded successor
  // lists, assigning canonical ids in the serial FIFO order and reproducing
  // its exact merge semantics: kLevelChunk dispatch granularity (restores
  // are counted per dispatched chunk), no early-stop inside one state's
  // successor list except budget overflow, overflow checked before intern,
  // per-level heartbeat with the canonical store size.
  void ReplayExplore(std::int32_t initial_id) {
    SlotIn(canon_of_, initial_id) = 0;
    canon_to_packed_.push_back(initial_id);
    frontier_.push_back(0);

    std::vector<std::int32_t> level;
    while (!frontier_.empty() && !Done() && !overflowed_) {
      level.swap(frontier_);
      frontier_.clear();

      // One heartbeat per BFS level: tick carries the canonical store size
      // (states may exceed a Word), a0/a1 the saturated level width/depth.
      if (obs::Enabled()) {
        obs::Emit(obs::Category::kChecker, obs::Code::kHeartbeat, obs::kColourKernel,
                  canon_to_packed_.size(), SaturateWord(level.size()), SaturateWord(depth_++));
      }

      for (std::size_t base = 0; base < level.size() && !Done() && !overflowed_;
           base += kLevelChunk) {
        const std::size_t count = std::min(kLevelChunk, level.size() - base);
        // The serial schedule expands the whole chunk before merging it.
        sim_restores_ += count * (1 + fanout_);
        for (std::size_t i = 0; i < count; ++i) {
          EnsureRecord(canon_to_packed_[static_cast<std::size_t>(level[base + i])]);
        }
        for (std::size_t i = 0; i < count && !Done() && !overflowed_; ++i) {
          const std::int64_t loc =
              SlotIn(locator_, canon_to_packed_[static_cast<std::size_t>(level[base + i])]);
          const WorkerLog& log = logs_[static_cast<std::size_t>(loc >> 40)];
          const ExpandRec rec = log.recs[static_cast<std::size_t>(loc & ((1LL << 40) - 1))];
          std::uint32_t fi = rec.fail_begin;
          const std::uint32_t nsuccs = rec.succ_end - rec.succ_begin;
          for (std::uint32_t ord = 0; ord < nsuccs; ++ord) {
            ++report_.transitions;
            // Splice in the checks: cond 2 for the operation successor,
            // cond 4 otherwise, with the per-successor count the worker
            // actually evaluated; recorded failures land at their ordinals.
            const int cond = ord == 0 ? 2 : 4;
            report_.conditions[static_cast<std::size_t>(cond)].checks +=
                log.succ_checks[rec.succ_begin + ord];
            while (fi < rec.fail_end && log.fails[fi].ordinal == ord) {
              CountViolation(log.fails[fi].condition, log.fails[fi].colour,
                             log.fails[fi].description);
              ++fi;
            }
            const std::int32_t sp = log.succs[rec.succ_begin + ord];
            std::int64_t& canon = SlotIn(canon_of_, sp);
            if (canon < 0) {
              if (canon_to_packed_.size() >= options_.max_states) {
                overflowed_ = true;
                break;
              }
              canon = static_cast<std::int64_t>(canon_to_packed_.size());
              canon_to_packed_.push_back(sp);
              frontier_.push_back(static_cast<std::int32_t>(canon));
            }
          }
        }
      }
    }
    report_.complete = frontier_.empty() && !overflowed_ && !Done();
  }

  // Re-interns only the canonical states, in canonical order, into a fresh
  // store. Every vector's growth then depends on the canonical sequence
  // alone, so bytes() matches what the serial schedule's store reports.
  void RebuildStore() {
    auto rebuilt = std::make_unique<ShardedStateStore>();
    std::vector<std::uint32_t> refs;
    std::vector<std::uint32_t> new_refs;
    std::vector<Word> key;
    for (std::int32_t& packed : canon_to_packed_) {
      store_->MaterializeState(packed, refs, key);
      new_refs.clear();
      for (std::size_t base = 0; base < key.size(); base += kChunkWords) {
        const std::size_t n = std::min(kChunkWords, key.size() - base);
        new_refs.push_back(rebuilt->InternChunk(HashWords(key.data() + base, n), key.data() + base, n));
      }
      const ShardedStateStore::InternedState interned = rebuilt->InternState(
          HashWords(key.data(), key.size()), new_refs.data(), new_refs.size(), key.size());
      SEP_CHECK(interned.fresh);
      packed = interned.id;
    }
    store_ = std::move(rebuilt);
    // Worker chunk caches hold refs into the dropped store; nothing interns
    // chunks after this point (the signature pass only materializes), so
    // they are never consulted again.
  }

  // --- pair phase: per-state effect signatures ---

  // Conditions (1), (3), (5) and (6) all read "Φ^c(s) = Φ^c(t) ⇒ f(s) =
  // f(t)": a colour-c effect may depend on Φ^c only. So each state's
  // colour-c effects are computed once, in the pass that computes its Φ^c,
  // and a Φ-equal pair is checked by comparing the two stored signatures
  // exactly (words and OperationId, never a hash). Pairs are enumerated, cut
  // and reported in the serial order: groups by ascending Φ key (the order
  // a std::map would iterate), members by ascending state id, pairs
  // lexicographically within a group, capped per group.
  void CheckPairs() {
    const std::size_t n = canon_to_packed_.size();
    const std::size_t inputs = static_cast<std::size_t>(options_.inputs_per_unit);
    std::vector<std::vector<Word>> phis(n);
    std::vector<std::int8_t> state_colours(n);
    std::vector<int> order(n);

    for (int c = 0; c < colours_ && !Done(); ++c) {
      std::vector<int> units_of_colour;
      for (int unit = 0; unit < units_; ++unit) {
        if (initial_->UnitColour(unit) == c) {
          units_of_colour.push_back(unit);
        }
      }
      // State i's signature: NEXTOP (states of colour c only) and the words
      // of effects[i * stride ..]: Φ^c after the operation (empty unless the
      // state has colour c), then per unit of colour c, Φ^c after each
      // input, Φ^c after the unit's step and the output that step drains.
      // Freed at the end of the colour.
      const std::size_t stride = 1 + units_of_colour.size() * (inputs + 2);
      std::vector<OperationId> next_ops(n);
      std::vector<std::vector<Word>> effects(n * stride);
      pool_.ParallelFor(n, ThreadPool::AdaptiveGrain(n, pool_.size()), [&](std::size_t i) {
        Scratch& sc = ScratchHere();
        store_->MaterializeState(canon_to_packed_[i], sc.refs, sc.key);
        Restore(*sc.base, sc.key, sc);
        state_colours[i] = static_cast<std::int8_t>(sc.base->Colour());
        phis[i].clear();
        sc.base->AppendAbstract(c, phis[i]);
        std::vector<Word>* effect = &effects[i * stride];
        if (state_colours[i] == c) {
          next_ops[i] = sc.base->NextOperation();
          sc.base->ExecuteOperation();
          sc.base->AppendAbstract(c, *effect);
        }
        ++effect;
        for (const int unit : units_of_colour) {
          for (std::size_t value = 1; value <= inputs; ++value) {
            Restore(*sc.base, sc.key, sc);
            sc.base->InjectInput(unit, static_cast<Word>(value));
            sc.base->AppendAbstract(c, *effect++);
          }
          Restore(*sc.base, sc.key, sc);
          sc.base->StepUnit(unit);
          sc.base->AppendAbstract(c, *effect++);
          *effect++ = sc.base->DrainOutput(unit);
        }
      });
      sim_restores_ += n * (1 + units_of_colour.size() * (inputs + 1));

      for (std::size_t i = 0; i < n; ++i) {
        order[i] = static_cast<int>(i);
      }
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        if (phis[static_cast<std::size_t>(a)] != phis[static_cast<std::size_t>(b)]) {
          return phis[static_cast<std::size_t>(a)] < phis[static_cast<std::size_t>(b)];
        }
        return a < b;
      });

      // The checks of one pair, in the serial checker's order.
      auto check_pair = [&](std::size_t a, std::size_t b) {
        auto check = [&](int cond, bool same, auto describe) {
          ++report_.conditions[static_cast<std::size_t>(cond)].checks;
          if (!same) {
            CountViolation(cond, c, describe());
          }
        };
        const std::vector<Word>* ea = &effects[a * stride];
        const std::vector<Word>* eb = &effects[b * stride];
        if (state_colours[a] == c && state_colours[b] == c) {
          check(6, next_ops[a] == next_ops[b], [&] {
            return Format("NEXTOP differs for Φ-equal states of colour %d: %s vs %s", c,
                          next_ops[a].ToString().c_str(), next_ops[b].ToString().c_str());
          });
          check(1, *ea == *eb, [&] {
            return Format("operation effect on colour %d differs across Φ-equal states", c);
          });
        }
        ++ea;
        ++eb;
        for (std::size_t u = 0; u < units_of_colour.size(); ++u) {
          for (std::size_t value = 1; value <= inputs; ++value) {
            check(3, *ea++ == *eb++, [&] {
              return Format("input effect on colour %d differs across Φ-equal states", c);
            });
          }
          check(3, *ea++ == *eb++, [&] {
            return Format("unit activity on colour %d differs across Φ-equal states", c);
          });
          check(5, *ea++ == *eb++, [&] {
            return Format("output of colour %d differs across Φ-equal states", c);
          });
        }
      };

      for (std::size_t begin = 0; begin < n;) {
        std::size_t end = begin + 1;
        while (end < n && phis[static_cast<std::size_t>(order[end])] ==
                              phis[static_cast<std::size_t>(order[begin])]) {
          ++end;
        }
        std::size_t pairs = 0;
        for (std::size_t a = begin; a < end; ++a) {
          for (std::size_t b = a + 1; b < end; ++b) {
            if (++pairs > options_.max_pairs_per_group) {
              break;
            }
            if (Done()) {
              return;
            }
            ++report_.pairs_checked;
            check_pair(static_cast<std::size_t>(order[a]), static_cast<std::size_t>(order[b]));
          }
        }
        begin = end;
      }
    }
  }

  const ExhaustiveOptions& options_;
  std::unique_ptr<SharedSystem> initial_;
  std::unique_ptr<ShardedStateStore> store_;
  int colours_ = 0;
  int units_ = 0;
  std::size_t fanout_ = 0;
  ThreadPool pool_;
  std::vector<Scratch> scratch_;
  std::vector<WorkerLog> logs_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> fail_count_{0};

  // Merge-thread-only canonical state.
  std::array<std::vector<std::int64_t>, kShardCount> canon_of_;   // packed -> canon id
  std::array<std::vector<std::int64_t>, kShardCount> locator_;    // packed -> (worker, rec)
  std::vector<std::int32_t> canon_to_packed_;                     // canon id -> packed
  std::vector<std::int32_t> frontier_;                            // canon ids
  std::size_t depth_ = 0;           // BFS levels completed (heartbeat)
  std::uint64_t sim_restores_ = 0;  // deterministic restore count (see top)
  bool overflowed_ = false;
  ExhaustiveReport report_;
};

}  // namespace

std::string ExhaustiveReport::Summary() const {
  std::string out = Format("%zu states, %zu transitions, %zu pairs, %s: ", states_explored,
                           transitions, pairs_checked, complete ? "COMPLETE" : "partial");
  for (int cond = 1; cond <= 6; ++cond) {
    const ConditionStats& s = conditions[static_cast<std::size_t>(cond)];
    out += Format("C%d %llu/%llu ", cond, static_cast<unsigned long long>(s.violations),
                  static_cast<unsigned long long>(s.checks));
  }
  out += Passed() ? "=> SEPARABLE" : "=> VIOLATIONS";
  return out;
}

ExhaustiveReport CheckSeparabilityExhaustive(const SharedSystem& system,
                                             const ExhaustiveOptions& options) {
  return ExhaustiveRun(system, options).Run();
}

}  // namespace sep
