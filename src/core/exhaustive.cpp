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
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace sep {

namespace {

// The checker is parallel but its report is deterministic by construction.
//
// Exploration is a level-synchronous BFS driven by the calling thread. Each
// kLevelChunk-state chunk of the current level is expanded by one parallel
// loop whose task is one (state, successor ordinal) pair: restore the state
// into the worker's scratch system, apply the operation, the input or the
// unit step, evaluate the transition's checks of conditions (2) and (4),
// serialize the successor and intern it into a sharded content-addressed
// store (ShardedStateStore below). Each task writes only its own slot. The
// calling thread then merges the chunk's slots in serial order: FIFO
// canonical ids, the state budget checked before a state is admitted, the
// max_violations cut and one heartbeat per level. The merge sees the same
// slots at every thread count, so ids, violation order, truncation points
// and counters never depend on the schedule. A state's packed id does (it
// is shard-local), which is why the report only ever shows canonical ids.
//
// Pair checking needs no schedule of its own: one parallel pass per colour
// computes every state's effect signature, and the merge thread compares
// stored signatures pair by pair (CheckPairs).
//
// restore_count is the number of RestoreFullState calls made: one per
// successor of every dispatched state, plus the signature passes' fixed
// number per state. Every dispatched chunk is expanded exactly once, so the
// count is the same at every thread count.
//
// No live SharedSystem is retained per explored state. Each state exists
// only as its serialized FullState() words; workers reconstruct live
// machines on demand (RestoreFullState) into per-worker scratch instances.

constexpr std::size_t kChunkWords = 64;
// States expanded per parallel loop and then merged. The goldens pin its
// stop semantics (restore counts, truncation points).
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
// the state SET — identical for every interleaving of concurrent interns.
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

  // Single-threaded. A new store holding only `states` (packed ids here,
  // rewritten in place to their ids in the new store), interned in that
  // order. Stored hashes are reused and each chunk is copied once, so no
  // word is hashed or compared again.
  std::unique_ptr<ShardedStateStore> CopyStates(std::vector<std::int32_t>& states) const {
    auto copy = std::make_unique<ShardedStateStore>();
    std::array<std::vector<std::int64_t>, kShardCount> copied_chunk;  // our ref -> copy's
    for (std::size_t s = 0; s < kShardCount; ++s) {
      copied_chunk[s].assign(chunk_data_[s].hashes.size(), -1);
    }
    std::vector<std::uint32_t> refs;
    for (std::int32_t& packed : states) {
      const StateShardData& sd = state_data_[ShardOfId(packed)];
      const std::size_t local = LocalOfId(packed);
      refs.clear();
      for (std::uint32_t i = sd.ref_offsets[local]; i < sd.ref_offsets[local + 1]; ++i) {
        const std::int32_t ref = static_cast<std::int32_t>(sd.chunk_refs[i]);
        const ChunkShardData& cd = chunk_data_[ShardOfId(ref)];
        const std::size_t cl = LocalOfId(ref);
        std::int64_t& mapped = copied_chunk[ShardOfId(ref)][cl];
        if (mapped < 0) {
          mapped = copy->InternChunk(cd.hashes[cl], cd.words.data() + cd.offsets[cl],
                                     cd.offsets[cl + 1] - cd.offsets[cl]);
        }
        refs.push_back(static_cast<std::uint32_t>(mapped));
      }
      const InternedState interned =
          copy->InternState(sd.hashes[local], refs.data(), refs.size(), sd.lens[local]);
      SEP_CHECK(interned.fresh);
      packed = interned.id;
    }
    return copy;
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

// One successor's outcome. Written by exactly one task of a chunk's parallel
// loop, read by the merge thread after the loop's barrier.
struct SuccessorSlot {
  std::int32_t id = -1;          // packed id of the successor
  std::uint32_t checks = 0;      // checks evaluated
  std::vector<Violation> fails;  // failed checks, in evaluation order
};

class ExhaustiveRun {
 public:
  ExhaustiveRun(const SharedSystem& initial, const ExhaustiveOptions& options)
      : options_(options),
        initial_(initial.Clone()),
        store_(std::make_unique<ShardedStateStore>()),
        pool_(options.threads) {
    scratch_.resize(static_cast<std::size_t>(pool_.size()));
    colours_ = initial_->ColourCount();
    units_ = initial_->UnitCount();
    // Successors per expansion: the operation, each input value into each
    // unit, each unit's activity.
    input_successors_ =
        static_cast<std::size_t>(units_) * static_cast<std::size_t>(options_.inputs_per_unit);
    fanout_ = 1 + input_successors_ + static_cast<std::size_t>(units_);
    slots_.resize(kLevelChunk * fanout_);
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

    Explore(Intern(ScratchHere(), *init_key));
    if (canon_to_packed_.size() != store_->states()) {
      // A cut run's last chunk interned successors the merge never admitted.
      // Rebuild the store with only the admitted states, in canonical order,
      // so peak_state_bytes is a function of them alone. The worker chunk
      // caches hold refs into the old store; nothing interns after this
      // point, so they are never consulted again.
      store_ = store_->CopyStates(canon_to_packed_);
    }
    store_->Freeze();
    if (report_.complete || canon_to_packed_.size() <= options_.max_states) {
      CheckPairs();
    }

    report_.states_explored = canon_to_packed_.size();
    report_.peak_state_bytes = store_->bytes();
    report_.shard_max_load = store_->shard_max_load();
    for (const Scratch& sc : scratch_) {
      report_.restore_count += sc.restores;
    }
    // Gauges are always on (like every other module's counters); only the
    // trace recorder is gated by obs::Enabled().
    obs::Metrics().GetGauge("exhaustive.states").Set(report_.states_explored);
    obs::Metrics().GetGauge("exhaustive.transitions").Set(report_.transitions);
    obs::Metrics().GetGauge("exhaustive.pairs_checked").Set(report_.pairs_checked);
    obs::Metrics().GetGauge("exhaustive.restore_count").Set(report_.restore_count);
    obs::Metrics().GetGauge("exhaustive.peak_state_bytes").Set(report_.peak_state_bytes);
    obs::Metrics().GetGauge("exhaustive.shard_max_load").Set(report_.shard_max_load);
    // Per-worker restores show how the pool shared the work.
    for (std::size_t w = 0; w < scratch_.size(); ++w) {
      obs::Metrics()
          .GetGauge(Format("exhaustive.worker%zu.restores", w))
          .Set(scratch_[w].restores);
    }
    return std::move(report_);
  }

 private:
  // Per-worker scratch: one live system reconstructed on demand plus the
  // reusable buffers of every hot loop. Indexed by the pool's worker index;
  // never touched by two threads at once.
  struct Scratch {
    std::unique_ptr<SharedSystem> sys;  // restored per successor / signature
    std::vector<Word> key;              // materialized serialization
    // Exploration only: the packed id whose serialization `key` holds, its
    // active colour and its per-colour Φ. A worker's consecutive tasks are
    // mostly successors of one state, so these are reused across them.
    std::int32_t from = -1;
    int active = kColourNone;
    std::vector<std::vector<Word>> before_phi;
    std::vector<Word> ser;                   // successor serialization scratch
    std::vector<Word> phi;                   // abstraction scratch
    std::vector<std::uint32_t> refs;         // chunk-ref scratch (materialize)
    std::vector<std::uint32_t> intern_refs;  // chunk-ref scratch (intern)
    ChunkCache cache;
    std::uint64_t restores = 0;
  };

  Scratch& ScratchHere() {
    Scratch& sc = scratch_[static_cast<std::size_t>(ThreadPool::CurrentWorkerIndex())];
    if (sc.sys == nullptr) {
      sc.sys = initial_->Clone();
      sc.before_phi.resize(static_cast<std::size_t>(colours_));
    }
    return sc;
  }

  static void Restore(SharedSystem& sys, std::span<const Word> key, Scratch& sc) {
    const bool ok = sys.RestoreFullState(key);
    SEP_CHECK(ok);
    ++sc.restores;
  }

  // Chunks `key` and interns the state; any thread.
  std::int32_t Intern(Scratch& sc, const std::vector<Word>& key) {
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

  // One task of a chunk's parallel loop: successor `ordinal` of state
  // `from`. Ordinal 0 is the operation, then come each input value into
  // each unit, then each unit's activity; the merge counts them in that
  // order.
  void ExpandSuccessor(std::int32_t from, std::size_t ordinal, SuccessorSlot& slot) {
    Scratch& sc = ScratchHere();
    SharedSystem& sys = *sc.sys;
    const bool fresh_from = sc.from != from;
    if (fresh_from) {
      store_->MaterializeState(from, sc.refs, sc.key);
      sc.from = from;
    }
    Restore(sys, sc.key, sc);
    if (fresh_from) {
      sc.active = sys.Colour();
      for (int c = 0; c < colours_; ++c) {
        sc.before_phi[static_cast<std::size_t>(c)].clear();
        sys.AppendAbstract(c, sc.before_phi[static_cast<std::size_t>(c)]);
      }
    }

    // Apply the transition. It must leave Φ of every colour but `exempt`
    // unchanged: condition (2) for the operation, (4) for inputs and unit
    // activity.
    int condition = 4;
    int exempt = kColourNone;
    int unit = 0;
    if (ordinal == 0) {
      condition = 2;
      exempt = sc.active;
      sys.ExecuteOperation();
    } else if (ordinal <= input_successors_) {
      const std::size_t inputs = static_cast<std::size_t>(options_.inputs_per_unit);
      unit = static_cast<int>((ordinal - 1) / inputs);
      exempt = initial_->UnitColour(unit);
      sys.InjectInput(unit, static_cast<Word>((ordinal - 1) % inputs + 1));
    } else {
      unit = static_cast<int>(ordinal - 1 - input_successors_);
      exempt = initial_->UnitColour(unit);
      sys.StepUnit(unit);
      (void)sys.DrainOutput(unit);  // keep the state space bounded
    }

    // The number of checks is not a pure function of the ordinal: a state
    // whose active colour is outside the regime range (e.g. kernel mode) is
    // checked against every colour, not colours-1 of them.
    slot.checks = 0;
    slot.fails.clear();
    for (int c = 0; c < colours_; ++c) {
      if (c == exempt) {
        continue;
      }
      ++slot.checks;
      sc.phi.clear();
      sys.AppendAbstract(c, sc.phi);
      if (sc.phi == sc.before_phi[static_cast<std::size_t>(c)]) {
        continue;
      }
      std::string description;
      if (ordinal == 0) {
        description = Format("operation of colour %d changed Φ of colour %d", exempt, c);
      } else if (ordinal <= input_successors_) {
        description = Format("input to unit %d visible to colour %d", unit, c);
      } else {
        description = Format("activity of unit %d visible to colour %d", unit, c);
      }
      slot.fails.push_back({condition, c, 0, std::move(description)});
    }

    sc.ser.clear();
    sys.AppendFullState(sc.ser);
    slot.id = Intern(sc, sc.ser);
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

  // The level-synchronous BFS. Canonical ids are assigned in FIFO order;
  // the state budget is checked before a state is admitted; Done() is
  // checked per state, never inside one state's successor list.
  void Explore(std::int32_t initial_id) {
    // Whether a packed id has a canonical id yet, per shard by shard-local
    // id; grown lazily, since the store interns ahead of the merge.
    std::array<std::vector<std::uint8_t>, kShardCount> admitted_by_shard;
    auto admitted = [&](std::int32_t packed) -> std::uint8_t& {
      std::vector<std::uint8_t>& shard = admitted_by_shard[ShardOfId(packed)];
      const std::size_t local = LocalOfId(packed);
      if (local >= shard.size()) {
        shard.resize(local + 1, 0);
      }
      return shard[local];
    };
    admitted(initial_id) = 1;
    canon_to_packed_.push_back(initial_id);
    std::vector<std::int32_t> frontier{initial_id};  // packed ids
    std::vector<std::int32_t> level;
    std::size_t depth = 0;
    bool overflowed = false;
    while (!frontier.empty() && !Done() && !overflowed) {
      level.swap(frontier);
      frontier.clear();

      // One heartbeat per BFS level: tick carries the canonical store size
      // (states may exceed a Word), a0/a1 the saturated level width/depth.
      if (obs::Enabled()) {
        obs::Emit(obs::Category::kChecker, obs::Code::kHeartbeat, obs::kColourKernel,
                  canon_to_packed_.size(), SaturateWord(level.size()), SaturateWord(depth++));
      }

      for (std::size_t base = 0; base < level.size() && !Done() && !overflowed;
           base += kLevelChunk) {
        const std::size_t count = std::min(kLevelChunk, level.size() - base);
        const std::size_t tasks = count * fanout_;
        pool_.ParallelFor(tasks, ThreadPool::AdaptiveGrain(tasks, pool_.size()),
                          [&](std::size_t t) {
                            ExpandSuccessor(level[base + t / fanout_], t % fanout_, slots_[t]);
                          });
        for (std::size_t i = 0; i < count && !Done() && !overflowed; ++i) {
          for (std::size_t ord = 0; ord < fanout_; ++ord) {
            const SuccessorSlot& slot = slots_[i * fanout_ + ord];
            ++report_.transitions;
            report_.conditions[ord == 0 ? 2 : 4].checks += slot.checks;
            for (const Violation& v : slot.fails) {
              CountViolation(v.condition, v.colour, v.description);
            }
            std::uint8_t& is_admitted = admitted(slot.id);
            if (is_admitted == 0) {
              if (canon_to_packed_.size() >= options_.max_states) {
                overflowed = true;
                break;
              }
              is_admitted = 1;
              canon_to_packed_.push_back(slot.id);
              frontier.push_back(slot.id);
            }
          }
        }
      }
    }
    report_.complete = frontier.empty() && !overflowed && !Done();
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
        Restore(*sc.sys, sc.key, sc);
        state_colours[i] = static_cast<std::int8_t>(sc.sys->Colour());
        phis[i].clear();
        sc.sys->AppendAbstract(c, phis[i]);
        std::vector<Word>* effect = &effects[i * stride];
        if (state_colours[i] == c) {
          next_ops[i] = sc.sys->NextOperation();
          sc.sys->ExecuteOperation();
          sc.sys->AppendAbstract(c, *effect);
        }
        ++effect;
        for (const int unit : units_of_colour) {
          for (std::size_t value = 1; value <= inputs; ++value) {
            Restore(*sc.sys, sc.key, sc);
            sc.sys->InjectInput(unit, static_cast<Word>(value));
            sc.sys->AppendAbstract(c, *effect++);
          }
          Restore(*sc.sys, sc.key, sc);
          sc.sys->StepUnit(unit);
          sc.sys->AppendAbstract(c, *effect++);
          *effect++ = sc.sys->DrainOutput(unit);
        }
      });

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
  std::size_t input_successors_ = 0;  // successors 1..input_successors_ inject inputs
  std::size_t fanout_ = 0;
  ThreadPool pool_;
  std::vector<Scratch> scratch_;
  std::vector<SuccessorSlot> slots_;  // one chunk's tasks, state-major

  std::vector<std::int32_t> canon_to_packed_;  // canonical id -> packed id (merge thread)
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
