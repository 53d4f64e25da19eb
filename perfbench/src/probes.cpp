#include "perfbench/src/probes.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace perfbench {

std::int64_t TimerOverheadNs() {
  static const std::int64_t overhead = [] {
    std::vector<std::int64_t> samples(1001);
    for (std::int64_t& s : samples) {
      const std::int64_t t0 = NowNs();
      s = NowNs() - t0;
    }
    std::nth_element(samples.begin(), samples.begin() + 500, samples.end());
    return samples[500];
  }();
  return overhead;
}

void ClientProxy::OnTrap(const sep::TrapInfo& info) {
  int slot = kTrapSlotFault;
  if (info.kind == sep::TrapInfo::Kind::kTrapInstruction && info.code < kTrapSlotFault) {
    slot = info.code;
  }
  const std::int64_t t0 = NowNs();
  inner_.OnTrap(info);
  tally_.traps[static_cast<std::size_t>(slot)].AddTimed(NowNs() - t0);
}

void ClientProxy::OnInterrupt(int device_index) {
  const std::int64_t t0 = NowNs();
  inner_.OnInterrupt(device_index);
  tally_.irq.AddTimed(NowNs() - t0);
}

bool ClientProxy::OnBeforeExecute() {
  Tally& t = tally_.before_execute;
  if (t.calls % kSampleEvery != 0) {
    ++t.calls;
    return inner_.OnBeforeExecute();
  }
  const std::int64_t t0 = NowNs();
  const bool worked = inner_.OnBeforeExecute();
  t.AddTimed(NowNs() - t0);
  return worked;
}

DeviceProbe::DeviceProbe(std::unique_ptr<sep::Device> inner, DeviceTally& tally)
    : Device(inner->name(), inner->vector(), inner->priority(), inner->register_count()),
      inner_(std::move(inner)),
      tally_(tally) {
  set_owner(inner_->owner());
}

std::unique_ptr<sep::Device> DeviceProbe::Clone() const {
  auto copy = std::make_unique<DeviceProbe>(inner_->Clone(), tally_);
  CloneBaseInto(*copy);
  return copy;
}

void DeviceProbe::SyncDown() {
  while (!rx_from_env_.empty()) {
    inner_->InjectInput(rx_from_env_.front());
    rx_from_env_.pop_front();
  }
}

void DeviceProbe::SyncUp() {
  if (inner_->pending_output() != 0) {
    for (sep::Word w : inner_->DrainOutput()) {
      tx_to_env_.push_back(w);
    }
  }
  if (inner_->interrupt_pending()) {
    inner_->ClearInterrupt();
    RaiseInterrupt();
  }
}

sep::Word DeviceProbe::ReadRegister(int offset) {
  ++tally_.register_accesses;
  SyncDown();
  const sep::Word value = inner_->ReadRegister(offset);
  SyncUp();
  return value;
}

void DeviceProbe::WriteRegister(int offset, sep::Word value) {
  ++tally_.register_accesses;
  SyncDown();
  inner_->WriteRegister(offset, value);
  SyncUp();
}

void DeviceProbe::Step() {
  SyncDown();
  Tally& t = tally_.steps;
  if (t.calls % kSampleEvery != 0) {
    ++t.calls;
    inner_->Step();
  } else {
    const std::int64_t t0 = NowNs();
    inner_->Step();
    t.AddTimed(NowNs() - t0);
  }
  SyncUp();
}

std::vector<sep::Word> DeviceProbe::SnapshotState() const {
  std::vector<sep::Word> out = inner_->SnapshotState();
  AppendQueue(out, rx_from_env_);
  AppendQueue(out, tx_to_env_);
  return out;
}

void CheckerCounts::Merge(const CheckerCounts& other) {
  for (int i = 0; i < kCheckerOps; ++i) {
    calls[static_cast<std::size_t>(i)] += other.calls[static_cast<std::size_t>(i)];
    ns[static_cast<std::size_t>(i)] += other.ns[static_cast<std::size_t>(i)];
  }
}

namespace {

std::atomic<std::uint64_t> g_next_tally_id{1};

// Times one forwarded call into the calling thread's block.
class OpTimer {
 public:
  OpTimer(CheckerTally& tally, CheckerOp op) : tally_(tally), op_(op), t0_(NowNs()) {}
  ~OpTimer() {
    CheckerCounts& c = tally_.Local();
    ++c.calls[static_cast<std::size_t>(op_)];
    c.ns[static_cast<std::size_t>(op_)] += NowNs() - t0_ - TimerOverheadNs();
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  CheckerTally& tally_;
  CheckerOp op_;
  std::int64_t t0_;
};

}  // namespace

CheckerTally::CheckerTally() : id_(g_next_tally_id.fetch_add(1)) {}

CheckerCounts& CheckerTally::Local() {
  // Tallies are identified by a never-reused id, so a thread that outlives
  // one tally cannot write into a block of a later tally at the same address.
  thread_local std::uint64_t owner = 0;
  thread_local CheckerCounts* block = nullptr;
  if (owner != id_) {
    std::lock_guard<std::mutex> lock(mutex_);
    blocks_.emplace_back();
    block = &blocks_.back();
    owner = id_;
  }
  return *block;
}

CheckerCounts CheckerTally::Sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CheckerCounts total;
  for (const CheckerCounts& c : blocks_) {
    total.Merge(c);
  }
  return total;
}

std::unique_ptr<sep::SharedSystem> SystemProbe::Clone() const {
  std::unique_ptr<sep::SharedSystem> copy;
  {
    OpTimer timer(tally_, kOpClone);
    copy = inner_->Clone();
  }
  return std::make_unique<SystemProbe>(std::move(copy), tally_);
}

void SystemProbe::ExecuteOperation() {
  OpTimer timer(tally_, kOpExecute);
  inner_->ExecuteOperation();
}

void SystemProbe::StepUnit(int unit) {
  OpTimer timer(tally_, kOpExecute);
  inner_->StepUnit(unit);
}

sep::AbstractState SystemProbe::Abstract(int colour) const {
  OpTimer timer(tally_, kOpAbstract);
  return inner_->Abstract(colour);
}

void SystemProbe::AppendAbstract(int colour, std::vector<sep::Word>& out) const {
  OpTimer timer(tally_, kOpAbstract);
  inner_->AppendAbstract(colour, out);
}

std::optional<std::vector<sep::Word>> SystemProbe::FullState() const {
  OpTimer timer(tally_, kOpSerialize);
  return inner_->FullState();
}

void SystemProbe::AppendFullState(std::vector<sep::Word>& out) const {
  OpTimer timer(tally_, kOpSerialize);
  inner_->AppendFullState(out);
}

bool SystemProbe::RestoreFullState(std::span<const sep::Word> state) {
  OpTimer timer(tally_, kOpRestore);
  return inner_->RestoreFullState(state);
}

int SpanLog::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::End(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

double SpanLog::TotalSeconds(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      ns += s.end_ns - s.start_ns;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
