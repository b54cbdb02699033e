// Outside-in instrumentation for the end-to-end workflow benchmark.
//
// Every span is recorded by the benchmark around a call into one of the library's
// public interfaces: a tool entry point (ImportFastqToAgd, RunPersonaAlignment, ...),
// an ObjectStore operation above or below the CacheStore, or Aligner::AlignBatch.
// Nothing inside src/ is changed; a layer's time is the time its public calls took
// as their caller saw it. Spans stay in memory until the run ends and can be written
// as a Chrome trace-event file (chrome://tracing, Perfetto).

#ifndef PERSONA_BENCH_E2E_INSTRUMENT_H_
#define PERSONA_BENCH_E2E_INSTRUMENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/align/aligner.h"
#include "src/storage/object_store.h"
#include "src/util/mutex.h"
#include "src/util/status.h"

namespace persona::bench_e2e {

// One timed call. `cat` and `name` point at string literals.
struct Span {
  const char* cat = "";   // "tool", "store" (above the cache), "device" (below), "align"
  const char* name = "";  // tool or operation name
  uint32_t tid = 0;       // small per-thread id, for the trace viewer
  int64_t start_ns = 0;   // since the tracer's epoch
  int64_t dur_ns = 0;
  uint64_t bytes = 0;     // payload bytes (store ops) or bases (AlignBatch)
  uint64_t items = 0;     // ops in a batch call, or reads in an AlignBatch
};

// Dense id of the calling thread (1, 2, ... in first-use order).
uint32_t CurrentThreadId();

// In-memory span log with one steady-clock epoch. Recording is off until Enable(true);
// while off, the decorators below cost one relaxed load per call.
class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  void Record(const Span& span) EXCLUDES(mu_);
  size_t size() const EXCLUDES(mu_);
  // Copies of the spans recorded at positions [begin, end).
  std::vector<Span> Range(size_t begin, size_t end) const EXCLUDES(mu_);

  // Writes every span as a Chrome trace-event JSON document.
  Status WriteChromeTrace(const std::string& path) const EXCLUDES(mu_);

 private:
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  mutable Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

// ObjectStore decorator that records one span per call. One instance sits above the
// CacheStore (side "store": what the tools asked for) and one below it (side
// "device": what reached the simulated cluster). SubmitAsync spans cover submission
// only; the transfer itself completes on the wrapped store's threads.
class TimedStore final : public storage::ObjectStore {
 public:
  // `base` and `tracer` are borrowed and must outlive this store.
  TimedStore(storage::ObjectStore* base, const char* side, Tracer* tracer)
      : base_(base), side_(side), tracer_(tracer) {}

  using ObjectStore::Put;
  Status Put(const std::string& key, std::span<const uint8_t> data) override;
  Status Get(const std::string& key, Buffer* out) override;
  Result<uint64_t> Size(const std::string& key) override;
  Status Delete(const std::string& key) override;
  bool Exists(const std::string& key) override;
  Result<std::vector<std::string>> List(std::string_view prefix) override;
  storage::StoreStats stats() const override { return base_->stats(); }

  Status PutBatch(std::span<storage::PutOp> ops) override;
  Status GetBatch(std::span<storage::GetOp> ops) override;
  Status DeleteBatch(std::span<storage::DeleteOp> ops) override;
  storage::IoTicket SubmitAsync(std::span<storage::PutOp> puts,
                                std::span<storage::GetOp> gets) override;

  bool CachesReads() const override { return base_->CachesReads(); }
  void Prefetch(std::span<const std::string> keys) override;

 private:
  class Call;

  storage::ObjectStore* base_;
  const char* side_;
  Tracer* tracer_;
};

// Aligner decorator that records one span per AlignBatch (bytes = bases, items =
// reads). Every other call forwards untimed.
class TimedAligner final : public align::Aligner {
 public:
  // `base` and `tracer` are borrowed and must outlive this aligner.
  TimedAligner(const align::Aligner* base, Tracer* tracer) : base_(base), tracer_(tracer) {}

  std::string_view name() const override { return base_->name(); }
  align::AlignmentResult Align(const genome::Read& read,
                               align::AlignProfile* profile) const override {
    return base_->Align(read, profile);
  }
  std::unique_ptr<align::AlignerScratch> MakeScratch() const override {
    return base_->MakeScratch();
  }
  void AlignBatch(std::span<const genome::Read> reads,
                  std::span<align::AlignmentResult> results, align::AlignerScratch* scratch,
                  align::AlignProfile* profile) const override;
  std::pair<align::AlignmentResult, align::AlignmentResult> AlignPair(
      const genome::Read& read1, const genome::Read& read2,
      align::AlignProfile* profile) const override {
    return base_->AlignPair(read1, read2, profile);
  }

 private:
  const align::Aligner* base_;
  Tracer* tracer_;
};

}  // namespace persona::bench_e2e

#endif  // PERSONA_BENCH_E2E_INSTRUMENT_H_
