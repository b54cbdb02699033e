#include "bench_e2e/instrument.h"

#include <algorithm>

#include "src/util/file_util.h"
#include "src/util/json.h"

namespace persona::bench_e2e {

uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void Tracer::Record(const Span& span) {
  MutexLock lock(mu_);
  spans_.push_back(span);
}

size_t Tracer::size() const {
  MutexLock lock(mu_);
  return spans_.size();
}

std::vector<Span> Tracer::Range(size_t begin, size_t end) const {
  MutexLock lock(mu_);
  end = std::min(end, spans_.size());
  if (begin >= end) {
    return {};
  }
  return std::vector<Span>(spans_.begin() + static_cast<std::ptrdiff_t>(begin),
                           spans_.begin() + static_cast<std::ptrdiff_t>(end));
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  json::Array events;
  {
    MutexLock lock(mu_);
    events.reserve(spans_.size());
    for (const Span& span : spans_) {
      json::Object args;
      args["bytes"] = json::Value(span.bytes);
      args["items"] = json::Value(span.items);
      json::Object event;
      event["name"] = json::Value(span.name);
      event["cat"] = json::Value(span.cat);
      event["ph"] = json::Value("X");
      event["pid"] = json::Value(1);
      event["tid"] = json::Value(static_cast<int64_t>(span.tid));
      event["ts"] = json::Value(static_cast<double>(span.start_ns) / 1e3);
      event["dur"] = json::Value(static_cast<double>(span.dur_ns) / 1e3);
      event["args"] = json::Value(std::move(args));
      events.emplace_back(std::move(event));
    }
  }
  json::Object doc;
  doc["traceEvents"] = json::Value(std::move(events));
  doc["displayTimeUnit"] = json::Value("ms");
  return WriteStringToFile(path, json::Value(std::move(doc)).Dump());
}

// Times one store call: opens at construction when tracing is on, records on
// destruction with whatever `bytes` the call body filled in.
class TimedStore::Call {
 public:
  Call(const TimedStore* store, const char* op, uint64_t items)
      : store_(store),
        op_(op),
        items_(items),
        start_ns_(store->tracer_->enabled() ? store->tracer_->NowNs() : -1) {}
  ~Call() {
    if (start_ns_ >= 0) {
      Tracer* tracer = store_->tracer_;
      tracer->Record({store_->side_, op_, CurrentThreadId(), start_ns_,
                      tracer->NowNs() - start_ns_, bytes, items_});
    }
  }

  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;

  uint64_t bytes = 0;

 private:
  const TimedStore* store_;
  const char* op_;
  uint64_t items_;
  int64_t start_ns_;
};

Status TimedStore::Put(const std::string& key, std::span<const uint8_t> data) {
  Call call(this, "put", 1);
  call.bytes = data.size();
  return base_->Put(key, data);
}

Status TimedStore::Get(const std::string& key, Buffer* out) {
  Call call(this, "get", 1);
  Status status = base_->Get(key, out);
  call.bytes = out->size();
  return status;
}

Result<uint64_t> TimedStore::Size(const std::string& key) {
  Call call(this, "size", 1);
  return base_->Size(key);
}

Status TimedStore::Delete(const std::string& key) {
  Call call(this, "delete", 1);
  return base_->Delete(key);
}

bool TimedStore::Exists(const std::string& key) {
  Call call(this, "exists", 1);
  return base_->Exists(key);
}

Result<std::vector<std::string>> TimedStore::List(std::string_view prefix) {
  Call call(this, "list", 1);
  return base_->List(prefix);
}

Status TimedStore::PutBatch(std::span<storage::PutOp> ops) {
  Call call(this, "put_batch", ops.size());
  for (const storage::PutOp& op : ops) {
    call.bytes += op.data.size();
  }
  return base_->PutBatch(ops);
}

Status TimedStore::GetBatch(std::span<storage::GetOp> ops) {
  Call call(this, "get_batch", ops.size());
  Status status = base_->GetBatch(ops);
  for (const storage::GetOp& op : ops) {
    call.bytes += op.out->size();
  }
  return status;
}

Status TimedStore::DeleteBatch(std::span<storage::DeleteOp> ops) {
  Call call(this, "delete_batch", ops.size());
  return base_->DeleteBatch(ops);
}

storage::IoTicket TimedStore::SubmitAsync(std::span<storage::PutOp> puts,
                                          std::span<storage::GetOp> gets) {
  Call call(this, "submit_async", puts.size() + gets.size());
  for (const storage::PutOp& op : puts) {
    call.bytes += op.data.size();
  }
  return base_->SubmitAsync(puts, gets);
}

void TimedStore::Prefetch(std::span<const std::string> keys) {
  Call call(this, "prefetch", keys.size());
  base_->Prefetch(keys);
}

void TimedAligner::AlignBatch(std::span<const genome::Read> reads,
                              std::span<align::AlignmentResult> results,
                              align::AlignerScratch* scratch,
                              align::AlignProfile* profile) const {
  if (!tracer_->enabled()) {
    base_->AlignBatch(reads, results, scratch, profile);
    return;
  }
  const int64_t start_ns = tracer_->NowNs();
  base_->AlignBatch(reads, results, scratch, profile);
  const int64_t dur_ns = tracer_->NowNs() - start_ns;
  uint64_t bases = 0;
  for (const genome::Read& read : reads) {
    bases += read.bases.size();
  }
  tracer_->Record({"align", "align_batch", CurrentThreadId(), start_ns, dur_ns, bases,
                   reads.size()});
}

}  // namespace persona::bench_e2e
