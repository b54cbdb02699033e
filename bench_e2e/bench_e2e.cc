// bench_e2e: the paper's workflow end to end, timed through the library's public
// entry points: gzipped FASTQ -> ImportFastqToAgd -> RunPersonaAlignment ->
// SortAgdDataset -> DedupAgdResults -> variant::CallVariantsAgd -> VCF, plus region
// queries (FilterAgdDataset) over the finished dataset.
//
//   bench_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--json PATH] [--trace-json PATH] [--benchmark-json PATH]
//   bench_e2e --quick [--benchmark-json PATH]
//   bench_e2e --compare PARENT.json CHANGE.json [--benchmark-json PATH]
//
// Protocol. A closed loop from this one process: one job at a time, each waiting for
// the previous one (a job is one workflow rep, or one region query). The seed makes
// the donor variants, reads and queries over a fixed reference; the library receives
// only those generated inputs. Set-up runs kSetupRepeats times and reports its
// median. An untimed warm-up follows: an oracle rep on a plain MemoryStore, then one
// rep on the measured store stack (or 20 queries). Jobs then run until --seconds
// have passed, and every job's output is checked against the oracle. Compute runs on
// kThreads threads.
//
// Output. A human report on stderr and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. A traced run alternates untraced
// and traced jobs; layer metrics come from the traced ones, and the two halves give
// the tracing overhead. --quick runs every workload at tiny sizes and checks that
// the output names every metric of BENCHMARK.json (the CTest smoke).

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_e2e/instrument.h"
#include "bench_e2e/report.h"
#include "src/align/accuracy.h"
#include "src/align/bwa_aligner.h"
#include "src/align/snap_aligner.h"
#include "src/dataflow/executor.h"
#include "src/format/agd_chunk.h"
#include "src/genome/generator.h"
#include "src/genome/mutate.h"
#include "src/genome/read_simulator.h"
#include "src/pipeline/agd_store_util.h"
#include "src/pipeline/convert.h"
#include "src/pipeline/dedup.h"
#include "src/pipeline/filter.h"
#include "src/pipeline/persona_pipeline.h"
#include "src/pipeline/sort.h"
#include "src/storage/cache_store.h"
#include "src/storage/ceph_sim.h"
#include "src/storage/memory_store.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"
#include "src/util/simd.h"
#include "src/util/string_util.h"
#include "src/variant/accuracy.h"
#include "src/variant/call_pipeline.h"

extern char** environ;

#ifndef PERSONA_E2E_BUILD_TYPE
#define PERSONA_E2E_BUILD_TYPE "unknown"
#endif
#ifndef PERSONA_E2E_GIT_SHA
#define PERSONA_E2E_GIT_SHA "unknown"
#endif

namespace persona::bench_e2e {
namespace {

constexpr int kThreads = 4;  // Executor, align nodes and sort threads
constexpr int kContigs = 4;
constexpr uint64_t kReferenceSeed = 42;
constexpr int kReadLength = 101;
constexpr int64_t kChunkSize = 2'000;
constexpr int kSetupRepeats = 3;
constexpr int kWarmupQueries = 20;
constexpr int64_t kMinQueryWidth = 1'000;
constexpr int64_t kMaxQueryWidth = 21'000;
constexpr double kMinSpanCoverage = 0.98;
constexpr uint64_t kFastNodeBandwidth = 857'000'000;  // 7 nodes: the paper's 6 GB/s
constexpr uint64_t kSlowNodeBandwidth = 8'000'000;
constexpr const char* kDataset = "sample";
constexpr const char* kQueryDataset = "query";

enum class JobKind { kWorkflow, kAlignOnly, kRegionQueries };

struct Workload {
  const char* name;  // why each workload exists: BENCHMARK.json and README.md
  JobKind kind;
  bool bwa;                 // BwaMemAligner instead of SnapAligner
  int64_t genome_bp;        // kContigs contigs
  double coverage;
  uint64_t node_bandwidth;  // CephSim bytes/s per OSD node
  bool cache;               // a default CacheStore between the tools and CephSim
  // Floor on the warm-up output's quality: PASS-call F1 against the donor truth
  // (workflows) or the fraction of reads placed at their origin (align only). Region
  // queries are checked record for record instead.
  double min_quality;
  double quick_min_quality;  // the same at --quick sizes (5x coverage)
};

// Sizes keep a steady rep between one and three seconds on a 4-core host, so one
// run holds enough reps for a median.
constexpr Workload kWorkloads[] = {
    {"wgs_snap", JobKind::kWorkflow, false, 200'000, 20, kFastNodeBandwidth, true, 0.80,
     0.15},
    {"align_bwa", JobKind::kAlignOnly, true, 200'000, 20, kFastNodeBandwidth, true, 0.90,
     0.90},
    {"wgs_slowstore", JobKind::kWorkflow, false, 100'000, 20, kSlowNodeBandwidth, false,
     0.80, 0.15},
    {"region_reread", JobKind::kRegionQueries, false, 200'000, 20, kFastNodeBandwidth, true,
     0, 0},
};

constexpr int64_t kQuickGenomeBp = 100'000;
constexpr double kQuickCoverage = 5;
constexpr int kQuickQueries = 10;

// ---------------------------------------------------------------------------------
// Inputs (the set-up product).

struct Inputs {
  genome::ReferenceGenome reference;
  genome::DonorGenome donor;
  std::vector<genome::Read> reads;  // haplotype 0's reads, then haplotype 1's
  size_t haplotype0_reads = 0;
  std::unique_ptr<align::SeedIndex> seed_index;
  std::unique_ptr<align::FmIndex> fm_index;
  std::unique_ptr<align::Aligner> aligner;
  storage::MemoryStore fastq;  // "<kDataset>.fastq.gz": sequencer output on local disk
  uint64_t bases = 0;
};

struct Sizes {
  int64_t genome_bp = 0;
  double coverage = 0;
};

Result<std::unique_ptr<Inputs>> MakeInputs(const Workload& workload, const Sizes& sizes,
                                           uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  // The reference is fixed, as a real one is; the seed picks the sample (donor
  // variants and reads) and the queries. A seed-dependent reference would add its
  // repeat structure's effect on aligner work to the run-to-run spread.
  genome::GenomeSpec genome_spec;
  genome_spec.num_contigs = kContigs;
  genome_spec.contig_length = sizes.genome_bp / kContigs;
  genome_spec.seed = kReferenceSeed;
  in->reference = genome::GenerateGenome(genome_spec);

  Rng rng(seed);

  genome::MutationSpec mutation_spec;
  mutation_spec.snv_rate = 1e-3;
  mutation_spec.insertion_rate = 1e-4;
  mutation_spec.deletion_rate = 1e-4;
  mutation_spec.min_spacing = 150;
  mutation_spec.seed = rng.Next();
  in->donor = genome::MutateGenome(in->reference, mutation_spec);

  const size_t per_haplotype = static_cast<size_t>(
      sizes.coverage * static_cast<double>(in->reference.total_length()) / kReadLength / 2);
  for (const genome::ReferenceGenome& haplotype : in->donor.haplotypes) {
    genome::ReadSimSpec read_spec;
    read_spec.read_length = kReadLength;
    read_spec.substitution_rate = 0.003;
    read_spec.duplicate_fraction = 0.05;
    read_spec.seed = rng.Next();
    genome::ReadSimulator simulator(&haplotype, read_spec);
    std::vector<genome::Read> reads = simulator.Simulate(per_haplotype);
    in->reads.insert(in->reads.end(), std::make_move_iterator(reads.begin()),
                     std::make_move_iterator(reads.end()));
  }
  in->haplotype0_reads = per_haplotype;
  for (const genome::Read& read : in->reads) {
    in->bases += read.bases.size();
  }

  if (workload.bwa) {
    PERSONA_ASSIGN_OR_RETURN(align::FmIndex fm_index, align::FmIndex::Build(in->reference));
    in->fm_index = std::make_unique<align::FmIndex>(std::move(fm_index));
    in->aligner =
        std::make_unique<align::BwaMemAligner>(&in->reference, in->fm_index.get());
  } else {
    align::SeedIndexOptions seed_options;
    seed_options.seed_length = 20;
    PERSONA_ASSIGN_OR_RETURN(align::SeedIndex seed_index,
                             align::SeedIndex::Build(in->reference, seed_options));
    in->seed_index = std::make_unique<align::SeedIndex>(std::move(seed_index));
    in->aligner = std::make_unique<align::SnapAligner>(&in->reference, in->seed_index.get());
  }
  PERSONA_RETURN_IF_ERROR(
      pipeline::WriteGzippedFastqToStore(&in->fastq, kDataset, in->reads).status());
  return in;
}

// Reads name their origin in haplotype coordinates, which the donor's indels shift
// against the reference the aligner sees. Returns copies of the reads whose origin
// is lifted back to reference coordinates, for alignment scoring.
std::vector<genome::Read> LiftToReference(const Inputs& in) {
  std::vector<genome::Read> lifted = in.reads;
  for (int hap = 0; hap < 2; ++hap) {
    // Per contig: (first haplotype position of a shift, haplotype-minus-reference
    // offset from there on), in position order.
    std::vector<std::vector<std::pair<int64_t, int64_t>>> shifts(in.reference.num_contigs());
    std::vector<int64_t> offset(in.reference.num_contigs(), 0);
    for (const genome::TrueVariant& variant : in.donor.variants) {
      if ((variant.haplotype_mask & (1u << hap)) == 0 ||
          variant.type == genome::VariantType::kSnv) {
        continue;
      }
      const size_t contig = static_cast<size_t>(variant.contig_index);
      const int64_t anchor = variant.position + offset[contig];
      if (variant.type == genome::VariantType::kInsertion) {
        const int64_t length = static_cast<int64_t>(variant.alt_allele.size()) - 1;
        offset[contig] += length;
        shifts[contig].push_back({anchor + length + 1, offset[contig]});
      } else {
        offset[contig] -= static_cast<int64_t>(variant.ref_allele.size()) - 1;
        shifts[contig].push_back({anchor + 1, offset[contig]});
      }
    }
    const size_t begin = hap == 0 ? 0 : in.haplotype0_reads;
    const size_t end = hap == 0 ? in.haplotype0_reads : in.reads.size();
    for (size_t i = begin; i < end; ++i) {
      auto truth = genome::ParseReadTruth(in.reference, in.reads[i].metadata);
      if (!truth.ok()) {
        continue;
      }
      const auto& contig_shifts = shifts[static_cast<size_t>(truth->contig_index)];
      const auto it = std::upper_bound(contig_shifts.begin(), contig_shifts.end(),
                                       std::pair{truth->position, INT64_MAX});
      const int64_t shift = it == contig_shifts.begin() ? 0 : std::prev(it)->second;
      // "sim:<contig>:<position>:...": replace the position field.
      std::string& metadata = lifted[i].metadata;
      const size_t from = metadata.find(':', metadata.find(':') + 1) + 1;
      metadata.replace(from, metadata.find(':', from) - from,
                       std::to_string(truth->position - shift));
    }
  }
  return lifted;
}

// Returns freed heap to the system between jobs, so each job's peak memory is its
// own rather than the fragmentation left behind by earlier ones.
void TrimHeap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

// glibc malloc arenas for the whole process. With the default (eight per core),
// the fresh pipeline threads of every tool call spread allocations over more
// arenas and RSS grows by about 5 MB per align_bwa rep without bound, so a job's
// peak memory would measure how many jobs ran before it. Two arenas keep it flat
// and cost no measurable throughput.
constexpr int kMallocArenas = 2;

// ---------------------------------------------------------------------------------
// The store stack of one job: [store timer] -> CacheStore? -> [device timer] -> CephSim.

storage::CephSimConfig CephConfig(const Workload& workload) {
  storage::CephSimConfig config;  // 7 OSD nodes, replication 3, 0.5 ms per op
  config.per_node_bandwidth = workload.node_bandwidth;
  return config;
}

struct StoreStack {
  StoreStack(const Workload& workload, Tracer* tracer)
      : device(CephConfig(workload)),
        device_timed(&device, "device", tracer),
        cache(workload.cache ? std::make_unique<storage::CacheStore>(&device_timed) : nullptr),
        top(cache ? static_cast<storage::ObjectStore*>(cache.get()) : &device_timed, "store",
            tracer) {}

  storage::CephSimStore device;
  TimedStore device_timed;
  std::unique_ptr<storage::CacheStore> cache;
  TimedStore top;
};

// ---------------------------------------------------------------------------------
// One job and its record.

struct ToolCall {
  const char* name;
  int64_t start_ns;
  int64_t dur_ns;
};

// Reports of the public calls one job made (the ones its kind runs).
struct JobReports {
  std::optional<pipeline::ConvertReport> import;
  std::optional<pipeline::AlignRunReport> align;
  std::optional<pipeline::SortReport> sort;
  std::optional<pipeline::DedupReport> dedup;
  std::optional<variant::CallPipelineReport> call;
  std::optional<pipeline::FilterReport> filter;
};

struct JobRecord {
  bool traced = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bases = 0;  // input bases the job processed
  double peak_rss_mb = 0;
  std::vector<ToolCall> tools;
  JobReports reports;
  storage::StoreStats device_delta;
  storage::StoreStats cache_delta;
  size_t span_begin = 0;  // tracer positions of this job's spans
  size_t span_end = 0;

  double wall_s() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

template <typename Fn>
auto TimeTool(Tracer* tracer, const char* name, JobRecord* job, Fn&& fn) {
  const int64_t start = tracer->NowNs();
  auto result = fn();
  const int64_t dur = tracer->NowNs() - start;
  job->tools.push_back({name, start, dur});
  if (tracer->enabled()) {
    tracer->Record({"tool", name, CurrentThreadId(), start, dur, 0, 0});
  }
  return result;
}

// The output a workflow leaves: the final dataset's manifest, and the VCF.
struct WorkflowOutput {
  format::Manifest dataset;  // sorted (workflow) or aligned (align only)
  std::string vcf_text;
};

// Runs the workflow's public calls against `store`, recording them in `job`.
Result<WorkflowOutput> RunWorkflow(Inputs& in, storage::ObjectStore* store,
                                   const align::Aligner& aligner, dataflow::Executor* executor,
                                   bool align_only, Tracer* tracer, JobRecord* job) {
  WorkflowOutput out;
  format::Manifest manifest;
  PERSONA_ASSIGN_OR_RETURN(job->reports.import, TimeTool(tracer, "import", job, [&] {
                             return pipeline::ImportFastqToAgd(
                                 store, kDataset, kChunkSize, compress::CodecId::kZlib,
                                 &manifest, {}, &in.fastq);
                           }));

  pipeline::AlignPipelineOptions align_options;
  align_options.align_nodes = kThreads;
  PERSONA_ASSIGN_OR_RETURN(job->reports.align, TimeTool(tracer, "align", job, [&] {
                             return pipeline::RunPersonaAlignment(store, manifest, aligner,
                                                                  executor, align_options);
                           }));
  manifest.columns.push_back(format::ResultsColumn());
  manifest.SetReference(in.reference);
  if (align_only) {
    out.dataset = std::move(manifest);
    return out;
  }

  pipeline::SortOptions sort_options;
  sort_options.sort_threads = kThreads;
  format::Manifest sorted;
  PERSONA_ASSIGN_OR_RETURN(job->reports.sort, TimeTool(tracer, "sort", job, [&] {
                             return pipeline::SortAgdDataset(store, manifest, "sorted",
                                                             sort_options, &sorted);
                           }));
  PERSONA_ASSIGN_OR_RETURN(job->reports.dedup, TimeTool(tracer, "dedup", job, [&] {
                             return pipeline::DedupAgdResults(store, sorted);
                           }));

  variant::CallPipelineOptions call_options;
  call_options.sample_name = "donor";
  call_options.filter.min_qual = 20;
  call_options.filter.min_depth = 6;
  PERSONA_ASSIGN_OR_RETURN(job->reports.call, TimeTool(tracer, "call", job, [&] {
                             return variant::CallVariantsAgd(store, sorted, in.reference,
                                                             call_options);
                           }));
  out.vcf_text = job->reports.call->vcf_text;
  out.dataset = std::move(sorted);
  return out;
}

// ---------------------------------------------------------------------------------
// Output oracle.

// What a job's output must reproduce byte for byte.
struct Fingerprint {
  uint32_t results_crc = 0;  // the final dataset's results column, in chunk order
  uint32_t vcf_crc = 0;

  bool operator==(const Fingerprint&) const = default;
};

// Fetches and parses a dataset's results column; `crc`, when set, accumulates the
// CRC of the column files in chunk order.
Result<std::vector<format::ParsedChunk>> ReadResultsColumn(storage::ObjectStore* store,
                                                           const format::Manifest& dataset,
                                                           uint32_t* crc = nullptr) {
  std::vector<format::ParsedChunk> chunks;
  Buffer file;
  for (size_t i = 0; i < dataset.chunks.size(); ++i) {
    PERSONA_RETURN_IF_ERROR(store->Get(dataset.ChunkFileName(i, "results"), &file));
    if (crc != nullptr) {
      *crc = Crc32Update(*crc, file.span());
    }
    PERSONA_ASSIGN_OR_RETURN(format::ParsedChunk chunk, format::ParsedChunk::Parse(file.span()));
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

Result<Fingerprint> FingerprintOf(storage::ObjectStore* raw, const WorkflowOutput& out) {
  Fingerprint print;
  PERSONA_RETURN_IF_ERROR(ReadResultsColumn(raw, out.dataset, &print.results_crc).status());
  print.vcf_crc = Crc32(out.vcf_text);
  return print;
}

// Expected region-query output: the staged dataset's results records, raw.
struct RegionOracle {
  std::vector<align::AlignmentResult> results;
  std::vector<std::string> raw;
};

Result<RegionOracle> MakeRegionOracle(storage::ObjectStore* raw_store,
                                      const format::Manifest& dataset) {
  PERSONA_ASSIGN_OR_RETURN(std::vector<format::ParsedChunk> chunks,
                           ReadResultsColumn(raw_store, dataset));
  RegionOracle oracle;
  for (const format::ParsedChunk& chunk : chunks) {
    for (size_t i = 0; i < chunk.record_count(); ++i) {
      PERSONA_ASSIGN_OR_RETURN(align::AlignmentResult result, chunk.GetResult(i));
      oracle.results.push_back(std::move(result));
      oracle.raw.emplace_back(chunk.RecordBytes(i));
    }
  }
  return oracle;
}

struct Region {
  int64_t begin = 0;
  int64_t end = 0;
};

// Checks a query's output dataset record for record against the oracle: every mapped
// record whose location lies in the region, in dataset order.
Status CheckRegionOutput(storage::ObjectStore* raw_store, const format::Manifest& output,
                         const RegionOracle& oracle, const Region& region) {
  uint32_t expected_crc = 0;
  int64_t expected = 0;
  for (size_t i = 0; i < oracle.results.size(); ++i) {
    const align::AlignmentResult& result = oracle.results[i];
    if (result.mapped() && result.location >= region.begin && result.location < region.end) {
      expected_crc = Crc32Update(expected_crc, {reinterpret_cast<const uint8_t*>(
                                                    oracle.raw[i].data()),
                                                oracle.raw[i].size()});
      ++expected;
    }
  }
  PERSONA_ASSIGN_OR_RETURN(std::vector<format::ParsedChunk> chunks,
                           ReadResultsColumn(raw_store, output));
  uint32_t crc = 0;
  int64_t records = 0;
  for (const format::ParsedChunk& chunk : chunks) {
    for (size_t i = 0; i < chunk.record_count(); ++i) {
      const std::string_view bytes = chunk.RecordBytes(i);
      crc = Crc32Update(crc, {reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()});
      ++records;
    }
  }
  if (records != expected || crc != expected_crc) {
    return DataLossError(StrFormat("region [%lld, %lld): %lld records (crc %08x), "
                                   "expected %lld (crc %08x)",
                                   static_cast<long long>(region.begin),
                                   static_cast<long long>(region.end),
                                   static_cast<long long>(records), crc,
                                   static_cast<long long>(expected), expected_crc));
  }
  return OkStatus();
}

Status DeleteDataset(storage::ObjectStore* store, const format::Manifest& dataset) {
  std::vector<storage::DeleteOp> ops;
  for (size_t i = 0; i < dataset.chunks.size(); ++i) {
    for (const format::ManifestColumn& column : dataset.columns) {
      ops.push_back({dataset.ChunkFileName(i, column.name), {}});
    }
  }
  ops.push_back({dataset.name + ".manifest.json", {}});
  return store->DeleteBatch(ops);
}

std::vector<Region> MakeQueries(uint64_t seed, int64_t genome_length, size_t count) {
  Rng rng(seed);
  std::vector<Region> queries(count);
  for (Region& query : queries) {
    const int64_t width = rng.UniformInt(kMinQueryWidth, kMaxQueryWidth);
    query.begin = rng.UniformInt(0, std::max<int64_t>(genome_length - width, 0));
    query.end = query.begin + width;
  }
  return queries;
}

// ---------------------------------------------------------------------------------
// Per-layer attribution of one traced job, from its spans and its public reports.

using LayerSample = std::map<std::string, double>;

constexpr const char* kStoreOps[] = {"get",          "get_batch", "put",     "put_batch",
                                     "submit_async", "prefetch",  "delete_batch"};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

LayerSample AttributeJob(const JobRecord& job, const std::vector<Span>& spans) {
  LayerSample s;
  const double wall = static_cast<double>(job.end_ns - job.start_ns);
  // Store time of the calls that started in [begin, end).
  auto store_busy_ns = [&](int64_t begin, int64_t end) {
    double busy = 0;
    for (const Span& span : spans) {
      if (std::strcmp(span.cat, "store") == 0 && span.start_ns >= begin &&
          span.start_ns < end) {
        busy += static_cast<double>(span.dur_ns);
      }
    }
    return busy;
  };

  // Tools: each one's share of the job's wall time. Every workload reports every key;
  // a tool its jobs do not call reads 0.
  auto share_key = [](std::string_view tool) {
    return std::string(tool == "call" ? "variant." : "pipeline.") + std::string(tool) +
           ".share";
  };
  for (const char* tool : {"import", "align", "sort", "dedup", "call", "filter"}) {
    s[share_key(tool)] = 0;
  }
  for (const char* key : {"pipeline.sort.phase1.share", "pipeline.sort.merge.share",
                          "pipeline.sort.merge.compute.share", "variant.call.store_wait_frac"}) {
    s[key] = 0;
  }
  double covered = 0;
  for (const ToolCall& tool : job.tools) {
    const double dur = static_cast<double>(tool.dur_ns);
    covered += dur;
    s[share_key(tool.name)] = Ratio(dur, wall);
    s["store.busy_s." + std::string(tool.name)] =
        store_busy_ns(tool.start_ns, tool.start_ns + tool.dur_ns) / 1e9;
    if (std::strcmp(tool.name, "sort") == 0 && job.reports.sort) {
      const double merge_ns = job.reports.sort->merge_seconds * 1e9;
      const int64_t end = tool.start_ns + tool.dur_ns;
      const double merge_store_ns = store_busy_ns(end - static_cast<int64_t>(merge_ns), end);
      s["pipeline.sort.phase1.share"] = Ratio(job.reports.sort->phase1_seconds * 1e9, wall);
      s["pipeline.sort.merge.share"] = Ratio(merge_ns, wall);
      s["pipeline.sort.merge.compute.share"] =
          Ratio(std::max(merge_ns - merge_store_ns, 0.0), wall);
    }
    if (std::strcmp(tool.name, "call") == 0) {
      s["variant.call.store_wait_frac"] =
          Ratio(store_busy_ns(tool.start_ns, tool.start_ns + tool.dur_ns), dur);
    }
  }
  s["bench.span_coverage"] = Ratio(covered, wall);

  // Storage, above (store.*) and below (device.*) the cache.
  std::map<std::string, double> busy;
  std::map<std::string, double> calls;
  for (const Span& span : spans) {
    if (std::strcmp(span.cat, "store") != 0 && std::strcmp(span.cat, "device") != 0) {
      continue;
    }
    const std::string side = span.cat;
    busy[side] += static_cast<double>(span.dur_ns);
    busy[side + "." + span.name] += static_cast<double>(span.dur_ns);
    calls[side + "." + span.name] += 1;
  }
  for (const char* side : {"store", "device"}) {
    s[std::string(side) + ".busy_s"] = busy[side] / 1e9;
    s[std::string(side) + ".busy.share"] = Ratio(busy[side], wall);
    for (const char* op : kStoreOps) {
      const std::string key = std::string(side) + "." + op;
      s[key + ".calls"] = calls[key];
      s[key + ".busy.share"] = Ratio(busy[key], wall);
    }
  }
  s["device.bytes_read"] = static_cast<double>(job.device_delta.bytes_read);
  s["device.bytes_written"] = static_cast<double>(job.device_delta.bytes_written);
  s["device.read_ops"] = static_cast<double>(job.device_delta.read_ops);
  s["device.write_ops"] = static_cast<double>(job.device_delta.write_ops);
  s["store.retries"] = static_cast<double>(job.device_delta.retries);
  s["store.give_ups"] = static_cast<double>(job.device_delta.give_ups);
  const double hits = static_cast<double>(job.cache_delta.cache_hits);
  const double misses = static_cast<double>(job.cache_delta.cache_misses);
  s["cache.hits"] = hits;
  s["cache.misses"] = misses;
  s["cache.hit_ratio"] = Ratio(hits, hits + misses);
  s["cache.hit_bytes"] = static_cast<double>(job.cache_delta.cache_hit_bytes);
  s["cache.evictions"] = static_cast<double>(job.cache_delta.cache_evictions);

  // Align: AlignBatch spans (kernel time as the pipeline's workers saw it) and the
  // profile RunPersonaAlignment reports.
  double align_busy = 0;
  double align_bases = 0;
  double align_calls = 0;
  for (const Span& span : spans) {
    if (std::strcmp(span.cat, "align") == 0) {
      align_busy += static_cast<double>(span.dur_ns);
      align_bases += static_cast<double>(span.bytes);
      align_calls += 1;
    }
  }
  s["align.batch_calls"] = align_calls;
  s["align.threads_busy"] = Ratio(align_busy, wall);
  s["align.kernel_mbases_per_s"] = Ratio(align_bases, align_busy) * 1e3;
  double align_tool_ns = 0;
  for (const ToolCall& tool : job.tools) {
    if (std::strcmp(tool.name, "align") == 0) {
      align_tool_ns = static_cast<double>(tool.dur_ns);
    }
  }
  s["dataflow.executor_occupancy"] = Ratio(align_busy, align_tool_ns * kThreads);
  const align::AlignProfile profile =
      job.reports.align ? job.reports.align->profile : align::AlignProfile{};
  const double reads = static_cast<double>(profile.reads);
  s["align.seed_frac"] = Ratio(static_cast<double>(profile.seed_ns),
                               static_cast<double>(profile.seed_ns + profile.verify_ns));
  s["align.candidates_per_read"] = Ratio(static_cast<double>(profile.candidates), reads);
  s["align.probes_per_read"] = Ratio(static_cast<double>(profile.index_probes), reads);
  s["align.lv_lane_occupancy"] = Ratio(static_cast<double>(profile.lv_batch_jobs),
                                       static_cast<double>(profile.lv_batch_runs));

  // Pipeline tools' own counters.
  s["pipeline.import.mb_per_s"] =
      job.reports.import ? job.reports.import->throughput_mb_per_sec : 0;
  s["pipeline.dedup.duplicates"] =
      job.reports.dedup ? static_cast<double>(job.reports.dedup->duplicates) : 0;
  const pipeline::FilterReport filter =
      job.reports.filter ? *job.reports.filter : pipeline::FilterReport{};
  s["pipeline.filter.selectivity"] = Ratio(static_cast<double>(filter.records_out),
                                           static_cast<double>(filter.records_in));
  s["pipeline.filter.chunks_in"] = static_cast<double>(filter.chunks_in);

  // Variant calling.
  const bool called = job.reports.call.has_value();
  const auto count = [&](uint64_t variant::CallPipelineReport::*field) {
    return called ? static_cast<double>((*job.reports.call).*field) : 0.0;
  };
  s["variant.reads_used"] = count(&variant::CallPipelineReport::reads_used);
  s["variant.columns_piled"] = count(&variant::CallPipelineReport::columns_piled);
  s["variant.records_called"] = count(&variant::CallPipelineReport::records_called);
  s["variant.records_passing"] = count(&variant::CallPipelineReport::records_passing);
  s["variant.columns_per_s"] =
      called ? Ratio(count(&variant::CallPipelineReport::columns_piled),
                     job.reports.call->seconds)
             : 0;
  return s;
}

// Units of the per-layer metrics (by name; per-tool and per-op names by suffix).
std::string LayerUnit(const std::string& name) {
  auto ends_with = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends_with("lv_lane_occupancy")) return "lanes";
  if (ends_with("mbases_per_s")) return "Mbases/s";
  if (ends_with("mb_per_s")) return "MB/s";
  if (ends_with("columns_per_s")) return "1/s";
  if (ends_with("_s") || name.starts_with("store.busy_s.")) return "s";
  if (ends_with(".share") || ends_with("_frac") || ends_with(".hit_ratio") ||
      ends_with(".selectivity") || ends_with("occupancy") || ends_with("_coverage")) {
    return "frac";
  }
  if (ends_with("threads_busy")) return "threads";
  if (name.starts_with("device.bytes") || ends_with("hit_bytes")) return "bytes";
  return "count";
}

// ---------------------------------------------------------------------------------
// One workload run.

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricMap end_to_end;
  MetricMap per_layer;
  json::Object notes;  // oracle values and checks, for the detail record
};

// Restarts the kernel's peak-RSS count (VmHWM) from the current RSS, so a peak read
// after a job is that job's, with the inputs it holds resident. Best effort: on
// failure the count keeps running from process start.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void Fail(RunResult* result, const std::string& what) {
  std::fprintf(stderr, "[bench_e2e] FAIL: %s\n", what.c_str());
  result->correct = false;
}

class WorkloadRunner {
 public:
  WorkloadRunner(const Workload& workload, const RunOptions& options)
      : workload_(workload), options_(options), executor_(kThreads) {}

  RunResult Run();

  const Tracer& tracer() const { return tracer_; }

 private:
  Status Setup(RunResult* result);
  Status WarmUp(RunResult* result);
  void RunWorkflowJob(bool traced, RunResult* result);
  void RunQueryJob(const Region& region, bool traced, RunResult* result);
  void Finish(RunResult* result);

  const Workload& workload_;
  const RunOptions options_;
  dataflow::Executor executor_;
  Tracer tracer_;

  std::unique_ptr<Inputs> inputs_;
  std::unique_ptr<TimedAligner> aligner_;
  std::vector<double> setup_seconds_;
  double warmup_seconds_ = 0;
  Fingerprint oracle_;

  // region_reread: the staged dataset and the stack it lives in.
  std::unique_ptr<StoreStack> staged_;
  format::Manifest staged_dataset_;
  RegionOracle region_oracle_;

  std::vector<JobRecord> jobs_;
};

Status WorkloadRunner::Setup(RunResult* result) {
  const int repeats = options_.quick ? 1 : kSetupRepeats;
  const Sizes sizes = options_.quick ? Sizes{kQuickGenomeBp, kQuickCoverage}
                                     : Sizes{workload_.genome_bp, workload_.coverage};
  for (int r = 0; r < repeats; ++r) {
    inputs_.reset();
    staged_.reset();
    TrimHeap();
    const int64_t start = tracer_.NowNs();
    PERSONA_ASSIGN_OR_RETURN(inputs_, MakeInputs(workload_, sizes, options_.seed));
    if (workload_.kind == JobKind::kRegionQueries) {
      // Staged through the same tools, straight into the device (the fresh cache on
      // top starts cold).
      staged_ = std::make_unique<StoreStack>(workload_, &tracer_);
      JobRecord staging;
      PERSONA_ASSIGN_OR_RETURN(
          WorkflowOutput out,
          RunWorkflow(*inputs_, &staged_->device_timed, *inputs_->aligner, &executor_,
                      /*align_only=*/false, &tracer_, &staging));
      staged_dataset_ = std::move(out.dataset);
      PERSONA_ASSIGN_OR_RETURN(region_oracle_,
                               MakeRegionOracle(&staged_->device, staged_dataset_));
    }
    setup_seconds_.push_back(static_cast<double>(tracer_.NowNs() - start) / 1e9);
  }
  aligner_ = std::make_unique<TimedAligner>(inputs_->aligner.get(), &tracer_);
  result->notes["reads"] = json::Value(static_cast<uint64_t>(inputs_->reads.size()));
  result->notes["input_mbases"] = json::Value(static_cast<double>(inputs_->bases) / 1e6);
  result->notes["truth_variants"] =
      json::Value(static_cast<uint64_t>(inputs_->donor.variants.size()));
  return OkStatus();
}

// The warm-up runs on a plain MemoryStore and becomes the oracle: every timed job
// must reproduce its output bytes, whatever store, cache and tracing it ran with.
Status WorkloadRunner::WarmUp(RunResult* result) {
  const int64_t start = tracer_.NowNs();
  if (workload_.kind == JobKind::kRegionQueries) {
    const std::vector<Region> warmup =
        MakeQueries(options_.seed ^ 0x5eed, inputs_->reference.total_length(), kWarmupQueries);
    for (const Region& region : warmup) {
      RunQueryJob(region, /*traced=*/false, result);
    }
    jobs_.clear();
    warmup_seconds_ = static_cast<double>(tracer_.NowNs() - start) / 1e9;
    return result->failed == 0 ? OkStatus() : InternalError("warm-up queries failed");
  }
  storage::MemoryStore store;
  JobRecord job;
  PERSONA_ASSIGN_OR_RETURN(WorkflowOutput out,
                           RunWorkflow(*inputs_, &store, *inputs_->aligner, &executor_,
                                       workload_.kind == JobKind::kAlignOnly, &tracer_, &job));
  PERSONA_ASSIGN_OR_RETURN(oracle_, FingerprintOf(&store, out));

  double quality = 0;
  if (workload_.kind == JobKind::kAlignOnly) {
    PERSONA_ASSIGN_OR_RETURN(std::vector<format::ParsedChunk> chunks,
                             ReadResultsColumn(&store, out.dataset));
    std::vector<align::AlignmentResult> results;
    for (const format::ParsedChunk& chunk : chunks) {
      for (size_t i = 0; i < chunk.record_count(); ++i) {
        PERSONA_ASSIGN_OR_RETURN(align::AlignmentResult r, chunk.GetResult(i));
        results.push_back(std::move(r));
      }
    }
    const align::AccuracyReport accuracy =
        align::ScoreAlignments(inputs_->reference, LiftToReference(*inputs_), results);
    quality = accuracy.correct_fraction();
    result->notes["align_correct_frac"] = json::Value(quality);
    result->notes["align_aligned_frac"] = json::Value(accuracy.aligned_fraction());
  } else {
    const variant::VariantAccuracy accuracy = variant::ScoreVariants(
        inputs_->donor.variants, job.reports.call->records, /*passing_only=*/true,
        &inputs_->reference);
    quality = accuracy.overall.F1();
    result->notes["variant_f1"] = json::Value(quality);
    result->notes["variant_precision"] = json::Value(accuracy.overall.Precision());
    result->notes["variant_recall"] = json::Value(accuracy.overall.Recall());
  }
  const double floor = options_.quick ? workload_.quick_min_quality : workload_.min_quality;
  result->notes["quality_floor"] = json::Value(floor);
  if (quality < floor) {
    Fail(result, StrFormat("output quality %.4f below the floor %.4f", quality, floor));
  }

  // The oracle rep does not warm the measured stack (the first rep on it ran about a
  // third slower than the rest), so one checked rep on that stack completes the
  // warm-up.
  RunWorkflowJob(/*traced=*/false, result);
  jobs_.clear();
  warmup_seconds_ = static_cast<double>(tracer_.NowNs() - start) / 1e9;
  return result->failed == 0 ? OkStatus() : InternalError("warm-up rep failed");
}

void WorkloadRunner::RunWorkflowJob(bool traced, RunResult* result) {
  StoreStack stack(workload_, &tracer_);
  JobRecord job;
  job.traced = traced;
  job.bases = inputs_->bases;
  const storage::StoreStats device_before = stack.device.stats();
  ResetPeakRss();
  tracer_.Enable(traced);
  job.span_begin = tracer_.size();
  job.start_ns = tracer_.NowNs();
  auto out = RunWorkflow(*inputs_, &stack.top, *aligner_, &executor_,
                         workload_.kind == JobKind::kAlignOnly, &tracer_, &job);
  job.end_ns = tracer_.NowNs();
  tracer_.Enable(false);
  job.peak_rss_mb = PeakRssMb();
  job.span_end = tracer_.size();
  job.device_delta = storage::StatsDelta(device_before, stack.device.stats());
  if (stack.cache) {
    job.cache_delta = stack.cache->stats();
  }

  ++result->attempted;
  if (!out.ok()) {
    ++result->failed;
    Fail(result, "workflow call failed: " + out.status().ToString());
    return;
  }
  auto print = FingerprintOf(&stack.device, *out);
  if (!print.ok() || !(*print == oracle_)) {
    ++result->failed;
    Fail(result, print.ok() ? "output differs from the oracle" : print.status().ToString());
    return;
  }
  jobs_.push_back(std::move(job));
}

void WorkloadRunner::RunQueryJob(const Region& region, bool traced, RunResult* result) {
  StoreStack& stack = *staged_;
  pipeline::ReadFilterSpec spec;
  spec.region_begin = region.begin;
  spec.region_end = region.end;
  JobRecord job;
  job.traced = traced;
  job.bases = static_cast<uint64_t>(staged_dataset_.total_records()) * kReadLength;
  const storage::StoreStats device_before = stack.device.stats();
  const storage::StoreStats cache_before = stack.cache->stats();
  format::Manifest output;
  ResetPeakRss();
  tracer_.Enable(traced);
  job.span_begin = tracer_.size();
  job.start_ns = tracer_.NowNs();
  auto report = TimeTool(&tracer_, "filter", &job, [&] {
    return pipeline::FilterAgdDataset(&stack.top, staged_dataset_, kQueryDataset, spec, {},
                                      &output);
  });
  job.end_ns = tracer_.NowNs();
  tracer_.Enable(false);
  job.peak_rss_mb = PeakRssMb();
  job.span_end = tracer_.size();
  job.device_delta = storage::StatsDelta(device_before, stack.device.stats());
  job.cache_delta = storage::StatsDelta(cache_before, stack.cache->stats());

  ++result->attempted;
  Status status = report.status();
  if (status.ok()) {
    job.reports.filter = *report;
    status = CheckRegionOutput(&stack.device, output, region_oracle_, region);
    // Deleted through the cache so it stays coherent; untimed.
    Status cleanup = DeleteDataset(&stack.top, output);
    status = status.ok() ? cleanup : status;
  }
  if (!status.ok()) {
    ++result->failed;
    Fail(result, "region query: " + status.ToString());
    return;
  }
  jobs_.push_back(std::move(job));
}

RunResult WorkloadRunner::Run() {
  RunResult result;
  if (Status status = Setup(&result); !status.ok()) {
    result.attempted = 1;
    result.failed = 1;
    Fail(&result, "set-up: " + status.ToString());
    return result;
  }
  if (Status status = WarmUp(&result); !status.ok()) {
    result.attempted = std::max<int64_t>(result.attempted, 1);
    result.failed = std::max<int64_t>(result.failed, 1);
    Fail(&result, "warm-up: " + status.ToString());
    return result;
  }
  result.attempted = 0;
  result.failed = 0;
  TrimHeap();

  // Untraced and traced jobs alternate in a traced run, so both halves see the same
  // conditions; quick mode always does, to produce both metric sets.
  const bool alternate = options_.trace || options_.quick;
  const size_t min_jobs = options_.quick && workload_.kind == JobKind::kRegionQueries
                              ? kQuickQueries
                              : (alternate ? 2 : 1);
  const int64_t window_start = tracer_.NowNs();
  auto more = [&](size_t done) {
    if (options_.quick) {
      return done < min_jobs;
    }
    return done < min_jobs ||
           static_cast<double>(tracer_.NowNs() - window_start) / 1e9 < options_.seconds;
  };
  if (workload_.kind == JobKind::kRegionQueries) {
    // More queries than any run can use; the loop stops on time.
    const std::vector<Region> queries =
        MakeQueries(options_.seed, inputs_->reference.total_length(), 100'000);
    for (size_t q = 0; q < queries.size() && more(static_cast<size_t>(result.attempted));
         ++q) {
      RunQueryJob(queries[q], alternate && q % 2 == 1, &result);
      TrimHeap();
    }
  } else {
    for (size_t rep = 0; more(static_cast<size_t>(result.attempted)); ++rep) {
      RunWorkflowJob(alternate && rep % 2 == 1, &result);
      TrimHeap();
    }
  }
  Finish(&result);
  return result;
}

void WorkloadRunner::Finish(RunResult* result) {
  // End to end, from the untraced jobs.
  std::vector<double> walls_ms;
  std::vector<double> peaks_mb;
  double bases = 0;
  double seconds = 0;
  double traced_bases = 0;
  double traced_seconds = 0;
  for (const JobRecord& job : jobs_) {
    if (job.traced) {
      traced_bases += static_cast<double>(job.bases);
      traced_seconds += job.wall_s();
      continue;
    }
    walls_ms.push_back(job.wall_s() * 1e3);
    peaks_mb.push_back(job.peak_rss_mb);
    bases += static_cast<double>(job.bases);
    seconds += job.wall_s();
  }
  MetricMap& e2e = result->end_to_end;
  e2e["mbases_per_s"] = {"Mbases/s", Ratio(bases / 1e6, seconds), {}};
  e2e["job_ms_p50"] = {"ms", Percentile(walls_ms, 50), walls_ms};
  e2e["job_ms_p95"] = {"ms", Percentile(walls_ms, 95), walls_ms};
  e2e["setup_s"] = {"s", Median(setup_seconds_), setup_seconds_};
  e2e["peak_rss_mb"] = {"MB", Median(peaks_mb), peaks_mb};

  // Per layer, from the traced jobs: the median over jobs of each attribution.
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::vector<double>> op_latency_ms;
  for (const JobRecord& job : jobs_) {
    if (!job.traced) {
      continue;
    }
    const std::vector<Span> spans = tracer_.Range(job.span_begin, job.span_end);
    const LayerSample sample = AttributeJob(job, spans);
    for (const auto& [name, value] : sample) {
      samples[name].push_back(value);
    }
    if (sample.at("bench.span_coverage") < kMinSpanCoverage) {
      Fail(result, StrFormat("tool spans cover %.4f of a job's wall time (< %.2f)",
                             sample.at("bench.span_coverage"), kMinSpanCoverage));
    }
    for (const Span& span : spans) {
      if (std::strcmp(span.cat, "device") == 0) {
        op_latency_ms[std::string("device.") + span.name].push_back(
            static_cast<double>(span.dur_ns) / 1e6);
      }
    }
  }
  MetricMap& layer = result->per_layer;
  for (auto& [name, values] : samples) {
    layer[name] = {LayerUnit(name), Median(values), values};
  }
  for (const char* op : {"device.get_batch", "device.put_batch"}) {
    const std::vector<double>& ms = op_latency_ms[op];
    layer[std::string(op) + ".ms_p50"] = {"ms", Percentile(ms, 50), ms};
    layer[std::string(op) + ".ms_p95"] = {"ms", Percentile(ms, 95), {}};
  }
  layer["bench.trace_overhead_frac"] = {
      "frac", 1 - Ratio(Ratio(traced_bases, traced_seconds), Ratio(bases, seconds)), {}};
  layer["bench.warmup_s"] = {"s", warmup_seconds_, {}};
}

// ---------------------------------------------------------------------------------
// Command line, environment record and output.

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) {
      return &workload;
    }
  }
  return nullptr;
}

json::Object EnvironmentRecord() {
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) != 0) {
    std::strcpy(host, "unknown");
  }
  json::Object env;
  env["host"] = json::Value(host);
  env["nproc"] = json::Value(static_cast<int64_t>(std::thread::hardware_concurrency()));
  env["simd"] = json::Value(SimdLevelName(ActiveSimdLevel()));
  env["build_type"] = json::Value(PERSONA_E2E_BUILD_TYPE);
  env["git_sha"] = json::Value(PERSONA_E2E_GIT_SHA);
  env["malloc_arenas"] = json::Value(kMallocArenas);
  json::Object persona_env;
  for (char** var = environ; *var != nullptr; ++var) {
    const std::string_view entry(*var);
    if (entry.starts_with("PERSONA_")) {
      const size_t eq = entry.find('=');
      persona_env[std::string(entry.substr(0, eq))] =
          json::Value(eq == std::string_view::npos ? "" : entry.substr(eq + 1));
    }
  }
  env["persona_env"] = json::Value(std::move(persona_env));
  return env;
}

void PrintReport(const Workload& workload, const RunOptions& options, const RunResult& result,
                 const MetricMap& metrics, const std::vector<MetricSpec>& specs) {
  std::map<std::string, const MetricSpec*> by_name;
  for (const MetricSpec& spec : specs) {
    by_name[spec.name] = &spec;
  }
  std::fprintf(stderr, "\n[bench_e2e] workload %s (seed %llu, %s)\n", workload.name,
               static_cast<unsigned long long>(options.seed),
               options.trace ? "traced" : "untraced");
  std::fprintf(stderr, "%-40s %16s %-9s %6s %8s\n", "metric", "value", "unit", "n", "bound");
  for (const auto& [name, metric] : metrics) {
    const auto it = by_name.find(name);
    const std::string bound =
        it != by_name.end() && it->second->bound >= 0 ? StrFormat("%.3f", it->second->bound)
                                                       : "-";
    std::fprintf(stderr, "%-40s %16.6g %-9s %6zu %8s\n", name.c_str(), metric.value,
                 metric.unit.c_str(), metric.samples.size(), bound.c_str());
  }
  std::fprintf(stderr, "oracle %s\n", json::Value(result.notes).Dump().c_str());
  std::fprintf(stderr, "attempted %lld, failed %lld, correct %s\n",
               static_cast<long long>(result.attempted), static_cast<long long>(result.failed),
               result.correct ? "yes" : "no");
}

// The metrics of one section of BENCHMARK.json, in the output set; everything when
// no BENCHMARK.json was loaded.
MetricMap Declared(const MetricMap& metrics, const std::vector<MetricSpec>& specs,
                   bool end_to_end) {
  if (specs.empty()) {
    return metrics;
  }
  MetricMap out;
  for (const MetricSpec& spec : specs) {
    const auto it = metrics.find(spec.name);
    if (spec.end_to_end == end_to_end && it != metrics.end()) {
      out[spec.name] = it->second;
    }
  }
  return out;
}

std::string ResultLine(const RunResult& result, const MetricMap& metrics) {
  json::Object line;
  line["correct"] = json::Value(result.correct && result.failed == 0);
  line["attempted"] = json::Value(std::max<int64_t>(result.attempted, 1));
  line["failed"] = json::Value(result.failed);
  line["metrics"] = MetricsToResultJson(metrics);
  return json::Value(std::move(line)).Dump();
}

json::Value DetailRecord(const Workload& workload, const RunOptions& options,
                         const RunResult& result) {
  json::Object run;
  run["workload"] = json::Value(workload.name);
  run["seed"] = json::Value(options.seed);
  run["trace"] = json::Value(options.trace ? 1 : 0);
  run["seconds"] = json::Value(options.seconds);
  run["env"] = json::Value(EnvironmentRecord());
  run["correct"] = json::Value(result.correct && result.failed == 0);
  run["attempted"] = json::Value(result.attempted);
  run["failed"] = json::Value(result.failed);
  run["oracle"] = json::Value(result.notes);
  run["metrics"] = MetricsToDetailJson(options.trace ? result.per_layer : result.end_to_end);
  if (options.trace) {
    run["end_to_end_untraced_half"] = MetricsToDetailJson(result.end_to_end);
  }
  return json::Value(std::move(run));
}

// Every metric BENCHMARK.json names in the checked sections must appear, with its
// unit, in the matching output set.
bool CheckMetricNames(const Workload& workload, const RunResult& result,
                      const std::vector<MetricSpec>& specs, bool end_to_end, bool per_layer) {
  bool ok = true;
  for (const MetricSpec& spec : specs) {
    if (!(spec.end_to_end ? end_to_end : per_layer)) {
      continue;
    }
    const MetricMap& set = spec.end_to_end ? result.end_to_end : result.per_layer;
    const auto it = set.find(spec.name);
    if (it == set.end()) {
      std::fprintf(stderr, "[bench_e2e] %s: metric '%s' missing from the output\n",
                   workload.name, spec.name.c_str());
      ok = false;
    } else if (it->second.unit != spec.unit) {
      std::fprintf(stderr,
                   "[bench_e2e] %s: metric '%s' has unit '%s', BENCHMARK.json says '%s'\n",
                   workload.name, spec.name.c_str(), it->second.unit.c_str(), spec.unit.c_str());
      ok = false;
    }
  }
  return ok;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--json PATH] [--trace-json PATH] [--benchmark-json PATH]\n"
               "       bench_e2e --quick [--benchmark-json PATH]\n"
               "       bench_e2e --compare PARENT.json CHANGE.json [--benchmark-json PATH]\n"
               "workloads:");
  for (const Workload& workload : kWorkloads) {
    std::fprintf(stderr, " %s", workload.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
#ifdef __GLIBC__
  mallopt(M_ARENA_MAX, kMallocArenas);
#endif
  std::string workload_name;
  std::string json_path;
  std::string trace_json_path;
  std::string benchmark_json = "BENCHMARK.json";
  std::vector<std::string> compare;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--compare" && i + 2 < argc) {
      compare = {argv[i + 1], argv[i + 2]};
      i += 2;
    } else if (!has_value) {
      return Usage();
    } else if (arg == "--workload") {
      workload_name = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string_view(argv[++i]) == "1";
    } else if (arg == "--json") {
      json_path = argv[++i];
    } else if (arg == "--trace-json") {
      trace_json_path = argv[++i];
    } else if (arg == "--benchmark-json") {
      benchmark_json = argv[++i];
    } else {
      return Usage();
    }
  }

  auto specs = LoadMetricSpecs(benchmark_json);
  if (!compare.empty()) {
    if (!specs.ok()) {
      std::fprintf(stderr, "%s: %s\n", benchmark_json.c_str(), specs.status().ToString().c_str());
      return 2;
    }
    return CompareRunFiles(compare[0], compare[1], *specs);
  }
  const std::vector<MetricSpec> metric_specs = specs.ok() ? *specs : std::vector<MetricSpec>{};

  if (options.quick) {
    if (!specs.ok()) {
      std::fprintf(stderr, "%s: %s\n", benchmark_json.c_str(), specs.status().ToString().c_str());
      return 1;
    }
    bool ok = true;
    for (const Workload& workload : kWorkloads) {
      RunResult result = WorkloadRunner(workload, options).Run();
      PrintReport(workload, options, result, result.end_to_end, metric_specs);
      ok = ok && result.correct && result.failed == 0 && result.attempted > 0 &&
           CheckMetricNames(workload, result, metric_specs, true, true);
    }
    std::printf("%s\n", ok ? "bench_e2e --quick: all workloads and checks passed"
                           : "bench_e2e --quick: FAILED");
    return ok ? 0 : 1;
  }

  const Workload* workload = FindWorkload(workload_name);
  if (workload == nullptr || options.seconds <= 0) {
    return Usage();
  }
  if (std::string_view(PERSONA_E2E_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "bench_e2e: refusing to measure a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release (or pass --quick)\n",
                 PERSONA_E2E_BUILD_TYPE);
    return 2;
  }
  std::fprintf(stderr, "[bench_e2e] %s\n", json::Value(EnvironmentRecord()).Dump().c_str());

  WorkloadRunner runner(*workload, options);
  RunResult result = runner.Run();
  const MetricMap& metrics = options.trace ? result.per_layer : result.end_to_end;
  PrintReport(*workload, options, result, metrics, metric_specs);
  if (!metric_specs.empty() &&
      !CheckMetricNames(*workload, result, metric_specs, !options.trace, options.trace)) {
    result.correct = false;
  }
  if (!json_path.empty()) {
    if (Status status = AppendRunToFile(json_path, DetailRecord(*workload, options, result));
        !status.ok()) {
      std::fprintf(stderr, "bench_e2e: --json: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!trace_json_path.empty()) {
    if (Status status = runner.tracer().WriteChromeTrace(trace_json_path); !status.ok()) {
      std::fprintf(stderr, "bench_e2e: --trace-json: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  std::printf("%s\n",
              ResultLine(result, Declared(metrics, metric_specs, !options.trace)).c_str());
  return result.correct && result.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace persona::bench_e2e

int main(int argc, char** argv) { return persona::bench_e2e::Main(argc, argv); }
