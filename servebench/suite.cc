// The serving benchmark's own binary: the prepared corpora, the closed-loop
// wire load, the correctness gate, and the traced in-process replay. run.py
// drives every subcommand; each writes its results as files.
//
//   servebench_suite prepare --dataset=chem|fp --scale=full|quick
//                            --shards=N --threads=T --out=DIR
//   servebench_suite load    --port=P --server-pid=PID --data=DIR --out=DIR
//                            --seconds=T [--pings=N] [--client-cpu=C]
//                            <stream flags>
//   servebench_suite verify  --data=DIR --run=DIR <stream flags>
//   servebench_suite trace   --data=DIR --out=DIR --requests=N --cache-mb=M
//                            <stream flags>
//   servebench_suite probe   --out=FILE        (samples until stdin closes)
//
// Stream flags describe one workload's request mix and must be the same for
// `load`, `verify` and `trace`, so the traced replay walks the request stream
// the wire run sent: --seed --mode=full|approx --pick=unique|zipf --warmup=N
// --mutate-frac=F --snapshots=N --shards=N --threads=T.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <sched.h>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/timer.h"
#include "core/index_io.h"
#include "core/kernels/scan_kernel.h"
#include "core/mapper.h"
#include "core/packed_bits.h"
#include "core/topk.h"
#include "datasets/chemgen.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "reindex/dimension_refresher.h"
#include "server/batch_executor.h"
#include "server/net_socket.h"
#include "server/result_cache.h"
#include "server/sharded_engine.h"
#include "server/wire.h"
#include "store/graph_store.h"

namespace gdim {
namespace {

using Clock = std::chrono::steady_clock;

/// Closed-loop client connections. Four, unbound, settled by timing into
/// batching patterns that held for seconds and moved latency by up to a
/// third between runs; two, on a CPU of their own (run.py binds them),
/// still overlap their requests and repeat far better.
constexpr int kConnections = 2;
/// Answers per QUERY: recall_at_10 measures the top 10.
constexpr int kTopK = 10;
constexpr double kZipfExponent = 1.1;
/// Seed of the corpora and query pools. They are fixed; --seed picks the
/// request streams over them. Regenerating 10k molecules or 400k rows per
/// run would take longer than the run, and per-seed data would make every
/// timing depend on what the seed drew: which molecules land in the Zipf
/// hot set alone moves chem throughput by tens of percent.
constexpr uint64_t kDataSeed = 1;
/// Timed-phase QUERY answers kept per connection for the correctness check.
constexpr int kTimedSamples = 50;
/// Fixed evaluation queries sent after the timed phase: checked against the
/// in-process reference and used for recall@k.
constexpr int kEvalQueries = 200;
/// INSERT+REMOVE pairs and snapshots the traced replay adds after its
/// rounds, so every workload reports the write-path layers.
constexpr int kTraceWritePairs = 200;
constexpr int kTraceIdleSnapshots = 3;

// ------------------------------------------------------------- utilities --

int Fail(const std::string& message) {
  std::fprintf(stderr, "servebench_suite: %s\n", message.c_str());
  return 1;
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Nearest-rank quantile; 0 for an empty sample. The benchmark keeps its own
/// statistics, so a change to the library's cannot change how it measures.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A flat JSON object of numbers and plain strings, in insertion order.
class JsonObject {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0);
    Add(key, buf);
  }
  /// Control characters, quotes and backslashes become spaces: the values
  /// are error messages, read by people.
  void Str(const std::string& key, std::string value) {
    for (char& c : value) {
      if (static_cast<unsigned char>(c) < 0x20 || c == '"' || c == '\\') {
        c = ' ';
      }
    }
    Add(key, "\"" + value + "\"");
  }
  std::string Text() const { return "{" + body_ + "}\n"; }

 private:
  void Add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
  }
  std::string body_;
};

Status WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) return Status::IoError("cannot write " + path);
  return Status::OK();
}

Result<std::vector<std::string>> ReadLines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(std::move(line));
  return lines;
}

// ---------------------------------------------------------- speed probe --
//
// The host's cores do not run at one speed: the same fixed loop takes up to
// twice as long from one second to the next, and at one instant one CPU may
// run it in two thirds of the time another needs. That moves every
// wall-clock metric by as much. One probe thread per CPU, pinned to it, runs
// a fixed unit of CPU work every 20 ms beside whatever is being timed and
// records its thread CPU time, which leaves out preemption: it reads how
// fast the cores run, not how busy the machine is. Timed metrics are
// reported at a reference core speed, each window of the timed phase scaled
// by the mean speed of the CPUs in it; the wall-clock values are kept beside
// them. A server's start-up runs on one thread, so run.py scales each
// start-up by the speed of the CPU it ran on instead (`probe`).

/// The probe's CPU time on the reference core; core speed is this over the
/// measured probe time.
constexpr double kReferenceProbeUs = 200.0;
constexpr auto kProbeInterval = std::chrono::milliseconds(20);

std::atomic<uint64_t> probe_sink{0};

/// One fixed unit of CPU work that shares no code with the server: sorting a
/// pseudo-random array (branches, L1 traffic) and a multiply chain.
uint64_t ProbeWork() {
  std::vector<uint32_t> values(2048);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint32_t& v : values) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<uint32_t>(x);
  }
  std::sort(values.begin(), values.end());
  for (size_t i = 0; i < 100000; ++i) {
    x = x * 6364136223846793005ULL + values[i & 2047];
  }
  return x;
}

double ClockUs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

double ThreadCpuUs() { return ClockUs(CLOCK_THREAD_CPUTIME_ID); }

/// One probe run: when it ended (seconds after the probe's origin) and the
/// probe's CPU time.
struct ProbeSample {
  double at_s = 0.0;
  double us = 0.0;
};

/// The CPUs the calling thread may run on; empty if that cannot be read.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Binds the calling thread to one CPU; a negative CPU leaves it unbound.
void PinThisThread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);  // this thread only
}

/// Probe threads on each of `cpus`, sampling from construction until Stop().
class SpeedProbe {
 public:
  SpeedProbe(Clock::time_point origin, std::vector<int> cpus)
      : origin_(origin), cpus_(std::move(cpus)) {
    if (cpus_.empty()) cpus_.push_back(-1);  // unpinned
    samples_.resize(cpus_.size());
    for (size_t i = 0; i < cpus_.size(); ++i) {
      threads_.emplace_back([this, i] { Sample(i); });
    }
  }
  ~SpeedProbe() { Stop(); }

  void Stop() {
    stop_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  /// Core speed over [from_s, to_s) after the origin: the mean over CPUs of
  /// the reference probe time over that CPU's median. A CPU without a
  /// sample in the range counts with all its samples. Call after Stop().
  double Speed(double from_s = -INFINITY, double to_s = INFINITY) const {
    std::vector<double> speeds;
    for (const std::vector<ProbeSample>& cpu : samples_) {
      std::vector<double> in_range, all;
      for (const ProbeSample& s : cpu) {
        all.push_back(s.us);
        if (s.at_s >= from_s && s.at_s < to_s) in_range.push_back(s.us);
      }
      if (!all.empty()) {
        speeds.push_back(kReferenceProbeUs /
                         Median(in_range.empty() ? all : in_range));
      }
    }
    return speeds.empty() ? 1.0
                          : Sum(speeds) / static_cast<double>(speeds.size());
  }

  /// Every sample as JSON, with the core speed it read: [[cpu, [[at_s,
  /// speed], ...]], ...]. Call after Stop().
  std::string Json() const {
    std::string out = "[";
    for (size_t i = 0; i < cpus_.size(); ++i) {
      out += (i == 0 ? "[" : ",\n[") + std::to_string(cpus_[i]) + ", [";
      for (size_t j = 0; j < samples_[i].size(); ++j) {
        const ProbeSample& s = samples_[i][j];
        char row[64];
        std::snprintf(row, sizeof(row), "%s[%.6f, %.5f]", j == 0 ? "" : ", ",
                      s.at_s, kReferenceProbeUs / s.us);
        out += row;
      }
      out += "]]";
    }
    return out + "]\n";
  }

 private:
  void Sample(size_t i) {
    PinThisThread(cpus_[i]);
    while (!stop_.load()) {
      const double start = ThreadCpuUs();
      probe_sink.fetch_xor(ProbeWork(), std::memory_order_relaxed);
      const double us = ThreadCpuUs() - start;
      samples_[i].push_back(
          {std::chrono::duration<double>(Clock::now() - origin_).count(), us});
      std::this_thread::sleep_for(kProbeInterval);
    }
  }

  Clock::time_point origin_;
  std::atomic<bool> stop_{false};
  std::vector<int> cpus_;
  std::vector<std::vector<ProbeSample>> samples_;  ///< one list per CPU
  std::vector<std::thread> threads_;
};

/// Zipfian ranks over a pool: P(rank) ∝ 1/(rank+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) {
    double total = 0.0;
    cumulative_.reserve(n);
    for (size_t rank = 0; rank < n; ++rank) {
      total += std::pow(static_cast<double>(rank + 1), -s);
      cumulative_.push_back(total);
    }
  }
  int Sample(Rng* rng) const {
    const double u = rng->UniformDouble() * cumulative_.back();
    return static_cast<int>(
        std::lower_bound(cumulative_.begin(), cumulative_.end(), u) -
        cumulative_.begin());
  }

 private:
  std::vector<double> cumulative_;
};

// ------------------------------------------------------------ the stream --

/// One workload's request mix; identical for the wire run and the replay.
struct StreamSpec {
  ScanMode mode = ScanMode::kFull;
  bool zipf = false;  ///< Zipf over the small pool, else the unique walk
  int warmup = 0;     ///< unique-walk requests per connection before timing
  double mutate_frac = 0.0;
  int snapshots = 0;  ///< SNAPSHOTs spread over the timed phase
  int shards = 1;
  int threads = 4;
  uint64_t seed = 1;
};

Result<StreamSpec> StreamSpecFromFlags(const Flags& flags) {
  StreamSpec spec;
  const std::string mode = flags.GetString("mode", "full");
  const std::string pick = flags.GetString("pick", "unique");
  if (mode != "full" && mode != "approx") {
    return Status::InvalidArgument("--mode must be full or approx");
  }
  if (pick != "unique" && pick != "zipf") {
    return Status::InvalidArgument("--pick must be unique or zipf");
  }
  spec.mode = mode == "approx" ? ScanMode::kApprox : ScanMode::kFull;
  spec.zipf = pick == "zipf";
  spec.warmup = flags.GetInt("warmup", 0);
  spec.mutate_frac = flags.GetDouble("mutate-frac", 0.0);
  spec.snapshots = flags.GetInt("snapshots", 0);
  spec.shards = flags.GetInt("shards", 1);
  spec.threads = flags.GetInt("threads", 4);
  spec.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  if (spec.warmup < 0 || spec.mutate_frac < 0.0 || spec.mutate_frac >= 1.0 ||
      spec.snapshots < 0 || spec.shards < 1 || spec.threads < 1) {
    return Status::InvalidArgument("bad stream flags");
  }
  return spec;
}

/// The query pools of one prepared dataset, one inline graph per line.
struct Pools {
  std::vector<std::string> unique;
  std::vector<std::string> zipf;  ///< Zipf rank r is entry r; may be empty
  std::vector<int> order;         ///< the seeded walk order over `unique`
};

Result<Pools> LoadPools(const std::string& data_dir, uint64_t seed) {
  Pools pools;
  Result<std::vector<std::string>> unique = ReadLines(data_dir + "/unique.q");
  if (!unique.ok()) return unique.status();
  pools.unique = std::move(unique).value();
  if (std::filesystem::exists(data_dir + "/zipf.q")) {
    Result<std::vector<std::string>> zipf = ReadLines(data_dir + "/zipf.q");
    if (!zipf.ok()) return zipf.status();
    pools.zipf = std::move(zipf).value();
  }
  if (pools.unique.empty()) return Status::InvalidArgument("empty query pool");
  pools.order.resize(pools.unique.size());
  std::iota(pools.order.begin(), pools.order.end(), 0);
  Rng rng(seed * 0xD1B54A32D192ED03ULL + 0x5b);
  rng.Shuffle(&pools.order);
  return pools;
}

enum class OpKind { kQuery, kInsert, kRemove };

/// One request of a connection's stream. Queries and inserts name a pool
/// entry; a remove names one of the connection's own inserted ids.
struct Op {
  OpKind kind = OpKind::kQuery;
  bool zipf_pool = false;
  int index = 0;
  int id = 0;
};

/// The seeded request sequence of one connection. The operation kinds it
/// draws never depend on server replies, only on whether the connection
/// owns an id to remove, so the replay walks the same sequence as the wire
/// run (removed ids differ: they are whatever the engine assigned).
class ConnStream {
 public:
  ConnStream(const StreamSpec& spec, int conn, const Pools& pools,
             const ZipfSampler* zipf)
      : spec_(spec),
        conn_(conn),
        pools_(&pools),
        zipf_(zipf),
        rng_(spec.seed * 1000003ULL + 7919ULL * static_cast<uint64_t>(conn) +
             1) {}

  /// Warm-up requests: a pass over this connection's share of the Zipf pool
  /// (so the timed phase starts with a full cache), or the first
  /// `spec.warmup` requests of the unique walk.
  std::vector<Op> Warmup() {
    std::vector<Op> ops;
    if (spec_.zipf) {
      for (size_t i = static_cast<size_t>(conn_); i < pools_->zipf.size();
           i += kConnections) {
        ops.push_back({OpKind::kQuery, true, static_cast<int>(i), 0});
      }
    } else {
      for (int i = 0; i < spec_.warmup; ++i) ops.push_back(NextUnique());
    }
    return ops;
  }

  Op Next(const std::vector<int>& owned) {
    if (spec_.mutate_frac > 0.0 && rng_.Bernoulli(spec_.mutate_frac)) {
      if (!owned.empty() && rng_.Bernoulli(0.5)) {
        return {OpKind::kRemove, false, 0, owned.back()};
      }
      return {OpKind::kInsert, false,
              static_cast<int>(rng_.UniformU64(pools_->unique.size())), 0};
    }
    if (spec_.zipf) return {OpKind::kQuery, true, zipf_->Sample(&rng_), 0};
    return NextUnique();
  }

 private:
  /// Connection c walks slots c, c+4, c+8, ... of the seeded order: no
  /// entry repeats until the pool wraps.
  Op NextUnique() {
    const size_t slot =
        (unique_next_++ * kConnections + static_cast<size_t>(conn_)) %
        pools_->order.size();
    return {OpKind::kQuery, false, pools_->order[slot], 0};
  }

  StreamSpec spec_;
  int conn_;
  const Pools* pools_;
  const ZipfSampler* zipf_;
  Rng rng_;
  size_t unique_next_ = 0;
};

const std::string& PoolEntry(const Pools& pools, bool zipf_pool, int index) {
  return (zipf_pool ? pools.zipf : pools.unique)[static_cast<size_t>(index)];
}

std::string QueryLine(const StreamSpec& spec, const std::string& graph) {
  return "QUERY " + std::to_string(kTopK) + " MODE=" +
         (spec.mode == ScanMode::kApprox ? "approx " : "full ") + graph;
}

std::string OpLine(const StreamSpec& spec, const Pools& pools, const Op& op) {
  switch (op.kind) {
    case OpKind::kQuery:
      return QueryLine(spec, PoolEntry(pools, op.zipf_pool, op.index));
    case OpKind::kInsert:
      return "INSERT " + PoolEntry(pools, false, op.index);
    case OpKind::kRemove:
      return "REMOVE " + std::to_string(op.id);
  }
  return "";
}

/// Unique-pool entries spread evenly over the pool, the same for every seed:
/// the evaluation queries and the traced replay's write probe.
int SpreadIndex(int j, int count, size_t pool_size) {
  return static_cast<int>(static_cast<long long>(j) *
                          static_cast<long long>(pool_size) / count);
}

// --------------------------------------------------------------- prepare --

/// Sizes of the generated inputs. `quick` is the smoke-test scale.
struct Scale {
  int chem_graphs;
  int chem_sample;  ///< feature-selection sample, held out of the database
  int chem_unique;
  int chem_zipf;
  int chem_p;
  int fp_rows;
  int fp_prototypes;
  int fp_bits;
  int fp_unique;
};

constexpr Scale kFullScale{10000,  300,  60000, 2000, 256,
                           400000, 2048, 128,   20000};
constexpr Scale kQuickScale{2000, 120, 12000, 500, 64, 40000, 256, 128, 4000};

Status WritePool(const std::string& path, const GraphDatabase& graphs,
                 size_t begin, size_t end) {
  std::string text;
  for (size_t i = begin; i < end; ++i) {
    text += EncodeGraphInline(graphs[i]);
    text += '\n';
  }
  return WriteText(path, text);
}

/// Freezes a freshly built engine (plus the graph store, when given) and
/// writes it through the same v3 path the server's SNAPSHOT uses, so the
/// server boots through the production restart path.
Status WriteServingSnapshot(ShardedEngine* engine,
                            std::optional<FrozenGraphSet> store,
                            const std::string& path) {
  ScopedRole writer(&engine->writer_role());
  FrozenShardedState frozen = engine->Freeze();
  frozen.store = std::move(store);
  return ShardedEngine::WriteSnapshot(frozen, path);
}

/// chem: molecules from the chemical generator, VF2-mapped onto p features
/// that DSPMap selects from a separate sample. Selection is offline in the
/// paper, so a sample keeps it from dominating preparation.
Status PrepareChem(const Scale& scale, const ShardedOptions& options,
                   const std::string& out) {
  WallTimer timer;
  ChemGenOptions gen;
  gen.num_graphs = scale.chem_graphs;
  gen.num_families = std::max(10, scale.chem_graphs / 8);
  gen.seed = kDataSeed;
  FrozenGraphSet sample;
  sample.graphs = GenerateChemDatabase({.num_graphs = scale.chem_sample,
                                        .num_families = gen.num_families,
                                        .seed = kDataSeed + 1});
  for (int i = 0; i < scale.chem_sample; ++i) sample.ids.push_back(i);
  RefreshOptions select;
  select.selector = "DSPMap";
  select.p = scale.chem_p;
  select.mining.min_support = 0.05;
  select.mining.max_edges = 6;
  select.seed = kDataSeed;
  select.threads = options.serve.threads;
  Result<RefreshedGeneration> generation = BuildGeneration(sample, select);
  if (!generation.ok()) return generation.status();
  const double select_s = timer.Seconds();

  GraphDatabase db = GenerateChemDatabase(gen);
  const size_t held_out = static_cast<size_t>(scale.chem_unique) +
                          static_cast<size_t>(scale.chem_zipf);
  GraphDatabase queries = GenerateChemQueries(gen, static_cast<int>(held_out));
  PersistedIndex index;
  index.features = std::move(generation->features);
  index.db_bits =
      FeatureMapper(index.features).MapAll(db, options.serve.threads);
  Result<ShardedEngine> engine =
      ShardedEngine::FromIndex(std::move(index), options);
  if (!engine.ok()) return engine.status();
  FrozenGraphSet store;
  for (size_t i = 0; i < db.size(); ++i) {
    store.ids.push_back(static_cast<int>(i));
    store.graphs.push_back(std::move(db[i]));
  }
  Status written =
      WriteServingSnapshot(&*engine, std::move(store), out + "/index.idx");
  if (!written.ok()) return written;
  const size_t zipf_begin = static_cast<size_t>(scale.chem_unique);
  Status pool = WritePool(out + "/unique.q", queries, 0, zipf_begin);
  if (!pool.ok()) return pool;
  pool = WritePool(out + "/zipf.q", queries, zipf_begin, held_out);
  if (!pool.ok()) return pool;
  std::fprintf(stderr,
               "prepared chem: %d graphs x %d features (selected in %.1fs), "
               "%zu held-out queries, %.1fs\n",
               engine->num_graphs(), engine->num_features(), select_s,
               held_out, timer.Seconds());
  return Status::OK();
}

/// One fingerprint-corpus row: a prototype with each bit flipped w.p. 1/8.
void DrawFingerprint(const std::vector<std::vector<uint8_t>>& prototypes,
                     Rng* rng, std::vector<uint8_t>* bits) {
  const std::vector<uint8_t>& proto =
      prototypes[rng->UniformU64(prototypes.size())];
  bits->resize(proto.size());
  for (size_t b = 0; b < proto.size(); ++b) {
    (*bits)[b] = static_cast<uint8_t>(proto[b] ^ (rng->Bernoulli(0.125)));
  }
}

/// fp: a large fingerprint corpus over single-vertex label features, so a
/// graph's fingerprint is its label set and mapping is cheap: the scan and
/// ranking dominate. Rows cluster around prototypes, giving the IVF index
/// structure to exploit. No graph store: the rows are the data.
Status PrepareFp(const Scale& scale, const ShardedOptions& options,
                 const std::string& out) {
  WallTimer timer;
  Rng rng(kDataSeed * 0x9E3779B97F4A7C15ULL + 0xF1);
  std::vector<std::vector<uint8_t>> prototypes(
      static_cast<size_t>(scale.fp_prototypes));
  for (auto& proto : prototypes) {
    proto.resize(static_cast<size_t>(scale.fp_bits));
    for (auto& bit : proto) bit = rng.Bernoulli(0.15) ? 1 : 0;
  }
  PackedIndex index;
  for (int r = 0; r < scale.fp_bits; ++r) {
    Graph feature;
    feature.AddVertex(static_cast<LabelId>(r));
    index.features.push_back(std::move(feature));
  }
  index.rows = PackedBitMatrix::WithWidth(scale.fp_bits);
  index.rows.Reserve(scale.fp_rows);
  std::vector<uint8_t> bits;
  for (int i = 0; i < scale.fp_rows; ++i) {
    DrawFingerprint(prototypes, &rng, &bits);
    index.rows.AppendRow(bits);
  }
  Result<ShardedEngine> engine =
      ShardedEngine::FromPacked(std::move(index), options);
  if (!engine.ok()) return engine.status();
  Status written =
      WriteServingSnapshot(&*engine, std::nullopt, out + "/index.idx");
  if (!written.ok()) return written;

  GraphDatabase queries;
  queries.reserve(static_cast<size_t>(scale.fp_unique));
  while (queries.size() < static_cast<size_t>(scale.fp_unique)) {
    DrawFingerprint(prototypes, &rng, &bits);
    Graph q;
    for (size_t b = 0; b < bits.size(); ++b) {
      if (bits[b] != 0) q.AddVertex(static_cast<LabelId>(b));
    }
    if (!q.Empty()) queries.push_back(std::move(q));
  }
  Status pool = WritePool(out + "/unique.q", queries, 0, queries.size());
  if (!pool.ok()) return pool;
  std::fprintf(stderr, "prepared fp: %d rows x %d bits, %zu queries, %.1fs\n",
               engine->num_graphs(), engine->num_features(), queries.size(),
               timer.Seconds());
  return Status::OK();
}

int RunPrepare(const Flags& flags) {
  const std::string dataset = flags.GetString("dataset", "");
  const std::string scale_name = flags.GetString("scale", "full");
  const std::string out = flags.GetString("out", "");
  if (out.empty() || (scale_name != "full" && scale_name != "quick")) {
    return Fail("prepare needs --out and --scale=full|quick");
  }
  const Scale& scale = scale_name == "quick" ? kQuickScale : kFullScale;
  ShardedOptions options;
  options.num_shards = flags.GetInt("shards", 1);
  options.serve.threads = flags.GetInt("threads", 4);
  std::filesystem::create_directories(out);
  Status status;
  if (dataset == "chem") {
    status = PrepareChem(scale, options, out);
  } else if (dataset == "fp") {
    status = PrepareFp(scale, options, out);
  } else {
    return Fail("--dataset must be chem or fp");
  }
  if (!status.ok()) return Fail("prepare: " + status.ToString());
  return 0;
}

// ------------------------------------------------------------------ load --

/// One client connection speaking the line protocol.
class Conn {
 public:
  Status Open(const std::string& host, int port) {
    Result<ScopedFd> fd = ConnectTcp(host, port);
    if (!fd.ok()) return fd.status();
    fd_ = std::move(fd).value();
    reader_ = std::make_unique<LineReader>(fd_.get());
    return Status::OK();
  }

  /// Sends one request line and reads its one-line reply.
  Result<std::string> Call(const std::string& line) {
    Status sent = SendAll(fd_.get(), line + "\n");
    if (!sent.ok()) return sent;
    Result<std::optional<std::string>> reply = reader_->ReadLine();
    if (!reply.ok()) return reply.status();
    if (!reply->has_value()) return Status::IoError("server closed the link");
    return std::move(**reply);
  }

  /// METRICS: the exposition up to its '# EOF' terminator.
  Result<std::string> Metrics() {
    Status sent = SendAll(fd_.get(), "METRICS\n");
    if (!sent.ok()) return sent;
    std::string text;
    for (;;) {
      Result<std::optional<std::string>> line = reader_->ReadLine();
      if (!line.ok()) return line.status();
      if (!line->has_value()) return Status::IoError("truncated METRICS");
      if (**line == "# EOF") return text;
      text += **line;
      text += '\n';
    }
  }

 private:
  ScopedFd fd_;
  std::unique_ptr<LineReader> reader_;
};

/// Request accounting of one client thread. Every request counts as
/// attempted, warm-up included; a request fails on an ERR reply (an
/// admission rejection included) or a broken connection.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  std::string first_error;

  /// Counts one reply; returns whether it was an OK.
  bool Record(const Result<std::string>& reply) {
    ++attempted;
    if (reply.ok() && reply->rfind("OK", 0) == 0) return true;
    ++failed;
    if (first_error.empty()) {
      first_error = reply.ok() ? *reply : reply.status().ToString();
    }
    return false;
  }

  /// Counts a multi-line exchange (METRICS) as one request.
  bool Record(const Status& status) {
    return Record(status.ok() ? Result<std::string>(std::string("OK"))
                              : Result<std::string>(status));
  }

  /// A failed connect counts as a failed request.
  bool Connect(Conn* link, const std::string& host, int port) {
    Status opened = link->Open(host, port);
    return opened.ok() || Record(opened);
  }

  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    if (first_error.empty()) first_error = other.first_error;
  }
};

/// A recorded QUERY answer: the pool entry and the raw reply line.
struct Sample {
  bool zipf_pool = false;
  int index = 0;
  std::string reply;
};

/// A timed request: its latency and when it completed (seconds into the
/// timed phase).
struct Timing {
  double done_s = 0.0;
  double ms = 0.0;
};

struct ClientResult {
  Tally tally;
  std::vector<Timing> queries;
  std::vector<Timing> mutations;
  std::vector<Sample> samples;
};

/// Shared phase control between the main thread and the client threads.
struct Phase {
  std::atomic<int> warmed{0};
  std::atomic<bool> go{false};
  Clock::time_point start;     ///< written before `go` is released
  Clock::time_point deadline;  ///< likewise
};

void RunClient(const std::string& host, int port, const StreamSpec& spec,
               const Pools& pools, const ZipfSampler* zipf, int conn,
               Phase* phase, ClientResult* out) {
  Conn link;
  ConnStream stream(spec, conn, pools, zipf);
  bool alive = out->tally.Connect(&link, host, port);
  // Warm-up replies are checked and counted but never timed.
  for (const Op& op : stream.Warmup()) {
    if (!alive) break;
    const Result<std::string> reply = link.Call(OpLine(spec, pools, op));
    alive = out->tally.Record(reply) || reply.ok();
  }
  phase->warmed.fetch_add(1);
  while (!phase->go.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::vector<int> owned;
  while (alive && Clock::now() < phase->deadline) {
    const Op op = stream.Next(owned);
    const std::string line = OpLine(spec, pools, op);
    const Clock::time_point sent = Clock::now();
    const Result<std::string> reply = link.Call(line);
    const Clock::time_point done = Clock::now();
    const Timing timing{
        std::chrono::duration<double>(done - phase->start).count(),
        std::chrono::duration<double, std::milli>(done - sent).count()};
    if (!out->tally.Record(reply)) {
      alive = reply.ok();  // an ERR reply keeps the link, an I/O error not
      continue;
    }
    if (op.kind == OpKind::kQuery) {
      out->queries.push_back(timing);
      if (static_cast<int>(out->samples.size()) < kTimedSamples) {
        out->samples.push_back({op.zipf_pool, op.index, *reply});
      }
      continue;
    }
    out->mutations.push_back(timing);
    if (op.kind == OpKind::kInsert) {
      owned.push_back(static_cast<int>(std::strtol(reply->c_str() + 3,
                                                   nullptr, 10)));
    } else {
      owned.pop_back();
    }
  }
}

/// Mean of the middle half of the values: the interquartile mean.
double MidMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto drop = static_cast<std::ptrdiff_t>(values.size() / 4);
  return std::accumulate(values.begin() + drop, values.end() - drop, 0.0) /
         static_cast<double>(values.size() - 2 * static_cast<size_t>(drop));
}

/// Throughput and latency percentiles of the timed phase, each the
/// interquartile mean over equal windows, so a burst of interference from
/// outside the benchmark moves one window, not the reported value. A latency
/// window holds at least kMinWindowSamples requests, so its p99 has ten
/// samples beyond it; slow workloads get one window.
struct Rates {
  double per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
};

/// The same numbers at the reference core speed and as the wall clock read
/// them.
struct Windowed {
  Rates scaled;
  Rates raw;
};

constexpr int kMaxWindows = 10;
constexpr size_t kMinWindowSamples = 1000;

Windowed WindowedStats(const std::vector<Timing>& timings, double seconds,
                       const SpeedProbe& probe) {
  const int windows = static_cast<int>(std::clamp<size_t>(
      timings.size() / kMinWindowSamples, 1, kMaxWindows));
  std::vector<std::vector<double>> latency(static_cast<size_t>(windows));
  std::vector<double> counts(kMaxWindows, 0.0);
  for (const Timing& t : timings) {
    const double at = t.done_s / seconds;
    if (at < 0.0 || at >= 1.0) continue;
    counts[static_cast<size_t>(at * kMaxWindows)] += 1.0;
    latency[static_cast<size_t>(at * windows)].push_back(t.ms);
  }
  const auto speed = [&](size_t w, size_t of) {
    const double width = seconds / static_cast<double>(of);
    return probe.Speed(width * static_cast<double>(w),
                       width * static_cast<double>(w + 1));
  };
  std::vector<double> per_s, p50, p90, p99, raw_per_s, raw_p50, raw_p90,
      raw_p99;
  for (size_t w = 0; w < counts.size(); ++w) {
    raw_per_s.push_back(counts[w] * kMaxWindows / seconds);
    per_s.push_back(raw_per_s.back() / speed(w, counts.size()));
  }
  for (size_t w = 0; w < latency.size(); ++w) {
    const double s = speed(w, latency.size());
    raw_p50.push_back(Quantile(latency[w], 0.50));
    raw_p90.push_back(Quantile(latency[w], 0.90));
    raw_p99.push_back(Quantile(latency[w], 0.99));
    p50.push_back(raw_p50.back() * s);
    p90.push_back(raw_p90.back() * s);
    p99.push_back(raw_p99.back() * s);
  }
  return {{MidMean(per_s), MidMean(p50), MidMean(p90), MidMean(p99)},
          {MidMean(raw_per_s), MidMean(raw_p50), MidMean(raw_p90),
           MidMean(raw_p99)}};
}

std::string SamplesTsv(const std::vector<Sample>& samples) {
  std::string text;
  for (const Sample& s : samples) {
    text += s.zipf_pool ? "z\t" : "u\t";
    text += std::to_string(s.index);
    text += '\t';
    text += s.reply;
    text += '\n';
  }
  return text;
}

int RunLoad(const Flags& flags) {
  Result<StreamSpec> spec = StreamSpecFromFlags(flags);
  if (!spec.ok()) return Fail(spec.status().ToString());
  const std::string host = "127.0.0.1";
  const int port = flags.GetInt("port", 0);
  const std::string data = flags.GetString("data", "");
  const std::string out = flags.GetString("out", "");
  const double seconds = flags.GetDouble("seconds", 10.0);
  const int pings = flags.GetInt("pings", 0);
  if (port <= 0 || data.empty() || out.empty() || seconds <= 0.0) {
    return Fail("load needs --port, --data, --out and --seconds > 0");
  }
  // The server's CPU time, all its threads, ended ones included. (Pid 0
  // would name this process.)
  const int server_pid = flags.GetInt("server-pid", 0);
  clockid_t server_cpu;
  if (server_pid <= 0 || clock_getcpuclockid(server_pid, &server_cpu) != 0) {
    return Fail("load needs the --server-pid of a running server");
  }
  // The probe samples every CPU; the clients, started from this thread,
  // inherit its binding to --client-cpu, away from the server's CPUs.
  const std::vector<int> probe_cpus = AllowedCpus();
  PinThisThread(flags.GetInt("client-cpu", -1));
  Result<Pools> pools = LoadPools(data, spec->seed);
  if (!pools.ok()) return Fail(pools.status().ToString());
  if (spec->zipf && pools->zipf.empty()) {
    return Fail("dataset has no Zipf pool");
  }
  const ZipfSampler zipf(std::max<size_t>(pools->zipf.size(), 1),
                         kZipfExponent);

  Tally tally;
  Conn control;
  if (!tally.Connect(&control, host, port) ||
      !tally.Record(control.Call("PING"))) {
    return Fail("cannot reach the server: " + tally.first_error);
  }
  // Round trips of the idle, freshly started server: the wire floor.
  std::vector<double> ping_us;
  for (int i = 0; i < pings; ++i) {
    const Clock::time_point sent = Clock::now();
    tally.Record(control.Call("PING"));
    ping_us.push_back(MillisSince(sent) * 1e3);
  }

  Phase phase;
  std::vector<ClientResult> results(kConnections);
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      RunClient(host, port, *spec, *pools, &zipf, c, &phase,
                &results[static_cast<size_t>(c)]);
    });
  }
  while (phase.warmed.load() < kConnections) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Result<std::string> stats_before = control.Call("STATS");
  Result<std::string> metrics_before = control.Metrics();
  tally.Record(stats_before);
  tally.Record(metrics_before.status());
  phase.start = Clock::now();
  phase.deadline = phase.start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds));
  const double server_cpu_before_us = ClockUs(server_cpu);
  phase.go.store(true);
  SpeedProbe probe(phase.start, probe_cpus);

  // Snapshots under load go out on their own connection at the middle of
  // each 1/N of the timed phase, while every client keeps sending.
  std::vector<double> snapshot_ms;
  if (spec->snapshots > 0) {
    Conn link;
    if (tally.Connect(&link, host, port)) {
      for (int j = 0; j < spec->snapshots; ++j) {
        std::this_thread::sleep_until(
            phase.start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  seconds * (j + 0.5) / spec->snapshots)));
        const Clock::time_point sent = Clock::now();
        if (tally.Record(link.Call("SNAPSHOT " + out + "/live.idx"))) {
          snapshot_ms.push_back(MillisSince(sent));
        }
      }
    }
  }
  for (std::thread& t : clients) t.join();
  const double server_cpu_us = ClockUs(server_cpu) - server_cpu_before_us;
  probe.Stop();
  Result<std::string> stats_after = control.Call("STATS");
  Result<std::string> metrics_after = control.Metrics();
  tally.Record(stats_after);
  tally.Record(metrics_after.status());

  std::vector<Timing> queries, mutations;
  std::vector<Sample> timed_samples;
  for (ClientResult& r : results) {
    tally.Merge(r.tally);
    queries.insert(queries.end(), r.queries.begin(), r.queries.end());
    mutations.insert(mutations.end(), r.mutations.begin(), r.mutations.end());
    timed_samples.insert(timed_samples.end(), r.samples.begin(),
                         r.samples.end());
  }

  // A workload that mutated snapshots its final state; `verify` reloads that
  // file and must reproduce the evaluation answers the live server gives.
  if (spec->mutate_frac > 0.0) {
    tally.Record(control.Call("SNAPSHOT " + out + "/final.idx"));
  }
  std::vector<Sample> eval;
  for (int j = 0; j < kEvalQueries; ++j) {
    const int index = SpreadIndex(j, kEvalQueries, pools->unique.size());
    const Result<std::string> reply =
        control.Call(QueryLine(*spec, PoolEntry(*pools, false, index)));
    if (tally.Record(reply)) eval.push_back({false, index, *reply});
  }

  const Windowed q = WindowedStats(queries, seconds, probe);
  const Windowed m = WindowedStats(mutations, seconds, probe);
  const double speed = probe.Speed();
  // Server CPU time per QUERY, INSERT or REMOVE the clients completed over
  // the timed phase: unlike latency and throughput, it leaves out the time
  // the host's scheduler keeps the server's threads waiting.
  const double cpu_us_per_req =
      Ratio(server_cpu_us,
            static_cast<double>(queries.size() + mutations.size()));
  JsonObject json;
  json.Num("attempted", static_cast<double>(tally.attempted));
  json.Num("failed", static_cast<double>(tally.failed));
  json.Num("error_frac", Ratio(static_cast<double>(tally.failed),
                               static_cast<double>(tally.attempted)));
  json.Str("first_error", tally.first_error);
  json.Num("queries", static_cast<double>(queries.size()));
  json.Num("query_qps", q.scaled.per_s);
  json.Num("query_p50_ms", q.scaled.p50_ms);
  json.Num("query_p90_ms", q.scaled.p90_ms);
  json.Num("query_p99_ms", q.scaled.p99_ms);
  json.Num("query_qps_raw", q.raw.per_s);
  json.Num("query_p50_ms_raw", q.raw.p50_ms);
  json.Num("query_p90_ms_raw", q.raw.p90_ms);
  json.Num("server_cpu_us_per_req", cpu_us_per_req * speed);
  json.Num("server_cpu_us_per_req_raw", cpu_us_per_req);
  json.Num("mutations", static_cast<double>(mutations.size()));
  json.Num("mutation_p50_ms", m.scaled.p50_ms);
  json.Num("mutation_p99_ms", m.scaled.p99_ms);
  json.Num("snapshots", static_cast<double>(snapshot_ms.size()));
  json.Num("snapshot_ms", Median(snapshot_ms) * speed);
  json.Num("core_speed", speed);
  json.Num("ping_p50_us", Quantile(ping_us, 0.50));
  json.Num("ping_p99_us", Quantile(ping_us, 0.99));
  const std::pair<std::string, std::string> files[] = {
      {"load.json", json.Text()},
      {"stats_before.txt", stats_before.ok() ? *stats_before : ""},
      {"stats_after.txt", stats_after.ok() ? *stats_after : ""},
      {"metrics_before.txt", metrics_before.ok() ? *metrics_before : ""},
      {"metrics_after.txt", metrics_after.ok() ? *metrics_after : ""},
      {"samples.tsv", SamplesTsv(timed_samples)},
      {"eval.tsv", SamplesTsv(eval)}};
  for (const auto& [name, text] : files) {
    Status written = WriteText(out + "/" + name, text);
    if (!written.ok()) return Fail(written.ToString());
  }
  // Failed requests are reported in load.json, not by the exit code: the
  // run still has a result, and it is not correct.
  if (tally.failed > 0) {
    std::fprintf(stderr, "servebench_suite: %lld of %lld requests failed; "
                 "first: %s\n",
                 tally.failed, tally.attempted, tally.first_error.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------- verify --

/// An engine loaded from a snapshot, without its graph store: queries never
/// read the store.
Result<ShardedEngine> LoadEngine(const std::string& path, int shards,
                                 int threads) {
  Result<PackedIndex> packed = ReadIndexFilePacked(path);
  if (!packed.ok()) return packed.status();
  packed->store.reset();
  ShardedOptions options;
  options.num_shards = shards;
  options.serve.threads = threads;
  return ShardedEngine::FromPacked(std::move(packed).value(), options);
}

Result<std::vector<Sample>> ReadSamples(const std::string& path) {
  Result<std::vector<std::string>> lines = ReadLines(path);
  if (!lines.ok()) return lines.status();
  std::vector<Sample> samples;
  for (const std::string& line : *lines) {
    const size_t a = line.find('\t');
    const size_t b = line.find('\t', a + 1);
    if (a == std::string::npos || b == std::string::npos) {
      return Status::ParseError("bad sample line in " + path);
    }
    samples.push_back({line[0] == 'z',
                       std::atoi(line.substr(a + 1, b - a - 1).c_str()),
                       line.substr(b + 1)});
  }
  return samples;
}

/// Recorded wire answers checked against the reference engine.
struct CheckResult {
  int checked = 0;
  int mismatches = 0;
  double recall = 0.0;  ///< mean |answer ∩ exact| / |exact|
  std::string first_mismatch;
};

/// Each recorded reply must equal, as text, the reference engine's answer in
/// the workload's mode; recall compares it with the exact answer.
CheckResult CheckSamples(const ShardedEngine& engine,
                         const std::vector<Sample>& samples,
                         const Pools& pools, const StreamSpec& spec) {
  GraphDatabase graphs;
  for (const Sample& s : samples) {
    Result<Graph> g =
        DecodeGraphInline(PoolEntry(pools, s.zipf_pool, s.index));
    graphs.push_back(g.ok() ? std::move(g).value() : Graph());
  }
  const std::vector<Ranking> answers =
      engine.QueryBatch(graphs, {.k = kTopK, .scan_mode = spec.mode});
  const std::vector<Ranking> exact =
      spec.mode == ScanMode::kFull
          ? answers
          : engine.QueryBatch(graphs,
                              {.k = kTopK, .scan_mode = ScanMode::kFull});
  CheckResult result;
  double overlap = 0.0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const std::string expected = FormatRankingResponse(answers[i]);
    if (expected != samples[i].reply && result.mismatches++ == 0) {
      result.first_mismatch = "pool entry " + std::to_string(samples[i].index) +
                              ": wire '" + samples[i].reply +
                              "' vs reference '" + expected + "'";
    }
    int shared = 0;
    for (const RankedResult& r : answers[i]) {
      for (const RankedResult& e : exact[i]) shared += r.id == e.id ? 1 : 0;
    }
    overlap += exact[i].empty() ? 1.0
                                : static_cast<double>(shared) /
                                      static_cast<double>(exact[i].size());
  }
  result.checked = static_cast<int>(samples.size());
  result.recall = Ratio(overlap, static_cast<double>(samples.size()));
  return result;
}

int RunVerify(const Flags& flags) {
  Result<StreamSpec> spec = StreamSpecFromFlags(flags);
  if (!spec.ok()) return Fail(spec.status().ToString());
  const std::string data = flags.GetString("data", "");
  const std::string run = flags.GetString("run", "");
  Result<Pools> pools = LoadPools(data, spec->seed);
  if (!pools.ok()) return Fail(pools.status().ToString());
  Result<std::vector<Sample>> timed = ReadSamples(run + "/samples.tsv");
  Result<std::vector<Sample>> eval = ReadSamples(run + "/eval.tsv");
  if (!timed.ok()) return Fail(timed.status().ToString());
  if (!eval.ok()) return Fail(eval.status().ToString());

  // A read-only run is checked against the prepared snapshot it served,
  // timed answers included. A mutating run is checked against a reload of
  // its final snapshot: the durable state reproduces what was served.
  const bool mutated = spec->mutate_frac > 0.0;
  Result<ShardedEngine> engine =
      LoadEngine(mutated ? run + "/final.idx" : data + "/index.idx",
                 spec->shards, spec->threads);
  if (!engine.ok()) return Fail(engine.status().ToString());
  const CheckResult checked = CheckSamples(*engine, *eval, *pools, *spec);
  CheckResult timed_checked;
  if (!mutated) timed_checked = CheckSamples(*engine, *timed, *pools, *spec);
  const int total = checked.checked + timed_checked.checked;
  const int mismatches = checked.mismatches + timed_checked.mismatches;
  const std::string& first = checked.mismatches > 0
                                 ? checked.first_mismatch
                                 : timed_checked.first_mismatch;

  JsonObject json;
  json.Num("checked", total);
  json.Num("mismatches", mismatches);
  json.Num("recall_at_10", checked.recall);
  json.Str("first_mismatch", first);
  Status written = WriteText(run + "/verify.json", json.Text());
  if (!written.ok()) return Fail(written.ToString());
  if (checked.checked < kEvalQueries || mismatches > 0) {
    return Fail("verify: " + std::to_string(mismatches) + " of " +
                std::to_string(total) + " answers differ; first: " + first);
  }
  return 0;
}

// ----------------------------------------------------------------- trace --

/// Spans recorded from outside the layers: each wraps one public call. A
/// span belongs to a request (or -1 for batch-level work) and to a parent
/// span (-1 for a round root).
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span; returns its id (or -1 when disabled).
  int Begin(const char* name, int request, int parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, request, parent, Now(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Closes a span; returns its duration in microseconds.
  double End(int span) {
    if (span < 0) return 0.0;
    Span& s = spans_[static_cast<size_t>(span)];
    s.end_ns = Now();
    return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }

  /// Durations (us) of every span with this name.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    return out;
  }

  /// The spans as a JSON array of [id, request, name, start_ns, end_ns,
  /// parent] rows.
  std::string Json() const {
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char row[160];
      std::snprintf(row, sizeof(row), "%s\n[%zu, %d, \"%s\", %lld, %lld, %d]",
                    i == 0 ? "" : ",", i, s.request, s.name, s.start_ns,
                    s.end_ns, s.parent);
      out += row;
    }
    return out + "]";
  }

 private:
  struct Span {
    const char* name;
    int request;
    int parent;
    long long start_ns;
    long long end_ns;
  };

  long long Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times one call as a span; the callable's result is returned.
template <typename Fn>
auto Timed(SpanLog* log, const char* name, int request, int parent, Fn&& fn) {
  const int span = log->Begin(name, request, parent);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    log->End(span);
  } else {
    auto result = fn();
    log->End(span);
    return result;
  }
}

/// The serving engine plus what the executor keeps beside it, freshly
/// loaded for one replay.
struct ReplayState {
  std::optional<ShardedEngine> engine;
  std::optional<GraphStore> store;
  std::unique_ptr<ResultCache> cache;
};

Result<ReplayState> LoadReplayState(const std::string& path,
                                    const StreamSpec& spec, size_t cache_bytes,
                                    double* load_ms) {
  ReplayState state;
  WallTimer timer;
  Result<PackedIndex> packed = ReadIndexFilePacked(path);
  if (!packed.ok()) return packed.status();
  std::optional<PersistedStore> stored = std::move(packed->store);
  packed->store.reset();
  ShardedOptions options;
  options.num_shards = spec.shards;
  options.serve.threads = spec.threads;
  Result<ShardedEngine> engine =
      ShardedEngine::FromPacked(std::move(packed).value(), options);
  if (!engine.ok()) return engine.status();
  *load_ms = timer.Millis();
  state.engine.emplace(std::move(engine).value());
  if (stored.has_value()) {
    state.store.emplace();
    ScopedRole writer(&state.store->writer_role());
    for (size_t i = 0; i < stored->ids.size(); ++i) {
      Status put =
          state.store->Put(stored->ids[i], std::move(stored->graphs[i]));
      if (!put.ok()) return put;
    }
  }
  state.cache = std::make_unique<ResultCache>(cache_bytes);
  return state;
}

/// Per-replay counters that must come out identical for every replay of
/// the same stream.
struct ReplayCounts {
  long long queries = 0;
  long long hits = 0;
  long long hit_mismatches = 0;
  long long failures = 0;
};

struct ReplayPlan {
  const StreamSpec* spec;
  const Pools* pools;
  const ZipfSampler* zipf;
  int rounds;
};

/// A parsed query waiting for its round's batch.
struct Pending {
  int request;
  WireRequest parsed;
};

/// What a replay drives: the layers' public calls (PipelineTarget) or the
/// server's own BatchExecutor (ExecutorTarget). WalkStream hands it the
/// stream in the order the server's dispatcher executes it.
class ReplayTarget {
 public:
  virtual ~ReplayTarget() = default;
  /// Answers a coalesced run of queries, then clears it.
  virtual void Batch(std::vector<Pending>* pending, int root) = 0;
  /// Returns the inserted graph's id.
  virtual Result<int> Insert(const WireRequest& insert, int request,
                             int root) = 0;
  virtual Status Remove(int id, int request, int root) = 0;
  virtual Status Snapshot(int root) = 0;

  /// Spans of the current phase: a disabled log during warm-up.
  SpanLog* log = nullptr;
  /// False during warm-up: only the replayed rounds are counted.
  bool timed = false;
  ReplayCounts counts;
};

/// Walks the workload's stream: the warm-up the wire run sends before
/// timing, then `plan.rounds` rounds, then a write probe. Round r carries
/// each connection's r-th request, so a round of queries is the batch the
/// closed-loop clients coalesce into; a mutation runs after the queries
/// before it (FIFO, like the dispatcher). The write probe INSERTs and
/// REMOVEs the same graphs, so the live set ends as it began, then takes
/// idle snapshots: every workload reports the write path.
void WalkStream(const ReplayPlan& plan, SpanLog* log, ReplayTarget* target) {
  const StreamSpec& spec = *plan.spec;
  std::vector<ConnStream> streams;
  std::vector<std::vector<int>> owned(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    streams.emplace_back(spec, c, *plan.pools, plan.zipf);
  }
  SpanLog quiet(false);
  target->log = &quiet;
  target->timed = false;
  ReplayCounts& counts = target->counts;
  auto parse = [&](const std::string& line, int request, int root) {
    Result<WireRequest> parsed =
        Timed(target->log, "wire.parse", request, root,
              [&] { return ParseWireRequest(line); });
    if (!parsed.ok()) ++counts.failures;
    return parsed;
  };
  // conn < 0: the write probe, which tracks its own ids.
  auto mutate = [&](const WireRequest& request, int conn, int id, int root) {
    if (request.verb == WireVerb::kInsert) {
      Result<int> inserted = target->Insert(request, id, root);
      if (!inserted.ok()) {
        ++counts.failures;
        return -1;
      }
      if (conn >= 0) owned[static_cast<size_t>(conn)].push_back(*inserted);
      return *inserted;
    }
    if (!target->Remove(request.id, id, root).ok()) ++counts.failures;
    if (conn >= 0) owned[static_cast<size_t>(conn)].pop_back();
    return -1;
  };
  auto snapshot = [&](int root) {
    if (!target->Snapshot(root).ok()) ++counts.failures;
  };

  std::vector<std::vector<Op>> warmups;
  size_t warm_rounds = 0;
  for (ConnStream& stream : streams) {
    warmups.push_back(stream.Warmup());
    warm_rounds = std::max(warm_rounds, warmups.back().size());
  }
  std::vector<Pending> pending;
  for (size_t r = 0; r < warm_rounds; ++r) {
    for (const std::vector<Op>& ops : warmups) {
      if (r >= ops.size()) continue;
      Result<WireRequest> parsed =
          parse(OpLine(spec, *plan.pools, ops[r]), -1, -1);
      if (parsed.ok()) pending.push_back({-1, std::move(parsed).value()});
    }
    target->Batch(&pending, -1);
  }

  target->log = log;
  target->timed = true;
  int request = 0;
  int next_snapshot = 0;
  for (int r = 0; r < plan.rounds; ++r) {
    const int root = log->Begin("replay.round", -1, -1);
    for (int c = 0; c < kConnections; ++c) {
      const Op op =
          streams[static_cast<size_t>(c)].Next(owned[static_cast<size_t>(c)]);
      Result<WireRequest> parsed =
          parse(OpLine(spec, *plan.pools, op), request, root);
      if (!parsed.ok()) {
        ++request;
        continue;
      }
      if (op.kind == OpKind::kQuery) {
        pending.push_back({request, std::move(parsed).value()});
      } else {
        target->Batch(&pending, root);
        mutate(*parsed, c, request, root);
      }
      ++request;
    }
    target->Batch(&pending, root);
    if (next_snapshot < spec.snapshots &&
        (r + 0.5) >= (next_snapshot + 0.5) * plan.rounds / spec.snapshots) {
      snapshot(root);
      ++next_snapshot;
    }
    log->End(root);
  }
  const int root = log->Begin("replay.writes", -1, -1);
  const size_t pool_size = plan.pools->unique.size();
  for (int j = 0; j < kTraceWritePairs; ++j) {
    Result<WireRequest> insert = parse(
        "INSERT " + PoolEntry(*plan.pools, false,
                              SpreadIndex(j, kTraceWritePairs, pool_size)),
        request, root);
    if (!insert.ok()) continue;
    WireRequest remove;
    remove.verb = WireVerb::kRemove;
    remove.id = mutate(*insert, -1, request++, root);
    if (remove.id >= 0) mutate(remove, -1, request++, root);
  }
  for (int j = 0; j < kTraceIdleSnapshots; ++j) snapshot(root);
  log->End(root);
}

/// The layers' public calls in the server's pipeline order: map_all →
/// cache lookup → batch scan of the misses → cache insert → format, each
/// timed as a span. Every traced query graph is appended to
/// *traced_queries when it is given.
class PipelineTarget : public ReplayTarget {
 public:
  PipelineTarget(ReplayState* state, const StreamSpec& spec,
                 std::string snapshot_path, std::vector<Graph>* traced_queries)
      : state_(state),
        spec_(spec),
        snapshot_path_(std::move(snapshot_path)),
        traced_queries_(traced_queries) {}

  void Batch(std::vector<Pending>* pending, int root) override {
    if (pending->empty()) return;
    ShardedEngine& engine = *state_->engine;
    GraphDatabase graphs;
    for (Pending& p : *pending) {
      if (timed && traced_queries_ != nullptr) {
        traced_queries_->push_back(p.parsed.graph);
      }
      graphs.push_back(std::move(p.parsed.graph));
    }
    const QueryOptions options = pending->front().parsed.options;
    const std::vector<std::vector<uint8_t>> fps =
        Timed(log, "mapper.map_all", -1, root,
              [&] { return engine.mapper().MapAll(graphs, spec_.threads); });
    const uint64_t epoch = engine.epoch();
    std::vector<std::string> keys(fps.size());
    std::vector<std::optional<Ranking>> answers(fps.size());
    std::vector<std::vector<uint8_t>> miss_fps;
    std::vector<size_t> misses;
    for (size_t i = 0; i < fps.size(); ++i) {
      answers[i] = Timed(
          log, "result_cache.lookup", (*pending)[i].request, root, [&] {
            // The executor also folds the scan mode and the prefilter flag
            // into the tag. A replay has one mode and no prefilter, so a
            // fixed tag hits exactly where the executor's key does; the
            // ExecutorTarget pass checks that it does.
            keys[i] =
                ResultCache::MakeKey(fps[i], options.k, 0, options.nprobe);
            return state_->cache->Lookup(keys[i], epoch);
          });
      if (answers[i].has_value()) {
        if (timed) ++counts.hits;
        // A hit must be exactly the cold answer at this epoch.
        if (engine.QueryMapped(fps[i], options) != *answers[i]) {
          ++counts.hit_mismatches;
        }
      } else {
        misses.push_back(i);
        miss_fps.push_back(fps[i]);
      }
    }
    if (timed) counts.queries += static_cast<long long>(fps.size());
    if (!misses.empty()) {
      std::vector<Ranking> scanned =
          Timed(log, "sharded_engine.query_batch", -1, root,
                [&] { return engine.QueryMappedBatch(miss_fps, options); });
      for (size_t j = 0; j < misses.size(); ++j) {
        const size_t i = misses[j];
        Timed(log, "result_cache.insert", (*pending)[i].request, root,
              [&] { state_->cache->Insert(keys[i], epoch, scanned[j]); });
        answers[i] = std::move(scanned[j]);
      }
    }
    for (size_t i = 0; i < answers.size(); ++i) {
      const std::string reply =
          Timed(log, "wire.format", (*pending)[i].request, root,
                [&] { return FormatRankingResponse(*answers[i]); });
      if (reply.rfind("OK", 0) != 0) ++counts.failures;
    }
    pending->clear();
  }

  Result<int> Insert(const WireRequest& insert, int request,
                     int root) override {
    ShardedEngine& engine = *state_->engine;
    ScopedRole writer(&engine.writer_role());
    Result<int> inserted = Timed(log, "sharded_engine.insert", request, root,
                                 [&] { return engine.Insert(insert.graph); });
    if (inserted.ok() && state_->store.has_value()) {
      ScopedRole store_writer(&state_->store->writer_role());
      Status put = state_->store->Put(*inserted, insert.graph);
      if (!put.ok()) return put;
    }
    return inserted;
  }

  Status Remove(int id, int request, int root) override {
    ShardedEngine& engine = *state_->engine;
    ScopedRole writer(&engine.writer_role());
    Status removed = Timed(log, "sharded_engine.remove", request, root,
                           [&] { return engine.Remove(id); });
    if (removed.ok() && state_->store.has_value()) {
      ScopedRole store_writer(&state_->store->writer_role());
      return state_->store->Remove(id);
    }
    return removed;
  }

  Status Snapshot(int root) override {
    ShardedEngine& engine = *state_->engine;
    ScopedRole writer(&engine.writer_role());
    FrozenShardedState frozen = Timed(log, "index_io.freeze", -1, root, [&] {
      FrozenShardedState f = engine.Freeze();
      if (state_->store.has_value()) {
        ScopedRole store_writer(&state_->store->writer_role());
        f.store = state_->store->Freeze();
      }
      return f;
    });
    return Timed(log, "index_io.write", -1, root, [&] {
      return ShardedEngine::WriteSnapshot(frozen, snapshot_path_);
    });
  }

 private:
  ReplayState* state_;
  const StreamSpec& spec_;
  std::string snapshot_path_;
  std::vector<Graph>* traced_queries_;
};

/// The server's own BatchExecutor fed the same stream, one batch per round
/// exactly as the pipeline replay coalesces it: the round's queries are
/// admitted while the executor is paused, then released together. Its cache
/// hits are the production key's, so the pipeline replay's must equal them.
class ExecutorTarget : public ReplayTarget {
 public:
  ExecutorTarget(BatchExecutor* executor, std::string snapshot_path)
      : executor_(executor), snapshot_path_(std::move(snapshot_path)) {}

  void Batch(std::vector<Pending>* pending, int /*root*/) override {
    if (pending->empty()) return;
    const BatchExecutorStats before = executor_->Stats();
    executor_->Pause();
    std::vector<char> ok(pending->size(), 0);
    std::vector<std::thread> clients;
    for (size_t i = 0; i < pending->size(); ++i) {
      clients.emplace_back([&, i] {
        WireRequest& r = (*pending)[i].parsed;
        ok[i] = executor_->Query(std::move(r.graph), r.options).ok() ? 1 : 0;
      });
    }
    const auto admitted = [](const BatchExecutorStats& s) {
      return s.accepted + s.rejected;
    };
    while (admitted(executor_->Stats()) < admitted(before) + pending->size()) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    executor_->Resume();
    for (std::thread& t : clients) t.join();
    for (char answered : ok) counts.failures += answered ? 0 : 1;
    if (timed) {
      counts.queries += static_cast<long long>(pending->size());
      counts.hits += static_cast<long long>(executor_->Stats().cache.hits -
                                            before.cache.hits);
    }
    pending->clear();
  }

  Result<int> Insert(const WireRequest& insert, int, int) override {
    return executor_->Insert(insert.graph);
  }
  Status Remove(int id, int, int) override { return executor_->Remove(id); }
  Status Snapshot(int) override { return executor_->Snapshot(snapshot_path_); }

 private:
  BatchExecutor* executor_;
  std::string snapshot_path_;
};

/// max/mean posting-list length over every shard's IVF buckets.
double BucketSkew(const ShardedEngine& engine) {
  double total = 0.0, largest = 0.0;
  int buckets = 0;
  for (int s = 0; s < engine.num_shards(); ++s) {
    const IvfIndex& ivf = engine.shard(s).ivf_index();
    for (int b = 0; b < ivf.num_buckets(); ++b) {
      const double size = static_cast<double>(ivf.posting(b).size());
      total += size;
      largest = std::max(largest, size);
      ++buckets;
    }
  }
  return buckets > 0 && total > 0.0 ? largest / (total / buckets) : 0.0;
}

/// Per-layer costs no pipeline call exposes, measured on pristine engines
/// over the replayed queries in their rounds: single-thread VF2 mapping, the
/// IVF probe, the per-shard scans (one thread), and the batch at the
/// server's thread count with the gather time it reports per query.
struct LayerCosts {
  std::vector<double> map_us;
  std::vector<double> probe_us;
  double candidates = 0.0;
  double live_rows = 0.0;
  double scan_us = 0.0;
  double scanned_rows = 0.0;
  double batch_us = 0.0;
  double gather_us = 0.0;
  double queries = 0.0;
};

Status MeasureLayers(const std::string& path, const StreamSpec& spec,
                     const std::vector<Graph>& queries, SpanLog* log,
                     LayerCosts* costs) {
  Result<ShardedEngine> parallel = LoadEngine(path, spec.shards, spec.threads);
  Result<ShardedEngine> serial = LoadEngine(path, spec.shards, 1);
  if (!parallel.ok()) return parallel.status();
  if (!serial.ok()) return serial.status();
  const QueryOptions options{.k = kTopK, .scan_mode = spec.mode};
  const int tile = std::max(1, ActiveScanKernel().tile_width());
  for (size_t begin = 0; begin < queries.size(); begin += kConnections) {
    const size_t end = std::min(queries.size(), begin + kConnections);
    const int root = log->Begin("layers.round", -1, -1);
    std::vector<std::vector<uint8_t>> fps;
    for (size_t i = begin; i < end; ++i) {
      const int span = log->Begin("mapper.map", static_cast<int>(i), root);
      fps.push_back(serial->mapper().Map(queries[i]));
      costs->map_us.push_back(log->End(span));
    }
    for (size_t i = 0; i < fps.size(); ++i) {
      const int request = static_cast<int>(begin + i);
      double probe = 0.0;
      for (int s = 0; s < serial->num_shards(); ++s) {
        const QueryEngine& shard = serial->shard(s);
        std::vector<uint64_t> packed = PackedBitMatrix::PackBits(fps[i]);
        packed.resize(shard.words_per_row(), 0);
        const std::vector<uint8_t> no_tombstones(
            static_cast<size_t>(shard.base_rows() + shard.delta_rows()), 0);
        const int span = log->Begin("ivf_index.probe", request, root);
        const std::vector<int> pool = shard.ivf_index().Probe(
            packed, shard.ivf_index().default_nprobe(), no_tombstones);
        probe += log->End(span);
        costs->candidates += static_cast<double>(pool.size());
        costs->live_rows += shard.num_graphs();
      }
      costs->probe_us.push_back(probe);
    }
    for (int s = 0; s < serial->num_shards(); ++s) {
      const QueryEngine& shard = serial->shard(s);
      if (spec.mode == ScanMode::kApprox) {
        // The approximate scan is the shard's query minus its own probe.
        for (size_t i = 0; i < fps.size(); ++i) {
          ServeQueryStats stats;
          const int span = log->Begin("query_engine.query",
                                      static_cast<int>(begin + i), root);
          shard.QueryMapped(fps[i], options, &stats);
          costs->scan_us += log->End(span) - stats.ivf_probe_usec;
          costs->scanned_rows += stats.scanned;
        }
        continue;
      }
      // The sharded engine scores a batch in tiles of the kernel's width.
      for (size_t t = 0; t < fps.size(); t += static_cast<size_t>(tile)) {
        const int count = static_cast<int>(
            std::min(fps.size() - t, static_cast<size_t>(tile)));
        std::vector<ServeQueryStats> stats;
        const int span = log->Begin("query_engine.tile", -1, root);
        shard.QueryMappedTile(fps.data() + t, count, options, &stats);
        costs->scan_us += log->End(span);
        for (const ServeQueryStats& st : stats) {
          costs->scanned_rows += st.scanned;
        }
      }
    }
    std::vector<ServeQueryStats> batch_stats;
    const int span = log->Begin("sharded_engine.batch", -1, root);
    parallel->QueryMappedBatch(fps, options, nullptr, &batch_stats);
    costs->batch_us += log->End(span);
    for (const ServeQueryStats& st : batch_stats) {
      costs->gather_us += st.gather_usec;
    }
    costs->queries += static_cast<double>(fps.size());
    log->End(root);
  }
  return Status::OK();
}

int RunTrace(const Flags& flags) {
  Result<StreamSpec> spec = StreamSpecFromFlags(flags);
  if (!spec.ok()) return Fail(spec.status().ToString());
  const std::string data = flags.GetString("data", "");
  const std::string out = flags.GetString("out", "");
  const int requests = flags.GetInt("requests", 4000);
  if (data.empty() || out.empty() || requests < kConnections) {
    return Fail("trace needs --data, --out and --requests >= 4");
  }
  Result<Pools> pools = LoadPools(data, spec->seed);
  if (!pools.ok()) return Fail(pools.status().ToString());
  const ZipfSampler zipf(std::max<size_t>(pools->zipf.size(), 1),
                         kZipfExponent);
  const std::string index_path = data + "/index.idx";
  const ReplayPlan plan{&*spec, &*pools, &zipf, requests / kConnections};
  const size_t cache_bytes =
      static_cast<size_t>(flags.GetInt("cache-mb", 64)) << 20;

  // Replays alternate untraced and traced, twice; the first traced one's
  // spans are kept. The faster traced replay against the faster untraced one
  // gives the tracing overhead. Every replay must count the same cache hits.
  std::vector<double> load_ms, untraced_s, traced_s;
  SpanLog kept(true);
  ReplayCounts kept_counts;
  std::vector<Graph> traced_queries;
  for (int pass = 0; pass < 4; ++pass) {
    const bool traced = pass % 2 == 1;
    double ms = 0.0;
    Result<ReplayState> state =
        LoadReplayState(index_path, *spec, cache_bytes, &ms);
    if (!state.ok()) return Fail(state.status().ToString());
    load_ms.push_back(ms);
    SpanLog discarded(traced);
    PipelineTarget target(&*state, *spec, out + "/replay.idx",
                          pass == 1 ? &traced_queries : nullptr);
    WallTimer timer;
    WalkStream(plan, pass == 1 ? &kept : &discarded, &target);
    (traced ? traced_s : untraced_s).push_back(timer.Seconds());
    const ReplayCounts& counts = target.counts;
    if (pass > 0 && counts.hits != kept_counts.hits) {
      return Fail("replays disagree on cache hits");
    }
    kept_counts = counts;
    if (counts.hit_mismatches > 0 || counts.failures > 0) {
      return Fail("replay: " + std::to_string(counts.hit_mismatches) +
                  " cache hits differ from cold answers, " +
                  std::to_string(counts.failures) + " failed calls");
    }
  }
  {
    // The replay keys the cache itself; the executor keys it as the server
    // does. Equal hits show the replay's hit ratio is the server's.
    Result<ShardedEngine> served =
        LoadEngine(index_path, spec->shards, spec->threads);
    if (!served.ok()) return Fail(served.status().ToString());
    BatchExecutorOptions options;
    options.cache_bytes = cache_bytes;
    BatchExecutor executor(&*served, options);
    ExecutorTarget target(&executor, out + "/executor.idx");
    SpanLog quiet(false);
    WalkStream(plan, &quiet, &target);
    if (target.counts.failures > 0 ||
        target.counts.hits != kept_counts.hits) {
      return Fail("the server's BatchExecutor counts " +
                  std::to_string(target.counts.hits) +
                  " cache hits on the replayed stream, the replay " +
                  std::to_string(kept_counts.hits) + " (" +
                  std::to_string(target.counts.failures) +
                  " failed requests)");
    }
  }
  SpanLog layers(true);
  LayerCosts costs;
  Status measured =
      MeasureLayers(index_path, *spec, traced_queries, &layers, &costs);
  if (!measured.ok()) return Fail(measured.ToString());
  Result<ShardedEngine> engine = LoadEngine(index_path, spec->shards, 1);
  if (!engine.ok()) return Fail(engine.status().ToString());

  const double queries = std::max(1.0, costs.queries);
  const std::vector<double> inserts = kept.Durations("sharded_engine.insert");
  JsonObject json;
  json.Num("queries", static_cast<double>(kept_counts.queries));
  json.Num("wire.parse_us_p50", Median(kept.Durations("wire.parse")));
  json.Num("wire.format_us_p50", Median(kept.Durations("wire.format")));
  json.Num("mapper.map_us_p50", Quantile(costs.map_us, 0.50));
  json.Num("mapper.map_us_p99", Quantile(costs.map_us, 0.99));
  json.Num("mapper.map_all_us_per_query",
           Ratio(Sum(kept.Durations("mapper.map_all")),
                 static_cast<double>(kept_counts.queries)));
  json.Num("result_cache.hit_ratio",
           Ratio(static_cast<double>(kept_counts.hits),
                 static_cast<double>(kept_counts.queries)));
  json.Num("result_cache.lookup_us_p50",
           Median(kept.Durations("result_cache.lookup")));
  json.Num("ivf_index.probe_us_p50", Median(costs.probe_us));
  json.Num("ivf_index.candidate_frac",
           Ratio(costs.candidates, costs.live_rows));
  json.Num("ivf_index.bucket_max_over_mean", BucketSkew(*engine));
  json.Num("query_engine.scan_us_per_query", costs.scan_us / queries);
  json.Num("query_engine.ns_per_row",
           Ratio(costs.scan_us * 1e3, costs.scanned_rows));
  json.Num("query_engine.rows_per_query", costs.scanned_rows / queries);
  json.Num("sharded_engine.batch_us_per_query", costs.batch_us / queries);
  json.Num("sharded_engine.gather_us_per_query", costs.gather_us / queries);
  json.Num("sharded_engine.insert_us_p50", Quantile(inserts, 0.50));
  json.Num("sharded_engine.insert_us_p99", Quantile(inserts, 0.99));
  json.Num("sharded_engine.remove_us_p50",
           Median(kept.Durations("sharded_engine.remove")));
  json.Num("index_io.load_ms", Median(load_ms));
  json.Num("index_io.freeze_ms",
           Median(kept.Durations("index_io.freeze")) / 1e3);
  json.Num("index_io.write_ms", Median(kept.Durations("index_io.write")) / 1e3);
  json.Num("index_io.bytes_per_row",
           static_cast<double>(std::filesystem::file_size(index_path)) /
               std::max(1, engine->num_graphs()));
  json.Num("trace.overhead_frac",
           *std::min_element(traced_s.begin(), traced_s.end()) /
                   *std::min_element(untraced_s.begin(), untraced_s.end()) -
               1.0);
  Status written = WriteText(out + "/trace.json", json.Text());
  if (written.ok()) {
    written = WriteText(out + "/spans.json", "{\"pipeline\": " + kept.Json() +
                                                 ",\n\"layers\": " +
                                                 layers.Json() + "}\n");
  }
  if (!written.ok()) return Fail(written.ToString());
  return 0;
}

/// The speed probe alone, until its standard input closes: run.py samples it
/// while it starts servers, to scale each start-up by the speed of the CPU
/// it ran on. Sample times are on the monotonic clock.
int RunProbe(const Flags& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) return Fail("probe needs --out");
  SpeedProbe probe{Clock::time_point(), AllowedCpus()};
  while (std::fgetc(stdin) != EOF) {
  }
  probe.Stop();
  Status written = WriteText(out, probe.Json());
  return written.ok() ? 0 : Fail(written.ToString());
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Fail(
        "usage: servebench_suite prepare|load|verify|trace|probe [--flags]");
  }
  const std::string command = argv[1];
  const Flags flags(argc, argv);
  if (command == "prepare") return RunPrepare(flags);
  if (command == "load") return RunLoad(flags);
  if (command == "verify") return RunVerify(flags);
  if (command == "trace") return RunTrace(flags);
  if (command == "probe") return RunProbe(flags);
  return Fail("unknown subcommand '" + command + "'");
}

}  // namespace
}  // namespace gdim

int main(int argc, char** argv) { return gdim::Main(argc, argv); }
