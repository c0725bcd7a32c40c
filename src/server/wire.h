#ifndef GDIM_SERVER_WIRE_H_
#define GDIM_SERVER_WIRE_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "core/topk.h"
#include "graph/graph.h"
#include "obs/query_trace.h"
#include "serve/query_options.h"

namespace gdim {

/// The line-delimited text protocol of the network serving layer (see
/// docs/protocol.md for the full spec). One '\n'-terminated request line
/// maps to exactly one '\n'-terminated response line:
///
///   QUERY <k> [KEY=VALUE ...] <graph>
///                         ->  OK <m> <id>:<score> ...
///   INSERT <graph>        ->  OK <id>
///   REMOVE <id>           ->  OK removed <id>
///   COMPACT               ->  OK compacted <reclaimed>
///   REINDEX [p]           ->  OK reindexed generation=<g> features=<p>
///   SNAPSHOT <path>       ->  OK snapshot <path>
///   STATS                 ->  OK key=value ...
///   METRICS               ->  Prometheus text exposition, many lines,
///                             terminated by a '# EOF' line
///   PING                  ->  OK pong
///   QUIT                  ->  (server closes the connection)
///   any failure           ->  ERR <StatusCodeName> <message>
///
/// <graph> is a whole gSpan transaction ('t # id' / 'v id label' /
/// 'e u v label' records) with ';' ending each record, so a graph travels
/// on one line; the grammar is ParseGraphText's (graph/graph_io.h). Scores
/// print with 6 fractional digits.
///
/// QUERY accepts optional KEY=VALUE option tokens between <k> and the
/// graph (a gSpan token never contains '=', so the first '='-free token
/// starts the graph). Known keys: MODE=auto|full|approx
/// (QueryOptions::scan_mode), NPROBE=<n>|all (QueryOptions::nprobe;
/// how many IVF buckets a MODE=approx query probes per shard — rejected
/// without MODE=approx), and TRACE=0|1 (1 prepends a 'TRACE key=value ...'
/// per-stage breakdown line to the OK response). An unknown key or a bad
/// value is a typed ERR InvalidArgument.

/// Request verbs.
enum class WireVerb {
  kQuery,
  kInsert,
  kRemove,
  kCompact,
  kReindex,
  kSnapshot,
  kStats,
  kMetrics,
  kPing,
  kQuit,
};

/// A parsed request line.
struct WireRequest {
  WireVerb verb = WireVerb::kPing;
  QueryOptions options;  ///< kQuery: k + option tokens, engine-ready
  /// kQuery TRACE=1: the client asked for the per-stage breakdown line.
  /// Deliberately NOT part of QueryOptions — tracing must not fragment
  /// query coalescing or the result-cache key space.
  bool trace = false;
  int id = 0;        ///< kRemove
  int p = 0;         ///< kReindex dimension count; 0 = keep the current one
  std::string path;  ///< kSnapshot
  Graph graph;       ///< kQuery, kInsert
};

/// One graph as a single-line wire token (gSpan with ';' separators).
std::string EncodeGraphInline(const Graph& graph);

/// Inverse of EncodeGraphInline, parsed in place; the spec must contain
/// exactly one graph.
Result<Graph> DecodeGraphInline(std::string_view spec);

/// Parses one request line. Unknown verbs, malformed integers, and broken
/// graph specs come back as InvalidArgument/ParseError for the server to
/// format as an ERR response. The request holds no view into `line`.
Result<WireRequest> ParseWireRequest(std::string_view line);

/// "OK <m> <id>:<score> ..." for a ranking (no trailing newline).
std::string FormatRankingResponse(const Ranking& ranking);

/// "ERR <CodeName> <message>" with the message flattened to one line.
std::string FormatErrorResponse(const Status& status);

/// "TRACE queue=<usec> map=<usec> cache=<usec> scan=<usec> total=<usec>
/// cache_hit=0|1" — the per-stage breakdown line a TRACE=1 query receives
/// before its OK line. Values are integer microseconds, parseable with
/// StatsField().
std::string FormatTraceLine(const QueryTrace& trace);

/// Client side: parses a QUERY response line into the ranking, or the
/// transported Status for an ERR line (code name mapped back to the enum).
Result<Ranking> ParseRankingResponse(const std::string& line);

/// Client side: integer value of `key=` in a STATS response line, or -1
/// when the key is absent — the one parser of the STATS key=value format,
/// shared by the load generator and the tests.
long long StatsField(const std::string& stats_line, const std::string& key);

}  // namespace gdim

#endif  // GDIM_SERVER_WIRE_H_
