#include "server/wire.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

#include "graph/graph_io.h"

namespace gdim {

namespace {

/// Strict non-negative integer token: digits only, no signs, no whitespace.
Result<int> ParseNonNegInt(std::string_view token, std::string_view what) {
  const bool all_digits =
      !token.empty() && std::all_of(token.begin(), token.end(), [](char c) {
        return c >= '0' && c <= '9';
      });
  if (!all_digits) {
    return Status::InvalidArgument("bad " + std::string(what) + " '" +
                                   std::string(token) + "'");
  }
  int value = 0;
  if (std::from_chars(token.data(), token.data() + token.size(), value).ec !=
      std::errc()) {
    return Status::InvalidArgument(std::string(what) + " '" +
                                   std::string(token) + "' out of range");
  }
  return value;
}

StatusCode StatusCodeFromName(const std::string& name) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kOutOfRange,
      StatusCode::kIoError,      StatusCode::kParseError,
      StatusCode::kResourceExhausted, StatusCode::kInternal,
  };
  for (StatusCode code : kCodes) {
    if (name == StatusCodeToString(code)) return code;
  }
  // An unknown name still transports the error; kInternal is the catch-all.
  return StatusCode::kInternal;
}

}  // namespace

std::string EncodeGraphInline(const Graph& graph) {
  std::string spec;
  AppendGraphText(graph, graph.id() >= 0 ? graph.id() : 0, ';', &spec);
  spec.pop_back();  // records are ';'-separated, not terminated
  return spec;
}

Result<Graph> DecodeGraphInline(std::string_view spec) {
  Result<GraphDatabase> db =
      ParseGraphText(spec, RecordBreak::kNewlineOrSemicolon);
  if (!db.ok()) return db.status();
  if (db->size() != 1) {
    return Status::InvalidArgument("expected exactly one graph, got " +
                                   std::to_string(db->size()));
  }
  return std::move((*db)[0]);
}

Result<WireRequest> ParseWireRequest(std::string_view line) {
  const size_t space = line.find(' ');
  const std::string_view verb = line.substr(0, space);
  const std::string_view rest =
      space == std::string_view::npos ? std::string_view()
                                      : line.substr(space + 1);
  WireRequest request;
  if (verb == "QUERY") {
    const size_t k_end = rest.find(' ');
    if (k_end == std::string_view::npos) {
      return Status::InvalidArgument(
          "QUERY wants '<k> [KEY=VALUE ...] <graph>'");
    }
    Result<int> k = ParseNonNegInt(rest.substr(0, k_end), "k");
    if (!k.ok()) return k.status();
    request.options.k = *k;
    // Option tokens sit between k and the graph; a gSpan token never
    // contains '=', so the first '='-free token starts the graph.
    size_t pos = k_end + 1;
    for (;;) {
      const size_t token_end = rest.find(' ', pos);
      const std::string_view token = rest.substr(
          pos, token_end == std::string_view::npos ? std::string_view::npos
                                                   : token_end - pos);
      const size_t eq = token.find('=');
      if (eq == std::string_view::npos) break;  // the graph starts here
      const std::string_view key = token.substr(0, eq);
      const std::string_view value = token.substr(eq + 1);
      if (key == "MODE") {
        if (value == "auto") {
          request.options.scan_mode = ScanMode::kAuto;
        } else if (value == "full") {
          request.options.scan_mode = ScanMode::kFull;
        } else if (value == "approx") {
          request.options.scan_mode = ScanMode::kApprox;
        } else {
          return Status::InvalidArgument("bad QUERY MODE '" +
                                         std::string(value) +
                                         "' (want auto|full|approx)");
        }
      } else if (key == "NPROBE") {
        if (value == "all") {
          request.options.nprobe = kNprobeAll;
        } else {
          Result<int> nprobe = ParseNonNegInt(value, "QUERY NPROBE");
          if (!nprobe.ok()) return nprobe.status();
          if (*nprobe < 1) {
            return Status::InvalidArgument(
                "QUERY NPROBE must be >= 1 (or 'all')");
          }
          request.options.nprobe = *nprobe;
        }
      } else if (key == "TRACE") {
        if (value == "1") {
          request.trace = true;
        } else if (value == "0") {
          request.trace = false;
        } else {
          return Status::InvalidArgument("bad QUERY TRACE '" +
                                         std::string(value) + "' (want 0|1)");
        }
      } else {
        return Status::InvalidArgument("unknown QUERY option '" +
                                       std::string(key) + "'");
      }
      if (token_end == std::string_view::npos) {
        return Status::InvalidArgument("QUERY wants a graph after its "
                                       "options");
      }
      pos = token_end + 1;
    }
    // NPROBE tunes the approximate probe; on an exact mode it would be
    // silently ignored — reject so a client cannot believe it narrowed an
    // exact scan.
    if (request.options.nprobe != 0 &&
        request.options.scan_mode != ScanMode::kApprox) {
      return Status::InvalidArgument("QUERY NPROBE requires MODE=approx");
    }
    Result<Graph> graph = DecodeGraphInline(rest.substr(pos));
    if (!graph.ok()) return graph.status();
    request.verb = WireVerb::kQuery;
    request.graph = std::move(graph).value();
    return request;
  }
  if (verb == "INSERT") {
    if (rest.empty()) {
      return Status::InvalidArgument("INSERT wants '<graph>'");
    }
    Result<Graph> graph = DecodeGraphInline(rest);
    if (!graph.ok()) return graph.status();
    request.verb = WireVerb::kInsert;
    request.graph = std::move(graph).value();
    return request;
  }
  if (verb == "REMOVE") {
    Result<int> id = ParseNonNegInt(rest, "graph id");
    if (!id.ok()) return id.status();
    request.verb = WireVerb::kRemove;
    request.id = *id;
    return request;
  }
  if (verb == "COMPACT") {
    if (!rest.empty()) {
      return Status::InvalidArgument("COMPACT takes no arguments");
    }
    request.verb = WireVerb::kCompact;
    return request;
  }
  if (verb == "REINDEX") {
    if (!rest.empty()) {
      Result<int> p = ParseNonNegInt(rest, "dimension count");
      if (!p.ok()) return p.status();
      if (*p < 1) {
        return Status::InvalidArgument(
            "REINDEX dimension count must be >= 1 (omit it to keep the "
            "current one)");
      }
      request.p = *p;
    }
    request.verb = WireVerb::kReindex;
    return request;
  }
  if (verb == "SNAPSHOT") {
    if (rest.empty()) {
      return Status::InvalidArgument("SNAPSHOT wants '<path>'");
    }
    request.verb = WireVerb::kSnapshot;
    request.path = std::string(rest);
    return request;
  }
  if (verb == "STATS" || verb == "METRICS" || verb == "PING" ||
      verb == "QUIT") {
    if (!rest.empty()) {
      return Status::InvalidArgument(std::string(verb) +
                                     " takes no arguments");
    }
    request.verb = verb == "STATS"     ? WireVerb::kStats
                   : verb == "METRICS" ? WireVerb::kMetrics
                   : verb == "PING"    ? WireVerb::kPing
                                       : WireVerb::kQuit;
    return request;
  }
  return Status::InvalidArgument("unknown verb '" + std::string(verb) + "'");
}

std::string FormatRankingResponse(const Ranking& ranking) {
  std::string out = "OK " + std::to_string(ranking.size());
  out.reserve(out.size() + 16 * ranking.size());
  // " <id>:<score>" with the score as "%.6f" prints it; the widest finite
  // double takes 317 bytes in that form.
  char pair[352];
  char* const limit = pair + sizeof(pair);
  for (const RankedResult& r : ranking) {
    char* p = pair;
    *p++ = ' ';
    p = std::to_chars(p, limit, r.id).ptr;
    *p++ = ':';
    p = std::to_chars(p, limit, r.score, std::chars_format::fixed, 6).ptr;
    out.append(pair, p);
  }
  return out;
}

std::string FormatTraceLine(const QueryTrace& trace) {
  char out[192];
  std::snprintf(out, sizeof(out),
                "TRACE queue=%lld map=%lld cache=%lld scan=%lld total=%lld "
                "cache_hit=%d",
                std::llround(trace.queue_usec), std::llround(trace.map_usec),
                std::llround(trace.cache_usec), std::llround(trace.scan_usec),
                std::llround(trace.total_usec), trace.cache_hit ? 1 : 0);
  return out;
}

std::string FormatErrorResponse(const Status& status) {
  std::string message = status.message();
  std::replace(message.begin(), message.end(), '\n', ' ');
  std::replace(message.begin(), message.end(), '\r', ' ');
  return std::string("ERR ") + StatusCodeToString(status.code()) + " " +
         message;
}

long long StatsField(const std::string& stats_line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t pos = stats_line.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(stats_line.c_str() + pos + needle.size(), nullptr, 10);
}

Result<Ranking> ParseRankingResponse(const std::string& line) {
  if (line.rfind("ERR ", 0) == 0) {
    const std::string rest = line.substr(4);
    const size_t space = rest.find(' ');
    const std::string name = rest.substr(0, space);
    const std::string message =
        space == std::string::npos ? "" : rest.substr(space + 1);
    return Status(StatusCodeFromName(name), message);
  }
  if (line.rfind("OK ", 0) != 0) {
    return Status::ParseError("malformed response line '" + line + "'");
  }
  std::istringstream in(line.substr(3));
  size_t count = 0;
  if (!(in >> count)) {
    return Status::ParseError("malformed result count in '" + line + "'");
  }
  Ranking ranking;
  ranking.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string token;
    if (!(in >> token)) {
      return Status::ParseError("response promises " + std::to_string(count) +
                                " results, carries " + std::to_string(i));
    }
    const size_t colon = token.find(':');
    if (colon == std::string::npos) {
      return Status::ParseError("malformed result '" + token + "'");
    }
    RankedResult r;
    try {
      r.id = std::stoi(token.substr(0, colon));
      r.score = std::stod(token.substr(colon + 1));
    } catch (const std::exception&) {
      return Status::ParseError("malformed result '" + token + "'");
    }
    ranking.push_back(r);
  }
  std::string extra;
  if (in >> extra) {
    return Status::ParseError("trailing garbage '" + extra + "'");
  }
  return ranking;
}

}  // namespace gdim
