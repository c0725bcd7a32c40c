#ifndef GDIM_TESTS_TEST_UTIL_H_
#define GDIM_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/index_io.h"
#include "core/packed_bits.h"
#include "core/topk.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "graph/graph_utils.h"
#include "isomorphism/vf2.h"

namespace gdim {

/// gtest prints a Graph as its inline gSpan text ("t # 3;v 0 1;e ...")
/// instead of the struct's bytes; found by ADL, so EXPECT_EQ on graphs and
/// on a GraphDatabase shows the graphs.
inline void PrintTo(const Graph& graph, std::ostream* os) {
  std::string text;
  AppendGraphText(graph, graph.id(), ';', &text);
  text.pop_back();
  *os << text;
}

namespace testing_util {

/// Random connected labeled graph with n vertices and extra random edges.
inline Graph RandomConnectedGraph(int n, int extra_edges, int vertex_labels,
                                  int edge_labels, Rng* rng) {
  Graph g;
  for (int v = 0; v < n; ++v) {
    g.AddVertex(static_cast<LabelId>(
        rng->UniformU64(static_cast<uint64_t>(vertex_labels))));
  }
  for (int v = 1; v < n; ++v) {
    int u = static_cast<int>(rng->UniformU64(static_cast<uint64_t>(v)));
    g.AddEdge(u, v, static_cast<LabelId>(rng->UniformU64(
                        static_cast<uint64_t>(edge_labels))));
  }
  int guard = 0;
  while (extra_edges > 0 && guard < 200) {
    ++guard;
    int u = static_cast<int>(rng->UniformU64(static_cast<uint64_t>(n)));
    int v = static_cast<int>(rng->UniformU64(static_cast<uint64_t>(n)));
    if (u == v || g.HasEdge(u, v)) continue;
    g.AddEdge(u, v, static_cast<LabelId>(rng->UniformU64(
                        static_cast<uint64_t>(edge_labels))));
    --extra_edges;
  }
  return g;
}

/// Random edge-subgraph of g with the given number of edges kept.
inline Graph RandomEdgeSubgraph(const Graph& g, int keep_edges, Rng* rng) {
  std::vector<EdgeId> ids;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) ids.push_back(e);
  rng->Shuffle(&ids);
  keep_edges = std::min<int>(keep_edges, static_cast<int>(ids.size()));
  ids.resize(static_cast<size_t>(keep_edges));
  return EdgeSubgraph(g, ids);
}

/// Brute-force subgraph isomorphism: tries all injective vertex mappings.
/// Only usable for tiny patterns.
inline bool BruteForceSubgraphIso(const Graph& pattern, const Graph& target) {
  const int np = pattern.NumVertices();
  const int nt = target.NumVertices();
  if (np > nt) return false;
  std::vector<int> perm(static_cast<size_t>(nt));
  for (int i = 0; i < nt; ++i) perm[static_cast<size_t>(i)] = i;
  std::sort(perm.begin(), perm.end());
  do {
    bool ok = true;
    for (int v = 0; v < np && ok; ++v) {
      if (pattern.VertexLabel(v) !=
          target.VertexLabel(perm[static_cast<size_t>(v)])) {
        ok = false;
      }
    }
    for (const Edge& e : pattern.edges()) {
      if (!ok) break;
      EdgeId te = target.FindEdge(perm[static_cast<size_t>(e.u)],
                                  perm[static_cast<size_t>(e.v)]);
      if (te < 0 || target.GetEdge(te).label != e.label) ok = false;
    }
    if (ok) return true;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return false;
}

/// Brute-force maximum common edge subgraph size: tries all edge subsets of
/// the smaller graph. Exponential; patterns must have few edges.
inline int BruteForceMcs(const Graph& a, const Graph& b) {
  const Graph& small = a.NumEdges() <= b.NumEdges() ? a : b;
  const Graph& big = a.NumEdges() <= b.NumEdges() ? b : a;
  const int ne = small.NumEdges();
  int best = 0;
  for (uint32_t mask = 0; mask < (1u << ne); ++mask) {
    int bits = __builtin_popcount(mask);
    if (bits <= best) continue;
    std::vector<EdgeId> ids;
    for (int e = 0; e < ne; ++e) {
      if (mask & (1u << e)) ids.push_back(e);
    }
    Graph sub = EdgeSubgraph(small, ids);
    if (BruteForceSubgraphIso(sub, big)) best = bits;
  }
  return best;
}

/// The offline answer every serving path must reproduce bit for bit:
/// TopK(MappedRanking(query, rows)) with row i reported under ids[i]
/// (positional ids when `ids` is empty). Negative k answers like 0.
inline Ranking OfflineTopK(const std::vector<uint8_t>& query,
                           const std::vector<std::vector<uint8_t>>& rows,
                           const std::vector<int>& ids, int k) {
  Ranking ranking = TopK(MappedRanking(query, rows), std::max(k, 0));
  if (!ids.empty()) {
    for (RankedResult& r : ranking) r.id = ids[static_cast<size_t>(r.id)];
  }
  return ranking;
}

/// OfflineTopK under the containment prefilter's global rule: when the rows
/// holding every set bit of `query` are a non-empty set of at least k rows
/// and fewer than all rows, rank only those; otherwise rank every row.
/// *narrowed (optional) reports which side the rule took.
inline Ranking OfflinePrefilterTopK(
    const std::vector<uint8_t>& query,
    const std::vector<std::vector<uint8_t>>& rows, const std::vector<int>& ids,
    int k, bool* narrowed = nullptr) {
  std::vector<std::vector<uint8_t>> kept;
  std::vector<int> kept_ids;
  const bool any_bit = std::any_of(query.begin(), query.end(),
                                   [](uint8_t b) { return b != 0; });
  for (size_t i = 0; any_bit && i < rows.size(); ++i) {
    bool contains = true;
    for (size_t r = 0; r < query.size() && contains; ++r) {
      contains = query[r] == 0 || rows[i][r] != 0;
    }
    if (!contains) continue;
    kept.push_back(rows[i]);
    kept_ids.push_back(ids.empty() ? static_cast<int>(i) : ids[i]);
  }
  const bool narrow = !kept.empty() &&
                      static_cast<int>(kept.size()) >= std::max(k, 0) &&
                      kept.size() < rows.size();
  if (narrowed != nullptr) *narrowed = narrow;
  return narrow ? OfflineTopK(query, kept, kept_ids, k)
                : OfflineTopK(query, rows, ids, k);
}

// The gSpan codec as it stood before the string_view scanner and the
// to_chars printer: one istringstream per record on the way in, ostream
// output on the way out, ';' rewritten to '\n' for the wire form. The
// differential tests pin the production codec to it; the one intended
// difference is that the scanner rejects a label past 2^32 - 1, which this
// reader wraps into a LabelId.

inline Result<GraphDatabase> ReferenceReadGraphStream(std::istream& in) {
  auto parse_error = [](int line_no, const std::string& what) {
    std::ostringstream os;
    os << "line " << line_no << ": " << what;
    return Status::ParseError(os.str());
  };
  GraphDatabase db;
  Graph current;
  bool in_graph = false;
  int line_no = 0;
  std::string line;
  auto flush = [&] {
    if (in_graph) db.push_back(std::move(current));
    current = Graph();
  };
  while (std::getline(in, line)) {
    ++line_no;
    StripTrailingCarriageReturn(&line);
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag)) continue;  // blank line
    if (tag == "t") {
      std::string hash;
      int id = 0;
      if (!(ls >> hash >> id) || hash != "#") {
        return parse_error(line_no, "malformed graph header, want 't # N'");
      }
      flush();
      in_graph = true;
      current.set_id(id);
    } else if (tag == "v") {
      if (!in_graph) return parse_error(line_no, "'v' before 't' header");
      int vid = 0;
      long long label = 0;
      if (!(ls >> vid >> label) || label < 0) {
        return parse_error(line_no, "malformed vertex line");
      }
      if (vid != current.NumVertices()) {
        return parse_error(line_no, "vertex ids must be consecutive");
      }
      current.AddVertex(static_cast<LabelId>(label));
    } else if (tag == "e") {
      if (!in_graph) return parse_error(line_no, "'e' before 't' header");
      int u = 0, v = 0;
      long long label = 0;
      if (!(ls >> u >> v >> label) || label < 0) {
        return parse_error(line_no, "malformed edge line");
      }
      if (u < 0 || v < 0 || u >= current.NumVertices() ||
          v >= current.NumVertices() || u == v) {
        return parse_error(line_no, "edge endpoint out of range");
      }
      if (current.HasEdge(u, v)) {
        return parse_error(line_no, "duplicate edge");
      }
      current.AddEdge(u, v, static_cast<LabelId>(label));
    } else if (tag[0] == '#') {
      continue;  // comment
    } else {
      return parse_error(line_no, "unknown record tag '" + tag + "'");
    }
  }
  flush();
  return db;
}

inline void ReferenceWriteGraphStream(const GraphDatabase& db,
                                      std::ostream& out) {
  for (size_t i = 0; i < db.size(); ++i) {
    const Graph& g = db[i];
    int id = g.id() >= 0 ? g.id() : static_cast<int>(i);
    out << "t # " << id << "\n";
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      out << "v " << v << " " << g.VertexLabel(v) << "\n";
    }
    for (const Edge& e : g.edges()) {
      out << "e " << e.u << " " << e.v << " " << e.label << "\n";
    }
  }
}

inline std::string ReferenceEncodeGraphInline(const Graph& graph) {
  std::ostringstream text;
  ReferenceWriteGraphStream({graph}, text);
  std::string spec = text.str();
  while (!spec.empty() && spec.back() == '\n') spec.pop_back();
  std::replace(spec.begin(), spec.end(), '\n', ';');
  return spec;
}

inline Result<Graph> ReferenceDecodeGraphInline(const std::string& spec) {
  std::string text = spec;
  std::replace(text.begin(), text.end(), ';', '\n');
  text.push_back('\n');
  std::istringstream stream(text);
  Result<GraphDatabase> db = ReferenceReadGraphStream(stream);
  if (!db.ok()) return db.status();
  if (db->size() != 1) {
    return Status::InvalidArgument("expected exactly one graph, got " +
                                   std::to_string(db->size()));
  }
  return std::move((*db)[0]);
}

/// One to three random corruptions of gSpan text: truncation, byte flips
/// and deletions, inserted whitespace ('\t', '\r', runs of spaces), '+'
/// and '-' signs, integers past int and long long, embedded NULs, and
/// record separators ('\n', ';') in unexpected places.
inline std::string MutateGraphText(std::string text, Rng* rng) {
  static const char* const kWide[] = {
      "2147483647",          "2147483648",           "-2147483648",
      "-2147483649",         "4294967295",           "4294967296",
      "8589934592",          "9223372036854775807",  "9223372036854775808",
      "-9223372036854775809", "18446744073709551616", "0000000000000000000007",
      "+0",                  "-0"};
  static const char kBytes[] = " \t\r\n\v\f;#+-0123456789tvex";
  const int rounds = rng->UniformInt(1, 3);
  for (int round = 0; round < rounds; ++round) {
    const size_t pos = static_cast<size_t>(rng->UniformU64(text.size() + 1));
    const char byte = rng->Bernoulli(0.25)
                          ? static_cast<char>(rng->UniformU64(256))
                          : kBytes[rng->UniformU64(sizeof(kBytes) - 1)];
    switch (rng->UniformU64(9)) {
      case 0:
        text.resize(pos);
        break;
      case 1:
        if (pos < text.size()) text[pos] = byte;
        break;
      case 2:
        if (pos < text.size()) text.erase(pos, 1);
        break;
      case 3:
        text.insert(pos, rng->Bernoulli(0.5) ? "\t" : (rng->Bernoulli(0.5)
                                                          ? "\r"
                                                          : "   "));
        break;
      case 4: {
        // A sign in front of the next number.
        const size_t digit = text.find_first_of("0123456789", pos);
        if (digit != std::string::npos) {
          text.insert(digit, 1, rng->Bernoulli(0.7) ? '+' : '-');
        }
        break;
      }
      case 5: {
        // The next number replaced by a wide or signed one.
        const size_t begin = text.find_first_of("0123456789", pos);
        if (begin == std::string::npos) break;
        const size_t end = text.find_first_not_of("0123456789", begin);
        text.replace(begin, (end == std::string::npos ? text.size() : end) -
                                begin,
                     kWide[rng->UniformU64(std::size(kWide))]);
        break;
      }
      case 6:
        text.insert(pos, 1, '\0');
        break;
      case 7:
        text.insert(pos, 1, rng->Bernoulli(0.5) ? ';' : '\n');
        break;
      default:
        text.insert(pos, 1, byte);
        break;
    }
  }
  return text;
}

/// True when the record that `status` names ("line N: ...", records split
/// at '\n', and at ';' too when `semicolons`) is a well-formed 'v' or 'e'
/// record whose label exceeds 2^32 - 1 — a record the reference accepts by
/// wrapping the label.
inline bool NamesWideLabel(const std::string& text, const Status& status,
                           bool semicolons) {
  const std::string& message = status.message();
  if (message.rfind("line ", 0) != 0) return false;
  const int line_no = std::atoi(message.c_str() + 5);
  int current = 1;
  size_t begin = 0;
  while (current < line_no && begin <= text.size()) {
    const size_t end = text.find_first_of(semicolons ? ";\n" : "\n", begin);
    if (end == std::string::npos) return false;
    begin = end + 1;
    ++current;
  }
  const size_t end = text.find_first_of(semicolons ? ";\n" : "\n", begin);
  std::istringstream record(text.substr(
      begin, end == std::string::npos ? std::string::npos : end - begin));
  std::string tag;
  int a = 0, b = 0;
  long long label = 0;
  record >> tag;
  if (tag == "v") {
    record >> a >> label;
  } else if (tag == "e") {
    record >> a >> b >> label;
  } else {
    return false;
  }
  return static_cast<bool>(record) &&
         label > static_cast<long long>(std::numeric_limits<LabelId>::max());
}

// Index files in the formats production code only reads. The one
// production writer, WriteIndexFileV3Words, emits v3; these writers keep
// the v1 and v2 readers covered. They follow the byte layouts documented in
// core/index_io.h and validate nothing, so tests can also feed the readers
// files no production writer would emit.

/// v1 text: the magic line, the feature graphs, then one 0/1 digit row per
/// vector. Rows are positional; v1 cannot carry ids or next_id.
inline Status WriteV1IndexFile(const PersistedIndex& index,
                               const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << "gdim-index v1\n"
      << "features " << index.features.size() << "\n";
  WriteGraphStream(index.features, out);
  out << "vectors " << index.db_bits.size() << " " << index.features.size()
      << "\n";
  for (const std::vector<uint8_t>& row : index.db_bits) {
    for (const uint8_t bit : row) out << (bit != 0 ? '1' : '0');
    out << "\n";
  }
  out.flush();
  return out ? Status::OK() : Status::IoError("write failed: " + path);
}

template <typename T>
void AppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// v2 binary from packed row words: the GDIMIDX2 header, then the
/// dimension body (p, feature text, n, words_per_row, next_id, the word
/// block, the id block). Empty ids are positional; next_id -1 derives one
/// past the largest id.
inline Status WriteV2IndexFileWords(
    const GraphDatabase& features, uint64_t n, uint64_t words_per_row,
    const std::function<const uint64_t*(uint64_t)>& row_words,
    const std::vector<int>& ids, int next_id, const std::string& path) {
  std::ostringstream text;
  WriteGraphStream(features, text);
  const std::string feature_text = text.str();
  std::string bytes = "GDIMIDX2";
  AppendPod(&bytes, uint32_t{2});           // header version
  AppendPod(&bytes, uint32_t{0x01020304});  // endianness tag
  AppendPod(&bytes, static_cast<uint64_t>(features.size()));
  AppendPod(&bytes, static_cast<uint64_t>(feature_text.size()));
  bytes += feature_text;
  AppendPod(&bytes, n);
  AppendPod(&bytes, words_per_row);
  if (next_id < 0) {
    next_id = ids.empty() ? static_cast<int>(n) : ids.back() + 1;
  }
  AppendPod(&bytes, static_cast<uint64_t>(next_id));
  for (uint64_t i = 0; i < n && words_per_row > 0; ++i) {
    bytes.append(reinterpret_cast<const char*>(row_words(i)),
                 words_per_row * sizeof(uint64_t));
  }
  for (uint64_t i = 0; i < n; ++i) {
    AppendPod(&bytes, ids.empty() ? i : static_cast<uint64_t>(ids[i]));
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << bytes;
  out.flush();
  return out ? Status::OK() : Status::IoError("write failed: " + path);
}

/// v2 binary from byte rows (packed first).
inline Status WriteV2IndexFile(const PersistedIndex& index,
                               const std::string& path) {
  const PackedBitMatrix packed = PackedBitMatrix::FromRows(
      index.db_bits, static_cast<int>(index.features.size()));
  return WriteV2IndexFileWords(
      index.features, index.db_bits.size(),
      static_cast<uint64_t>(packed.words_per_row()),
      [&](uint64_t i) { return packed.row(static_cast<int>(i)); }, index.ids,
      index.next_id, path);
}

/// A DIMS-only v3 file from byte rows, through the production writer.
inline Status WriteV3IndexFile(const PersistedIndex& index,
                               const std::string& path) {
  const PackedBitMatrix packed = PackedBitMatrix::FromRows(
      index.db_bits, static_cast<int>(index.features.size()));
  return WriteIndexFileV3Words(
      index.features, index.db_bits.size(),
      static_cast<uint64_t>(packed.words_per_row()),
      [&](uint64_t i) { return packed.row(static_cast<int>(i)); }, index.ids,
      index.next_id, V3Sections{}, path);
}

/// The byte-row view of ReadIndexFilePacked: rows unpacked, v3 sections
/// dropped.
inline Result<PersistedIndex> ReadIndexFileBytes(const std::string& path) {
  Result<PackedIndex> packed = ReadIndexFilePacked(path);
  if (!packed.ok()) return packed.status();
  PersistedIndex out;
  out.features = std::move(packed->features);
  for (int i = 0; i < packed->rows.num_rows(); ++i) {
    out.db_bits.push_back(packed->rows.UnpackRow(i));
  }
  out.ids = std::move(packed->ids);
  out.next_id = packed->next_id;
  return out;
}

}  // namespace testing_util
}  // namespace gdim

#endif  // GDIM_TESTS_TEST_UTIL_H_
