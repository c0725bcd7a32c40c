#include "graph/graph_io.h"

#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <system_error>
#include <utility>

namespace gdim {

namespace {

Status MakeParseError(int line_no, std::string_view what) {
  std::string message = "line ";
  message += std::to_string(line_no);
  message += ": ";
  message += what;
  return Status::ParseError(std::move(message));
}

/// Token whitespace: what `isspace` accepts in the "C" locale.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// The tokens of one record, consumed left to right the way `istream >>`
/// consumes them: a number takes only its sign and leading digits, so
/// "1x" reads 1 and leaves "x" for the next extraction.
class RecordCursor {
 public:
  RecordCursor(const char* begin, const char* end) : p_(begin), end_(end) {}

  /// The next whitespace-delimited token; empty at the end of the record.
  std::string_view Token() {
    SkipSpace();
    const char* start = p_;
    while (p_ != end_ && !IsSpace(*p_)) ++p_;
    return {start, static_cast<size_t>(p_ - start)};
  }

  /// The next integer: an optional '+' or '-', then at least one decimal
  /// digit. False when there is none or it does not fit T.
  template <typename T>
  bool Int(T* value) {
    SkipSpace();
    const char* start = p_;
    if (start != end_ && *start == '+') {
      ++start;
      if (start == end_ || *start < '0' || *start > '9') return false;
    }
    const auto [next, ec] = std::from_chars(start, end_, *value);
    if (ec != std::errc()) return false;
    p_ = next;
    return true;
  }

  /// The next integer as a label in [0, 2^32).
  bool Label(LabelId* label) {
    long long value = 0;
    if (!Int(&value) || value < 0 ||
        value > static_cast<long long>(std::numeric_limits<LabelId>::max())) {
      return false;
    }
    *label = static_cast<LabelId>(value);
    return true;
  }

 private:
  void SkipSpace() {
    while (p_ != end_ && IsSpace(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
};

const char* FindRecordEnd(const char* p, const char* end, RecordBreak breaks) {
  if (breaks == RecordBreak::kNewline) {
    const void* hit = std::memchr(p, '\n', static_cast<size_t>(end - p));
    return hit != nullptr ? static_cast<const char*>(hit) : end;
  }
  while (p != end && *p != '\n' && *p != ';') ++p;
  return p;
}

/// Writes `value` at p and returns the end. Callers size their buffers
/// for the widest value, so the conversion cannot run out of room.
template <typename T>
char* PutInt(char* p, T value) {
  return std::to_chars(p, p + std::numeric_limits<T>::digits10 + 2, value).ptr;
}

}  // namespace

Result<GraphDatabase> ParseGraphText(std::string_view text,
                                     RecordBreak breaks) {
  GraphDatabase db;
  Graph current;
  bool in_graph = false;
  int line_no = 0;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end) {
    const char* const record_end = FindRecordEnd(p, end, breaks);
    RecordCursor record(p, record_end);
    p = record_end == end ? end : record_end + 1;
    ++line_no;
    const std::string_view tag = record.Token();
    if (tag.empty()) continue;  // blank record
    if (tag == "t") {
      int id = 0;
      if (record.Token() != "#" || !record.Int(&id)) {
        return MakeParseError(line_no, "malformed graph header, want 't # N'");
      }
      if (in_graph) db.push_back(std::move(current));
      current = Graph();
      in_graph = true;
      current.set_id(id);
    } else if (tag == "v") {
      if (!in_graph) return MakeParseError(line_no, "'v' before 't' header");
      int vid = 0;
      LabelId label = 0;
      if (!record.Int(&vid) || !record.Label(&label)) {
        return MakeParseError(line_no,
                              "malformed vertex line (labels lie in "
                              "[0, 2^32))");
      }
      if (vid != current.NumVertices()) {
        return MakeParseError(line_no, "vertex ids must be consecutive");
      }
      current.AddVertex(label);
    } else if (tag == "e") {
      if (!in_graph) return MakeParseError(line_no, "'e' before 't' header");
      int u = 0, v = 0;
      LabelId label = 0;
      if (!record.Int(&u) || !record.Int(&v) || !record.Label(&label)) {
        return MakeParseError(line_no,
                              "malformed edge line (labels lie in "
                              "[0, 2^32))");
      }
      if (u < 0 || v < 0 || u >= current.NumVertices() ||
          v >= current.NumVertices() || u == v) {
        return MakeParseError(line_no, "edge endpoint out of range");
      }
      if (current.HasEdge(u, v)) {
        return MakeParseError(line_no, "duplicate edge");
      }
      current.AddEdge(u, v, label);
    } else if (tag[0] == '#') {
      continue;  // comment
    } else {
      return MakeParseError(
          line_no, "unknown record tag '" + std::string(tag) + "'");
    }
  }
  if (in_graph) db.push_back(std::move(current));
  return db;
}

void AppendGraphText(const Graph& graph, int id, char separator,
                     std::string* out) {
  // Fits the widest record: "e", two ints, a label, spaces, separator.
  char buf[48];
  char* p = buf;
  std::memcpy(p, "t # ", 4);
  p = PutInt(p + 4, id);
  *p++ = separator;
  out->append(buf, p);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    p = buf;
    *p++ = 'v';
    *p++ = ' ';
    p = PutInt(p, v);
    *p++ = ' ';
    p = PutInt(p, graph.VertexLabel(v));
    *p++ = separator;
    out->append(buf, p);
  }
  for (const Edge& e : graph.edges()) {
    p = buf;
    *p++ = 'e';
    *p++ = ' ';
    p = PutInt(p, e.u);
    *p++ = ' ';
    p = PutInt(p, e.v);
    *p++ = ' ';
    p = PutInt(p, e.label);
    *p++ = separator;
    out->append(buf, p);
  }
}

std::string FormatGraphText(const GraphDatabase& db) {
  std::string text;
  for (size_t i = 0; i < db.size(); ++i) {
    const Graph& g = db[i];
    AppendGraphText(g, g.id() >= 0 ? g.id() : static_cast<int>(i), '\n',
                    &text);
  }
  return text;
}

Result<GraphDatabase> ReadGraphStream(std::istream& in) {
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  return ParseGraphText(text);
}

Result<GraphDatabase> ReadGraphFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  return ReadGraphStream(in);
}

void WriteGraphStream(const GraphDatabase& db, std::ostream& out) {
  const std::string text = FormatGraphText(db);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

Status WriteGraphFile(const GraphDatabase& db, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  WriteGraphStream(db, out);
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace gdim
