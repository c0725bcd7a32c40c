#ifndef GDIM_GRAPH_GRAPH_IO_H_
#define GDIM_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/status.h"
#include "graph/graph.h"

namespace gdim {

/// Text serialization in the de-facto standard gSpan transaction format:
///
///   t # <graph-id>
///   v <vertex-id> <vertex-label>
///   e <u> <v> <edge-label>
///
/// One record per line. Within a record, tokens are separated by runs of
/// ' ', '\t', '\v', '\f' or '\r'; tokens after the ones a record needs are
/// ignored. Integers are decimal with an optional '+' or '-' sign, and a
/// number ends at its first non-digit. Vertices must be declared 0..n-1 in
/// order; labels lie in [0, 2^32). Records whose first token starts with
/// '#' and blank records are ignored.

/// Strips one trailing '\r' from a getline'd line — CRLF tolerance for the
/// line-oriented v1 index header, so exact-match compares and width checks
/// hold on Windows-translated inputs. (The graph scanner needs no such
/// step: '\r' is token whitespace.)
inline void StripTrailingCarriageReturn(std::string* line) {
  if (!line->empty() && line->back() == '\r') line->pop_back();
}

/// Which bytes end a record: files and snapshot sections break at '\n'
/// only; the inline wire form also breaks at ';'.
enum class RecordBreak { kNewline, kNewlineOrSemicolon };

/// Parses a whole database from gSpan text in one pass over the bytes.
/// A malformed record is a ParseError naming its 1-based record number.
Result<GraphDatabase> ParseGraphText(
    std::string_view text, RecordBreak breaks = RecordBreak::kNewline);

/// Appends `graph` as one transaction with header id `id`, every record
/// (header included) ended by `separator`.
void AppendGraphText(const Graph& graph, int id, char separator,
                     std::string* out);

/// The gSpan text of db: graph i under its id, or under i when it has
/// none. These are the bytes of every graph file and snapshot section.
std::string FormatGraphText(const GraphDatabase& db);

/// Parses a whole database from a stream (reads it to the end).
Result<GraphDatabase> ReadGraphStream(std::istream& in);

/// Parses a whole database from a file path.
Result<GraphDatabase> ReadGraphFile(const std::string& path);

/// Writes FormatGraphText(db) to a stream.
void WriteGraphStream(const GraphDatabase& db, std::ostream& out);

/// Writes db to a file; fails with IoError if the file cannot be opened.
Status WriteGraphFile(const GraphDatabase& db, const std::string& path);

}  // namespace gdim

#endif  // GDIM_GRAPH_GRAPH_IO_H_
