// CSV export and ingestion of metric series — the bridge between the
// in-memory store and external telemetry. Export feeds plotting (the
// scatter charts of paper Figs. 2-11 are one `plot x,y` away from these
// files) and trace capture; ingestion is the paper's black-box posture
// (§II-B2) made literal: the pipeline runs against recorded counters with
// no simulator in the loop.
//
// Round-trip contract: doubles are written with the shortest decimal
// representation that strtod parses back to the exact same bits
// (format_double), so export -> read_pool_csv -> export is lossless and
// byte-stable. Pool CSVs are `window_start,<metric...>` with the metric
// columns inner-joined on window start.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metric_store.h"

namespace headroom::telemetry {

/// Shortest printf-%g string that round-trips to exactly `value` through
/// strtod (the formatting the scenario serializer pins its goldens with):
/// of the %.*g renderings that parse back bit-exactly, the shortest, ties
/// going to the lowest precision. The search starts at the shortest
/// round-trip digit count std::to_chars reports, since no lower precision
/// can round-trip. Non-finite values print as nan, -nan, inf and -inf.
[[nodiscard]] std::string format_double(double value);

/// Strict inverse of format_double: the whole string must parse as one
/// finite double. Subnormals are accepted (glibc strtod flags them ERANGE,
/// but they are legitimate trace values and round-trip exactly). Every
/// trace-file parser uses this, so the leniency rules cannot drift apart.
[[nodiscard]] bool parse_finite_double(const std::string& text, double* out);

/// Strict signed-integer field parser (whole string, base 10, in-range) —
/// window starts, manifest versions, day indices.
[[nodiscard]] bool parse_int64(const std::string& text, std::int64_t* out);

/// getline that tolerates a trailing '\r' (CRLF traces from other tools).
bool read_csv_line(std::istream& in, std::string* line);

/// Splits on `sep`, keeping empty fields (a trailing separator yields a
/// trailing empty field).
[[nodiscard]] std::vector<std::string> split_csv_fields(
    const std::string& line, char sep = ',');

/// Writes one series as `window_start,value` rows with a header.
void write_series_csv(std::ostream& out, const TimeSeries& series,
                      const std::string& value_column = "value");

/// Writes an aligned (x, y) scatter as `x,y` rows with a header.
void write_scatter_csv(std::ostream& out, const AlignedPair& pair,
                       const std::string& x_column = "x",
                       const std::string& y_column = "y");

/// Writes several pool-scope metrics of one pool, inner-joined on window
/// start: `window_start,<metric...>`. Metrics absent from the store are
/// skipped; returns the number of metric columns written.
std::size_t write_pool_csv(std::ostream& out, const MetricStore& store,
                           std::uint32_t datacenter, std::uint32_t pool,
                           std::span<const MetricKind> metrics);

/// Outcome of one CSV ingestion. `error` is empty on success, otherwise a
/// one-line `source:line: message` diagnostic (the scenario-parser style).
struct CsvReadResult {
  std::string error;
  std::size_t rows = 0;                ///< Data rows ingested.
  std::vector<MetricKind> columns;     ///< Metric columns, header order.

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Checks a pool CSV header line: `window_start` first, then at least one
/// metric column, each a known metric named once. On success sets `keys`
/// to each metric column's pool-scope key of (datacenter, pool), in header
/// order, and returns ""; otherwise returns a `source:line: message`
/// diagnostic and leaves `keys` untouched. read_pool_csv and
/// serve's follow-mode tailer both check headers with it.
[[nodiscard]] std::string parse_pool_csv_header(
    const std::string& line, std::string_view source, std::size_t line_no,
    std::uint32_t datacenter, std::uint32_t pool,
    std::vector<SeriesKey>* keys);

/// Reads a pool CSV (the write_pool_csv format) back into `store` under the
/// pool-scope keys of (datacenter, pool). The header is validated against
/// the metric vocabulary, rows must be complete and strictly time-ordered,
/// and every value must parse as a finite double. Ingestion is batched:
/// rows accumulate into a MetricBuffer that is replayed through
/// MetricStore::merge (the memoized-merge-plan write path the parallel
/// simulator uses), not appended sample-by-sample. Ingestion is not
/// transactional: on error, batches merged before the failing line stay in
/// the store — callers needing all-or-nothing ingest into a scratch store.
[[nodiscard]] CsvReadResult read_pool_csv(std::istream& in,
                                          std::string_view source,
                                          MetricStore* store,
                                          std::uint32_t datacenter,
                                          std::uint32_t pool);

}  // namespace headroom::telemetry
