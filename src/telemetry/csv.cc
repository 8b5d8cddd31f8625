#include "telemetry/csv.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <utility>
#include <vector>

namespace headroom::telemetry {

namespace {

/// Rows buffered per MetricStore::merge call while ingesting. Each batch
/// refills the same MetricBuffer with the same key sequence, so the store's
/// memoized merge plan is hit on every batch after the first.
constexpr std::size_t kIngestBatchRows = 512;

[[nodiscard]] std::string line_error(std::string_view source, std::size_t line,
                                     const std::string& message) {
  return std::string(source) + ":" + std::to_string(line) + ": " + message;
}

}  // namespace

bool parse_int64(const std::string& text, std::int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  // Reaching size() rejects an embedded NUL, where strtoll would stop.
  if (end != text.c_str() + text.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool parse_finite_double(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  // No errno/ERANGE check: glibc flags subnormal results as range errors,
  // but subnormals are legitimate trace values (and round-trip exactly).
  // Overflow is caught by the finiteness test.
  if (end != text.c_str() + text.size() || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

bool read_csv_line(std::istream& in, std::string* line) {
  if (!std::getline(in, *line)) return false;
  if (!line->empty() && line->back() == '\r') line->pop_back();
  return true;
}

std::vector<std::string> split_csv_fields(const std::string& line, char sep) {
  std::vector<std::string> fields;
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = line.find(sep, pos);
    fields.push_back(line.substr(pos, next - pos));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return fields;
}

std::string format_double(double value) {
  // The shortest representation that strtod parses back bit-exactly, in
  // printf's %g style. std::to_chars' shortest scientific form gives P, the
  // fewest significant digits any decimal needs to round-trip, so no %g
  // precision below P can round-trip and the search starts there (the
  // correctly rounded P-digit string may still miss, so it continues up to
  // 17, which always round-trips). Later precisions stay candidates because
  // %g's scientific form can make a *lower* precision longer — 10.0 is
  // "1e+01" at precision 1 but "10" at precision 2. to_chars' general
  // format with a precision renders exactly as printf's %.*g, and prints
  // nan, -nan, inf and -inf as printf does; from_chars rounds as strtod
  // does.
  char buf[64];
  const auto shortest = std::to_chars(buf, buf + sizeof buf, value,
                                      std::chars_format::scientific);
  if (!std::isfinite(value)) return std::string(buf, shortest.ptr);
  const int first_precision = static_cast<int>(std::count_if(
      buf, std::find(buf, shortest.ptr, 'e'),
      [](char c) { return c >= '0' && c <= '9'; }));

  char best[64];
  std::size_t best_len = 0;
  for (int precision = first_precision; precision <= 17; ++precision) {
    // A %.*g string at precision p that is shorter than p characters had
    // its trailing zeros trimmed, making it identical to some lower
    // precision's output — already tried. So once the best round-tripping
    // candidate is no longer than the precision, no later precision can
    // beat it.
    if (best_len > 0 && best_len <= static_cast<std::size_t>(precision)) {
      break;
    }
    const auto end = std::to_chars(buf, buf + sizeof buf, value,
                                   std::chars_format::general, precision);
    double back = 0.0;
    const auto parsed = std::from_chars(buf, end.ptr, back);
    if (parsed.ec != std::errc() || back != value) continue;
    const auto len = static_cast<std::size_t>(end.ptr - buf);
    if (best_len == 0 || len < best_len) {
      best_len = len;
      std::copy(buf, end.ptr, best);
    }
  }
  return std::string(best, best_len);
}

std::size_t write_pool_csv(std::ostream& out, const MetricStore& store,
                           std::uint32_t datacenter, std::uint32_t pool,
                           std::span<const MetricKind> metrics) {
  std::vector<const TimeSeries*> series;
  out << "window_start";
  for (MetricKind kind : metrics) {
    const TimeSeries& s = store.pool_series(datacenter, pool, kind);
    if (s.empty()) continue;
    series.push_back(&s);
    out << "," << to_string(kind);
  }
  out << "\n";
  if (series.empty()) return 0;

  // Inner join on window_start across all present series.
  std::vector<std::size_t> cursor(series.size(), 0);
  while (true) {
    // Find the max current timestamp; advance laggards to it.
    SimTime target = 0;
    bool done = false;
    for (std::size_t c = 0; c < series.size(); ++c) {
      if (cursor[c] >= series[c]->size()) {
        done = true;
        break;
      }
      target = std::max(target, series[c]->time_at(cursor[c]));
    }
    if (done) break;
    bool aligned = true;
    bool exhausted = false;
    for (std::size_t c = 0; c < series.size(); ++c) {
      while (cursor[c] < series[c]->size() &&
             series[c]->time_at(cursor[c]) < target) {
        ++cursor[c];
      }
      if (cursor[c] >= series[c]->size()) {
        exhausted = true;
      } else if (series[c]->time_at(cursor[c]) != target) {
        aligned = false;  // this cursor moved past target; re-derive target
      }
    }
    if (exhausted) break;
    if (!aligned) continue;
    out << target;
    for (std::size_t c = 0; c < series.size(); ++c) {
      out << "," << format_double(series[c]->value_at(cursor[c]));
      ++cursor[c];
    }
    out << "\n";
  }
  return series.size();
}

std::string parse_pool_csv_header(const std::string& line,
                                  std::string_view source, std::size_t line_no,
                                  std::uint32_t datacenter, std::uint32_t pool,
                                  std::vector<SeriesKey>* keys) {
  const std::vector<std::string> header = split_csv_fields(line);
  if (header.empty() || header[0] != "window_start") {
    return line_error(source, line_no,
                      "bad header: first column must be 'window_start', got '" +
                          (header.empty() ? "" : header[0]) + "'");
  }
  if (header.size() < 2) {
    return line_error(source, line_no, "bad header: no metric columns");
  }
  std::vector<SeriesKey> parsed;
  for (std::size_t c = 1; c < header.size(); ++c) {
    const auto kind = metric_from_string(header[c]);
    if (!kind) {
      return line_error(source, line_no,
                        "unknown metric column '" + header[c] + "'");
    }
    const SeriesKey key{datacenter, pool, SeriesKey::kPoolScope, *kind};
    if (std::find(parsed.begin(), parsed.end(), key) != parsed.end()) {
      return line_error(source, line_no,
                        "duplicate metric column '" + header[c] + "'");
    }
    parsed.push_back(key);
  }
  *keys = std::move(parsed);
  return "";
}

CsvReadResult read_pool_csv(std::istream& in, std::string_view source,
                            MetricStore* store, std::uint32_t datacenter,
                            std::uint32_t pool) {
  CsvReadResult result;
  if (store == nullptr) {
    result.error = std::string(source) + ": null store";
    return result;
  }

  std::string line;
  std::size_t line_no = 1;
  if (!read_csv_line(in, &line)) {
    result.error = std::string(source) + ": empty file (missing header)";
    return result;
  }
  std::vector<SeriesKey> keys;
  result.error = parse_pool_csv_header(line, source, line_no, datacenter,
                                       pool, &keys);
  if (!result.ok()) return result;
  for (const SeriesKey& key : keys) result.columns.push_back(key.metric);
  const std::size_t field_count = keys.size() + 1;

  MetricBuffer buffer;
  buffer.reserve(kIngestBatchRows * keys.size());
  SimTime last_time = 0;
  bool have_last = false;
  while (read_csv_line(in, &line)) {
    ++line_no;
    if (line.empty()) continue;  // tolerate a trailing blank line
    const std::vector<std::string> fields = split_csv_fields(line);
    if (fields.size() != field_count) {
      result.error = line_error(
          source, line_no,
          "expected " + std::to_string(field_count) + " fields, got " +
              std::to_string(fields.size()));
      return result;
    }
    SimTime t = 0;
    if (!parse_int64(fields[0], &t)) {
      result.error = line_error(
          source, line_no,
          "bad window_start '" + fields[0] + "' (expected an integer)");
      return result;
    }
    if (have_last && t <= last_time) {
      result.error = line_error(
          source, line_no,
          "window_start " + std::to_string(t) +
              " is not after the previous row (" + std::to_string(last_time) +
              "); rows must be strictly time-ordered");
      return result;
    }
    last_time = t;
    have_last = true;
    for (std::size_t c = 0; c < keys.size(); ++c) {
      double v = 0.0;
      if (!parse_finite_double(fields[c + 1], &v)) {
        result.error = line_error(
            source, line_no,
            "bad value '" + fields[c + 1] + "' for column '" +
                std::string(to_string(keys[c].metric)) +
                "' (expected a finite number)");
        return result;
      }
      buffer.record(keys[c], t, v);
    }
    ++result.rows;
    if (result.rows % kIngestBatchRows == 0) {
      try {
        store->merge(buffer);
      } catch (const std::exception& e) {
        result.error = line_error(source, line_no,
                                  std::string("store rejected rows: ") +
                                      e.what());
        return result;
      }
      buffer.clear();
    }
  }
  if (!buffer.empty()) {
    try {
      store->merge(buffer);
    } catch (const std::exception& e) {
      result.error = line_error(source, line_no,
                                std::string("store rejected rows: ") +
                                    e.what());
      return result;
    }
  }
  return result;
}

}  // namespace headroom::telemetry
