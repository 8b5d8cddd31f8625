#include "telemetry/csv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace headroom::telemetry {
namespace {

/// The awkward doubles: plenty of mantissa bits, negatives, subnormals,
/// huge magnitudes — everything the old default-precision (6 significant
/// digits) writers silently truncated.
const std::vector<double> kAwkwardDoubles = {
    0.0,
    -0.0,
    1.0 / 3.0,
    -2.0 / 3.0,
    0.1,
    -123456.789012345,
    1.7976931348623157e308,   // DBL_MAX
    -1.7976931348623157e308,
    2.2250738585072014e-308,  // DBL_MIN (smallest normal)
    4.9406564584124654e-324,  // smallest subnormal
    -4.9406564584124654e-324,
    3.141592653589793,
    std::nextafter(1.0, 2.0),
    std::nextafter(100.0, 0.0),
    -9.8765432109876543e-7,
};

TEST(Csv, SeriesExport) {
  TimeSeries s;
  s.append(0, 1.5);
  s.append(120, 2.5);
  std::ostringstream out;
  write_series_csv(out, s, "rps");
  EXPECT_EQ(out.str(), "window_start,rps\n0,1.5\n120,2.5\n");
}

TEST(Csv, EmptySeriesHeaderOnly) {
  TimeSeries s;
  std::ostringstream out;
  write_series_csv(out, s);
  EXPECT_EQ(out.str(), "window_start,value\n");
}

TEST(Csv, ScatterExport) {
  AlignedPair pair;
  pair.x = {10.0, 20.0};
  pair.y = {1.0, 2.0};
  std::ostringstream out;
  write_scatter_csv(out, pair, "rps", "cpu");
  EXPECT_EQ(out.str(), "rps,cpu\n10,1\n20,2\n");
}

TEST(Csv, ScatterMismatchedLengthsEmitCommonPrefix) {
  // Regression: y shorter than x used to be read out of bounds.
  AlignedPair pair;
  pair.x = {10.0, 20.0, 30.0};
  pair.y = {1.0};
  std::ostringstream out;
  write_scatter_csv(out, pair, "rps", "cpu");
  EXPECT_EQ(out.str(), "rps,cpu\n10,1\n");

  AlignedPair longer_y;
  longer_y.x = {10.0};
  longer_y.y = {1.0, 2.0, 3.0};
  std::ostringstream out2;
  write_scatter_csv(out2, longer_y, "rps", "cpu");
  EXPECT_EQ(out2.str(), "rps,cpu\n10,1\n");
}

TEST(Csv, PoolExportJoinsMetrics) {
  MetricStore store;
  const SeriesKey rps{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kRequestsPerSecond};
  const SeriesKey cpu{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kCpuPercentTotal};
  for (SimTime t : {0L, 120L, 240L}) {
    store.record(rps, t, static_cast<double>(t));
  }
  // CPU is missing the middle window: only aligned rows are emitted.
  store.record(cpu, 0, 5.0);
  store.record(cpu, 240, 7.0);

  std::ostringstream out;
  const MetricKind metrics[] = {MetricKind::kRequestsPerSecond,
                                MetricKind::kCpuPercentTotal};
  const std::size_t columns = write_pool_csv(out, store, 0, 0, metrics);
  EXPECT_EQ(columns, 2u);
  EXPECT_EQ(out.str(),
            "window_start,rps,cpu_pct_total\n0,0,5\n240,240,7\n");
}

TEST(Csv, PoolExportSkipsAbsentMetrics) {
  MetricStore store;
  store.record({0, 0, SeriesKey::kPoolScope, MetricKind::kRequestsPerSecond},
               0, 1.0);
  std::ostringstream out;
  const MetricKind metrics[] = {MetricKind::kRequestsPerSecond,
                                MetricKind::kLatencyP95Ms};
  EXPECT_EQ(write_pool_csv(out, store, 0, 0, metrics), 1u);
  EXPECT_EQ(out.str(), "window_start,rps\n0,1\n");
}

TEST(Csv, PoolExportEmptyStore) {
  MetricStore store;
  std::ostringstream out;
  const MetricKind metrics[] = {MetricKind::kRequestsPerSecond};
  EXPECT_EQ(write_pool_csv(out, store, 0, 0, metrics), 0u);
}

// --- Precision / round-trip regression (the exporter used to write at
// --- default ostream precision, losing bits) --------------------------------

TEST(CsvFormatDouble, RoundTripsAwkwardValuesExactly) {
  for (const double v : kAwkwardDoubles) {
    const std::string text = format_double(v);
    const double back = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(back, v) << "'" << text << "'";
    // Bit-exactness, not just ==: -0.0 must come back signed.
    EXPECT_EQ(std::signbit(back), std::signbit(v)) << "'" << text << "'";
  }
}

TEST(CsvFormatDouble, PrefersTheShortestForm) {
  EXPECT_EQ(format_double(10.0), "10");    // not "1e+01"
  EXPECT_EQ(format_double(240.0), "240");  // not "2.4e+02"
  // Length ties keep the lowest-precision form ("20000" is no shorter).
  EXPECT_EQ(format_double(20000.0), "2e+04");
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(1e300), "1e+300");
}

TEST(CsvFormatDouble, PrintsThePrintfGForms) {
  // %g switches to scientific below 1e-4 and at 10^precision and up.
  EXPECT_EQ(format_double(0.0001), "0.0001");
  EXPECT_EQ(format_double(1e-05), "1e-05");
  EXPECT_EQ(format_double(1e-07), "1e-07");
  EXPECT_EQ(format_double(1234567.0), "1234567");
  EXPECT_EQ(format_double(1e16), "1e+16");
  EXPECT_EQ(format_double(12345678901234568.0), "12345678901234568");
  EXPECT_EQ(format_double(1e21), "1e+21");
  EXPECT_EQ(format_double(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(format_double(4.9406564584124654e-324), "5e-324");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(format_double(nan), "nan");
  EXPECT_EQ(format_double(-nan), "-nan");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(format_double(inf), "inf");
  EXPECT_EQ(format_double(-inf), "-inf");
}

/// The oracle: every %g precision from 1 to 17, rendered by snprintf and
/// checked by strtod, keeping the shortest that round-trips. format_double
/// must print exactly what this prints.
std::string reference_format_double(double value) {
  char best[64];
  std::size_t best_len = 0;
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    if (best_len > 0 && best_len <= static_cast<std::size_t>(precision)) {
      break;
    }
    const int len = std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (len <= 0) continue;
    if (std::strtod(buf, nullptr) != value) continue;
    if (best_len == 0 || static_cast<std::size_t>(len) < best_len) {
      best_len = static_cast<std::size_t>(len);
      std::snprintf(best, sizeof best, "%s", buf);
    }
  }
  return best_len > 0 ? best : buf;
}

void expect_matches_reference(double value) {
  EXPECT_EQ(format_double(value), reference_format_double(value))
      << std::hexfloat << value;
}

TEST(CsvFormatDouble, MatchesTheSnprintfReferenceOnEdgeClasses) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const double dbl_min = std::numeric_limits<double>::min();
  const double dbl_max = std::numeric_limits<double>::max();
  std::vector<double> values = {0.0,      -0.0,     inf,      -inf,
                                nan,      -nan,     dbl_min,  -dbl_min,
                                dbl_max,  -dbl_max, denorm_min,
                                -denorm_min};
  values.insert(values.end(), kAwkwardDoubles.begin(), kAwkwardDoubles.end());
  // Subnormals: small multiples of the smallest, and the top of the range.
  for (int k = 1; k <= 1000; ++k) {
    values.push_back(k * denorm_min);
    values.push_back(-k * 997 * denorm_min);
  }
  double below_min = dbl_min;
  for (int k = 0; k < 100; ++k) {
    below_min = std::nextafter(below_min, 0.0);
    values.push_back(below_min);
  }
  // Powers of ten across the whole range, and their neighbours.
  for (int e = -320; e <= 308; ++e) {
    const double p = std::strtod(("1e" + std::to_string(e)).c_str(), nullptr);
    values.push_back(p);
    values.push_back(std::nextafter(p, 0.0));
    values.push_back(std::nextafter(p, inf));
  }
  // Exact binary ties, where %g's rounding of a ...5 digit decides.
  for (int k = 0; k < 2000; ++k) {
    values.push_back(k + 0.5);
    values.push_back(-(k + 0.5));
    values.push_back((2 * k + 1) / 1024.0);
  }
  for (const double v : values) expect_matches_reference(v);
}

TEST(CsvFormatDouble, MatchesTheSnprintfReferenceOnSeededValues) {
  std::mt19937_64 rng(20180618);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  constexpr int kPerClass = 100000 / 3;
  for (int i = 0; i < kPerClass; ++i) {
    // Uniform in log-magnitude over [1e-12, 1e12), both signs.
    const double magnitude = std::pow(10.0, unit(rng) * 24.0 - 12.0);
    expect_matches_reference((rng() & 1) != 0 ? magnitude : -magnitude);
    // Integers of every width up to 64 bits.
    const auto integer = static_cast<std::int64_t>(rng() >> (rng() % 64));
    expect_matches_reference(static_cast<double>(integer));
    // Random finite bit patterns.
    double bits_value = 0.0;
    do {
      const std::uint64_t bits = rng();
      std::memcpy(&bits_value, &bits, sizeof bits_value);
    } while (!std::isfinite(bits_value));
    expect_matches_reference(bits_value);
  }
}

TEST(Csv, SeriesExportRoundTripsBitExactly) {
  TimeSeries s;
  SimTime t = 0;
  for (const double v : kAwkwardDoubles) s.append(t += 120, v);
  std::ostringstream out;
  write_series_csv(out, s, "cpu_pct_total");

  // Parse the rows back with strtod and compare bits.
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  for (const double expected : kAwkwardDoubles) {
    ASSERT_TRUE(std::getline(in, line));
    const std::size_t comma = line.find(',');
    ASSERT_NE(comma, std::string::npos);
    const double v = std::strtod(line.c_str() + comma + 1, nullptr);
    EXPECT_EQ(v, expected) << line;
    EXPECT_EQ(std::signbit(v), std::signbit(expected)) << line;
  }
}

TEST(Csv, ScatterExportRoundTripsBitExactly) {
  AlignedPair pair;
  for (const double v : kAwkwardDoubles) {
    pair.x.push_back(v);
    pair.y.push_back(-v);
  }
  std::ostringstream out;
  write_scatter_csv(out, pair, "x", "y");
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  for (const double expected : kAwkwardDoubles) {
    ASSERT_TRUE(std::getline(in, line));
    const std::size_t comma = line.find(',');
    ASSERT_NE(comma, std::string::npos);
    char* end = nullptr;
    EXPECT_EQ(std::strtod(line.c_str(), &end), expected) << line;
    EXPECT_EQ(std::strtod(line.c_str() + comma + 1, nullptr), -expected)
        << line;
  }
}

// --- Inner-join edge cases --------------------------------------------------

TEST(Csv, PoolExportJoinHandlesGapsOnBothSides) {
  MetricStore store;
  const SeriesKey rps{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kRequestsPerSecond};
  const SeriesKey cpu{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kCpuPercentTotal};
  // rps misses 240; cpu misses 120 — only 0 and 360 align.
  for (SimTime t : {0L, 120L, 360L}) store.record(rps, t, 1.0 + t);
  for (SimTime t : {0L, 240L, 360L}) store.record(cpu, t, 2.0 + t);
  std::ostringstream out;
  const MetricKind metrics[] = {MetricKind::kRequestsPerSecond,
                                MetricKind::kCpuPercentTotal};
  EXPECT_EQ(write_pool_csv(out, store, 0, 0, metrics), 2u);
  EXPECT_EQ(out.str(),
            "window_start,rps,cpu_pct_total\n0,1,2\n360,361,362\n");
}

TEST(Csv, PoolExportJoinHandlesMismatchedCadences) {
  MetricStore store;
  const SeriesKey rps{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kRequestsPerSecond};
  const SeriesKey cpu{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kCpuPercentTotal};
  for (SimTime t = 0; t < 600; t += 120) store.record(rps, t, 1.0);
  for (SimTime t = 0; t < 600; t += 240) store.record(cpu, t, 2.0);
  std::ostringstream out;
  const MetricKind metrics[] = {MetricKind::kRequestsPerSecond,
                                MetricKind::kCpuPercentTotal};
  EXPECT_EQ(write_pool_csv(out, store, 0, 0, metrics), 2u);
  // Every other rps window matches a cpu window: 0, 240, 480.
  EXPECT_EQ(out.str(),
            "window_start,rps,cpu_pct_total\n0,1,2\n240,1,2\n480,1,2\n");
}

TEST(Csv, PoolExportJoinTerminatesWhenOneSeriesExhaustsMidJoin) {
  MetricStore store;
  const SeriesKey rps{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kRequestsPerSecond};
  const SeriesKey cpu{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kCpuPercentTotal};
  const SeriesKey lat{0, 0, SeriesKey::kPoolScope, MetricKind::kLatencyP95Ms};
  // cpu runs out two windows early, lat one window early; the join must
  // stop at the shortest series without reading past its end (asan-clean).
  for (SimTime t = 0; t < 600; t += 120) store.record(rps, t, 1.0);
  for (SimTime t = 0; t < 360; t += 120) store.record(cpu, t, 2.0);
  for (SimTime t = 0; t < 480; t += 120) store.record(lat, t, 3.0);
  std::ostringstream out;
  const MetricKind metrics[] = {MetricKind::kRequestsPerSecond,
                                MetricKind::kCpuPercentTotal,
                                MetricKind::kLatencyP95Ms};
  EXPECT_EQ(write_pool_csv(out, store, 0, 0, metrics), 3u);
  EXPECT_EQ(out.str(),
            "window_start,rps,cpu_pct_total,latency_p95_ms\n"
            "0,1,2,3\n120,1,2,3\n240,1,2,3\n");
}

TEST(Csv, PoolExportJoinExhaustionWhileAdvancingALaggard) {
  MetricStore store;
  const SeriesKey rps{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kRequestsPerSecond};
  const SeriesKey cpu{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kCpuPercentTotal};
  // After the shared window at 0, cpu's remaining windows all precede
  // rps's next one: the laggard advance must hit cpu's end and stop.
  store.record(rps, 0, 1.0);
  store.record(rps, 1000, 1.0);
  store.record(cpu, 0, 2.0);
  store.record(cpu, 120, 2.0);
  store.record(cpu, 240, 2.0);
  std::ostringstream out;
  const MetricKind metrics[] = {MetricKind::kRequestsPerSecond,
                                MetricKind::kCpuPercentTotal};
  EXPECT_EQ(write_pool_csv(out, store, 0, 0, metrics), 2u);
  EXPECT_EQ(out.str(), "window_start,rps,cpu_pct_total\n0,1,2\n");
}

// --- Reader -----------------------------------------------------------------

TEST(CsvRead, RoundTripsAWrittenPoolCsvBitExactly) {
  MetricStore original;
  const SeriesKey rps{2, 3, SeriesKey::kPoolScope,
                      MetricKind::kRequestsPerSecond};
  const SeriesKey cpu{2, 3, SeriesKey::kPoolScope,
                      MetricKind::kCpuPercentAttributed};
  SimTime t = 0;
  for (const double v : kAwkwardDoubles) {
    t += 120;
    original.record(rps, t, v);
    original.record(cpu, t, v * (1.0 / 3.0));
  }
  const MetricKind metrics[] = {MetricKind::kRequestsPerSecond,
                                MetricKind::kCpuPercentAttributed};
  std::ostringstream first;
  ASSERT_EQ(write_pool_csv(first, original, 2, 3, metrics), 2u);

  MetricStore ingested;
  std::istringstream in(first.str());
  const CsvReadResult read = read_pool_csv(in, "trace.csv", &ingested, 2, 3);
  ASSERT_TRUE(read.ok()) << read.error;
  EXPECT_EQ(read.rows, kAwkwardDoubles.size());
  ASSERT_EQ(read.columns.size(), 2u);
  EXPECT_EQ(read.columns[0], MetricKind::kRequestsPerSecond);
  EXPECT_EQ(read.columns[1], MetricKind::kCpuPercentAttributed);
  EXPECT_EQ(ingested.sample_count(), 2 * kAwkwardDoubles.size());

  // Byte-stable: exporting the re-ingested store reproduces the file.
  std::ostringstream second;
  ASSERT_EQ(write_pool_csv(second, ingested, 2, 3, metrics), 2u);
  EXPECT_EQ(second.str(), first.str());

  // And the value columns are bit-identical.
  const auto& s1 = original.pool_series(2, 3, MetricKind::kRequestsPerSecond);
  const auto& s2 = ingested.pool_series(2, 3, MetricKind::kRequestsPerSecond);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1.time_at(i), s2.time_at(i));
    EXPECT_EQ(s1.value_at(i), s2.value_at(i)) << i;
  }
}

TEST(CsvRead, BatchesThroughTheMergePathOnLongFiles) {
  // More rows than one ingest batch (512), so the reader's repeated
  // MetricBuffer refill exercises the store's memoized merge plans.
  std::string csv = "window_start,rps,active_servers\n";
  const std::size_t rows = 1500;
  for (std::size_t i = 0; i < rows; ++i) {
    csv += std::to_string(120 * static_cast<SimTime>(i)) + "," +
           format_double(0.5 + static_cast<double>(i)) + ",64\n";
  }
  MetricStore store;
  std::istringstream in(csv);
  const CsvReadResult read = read_pool_csv(in, "long.csv", &store, 0, 0);
  ASSERT_TRUE(read.ok()) << read.error;
  EXPECT_EQ(read.rows, rows);
  const auto& series =
      store.pool_series(0, 0, MetricKind::kRequestsPerSecond);
  ASSERT_EQ(series.size(), rows);
  EXPECT_TRUE(series.regular());  // fixed cadence reconstructed as stride
  EXPECT_EQ(series.stride(), 120);
  EXPECT_EQ(series.value_at(1499), 0.5 + 1499.0);
}

TEST(CsvRead, ToleratesCrlfAndTrailingBlankLine) {
  MetricStore store;
  std::istringstream in("window_start,rps\r\n0,1.5\r\n120,2.5\r\n\r\n");
  const CsvReadResult read = read_pool_csv(in, "crlf.csv", &store, 0, 0);
  ASSERT_TRUE(read.ok()) << read.error;
  EXPECT_EQ(read.rows, 2u);
  EXPECT_EQ(store.pool_series(0, 0, MetricKind::kRequestsPerSecond).size(),
            2u);
}

TEST(CsvRead, DiagnosesMalformedInputWithFileAndLine) {
  const struct {
    const char* text;
    const char* expected_error;
  } cases[] = {
      {"", "t.csv: empty file (missing header)"},
      {"time,rps\n",
       "t.csv:1: bad header: first column must be 'window_start', got "
       "'time'"},
      {"window_start\n", "t.csv:1: bad header: no metric columns"},
      {"window_start,bogus\n", "t.csv:1: unknown metric column 'bogus'"},
      {"window_start,rps,rps\n", "t.csv:1: duplicate metric column 'rps'"},
      {"window_start,rps\n0\n", "t.csv:2: expected 2 fields, got 1"},
      {"window_start,rps\n0,1,2\n", "t.csv:2: expected 2 fields, got 3"},
      {"window_start,rps\nx,1\n",
       "t.csv:2: bad window_start 'x' (expected an integer)"},
      {"window_start,rps\n0,1\n0,2\n",
       "t.csv:3: window_start 0 is not after the previous row (0); rows "
       "must be strictly time-ordered"},
      {"window_start,rps\n120,1\n0,2\n",
       "t.csv:3: window_start 0 is not after the previous row (120); rows "
       "must be strictly time-ordered"},
      {"window_start,rps\n0,abc\n",
       "t.csv:2: bad value 'abc' for column 'rps' (expected a finite "
       "number)"},
      {"window_start,rps\n0,inf\n",
       "t.csv:2: bad value 'inf' for column 'rps' (expected a finite "
       "number)"},
      {"window_start,rps\n0,\n",
       "t.csv:2: bad value '' for column 'rps' (expected a finite number)"},
  };
  for (const auto& c : cases) {
    MetricStore store;
    std::istringstream in(c.text);
    const CsvReadResult read = read_pool_csv(in, "t.csv", &store, 0, 0);
    EXPECT_EQ(read.error, c.expected_error);
  }
}

TEST(CsvRead, MetricFromStringCoversTheWholeVocabulary) {
  for (std::size_t i = 0; i < kMetricKindCount; ++i) {
    const auto kind = static_cast<MetricKind>(i);
    const auto back = metric_from_string(to_string(kind));
    ASSERT_TRUE(back.has_value()) << to_string(kind);
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(metric_from_string("rpz").has_value());
  EXPECT_FALSE(metric_from_string("").has_value());
}

}  // namespace
}  // namespace headroom::telemetry
