// Shared output helpers for the table/figure reproduction harnesses.
//
// Each bench prints (a) the paper's published numbers and (b) the values
// measured from the simulation, side by side, for a reader to compare.
// Nothing checks these rows yet; ROADMAP item 5 is where they would become
// checked claims with tolerances.
#pragma once

#include <cstdio>
#include <fstream>
#include <span>
#include <string>

namespace headroom::bench {

/// Minimal ordered JSON object builder for the machine-readable bench
/// outputs (BENCH_*.json): flat insertion order, no escaping beyond what
/// the fixed key/value vocabulary needs.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return raw(key, buf);
  }
  JsonObject& num(const std::string& key, std::size_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, "\"" + value + "\"");
  }
  JsonObject& obj(const std::string& key, const JsonObject& value) {
    return raw(key, value.str());
  }
  /// Array of objects (e.g. one entry per thread-count axis point).
  JsonObject& arr(const std::string& key, std::span<const JsonObject> items) {
    std::string a = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) a += ",";
      a += items[i].str();
    }
    a += "]";
    return raw(key, a);
  }

  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

  /// Writes `{...}` to `path` with a trailing newline; returns false on I/O
  /// failure (benches report it but do not abort the run).
  [[nodiscard]] bool write(const std::string& path) const {
    std::ofstream out(path);
    out << str() << "\n";
    return static_cast<bool>(out);
  }

 private:
  JsonObject& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
    return *this;
  }

  std::string body_;
};

inline void header(const std::string& experiment, const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

inline void row(const std::string& label, double paper, double measured,
                const char* unit = "") {
  std::printf("  %-44s paper %10.3f%s  measured %10.3f%s\n", label.c_str(),
              paper, unit, measured, unit);
}

inline void note(const std::string& text) {
  std::printf("  %s\n", text.c_str());
}

/// Crude ASCII series rendering: one "<x> <y>" pair per line, suitable for
/// piping into a plotting tool.
inline void series(const std::string& name, std::span<const double> xs,
                   std::span<const double> ys, std::size_t max_points = 24) {
  std::printf("  series %s (%zu points):\n", name.c_str(), xs.size());
  const std::size_t stride =
      xs.size() <= max_points ? 1 : xs.size() / max_points;
  for (std::size_t i = 0; i < xs.size(); i += stride) {
    std::printf("    %12.3f %12.3f\n", xs[i], ys[i]);
  }
}

}  // namespace headroom::bench
