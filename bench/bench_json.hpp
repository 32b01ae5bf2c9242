// Machine-readable benchmark output.
//
// Every bench binary writes a BENCH_<name>.json next to the repo root (the
// `bench` CMake target runs them all), so performance numbers are diffable
// across commits without scraping google-benchmark's console output. The
// JSON measurements are short, self-contained runs taken with Timer —
// independent of the google-benchmark harness, which still provides the
// detailed interactive numbers.
//
// Schema: {"bench": "<name>", "host": {...}, "results": [{"metric": ...,
// "value": ..., "unit": ..., "config": ...}, ...]} — one result per
// (metric, config) point. The host block names what the numbers were
// measured on: logical cores, CPU model, compiler, CMake build type and
// the `git describe --always --dirty` of the source tree when the build
// was configured (XTSOC_BUILD_TYPE and XTSOC_GIT_DESCRIBE, injected by
// bench/CMakeLists.txt).
//
// Output directory: $XTSOC_BENCH_DIR if set, else the source tree root
// (XTSOC_REPO_ROOT, injected by bench/CMakeLists.txt).
//
// Invoke a bench with --json-only to run just the JSON measurements and
// skip the google-benchmark suite (what the `bench` target does).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "xtsoc/obs/json.hpp"

namespace xtsoc::bench {

/// Wall-clock stopwatch for the JSON measurements.
class Timer {
public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

private:
  std::chrono::steady_clock::time_point start_;
};

/// The median of repeated samples and their interquartile range as a
/// percentage of it, the spread a diff of the median is read against.
struct Spread {
  double median = 0;
  double noise_pct = 0;
};

inline Spread spread(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const double median = samples[n / 2];
  const double iqr = samples[(3 * n) / 4] - samples[n / 4];
  return {median, 100.0 * iqr / median};
}

class JsonReport {
public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  void add(std::string metric, double value, std::string unit,
           std::string config) {
    rows_.push_back(
        {std::move(metric), value, std::move(unit), std::move(config)});
  }

  /// Write BENCH_<name>.json and report the path on stdout. Serialization
  /// goes through obs::JsonWriter — the toolchain's one JSON emission path
  /// — so escaping and number formatting can't drift from runtime reports.
  void write() const {
    std::string path = out_dir() + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("bench: cannot write " + path);
    }
    obs::JsonWriter w(/*indent=*/2);
    w.begin_object().field("bench", name_).key("host").begin_object();
    w.field("cores", std::thread::hardware_concurrency())
        .field("cpu", cpu_model())
        .field("compiler", compiler())
        .field("build_type", XTSOC_BUILD_TYPE)
        .field("commit", XTSOC_GIT_DESCRIBE)
        .end_object();
    w.key("results").begin_array();
    for (const Row& r : rows_) {
      w.begin_object()
          .field("metric", r.metric)
          .field("value", r.value)
          .field("unit", r.unit)
          .field("config", r.config)
          .end_object();
    }
    w.end_array().end_object();
    const std::string& doc = w.str();
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

private:
  struct Row {
    std::string metric;
    double value;
    std::string unit;
    std::string config;
  };

  /// The first "model name" of /proc/cpuinfo, or "unknown".
  static std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("model name", 0) != 0) continue;
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
    return "unknown";
  }

  static std::string compiler() {
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "g++ " __VERSION__;
#else
    return "unknown";
#endif
  }

  static std::string out_dir() {
    if (const char* dir = std::getenv("XTSOC_BENCH_DIR")) return dir;
#ifdef XTSOC_REPO_ROOT
    return XTSOC_REPO_ROOT;
#else
    return ".";
#endif
  }

  std::string name_;
  std::vector<Row> rows_;
};

/// True when invoked with --json-only: emit the JSON report and exit
/// without running the google-benchmark suite.
inline bool json_only(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json-only") return true;
  }
  return false;
}

}  // namespace xtsoc::bench
