// parhop_perfbench — one run of one benchmark workload (perfbench/README.md).
//
//   parhop_perfbench --workload <build-road|query-geo> --seed N
//                    --seconds S --trace 0|1 --workdir DIR [--trace-out F]
//                    [--smoke]
//
// Prints the run identity and a metric table (name, unit, value, sample
// count), then as its last line one JSON object with the gate counts and
// every metric. perfbench/run.py builds this binary and turns that line into
// the benchmark's result line. Exit status: 0 when every gate passed, 1 when a
// gate failed, 2 on a usage error, 3 when built with a sanitizer.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "util/json.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_SANITIZER
#define PERFBENCH_SANITIZER "off"
#endif

namespace {

using parhop::util::Json;

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#endif
#endif
  return std::string(PERFBENCH_SANITIZER) != "off" &&
         std::string(PERFBENCH_SANITIZER) != "";
}

long cache_bytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? v : 0;
}

/// %.17g keeps every digit of a measured value.
std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* msg) {
  std::cerr << "parhop_perfbench: " << msg
            << "\nusage: parhop_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--trace-out FILE] [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::filesystem::path trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--workdir") {
      opt.workdir = value();
    } else if (a == "--trace-out") {
      trace_out = value();
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      return usage(("unknown argument '" + a + "'").c_str());
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::workload_names())
    known = known || w == opt.workload;
  if (!known) return usage("unknown or missing --workload");
  if (opt.workdir.empty()) return usage("missing --workdir");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");
  if (sanitized_build()) {
    std::cerr << "parhop_perfbench: refusing to record numbers from a "
                 "sanitized build (sanitizer: "
              << PERFBENCH_SANITIZER << ")\n";
    return 3;
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  Json identity = Json::object();
  identity.set("workload", opt.workload);
  identity.set("seed", opt.seed);
  identity.set("seconds", opt.seconds);
  identity.set("trace", opt.trace);
  identity.set("smoke", opt.smoke);
  identity.set("threads", nproc);
  identity.set("nproc", nproc);
  identity.set("l2_bytes", cache_bytes(_SC_LEVEL2_CACHE_SIZE));
  identity.set("l3_bytes", cache_bytes(_SC_LEVEL3_CACHE_SIZE));
  identity.set("policy", "unmetered");
  identity.set("sanitizer", PERFBENCH_SANITIZER);

  perfbench::Outcome res;
  perfbench::Tracer tracer;
  try {
    std::filesystem::create_directories(opt.workdir);
    res = perfbench::run_workload(opt, opt.trace ? &tracer : nullptr);
  } catch (const std::exception& e) {
    std::cerr << "parhop_perfbench: " << opt.workload << " aborted: "
              << e.what() << "\n";
    return 1;
  }
  if (opt.trace && !trace_out.empty()) {
    std::ofstream f(trace_out);
    tracer.chrome_trace(identity).dump(f);
    f << "\n";
    if (!f) {
      std::cerr << "parhop_perfbench: cannot write " << trace_out << "\n";
      return 1;
    }
  }

  std::printf("# %s seed=%llu threads=%u nproc=%u l2=%ld l3=%ld policy=%s "
              "sanitizer=%s trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              nproc, nproc, cache_bytes(_SC_LEVEL2_CACHE_SIZE),
              cache_bytes(_SC_LEVEL3_CACHE_SIZE), "unmetered",
              PERFBENCH_SANITIZER, opt.trace ? 1 : 0);
  std::printf("%-28s %-7s %16s %8s\n", "metric", "unit", "value", "samples");
  for (const perfbench::Metric& m : res.metrics)
    std::printf("%-28s %-7s %16.6g %8zu\n", m.name.c_str(), m.unit.c_str(),
                m.value, m.samples);
  for (const std::string& f : res.failures)
    std::printf("GATE FAILED: %s\n", f.c_str());
  std::printf("# attempted=%zu failed=%zu\n", res.attempted, res.failed);

  // One-line JSON result (util::Json pretty-prints, so format by hand).
  std::string line = "{\"correct\": ";
  line += res.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(res.attempted);
  line += ", \"failed\": " + std::to_string(res.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const perfbench::Metric& m = res.metrics[i];
    if (i) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit +
            "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  std::filesystem::remove_all(opt.workdir);
  return res.failed == 0 ? 0 : 1;
}
