#include "perfbench/report.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "perfbench/trace.h"

namespace perfbench {

void report_trace(const Args& args, const Metrics& m) {
  const auto totals = tracer().totals();
  std::printf("SELF-TIME %s seed %llu (all spans of the run)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed));
  std::printf("  %-24s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, t] : totals) {
    std::printf("  %-24s %8zu %12.6f %12.6f\n", name.c_str(), t.count,
                t.total_s, t.self_s);
  }
  const auto get = [&](const char* name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second.value;
  };
  std::printf("TRACE-OVERHEAD traced flow_s %.6f untraced flow_s %.6f "
              "overhead_s %.6f core coverage %.4f\n",
              get("trace.flow_s"), get("trace.untraced_flow_s"),
              get("trace.overhead_s"), get("trace.core_coverage"));
  const std::string dir = args.work_root + "/traces";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
  std::ofstream(path) << tracer().chrome_json();
  std::printf("CHROME-TRACE %s\n", path.c_str());
}

void emit_result(const Tally& tally, const Metrics& m) {
  for (const std::string& why : tally.reasons) {
    std::printf("FAILURE %s\n", why.c_str());
  }
  std::string out = "{\"correct\": ";
  out += tally.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
