// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--out-dir <dir>]
//
// Runs one workload and prints its metrics; the last stdout line is the JSON
// result. Exits 1 when a correctness check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

using RunFn = void (*)(const pb::Options&, pb::Report&);

const std::map<std::string, RunFn>& workloads() {
  static const std::map<std::string, RunFn> table = {
      {"train_dense", pb::run_train_dense},
      {"train_offload", pb::run_train_offload},
      {"train_dp4", pb::run_train_dp4},
      {"serve_open_loop", pb::run_serve_open_loop},
  };
  return table;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\nworkloads:",
               why);
  for (const auto& [name, fn] : workloads()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    if (std::strcmp(key, "--workload") == 0) {
      opt.workload = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (std::strcmp(key, "--seconds") == 0) {
      opt.seconds = std::strtod(val, nullptr);
    } else if (std::strcmp(key, "--trace") == 0) {
      opt.trace = std::strcmp(val, "0") != 0;
    } else if (std::strcmp(key, "--out-dir") == 0) {
      opt.out_dir = val;
    } else {
      return usage("unknown argument");
    }
  }
  if (argc % 2 == 0) return usage("every option takes a value");
  const auto it = workloads().find(opt.workload);
  if (it == workloads().end()) return usage("unknown workload");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  std::printf("perfbench %s seed %llu, %.1f s, trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  pb::Report report;
  try {
    it->second(opt, report);
  } catch (const std::exception& e) {
    report.check(false, std::string("workload raised: ") + e.what());
  }
  report.print_result();
  return report.failed() == 0 ? 0 : 1;
}
