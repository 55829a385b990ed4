// psbench — the psched benchmark binary.
//
//   psbench --workload <paper_suite|engine_stream|tenant_mix> --seed <n>
//           --seconds <s> --trace <0|1> [--smoke] [--inject-fault]
//           [--trace-dir <dir>]
//
// Prints a human-readable summary on stderr and, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see perfbench/README.md). Exits non-zero when a
// correctness check fails or the workload throws.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "psbench: %s\nusage: psbench --workload <paper_suite|"
               "engine_stream|tenant_mix> --seed <n> --seconds <s> --trace "
               "<0|1> [--smoke] [--inject-fault] [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

psbench::Args parse(int argc, char** argv) {
  psbench::Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        a.workload = value();
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(value());
      } else if (k == "--seconds") {
        a.seconds = std::stod(value());
      } else if (k == "--trace") {
        a.trace = std::stoi(value()) != 0;
      } else if (k == "--trace-dir") {
        a.trace_dir = value();
      } else if (k == "--smoke") {
        a.smoke = true;
      } else if (k == "--inject-fault") {
        a.inject_fault = true;
      } else {
        usage(("unknown argument " + k).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const psbench::Args args = parse(argc, argv);
  // A fixed mmap threshold (glibc's default starting value) turns off
  // malloc's adaptive threshold. Left adaptive, whether a large engine
  // buffer is mmapped and returned on free, or carved from a thread's
  // arena and kept, depends on which thread grew it first — so tenant_mix's
  // peak RSS would follow thread timing instead of the program.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  psbench::Result result;
  try {
    if (args.workload == "paper_suite") {
      psbench::run_paper_suite(args, result);
    } else if (args.workload == "engine_stream") {
      psbench::run_engine_stream(args, result);
    } else if (args.workload == "tenant_mix") {
      psbench::run_tenant_mix(args, result);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const std::string& v : result.violations) {
    std::fprintf(stderr, "psbench: correctness violation: %s\n", v.c_str());
  }
  std::printf("%s\n", psbench::to_json(result).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
