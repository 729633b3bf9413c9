// perfbench: the repository benchmark binary (perfbench/run.py
// builds and runs it).
//
//   perfbench --workload <release-upgrade|mirror-apply|daemon-mirror>
//             --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Human-readable progress goes to stderr; the last line of stdout is the
// JSON result (see harness.h). Exit status 0 means the run measured and
// every sync was correct; 1 means a sync or self-check failed (the result
// line still prints, with "correct": false); 2 means bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<release-upgrade|mirror-apply|daemon-mirror> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return Usage();
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::atoi(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--workdir") == 0) {
      args.workdir = value;
    } else {
      return Usage();
    }
  }
  if (args.seconds < 1) return Usage();

  perfbench::Result result;
  int rc = 0;
  if (args.workload == "release-upgrade") {
    rc = perfbench::RunReleaseUpgrade(args, result);
  } else if (args.workload == "mirror-apply") {
    rc = perfbench::RunMirrorApply(args, result);
  } else if (args.workload == "daemon-mirror") {
    rc = perfbench::RunDaemonMirror(args, result);
  } else {
    return Usage();
  }
  if (rc != 0) {
    std::fprintf(stderr, "perfbench: %s could not run\n",
                 args.workload.c_str());
    return 1;
  }
  result.Print(args.trace);
  return result.correct() ? 0 : 1;
}
