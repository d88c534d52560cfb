// perfbench: runs one benchmark workload in this process and writes its raw
// measurements as JSON. run.py builds this runner, runs it once per
// workload and turns the raw result into metrics.
//
//   perfbench --workload covermap|serve-batch|stream --seed N --seconds S
//             --trace 0|1 --out RESULT.json --workdir DIR [--corrupt]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.h"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload covermap|serve-batch|stream --seed N --seconds S "
               "--trace 0|1 --out RESULT.json --workdir DIR [--corrupt]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = value() == "1";
      else if (a == "--out") opt.out = value();
      else if (a == "--workdir") opt.workdir = value();
      else if (a == "--corrupt") opt.corrupt = true;
      else throw std::invalid_argument("unknown option " + a);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return usage();
  }
  if (opt.out.empty() || opt.workdir.empty() || !(opt.seconds > 0.0)) return usage();

  Result r;
  try {
    std::filesystem::create_directories(opt.workdir);
    if (opt.workload == "covermap") run_covermap(opt, r);
    else if (opt.workload == "serve-batch") run_serve_batch(opt, r);
    else if (opt.workload == "stream") run_stream(opt, r);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  r.spans = tracer().take();
  r.peak_rss_mb = peak_rss_mb();
  if (!write_result(opt, r, opt.out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  return 0;
}
