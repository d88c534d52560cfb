// End-to-end contract tests for the `gendt` binary: argument hardening
// (specific diagnostics + non-zero exit for misuse), --help, and the serve
// command's file-in/file-out round trip. The binary path is baked in at
// build time (GENDT_CLI_PATH).
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

CliResult run_cli_env(const std::string& env, const std::string& args) {
  const std::string cmd = env + (env.empty() ? "" : " ") + std::string(GENDT_CLI_PATH) + " " +
                          args + " 2>&1";
  CliResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) result.output += buf;
  const int status = pclose(pipe);
  result.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return result;
}

CliResult run_cli(const std::string& args) { return run_cli_env("", args); }

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void write_file(const std::filesystem::path& path, const std::string& content) {
  std::ofstream os(path);
  os << content;
  ASSERT_TRUE(os.good()) << path;
}

TEST(Cli, HelpExitsZeroWithUsage) {
  const CliResult r = run_cli("--help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("usage: gendt"), std::string::npos);
  EXPECT_NE(r.output.find("serve"), std::string::npos);
  EXPECT_NE(r.output.find("GENDT_SIMD=off|avx2|avx512|auto"), std::string::npos);
}

TEST(Cli, NoCommandIsUsageError) {
  const CliResult r = run_cli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage: gendt"), std::string::npos);
}

TEST(Cli, UnknownCommandNamesTheCommand) {
  const CliResult r = run_cli("frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown command 'frobnicate'"), std::string::npos);
}

TEST(Cli, UnknownOptionNamesOptionAndCommand) {
  const CliResult r = run_cli("eval --bogus 1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option '--bogus' for command 'eval'"), std::string::npos);
}

TEST(Cli, OptionMissingItsValueIsRejected) {
  const CliResult r = run_cli("train --out");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("option '--out' expects a value"), std::string::npos);
}

TEST(Cli, NonIntegerValueIsRejected) {
  const auto dir = fresh_dir("cli_badint");
  const CliResult r = run_cli("simulate --out " + (dir / "sim").string() + " --seed pi");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--seed expects an integer"), std::string::npos);
}

// A value that parses as a long but not as an int is a usage error, not a
// silent wrap: 4294967304 = 2^32 + 8 once ran as `--batch 8`, and
// 4294967297 = 2^32 + 1 as `--threads 1`. Both are rejected before the
// dataset is built or any thread starts.
TEST(Cli, IntegerOutsideIntRangeIsRejected) {
  const auto dir = fresh_dir("cli_int_range");
  const std::string base = "covermap --out " + (dir / "map.csv").string() + " --grid 1x1";
  const CliResult batch = run_cli(base + " --batch 4294967304");
  EXPECT_EQ(batch.exit_code, 2);
  EXPECT_NE(batch.output.find("--batch expects an integer in int range"), std::string::npos)
      << batch.output;
  const CliResult threads = run_cli(base + " --threads 4294967297");
  EXPECT_EQ(threads.exit_code, 2);
  EXPECT_NE(threads.output.find("--threads expects an integer in int range"), std::string::npos)
      << threads.output;
  // 2^32 grid points overflow the int point index.
  const CliResult grid =
      run_cli("covermap --out " + (dir / "map.csv").string() + " --grid 65536x65536");
  EXPECT_EQ(grid.exit_code, 2);
  EXPECT_NE(grid.output.find("--grid 65536x65536 has more than"), std::string::npos)
      << grid.output;
  EXPECT_FALSE(std::filesystem::exists(dir / "map.csv"));
}

TEST(Cli, ServeRejectsMalformedRequestsFile) {
  const auto dir = fresh_dir("cli_badreq");
  write_file(dir / "requests.txt", "traj.csv notanumber\n");
  const CliResult r = run_cli("serve --requests " + (dir / "requests.txt").string() +
                              " --model missing.ckpt --out " + (dir / "out").string());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("malformed field 'notanumber'"), std::string::npos);
}

// Full round trip: checkpoint a (zero-epoch) model, then serve a requests
// file against it. One request has no deadline, one a generous deadline, one
// names a missing trajectory — the batch must finish with per-request
// statuses and a non-zero exit only because of the structured error.
TEST(Cli, ServeRoundTripProducesPerRequestOutput) {
  const auto dir = fresh_dir("cli_serve");
  const std::string ckpt = (dir / "model.ckpt").string();
  const CliResult train =
      run_cli("train --out " + ckpt + " --epochs 0 --train-s 120 --seed 3");
  ASSERT_EQ(train.exit_code, 0) << train.output;

  std::string traj = "t,lat,lon\n";
  for (int i = 0; i < 120; ++i)
    traj += std::to_string(i) + "," + std::to_string(47.0 + 1e-4 * i) + ",8.0\n";
  write_file(dir / "traj.csv", traj);
  write_file(dir / "requests.txt",
             "# one request per line: trajectory [gen-seed] [deadline-ms]\n" +
                 (dir / "traj.csv").string() + " 5\n" + (dir / "traj.csv").string() +
                 " 7 60000\n" + (dir / "missing.csv").string() + "\n");

  const std::string out_dir = (dir / "out").string();
  const CliResult serve = run_cli("serve --requests " + (dir / "requests.txt").string() +
                                  " --model " + ckpt + " --out " + out_dir +
                                  " --train-s 120 --seed 3 --threads 2");
  EXPECT_EQ(serve.exit_code, 1) << serve.output;  // the missing trajectory
  EXPECT_NE(serve.output.find("invalid-request"), std::string::npos) << serve.output;
  EXPECT_NE(serve.output.find("served 3 requests"), std::string::npos) << serve.output;
  EXPECT_TRUE(std::filesystem::exists(out_dir + "/response_0.csv")) << serve.output;
  EXPECT_TRUE(std::filesystem::exists(out_dir + "/response_1.csv")) << serve.output;
  EXPECT_FALSE(std::filesystem::exists(out_dir + "/response_2.csv")) << serve.output;

  // All-valid requests exit 0.
  write_file(dir / "requests_ok.txt", (dir / "traj.csv").string() + " 5\n");
  const CliResult ok = run_cli("serve --requests " + (dir / "requests_ok.txt").string() +
                               " --model " + ckpt + " --out " + out_dir +
                               " --train-s 120 --seed 3");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
}

// The tape-free fast path (default) and the autograd reference path must
// produce byte-identical CSVs — the CLI-level face of the gen-parity
// guarantee. Pinned to GENDT_SIMD=off: graph/fast bitwise parity is a
// scalar-route contract (the avx2 route's fused kernels match within
// tolerance, not bits — see docs/ARCHITECTURE.md).
TEST(Cli, GenerateFastAndReferenceCsvsAreByteIdentical) {
  const auto dir = fresh_dir("cli_gen_parity");
  const std::string ckpt = (dir / "model.ckpt").string();
  const CliResult train =
      run_cli("train --out " + ckpt + " --epochs 0 --train-s 120 --seed 3");
  ASSERT_EQ(train.exit_code, 0) << train.output;

  std::string traj = "t,lat,lon\n";
  for (int i = 0; i < 120; ++i)
    traj += std::to_string(i) + "," + std::to_string(47.0 + 1e-4 * i) + ",8.0\n";
  write_file(dir / "traj.csv", traj);

  const std::string common = "generate --model " + ckpt + " --trajectory " +
                             (dir / "traj.csv").string() +
                             " --train-s 120 --seed 3 --gen-seed 11 --out ";
  const std::string fast_csv = (dir / "fast.csv").string();
  const std::string ref_csv = (dir / "ref.csv").string();
  const CliResult fast = run_cli_env("GENDT_SIMD=off", common + fast_csv + " --fast");
  ASSERT_EQ(fast.exit_code, 0) << fast.output;
  const CliResult ref = run_cli_env("GENDT_SIMD=off", common + ref_csv + " --reference");
  ASSERT_EQ(ref.exit_code, 0) << ref.output;

  const auto slurp = [](const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
  };
  const std::string fast_bytes = slurp(fast_csv);
  ASSERT_FALSE(fast_bytes.empty());
  EXPECT_EQ(fast_bytes, slurp(ref_csv));

  const CliResult both = run_cli(common + (dir / "x.csv").string() + " --fast --reference");
  EXPECT_EQ(both.exit_code, 2);
  EXPECT_NE(both.output.find("mutually exclusive"), std::string::npos) << both.output;
}

// pack converts a checkpoint into a GDTPACK1 arena; generate must accept
// either file and emit byte-identical CSVs — mmap'd views and heap-copied
// weights hold the same bits, so the whole rollout must too. The packed
// serve path must also announce the arena in its startup log.
TEST(Cli, PackRoundTripGeneratesByteIdenticalCsv) {
  const auto dir = fresh_dir("cli_pack");
  const std::string ckpt = (dir / "model.ckpt").string();
  const std::string pack = (dir / "model.gdtpack").string();
  const CliResult train =
      run_cli("train --out " + ckpt + " --epochs 1 --train-s 120 --seed 3");
  ASSERT_EQ(train.exit_code, 0) << train.output;

  const CliResult packed = run_cli("pack --in " + ckpt + " --out " + pack);
  ASSERT_EQ(packed.exit_code, 0) << packed.output;
  EXPECT_NE(packed.output.find("packed"), std::string::npos) << packed.output;
  // A 1-epoch checkpoint carries Adam state; pack must say it dropped it.
  EXPECT_NE(packed.output.find("trainer-state tensors dropped"), std::string::npos)
      << packed.output;

  std::string traj = "t,lat,lon\n";
  for (int i = 0; i < 120; ++i)
    traj += std::to_string(i) + "," + std::to_string(47.0 + 1e-4 * i) + ",8.0\n";
  write_file(dir / "traj.csv", traj);

  const std::string common = "generate --trajectory " + (dir / "traj.csv").string() +
                             " --train-s 120 --seed 3 --gen-seed 11 --out ";
  const CliResult from_ckpt =
      run_cli(common + (dir / "from_ckpt.csv").string() + " --model " + ckpt);
  ASSERT_EQ(from_ckpt.exit_code, 0) << from_ckpt.output;
  const CliResult from_pack =
      run_cli(common + (dir / "from_pack.csv").string() + " --model " + pack);
  ASSERT_EQ(from_pack.exit_code, 0) << from_pack.output;

  const auto slurp = [](const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
  };
  const std::string ckpt_bytes = slurp((dir / "from_ckpt.csv").string());
  ASSERT_FALSE(ckpt_bytes.empty());
  EXPECT_EQ(ckpt_bytes, slurp((dir / "from_pack.csv").string()));

  write_file(dir / "requests.txt", (dir / "traj.csv").string() + " 5\n");
  const CliResult serve = run_cli("serve --requests " + (dir / "requests.txt").string() +
                                  " --model " + pack + " --out " + (dir / "out").string() +
                                  " --train-s 120 --seed 3");
  EXPECT_EQ(serve.exit_code, 0) << serve.output;
  EXPECT_NE(serve.output.find("GDTPACK1 (mmap)"), std::string::npos) << serve.output;
}

TEST(Cli, VersionReportsCpuFeaturesAndDispatch) {
  const CliResult r = run_cli("--version");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("cpu features:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("kernel dispatch:"), std::string::npos) << r.output;
  // The route override must be visible end to end.
  const CliResult off = run_cli_env("GENDT_SIMD=off", "--version");
  EXPECT_NE(off.output.find("kernel dispatch: scalar"), std::string::npos) << off.output;
}

// Multi-model serving: --models registers N checkpoints under distinct ids,
// the optional 4th request field routes, an unknown id is a structured
// error, and the per-model registry tallies surface in the summary.
TEST(Cli, ServeRoutesRequestsAcrossMultipleModels) {
  const auto dir = fresh_dir("cli_multimodel");
  const std::string ckpt = (dir / "model.ckpt").string();
  const CliResult train =
      run_cli("train --out " + ckpt + " --epochs 0 --train-s 120 --seed 3");
  ASSERT_EQ(train.exit_code, 0) << train.output;

  std::string traj = "t,lat,lon\n";
  for (int i = 0; i < 120; ++i)
    traj += std::to_string(i) + "," + std::to_string(47.0 + 1e-4 * i) + ",8.0\n";
  write_file(dir / "traj.csv", traj);
  const std::string t = (dir / "traj.csv").string();
  // Default-route, explicit routes to both models, and an unknown id.
  write_file(dir / "requests.txt",
             t + " 5\n" + t + " 7 60000 blue\n" + t + " 9 60000 green\n" + t +
                 " 11 60000 ghost\n");

  const std::string base = "serve --requests " + (dir / "requests.txt").string() +
                           " --out " + (dir / "out").string() +
                           " --train-s 120 --seed 3 --threads 2";
  const CliResult both = run_cli(base + " --models blue=" + ckpt + ",green=" + ckpt);
  EXPECT_EQ(both.exit_code, 1) << both.output;  // the ghost request
  EXPECT_NE(both.output.find("unknown model id 'ghost'"), std::string::npos) << both.output;
  EXPECT_NE(both.output.find("model 'blue' (v1): 2 routed"), std::string::npos) << both.output;
  EXPECT_NE(both.output.find("model 'green' (v1): 1 routed"), std::string::npos)
      << both.output;
  EXPECT_NE(both.output.find("served 4 requests"), std::string::npos) << both.output;
  EXPECT_TRUE(std::filesystem::exists((dir / "out" / "response_2.csv"))) << both.output;
  EXPECT_FALSE(std::filesystem::exists((dir / "out" / "response_3.csv"))) << both.output;

  // --model and --models are mutually exclusive; malformed --models is usage.
  const CliResult excl =
      run_cli(base + " --model " + ckpt + " --models blue=" + ckpt);
  EXPECT_EQ(excl.exit_code, 2);
  EXPECT_NE(excl.output.find("mutually exclusive"), std::string::npos) << excl.output;
  const CliResult malformed = run_cli(base + " --models nopath");
  EXPECT_EQ(malformed.exit_code, 2);
  EXPECT_NE(malformed.output.find("--models expects id=path"), std::string::npos)
      << malformed.output;
}

// The trace-replay harness is a pure function of (trace, seed, config): two
// identical scripted runs — including a mid-trace hot-swap — must emit
// byte-identical benchmark JSON and print the same digest.
TEST(Cli, ReplayScriptedRunsAreByteIdentical) {
  const auto dir = fresh_dir("cli_replay");
  const std::string base =
      "replay --scripted 2 --requests 3000 --rate-hz 400 --deadline-ms 50 --budget 6"
      " --swap-at 2000 --seed 11";
  const CliResult r1 = run_cli(base + " --out " + (dir / "a.json").string());
  ASSERT_EQ(r1.exit_code, 0) << r1.output;
  const CliResult r2 =
      run_cli(base + " --threads 1 --out " + (dir / "b.json").string());
  ASSERT_EQ(r2.exit_code, 0) << r2.output;

  const auto slurp = [](const std::filesystem::path& p) {
    std::ifstream is(p);
    return std::string(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
  };
  const std::string a = slurp(dir / "a.json");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(dir / "b.json"));
  EXPECT_NE(a.find("BM_ServeReplay/scripted0/p50_latency_ms"), std::string::npos) << a;
  EXPECT_NE(a.find("shed_rate_pct"), std::string::npos) << a;

  // The digest line is the replay's outcome fingerprint; identical runs
  // must print the identical fingerprint.
  const auto digest_of = [](const std::string& out) {
    const size_t pos = out.find("digest ");
    return pos == std::string::npos ? std::string() : out.substr(pos, 7 + 16);
  };
  EXPECT_FALSE(digest_of(r1.output).empty()) << r1.output;
  EXPECT_EQ(digest_of(r1.output), digest_of(r2.output));
}

TEST(Cli, ReplayRequiresExactlyOneSource) {
  const CliResult neither = run_cli("replay --out /tmp/never.json");
  EXPECT_EQ(neither.exit_code, 2);
  EXPECT_NE(neither.output.find("exactly one of --scripted N or --models"), std::string::npos)
      << neither.output;
  const CliResult both = run_cli("replay --scripted 2 --models a=b --out /tmp/never.json");
  EXPECT_EQ(both.exit_code, 2);
}

// Start the binary as a background daemon via the shell and hand back its
// pid ($! of the backgrounded simple command is the gendt process itself).
// The daemon is expected to exit on its own through --stream-sessions; the
// caller still gets the pid so a wedged run can be reaped instead of
// hanging the suite.
long spawn_daemon(const std::string& args, const std::string& log_path) {
  const std::string cmd = std::string(GENDT_CLI_PATH) + " " + args + " > " + log_path +
                          " 2>&1 & echo $!";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  long pid = -1;
  if (std::fscanf(pipe, "%ld", &pid) != 1) pid = -1;
  pclose(pipe);
  return pid;
}

bool wait_for(const std::function<bool()>& pred, int budget_ms = 30'000) {
  for (int waited = 0; waited < budget_ms; waited += 20) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

// The full streaming story against a real daemon over a real unix socket:
// train -> serve --stream -> stream-client (uninterrupted), then a second
// session that kills its connection after one ACKed chunk and resumes from
// the client state file. Both CSVs must be byte-identical to plain
// `gendt generate` with the same seed — the stream adds transport, not
// numerics — and the daemon must then exit by itself (--stream-sessions 2)
// reporting both sessions ok and exactly one resume.
TEST(Cli, StreamServeRoundTripAndKillResumeMatchGenerateByteForByte) {
  const auto dir = fresh_dir("cli_stream");
  const std::string ckpt = (dir / "model.ckpt").string();
  const CliResult train =
      run_cli("train --out " + ckpt + " --epochs 0 --train-s 120 --seed 3");
  ASSERT_EQ(train.exit_code, 0) << train.output;

  std::string traj = "t,lat,lon\n";
  for (int i = 0; i < 120; ++i)
    traj += std::to_string(i) + "," + std::to_string(47.0 + 1e-4 * i) + ",8.0\n";
  write_file(dir / "traj.csv", traj);
  const std::string traj_csv = (dir / "traj.csv").string();

  const std::string ref_csv = (dir / "ref.csv").string();
  const CliResult gen = run_cli("generate --model " + ckpt + " --trajectory " + traj_csv +
                                " --train-s 120 --seed 3 --gen-seed 11 --out " + ref_csv);
  ASSERT_EQ(gen.exit_code, 0) << gen.output;

  const auto slurp = [](const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
  };
  const std::string ref_bytes = slurp(ref_csv);
  ASSERT_FALSE(ref_bytes.empty());

  const std::string sock = (dir / "gendt.sock").string();
  const std::string log = (dir / "daemon.log").string();
  const long pid = spawn_daemon("serve --stream --socket " + sock + " --model " + ckpt +
                                    " --train-s 120 --seed 3 --chunk-windows 2"
                                    " --stream-sessions 2",
                                log);
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(wait_for([&] { return std::filesystem::exists(sock); })) << slurp(log);

  const std::string client = "stream-client --socket " + sock + " --gen-seed 11 ";
  const std::string stream_csv = (dir / "stream.csv").string();
  const CliResult full =
      run_cli(client + "--trajectory " + traj_csv + " --out " + stream_csv);
  ASSERT_EQ(full.exit_code, 0) << full.output << slurp(log);
  EXPECT_EQ(slurp(stream_csv), ref_bytes);

  // Session two: 2-window chunks over this trajectory yield several chunks,
  // so killing after the first ACK leaves real work to resume. The killed
  // run must not write an output CSV — only the state file.
  const std::string state = (dir / "client.state").string();
  const std::string dead_csv = (dir / "dead.csv").string();
  const CliResult killed = run_cli(client + "--trajectory " + traj_csv +
                                   " --kill-after-chunks 1 --state " + state + " --out " +
                                   dead_csv);
  ASSERT_EQ(killed.exit_code, 0) << killed.output << slurp(log);
  EXPECT_NE(killed.output.find("killed connection after 1 chunks"), std::string::npos)
      << killed.output;
  EXPECT_FALSE(std::filesystem::exists(dead_csv));

  const std::string resumed_csv = (dir / "resumed.csv").string();
  const CliResult resumed =
      run_cli(client + "--resume --state " + state + " --out " + resumed_csv);
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output << slurp(log);
  EXPECT_NE(resumed.output.find("resumed"), std::string::npos) << resumed.output;
  EXPECT_EQ(slurp(resumed_csv), ref_bytes);

  // Both sessions resolved -> the daemon exits on its own and its final
  // stats line partitions every session as ok.
  const auto daemon_pid = static_cast<pid_t>(pid);
  const bool exited = wait_for([&] { return ::kill(daemon_pid, 0) != 0; });
  if (!exited) ::kill(daemon_pid, SIGTERM);  // reap a wedged daemon before failing
  ASSERT_TRUE(exited) << slurp(log);
  const std::string daemon_log = slurp(log);
  EXPECT_NE(daemon_log.find("2 sessions: 2 ok, 0 degraded, 0 failed, 0 shed"),
            std::string::npos)
      << daemon_log;
  EXPECT_NE(daemon_log.find("1 resumes"), std::string::npos) << daemon_log;
}

// A state file that fails structural validation must be rejected before any
// bytes reach the daemon, and misuse of the resume flags is a usage error.
TEST(Cli, StreamClientRejectsCorruptStateAndFlagMisuse) {
  const auto dir = fresh_dir("cli_stream_state");
  const CliResult no_state = run_cli("stream-client --socket /tmp/nope.sock --resume --out " +
                                     (dir / "x.csv").string());
  EXPECT_EQ(no_state.exit_code, 2);
  EXPECT_NE(no_state.output.find("--state"), std::string::npos) << no_state.output;

  // Local inputs are validated before the network: a corrupt state file
  // fails with its own diagnostic even though the socket does not exist.
  write_file(dir / "bad.state", "NOTASTATE 1\n");
  const CliResult bad = run_cli("stream-client --socket " + (dir / "none.sock").string() +
                                " --resume --state " + (dir / "bad.state").string() +
                                " --out " + (dir / "x.csv").string());
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_NE(bad.output.find("cannot read state file"), std::string::npos) << bad.output;

  // The chunk size travels as a u32: a negative or out-of-int-range value
  // is rejected before the network instead of wrapping.
  const std::string open_base = "stream-client --socket " + (dir / "none.sock").string() +
                                " --trajectory traj.csv --out " + (dir / "x.csv").string();
  const CliResult negative = run_cli(open_base + " --chunk-windows -1");
  EXPECT_EQ(negative.exit_code, 2);
  EXPECT_NE(negative.output.find("--chunk-windows must be >= 0"), std::string::npos)
      << negative.output;
  const CliResult huge = run_cli(open_base + " --chunk-windows 4294967297");
  EXPECT_EQ(huge.exit_code, 2);
  EXPECT_NE(huge.output.find("--chunk-windows expects an integer in int range"),
            std::string::npos)
      << huge.output;

  // With valid-looking flags but no daemon, the connect failure is a clean
  // structured error, not a hang or a crash.
  std::string points = "t,lat,lon\n0,47.0,8.0\n1,47.0001,8.0\n";
  write_file(dir / "traj.csv", points);
  const CliResult dead = run_cli("stream-client --socket " + (dir / "none.sock").string() +
                                 " --trajectory " + (dir / "traj.csv").string() + " --out " +
                                 (dir / "x.csv").string());
  EXPECT_EQ(dead.exit_code, 1);
  EXPECT_NE(dead.output.find("cannot connect"), std::string::npos) << dead.output;
}

}  // namespace
