// Exact training resume: kill-and-resume through an on-disk checkpoint must
// be bitwise identical to an uninterrupted run.
//
// This is the end-to-end guarantee the checkpoint subsystem exists for:
// each epoch draws from its own derive_stream_seed(seed, epoch) RNG stream
// and the Adam slots round-trip by parameter name, so restoring
// {params, optimizer state, epoch cursor} from a GDTCKPT2 file and running
// the remaining epochs reproduces the uninterrupted parameters exactly —
// at any thread count, including resuming at a different width than the
// run that wrote the checkpoint.
#include "gendt/core/model.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "gendt/sim/dataset.h"

namespace gendt::core {
namespace {

class ResumeF : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::DatasetScale scale;
    scale.train_duration_s = 200.0;
    scale.test_duration_s = 100.0;
    scale.records_per_scenario = 1;
    ds_ = new sim::Dataset(sim::make_dataset_a(scale));
    norm_ = new context::KpiNorm(context::fit_kpi_norm(ds_->train, ds_->kpis));
    context::ContextConfig cfg;
    cfg.window_len = 20;
    cfg.train_step = 20;
    cfg.max_cells = 4;
    builder_ = new context::ContextBuilder(ds_->world, cfg, *norm_, ds_->kpis);
    train_windows_ = new std::vector<context::Window>();
    for (const auto& rec : ds_->train) {
      auto w = builder_->training_windows(rec);
      train_windows_->insert(train_windows_->end(), w.begin(), w.end());
    }
    if (train_windows_->size() > 6) train_windows_->resize(6);
  }
  static void TearDownTestSuite() {
    delete train_windows_;
    delete builder_;
    delete norm_;
    delete ds_;
    train_windows_ = nullptr;
    builder_ = nullptr;
    norm_ = nullptr;
    ds_ = nullptr;
  }

  static GenDTConfig model_config(int threads) {
    GenDTConfig c;
    c.num_channels = 4;
    c.hidden = 10;
    c.resgen_hidden = 12;
    c.init_seed = 3;
    c.parallelism = {.threads = threads};
    return c;
  }

  static TrainConfig train_config(int threads) {
    TrainConfig t;
    t.epochs = 4;
    t.windows_per_step = 3;
    t.seed = 17;
    t.parallelism = {.threads = threads};
    return t;
  }

  static std::vector<nn::NamedParam> all_params(const GenDTModel& m) {
    auto params = m.generator_params();
    for (auto& p : m.discriminator_params()) params.push_back(p);
    return params;
  }

  static void expect_same_params(const GenDTModel& a, const GenDTModel& b) {
    const auto pa = all_params(a);
    const auto pb = all_params(b);
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
      ASSERT_EQ(pa[i].name, pb[i].name);
      const nn::Mat& ma = pa[i].tensor.value();
      const nn::Mat& mb = pb[i].tensor.value();
      ASSERT_EQ(ma.rows(), mb.rows());
      ASSERT_EQ(ma.cols(), mb.cols());
      for (size_t j = 0; j < ma.size(); ++j)
        ASSERT_EQ(ma[j], mb[j]) << pa[i].name << " elem " << j;  // bitwise
    }
  }

  // What the CLI does each epoch: persist {cursor, params, Adam slots} as a
  // GDTCKPT2 file, atomically replacing the previous epoch's checkpoint.
  static void write_train_checkpoint(const GenDTModel& model, const TrainCheckpoint& tc,
                                     const std::string& path) {
    nn::Checkpoint ck;
    ck.meta.set_u64("train.epochs_done", static_cast<std::uint64_t>(tc.epochs_done));
    for (const auto& p : all_params(model)) ck.params.push_back({p.name, p.tensor.value()});
    ck.state = tc.opt_state;
    ASSERT_TRUE(nn::save_checkpoint(ck, path));
  }

  // Simulate a kill after `stop_epoch` epochs (run only that many — the
  // per-epoch RNG streams make the prefix identical to a full run's), then
  // resume from the file in a *fresh* model, as a restarted process would.
  static void run_interrupted_then_resumed(int first_threads, int resume_threads,
                                           int stop_epoch, GenDTModel& out) {
    // ctest runs each TEST_F as its own process, possibly at once: the test
    // name keeps two tests with the same thread counts off one file.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("gendt_resume_" +
          std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) + "_" +
          std::to_string(first_threads) + "_" + std::to_string(resume_threads) + ".ckpt"))
            .string();

    GenDTModel first(model_config(first_threads));
    TrainConfig cfg1 = train_config(first_threads);
    cfg1.epochs = stop_epoch;
    cfg1.on_epoch_end = [&](const TrainCheckpoint& tc) {
      write_train_checkpoint(first, tc, path);
    };
    TrainStats st1 = train_gendt(first, *train_windows_, cfg1);
    ASSERT_TRUE(st1.error.empty()) << st1.error;

    nn::Checkpoint ck;
    nn::LoadResult read = nn::read_checkpoint(path, ck);
    ASSERT_TRUE(read.ok()) << read.message();
    EXPECT_EQ(read.version, 2);
    std::uint64_t done = 0;
    ASSERT_TRUE(ck.meta.get_u64("train.epochs_done", done));
    ASSERT_EQ(done, static_cast<std::uint64_t>(stop_epoch));

    nn::LoadResult applied = nn::apply_params(all_params(out), ck);
    ASSERT_TRUE(applied.ok()) << applied.message();
    TrainConfig cfg2 = train_config(resume_threads);
    cfg2.start_epoch = static_cast<int>(done);
    cfg2.resume_opt_state = ck.state;
    TrainStats st2 = train_gendt(out, *train_windows_, cfg2);
    ASSERT_TRUE(st2.error.empty()) << st2.error;
    std::remove(path.c_str());
  }

  static sim::Dataset* ds_;
  static context::KpiNorm* norm_;
  static context::ContextBuilder* builder_;
  static std::vector<context::Window>* train_windows_;
};
sim::Dataset* ResumeF::ds_ = nullptr;
context::KpiNorm* ResumeF::norm_ = nullptr;
context::ContextBuilder* ResumeF::builder_ = nullptr;
std::vector<context::Window>* ResumeF::train_windows_ = nullptr;

TEST_F(ResumeF, KillAndResumeIsBitwiseIdenticalToUninterrupted) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    GenDTModel uninterrupted(model_config(threads));
    train_gendt(uninterrupted, *train_windows_, train_config(threads));

    GenDTModel resumed(model_config(threads));
    run_interrupted_then_resumed(threads, threads, /*stop_epoch=*/2, resumed);
    expect_same_params(uninterrupted, resumed);
  }
}

TEST_F(ResumeF, ResumeAtDifferentThreadCountStillMatches) {
  // Checkpoint written by a serial run, resumed on 4 workers: the result
  // must still equal the uninterrupted serial run bit for bit.
  GenDTModel uninterrupted(model_config(1));
  train_gendt(uninterrupted, *train_windows_, train_config(1));

  GenDTModel resumed(model_config(4));
  run_interrupted_then_resumed(/*first_threads=*/1, /*resume_threads=*/4,
                               /*stop_epoch=*/2, resumed);
  expect_same_params(uninterrupted, resumed);
}

TEST_F(ResumeF, ResumeAtEveryEpochBoundaryMatches) {
  GenDTModel uninterrupted(model_config(1));
  train_gendt(uninterrupted, *train_windows_, train_config(1));

  for (int stop : {1, 3}) {
    SCOPED_TRACE("stop_epoch=" + std::to_string(stop));
    GenDTModel resumed(model_config(1));
    run_interrupted_then_resumed(1, 1, stop, resumed);
    expect_same_params(uninterrupted, resumed);
  }
}

TEST_F(ResumeF, MalformedResumeStateRefusesToTrain) {
  GenDTModel model(model_config(1));
  const auto before = all_params(model);
  std::vector<nn::Mat> snapshot;
  for (const auto& p : before) snapshot.push_back(p.tensor.value());

  TrainConfig cfg = train_config(1);
  cfg.start_epoch = 2;
  // A lone "/m" record (no /v, /t) is a corrupt slot, not a fresh start.
  cfg.resume_opt_state = {{"adam.gen/" + before[0].name + "/m",
                           nn::Mat::zeros(before[0].tensor.rows(), before[0].tensor.cols())}};
  TrainStats st = train_gendt(model, *train_windows_, cfg);
  EXPECT_FALSE(st.error.empty());
  EXPECT_TRUE(st.mse_per_epoch.empty());
  // Refusal happened before any update touched the parameters.
  const auto after = all_params(model);
  for (size_t i = 0; i < after.size(); ++i)
    for (size_t j = 0; j < snapshot[i].size(); ++j)
      ASSERT_EQ(after[i].tensor.value()[j], snapshot[i][j]);
}

}  // namespace
}  // namespace gendt::core
