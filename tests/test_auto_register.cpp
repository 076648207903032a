// Sec. 7.1.1's AUTOMATIC external-parameter registration: "When a
// partitioned parameter is accessed, we do a blocking allgather on the
// parameter, register it as an external parameter, and then return the
// gathered parameter" — no user code change required.
//
// The test model deliberately accesses another module's parameter in its
// forward WITHOUT registering it. Iteration 1 triggers the interceptor
// (blocking gather + auto-registration); from then on the normal hooks
// gather it like any other external parameter.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "comm/world.hpp"
#include "core/coordinator.hpp"
#include "model/linear.hpp"

namespace zi {
namespace {

namespace fs = std::filesystem;

/// A module that scales its input by the first element of ANOTHER module's
/// weight — an unregistered cross-module access (the GPT weight-tying
/// pattern, minus the manual registration).
struct Borrower : public Module {
  explicit Borrower(Parameter* borrowed)
      : Module("borrower"), borrowed_(borrowed) {}

  Tensor forward(const Tensor& x) override {
    // First touch of an ungathered parameter → interceptor fires.
    const float scale = borrowed_->data()[0].to_float();
    Tensor y = x.clone();
    for (std::int64_t i = 0; i < y.numel(); ++i) y.set(i, y.get(i) * scale);
    saved_input_ = x.clone();
    return y;
  }

  Tensor backward(const Tensor& dy) override {
    const float scale = borrowed_->data()[0].to_float();
    // d(borrowed[0]) += sum(dy * x).
    double acc = 0.0;
    for (std::int64_t i = 0; i < dy.numel(); ++i) {
      acc += static_cast<double>(dy.get(i)) * saved_input_.get(i);
    }
    borrowed_->grad_data()[0] += static_cast<float>(acc);
    Tensor dx = dy.clone();
    for (std::int64_t i = 0; i < dx.numel(); ++i) {
      dx.set(i, dx.get(i) * scale);
    }
    saved_input_ = Tensor();
    return dx;
  }

  Parameter* borrowed_;
  Tensor saved_input_;
};

struct BorrowModel : public Module {
  BorrowModel() : Module("m") {
    owner = std::make_unique<Linear>("m.owner", 2, 2);
    borrower = std::make_unique<Borrower>(owner->weight());
    register_child(owner.get());
    register_child(borrower.get());
  }
  Tensor forward(const Tensor& x) override {
    return borrower->run_forward(owner->run_forward(x));
  }
  Tensor backward(const Tensor& dy) override {
    return owner->run_backward(borrower->run_backward(dy));
  }
  std::unique_ptr<Linear> owner;
  std::unique_ptr<Borrower> borrower;
};

TEST(AutoRegister, InterceptedAccessGathersAndRegisters) {
  const fs::path dir =
      fs::temp_directory_path() / ("zi_autoreg_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  EngineConfig cfg;
  cfg.stage = ZeroStage::kStage3;
  cfg.param_placement = Placement::kCpu;
  cfg.optimizer_placement = Placement::kCpu;
  cfg.grad_placement = Placement::kCpu;
  cfg.nvme_dir = dir.string();

  AioEngine aio;
  run_ranks(2, [&](Communicator& comm) {
    BorrowModel model;
    model.finalize();
    RankResources res(comm.rank(), aio, 8 * kMiB, 16 * kMiB, dir, 64 * 1024,
                      2);
    ModelStateStore store(res, cfg, model.all_parameters(), comm.rank(), 2);
    ParamCoordinator coord(store, res, comm, cfg);
    coord.install(model);

    EXPECT_TRUE(model.borrower->external_parameters().empty());

    auto one_pass = [&] {
      coord.begin_iteration();
      Tensor x({1, 2}, DType::kF32);
      x.fill(1.0f);
      Tensor y = model.forward(x);
      Tensor dy({1, 2}, DType::kF32);
      dy.fill(1.0f);
      model.backward(dy);
      coord.end_iteration();
      return y.get(0);
    };

    // Iteration 1: the forward AND backward touches are intercepted (the
    // parameter is released after the owner's post-backward, so the
    // borrower's backward access re-gathers it).
    const float y1 = one_pass();
    EXPECT_GE(coord.stats().auto_registrations, 1u);
    ASSERT_EQ(model.borrower->external_parameters().size(), 1u);
    EXPECT_EQ(model.borrower->external_parameters()[0]->name(),
              "m.owner.weight");

    // Iteration 2+: the hooks now handle the gather; no new interceptions
    // once the (re-recorded) trace stabilizes.
    (void)one_pass();
    const auto after_two = coord.stats().auto_registrations;
    const float y3 = one_pass();
    EXPECT_EQ(coord.stats().auto_registrations, after_two);
    EXPECT_TRUE(std::isfinite(y1) && std::isfinite(y3));

    // The borrowed parameter's gradient flows to its owner exactly once:
    // checked indirectly — everything is released and reduced cleanly.
    for (Parameter* p : model.all_parameters()) {
      EXPECT_EQ(p->status(), Parameter::Status::kNotAvailable) << p->name();
      EXPECT_FALSE(p->grad_tensor().defined()) << p->name();
    }
  });
  fs::remove_all(dir);
}

TEST(AutoRegister, NoInterceptorMeansHardError) {
  // Without a coordinator (no interceptor installed), the same access is a
  // loud failure — the availability state machine's job.
  BorrowModel model;
  model.finalize();
  Tensor x({1, 2}, DType::kF32);
  EXPECT_THROW(model.forward(x), Error);
}

}  // namespace
}  // namespace zi
