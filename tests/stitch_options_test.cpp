// Tests for StitchRequest::validate(): every documented invalid option
// combination is rejected with an InvalidArgument whose message begins with
// the offending field's name ("<field>: ..."), and valid boundary
// combinations pass.
#include <gtest/gtest.h>

#include <iterator>

#include "simdata/plate.hpp"
#include "stitch/request.hpp"
#include "stitch/stitcher.hpp"

namespace hs::stitch {
namespace {

sim::SyntheticGrid make_grid(std::size_t rows, std::size_t cols) {
  sim::AcquisitionParams acq;
  acq.grid_rows = rows;
  acq.grid_cols = cols;
  acq.tile_height = 48;
  acq.tile_width = 64;
  acq.seed = 11;
  return sim::make_synthetic_grid(acq);
}

class StitchOptionsValidate : public ::testing::Test {
 protected:
  StitchOptionsValidate()
      : grid_(make_grid(4, 6)), provider_(&grid_.tiles, grid_.layout) {}

  /// Asserts validate() throws InvalidArgument naming `field` first.
  void expect_rejected(Backend backend, const StitchOptions& options,
                       const std::string& field) {
    const StitchRequest request{backend, &provider_, options};
    try {
      request.validate();
      FAIL() << "expected rejection naming field '" << field << "'";
    } catch (const InvalidArgument& e) {
      const std::string message = e.what();
      EXPECT_EQ(message.rfind(field + ":", 0), 0u)
          << "message does not start with '" << field << ":': " << message;
    }
  }

  void expect_accepted(Backend backend, const StitchOptions& options) {
    const StitchRequest request{backend, &provider_, options};
    EXPECT_NO_THROW(request.validate());
  }

  sim::SyntheticGrid grid_;
  MemoryTileProvider provider_;
};

TEST_F(StitchOptionsValidate, NullProviderRejected) {
  const StitchRequest request{Backend::kSimpleCpu, nullptr, StitchOptions{}};
  try {
    request.validate();
    FAIL() << "expected rejection";
  } catch (const InvalidArgument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("provider:", 0), 0u) << e.what();
  }
}

TEST_F(StitchOptionsValidate, DefaultsPassOnEveryBackend) {
  for (Backend backend :
       {Backend::kNaivePairwise, Backend::kSimpleCpu, Backend::kMtCpu,
        Backend::kPipelinedCpu, Backend::kSimpleGpu, Backend::kPipelinedGpu}) {
    expect_accepted(backend, StitchOptions{});
  }
}

TEST_F(StitchOptionsValidate, PeakCandidatesMustBePositive) {
  StitchOptions options;
  options.peak_candidates = 0;
  // Shared invariant: rejected on every backend, not just one.
  expect_rejected(Backend::kNaivePairwise, options, "peak_candidates");
  expect_rejected(Backend::kPipelinedGpu, options, "peak_candidates");
}

TEST_F(StitchOptionsValidate, MinOverlapMustBePositive) {
  StitchOptions options;
  options.min_overlap_px = 0;
  expect_rejected(Backend::kSimpleCpu, options, "min_overlap_px");
}

TEST_F(StitchOptionsValidate, ThreadsRequiredByWorkerBackends) {
  StitchOptions options;
  options.threads = 0;
  expect_rejected(Backend::kMtCpu, options, "threads");
  expect_rejected(Backend::kPipelinedCpu, options, "threads");
  expect_rejected(Backend::kPipelinedGpu, options, "threads");
  // Single-threaded backends ignore the field entirely.
  expect_accepted(Backend::kSimpleCpu, options);
  expect_accepted(Backend::kNaivePairwise, options);
}

TEST_F(StitchOptionsValidate, ReadThreadsRequiredByPipelinedBackends) {
  StitchOptions options;
  options.read_threads = 0;
  expect_rejected(Backend::kPipelinedCpu, options, "read_threads");
  expect_rejected(Backend::kPipelinedGpu, options, "read_threads");
  expect_accepted(Backend::kMtCpu, options);
}

TEST_F(StitchOptionsValidate, PoolMustExceedWorkingSet) {
  // 4x6 grid, row traversal: working set = cols + 1 = 7.
  StitchOptions options;
  options.traversal = Traversal::kRow;
  options.pool_buffers = 7;
  expect_rejected(Backend::kPipelinedCpu, options, "pool_buffers");
  options.pool_buffers = 8;
  expect_accepted(Backend::kPipelinedCpu, options);
  // 0 means "auto-size": always valid.
  options.pool_buffers = 0;
  expect_accepted(Backend::kPipelinedCpu, options);
}

TEST_F(StitchOptionsValidate, PoolWorkingSetFollowsTraversal) {
  // Column traversal working set = rows + 1 = 5 on the 4x6 grid, so a pool
  // of 6 is valid there but too small for row traversal.
  StitchOptions options;
  options.pool_buffers = 6;
  options.traversal = Traversal::kColumn;
  expect_accepted(Backend::kPipelinedCpu, options);
  options.traversal = Traversal::kRow;
  expect_rejected(Backend::kPipelinedCpu, options, "pool_buffers");
}

TEST_F(StitchOptionsValidate, SimpleGpuPoolNeedsNccBuffer) {
  // Simple-GPU needs working set + 2 (extra NCC buffer): 9 with row
  // traversal on this grid.
  StitchOptions options;
  options.traversal = Traversal::kRow;
  options.pool_buffers = 8;
  expect_rejected(Backend::kSimpleGpu, options, "pool_buffers");
  options.pool_buffers = 9;
  expect_accepted(Backend::kSimpleGpu, options);
}

TEST_F(StitchOptionsValidate, PipelinedGpuPoolCheckedPerBand) {
  // With 2 GPUs the 4x6 grid splits into bands of 2 and 3 rows; row
  // traversal's per-band working set stays cols + 1 = 7, so a pool of 7 is
  // still too small for every band.
  StitchOptions options;
  options.traversal = Traversal::kRow;
  options.gpu_count = 2;
  options.pool_buffers = 7;
  expect_rejected(Backend::kPipelinedGpu, options, "pool_buffers");
  options.pool_buffers = 8;
  expect_accepted(Backend::kPipelinedGpu, options);
}

TEST_F(StitchOptionsValidate, GpuCountMustBePositive) {
  StitchOptions options;
  options.gpu_count = 0;
  expect_rejected(Backend::kPipelinedGpu, options, "gpu_count");
  // Non-GPU backends ignore gpu_count.
  expect_accepted(Backend::kPipelinedCpu, options);
}

TEST_F(StitchOptionsValidate, CcfThreadsMustBePositive) {
  StitchOptions options;
  options.ccf_threads = 0;
  expect_rejected(Backend::kPipelinedGpu, options, "ccf_threads");
  expect_accepted(Backend::kPipelinedCpu, options);
}

TEST_F(StitchOptionsValidate, FftStreamsNeedKepler) {
  StitchOptions options;
  options.fft_streams = 0;
  expect_rejected(Backend::kPipelinedGpu, options, "fft_streams");
  options.fft_streams = 2;
  options.kepler_concurrent_fft = false;
  expect_rejected(Backend::kPipelinedGpu, options, "fft_streams");
  options.kepler_concurrent_fft = true;
  expect_accepted(Backend::kPipelinedGpu, options);
  // One stream never needs the Kepler flag.
  options.fft_streams = 1;
  options.kepler_concurrent_fft = false;
  expect_accepted(Backend::kPipelinedGpu, options);
}

TEST_F(StitchOptionsValidate, P2pNeedsMultipleGpus) {
  StitchOptions options;
  options.use_p2p = true;
  options.gpu_count = 1;
  expect_rejected(Backend::kPipelinedGpu, options, "use_p2p");
  options.gpu_count = 2;
  expect_accepted(Backend::kPipelinedGpu, options);
  // p2p is a pipelined-gpu extension; other backends ignore it.
  options.gpu_count = 1;
  expect_accepted(Backend::kSimpleGpu, options);
}

TEST_F(StitchOptionsValidate, WrapperAndRequestAgree) {
  // stitch(backend, provider, options) forwards through the same
  // validation, so an invalid combination fails identically either way.
  StitchOptions options;
  options.use_p2p = true;
  options.gpu_count = 1;
  EXPECT_THROW(stitch(Backend::kPipelinedGpu, provider_, options),
               InvalidArgument);
  EXPECT_THROW(stitch(StitchRequest{Backend::kPipelinedGpu, &provider_,
                                    options}),
               InvalidArgument);
}

TEST_F(StitchOptionsValidate, PredictedPoolBytesIsPositiveAndMonotonic) {
  // The serve layer admits against this prediction; sanity-check it grows
  // with the pool and is positive for every backend.
  for (Backend backend :
       {Backend::kNaivePairwise, Backend::kSimpleCpu, Backend::kMtCpu,
        Backend::kPipelinedCpu, Backend::kSimpleGpu, Backend::kPipelinedGpu}) {
    const StitchRequest request{backend, &provider_, StitchOptions{}};
    EXPECT_GT(request.predicted_pool_bytes(), 0u)
        << backend_name(backend);
  }
  StitchOptions small;
  small.pool_buffers = 8;
  StitchOptions large;
  large.pool_buffers = 16;
  const StitchRequest a{Backend::kPipelinedCpu, &provider_, small};
  const StitchRequest b{Backend::kPipelinedCpu, &provider_, large};
  EXPECT_LT(a.predicted_pool_bytes(), b.predicted_pool_bytes());
}

TEST_F(StitchOptionsValidate, PredictedPoolBytesMatchGoldenValues) {
  // Exact admission prices on the 4x6 grid of 48x64 tiles, 3 worker
  // threads. Loop order, innermost last: backend, FFT mode (complex, real),
  // traversal (row, chained diagonal), pool_buffers (auto, 12), gpu_count
  // (1, 2). Any change to these values changes what the serve layer admits.
  const std::size_t expected[] = {
      // naive-pairwise
      159744, 159744, 159744, 159744,
      159744, 159744, 159744, 159744,
      88320, 88320, 88320, 88320,
      88320, 88320, 88320, 88320,
      // simple-cpu
      491520, 491520, 491520, 491520,
      380928, 380928, 380928, 380928,
      277248, 277248, 277248, 277248,
      214272, 214272, 214272, 214272,
      // mt-cpu
      700416, 700416, 700416, 700416,
      589824, 589824, 589824, 589824,
      390912, 390912, 390912, 390912,
      327936, 327936, 327936, 327936,
      // pipelined-cpu
      755712, 755712, 811008, 811008,
      645120, 645120, 811008, 811008,
      422400, 422400, 453888, 453888,
      359424, 359424, 453888, 453888,
      // simple-gpu
      706560, 706560, 761856, 761856,
      595968, 595968, 761856, 761856,
      397056, 397056, 428544, 428544,
      334080, 334080, 428544, 428544,
      // pipelined-gpu
      755712, 1511424, 811008, 1622016,
      645120, 1124352, 811008, 1622016,
      446208, 892416, 477696, 955392,
      383232, 672000, 477696, 955392,
  };
  std::size_t i = 0;
  for (const Backend backend : kAllBackends) {
    for (const bool real_fft : {false, true}) {
      for (const Traversal traversal :
           {Traversal::kRow, Traversal::kDiagonalChained}) {
        for (const std::size_t pool : {std::size_t{0}, std::size_t{12}}) {
          for (const std::size_t gpus : {std::size_t{1}, std::size_t{2}}) {
            StitchOptions options;
            options.threads = 3;
            options.use_real_fft = real_fft;
            options.traversal = traversal;
            options.pool_buffers = pool;
            options.gpu_count = gpus;
            const StitchRequest request{backend, &provider_, options};
            EXPECT_EQ(request.predicted_pool_bytes(), expected[i])
                << backend_name(backend) << (real_fft ? " real" : " complex")
                << " " << traversal_name(traversal) << " pool " << pool
                << " gpus " << gpus;
            ++i;
          }
        }
      }
    }
  }
  EXPECT_EQ(i, std::size(expected));
}

}  // namespace
}  // namespace hs::stitch
