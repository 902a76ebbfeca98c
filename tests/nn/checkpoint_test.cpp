// nn/checkpoint coverage the rest of the suite misses:
//
//   1. Deployment-grade fidelity: a net that builds the same structure with
//      DIFFERENT weights, loads a save_state checkpoint from disk, and runs
//      an eval-mode forward must produce output bytes bit-identical to the
//      source's — which fails if BatchNorm running statistics or the fixed
//      noise mask were dropped or re-derived. The fresh-process half of
//      this (warmed conv + BN bodies restored by an exec'd serve_daemon) is
//      tests/serve/bundle_restart_test.cpp.
//   2. Rejection MESSAGES: mismatches must say what disagreed (name,
//      shape, count, magic) so a mis-deployed checkpoint is diagnosable
//      from the error alone, and surface as typed
//      ens::Error{checkpoint_error}.
//   3. Hostile-input hardening: truncated and garbage streams fail typed
//      with bounded allocation (an attacker-sized length prefix must not
//      drive a multi-gigabyte reserve).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/batchnorm.hpp"
#include "nn/checkpoint.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/noise.hpp"
#include "nn/sequential.hpp"

namespace ens::nn {
namespace {

/// Conv->BN net whose eval output depends on BN running statistics.
std::unique_ptr<Sequential> make_bn_net(std::uint64_t seed) {
    Rng rng(seed);
    auto net = std::make_unique<Sequential>();
    net->emplace<Conv2d>(1, 2, /*kernel=*/3, /*stride=*/1, /*padding=*/1, rng);
    net->emplace<BatchNorm2d>(2);
    return net;
}

TEST(Checkpoint, BatchNormRunningStatsSurviveSaveStateIntoAFreshNet) {
    auto net = make_bn_net(/*seed=*/42);
    // "Train": drive the running statistics away from their (0, 1) init.
    Rng data_rng(7);
    for (int i = 0; i < 4; ++i) {
        net->forward(Tensor::randn(Shape{6, 1, 4, 4}, data_rng));
    }
    net->set_training(false);

    const Tensor probe = Tensor::randn(Shape{2, 1, 4, 4}, data_rng);
    const std::vector<float> expected = net->forward(probe).to_vector();

    const std::string path = "checkpoint_restore_test.ckpt";
    save_state_file(*net, path);

    // Different seed: every weight differs until the load. Loading
    // parameters alone would leave the restored BN running stats at their
    // init and diverge — only full state restores parity.
    auto restored = make_bn_net(/*seed=*/4242);
    restored->set_training(false);
    ASSERT_NE(restored->forward(probe).to_vector(), expected)
        << "distinct seeds must disagree before the load for this test to mean anything";
    load_state_file(*restored, path);
    EXPECT_EQ(restored->forward(probe).to_vector(), expected);
}

TEST(Checkpoint, FixedNoiseMaskTravelsInStateCheckpoints) {
    Rng rng_a(1);
    FixedNoise original(Shape{2, 3, 3}, 0.1f, rng_a);
    std::stringstream stream;
    save_state(original, stream);

    Rng rng_b(2);
    FixedNoise restored(Shape{2, 3, 3}, 0.1f, rng_b);
    ASSERT_NE(restored.mask().to_vector(), original.mask().to_vector())
        << "distinct seeds must draw distinct masks for this test to mean anything";
    load_state(restored, stream);
    EXPECT_EQ(restored.mask().to_vector(), original.mask().to_vector());
}

// ------------------------------------------------------------- rejection

TEST(Checkpoint, NameMismatchNamesBothSides) {
    Rng rng(3);
    FixedNoise noise(Shape{2, 2}, 0.1f, rng, /*trainable=*/true);  // param "noise_mask"
    std::stringstream stream;
    save_state(noise, stream);

    try {
        // Same parameter COUNT is required to reach the name check, so use
        // a single-parameter layer on both sides.
        Rng rng2(4);
        Linear bias_free(2, 2, rng2, /*with_bias=*/false);  // one param: "weight"
        load_state(bias_free, stream);
        FAIL() << "name mismatch loaded";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::checkpoint_error);
        const std::string what = e.what();
        EXPECT_NE(what.find("noise_mask"), std::string::npos) << what;
        EXPECT_NE(what.find("weight"), std::string::npos) << what;
    }
}

TEST(Checkpoint, ShapeMismatchNamesParameterAndBothShapes) {
    Rng rng(5);
    Linear a(3, 4, rng, /*with_bias=*/false);
    std::stringstream stream;
    save_state(a, stream);

    Rng rng2(6);
    Linear b(3, 5, rng2, /*with_bias=*/false);
    try {
        load_state(b, stream);
        FAIL() << "shape mismatch loaded";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::checkpoint_error);
        const std::string what = e.what();
        EXPECT_NE(what.find("shape mismatch"), std::string::npos) << what;
        EXPECT_NE(what.find("weight"), std::string::npos) << what;
        EXPECT_NE(what.find("[4, 3]"), std::string::npos) << "checkpoint shape: " << what;
        EXPECT_NE(what.find("[5, 3]"), std::string::npos) << "model shape: " << what;
    }
}

TEST(Checkpoint, CountAndMagicMismatchesAreTypedAndNamed) {
    Rng rng(7);
    Linear one(2, 2, rng, /*with_bias=*/false);
    Linear two(2, 2, rng);  // weight + bias

    std::stringstream stream;
    save_state(one, stream);
    try {
        load_state(two, stream);
        FAIL();
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::checkpoint_error);
        EXPECT_NE(std::string(e.what()).find("parameter count mismatch"), std::string::npos)
            << e.what();
    }

    std::stringstream garbage("definitely not a checkpoint");
    try {
        load_state(one, garbage);
        FAIL();
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::checkpoint_error);
        EXPECT_NE(std::string(e.what()).find("bad checkpoint magic"), std::string::npos)
            << e.what();
    }
}

TEST(Checkpoint, FileErrorsNameThePath) {
    Rng rng(8);
    Linear net(2, 2, rng);
    try {
        load_state_file(net, "no_such_dir/no_such_checkpoint.ckpt");
        FAIL();
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::checkpoint_error);
        EXPECT_NE(std::string(e.what()).find("no_such_checkpoint.ckpt"), std::string::npos)
            << e.what();
    }
}

// --------------------------------------------------------------- hostile

TEST(Checkpoint, TruncatedStreamFailsTypedNotRaw) {
    Rng rng(9);
    Linear net(3, 3, rng);
    std::stringstream stream;
    save_state(net, stream);
    const std::string bytes = stream.str();

    for (const std::size_t keep : {std::size_t{6}, bytes.size() / 2, bytes.size() - 3}) {
        std::stringstream truncated(bytes.substr(0, keep));
        Rng rng2(10);
        Linear target(3, 3, rng2);
        try {
            load_state(target, truncated);
            FAIL() << "truncated to " << keep << " bytes loaded";
        } catch (const Error& e) {
            EXPECT_EQ(e.code(), ErrorCode::checkpoint_error) << "keep=" << keep;
        } catch (const std::exception& e) {
            FAIL() << "raw exception for keep=" << keep << ": " << e.what();
        }
    }
}

TEST(Checkpoint, AttackerSizedLengthPrefixesAreBoundedBeforeAllocation) {
    // magics | count=1 | string length 0xFFFFFFFF: a naive loader would
    // reserve 4 GiB for the parameter name. The bounded reader must refuse
    // by the declared length, typed.
    std::string bytes;
    const std::uint32_t state_magic = 0x454E5332;
    const std::uint32_t magic = 0x454E5331;  // the parameter section's
    const std::uint64_t count = 1;
    const std::uint32_t absurd_len = 0xFFFFFFFFu;
    bytes.append(reinterpret_cast<const char*>(&state_magic), 4);
    bytes.append(reinterpret_cast<const char*>(&magic), 4);
    bytes.append(reinterpret_cast<const char*>(&count), 8);
    bytes.append(reinterpret_cast<const char*>(&absurd_len), 4);

    Rng rng(11);
    Linear target(2, 2, rng, /*with_bias=*/false);
    std::stringstream stream(bytes);
    try {
        load_state(target, stream);
        FAIL();
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::checkpoint_error);
        EXPECT_NE(std::string(e.what()).find("exceeds bound"), std::string::npos) << e.what();
    }

    // Same for an absurd shape rank on an otherwise-plausible record.
    std::string shape_bytes;
    shape_bytes.append(reinterpret_cast<const char*>(&state_magic), 4);
    shape_bytes.append(reinterpret_cast<const char*>(&magic), 4);
    shape_bytes.append(reinterpret_cast<const char*>(&count), 8);
    const std::string name = "weight";
    const std::uint32_t name_len = static_cast<std::uint32_t>(name.size());
    shape_bytes.append(reinterpret_cast<const char*>(&name_len), 4);
    shape_bytes.append(name);
    const std::uint64_t absurd_rank = 0x7FFFFFFFFFFFFFFFull;
    shape_bytes.append(reinterpret_cast<const char*>(&absurd_rank), 8);
    std::stringstream shape_stream(shape_bytes);
    Rng rng2(12);
    Linear target2(2, 2, rng2, /*with_bias=*/false);
    try {
        load_state(target2, shape_stream);
        FAIL();
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::checkpoint_error);
        EXPECT_NE(std::string(e.what()).find("exceeds bound"), std::string::npos) << e.what();
    }
}

}  // namespace
}  // namespace ens::nn
