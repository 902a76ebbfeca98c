// Privacy-mechanism invariants: cheap structural checks of the properties
// the paper's security argument rests on. They verify the *mechanisms*, not
// learned behavior; the one trained deployment (EnsemblerBundle) exists to
// check where its secret lands on disk.

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/ensembler.hpp"
#include "core/selector.hpp"
#include "data/synth_cifar10.hpp"
#include "metrics/similarity.hpp"
#include "nn/dropout.hpp"
#include "nn/noise.hpp"
#include "nn/resnet.hpp"
#include "serve/bundle.hpp"
#include "serve/service.hpp"
#include "split/split_model.hpp"
#include "tensor/ops.hpp"

namespace ens {
namespace {

TEST(SelectorSecrecy, SubsetSpaceIsLargeEnoughToDeterBruteForce) {
    // §III-D: expected MIA cost is O(2^N). For the paper's N = 10 the
    // subset count (excluding empty) is 1023; with unknown P the attacker
    // cannot even fix the search stratum.
    std::size_t subsets = 0;
    for (std::size_t p = 1; p <= 10; ++p) {
        // C(10, p)
        std::size_t c = 1;
        for (std::size_t i = 0; i < p; ++i) {
            c = c * (10 - i) / (i + 1);
        }
        subsets += c;
    }
    EXPECT_EQ(subsets, 1023u);
}

TEST(SelectorSecrecy, RandomSelectionsAreUniformish) {
    // Every index should appear with frequency ~P/N across many draws —
    // no index is systematically preferred (which would help an attacker).
    Rng rng(123);
    std::vector<int> counts(10, 0);
    const int draws = 2000;
    for (int d = 0; d < draws; ++d) {
        const core::Selector s = core::Selector::random(10, 4, rng);
        for (const std::size_t i : s.indices()) {
            counts[i]++;
        }
    }
    for (const int count : counts) {
        EXPECT_NEAR(static_cast<double>(count) / draws, 0.4, 0.05);
    }
}

TEST(NoiseMask, DistinctStreamsGiveQuasiOrthogonalMasks) {
    // Stage 1 relies on "randomly initialized noises are quasi-orthogonal
    // to each other" (§III-C). Check pairwise cosine similarity of masks
    // drawn from forked streams.
    Rng root(77);
    std::vector<Tensor> masks;
    for (std::uint64_t i = 0; i < 10; ++i) {
        Rng stream = root.fork(i);
        masks.push_back(Tensor::randn(Shape{8, 16, 16}, stream, 0.0f, 0.1f));
    }
    for (std::size_t a = 0; a < masks.size(); ++a) {
        for (std::size_t b = a + 1; b < masks.size(); ++b) {
            EXPECT_LT(std::abs(metrics::cosine_similarity(masks[a], masks[b])), 0.1f)
                << "masks " << a << " and " << b;
        }
    }
}

TEST(NoiseMask, PerturbsEveryTransmission) {
    Rng rng(5);
    nn::FixedNoise noise(Shape{4, 8, 8}, 0.1f, rng);
    const Tensor z = Tensor::zeros(Shape{2, 4, 8, 8});
    const Tensor wire = noise.forward(z);
    // The wire signal is never the raw features.
    EXPECT_GT(squared_norm(wire), 0.0f);
    // But it is deterministic (fixed mask), unlike dropout.
    EXPECT_EQ(noise.forward(z).to_vector(), wire.to_vector());
}

TEST(DropoutDefense, IsNondeterministicOnTheWire) {
    nn::Dropout dropout(0.4f, Rng(9), /*active_in_eval=*/true);
    dropout.set_training(false);
    Rng rng(6);
    const Tensor z = Tensor::uniform(Shape{1, 4, 8, 8}, rng, 0.5f, 1.5f);
    const Tensor w1 = dropout.forward(z);
    const Tensor w2 = dropout.forward(z);
    EXPECT_NE(w1.to_vector(), w2.to_vector());
}

TEST(SplitGeometry, HeadOutputIsWhatTheServerSees) {
    // The transmitted tensor must carry NO spatial downsampling beyond the
    // documented head geometry — a silent geometry change would alter the
    // privacy surface (more resolution = easier inversion).
    nn::ResNetConfig arch;
    arch.base_width = 4;
    arch.image_size = 16;
    Rng rng(8);
    split::SplitModel parts = split::build_split_resnet18(arch, rng);
    parts.set_training(false);
    const Tensor z = parts.head->forward(Tensor::zeros(Shape{1, 3, 16, 16}));
    EXPECT_EQ(z.shape(), Shape({1, 4, 8, 8}));

    arch.include_maxpool = false;
    Rng rng2(8);
    split::SplitModel parts2 = split::build_split_resnet18(arch, rng2);
    parts2.set_training(false);
    EXPECT_EQ(parts2.head->forward(Tensor::zeros(Shape{1, 3, 16, 16})).shape(),
              Shape({1, 4, 16, 16}));
}

// The deployment a trained Ensembler writes is one serve bundle
// (serve/bundle.hpp): the secret half in CLIENT.ens, every body in the
// server-shareable MANIFEST.ens + body_*.ckpt.
class EnsemblerBundle : public ::testing::Test {
protected:
    static nn::ResNetConfig arch() {
        nn::ResNetConfig config;
        config.base_width = 4;
        config.image_size = 16;
        config.num_classes = 10;
        return config;
    }

    static void SetUpTestSuite() {
        core::EnsemblerConfig config;
        config.num_networks = 3;
        config.num_selected = 2;
        config.stage1_options.epochs = 1;
        config.stage3_options.epochs = 1;
        config.seed = 314;
        train_set_ = new data::SynthCifar10(96, 41, 16);
        source_ = new core::Ensembler(arch(), config);
        source_->fit(*train_set_);
        dir_ = new std::string(::testing::TempDir() + "/ens_ensembler_bundle");
        std::filesystem::remove_all(*dir_);
        serve::save_bundle(*dir_, *source_);
    }

    static void TearDownTestSuite() {
        std::filesystem::remove_all(*dir_);
        delete dir_;
        delete source_;
        delete train_set_;
    }

    static std::string read_file(const std::filesystem::path& file) {
        std::ifstream in(file, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    }

    static data::SynthCifar10* train_set_;
    static core::Ensembler* source_;
    static std::string* dir_;
};

data::SynthCifar10* EnsemblerBundle::train_set_ = nullptr;
core::Ensembler* EnsemblerBundle::source_ = nullptr;
std::string* EnsemblerBundle::dir_ = nullptr;

TEST_F(EnsemblerBundle, RestoredPipelineMatchesTheTrainedOne) {
    // A service booted from disk alone (lossless f32 wire) serves what the
    // trained Ensembler predicts, with the same secret selection.
    serve::InferenceService service = serve::InferenceService::from_bundle(*dir_);
    EXPECT_EQ(serve::load_bundle_client(*dir_).selector.indices(),
              source_->selector().indices());
    auto session = service.create_session();
    const data::Batch batch = data::materialize(*train_set_, 0, 4);
    const Tensor expected = source_->predict(batch.images);
    const Tensor actual = session->infer(batch.images).logits;
    ASSERT_EQ(actual.shape(), expected.shape());
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
        EXPECT_NEAR(actual.at(i), expected.at(i), 1e-5f) << "flat index " << i;
    }
}

TEST_F(EnsemblerBundle, RestoredBodiesReproduceBodyOutputsExactly) {
    // Every body, BatchNorm running statistics included, comes back
    // bit-exact: the outputs the client's tail was trained against.
    const serve::BundleManifest manifest = serve::load_bundle_manifest(*dir_);
    std::vector<nn::LayerPtr> restored = serve::load_bundle_bodies(*dir_, manifest);
    ASSERT_EQ(restored.size(), source_->num_networks());
    Rng rng(9);
    const Tensor features = Tensor::randn(
        Shape{2, nn::resnet18_split_channels(arch()), nn::resnet18_split_hw(arch()),
              nn::resnet18_split_hw(arch())},
        rng);
    for (std::size_t i = 0; i < restored.size(); ++i) {
        source_->member_body(i).set_training(false);
        EXPECT_EQ(restored[i]->forward(features).to_vector(),
                  source_->member_body(i).forward(features).to_vector())
            << "body " << i;
    }
}

TEST_F(EnsemblerBundle, RefusesASelectorThatDoesNotCoverTheDeployment) {
    try {
        (void)serve::load_bundle_client(*dir_, source_->num_networks() + 1);
        FAIL() << "a selector over 3 bodies was accepted for a 4-body deployment";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::checkpoint_error) << e.what();
    }
}

TEST_F(EnsemblerBundle, ServerFilesNeverHoldTheSelector) {
    // The selector record exactly as CLIENT.ens encodes it: u32 N, u32 P,
    // then each selected index as a u32, little-endian.
    std::string record;
    const auto append_u32 = [&record](std::size_t value) {
        for (int byte = 0; byte < 4; ++byte) {
            record.push_back(static_cast<char>((value >> (8 * byte)) & 0xFF));
        }
    };
    append_u32(source_->selector().n());
    append_u32(source_->selector().p());
    for (const std::size_t index : source_->selector().indices()) {
        append_u32(index);
    }
    const std::filesystem::path dir(*dir_);
    ASSERT_NE(read_file(dir / serve::kClientFileName).find(record), std::string::npos)
        << "the client file must hold the record this test looks for";

    std::vector<std::filesystem::path> server_files = {dir / serve::kManifestFileName};
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().filename().string().rfind("body_", 0) == 0) {
            server_files.push_back(entry.path());
        }
    }
    ASSERT_EQ(server_files.size(), 1 + source_->num_networks());
    for (const std::filesystem::path& file : server_files) {
        EXPECT_EQ(read_file(file).find(record), std::string::npos)
            << file << " holds the secret selector";
    }
}

}  // namespace
}  // namespace ens
