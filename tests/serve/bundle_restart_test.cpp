// Restart-parity regression suite for deployment bundles (serve/bundle.hpp),
// in-process half.
//
// The discipline under test is save-then-serve: a trainer writes a
// versioned on-disk bundle, and an InferenceService booted purely from
// that directory — no trainer objects, no shared seeds, no live layer
// pointers — must serve outputs BIT-IDENTICAL to the trainer's own
// in-proc sequential oracle, for lossless f32 and quantized q8 wire. The
// models deliberately carry the state that only full-fidelity checkpoints
// preserve: BatchNorm running statistics on both sides of the split and a
// fixed split-point noise mask (harness::make_conv_ensemble +
// warm_batchnorm). The service serves through its own in-process reactor,
// so this suite is fork-free and runs under TSan; the forked-daemon cases
// (single host and 3-shard §III-D) live in bundle_restart_daemon_test.
//
// Hostile-input half: truncated, corrupted and version-bumped manifest /
// client / checkpoint files must fail as typed
// ens::Error{checkpoint_error} NAMING the offending file — never crash,
// hang, over-allocate or silently mis-load.
//
// Bundle directories are written under the working directory's
// bundle_artifacts/ and left in place — CI uploads them on failure for
// post-mortem.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bundle_restart_harness.hpp"
#include "common/error.hpp"
#include "core/selector.hpp"
#include "serve/bundle.hpp"
#include "serve/service.hpp"

namespace ens::serve {
namespace {

namespace fs = std::filesystem;
using namespace harness;

// --------------------------------------------------------------- parity

TEST(BundleRestart, InferenceServiceFromBundleMatchesOracleAndResaves) {
    const std::string dir = bundle_dir_for("service");
    const core::Selector selector(3, {1, 2});
    harness::ConvEnsembleParts parts = make_trained_bundle(dir, /*num_bodies=*/3, selector);

    const std::vector<Tensor> inputs = make_inputs(33);
    for (const split::WireFormat wire : {split::WireFormat::f32, split::WireFormat::q8}) {
        Oracle oracle(parts, selector, wire);
        InferenceService service = InferenceService::from_bundle(dir);
        ASSERT_EQ(service.body_count(), 3u);
        auto session = service.create_session(SessionOptions{wire, {}});
        for (const Tensor& input : inputs) {
            const Tensor expected = oracle.infer(input);
            const InferenceResult result = session->infer(input);
            ASSERT_EQ(result.logits.shape(), expected.shape());
            EXPECT_EQ(result.logits.to_vector(), expected.to_vector())
                << split::wire_format_name(wire);
        }
    }

    // Save-from-service round trip: a bundle written by a bundle-booted
    // service reproduces the same deployment.
    const std::string resaved = bundle_dir_for("service_resaved");
    {
        InferenceService service = InferenceService::from_bundle(dir);
        service.save_bundle(resaved);
    }
    InferenceService restored = InferenceService::from_bundle(resaved);
    Oracle oracle(parts, selector, split::WireFormat::f32);
    auto session = restored.create_session();
    for (const Tensor& input : inputs) {
        EXPECT_EQ(session->infer(input).logits.to_vector(),
                  oracle.infer(input).to_vector());
    }
}

TEST(BundleRestart, RecordedWireMaskRestrictsTheRestoredHost) {
    const std::string dir = bundle_dir_for("wire_mask");
    const core::Selector selector(2, {0});
    harness::ConvEnsembleParts parts = harness::make_conv_ensemble(kSeed, 2, selector.p());
    harness::set_eval(parts);

    BundleArtifacts artifacts;
    for (nn::LayerPtr& body : parts.bodies) {
        artifacts.bodies.push_back(body.get());
    }
    artifacts.head = parts.head.get();
    artifacts.noise = parts.noise.get();
    artifacts.tail = parts.tail.get();
    artifacts.selector = &selector;
    // The bundle author restricts the deployment to lossless wire only;
    // a restored host must advertise exactly that, not this build's full
    // support set.
    artifacts.wire_mask = split::wire_format_bit(split::WireFormat::f32);
    artifacts.default_wire_format = split::WireFormat::f32;
    save_bundle(dir, artifacts);

    const auto host = BodyHost::from_bundle(dir);
    EXPECT_EQ(host->host_info().wire_mask, split::wire_format_bit(split::WireFormat::f32));
    EXPECT_FALSE(split::wire_format_supported(host->host_info().wire_mask,
                                              split::WireFormat::q8));

    // A from_bundle -> save_bundle round trip must carry the restriction,
    // never silently widen it back to this build's full support set.
    // The in-proc service's sessions handshake that host too: a format
    // outside the mask is refused typed, as a daemon refuses it.
    InferenceService service = InferenceService::from_bundle(dir);
    try {
        (void)service.create_session(SessionOptions{split::WireFormat::q8, {}});
        ADD_FAILURE() << "a q8 session was admitted by an f32-only host";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::protocol_error) << e.what();
    }

    const std::string resaved = bundle_dir_for("wire_mask_resaved");
    service.save_bundle(resaved);
    const BundleManifest manifest = load_bundle_manifest(resaved);
    EXPECT_EQ(manifest.wire_mask, split::wire_format_bit(split::WireFormat::f32));
}

// --------------------------------------------------------------- hostile

class BundleHostileTest : public ::testing::Test {
protected:
    /// A fresh valid bundle to corrupt, plus its oracle parts (unused by
    /// most cases, but keeps the bundle genuinely loadable before the
    /// corruption under test).
    std::string make_bundle(const std::string& name) {
        const std::string dir = bundle_dir_for("hostile_" + name);
        const core::Selector selector(2, {0});
        parts_ = std::make_unique<harness::ConvEnsembleParts>(
            make_trained_bundle(dir, /*num_bodies=*/2, selector));
        return dir;
    }

    static void truncate_file(const fs::path& file, std::uintmax_t keep) {
        ASSERT_GT(fs::file_size(file), keep);
        fs::resize_file(file, keep);
    }

    static void flip_byte(const fs::path& file, std::uintmax_t offset) {
        std::fstream stream(file, std::ios::binary | std::ios::in | std::ios::out);
        ASSERT_TRUE(stream.good());
        stream.seekg(static_cast<std::streamoff>(offset));
        char byte = 0;
        stream.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5A);
        stream.seekp(static_cast<std::streamoff>(offset));
        stream.write(&byte, 1);
    }

    /// Expects a typed checkpoint_error whose message names `file_hint`.
    template <typename Call>
    static void expect_typed_failure(Call&& call, const std::string& file_hint,
                                     const char* what) {
        try {
            call();
            FAIL() << what << ": expected ens::Error{checkpoint_error}, got no exception";
        } catch (const Error& e) {
            EXPECT_EQ(e.code(), ErrorCode::checkpoint_error) << what << ": " << e.what();
            EXPECT_NE(std::string(e.what()).find(file_hint), std::string::npos)
                << what << ": error does not name the offending file: " << e.what();
        } catch (const std::exception& e) {
            FAIL() << what << ": expected ens::Error{checkpoint_error}, got "
                   << typeid(e).name() << ": " << e.what();
        }
    }

    std::unique_ptr<harness::ConvEnsembleParts> parts_;
};

TEST_F(BundleHostileTest, TruncatedManifestFailsTypedNamingTheFile) {
    const std::string dir = make_bundle("truncated_manifest");
    truncate_file(fs::path(dir) / kManifestFileName, 21);
    expect_typed_failure([&] { load_bundle_manifest(dir); }, kManifestFileName,
                         "truncated manifest");
    expect_typed_failure([&] { BodyHost::from_bundle(dir); }, kManifestFileName,
                         "truncated manifest via BodyHost");
}

TEST_F(BundleHostileTest, CorruptedManifestMagicFailsTyped) {
    const std::string dir = make_bundle("bad_magic");
    flip_byte(fs::path(dir) / kManifestFileName, 1);
    expect_typed_failure([&] { load_bundle_manifest(dir); }, kManifestFileName, "bad magic");
}

TEST_F(BundleHostileTest, VersionBumpedManifestAndClientFailByVersionNumber) {
    const std::string dir = make_bundle("version_bump");
    // Byte 4 is the low byte of the little-endian version field in both
    // files; flipping it simulates a bundle from a future layout.
    flip_byte(fs::path(dir) / kManifestFileName, 4);
    flip_byte(fs::path(dir) / kClientFileName, 4);
    try {
        load_bundle_manifest(dir);
        FAIL() << "version-bumped manifest loaded";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::checkpoint_error);
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("supports only " + std::to_string(kBundleVersion)),
                  std::string::npos)
            << "version refusal must name the supported version: " << e.what();
    }
    expect_typed_failure([&] { load_bundle_client(dir); }, kClientFileName,
                         "version-bumped client file");
}

TEST_F(BundleHostileTest, CorruptedBodyCheckpointFailsTypedNamingTheFile) {
    const std::string dir = make_bundle("corrupt_body");
    // Flip a byte inside the second body's parameter records (past the
    // magics): the restore must reject it, never load garbage weights.
    flip_byte(fs::path(dir) / "body_001.ckpt", 20);
    const BundleManifest manifest = load_bundle_manifest(dir);
    expect_typed_failure([&] { load_bundle_bodies(dir, manifest); }, "body_001.ckpt",
                         "corrupt body checkpoint");
    // The corrupted file is OUTSIDE the first shard's slice: a shard host
    // for bodies [0, 1) must still boot (it never opens body_001.ckpt).
    EXPECT_NO_THROW({
        const auto host = BodyHost::from_bundle(dir, 0, 1);
        EXPECT_EQ(host->body_count(), 1u);
    });
}

TEST_F(BundleHostileTest, TruncatedBodyCheckpointFailsTypedNamingTheFile) {
    const std::string dir = make_bundle("truncated_body");
    const fs::path file = fs::path(dir) / "body_000.ckpt";
    truncate_file(file, fs::file_size(file) / 2);
    expect_typed_failure([&] { BodyHost::from_bundle(dir); }, "body_000.ckpt",
                         "truncated body checkpoint");
}

TEST_F(BundleHostileTest, TruncatedClientFileFailsTypedNamingTheFile) {
    const std::string dir = make_bundle("truncated_client");
    const fs::path file = fs::path(dir) / kClientFileName;
    truncate_file(file, fs::file_size(file) - 40);
    expect_typed_failure([&] { load_bundle_client(dir); }, kClientFileName,
                         "truncated client file");
}

TEST_F(BundleHostileTest, MissingFilesFailTypedNamingTheFile) {
    const std::string dir = make_bundle("missing_files");
    fs::remove(fs::path(dir) / "body_000.ckpt");
    expect_typed_failure([&] { BodyHost::from_bundle(dir); }, "body_000.ckpt",
                         "missing body checkpoint");
    fs::remove(fs::path(dir) / kManifestFileName);
    expect_typed_failure([&] { load_bundle_manifest(dir); }, kManifestFileName,
                         "missing manifest");
}

TEST_F(BundleHostileTest, HostileBodyCountAndFileNamesAreRejectedBeforeAllocation) {
    const std::string dir = bundle_dir_for("hostile_crafted");
    // Hand-crafted manifest: plausible magic/version, absurd body count.
    {
        std::ofstream out(fs::path(dir) / kManifestFileName, std::ios::binary);
        const std::uint32_t magic = 0x4D534E45, version = kBundleVersion, total = 0x00FFFFFF;
        out.write(reinterpret_cast<const char*>(&magic), 4);
        out.write(reinterpret_cast<const char*>(&version), 4);
        out.write(reinterpret_cast<const char*>(&total), 4);
    }
    expect_typed_failure([&] { load_bundle_manifest(dir); }, kManifestFileName,
                         "absurd body count");

    // Path traversal in a checkpoint file name must be refused outright.
    {
        std::ofstream out(fs::path(dir) / kManifestFileName, std::ios::binary);
        const std::uint32_t magic = 0x4D534E45, version = kBundleVersion, total = 1, mask = 1;
        const std::uint8_t wire = 0;
        const std::uint32_t inflight = 8;
        out.write(reinterpret_cast<const char*>(&magic), 4);
        out.write(reinterpret_cast<const char*>(&version), 4);
        out.write(reinterpret_cast<const char*>(&total), 4);
        out.write(reinterpret_cast<const char*>(&mask), 4);
        out.write(reinterpret_cast<const char*>(&wire), 1);
        out.write(reinterpret_cast<const char*>(&inflight), 4);
        const std::string evil = "../evil.ckpt";
        const std::uint32_t len = static_cast<std::uint32_t>(evil.size());
        out.write(reinterpret_cast<const char*>(&len), 4);
        out.write(evil.data(), evil.size());
    }
    expect_typed_failure([&] { load_bundle_manifest(dir); }, kManifestFileName,
                         "path-traversal file name");
}

}  // namespace
}  // namespace ens::serve
