// `perfbench_driver host`: the traced body host.
//
// The same serving stack serve_daemon --reactor --bundle --optimize runs —
// load_bundle_bodies -> compile_for_inference -> BodyHost ->
// DeploymentManager -> ReactorHost, same worker count, same ENS_THREADS —
// except that every body, and every top-level layer inside
// it, is wrapped in a TimedLayer. Spans stay in memory; SIGTERM drains the
// reactor and writes them to --spans, headed by the per-layer FLOP counts
// (latency::count_cost over the uncompiled body).

#include <csignal>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "host.hpp"
#include "latency/flops.hpp"
#include "nn/compile.hpp"
#include "nn/sequential.hpp"
#include "serve/bundle.hpp"
#include "serve/deployment.hpp"
#include "serve/reactor.hpp"
#include "split/tcp_channel.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace ens;

namespace {

nn::Sequential& as_sequential(nn::Layer& layer) {
    auto* seq = dynamic_cast<nn::Sequential*>(&layer);
    if (seq == nullptr) {
        throw std::runtime_error("traced host: body " + layer.name() + " is not a Sequential");
    }
    return *seq;
}

}  // namespace

int run_traced_host(const HostOptions& options) {
    // Blocked before any thread exists, exactly like serve_daemon.
    serve::SignalSet signals{SIGTERM, SIGINT};

    const serve::BundleManifest manifest = serve::load_bundle_manifest(options.bundle_dir);
    std::vector<nn::LayerPtr> bodies = serve::load_bundle_bodies(
        options.bundle_dir, manifest, options.body_begin, options.body_count);

    // Per-layer FLOPs of one forward, from the uncompiled graph.
    std::vector<double> flops;
    {
        nn::Sequential& body = as_sequential(*bodies.front());
        Shape shape = options.input_shape;
        for (std::size_t i = 0; i < body.size(); ++i) {
            const latency::CostReport cost = latency::count_cost(body.layer(i), shape);
            flops.push_back(cost.total_flops);
            shape = cost.output_shape;
        }
    }

    SpanLog log;
    const std::uint32_t body_name = log.intern("body");
    std::vector<std::uint32_t> layer_names;
    for (std::size_t i = 0; i < flops.size(); ++i) {
        layer_names.push_back(log.intern("L" + std::to_string(i)));
    }
    for (nn::LayerPtr& body : bodies) {
        body = nn::compile_for_inference(std::move(body));
        std::vector<nn::LayerPtr> layers = as_sequential(*body).release_slice(
            0, as_sequential(*body).size());
        if (layers.size() != layer_names.size()) {
            throw std::runtime_error("traced host: compiled body changed its layer count");
        }
        auto timed = std::make_unique<nn::Sequential>();
        timed->set_training(false);  // push_back propagates the container's mode
        for (std::size_t i = 0; i < layers.size(); ++i) {
            timed->push_back(std::make_unique<TimedLayer>(std::move(layers[i]), log,
                                                          layer_names[i]));
        }
        body = std::make_unique<TimedLayer>(std::move(timed), log, body_name);
    }

    auto host = std::make_shared<serve::BodyHost>(std::move(bodies));
    host->set_shard(options.body_begin, manifest.total_bodies);
    host->set_max_inflight(manifest.max_inflight);
    host->set_wire_mask(manifest.wire_mask);
    auto manager = std::make_shared<serve::DeploymentManager>(host, /*optimize_swaps=*/true);
    serve::ReactorConfig config;
    config.worker_threads = options.workers;
    serve::ReactorHost reactor(manager, config);
    split::ChannelListener listener(0, "127.0.0.1");
    std::printf("perfbench host: bodies [%zu, %zu) on 127.0.0.1:%u, %zu workers\n",
                options.body_begin, options.body_begin + host->body_count(), listener.port(),
                options.workers);
    std::fflush(stdout);

    std::thread reactor_thread([&] { reactor.run(listener); });
    signals.wait();
    reactor.shutdown();
    reactor_thread.join();

    std::ostringstream header;
    header << "flops";
    for (const double f : flops) {
        header << ' ' << f;
    }
    log.write(options.spans_path, header.str());
    return 0;
}

}  // namespace perfbench
