// serve-open: GraphService on the Com-Orkut-like stand-in under an open loop.
// 4 shards x 1 sampler worker, an LRU cache of 4096 rows, 200 us emulated
// latency per remote-fetch message on every transport, 16 seeds per request
// and 1 request in 8 running inference. One generator thread submits on a
// fixed schedule regardless of completions; one drain thread pops responses.
// Two phases run back to back: a steady rate well below the knee and an
// overload rate at about twice the knee. The overload phase replays the
// steady phase's requests, so the two phases double as two runs of the same
// requests for the determinism check.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "graph/generators.h"
#include "sim/planner_select.h"
#include "service/service.h"
#include "topology/presets.h"
#include "workloads.h"

namespace perfbench {

using namespace dgcl;

namespace {

constexpr uint32_t kInverseScale = 64;  // 65 k vertices, 2.3 M edges
constexpr uint32_t kShards = 4;
constexpr uint32_t kSeedsPerRequest = 16;
constexpr uint32_t kInferEvery = 8;
// Calibrated on the seed commit (4 vCPUs): p99 stays near 10 ms up to
// ~600 req/s and jumps past 300 ms at 800 req/s, so the knee is ~700 req/s.
// The steady rate is ~20% of the knee: at 250 req/s (~35%) the latency tails
// moved about 1.6x as much as the median whenever the host slowed, and ten
// runs spread by more than any usable bound.
constexpr double kSteadyRps = 150.0;
constexpr double kOverloadRps = 1500.0;
constexpr double kSteadyShare = 0.6;  // of --seconds; the rest is overload
// Bounded tails. A sample request that lands behind an inference request on
// its shard's one worker, or whose worker the host is slow to wake, waits
// milliseconds; how often follows the host's speed. Over ten runs on a
// 4-vCPU VM at 250 req/s the sample p99 (median of three windows) read
// 7.4-27.5 ms and the p90 2.5-6.2 ms; even at 150 req/s the p90 of two runs
// in ten jumped from ~2.7 to ~4.4 ms. The sample p99 and the inference p95
// are printed, not bounded.
constexpr double kSampleTailP = 0.75;
constexpr double kInferTailP = 0.9;
constexpr double kSampleReportP = 0.99;
constexpr double kInferReportP = 0.95;
constexpr uint32_t kSyncChecks = 64;
// Steady requests for which the percentile rule holds for the bounded tails
// and for the p99 of all requests' queue wait, with room for a few that do
// not complete.
const uint32_t kMinSteadyRequests = static_cast<uint32_t>(
    std::max(MinSamplesForTail(kSampleReportP), MinSamplesForTail(kInferTailP) * kInferEvery) *
    21 / 20);

ServiceOptions MakeOptions(uint64_t seed) {
  ServiceOptions o;
  o.num_shards = kShards;
  o.samplers_per_shard = 1;
  o.cache_capacity_rows = 4096;
  o.cache_policy = "lru";
  o.faults.latency_micros = 200;
  o.faults.all_transports = true;
  o.seed = seed;
  o.feature_seed = seed + 1;
  o.weight_seed = seed + 2;
  return o;
}

uint64_t ResponseHash(const SampleResponse& r, bool inference) {
  uint64_t h = Fnv1a(r.nodes.data(), r.nodes.size() * sizeof(VertexId));
  if (inference) {
    h = Fnv1a(r.embeddings.data.data(), r.embeddings.data.size() * sizeof(float), h);
  }
  return h;
}

struct PhaseResult {
  // sent = shed + rejected + accepted; accepted = ok + unavailable + other +
  // dropped (never answered).
  uint64_t sent = 0, shed = 0, rejected = 0;
  uint64_t ok = 0, unavailable = 0, other = 0, dropped = 0;
  double window_s = 0.0;      // scheduled length of the phase
  double achieved_rps = 0.0;  // submits / (last submit - first due)
  std::vector<double> sample_ms, infer_ms;  // OK responses, from the due time
  std::vector<double> queue_ms, work_ms, late_ms;
  std::vector<double> traced_ms, untraced_ms;  // sample requests, for the overhead
  uint64_t remote_rows = 0;
  std::map<uint32_t, uint64_t> hashes;  // payload index -> response hash (OK only)
};

// Offers `count` requests at `rate`: request i is payloads[i % size] with id
// id_base + i. Returns once every accepted request has been answered (or no
// response came for several request deadlines).
PhaseResult OfferLoad(GraphService& service, const std::vector<SampleRequest>& payloads,
                      uint64_t id_base, uint32_t count, double rate, Tracer& tracer,
                      const char* phase) {
  PhaseResult res;
  res.window_s = count / rate;
  // Written by the generator before it submits request i, read by the
  // drainer after popping its response.
  std::vector<int64_t> due_ns(count);
  std::vector<uint64_t> request_span(count);
  std::atomic<uint64_t> accepted{0};
  std::atomic<bool> generator_done{false};
  auto phase_span = tracer.Open(std::string("phase.") + phase);

  std::thread drainer([&] {
    uint64_t received = 0;
    int idle_polls = 0;
    while (!(generator_done.load() && received >= accepted.load()) && idle_polls < 50) {
      const int64_t pop_start = NowNs();
      std::optional<SampleResponse> r = service.PopResponse(100'000);
      const int64_t pop_end = NowNs();
      if (!r) {
        idle_polls += generator_done.load() ? 1 : 0;
        continue;
      }
      idle_polls = 0;
      if (r->request_id < id_base || r->request_id - id_base >= count) {
        continue;  // an earlier phase's straggler; that phase counted it dropped
      }
      ++received;
      const uint32_t i = static_cast<uint32_t>(r->request_id - id_base);
      const uint32_t payload = i % payloads.size();
      const bool inference = payloads[payload].run_inference;
      const double latency_ms = static_cast<double>(pop_end - due_ns[i]) * 1e-6;
      if (!r->status.ok()) {
        ++(r->status.code() == StatusCode::kUnavailable ? res.unavailable : res.other);
        continue;
      }
      ++res.ok;
      res.hashes[payload] = ResponseHash(*r, inference);
      (inference ? res.infer_ms : res.sample_ms).push_back(latency_ms);
      res.queue_ms.push_back(r->queue_seconds * 1e3);
      res.work_ms.push_back((r->latency_seconds - r->queue_seconds) * 1e3);
      res.remote_rows += r->remote_rows;
      const bool traced = i % 2 == 1;
      if (!inference) {
        (traced ? res.traced_ms : res.untraced_ms).push_back(latency_ms);
      }
      if (traced) {
        tracer.Record("service.request", due_ns[i], pop_end, phase_span.id(), r->request_id,
                      request_span[i]);
        tracer.Record("service.PopResponse", pop_start, pop_end, request_span[i],
                      r->request_id);
      }
    }
  });

  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const int64_t start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start.time_since_epoch()).count();
  int64_t last_submit = start_ns;
  for (uint32_t i = 0; i < count; ++i) {
    const auto offset = std::chrono::duration<double>(i / rate);
    std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(offset));
    due_ns[i] = start_ns + static_cast<int64_t>(offset.count() * 1e9);
    SampleRequest request = payloads[i % payloads.size()];
    request.request_id = id_base + i;
    const bool traced = tracer.enabled() && i % 2 == 1;
    request_span[i] = traced ? tracer.NewId() : 0;
    const int64_t submit_start = NowNs();
    res.late_ms.push_back(static_cast<double>(submit_start - due_ns[i]) * 1e-6);
    const Status status = service.Submit(std::move(request));
    last_submit = NowNs();
    if (traced) {
      tracer.Record("service.Submit", submit_start, last_submit, request_span[i],
                    id_base + i);
    }
    ++res.sent;
    if (status.ok()) {
      accepted.fetch_add(1);
    } else if (status.code() == StatusCode::kResourceExhausted) {
      ++res.shed;
    } else {
      ++res.rejected;
    }
  }
  generator_done.store(true);
  drainer.join();
  const uint64_t answered = res.ok + res.unavailable + res.other;
  res.dropped = accepted.load() > answered ? accepted.load() - answered : 0;
  res.achieved_rps = static_cast<double>(res.sent) /
                     (static_cast<double>(last_submit - start_ns) * 1e-9);
  return res;
}

// A report line for a tail the percentile rule allows; "n/a" otherwise.
void ReportTail(const std::string& name, const std::vector<double>& samples, double p) {
  if (std::optional<double> tail = TailPercentile(samples, p)) {
    Report(name, *tail, "ms", samples.size());
  } else {
    std::printf("# %-40s = n/a (n=%zu)\n", name.c_str(), samples.size());
  }
}

void ReportPhase(const char* phase, const PhaseResult& p) {
  std::printf("# %s: sent %llu ok %llu shed %llu unavailable %llu dropped %llu other %llu, "
              "achieved %.1f req/s, generator late p50 %.3f ms max %.3f ms\n",
              phase, static_cast<unsigned long long>(p.sent),
              static_cast<unsigned long long>(p.ok), static_cast<unsigned long long>(p.shed),
              static_cast<unsigned long long>(p.unavailable),
              static_cast<unsigned long long>(p.dropped),
              static_cast<unsigned long long>(p.rejected + p.other),
              p.achieved_rps, Median(p.late_ms),
              *std::max_element(p.late_ms.begin(), p.late_ms.end()));
}

void AddPhaseMetrics(MetricSet& m, const char* phase, const PhaseResult& p) {
  const std::string prefix = std::string("service.") + phase + ".";
  m.Add(prefix + "sent", static_cast<double>(p.sent), "count");
  m.Add(prefix + "ok", static_cast<double>(p.ok), "count");
  m.Add(prefix + "shed", static_cast<double>(p.shed), "count");
  m.Add(prefix + "unavailable", static_cast<double>(p.unavailable), "count");
  m.Add(prefix + "dropped", static_cast<double>(p.dropped), "count");
  m.Add(prefix + "achieved_rps", p.achieved_rps, "1/s");
}

// Simulated allgather time of the P2P plan GraphService compiles over its
// relation (the plan its fetch connections come from).
double ServiceSimMs(const GraphService& service) {
  const Topology topology = BuildPaperTopology(kShards);
  const uint32_t dim = service.options().feature_dim;
  PlannerOptions p2p;
  p2p.strategy = "p2p";
  const CommClasses classes = BuildCommClasses(service.relation());
  auto plan = PlanWithStrategy(p2p, classes, topology, static_cast<double>(dim) * sizeof(float));
  if (!plan.ok()) {
    return 0.0;
  }
  return SimulatedAllgatherMs(CompilePlan(*plan, classes, topology), topology, dim);
}

}  // namespace

RunResult RunServeOpen(const RunArgs& args, Tracer& tracer) {
  RunResult result;
  const CsrGraph graph = MakeDataset(DatasetId::kComOrkut, kInverseScale, args.seed).graph;
  const ServiceOptions options = MakeOptions(args.seed);

  // The request schedule, made from the seed before any timer starts.
  const uint32_t steady_count = std::max(
      kMinSteadyRequests, static_cast<uint32_t>(kSteadyRps * kSteadyShare * args.seconds));
  const uint32_t overload_count =
      static_cast<uint32_t>(kOverloadRps * (1.0 - kSteadyShare) * args.seconds);
  std::vector<SampleRequest> payloads(steady_count);
  Rng rng(args.seed * 15485863 + 5);
  for (uint32_t i = 0; i < steady_count; ++i) {
    SampleRequest& r = payloads[i];
    r.shard = static_cast<uint32_t>(rng.UniformInt(kShards));
    r.num_seeds = kSeedsPerRequest;
    r.sample.seed = rng.Next();
    r.run_inference = i % kInferEvery == 0;
  }
  std::printf("# serve-open: %u vertices, %llu edges, %u shards; steady %u req at %.0f req/s, "
              "overload %u req at %.0f req/s\n",
              graph.num_vertices(), static_cast<unsigned long long>(graph.num_edges()), kShards,
              steady_count, kSteadyRps, overload_count, kOverloadRps);

  std::unique_ptr<GraphService> service;
  std::vector<double> setup_s;
  const int setups = args.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    service.reset();
    auto span = tracer.Open("setup");
    const auto start = Clock::now();
    {
      auto create_span = tracer.Open("service.GraphService::Create");
      auto created = GraphService::Create(graph, options);
      if (created.ok()) {
        service = std::move(created).value();
      }
    }
    if (service) {
      auto start_span = tracer.Open("service.Start");
      service->Start();
    }
    setup_s.push_back(MsSince(start) * 1e-3);
    result.Check(service != nullptr, "setup: GraphService::Create + Start");
    if (!service) {
      return result;
    }
  }

  const FeatureCache::Stats cache_before = service->cache().stats();
  const ServiceStats stats_before = service->stats();
  const PhaseResult steady =
      OfferLoad(*service, payloads, 0, steady_count, kSteadyRps, tracer, "steady");
  const FeatureCache::Stats cache_after = service->cache().stats();
  const ServiceStats stats_after = service->stats();
  const PhaseResult overload =
      OfferLoad(*service, payloads, steady_count, overload_count, kOverloadRps, tracer,
                "overload");
  ReportPhase("steady", steady);
  ReportPhase("overload", overload);
  result.attempted += steady.sent + overload.sent;
  // Shedding at the overload rate is the designed backpressure; anything
  // else that does not answer OK is a failed request.
  result.failed += steady.shed + steady.rejected + steady.unavailable + steady.other +
                   steady.dropped + overload.rejected + overload.unavailable + overload.other +
                   overload.dropped;
  result.correct = result.failed == 0;

  // Correctness gates, outside the timers.
  {
    auto gate = tracer.Open("gate");
    OrderFreeDigest steady_digest, overload_digest;
    for (const auto& [payload, hash] : overload.hashes) {
      auto it = steady.hashes.find(payload);
      if (it != steady.hashes.end()) {
        steady_digest.Add(payload, it->second);
        overload_digest.Add(payload, hash);
      }
    }
    std::printf("# response digest over %llu requests answered in both phases: %016llx\n",
                static_cast<unsigned long long>(steady_digest.count()),
                static_cast<unsigned long long>(steady_digest.value()));
    result.Check(steady_digest.count() > 0 && steady_digest.value() == overload_digest.value(),
                 "order-independent response digest identical across both phases");
    bool sync_ok = true;
    for (uint32_t k = 0; k < kSyncChecks; ++k) {
      const uint32_t payload = k * (steady_count / kSyncChecks);
      SampleRequest request = payloads[payload];
      request.request_id = payload;
      const SampleResponse r = service->Serve(request);
      auto it = steady.hashes.find(payload);
      sync_ok = sync_ok && r.status.ok() && it != steady.hashes.end() &&
                ResponseHash(r, request.run_inference) == it->second;
    }
    result.Check(sync_ok, "sampled requests match a re-run through the synchronous Serve");
  }
  if (!result.correct) {
    return result;  // the figures below assume every steady request was answered
  }

  MetricSet& m = result.metrics;
  if (!args.trace) {
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("peak_rss_mb", PeakRssMb(), "MB");
    m.Add("op_p50_ms", Median(steady.sample_ms), "ms");
    m.Add("op_tail_ms", Tail(steady.sample_ms, kSampleTailP), "ms");
    m.Add("infer_p50_ms", Median(steady.infer_ms), "ms");
    m.Add("infer_tail_ms", Tail(steady.infer_ms, kInferTailP), "ms");
    m.Add("goodput_per_s", static_cast<double>(overload.ok) / overload.window_s, "1/s");
    m.Add("sim_allgather_ms", ServiceSimMs(*service), "ms");
    Report("setup_s", m.Get("setup_s"), "s", setup_s.size());
    Report("peak_rss_mb", m.Get("peak_rss_mb"), "MB");
    Report("sample_p50_ms", m.Get("op_p50_ms"), "ms", steady.sample_ms.size());
    Report("sample_p75_ms", m.Get("op_tail_ms"), "ms", steady.sample_ms.size());
    ReportTail("sample_p99_ms", steady.sample_ms, kSampleReportP);
    Report("infer_p50_ms", m.Get("infer_p50_ms"), "ms", steady.infer_ms.size());
    Report("infer_p90_ms", m.Get("infer_tail_ms"), "ms", steady.infer_ms.size());
    ReportTail("infer_p95_ms", steady.infer_ms, kInferReportP);
    Report("goodput_rps", m.Get("goodput_per_s"), "1/s", overload.ok);
    Report("sim_allgather_ms", m.Get("sim_allgather_ms"), "ms");
    return result;
  }

  // Inference inside a served request, timed standalone: the same requests
  // through the synchronous Serve with and without inference.
  std::vector<double> with_ms, without_ms;
  for (uint32_t k = 0; k < kSyncChecks; ++k) {
    SampleRequest request = payloads[k * (steady_count / kSyncChecks)];
    for (bool inference : {false, true}) {
      request.run_inference = inference;
      auto span = tracer.Open(inference ? "service.Serve+infer" : "service.Serve");
      const auto start = Clock::now();
      (void)service->Serve(request);
      (inference ? with_ms : without_ms).push_back(MsSince(start));
    }
  }
  RunLayerPipeline({&graph, BuildPaperTopology(kShards), "p2p", options.feature_dim, 10,
                    args.seed},
                   tracer, result);
  AddUnusedGnnMetrics(m, /*keep_infer=*/true);
  m.Add("gnn.infer_ms", Median(with_ms) - Median(without_ms), "ms");

  const double ok = static_cast<double>(std::max<uint64_t>(steady.ok, 1));
  FeatureCache::Stats cache;
  cache.hits = cache_after.hits - cache_before.hits;
  cache.misses = cache_after.misses - cache_before.misses;
  cache.evictions = cache_after.evictions - cache_before.evictions;
  m.Add("service.create_ms", tracer.MedianMs("service.GraphService::Create"), "ms");
  m.Add("service.queue_p50_ms", Median(steady.queue_ms), "ms");
  m.Add("service.queue_p99_ms", Tail(steady.queue_ms, kSampleReportP), "ms");
  m.Add("service.work_p50_ms", Median(steady.work_ms), "ms");
  m.Add("service.serve_sync_ms", Median(without_ms), "ms");
  m.Add("service.generator_late_ms", Tail(steady.late_ms, kSampleReportP), "ms");
  m.Add("service.cache_hit_rate", cache.HitRate(), "ratio");
  m.Add("service.cache_hits", static_cast<double>(cache.hits), "count");
  m.Add("service.cache_misses", static_cast<double>(cache.misses), "count");
  m.Add("service.cache_evictions", static_cast<double>(cache.evictions), "count");
  m.Add("service.remote_rows_per_req", static_cast<double>(steady.remote_rows) / ok, "count");
  m.Add("service.fetch_messages_per_req",
        static_cast<double>(stats_after.fetch_messages - stats_before.fetch_messages) / ok,
        "count");
  m.Add("service.fetch_bytes_per_req",
        static_cast<double>(stats_after.fetch_bytes - stats_before.fetch_bytes) / ok, "B");
  m.Add("service.fetch_coalesced_per_req",
        static_cast<double>(stats_after.fetch_coalesced - stats_before.fetch_coalesced) / ok,
        "count");
  AddPhaseMetrics(m, "steady", steady);
  AddPhaseMetrics(m, "overload", overload);
  m.Add("telemetry.trace_overhead",
        Median(steady.traced_ms) / Median(steady.untraced_ms) - 1.0, "ratio");
  return result;
}

}  // namespace perfbench
