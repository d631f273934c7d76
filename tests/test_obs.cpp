// Observability substrate contracts (src/obs/ + the surfaces that feed it):
// (1) histogram accuracy — p50/p95/p99 within one bucket width of the exact
// nearest-rank order statistic on adversarial distributions, and bucket-wise
// merge associativity/commutativity; (2) the tracer is a bounded flight
// recorder (drop-oldest with counted drops, zero events when disabled);
// (3) trace_code_name stays exhaustive over the DES TraceCode space and DES
// trace records round-trip into valid Chrome trace events, with failover
// rendering as span migration between backend tracks; (4) StatsCollector
// memory stays flat across 100k finishes while small runs keep exact
// percentiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster_service.hpp"
#include "cluster/event_loop.hpp"
#include "cluster/faults.hpp"
#include "cluster/trace_export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "runtime/workloads.hpp"
#include "service/service_stats.hpp"
#include "test_helpers.hpp"

namespace graphm {
namespace {

// ---------------------------------------------------------------------------
// Histogram: bucket layout
// ---------------------------------------------------------------------------

TEST(Histogram, BucketLayoutRoundTrips) {
  using obs::Histogram;
  const std::uint64_t probes[] = {0,   1,    31,   32,    33,    100,  1023, 1024,
                                  4097, 1u << 20, (1ull << 40) + 12345, ~0ull};
  for (const std::uint64_t v : probes) {
    const std::size_t index = Histogram::bucket_index(v);
    ASSERT_LT(index, Histogram::kNumBuckets) << v;
    const std::uint64_t lower = Histogram::bucket_lower(index);
    const std::uint64_t width = Histogram::bucket_width(index);
    EXPECT_LE(lower, v) << v;
    // Upper bound is lower + width (exclusive); guard overflow at the top.
    if (lower + width > lower) EXPECT_LT(v, lower + width) << v;
    EXPECT_EQ(Histogram::bucket_index(lower), index) << v;
  }
  // Small values are exact buckets.
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), v);
    EXPECT_EQ(Histogram::bucket_lower(v), v);
    EXPECT_EQ(Histogram::bucket_width(v), 1u);
  }
}

// ---------------------------------------------------------------------------
// Histogram: quantile accuracy on adversarial distributions
// ---------------------------------------------------------------------------

// Same nearest-rank convention as service::summarize_latency.
std::uint64_t exact_nearest_rank(std::vector<std::uint64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const auto rank =
      static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

// The accuracy contract: the estimate lands inside (or within one width of)
// the bucket holding the exact order statistic.
void expect_quantiles_within_one_bucket(const std::vector<std::uint64_t>& samples) {
  obs::Histogram hist;
  for (const std::uint64_t s : samples) hist.record(s);
  ASSERT_EQ(hist.count(), samples.size());
  for (const double q : {0.50, 0.95, 0.99}) {
    const std::uint64_t exact = exact_nearest_rank(samples, q);
    const double estimate = hist.quantile(q);
    const double width = static_cast<double>(
        obs::Histogram::bucket_width(obs::Histogram::bucket_index(exact)));
    EXPECT_NEAR(estimate, static_cast<double>(exact), width)
        << "q=" << q << " exact=" << exact;
  }
}

TEST(Histogram, ConstantDistributionQuantiles) {
  expect_quantiles_within_one_bucket(std::vector<std::uint64_t>(1000, 777));
}

TEST(Histogram, BimodalDistributionQuantiles) {
  // Two far-apart modes: 90% fast at ~1us, 10% slow at ~1s. The p95/p99
  // straddle the gap — the case where a linear-bucket histogram collapses.
  std::vector<std::uint64_t> samples;
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t jitter = state >> 52;  // [0, 4096)
    samples.push_back(i % 10 == 0 ? 1'000'000'000ull + jitter * 1000 : 1000 + jitter);
  }
  expect_quantiles_within_one_bucket(samples);
}

TEST(Histogram, HeavyTailDistributionQuantiles) {
  // Power-law-ish tail spanning six orders of magnitude.
  std::vector<std::uint64_t> samples;
  std::uint64_t state = 42;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const int octave = static_cast<int>((state >> 60) & 15);  // 0..15
    const std::uint64_t base = 1ull << (10 + octave);
    samples.push_back(base + (state >> 40) % base);
  }
  expect_quantiles_within_one_bucket(samples);
}

TEST(Histogram, MinMaxMeanSumAreExact) {
  obs::Histogram hist;
  hist.record(5);
  hist.record(1000);
  hist.record(3);
  EXPECT_EQ(hist.min(), 3u);
  EXPECT_EQ(hist.max(), 1000u);
  EXPECT_EQ(hist.sum(), 1008u);
  EXPECT_DOUBLE_EQ(hist.mean(), 1008.0 / 3.0);
  const obs::Histogram empty;
  EXPECT_EQ(empty.min(), 0u);
  EXPECT_EQ(empty.max(), 0u);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(Histogram, MergeIsAssociativeAndCommutative) {
  const auto fill = [](obs::Histogram& h, std::uint64_t seed, int n) {
    std::uint64_t state = seed;
    for (int i = 0; i < n; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      h.record(state >> 30);
    }
  };
  obs::Histogram a, b, c;
  fill(a, 1, 400);
  fill(b, 2, 300);
  fill(c, 3, 200);

  obs::Histogram left;   // (a + b) + c
  left.merge(a);
  left.merge(b);
  left.merge(c);
  obs::Histogram right;  // c + (b + a)
  obs::Histogram inner;
  inner.merge(b);
  inner.merge(a);
  right.merge(c);
  right.merge(inner);

  EXPECT_EQ(left.count(), right.count());
  EXPECT_EQ(left.sum(), right.sum());
  EXPECT_EQ(left.min(), right.min());
  EXPECT_EQ(left.max(), right.max());
  for (std::size_t i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    ASSERT_EQ(left.bucket_count(i), right.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(left.count(), 900u);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, InstrumentsAreCreatedOnceAndStable) {
  obs::Registry registry;
  obs::Counter& counter = registry.counter("graphm.test.counter");
  counter.add(41);
  registry.counter("graphm.test.counter").increment();
  EXPECT_EQ(counter.value(), 42u);
  registry.gauge("graphm.test.gauge").set(-7);
  EXPECT_EQ(registry.gauge("graphm.test.gauge").value(), -7);
  registry.histogram("graphm.test.hist").record(100);
  EXPECT_EQ(registry.histogram("graphm.test.hist").count(), 1u);
}

TEST(Registry, JsonSnapshotCarriesEveryInstrument) {
  obs::Registry registry;
  registry.counter("graphm.a.events").add(3);
  registry.set_gauge("graphm.b.depth", 9);
  obs::Histogram& hist = registry.histogram("graphm.c.latency_ns");
  for (int i = 1; i <= 100; ++i) hist.record(static_cast<std::uint64_t>(i) * 1000);
  const std::string json = registry.json();
  EXPECT_NE(json.find("\"graphm.a.events\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"graphm.b.depth\": 9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"graphm.c.latency_ns\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer: bounded flight recorder
// ---------------------------------------------------------------------------

TEST(Tracer, DisabledTracerRecordsNothing) {
  obs::Tracer tracer(64);
  const std::uint32_t track = tracer.track("t");
  tracer.complete(track, "never", 0, 10);
  tracer.instant(track, "never", 5);
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, RingIsBoundedAndCountsDrops) {
  obs::Tracer tracer(/*ring_capacity=*/16);
  tracer.set_enabled(true);
  const std::uint32_t track = tracer.track("t");
  for (std::uint64_t i = 0; i < 100; ++i) {
    tracer.complete(track, "e", i, 1, static_cast<std::uint32_t>(i));
  }
  const auto events = tracer.snapshot();
  EXPECT_EQ(events.size(), 16u);
  EXPECT_EQ(tracer.dropped(), 84u);
  // Drop-oldest: the survivors are the newest 16, in timestamp order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_ns, 84 + i);
  }
  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, SpanRecordsOnDestructionAndNamesTruncate) {
  obs::Tracer tracer(64);
  tracer.set_enabled(true);
  const std::uint32_t track = tracer.track("worker");
  {
    obs::Span span(tracer, track, "a-very-long-span-name-that-exceeds-the-inline-capacity",
                   /*job=*/7);
  }
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_EQ(events[0].job, 7u);
  EXPECT_EQ(std::string(events[0].name).size(), obs::TraceEvent::kNameCapacity);
}

TEST(Tracer, ThreadTrackIsStableAndRenamable) {
  obs::Tracer tracer(64);
  tracer.set_enabled(true);
  const std::uint32_t track = tracer.thread_track();
  EXPECT_EQ(tracer.thread_track(), track);
  tracer.name_thread_track("svc-worker 3");
  const auto names = tracer.track_names();
  ASSERT_LT(track, names.size());
  EXPECT_EQ(names[track], "svc-worker 3");
}

TEST(Tracer, TrackInterningDeduplicates) {
  obs::Tracer tracer(64);
  EXPECT_EQ(tracer.track("sharing #0"), tracer.track("sharing #0"));
  EXPECT_NE(tracer.track("sharing #0"), tracer.track("sharing #1"));
}

// ---------------------------------------------------------------------------
// Chrome exporter
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(TraceExport, WritesWellFormedChromeJson) {
  obs::TraceProcess process;
  process.pid = 1;
  process.name = "test \"proc\"";
  process.tracks = {"track zero"};
  obs::TraceEvent complete;
  complete.ts_ns = 1500;
  complete.dur_ns = 2500;
  complete.phase = 'X';
  std::snprintf(complete.name, sizeof(complete.name), "span \"q\"");
  obs::TraceEvent instant;
  instant.ts_ns = 2000;
  instant.phase = 'i';
  std::snprintf(instant.name, sizeof(instant.name), "mark");
  process.events = {instant, complete};  // exporter must sort by ts

  const std::string path = testing::TempDir() + "obs_export_test.json";
  ASSERT_TRUE(obs::write_chrome_trace(path, {process}));
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("span \\\"q\\\""), std::string::npos);  // escaped quote
  EXPECT_NE(json.find("\"ts\": 1.500"), std::string::npos);   // ns -> fractional us
  EXPECT_NE(json.find("\"dur\": 2.500"), std::string::npos);
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);    // instant scope
  // The complete span (ts 1.5us) must be written before the instant (2us).
  EXPECT_LT(json.find("span \\\"q\\\""), json.find("\"mark\""));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// DES trace codes + round-trip into exporter events
// ---------------------------------------------------------------------------

TEST(DesTrace, TraceCodeNamesAreExhaustive) {
  for (int code = 1; code <= 16; ++code) {
    EXPECT_STRNE(cluster::trace_code_name(static_cast<cluster::TraceCode>(code)), "?")
        << "TraceCode " << code << " has no name — update trace_code_name and the "
        << "cluster/trace_export.cpp converter together";
  }
}

TEST(DesTrace, RecordsRoundTripIntoBackendTrackEvents) {
  using cluster::TraceCode;
  using cluster::TraceRecord;
  // Hand-built episode: job 5 dispatched on backend 0, backend 0 crashes,
  // job is redispatched on backend 1 and completes there.
  std::vector<TraceRecord> records = {
      {1000, TraceCode::kJobDispatched, 0, 5, 0},
      {1500, TraceCode::kSuperstep, 0, 5, 1},
      {2000, TraceCode::kFaultInjected, 0, 0,
       static_cast<std::uint64_t>(cluster::FaultKind::kCrash)},
      {2100, TraceCode::kJobFailed, 0, 5, 0},
      {2200, TraceCode::kBackendDead, 0, 0, 0},
      {3000, TraceCode::kJobRedispatched, 1, 5, 0},
      {4500, TraceCode::kJobComplete, 1, 5, 0},
  };
  const obs::TraceProcess process = cluster::des_trace_process(records);
  ASSERT_EQ(process.tracks.size(), 2u);
  EXPECT_EQ(process.tracks[0], "backend 0");
  EXPECT_EQ(process.tracks[1], "backend 1");

  // Exactly two job spans, one per backend track — the crash -> redispatch
  // migration the Perfetto view renders as the span hopping tracks.
  std::vector<const obs::TraceEvent*> spans;
  for (const obs::TraceEvent& e : process.events) {
    if (e.phase == 'X') spans.push_back(&e);
  }
  ASSERT_EQ(spans.size(), 2u);
  std::sort(spans.begin(), spans.end(),
            [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
              return a->ts_ns < b->ts_ns;
            });
  EXPECT_EQ(spans[0]->track, 0u);
  EXPECT_EQ(spans[0]->ts_ns, 1000u);
  EXPECT_EQ(spans[0]->dur_ns, 1100u);  // dispatched 1000 -> failed 2100
  EXPECT_NE(std::string(spans[0]->name).find("(failed)"), std::string::npos);
  EXPECT_EQ(spans[1]->track, 1u);
  EXPECT_EQ(spans[1]->ts_ns, 3000u);
  EXPECT_EQ(spans[1]->dur_ns, 1500u);  // redispatched 3000 -> complete 4500
  EXPECT_EQ(std::string(spans[1]->name), "job 5");

  // The crash is an instant naming its fault kind on the crashed track.
  bool saw_crash = false;
  for (const obs::TraceEvent& e : process.events) {
    if (e.phase == 'i' && std::string(e.name) == "fault crash") {
      EXPECT_EQ(e.track, 0u);
      saw_crash = true;
    }
  }
  EXPECT_TRUE(saw_crash);
}

TEST(DesTrace, OpenJobsAreClosedAtHorizonNotDropped) {
  using cluster::TraceCode;
  std::vector<cluster::TraceRecord> records = {
      {100, TraceCode::kJobDispatched, 0, 1, 0},
      {900, TraceCode::kSuperstep, 0, 1, 0},
  };
  const obs::TraceProcess process = cluster::des_trace_process(records);
  bool saw_open = false;
  for (const obs::TraceEvent& e : process.events) {
    if (e.phase == 'X') {
      EXPECT_NE(std::string(e.name).find("(open)"), std::string::npos);
      EXPECT_EQ(e.ts_ns, 100u);
      EXPECT_EQ(e.dur_ns, 800u);  // closed at the last record's timestamp
      saw_open = true;
    }
  }
  EXPECT_TRUE(saw_open);
}

TEST(DesTrace, ClusterCrashRunExportsJobSpansOnBothReplicaTracks) {
  const auto g = test::small_rmat(1024, 20000, 31);
  std::vector<cluster::BackendConfig> backends(2);
  backends[0].dataset = "d";
  backends[0].num_nodes = 4;
  backends[1].dataset = "d";
  backends[1].num_nodes = 4;
  backends[1].replica_id = 1;
  cluster::ClusterServiceConfig config;
  config.des.seed = 0xFA11;
  config.des.record_trace = true;
  cluster::ClusterService service(g, backends, config);

  const auto specs = runtime::paper_mix(8, g.num_vertices(), 9);
  std::vector<cluster::Submission> submissions(8);
  for (std::size_t j = 0; j < 8; ++j) {
    submissions[j].spec = specs[j];
    submissions[j].arrival_ns = j * 300'000;
    submissions[j].dataset = "d";
  }
  cluster::FaultPlan plan;
  plan.events.push_back({cluster::FaultKind::kCrash, /*backend=*/0,
                         /*at_ns=*/400'000, /*duration_ns=*/0});
  service.run(submissions, plan);
  const auto& records = service.last_trace();
  ASSERT_FALSE(records.empty());

  const obs::TraceProcess process = cluster::des_trace_process(records);
  bool track0_span = false, track1_span = false;
  for (const obs::TraceEvent& e : process.events) {
    if (e.phase != 'X') continue;
    if (e.track == 0) track0_span = true;
    if (e.track == 1) track1_span = true;
  }
  EXPECT_TRUE(track0_span) << "no job span on the crashed backend's track";
  EXPECT_TRUE(track1_span) << "no job span on the surviving replica's track";

  const std::string path = testing::TempDir() + "obs_des_trace_test.json";
  ASSERT_TRUE(cluster::export_des_trace(path, records));
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("backend 1"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// StatsCollector: bounded memory, exact when small
// ---------------------------------------------------------------------------

runtime::JobOutcome synthetic_outcome(std::uint64_t i, std::uint64_t latency_ns) {
  runtime::JobOutcome outcome;
  outcome.arrival_ns = i * 10'000;
  outcome.start_ns = outcome.arrival_ns + 100;
  outcome.completion_ns = outcome.start_ns + latency_ns;
  return outcome;
}

TEST(StatsCollector, ExactPercentilesBelowTheSampleCap) {
  service::StatsCollector collector;
  std::vector<std::uint64_t> latencies;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const std::uint64_t latency = (i * 7919) % 100'000 + 1000;
    latencies.push_back(latency + 100);  // e2e includes the 100ns queue wait
    collector.on_submit();
    collector.on_start(i * 10'000, 1);
    collector.on_finish(synthetic_outcome(i, latency), latency, false, false,
                        i * 10'000 + latency, 0);
  }
  const service::ServiceStats stats = collector.snapshot({}, 4);
  const service::LatencySummary exact = service::summarize_latency(latencies);
  EXPECT_EQ(stats.e2e.count, 100u);
  EXPECT_DOUBLE_EQ(stats.e2e.p50_ns, exact.p50_ns);
  EXPECT_DOUBLE_EQ(stats.e2e.p95_ns, exact.p95_ns);
  EXPECT_DOUBLE_EQ(stats.e2e.p99_ns, exact.p99_ns);
  EXPECT_DOUBLE_EQ(stats.e2e.max_ns, exact.max_ns);
}

TEST(StatsCollector, MemoryStaysFlatAcross100kFinishes) {
  service::StatsCollector collector;
  const auto feed = [&collector](std::uint64_t from, std::uint64_t to) {
    for (std::uint64_t i = from; i < to; ++i) {
      collector.on_submit();
      collector.on_start(i * 1000, static_cast<std::uint32_t>(i % 8));
      collector.on_finish(synthetic_outcome(i, (i * 7919) % 1'000'000),
                          (i * 7919) % 1'000'000, false, false, i * 1000 + 500,
                          static_cast<std::uint32_t>(i % 8));
    }
  };
  feed(0, 10'000);
  const std::size_t bytes_at_10k = collector.approx_memory_bytes();
  feed(10'000, 100'000);
  const std::size_t bytes_at_100k = collector.approx_memory_bytes();
  EXPECT_EQ(bytes_at_10k, bytes_at_100k)
      << "StatsCollector retained memory grew with the job count";

  const service::ServiceStats stats = collector.snapshot({}, 8);
  EXPECT_EQ(stats.completed, 100'000u);
  EXPECT_LE(stats.timeline.size(), service::StatsCollector::kTimelineCap);
  EXPECT_FALSE(stats.timeline.empty());
  // Timeline decimation keeps span coverage: first point at stride origin,
  // last point within a stride of the final event.
  EXPECT_EQ(stats.timeline.front().t_ns, 0u);
  EXPECT_GT(stats.timeline.back().t_ns, 190'000'000u / 2);
  // Histogram-backed percentiles stay within a bucket of the exact ones.
  std::vector<std::uint64_t> latencies;
  latencies.reserve(100'000);
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    latencies.push_back((i * 7919) % 1'000'000 + 100);
  }
  const std::uint64_t exact_p99 = exact_nearest_rank(latencies, 0.99);
  const double width = static_cast<double>(
      obs::Histogram::bucket_width(obs::Histogram::bucket_index(exact_p99)));
  EXPECT_NEAR(stats.e2e.p99_ns, static_cast<double>(exact_p99), width);
}

TEST(StatsCollector, SamplesKeepNoResultCapacity) {
  // The reservoir holds outcomes without their result vectors: a job's
  // values (one double per vertex) stay with its record, not the collector.
  service::StatsCollector bare;
  service::StatsCollector with_results;
  for (std::uint64_t i = 0; i < 16; ++i) {
    runtime::JobOutcome outcome = synthetic_outcome(i, 1000);
    bare.on_finish(outcome, 1000, false, false, i, 0);
    outcome.result.assign(1 << 16, 1.0);
    with_results.on_finish(outcome, 1000, false, false, i, 0);
  }
  EXPECT_EQ(with_results.approx_memory_bytes(), bare.approx_memory_bytes());
}

TEST(StatsCollector, PublishMetricsRehomesCountersAndHistograms) {
  service::StatsCollector collector;
  for (std::uint64_t i = 0; i < 10; ++i) {
    collector.on_submit();
    collector.on_start(i, 1);
    collector.on_finish(synthetic_outcome(i, 1000), 1000, /*cancelled=*/i == 9,
                        /*missed_deadline=*/i == 9, i, 0);
  }
  collector.on_reject();
  obs::Registry registry;
  collector.publish_metrics(registry);
  EXPECT_EQ(registry.counter("graphm.service.submitted").value(), 10u);
  EXPECT_EQ(registry.counter("graphm.service.rejected").value(), 1u);
  EXPECT_EQ(registry.counter("graphm.service.completed").value(), 9u);
  EXPECT_EQ(registry.counter("graphm.service.cancelled").value(), 1u);
  EXPECT_EQ(registry.counter("graphm.service.deadline_misses").value(), 1u);
  EXPECT_EQ(registry.histogram("graphm.service.e2e_ns").count(), 9u);
}

}  // namespace
}  // namespace graphm
