// Tests for the regression plane: Hash128 / RunDigest semantics (order
// sensitivity, sub-digest localization, checkpoint compaction, journal
// windows), the baseline store round trip, and the end-to-end guarantees the
// gate rests on — byte-identical digests for repeated runs of one scenario,
// and a localized divergence report when a run is perturbed.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/options.hpp"
#include "regress/baseline.hpp"
#include "regress/digest.hpp"
#include "regress/divergence.hpp"
#include "regress/matrix.hpp"
#include "sweep/scenario_run.hpp"

using namespace pmsb;
using namespace pmsb::regress;
using pmsb::experiments::Options;

// ---------------------------------------------------------------------------
// Hash128

TEST(Hash128, EmptyHashIsTheFnvOffsetBasis) {
  Hash128 h;
  EXPECT_EQ(h.hex(), "6c62272e07bb014262b821756295c58d");
  EXPECT_EQ(h.hi(), 0x6c62272e07bb0142ull);
  EXPECT_EQ(h.lo(), 0x62b821756295c58dull);
}

TEST(Hash128, SameInputSameHashDifferentInputDifferentHash) {
  Hash128 a, b, c;
  a.update_string("pmsb");
  b.update_string("pmsb");
  c.update_string("pmsc");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_EQ(a.hex().size(), 32u);
}

TEST(Hash128, IsOrderSensitive) {
  Hash128 ab, ba;
  ab.update_u64(1);
  ab.update_u64(2);
  ba.update_u64(2);
  ba.update_u64(1);
  EXPECT_NE(ab, ba);
}

TEST(Fnv1a64, MatchesKnownVectors) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

// ---------------------------------------------------------------------------
// RunDigest

namespace {

/// Feeds `n` deterministic events across `entities` ids.
void feed(RunDigest& d, std::uint64_t n, std::uint32_t entities) {
  for (std::uint64_t i = 0; i < n; ++i) {
    d.event(static_cast<EntityId>(i % entities),
            static_cast<EventKind>(i % 6), static_cast<std::int64_t>(i * 10),
            i, i * 3);
  }
}

}  // namespace

TEST(RunDigest, IdenticalStreamsProduceIdenticalTotals) {
  RunDigest a, b;
  const auto ea = a.register_entity("port/x");
  const auto eb = b.register_entity("port/x");
  ASSERT_EQ(ea, eb);
  feed(a, 500, 1);
  feed(b, 500, 1);
  EXPECT_EQ(a.total().hex(), b.total().hex());
  EXPECT_EQ(a.count(), 500u);
}

TEST(RunDigest, TotalIsOrderSensitive) {
  RunDigest a, b;
  a.register_entity("e");
  b.register_entity("e");
  a.event(0, EventKind::kEnqueue, 1, 7, 8);
  a.event(0, EventKind::kDequeue, 2, 7, 8);
  b.event(0, EventKind::kDequeue, 2, 7, 8);
  b.event(0, EventKind::kEnqueue, 1, 7, 8);
  EXPECT_NE(a.total().hex(), b.total().hex());
}

TEST(RunDigest, SubDigestsLocalizeThePerturbedEntity) {
  RunDigest a, b;
  for (const char* name : {"port/p", "flow/0", "flow/1"}) {
    a.register_entity(name);
    b.register_entity(name);
  }
  feed(a, 300, 3);
  feed(b, 300, 3);
  // Perturb one extra event on flow/1 only.
  b.event(2, EventKind::kMark, 999, 1, 2);
  EXPECT_NE(a.total().hex(), b.total().hex());
  const auto sa = a.sub_digest_hex();
  const auto sb = b.sub_digest_hex();
  EXPECT_EQ(sa.at("port/p"), sb.at("port/p"));
  EXPECT_EQ(sa.at("flow/0"), sb.at("flow/0"));
  EXPECT_NE(sa.at("flow/1"), sb.at("flow/1"));
}

TEST(RunDigest, DuplicateEntityRegistrationThrows) {
  RunDigest d;
  d.register_entity("port/x");
  EXPECT_THROW(d.register_entity("port/x"), std::invalid_argument);
}

TEST(RunDigest, CheckpointCompactionIsBoundedAndDeterministic) {
  RunDigest a(1), b(1);  // checkpoint every event: forces compaction
  a.register_entity("e");
  b.register_entity("e");
  feed(a, 20000, 1);
  feed(b, 20000, 1);
  EXPECT_LE(a.checkpoints().size(), 4096u);
  EXPECT_GT(a.checkpoint_interval(), 1u);  // interval doubled at least once
  ASSERT_EQ(a.checkpoints().size(), b.checkpoints().size());
  for (std::size_t i = 0; i < a.checkpoints().size(); ++i) {
    EXPECT_EQ(a.checkpoints()[i].index, b.checkpoints()[i].index);
    EXPECT_EQ(a.checkpoints()[i].hash.hex(), b.checkpoints()[i].hash.hex());
    // Surviving indices are multiples of the (doubled) interval.
    EXPECT_EQ(a.checkpoints()[i].index % a.checkpoint_interval(), 0u);
  }
}

TEST(RunDigest, JournalCapturesExactlyTheArmedWindow) {
  RunDigest d;
  d.register_entity("e");
  d.arm_journal(5, 8);
  feed(d, 20, 1);
  ASSERT_EQ(d.journal().size(), 3u);
  EXPECT_EQ(d.journal()[0].index, 5u);
  EXPECT_EQ(d.journal()[2].index, 7u);
  EXPECT_EQ(d.journal()[1].time, 60);  // feed(): time = i * 10
}

TEST(RunDigest, StatKeysAreDistinguished) {
  RunDigest a, b;
  a.register_entity("e");
  b.register_entity("e");
  a.stat(0, "drops", 1);
  b.stat(0, "marks", 1);
  EXPECT_NE(a.total().hex(), b.total().hex());
}

// ---------------------------------------------------------------------------
// Baseline store

TEST(Baseline, JsonRoundTripPreservesEveryField) {
  Baseline base;
  base.git = "abc123-dirty";
  CellBaseline cell;
  cell.name = "cell-a";
  cell.config = {{"topology", "dumbbell"}, {"seed", "1"}};
  cell.digest = "0123456789abcdef0123456789abcdef";
  cell.event_count = 9223372036854775809ull;  // > 2^53: exercises raw_number
  cell.sub_digests = {{"flow/0", std::string(32, 'a')},
                      {"port/p", std::string(32, 'b')}};
  cell.checkpoint_interval = 2048;
  cell.checkpoints = {{2048, std::string(32, 'c')}, {4096, std::string(32, 'd')}};
  base.cells.push_back(cell);

  const std::string current = baseline_json(base);
  EXPECT_EQ(current.find("\"perf\""), std::string::npos);
  // Baselines written before the gate went digest-only also carry a
  // top-level warmup/reps and a per-cell perf block; they parse to the same
  // cells.
  std::string legacy = current;
  const std::string cells_key = "\"cells\":[{";
  legacy.replace(legacy.find(cells_key), cells_key.size(),
                 "\"warmup\":1,\"reps\":3,\"cells\":[{\"perf\":{\"wall_s_median\":0.25,"
                 "\"wall_s_mad\":0.01,\"events_per_s_median\":4.5e6,"
                 "\"events_per_s_mad\":1e4,\"peak_rss_bytes\":123456789,"
                 "\"events\":1234567,\"reps\":3},");
  for (const std::string& text : {current, legacy}) {
    const auto parsed = parse_baseline(text, "<test>");
    EXPECT_EQ(parsed.git, "abc123-dirty");
    ASSERT_EQ(parsed.cells.size(), 1u);
    const auto& c = parsed.cells[0];
    EXPECT_EQ(c.name, "cell-a");
    EXPECT_EQ(c.config, cell.config);
    EXPECT_EQ(c.digest, cell.digest);
    EXPECT_EQ(c.event_count, cell.event_count);
    EXPECT_EQ(c.sub_digests, cell.sub_digests);
    EXPECT_EQ(c.checkpoint_interval, 2048u);
    EXPECT_EQ(c.checkpoints, cell.checkpoints);
    EXPECT_NE(parsed.find("cell-a"), nullptr);
    EXPECT_EQ(parsed.find("missing"), nullptr);
  }
}

TEST(Baseline, ParserRejectsWrongSchemaAndGarbage) {
  EXPECT_THROW(parse_baseline("not json", "<t>"), std::runtime_error);
  EXPECT_THROW(parse_baseline("{\"schema\":\"pmsb.run_manifest/1\"}", "<t>"),
               std::runtime_error);
  EXPECT_THROW(read_baseline("/nonexistent/baseline.json"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Matrix

TEST(Matrix, DefaultMatrixHasUniqueNamesAndSelectWorks) {
  const auto all = default_matrix();
  ASSERT_GE(all.size(), 4u);
  std::set<std::string> names;
  for (const auto& cell : all) names.insert(cell.name);
  EXPECT_EQ(names.size(), all.size());

  const auto picked = select_cells(all[0].name + "," + all[1].name);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0].name, all[0].name);
  EXPECT_EQ(select_cells("").size(), all.size());
  EXPECT_THROW(select_cells("no-such-cell"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end: scenario runs feeding the digest

namespace {

Options small_dumbbell() {
  Options opts;
  opts.set("topology", "dumbbell");
  opts.set("scheme", "pmsb");
  opts.set("scheduler", "dwrr");
  opts.set("queues", "2");
  opts.set("flows_per_queue", "1,2");
  opts.set("duration_ms", "5");
  opts.set("seed", "7");
  return opts;
}

}  // namespace

TEST(RegressEndToEnd, BackToBackRunsProduceByteIdenticalDigests) {
  sweep::SweepPoint point;
  point.opts = small_dumbbell();
  RunDigest first, second;
  const auto r1 = sweep::run_scenario(point, true, &first);
  const auto r2 = sweep::run_scenario(point, true, &second);
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_GT(first.count(), 0u);
  EXPECT_EQ(first.count(), second.count());
  EXPECT_EQ(first.total().hex(), second.total().hex());
  EXPECT_EQ(first.sub_digest_hex(), second.sub_digest_hex());
  // The record reports the digest too.
  EXPECT_EQ(r1.info.at("digest"), first.total().hex());
  EXPECT_EQ(r1.results.at("digest.events"),
            static_cast<double>(first.count()));
}

TEST(RegressEndToEnd, QueueBackendsProduceIdenticalDigests) {
  // The tentpole guarantee at scenario scale: `sched_queue=` is a pure
  // performance knob. A full dumbbell run — packet events, timer churn,
  // cancellations, tombstone compactions — must digest identically whether
  // the kernel orders events with the heap or the calendar backend.
  sweep::SweepPoint point;
  point.opts = small_dumbbell();
  RunDigest heap, calendar;
  point.opts.set("sched_queue", "heap");
  const auto r1 = sweep::run_scenario(point, true, &heap);
  point.opts.set("sched_queue", "calendar");
  const auto r2 = sweep::run_scenario(point, true, &calendar);
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_GT(heap.count(), 0u);
  EXPECT_EQ(heap.count(), calendar.count());
  EXPECT_EQ(heap.total().hex(), calendar.total().hex());
  EXPECT_EQ(heap.sub_digest_hex(), calendar.sub_digest_hex());
}

TEST(RegressEndToEnd, DigestIsOffByDefault) {
  sweep::SweepPoint point;
  point.opts = small_dumbbell();
  const auto rec = sweep::run_scenario(point, true);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.info.count("digest"), 0u);

  // digest=1 computes one internally and reports it.
  point.opts.set("digest", "1");
  const auto with = sweep::run_scenario(point, true);
  ASSERT_TRUE(with.ok) << with.error;
  EXPECT_EQ(with.info.count("digest"), 1u);
  EXPECT_EQ(with.info.at("digest").size(), 32u);
}

TEST(RegressEndToEnd, LeafspineDigestIsDeterministicToo) {
  Options opts;
  opts.set("topology", "leafspine");
  opts.set("scheme", "pmsb");
  opts.set("flows", "40");
  opts.set("load", "0.3");
  opts.set("seed", "5");
  sweep::SweepPoint point;
  point.opts = opts;
  RunDigest first, second;
  const auto r1 = sweep::run_scenario(point, true, &first);
  const auto r2 = sweep::run_scenario(point, true, &second);
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(first.total().hex(), second.total().hex());
  EXPECT_GT(first.num_entities(), 2u);
}

TEST(RegressEndToEnd, StaticBufferPolicyIsDigestIdenticalAcrossTheMatrix) {
  // The buffer-policy refactor's compatibility guarantee: routing admission
  // through BufferPolicy with the explicit `buffer_policy=static` key is
  // bit-identical to the pre-refactor inline drop-tail (the default path)
  // on EVERY cell of the regression matrix — schemes, schedulers, mark
  // points, bleach faults, and both topologies.
  for (const auto& cell : default_matrix()) {
    sweep::SweepPoint base;
    base.opts = cell.opts;
    RunDigest before;
    const auto r1 = sweep::run_scenario(base, true, &before);
    ASSERT_TRUE(r1.ok) << cell.name << ": " << r1.error;

    sweep::SweepPoint pinned;
    pinned.opts = cell.opts;
    pinned.opts.set("buffer_policy", "static");
    RunDigest after;
    const auto r2 = sweep::run_scenario(pinned, true, &after);
    ASSERT_TRUE(r2.ok) << cell.name << ": " << r2.error;

    EXPECT_GT(before.count(), 0u) << cell.name;
    EXPECT_EQ(before.count(), after.count()) << cell.name;
    EXPECT_EQ(before.total().hex(), after.total().hex()) << cell.name;
    EXPECT_EQ(before.sub_digest_hex(), after.sub_digest_hex()) << cell.name;
  }
}

TEST(RegressEndToEnd, PooledPoliciesChangeBehaviorOnlyUnderPressure) {
  // equal / dt with a generous pool admit everything the static path admits
  // in a short run, but a tiny shared pool must actually bite: the digest
  // diverges and the policy-specific drop reasons show up in the record.
  sweep::SweepPoint roomy;
  roomy.opts = small_dumbbell();
  roomy.opts.set("buffer_policy", "dt");
  roomy.opts.set("dt_alpha", "1");
  RunDigest roomy_digest;
  const auto r1 = sweep::run_scenario(roomy, true, &roomy_digest);
  ASSERT_TRUE(r1.ok) << r1.error;
  EXPECT_EQ(r1.results.at("drops.dynamic_threshold"), 0.0);

  sweep::SweepPoint tiny = roomy;
  tiny.opts.set("buffer_bytes", std::to_string(16 * 1500));  // shared pool
  RunDigest tiny_digest;
  const auto r2 = sweep::run_scenario(tiny, true, &tiny_digest);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_GT(r2.results.at("drops.dynamic_threshold"), 0.0);
  EXPECT_NE(roomy_digest.total().hex(), tiny_digest.total().hex());
  EXPECT_EQ(r2.info.at("buffer_policy"), "dt");
}

TEST(RegressEndToEnd, PerturbationIsDetectedAndLocalized) {
  // Record the clean run as a baseline cell.
  sweep::SweepPoint clean;
  clean.opts = small_dumbbell();
  RunDigest recorded;
  ASSERT_TRUE(sweep::run_scenario(clean, true, &recorded).ok);

  CellBaseline base;
  base.name = "perturb-test";
  base.digest = recorded.total().hex();
  base.event_count = recorded.count();
  base.sub_digests = recorded.sub_digest_hex();
  base.checkpoint_interval = recorded.checkpoint_interval();
  for (const auto& cp : recorded.checkpoints()) {
    base.checkpoints.emplace_back(cp.index, cp.hash.hex());
  }

  // The "current" build bleaches half the CE marks — behaviorally divergent.
  sweep::SweepPoint perturbed = clean;
  perturbed.opts.set("bleach", "0.5");
  RunDigest current;
  ASSERT_TRUE(sweep::run_scenario(perturbed, true, &current).ok);
  EXPECT_NE(current.total().hex(), base.digest);

  const auto report = find_divergence(base, current, [&](RunDigest& replay) {
    ASSERT_TRUE(sweep::run_scenario(perturbed, true, &replay).ok);
  });
  EXPECT_TRUE(report.diverged);
  EXPECT_FALSE(report.entities.empty());
  EXPECT_TRUE(report.event_located);
  EXPECT_FALSE(report.first_entity_name.empty());
  EXPECT_NE(report.summary().find("first diverging event"), std::string::npos);
  EXPECT_LT(report.window_lo, report.window_hi);
}

TEST(RegressEndToEnd, MatchingRunYieldsNoDivergence) {
  sweep::SweepPoint point;
  point.opts = small_dumbbell();
  RunDigest recorded, again;
  ASSERT_TRUE(sweep::run_scenario(point, true, &recorded).ok);
  ASSERT_TRUE(sweep::run_scenario(point, true, &again).ok);

  CellBaseline base;
  base.name = "match-test";
  base.digest = recorded.total().hex();
  base.event_count = recorded.count();
  base.sub_digests = recorded.sub_digest_hex();
  base.checkpoint_interval = recorded.checkpoint_interval();
  for (const auto& cp : recorded.checkpoints()) {
    base.checkpoints.emplace_back(cp.index, cp.hash.hex());
  }

  bool reran = false;
  const auto report = find_divergence(base, again, [&](RunDigest&) { reran = true; });
  EXPECT_FALSE(report.diverged);
  EXPECT_FALSE(reran);  // no mismatch -> no replay
  EXPECT_EQ(report.summary(), "");
}
