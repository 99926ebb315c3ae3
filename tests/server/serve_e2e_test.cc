// End-to-end test of the aqua_serve binary: spawns the real server on an
// ephemeral port, speaks HTTP/1.1 over a raw socket, and checks that
//
//  - /hotlist and /frequency answers match an in-process ServingEngine fed
//    the identical stream (the server is run with --shards 1 so snapshot
//    contents are deterministic: a single-shard snapshot is a copy, and no
//    merge randomness enters the answer),
//  - overload answers 503 (one worker + queue capacity 1 + a debug request
//    that holds the worker),
//  - SIGTERM drains gracefully with exit code 0,
//  - at the descriptor limit the listener sheds connections (accepts and
//    closes them) instead of spinning the reactor.
//
// The binary path is injected by CMake as AQUA_SERVE_BINARY; the ctest
// entry carries a TIMEOUT so a hung server fails rather than wedging CI.

#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/e2e_util.h"
#include "server/json.h"
#include "server/serving_engine.h"
#include "workload/generators.h"

namespace aqua {
namespace {

using namespace e2e;  // NOLINT(build/namespaces): test-local helpers

constexpr std::int64_t kPreloadN = 30000;
constexpr std::int64_t kPreloadDomain = 500;
constexpr double kPreloadAlpha = 1.0;
constexpr std::uint64_t kPreloadSeed = 424242;

std::string PreloadFlag() {
  return std::to_string(kPreloadN) + "," + std::to_string(kPreloadDomain) +
         "," + std::to_string(kPreloadAlpha) + "," +
         std::to_string(kPreloadSeed);
}

/// The in-process reference: same options, same stream, same single
/// InsertBatch the server's --preload-zipf performs.
ServingEngineOptions ReferenceOptions() {
  ServingEngineOptions options;
  options.shards = 1;
  return options;
}

TEST(ServeE2eTest, HotListMatchesInProcessEngine) {
  ServerProcess server({"--shards", "1", "--preload-zipf", PreloadFlag()});

  ServingEngine reference(ReferenceOptions());
  reference.InsertBatch(
      ZipfValues(kPreloadN, kPreloadDomain, kPreloadAlpha, kPreloadSeed));

  const RawResponse got = Fetch(server.port(), "/hotlist?k=10&beta=3");
  ASSERT_EQ(got.status, 200) << got.body;

  HotListQuery query;
  query.k = 10;
  query.beta = 3.0;
  const QueryResponse<HotList> expected = reference.HotListAnswer(query);
  JsonWriter w;
  w.BeginObject();
  w.Key("items").BeginArray();
  for (const HotListItem& item : expected.answer) {
    w.BeginObject();
    w.Key("value").Int(item.value);
    w.Key("estimated_count").Double(item.estimated_count);
    w.Key("synopsis_count").Int(item.synopsis_count);
    w.EndObject();
  }
  w.EndArray();
  w.Key("method").String(expected.method);
  w.EndObject();
  EXPECT_FALSE(expected.answer.empty());
  EXPECT_EQ(StripResponseNs(got.body), w.str());
  EXPECT_EQ(expected.method, "counting-sample");
}

TEST(ServeE2eTest, FrequencyMatchesInProcessEngine) {
  ServerProcess server({"--shards", "1", "--preload-zipf", PreloadFlag()});

  ServingEngine reference(ReferenceOptions());
  reference.InsertBatch(
      ZipfValues(kPreloadN, kPreloadDomain, kPreloadAlpha, kPreloadSeed));

  for (Value v : {Value{1}, Value{2}, Value{17}, Value{499}}) {
    const RawResponse got =
        Fetch(server.port(), "/frequency?value=" + std::to_string(v));
    ASSERT_EQ(got.status, 200) << got.body;
    const QueryResponse<Estimate> expected = reference.FrequencyAnswer(v);
    JsonWriter w;
    w.BeginObject();
    w.Key("estimate").Double(expected.answer.value);
    w.Key("ci_low").Double(expected.answer.ci_low);
    w.Key("ci_high").Double(expected.answer.ci_high);
    w.Key("confidence").Double(expected.answer.confidence);
    w.Key("sample_points").Int(expected.answer.sample_points);
    w.Key("method").String(expected.method);
    w.EndObject();
    EXPECT_EQ(StripResponseNs(got.body), w.str()) << "value=" << v;
  }
}

TEST(ServeE2eTest, IngestThenQueryRoundTrips) {
  ServerProcess server({"--shards", "1", "--cache-stale-ops", "1"});
  const RawResponse ingest =
      Post(server.port(), "/ingest", "[7,7,7,7,7,8,8]");
  ASSERT_EQ(ingest.status, 200) << ingest.body;
  EXPECT_NE(ingest.body.find("\"ingested\":7"), std::string::npos);

  const RawResponse stats = Fetch(server.port(), "/stats");
  ASSERT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"inserts\":7"), std::string::npos);

  const RawResponse bad = Post(server.port(), "/ingest", "[1, oops]");
  EXPECT_EQ(bad.status, 400);
}

TEST(ServeE2eTest, OverloadAnswers503) {
  ServerProcess server({"--enable-debug", "--workers", "1",
                        "--queue-capacity", "1"});

  // Hold the only worker (the debug sleeper is explicitly
  // worker-dispatched), then fill the queue's single slot with a mutating
  // request; the next worker-route request must be shed with 503 instead
  // of queueing behind the sleeper.
  const int busy = ConnectTo(server.port());
  SendRequest(busy, "GET", "/debug/sleep?ms=2000");
  usleep(300 * 1000);  // worker has dequeued the sleeper
  const int queued = ConnectTo(server.port());
  SendRequest(queued, "POST", "/ingest", "[1,2,3]");
  usleep(200 * 1000);  // the ingest now occupies the queue slot

  bool saw_503 = false;
  for (int i = 0; i < 5 && !saw_503; ++i) {
    const RawResponse shed = Post(server.port(), "/ingest", "[4]");
    saw_503 = shed.status == 503;
  }
  EXPECT_TRUE(saw_503) << "no request was shed under overload";

  // The read path runs inline on the reactors and never sheds: even with
  // the worker pool saturated, /healthz answers immediately.
  EXPECT_EQ(Fetch(server.port(), "/healthz").status, 200);

  // The held requests still complete (bounded queue sheds, never drops
  // accepted work).
  EXPECT_EQ(ReadResponse(busy).status, 200);
  EXPECT_EQ(ReadResponse(queued).status, 200);
  close(busy);
  close(queued);

  const RawResponse stats = Fetch(server.port(), "/stats");
  EXPECT_NE(stats.body.find("\"responses_503\":"), std::string::npos);
}

TEST(ServeE2eTest, SigtermDrainsCleanly) {
  ServerProcess server({"--shards", "1"});
  ASSERT_EQ(Fetch(server.port(), "/healthz").status, 200);
  EXPECT_EQ(server.TerminateAndWait(), 0);
}

/// CPU time (user + system) a process has used so far, in clock ticks, or
/// -1 when /proc cannot be read.
std::int64_t CpuTicks(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  const std::string stat((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // The command name is parenthesised and may hold spaces; fields after it
  // start at field 3 (state).  utime and stime are fields 14 and 15.
  const std::size_t name_end = stat.rfind(')');
  if (name_end == std::string::npos) return -1;
  std::istringstream fields(stat.substr(name_end + 1));
  std::string field;
  std::int64_t ticks = 0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i >= 14) ticks += std::stoll(field);
  }
  return ticks;
}

TEST(ServeE2eTest, FdExhaustionShedsConnectionsInsteadOfSpinning) {
  // 40 descriptors leave the server room for about 30 connections; 60 idle
  // clients exhaust them with the rest still queued on the listener.
  ServerProcess server({"--reactors", "1", "--workers", "1", "--pin-cores"},
                       /*max_fds=*/40);
  ASSERT_GT(server.port(), 0);
  std::vector<int> idle;
  for (int i = 0; i < 60; ++i) idle.push_back(ConnectTo(server.port()));
  usleep(300 * 1000);  // the reactor takes in what it can

  // A reactor that returns on EMFILE with the level-triggered listener
  // still armed burns a whole core here; a shedding one sits idle.
  const std::int64_t ticks_per_s = sysconf(_SC_CLK_TCK);
  const std::int64_t before = CpuTicks(server.pid());
  ASSERT_GE(before, 0);
  usleep(2000 * 1000);
  const std::int64_t used = CpuTicks(server.pid()) - before;
  EXPECT_LT(used, ticks_per_s / 2)
      << used << " CPU ticks in 2 s at the descriptor limit (" << ticks_per_s
      << " ticks = one core-second)";

  for (const int fd : idle) close(fd);
  RawResponse health;
  for (int attempt = 0; attempt < 50 && health.status != 200; ++attempt) {
    health = Fetch(server.port(), "/healthz");
    if (health.status != 200) usleep(100 * 1000);
  }
  EXPECT_EQ(health.status, 200);

  const RawResponse stats = Fetch(server.port(), "/stats");
  const std::string key = "\"accept_shed\":";
  const std::size_t at = stats.body.find(key);
  ASSERT_NE(at, std::string::npos) << stats.body;
  EXPECT_GT(std::stoll(stats.body.substr(at + key.size())), 0) << stats.body;
  // Pinning is best-effort but loopback CI machines always have CPU 0.
  EXPECT_NE(stats.body.find("\"reactors_pinned\":1"), std::string::npos)
      << stats.body;
  EXPECT_EQ(server.TerminateAndWait(), 0);
}

}  // namespace
}  // namespace aqua
