// Response-cache transparency over the full route table, end to end: one
// aqua_serve process answers every GET target three ways — the cold
// render, the cached replay of it, and a fresh `Cache-Control: no-cache`
// render — and all three must be byte-identical (modulo the volatile
// response_ns metric).  Caching is supposed to be invisible to the HTTP
// surface; this is the test that keeps it so.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "e2e_util.h"

namespace aqua {
namespace {

using e2e::Fetch;
using e2e::Post;
using e2e::RawResponse;
using e2e::ServerProcess;
using e2e::StripResponseNs;

// Every GET route the server must answer identically across renders.
// Deterministic by construction: fixed preload and synopsis seeds, no
// ingest between the three requests.
const std::vector<std::string>& GetTargets() {
  static const std::vector<std::string> targets = {
      "/healthz",
      "/hotlist?k=10&beta=2.0",
      "/frequency?value=1",
      "/count_where?low=1&high=100",
      "/quantile?q=0.5",
      "/distinct",
      "/attr/price/hotlist?k=5&beta=2.0",
      "/attr/price/frequency?value=3",
      "/attr/price/count_where?low=0&high=50",
      "/attr/price/quantile?q=0.5",
      "/attr/price/distinct",
      // (no /stats or /attr/.../stats here: those embed wall-clock metrics
      // — view_build_ns, latency EWMAs, counters — that legitimately
      // differ)
      "/query?q=SELECT%20APPROX(COUNT(*))%20FROM%20stream"
      "%20WHERE%20v%20BETWEEN%201%20AND%20100",
      "/query?q=SELECT%20APPROX(TOP(5))%20FROM%20stream",
      "/query?q=SELECT%20APPROX(MEDIAN)%20FROM%20stream",
      "/query?q=SELECT%20APPROX(COUNT(DISTINCT%20*))%20FROM%20stream",
      "/does-not-exist",
  };
  return targets;
}

// The three renders of one target: cold, cached replay, no-cache.
void ExpectRendersAgree(std::uint16_t port, const std::string& target) {
  const RawResponse cold = Fetch(port, target);
  const RawResponse cached = Fetch(port, target);
  const RawResponse fresh = Fetch(port, target, "Cache-Control: no-cache\r\n");
  ASSERT_NE(cold.status, 0) << target;
  EXPECT_EQ(cached.status, cold.status) << target;
  EXPECT_EQ(fresh.status, cold.status) << target;
  const std::string want = StripResponseNs(cold.body);
  EXPECT_EQ(StripResponseNs(cached.body), want) << target << " (cached)";
  EXPECT_EQ(StripResponseNs(fresh.body), want) << target << " (no-cache)";
}

TEST(RouteTableE2e, FullRouteTableIsByteIdenticalAcrossRenders) {
  // --cache-stale-ops 1: the first read after the ingest below refreshes
  // the snapshots, so all three renders of the query see the ingest
  // (otherwise the 100 ms staleness bound could fall between them).
  ServerProcess server({"--reactors", "2", "--workers", "2",
                        "--cache-stale-ops", "1", "--attr", "price",
                        "--preload-zipf", "20000,500,1.0,424242"});
  ASSERT_GT(server.port(), 0);

  for (const std::string& target : GetTargets()) {
    ExpectRendersAgree(server.port(), target);
  }

  // Mutating path: ingest, then the three renders of a query must agree
  // on the new epoch.
  const RawResponse ingest =
      Post(server.port(), "/ingest", "[7,7,7,7,7,7,7,7,9,9]");
  ASSERT_EQ(ingest.status, 200) << ingest.body;
  ExpectRendersAgree(server.port(), "/frequency?value=7");

  EXPECT_EQ(server.TerminateAndWait(), 0);
}

}  // namespace
}  // namespace aqua
