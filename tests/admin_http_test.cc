// Tests for the admin HTTP plane (src/net/admin_http.h): the incremental
// request parser driven byte-by-byte (truncation, pipelining, malformed and
// oversized heads), the server's status handling (404/405, keep-alive,
// concurrent scrapes), and the standard endpoint set registered against a
// live single-graph (one-tenant) TenantRouter.

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/admin_http.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "tenant/tenant_router.h"
#include "tests/test_util.h"
#include "util/status.h"

namespace fast {
namespace {

using net::AdminEndpointsOptions;
using net::AdminHttpServer;
using net::HttpGet;
using net::HttpRequest;
using net::HttpRequestParser;
using net::HttpResponse;
using testing::PaperDataGraph;
using testing::PaperQuery;

using State = HttpRequestParser::State;

// ---- Parser. ----

TEST(HttpRequestParserTest, ParsesCompleteGetWithQuery) {
  HttpRequestParser p;
  p.Feed("GET /metrics?format=json HTTP/1.1\r\nHost: x\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(p.Next(&req), State::kReady);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/metrics");
  EXPECT_EQ(req.query, "format=json");
  EXPECT_EQ(req.version, "HTTP/1.1");
  EXPECT_EQ(p.Next(&req), State::kNeedMore);
  EXPECT_EQ(p.buffered_bytes(), 0u);
}

TEST(HttpRequestParserTest, TruncatedRequestLineNeedsMore) {
  HttpRequestParser p;
  p.Feed("GET /met");
  HttpRequest req;
  EXPECT_EQ(p.Next(&req), State::kNeedMore);
  p.Feed("rics HTTP/1.1\r\nHo");
  EXPECT_EQ(p.Next(&req), State::kNeedMore);
  p.Feed("st: x\r\n\r\n");
  ASSERT_EQ(p.Next(&req), State::kReady);
  EXPECT_EQ(req.path, "/metrics");
}

TEST(HttpRequestParserTest, PipelinedRequestsDrainInOrder) {
  HttpRequestParser p;
  p.Feed(
      "GET /healthz HTTP/1.1\r\n\r\n"
      "GET /varz HTTP/1.1\r\nHost: y\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(p.Next(&req), State::kReady);
  EXPECT_EQ(req.path, "/healthz");
  EXPECT_FALSE(req.close);
  ASSERT_EQ(p.Next(&req), State::kReady);
  EXPECT_EQ(req.path, "/varz");
  EXPECT_EQ(p.Next(&req), State::kNeedMore);
}

TEST(HttpRequestParserTest, MalformedRequestLineIsErrorAndPoisons) {
  HttpRequestParser p;
  p.Feed("NOT-HTTP\r\n\r\n");
  HttpRequest req;
  EXPECT_EQ(p.Next(&req), State::kError);
  EXPECT_FALSE(p.error().empty());
  // Poisoned: even a well-formed follow-up stays an error.
  p.Feed("GET / HTTP/1.1\r\n\r\n");
  EXPECT_EQ(p.Next(&req), State::kError);
}

TEST(HttpRequestParserTest, OversizedHeadWithoutTerminatorIsError) {
  HttpRequestParser p(/*max_header_bytes=*/64);
  p.Feed("GET /metrics HTTP/1.1\r\n");
  p.Feed(std::string(128, 'a'));  // header bytes keep coming, no CRLFCRLF
  HttpRequest req;
  EXPECT_EQ(p.Next(&req), State::kError);
  EXPECT_NE(p.error().find("exceeds"), std::string::npos);
}

TEST(HttpRequestParserTest, OversizedCompleteHeadIsError) {
  HttpRequestParser p(/*max_header_bytes=*/64);
  std::string head = "GET / HTTP/1.1\r\nX-Pad: " + std::string(100, 'b') +
                     "\r\n\r\n";
  p.Feed(head);
  HttpRequest req;
  EXPECT_EQ(p.Next(&req), State::kError);
}

// ---- Server. ----

TEST(AdminHttpServerTest, ServesRegisteredPathAnd404sUnknown) {
  AdminHttpServer server;
  server.Handle("/ping", [](const HttpRequest&) {
    HttpResponse r;
    r.body = "pong\n";
    return r;
  });
  FAST_CHECK_OK(server.Start());
  auto ok = HttpGet("127.0.0.1", server.port(), "/ping");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->status, 200);
  EXPECT_EQ(ok->body, "pong\n");
  auto missing = HttpGet("127.0.0.1", server.port(), "/nope");
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_EQ(missing->status, 404);
  server.Shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests_served, 2u);
  EXPECT_EQ(stats.not_found, 1u);
}

// Raw-socket request so we can send methods/bytes HttpGet never would.
std::string RawRoundTrip(std::uint16_t port, const std::string& wire) {
  auto fd = net::ConnectTcp("127.0.0.1", port);
  FAST_CHECK_OK(fd.status());
  FAST_CHECK_OK(net::SendAll(
      fd->get(), reinterpret_cast<const std::uint8_t*>(wire.data()),
      wire.size()));
  std::string reply;
  std::uint8_t buf[4096];
  while (true) {
    auto n = net::RecvSome(fd->get(), buf, sizeof buf);
    if (!n.ok() || *n == 0) break;
    reply.append(reinterpret_cast<const char*>(buf), *n);
  }
  return reply;
}

TEST(AdminHttpServerTest, NonGetGets405) {
  AdminHttpServer server;
  server.Handle("/metrics", [](const HttpRequest&) { return HttpResponse{}; });
  FAST_CHECK_OK(server.Start());
  const std::string reply = RawRoundTrip(
      server.port(),
      "POST /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_NE(reply.find("405"), std::string::npos);
  server.Shutdown();
}

TEST(AdminHttpServerTest, MalformedRequestClosesWith400) {
  AdminHttpServer server;
  FAST_CHECK_OK(server.Start());
  const std::string reply = RawRoundTrip(server.port(), "garbage\r\n\r\n");
  EXPECT_NE(reply.find("400"), std::string::npos);
  server.Shutdown();
  EXPECT_EQ(server.stats().bad_requests, 1u);
}

TEST(AdminHttpServerTest, OversizedHeadClosesWith431) {
  net::AdminHttpOptions opts;
  opts.max_header_bytes = 128;
  AdminHttpServer server(opts);
  FAST_CHECK_OK(server.Start());
  const std::string reply = RawRoundTrip(
      server.port(),
      "GET / HTTP/1.1\r\nX-Pad: " + std::string(512, 'a') + "\r\n\r\n");
  EXPECT_NE(reply.find("431"), std::string::npos);
  server.Shutdown();
}

TEST(AdminHttpServerTest, PipelinedGetsOverOneConnection) {
  AdminHttpServer server;
  server.Handle("/a", [](const HttpRequest&) {
    HttpResponse r;
    r.body = "A";
    return r;
  });
  server.Handle("/b", [](const HttpRequest&) {
    HttpResponse r;
    r.body = "B";
    return r;
  });
  FAST_CHECK_OK(server.Start());
  // Both requests in one write; "Connection: close" on the second makes the
  // server end the stream after replying, so RawRoundTrip's read-to-EOF
  // terminates.
  const std::string reply = RawRoundTrip(
      server.port(),
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n");
  const auto first = reply.find("\r\n\r\nA");
  const auto second = reply.find("\r\n\r\nB");
  EXPECT_NE(first, std::string::npos);
  EXPECT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  server.Shutdown();
  EXPECT_EQ(server.stats().requests_served, 2u);
  EXPECT_EQ(server.stats().connections_accepted, 1u);
}

TEST(AdminHttpServerTest, ConcurrentScrapesAllSucceed) {
  AdminHttpServer server;
  server.Handle("/metrics", [](const HttpRequest&) {
    HttpResponse r;
    r.body = std::string(64 * 1024, 'm');  // force multi-packet responses
    return r;
  });
  FAST_CHECK_OK(server.Start());
  constexpr int kThreads = 8;
  constexpr int kGetsEach = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < kThreads; ++t) {
    scrapers.emplace_back([&server, &failures] {
      for (int i = 0; i < kGetsEach; ++i) {
        auto r = HttpGet("127.0.0.1", server.port(), "/metrics");
        if (!r.ok() || r->status != 200 || r->body.size() != 64 * 1024) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& s : scrapers) s.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().requests_served,
            static_cast<std::uint64_t>(kThreads) * kGetsEach);
  server.Shutdown();
}

// ---- Standard endpoints against a live service. ----

TEST(AdminEndpointsTest, EndToEndAgainstOneTenantRouter) {
  obs::MetricsRegistry registry;
  tenant::RouterOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  options.metrics = &registry;
  tenant::TenantOptions topts;
  topts.plan_cache_capacity = 8;
  tenant::TenantRouter svc(options);
  FAST_CHECK_OK(svc.AddTenant(service::SessionKey(), PaperDataGraph(), topts));
  for (int i = 0; i < 3; ++i) {
    FAST_CHECK_OK(svc.SubmitAndWait(service::SessionKey(), PaperQuery()).status());
  }

  AdminHttpServer server;
  AdminEndpointsOptions eopts;
  eopts.metrics = &registry;
  eopts.request_obs = svc.request_obs();
  eopts.ready = [&svc] { return svc.ready(); };
  eopts.queue_depth = [&svc] { return svc.queue_depth(); };
  eopts.flags = "--workers=2 --admin-port=0";
  net::RegisterAdminEndpoints(server, eopts);
  FAST_CHECK_OK(server.Start());

  auto metrics = HttpGet("127.0.0.1", server.port(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics->body.find("fast_requests_total"), std::string::npos);
  EXPECT_NE(metrics->body.find("fast_account_requests_total"),
            std::string::npos);
  // Per-tenant families from the accountant ride along after the registry.
  EXPECT_NE(metrics->body.find("fast_tenant_requests_total{tenant=\"__default\"} 3"),
            std::string::npos);

  auto mjson = HttpGet("127.0.0.1", server.port(), "/metrics.json");
  ASSERT_TRUE(mjson.ok()) << mjson.status();
  EXPECT_NE(mjson->content_type.find("application/json"), std::string::npos);
  EXPECT_NE(mjson->body.find("\"metrics\""), std::string::npos);
  EXPECT_NE(mjson->body.find("\"accounts\""), std::string::npos);

  auto health = HttpGet("127.0.0.1", server.port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  auto tenants = HttpGet("127.0.0.1", server.port(), "/tenants");
  ASSERT_TRUE(tenants.ok()) << tenants.status();
  EXPECT_NE(tenants->body.find("\"tenant\": \"__default\""),
            std::string::npos);
  EXPECT_NE(tenants->body.find("\"requests\": 3"), std::string::npos);

  auto varz = HttpGet("127.0.0.1", server.port(), "/varz");
  ASSERT_TRUE(varz.ok()) << varz.status();
  EXPECT_NE(varz->body.find("\"build\""), std::string::npos);
  EXPECT_NE(varz->body.find("--workers=2"), std::string::npos);
  EXPECT_NE(varz->body.find("\"queue_depth\": 0"), std::string::npos);

  // No SLO objective configured -> the endpoint reports the engine off.
  auto slo = HttpGet("127.0.0.1", server.port(), "/slo");
  ASSERT_TRUE(slo.ok()) << slo.status();
  EXPECT_NE(slo->body.find("\"enabled\": false"), std::string::npos);

  auto traces = HttpGet("127.0.0.1", server.port(), "/traces/recent");
  ASSERT_TRUE(traces.ok()) << traces.status();
  EXPECT_NE(traces->content_type.find("ndjson"), std::string::npos);
  EXPECT_NE(traces->body.find("\"request_id\""), std::string::npos);

  server.Shutdown();
  svc.Shutdown();
}

TEST(AdminEndpointsTest, HealthzReports503WhenNotReady) {
  AdminHttpServer server;
  AdminEndpointsOptions eopts;
  eopts.ready = [] { return false; };
  net::RegisterAdminEndpoints(server, eopts);
  FAST_CHECK_OK(server.Start());
  auto health = HttpGet("127.0.0.1", server.port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 503);
  server.Shutdown();
}

}  // namespace
}  // namespace fast
