// The daemon's connection model over real sockets: handler threads are
// joined as their connections end, so threads and stack mappings stay
// bounded across many connections; above Server::kMaxConnections live
// connections the daemon answers 503 without starting a thread; and a
// request carrying `Connection: close` ends its connection at once.
//
// Suite names start with "Server" so the ThreadSanitizer CI job runs them.
#include "consensus/serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "consensus/serve/http.hpp"
#include "consensus/support/json.hpp"
#include "consensus/support/socket.hpp"

namespace consensus::serve {
namespace {

using support::TcpStream;

/// A numeric field of /proc/self/status ("Threads", "VmSize" in kB, ...).
std::uint64_t proc_status(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream value(line.substr(field.size() + 1));
      std::uint64_t n = 0;
      value >> n;
      return n;
    }
  }
  ADD_FAILURE() << field << " missing from /proc/self/status";
  return 0;
}

/// Reads until the peer closes its side.
std::string read_to_eof(TcpStream& stream) {
  std::string out;
  char buffer[4096];
  while (const std::size_t got = stream.read_some(buffer, sizeof(buffer))) {
    out.append(buffer, got);
  }
  return out;
}

/// Reads until the received bytes end with `suffix` (or the peer closes).
std::string read_until_suffix(TcpStream& stream, std::string_view suffix) {
  std::string out;
  char buffer[4096];
  while (!out.ends_with(suffix)) {
    const std::size_t got = stream.read_some(buffer, sizeof(buffer));
    if (got == 0) break;
    out.append(buffer, got);
  }
  return out;
}

constexpr std::string_view kKeepAliveHealthz =
    "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";

TEST(ServerConnections, ConnectionCloseEndsTheConnection) {
  ServerOptions options;
  options.recv_timeout_ms = 10'000;
  Server server(options);
  server.start();

  // A raw client that asks for close but never half-closes: the daemon
  // must hang up after its answer, not wait out the receive timeout.
  TcpStream client = TcpStream::connect("127.0.0.1", server.port());
  client.set_recv_timeout(30'000);
  client.write_all(
      "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: Close\r\n\r\n");
  const auto start = std::chrono::steady_clock::now();
  const std::string response = read_to_eof(client);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_LT(waited, std::chrono::seconds(2));
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  EXPECT_TRUE(response.ends_with("\r\n\r\nok\n")) << response;
  server.stop();
}

TEST(ServerConnections, ManyConnectionsKeepThreadsAndVmSizeBounded) {
  Server server(ServerOptions{});
  server.start();
  ASSERT_EQ(http_request("127.0.0.1", server.port(), "GET", "/healthz").status,
            200);
  const std::uint64_t threads_before = proc_status("Threads");
  const std::uint64_t vm_kb_before = proc_status("VmSize");

  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(
        http_request("127.0.0.1", server.port(), "GET", "/healthz").status,
        200)
        << "connection " << i;
  }

  // Each handler thread that outlived its connection would keep an 8 MB
  // stack mapping; joined ones give it back.
  EXPECT_LE(proc_status("Threads"), threads_before + Server::kMaxConnections);
  const std::uint64_t bound_kb = (Server::kMaxConnections + 8) * 8 * 1024;
  EXPECT_LT(proc_status("VmSize"), vm_kb_before + bound_kb);
  server.stop();
}

TEST(ServerConnections, RefusesConnectionsAboveTheCapWith503) {
  ServerOptions options;
  options.recv_timeout_ms = 60'000;  // held connections outlast the test
  Server server(options);
  server.start();

  // Fill every slot with an idle keep-alive connection, each answered
  // before the next is opened so all of them hold a handler.
  std::vector<TcpStream> held;
  for (std::size_t i = 0; i < Server::kMaxConnections; ++i) {
    held.push_back(TcpStream::connect("127.0.0.1", server.port()));
    held.back().set_recv_timeout(30'000);
    held.back().write_all(kKeepAliveHealthz);
    const std::string response =
        read_until_suffix(held.back(), "\r\n\r\nok\n");
    ASSERT_EQ(response.rfind("HTTP/1.1 200", 0), 0u)
        << "held connection " << i << ": " << response;
  }

  // http_request throws on a reset, so each 503 is read whole.
  constexpr std::uint64_t kRefusals = 100;
  for (std::uint64_t i = 0; i < kRefusals; ++i) {
    const HttpResponse refused =
        http_request("127.0.0.1", server.port(), "GET", "/healthz");
    ASSERT_EQ(refused.status, 503) << "attempt " << i;
    ASSERT_EQ(refused.headers.count("retry-after"), 1u);
    EXPECT_EQ(refused.headers.at("retry-after"), "1");
  }

  // Freeing one slot admits the next connection once its handler has seen
  // the close; until then the daemon keeps refusing, and the count of
  // those refusals is added to the expected total.
  held.pop_back();
  std::uint64_t late_refusals = 0;
  HttpResponse metrics;
  for (;;) {
    metrics = http_request("127.0.0.1", server.port(), "GET",
                           "/metrics?format=json");
    if (metrics.status != 503) break;
    ++late_refusals;
    ASSERT_LT(late_refusals, 5'000u) << "the freed slot never reopened";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(metrics.status, 200) << metrics.body;
  const support::Json parsed = support::Json::parse(metrics.body);
  // 63 held connections plus the one asking.
  EXPECT_EQ(parsed.at("gauges").at("http_connections_open").as_double(),
            static_cast<double>(Server::kMaxConnections));
  EXPECT_EQ(parsed.at("counters").at("http_connections_refused").as_uint(),
            kRefusals + late_refusals);

  held.clear();  // idle handlers see EOF and exit, so stop() joins at once
  server.stop();
}

}  // namespace
}  // namespace consensus::serve
