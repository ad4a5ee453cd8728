// Minimal HTTP/1.1 framing over support::TcpStream — just enough protocol
// for the serving daemon and its client: request parsing (method, target
// split into path + query, headers, Content-Length body), fixed-length
// responses, and chunked transfer encoding for the JSONL job streams whose
// length is unknown up front. No external dependencies; not a general web
// server (no pipelining, no TLS, one request per read_request call).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "consensus/support/socket.hpp"

namespace consensus::serve {

struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string target;  // raw request target, e.g. "/jobs/3?wait=0"
  std::string path;    // target before '?'
  std::map<std::string, std::string> query;    // decoded key=value pairs
  std::map<std::string, std::string> headers;  // keys lowercased
  std::string body;

  /// Query parameter or `fallback` when absent.
  std::string query_value(const std::string& key,
                          const std::string& fallback = "") const;

  /// True when the client sent `Connection: close` (in any case): the
  /// server closes the connection once this request is answered.
  bool wants_close() const;
};

/// Parses a whole unsigned `text` (surrounding whitespace allowed) in
/// `base`: no sign, no prefix, no trailing characters, no wrap-around.
/// Throws std::runtime_error naming `what` otherwise.
std::uint64_t parse_size(std::string_view text, int base, const char* what);

/// Reads one request. Returns false on a clean EOF before any bytes (the
/// peer closed an idle connection); throws std::runtime_error on malformed
/// framing or a body larger than `max_body`.
bool read_request(support::TcpStream& stream, HttpRequest* request,
                  std::size_t max_body = 64u << 20);

std::string_view status_reason(int status) noexcept;

/// Extra response headers, e.g. {{"Retry-After", "1"}} on a 503.
using HttpHeaders = std::vector<std::pair<std::string, std::string>>;

/// Fixed-length response (Content-Length framing). Leaves the connection
/// open; whether another request follows is the caller's decision.
void write_response(support::TcpStream& stream, int status,
                    std::string_view content_type, std::string_view body,
                    const HttpHeaders& extra_headers = {});

/// Chunked response writer for streams of unknown length (JSONL job
/// output). Emits the header on construction; each write() is one chunk;
/// finish() sends the terminating chunk (also run by the destructor).
class ChunkedWriter {
 public:
  ChunkedWriter(support::TcpStream& stream, int status,
                std::string_view content_type);
  ~ChunkedWriter();

  ChunkedWriter(const ChunkedWriter&) = delete;
  ChunkedWriter& operator=(const ChunkedWriter&) = delete;

  void write(std::string_view data);
  void finish();

 private:
  support::TcpStream* stream_;
  bool finished_ = false;
};

// ------------------------------------------------------------- client side

struct HttpResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // keys lowercased
  std::string body;  // chunked bodies arrive decoded
};

/// One request/response exchange on a fresh connection. Blocks until the
/// full response (chunked streams included) has arrived — the job-stream
/// endpoint therefore blocks until the job finishes, which is exactly what
/// the submit CLI and the tests want.
HttpResponse http_request(const std::string& host, std::uint16_t port,
                          const std::string& method, const std::string& target,
                          std::string_view body = {},
                          std::string_view content_type = "application/json");

/// Streaming variant: `on_chunk` sees each decoded chunk as it arrives
/// (JSONL lines may span chunks; callers re-split on '\n').
HttpResponse http_request_stream(
    const std::string& host, std::uint16_t port, const std::string& method,
    const std::string& target, std::string_view body,
    std::string_view content_type,
    const std::function<void(std::string_view)>& on_chunk);

/// Bounded retry for transient failures. Delays grow exponentially from
/// `base_delay_ms` (capped at `max_delay_ms`) with deterministic jitter
/// from `jitter_seed` — determinism keeps retry tests exact, and distinct
/// seeds de-synchronize a fleet of clients hammering a recovering daemon.
/// A 503's Retry-After header (integer seconds) overrides the computed
/// delay: the server knows its own backlog better than the client does.
struct RetryPolicy {
  std::size_t max_attempts = 5;      // total tries, first one included
  std::uint64_t base_delay_ms = 100;
  std::uint64_t max_delay_ms = 5000;
  std::uint64_t jitter_seed = 0;
};

/// http_request with bounded retry: transport errors (refused, reset,
/// truncated response) and 503 responses retry per `policy`; every other
/// status returns immediately (4xx/5xx are the caller's problem, not a
/// transient). Exhausting attempts rethrows the last transport error or
/// returns the last 503.
HttpResponse http_request_retry(const std::string& host, std::uint16_t port,
                                const std::string& method,
                                const std::string& target,
                                std::string_view body,
                                std::string_view content_type,
                                const RetryPolicy& policy = {});

/// Follows a job's NDJSON stream (`GET /jobs/<id>`) to completion,
/// reconnecting with the `from=<lines-seen>` cursor when the connection
/// drops mid-stream — each complete line is delivered to `on_line`
/// (newline stripped) exactly once across reconnects, and a torn partial
/// line is re-fetched whole on the next attempt. Reconnects draw on
/// `policy`'s attempt budget, which refills whenever an attempt makes
/// progress (a stream that advances is alive, however slowly). Returns the
/// final attempt's response with `body` rebuilt as all delivered lines.
/// Non-200 responses return immediately; an exhausted budget rethrows.
HttpResponse follow_job_stream(
    const std::string& host, std::uint16_t port, std::uint64_t job_id,
    const std::function<void(std::string_view)>& on_line,
    const RetryPolicy& policy = {});

}  // namespace consensus::serve
