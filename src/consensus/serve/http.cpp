#include "consensus/serve/http.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "consensus/support/rng.hpp"

namespace consensus::serve {

namespace {

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

}  // namespace

std::uint64_t parse_size(std::string_view text, int base, const char* what) {
  const std::string digits = trim(text);
  std::uint64_t value = 0;
  const char* end = digits.data() + digits.size();
  const auto [stop, ec] = std::from_chars(digits.data(), end, value, base);
  if (digits.empty() || ec != std::errc() || stop != end) {
    throw std::runtime_error(std::string("http: bad ") + what + " '" +
                             std::string(text) + "'");
  }
  return value;
}

namespace {

/// Size of a chunk from its header line: hex digits, then an optional
/// ";extension" that is ignored.
std::size_t parse_chunk_size(std::string_view line) {
  return parse_size(line.substr(0, line.find(';')), 16, "chunk size");
}

/// Incremental reader: buffers stream bytes and hands out lines/blocks.
class StreamReader {
 public:
  explicit StreamReader(support::TcpStream& stream) : stream_(&stream) {}

  /// Line up to CRLF or LF (terminator stripped). False on EOF with no
  /// pending bytes; throws on EOF mid-line.
  bool read_line(std::string* line) {
    std::size_t search_from = 0;
    for (;;) {
      const std::size_t nl = buffer_.find('\n', search_from);
      if (nl != std::string::npos) {
        std::size_t end = nl;
        if (end > 0 && buffer_[end - 1] == '\r') --end;
        line->assign(buffer_, 0, end);
        buffer_.erase(0, nl + 1);
        return true;
      }
      search_from = buffer_.size();
      if (!fill()) {
        if (buffer_.empty()) return false;
        throw std::runtime_error("http: truncated line");
      }
    }
  }

  /// Exactly n bytes; throws on early EOF.
  std::string read_exact(std::size_t n) {
    while (buffer_.size() < n) {
      if (!fill()) throw std::runtime_error("http: truncated body");
    }
    std::string out = buffer_.substr(0, n);
    buffer_.erase(0, n);
    return out;
  }

  /// Everything until EOF (identity responses without Content-Length).
  std::string read_to_eof() {
    while (fill()) {
    }
    std::string out;
    out.swap(buffer_);
    return out;
  }

 private:
  bool fill() {
    char chunk[4096];
    const std::size_t got = stream_->read_some(chunk, sizeof(chunk));
    if (got == 0) return false;
    buffer_.append(chunk, got);
    return true;
  }

  support::TcpStream* stream_;
  std::string buffer_;
};

std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      const int hi = hex(s[i + 1]), lo = hex(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    out.push_back(s[i] == '+' ? ' ' : s[i]);
  }
  return out;
}

std::map<std::string, std::string> parse_query(std::string_view query) {
  std::map<std::string, std::string> out;
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view pair = query.substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      if (!pair.empty()) out[url_decode(pair)] = "";
    } else {
      out[url_decode(pair.substr(0, eq))] = url_decode(pair.substr(eq + 1));
    }
    pos = amp + 1;
  }
  return out;
}

void parse_header_line(const std::string& line,
                       std::map<std::string, std::string>* headers) {
  const std::size_t colon = line.find(':');
  if (colon == std::string::npos) {
    throw std::runtime_error("http: malformed header line '" + line + "'");
  }
  (*headers)[to_lower(trim(line.substr(0, colon)))] =
      trim(line.substr(colon + 1));
}

std::string read_body(StreamReader& reader,
                      const std::map<std::string, std::string>& headers,
                      std::size_t max_body) {
  const auto te = headers.find("transfer-encoding");
  if (te != headers.end() && to_lower(te->second) == "chunked") {
    std::string body;
    std::string line;
    for (;;) {
      if (!reader.read_line(&line)) {
        throw std::runtime_error("http: truncated chunked body");
      }
      const std::size_t size = parse_chunk_size(line);
      if (size == 0) {
        reader.read_line(&line);  // trailing CRLF after the last chunk
        return body;
      }
      // body.size() <= max_body holds, so the subtraction cannot wrap.
      if (size > max_body - body.size()) {
        throw std::runtime_error("http: body exceeds limit");
      }
      body += reader.read_exact(size);
      reader.read_exact(2);  // chunk-terminating CRLF
    }
  }
  const auto cl = headers.find("content-length");
  if (cl == headers.end()) return {};
  const std::size_t length =
      parse_size(cl->second, 10, "Content-Length");
  if (length > max_body) throw std::runtime_error("http: body exceeds limit");
  return reader.read_exact(length);
}

}  // namespace

std::string HttpRequest::query_value(const std::string& key,
                                     const std::string& fallback) const {
  const auto it = query.find(key);
  return it == query.end() ? fallback : it->second;
}

bool HttpRequest::wants_close() const {
  const auto it = headers.find("connection");
  return it != headers.end() && to_lower(it->second) == "close";
}

bool read_request(support::TcpStream& stream, HttpRequest* request,
                  std::size_t max_body) {
  StreamReader reader(stream);
  std::string line;
  if (!reader.read_line(&line)) return false;  // idle connection closed
  std::istringstream request_line(line);
  std::string version;
  *request = HttpRequest{};
  if (!(request_line >> request->method >> request->target >> version) ||
      version.rfind("HTTP/", 0) != 0) {
    throw std::runtime_error("http: malformed request line '" + line + "'");
  }
  while (reader.read_line(&line) && !line.empty()) {
    parse_header_line(line, &request->headers);
  }
  const std::size_t qmark = request->target.find('?');
  if (qmark == std::string::npos) {
    request->path = url_decode(request->target);
  } else {
    request->path = url_decode(request->target.substr(0, qmark));
    request->query = parse_query(
        std::string_view(request->target).substr(qmark + 1));
  }
  request->body = read_body(reader, request->headers, max_body);
  return true;
}

std::string_view status_reason(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

namespace {

std::string response_head(int status, std::string_view content_type) {
  std::ostringstream head;
  head << "HTTP/1.1 " << status << ' ' << status_reason(status) << "\r\n"
       << "Content-Type: " << content_type << "\r\n";
  return head.str();
}

}  // namespace

void write_response(support::TcpStream& stream, int status,
                    std::string_view content_type, std::string_view body,
                    const HttpHeaders& extra_headers) {
  std::ostringstream message;
  message << response_head(status, content_type);
  for (const auto& [name, value] : extra_headers) {
    message << name << ": " << value << "\r\n";
  }
  message << "Content-Length: " << body.size() << "\r\n\r\n" << body;
  stream.write_all(message.str());
}

ChunkedWriter::ChunkedWriter(support::TcpStream& stream, int status,
                             std::string_view content_type)
    : stream_(&stream) {
  stream_->write_all(response_head(status, content_type) +
                     "Transfer-Encoding: chunked\r\n\r\n");
}

ChunkedWriter::~ChunkedWriter() {
  try {
    finish();
  } catch (...) {
    // The peer hung up mid-stream; nothing left to signal.
  }
}

void ChunkedWriter::write(std::string_view data) {
  if (data.empty() || finished_) return;
  std::ostringstream chunk;
  chunk << std::hex << data.size() << "\r\n" << data << "\r\n";
  stream_->write_all(chunk.str());
}

void ChunkedWriter::finish() {
  if (finished_) return;
  finished_ = true;
  stream_->write_all("0\r\n\r\n");
}

HttpResponse http_request(const std::string& host, std::uint16_t port,
                          const std::string& method, const std::string& target,
                          std::string_view body,
                          std::string_view content_type) {
  return http_request_stream(host, port, method, target, body, content_type,
                             nullptr);
}

HttpResponse http_request_stream(
    const std::string& host, std::uint16_t port, const std::string& method,
    const std::string& target, std::string_view body,
    std::string_view content_type,
    const std::function<void(std::string_view)>& on_chunk) {
  support::TcpStream stream = support::TcpStream::connect(host, port);
  std::ostringstream message;
  message << method << ' ' << target << " HTTP/1.1\r\n"
          << "Host: " << host << "\r\n"
          << "Connection: close\r\n";
  if (!body.empty()) {
    message << "Content-Type: " << content_type << "\r\n"
            << "Content-Length: " << body.size() << "\r\n";
  }
  message << "\r\n" << body;
  stream.write_all(message.str());
  stream.shutdown_write();

  StreamReader reader(stream);
  std::string line;
  if (!reader.read_line(&line)) {
    throw std::runtime_error("http: empty response");
  }
  HttpResponse response;
  std::istringstream status_line(line);
  std::string version;
  if (!(status_line >> version >> response.status) ||
      version.rfind("HTTP/", 0) != 0) {
    throw std::runtime_error("http: malformed status line '" + line + "'");
  }
  while (reader.read_line(&line) && !line.empty()) {
    parse_header_line(line, &response.headers);
  }
  const auto te = response.headers.find("transfer-encoding");
  if (te != response.headers.end() && to_lower(te->second) == "chunked") {
    for (;;) {
      if (!reader.read_line(&line)) {
        throw std::runtime_error("http: truncated chunked body");
      }
      const std::size_t size = parse_chunk_size(line);
      if (size == 0) {
        reader.read_line(&line);
        break;
      }
      const std::string chunk = reader.read_exact(size);
      reader.read_exact(2);
      if (on_chunk) on_chunk(chunk);
      response.body += chunk;
    }
    return response;
  }
  const auto cl = response.headers.find("content-length");
  response.body = cl != response.headers.end()
                      ? reader.read_exact(
                            parse_size(cl->second, 10, "Content-Length"))
                      : reader.read_to_eof();
  if (on_chunk && !response.body.empty()) on_chunk(response.body);
  return response;
}

namespace {

/// Backoff delay before retry number `attempt` (1-based): exponential from
/// the base, capped, plus jitter in [0, base). Retry-After (whole seconds,
/// the only form the daemon emits) overrides everything when present.
std::uint64_t retry_delay_ms(const RetryPolicy& policy, std::size_t attempt,
                             const HttpResponse* response,
                             support::Rng& jitter) {
  if (response != nullptr) {
    const auto it = response->headers.find("retry-after");
    if (it != response->headers.end()) {
      try {
        const std::uint64_t seconds =
            parse_size(it->second, 10, "Retry-After");
        if (seconds <= std::numeric_limits<std::uint64_t>::max() / 1000) {
          return seconds * 1000;
        }
      } catch (const std::exception&) {
      }
      // Unparseable or past what milliseconds can hold: fall through to
      // computed backoff.
    }
  }
  std::uint64_t delay = policy.base_delay_ms;
  for (std::size_t i = 1; i < attempt && delay < policy.max_delay_ms; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, policy.max_delay_ms);
  if (policy.base_delay_ms > 0) {
    delay += jitter.uniform_below(policy.base_delay_ms);
  }
  return delay;
}

}  // namespace

HttpResponse http_request_retry(const std::string& host, std::uint16_t port,
                                const std::string& method,
                                const std::string& target,
                                std::string_view body,
                                std::string_view content_type,
                                const RetryPolicy& policy) {
  support::Rng jitter(policy.jitter_seed);
  const std::size_t attempts = std::max<std::size_t>(policy.max_attempts, 1);
  for (std::size_t attempt = 1;; ++attempt) {
    HttpResponse response;
    try {
      response = http_request(host, port, method, target, body, content_type);
    } catch (const std::exception&) {
      if (attempt >= attempts) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(
          retry_delay_ms(policy, attempt, nullptr, jitter)));
      continue;
    }
    if (response.status != 503 || attempt >= attempts) return response;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        retry_delay_ms(policy, attempt, &response, jitter)));
  }
}

HttpResponse follow_job_stream(
    const std::string& host, std::uint16_t port, std::uint64_t job_id,
    const std::function<void(std::string_view)>& on_line,
    const RetryPolicy& policy) {
  support::Rng jitter(policy.jitter_seed);
  const std::size_t attempts = std::max<std::size_t>(policy.max_attempts, 1);
  std::size_t lines_seen = 0;   // the reconnect cursor
  std::string all_lines;        // rebuilt body across reconnects
  std::size_t failures = 0;     // consecutive no-progress failures
  for (;;) {
    const std::string target =
        "/jobs/" + std::to_string(job_id) + "?from=" +
        std::to_string(lines_seen);
    const std::size_t seen_before = lines_seen;
    std::string pending;  // partial line carried between chunks
    try {
      HttpResponse response = http_request_stream(
          host, port, "GET", target, /*body=*/{}, "application/json",
          [&](std::string_view chunk) {
            pending.append(chunk);
            std::size_t nl;
            while ((nl = pending.find('\n')) != std::string::npos) {
              const std::string_view line =
                  std::string_view(pending).substr(0, nl);
              if (on_line) on_line(line);
              all_lines.append(line);
              all_lines.push_back('\n');
              ++lines_seen;
              pending.erase(0, nl + 1);
            }
          });
      if (response.status != 200) return response;
      response.body = std::move(all_lines);
      return response;
    } catch (const std::exception&) {
      // Progress resets the budget: a stream that keeps advancing before
      // dropping is a flaky link, not a dead job. A torn `pending` tail is
      // discarded — the cursor re-fetches that line whole.
      failures = lines_seen > seen_before ? 1 : failures + 1;
      if (failures >= attempts) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(
          retry_delay_ms(policy, failures, nullptr, jitter)));
    }
  }
}

}  // namespace consensus::serve
