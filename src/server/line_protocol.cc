#include "server/line_protocol.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>

#include "common/logging.h"
#include "storage/column.h"

namespace hetdb {

std::optional<std::chrono::milliseconds> ParseDeadline(const std::string& text) {
  int64_t millis = 0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, millis);
  if (error != std::errc() || end != last || millis < 0 ||
      millis > kMaxDeadlineMillis) {
    return std::nullopt;
  }
  return std::chrono::milliseconds(millis);
}

namespace {

/// Buffered line reader over a stream fd.
class LineReader {
 public:
  enum class Outcome { kLine, kEnd, kTooLong };

  explicit LineReader(int fd) : fd_(fd) {}

  /// Reads up to the next '\n' (stripped, along with a preceding '\r').
  /// kEnd on EOF/error with no pending line; kTooLong once more than
  /// LineProtocolServer::kMaxLineBytes arrived without a '\n'.
  Outcome ReadLine(std::string* line) {
    line->clear();
    size_t scanned = 0;
    for (;;) {
      const size_t newline = buffer_.find('\n', scanned);
      if (newline != std::string::npos &&
          newline <= LineProtocolServer::kMaxLineBytes) {
        *line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return Outcome::kLine;
      }
      if (buffer_.size() > LineProtocolServer::kMaxLineBytes) {
        return Outcome::kTooLong;
      }
      scanned = buffer_.size();
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return Outcome::kEnd;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

bool WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string FormatValue(const Column& column, size_t row) {
  char buf[64];
  switch (column.type()) {
    case DataType::kInt32:
      std::snprintf(buf, sizeof(buf), "%d",
                    static_cast<const Int32Column&>(column).value(row));
      return buf;
    case DataType::kInt64:
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(
                        static_cast<const Int64Column&>(column).value(row)));
      return buf;
    case DataType::kDouble:
      std::snprintf(buf, sizeof(buf), "%.4f",
                    static_cast<const DoubleColumn&>(column).value(row));
      return buf;
    case DataType::kString:
      return std::string(static_cast<const StringColumn&>(column).value(row));
  }
  return "?";
}

std::string OneLine(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

}  // namespace

LineProtocolServer::LineProtocolServer(Server* server) : server_(server) {
  HETDB_CHECK(server_ != nullptr);
}

LineProtocolServer::~LineProtocolServer() { Stop(); }

void LineProtocolServer::Serve(int fd) {
  LineReader reader(fd);
  SessionPtr session = server_->OpenSession("default");
  std::chrono::milliseconds deadline_budget{0};  // 0 = no deadline

  WriteAll(fd, "HETDB 1 ready\n");
  std::string line;
  while (!stopping_.load(std::memory_order_relaxed)) {
    const LineReader::Outcome read = reader.ReadLine(&line);
    if (read == LineReader::Outcome::kEnd) break;
    if (read == LineReader::Outcome::kTooLong) {
      WriteAll(fd, "ERR InvalidArgument line longer than " +
                       std::to_string(kMaxLineBytes) + " bytes\n");
      break;
    }
    if (line.empty()) continue;
    const size_t space = line.find(' ');
    std::string verb = line.substr(0, space);
    std::string rest =
        space == std::string::npos ? "" : line.substr(space + 1);
    for (char& c : verb) c = static_cast<char>(std::toupper(c));

    if (verb == "BYE" || verb == "QUIT") {
      break;
    } else if (verb == "HELLO") {
      const std::string tenant = rest.empty() ? "default" : rest;
      session = server_->OpenSession(tenant);
      if (!WriteAll(fd, "OK tenant " + tenant + "\n")) break;
    } else if (verb == "DEADLINE") {
      const std::optional<std::chrono::milliseconds> budget =
          ParseDeadline(rest);
      if (!budget.has_value()) {
        if (!WriteAll(fd, "ERR InvalidArgument DEADLINE takes whole "
                          "milliseconds in [0, " +
                              std::to_string(kMaxDeadlineMillis) +
                              "]; deadline stays " +
                              std::to_string(deadline_budget.count()) +
                              "ms\n")) {
          break;
        }
        continue;
      }
      deadline_budget = *budget;
      if (!WriteAll(fd, "OK deadline " +
                            std::to_string(deadline_budget.count()) +
                            "ms\n")) {
        break;
      }
    } else if (verb == "QUERY") {
      SubmitOptions options;
      if (deadline_budget.count() > 0) {
        options.deadline = std::chrono::steady_clock::now() + deadline_budget;
      }
      const auto started = std::chrono::steady_clock::now();
      Result<TablePtr> result = session->ExecuteSql(rest, std::move(options));
      const int64_t micros =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - started)
              .count();
      if (!result.ok()) {
        if (!WriteAll(fd, "ERR " +
                              std::string(StatusCodeToString(
                                  result.status().code())) +
                              " " + OneLine(result.status().message()) +
                              "\n")) {
          break;
        }
        continue;
      }
      const Table& table = *result.value();
      const size_t total = table.num_rows();
      const size_t sent = std::min(total, kMaxResultRows);
      std::string reply = "ROWS " + std::to_string(sent) + " " +
                          std::to_string(total) + " " +
                          std::to_string(table.num_columns()) + " " +
                          std::to_string(micros) + "\n";
      for (size_t row = 0; row < sent; ++row) {
        for (size_t col = 0; col < table.num_columns(); ++col) {
          if (col > 0) reply += '\t';
          reply += FormatValue(*table.columns()[col], row);
        }
        reply += '\n';
      }
      reply += "DONE\n";
      if (!WriteAll(fd, reply)) break;
    } else {
      if (!WriteAll(fd, "ERR InvalidArgument unknown verb " + verb + "\n")) {
        break;
      }
    }
  }
  ::close(fd);
}

Result<uint16_t> LineProtocolServer::Listen(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::Internal("bind: " + std::string(std::strerror(errno)));
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    return Status::Internal("listen: " + std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  listen_fd_.store(fd);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return port_;
}

void LineProtocolServer::AcceptLoop() {
  for (;;) {
    const int listener = listen_fd_.load();
    if (listener < 0) return;
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      if (errno == EINTR) continue;
      return;  // listener closed
    }
    std::lock_guard<std::mutex> lock(threads_mutex_);
    connection_threads_.emplace_back([this, fd] { Serve(fd); });
  }
}

void LineProtocolServer::Stop() {
  if (stopping_.exchange(true)) return;
  // Shutdown unblocks the accept() the loop is parked in; only close the fd
  // after the accept thread is joined, or a concurrently opened descriptor
  // could reuse the number and receive the accept call.
  const int listener = listen_fd_.exchange(-1);
  if (listener >= 0) {
    ::shutdown(listener, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listener >= 0) {
    ::close(listener);
  }
  std::lock_guard<std::mutex> lock(threads_mutex_);
  for (std::thread& thread : connection_threads_) {
    if (thread.joinable()) thread.join();
  }
  connection_threads_.clear();
}

}  // namespace hetdb
