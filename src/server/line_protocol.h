#ifndef HETDB_SERVER_LINE_PROTOCOL_H_
#define HETDB_SERVER_LINE_PROTOCOL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "server/server.h"

namespace hetdb {

/// Longest deadline budget accepted (one day). It keeps `now() + budget`
/// far inside steady_clock's range.
constexpr int64_t kMaxDeadlineMillis = 24 * 60 * 60 * 1000;

/// Parses a deadline budget: whole milliseconds in [0, kMaxDeadlineMillis]
/// and nothing else (no space, no suffix). Returns nullopt for anything
/// else. The DEADLINE verb and `sql_shell`'s `\deadline` use it.
std::optional<std::chrono::milliseconds> ParseDeadline(const std::string& text);

/// Minimal line-oriented text protocol over a stream socket — the "front
/// door" a remote client (or netcat) speaks to the serving layer. One
/// request or response per '\n'-terminated line:
///
///   client                          server
///   ------------------------------  -----------------------------------
///                                   HETDB 1 ready
///   HELLO tenant-a                  OK tenant tenant-a
///   DEADLINE 250                    OK deadline 250ms
///   DEADLINE -5                     ERR InvalidArgument ... (budget kept)
///   QUERY select ... from ...       ROWS <sent> <total> <cols> <micros>
///                                   <tab-separated row> x sent
///                                   DONE
///   QUERY select bad sql            ERR <Code> <message>
///   BYE                             (connection closes)
///
/// Every QUERY goes through the same Session/admission path as in-process
/// clients: a shed query surfaces as `ERR ResourceExhausted shed: ...`.
/// `DEADLINE 0` clears the budget. A line longer than kMaxLineBytes gets
/// `ERR InvalidArgument line longer than ...` and the connection closes.
///
/// Serve(fd) speaks the protocol over any connected stream fd (socketpair
/// in tests); Listen() opens a TCP listener with an accept loop and one
/// thread per connection.
class LineProtocolServer {
 public:
  /// Longest request line (excluding its '\n') the server buffers.
  static constexpr size_t kMaxLineBytes = size_t{1} << 20;
  /// Result rows streamed back per query; the ROWS header's total count
  /// summarizes the rest.
  static constexpr size_t kMaxResultRows = 100;

  explicit LineProtocolServer(Server* server);
  ~LineProtocolServer();

  LineProtocolServer(const LineProtocolServer&) = delete;
  LineProtocolServer& operator=(const LineProtocolServer&) = delete;

  /// Serves one established connection until BYE/EOF/error. Blocking; takes
  /// ownership of `fd` (closes it on return).
  void Serve(int fd);

  /// Binds 127.0.0.1:`port` (0 = ephemeral, see port()) and starts the
  /// accept loop. Returns the bound port or an error.
  Result<uint16_t> Listen(uint16_t port);
  uint16_t port() const { return port_; }

  /// Stops accepting, closes the listener, and joins connection threads.
  /// Idempotent; the destructor calls it.
  void Stop();

 private:
  void AcceptLoop();

  Server* const server_;

  std::atomic<bool> stopping_{false};
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::mutex threads_mutex_;
  std::vector<std::thread> connection_threads_;
};

}  // namespace hetdb

#endif  // HETDB_SERVER_LINE_PROTOCOL_H_
