// Minimal blocking client for the mrmcheckd protocol: connect to the unix
// socket, send one JSON line, read one JSON reply line. Used by mrmcheckc,
// the daemon tests, and bench_daemon's concurrent-client lanes.
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace csrlmrm::daemon {

class Client {
 public:
  /// Connects immediately; throws std::runtime_error when the socket cannot
  /// be reached.
  explicit Client(const std::string& socket_path);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends `request` as one frame and blocks for the reply line. Requests on
  /// one Client must not interleave across threads (one in flight at a
  /// time); use one Client per thread for concurrency.
  obs::JsonValue roundtrip(const obs::JsonValue& request);

  /// Sends one already-framed line (it must end in '\n') as is and blocks
  /// for the reply line — how a test speaks malformed or hostile input the
  /// JsonValue writer would never produce.
  obs::JsonValue roundtrip_line(const std::string& line);

 private:
  /// Reads up to the next newline (buffering any overshoot).
  std::string read_line();

  int fd_ = -1;
  std::string buffer_;
  // What one read() may return: 64 KiB, so a batch reply of a few hundred
  // KB takes a handful of system calls. A member, reused across replies.
  std::vector<char> chunk_ = std::vector<char>(64 * 1024);
};

}  // namespace csrlmrm::daemon
