#include "daemon/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "daemon/protocol.hpp"

namespace csrlmrm::daemon {

Client::Client(const std::string& socket_path) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("cannot create socket");
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(address.sun_path)) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("cannot connect to '" + socket_path + "'");
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

obs::JsonValue Client::roundtrip(const obs::JsonValue& request) {
  return roundtrip_line(frame(request));
}

obs::JsonValue Client::roundtrip_line(const std::string& line) {
  std::size_t written = 0;
  while (written < line.size()) {
    // MSG_NOSIGNAL: a daemon that hung up turns into an exception, not SIGPIPE.
    const ssize_t sent =
        ::send(fd_, line.data() + written, line.size() - written, MSG_NOSIGNAL);
    if (sent <= 0) throw std::runtime_error("connection lost while sending");
    written += static_cast<std::size_t>(sent);
  }
  return obs::parse_json(read_line());
}

std::string Client::read_line() {
  // Only bytes appended since the last scan can hold the newline, so a reply
  // spanning many reads is scanned once, not once per read.
  std::size_t scanned = 0;
  for (;;) {
    const std::size_t newline = buffer_.find('\n', scanned);
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }
    scanned = buffer_.size();
    const ssize_t got = ::read(fd_, chunk_.data(), chunk_.size());
    if (got < 0 && errno == EINTR) continue;  // interrupted, not closed: retry
    if (got <= 0) throw std::runtime_error("connection closed by daemon");
    buffer_.append(chunk_.data(), static_cast<std::size_t>(got));
  }
}

}  // namespace csrlmrm::daemon
