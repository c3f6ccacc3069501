#include "daemon/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <utility>

#include "io/model_files.hpp"
#include "lang/builder.hpp"
#include "obs/json.hpp"
#include "obs/stats.hpp"

namespace csrlmrm::daemon {

namespace {

using obs::JsonValue;

JsonValue error_json(const std::string& message) {
  JsonValue reply = JsonValue::object();
  reply.set("ok", JsonValue(false));
  reply.set("error", JsonValue(message));
  return reply;
}

std::string required_string(const JsonValue& request, const char* key) {
  const JsonValue* member = request.find(key);
  if (member == nullptr || !member->is_string()) {
    throw std::invalid_argument(std::string("'") + key + "' must be a string");
  }
  return member->as_string();
}

/// How long a reply waits for a full socket to drain before it looks again
/// at whether the server is stopping.
constexpr int kSendWaitMs = 50;

/// Writes all of `bytes`; false once the client is gone, or once the server
/// stops while the client is not reading (its socket stays full). A client
/// that pipelines requests and never reads its replies would otherwise hold
/// its connection thread in send() for good, and stop() joins that thread.
bool send_all(int fd, const std::string& bytes, const std::atomic<bool>& running) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    // MSG_NOSIGNAL: a client that hung up (or a stop() racing a shutdown
    // reply) must surface as a failed send, not a SIGPIPE that kills the
    // whole daemon mid-teardown with the socket file still on disk.
    const ssize_t sent = ::send(fd, bytes.data() + written, bytes.size() - written,
                                MSG_NOSIGNAL | MSG_DONTWAIT);
    if (sent > 0) {
      written += static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) && running.load()) {
      pollfd writable{fd, POLLOUT, 0};
      ::poll(&writable, 1, kSendWaitMs);
      continue;
    }
    return false;
  }
  return true;
}

core::Mrm load_requested_model(const JsonValue& request) {
  if (const JsonValue* spec = request.find("spec")) {
    return std::move(*lang::build_model_from_file(spec->as_string()).model);
  }
  const std::string tra = required_string(request, "tra");
  const std::string lab = required_string(request, "lab");
  const std::string rewr = required_string(request, "rewr");
  const JsonValue* rewi = request.find("rewi");
  return io::load_mrm(tra, lab, rewr, rewi != nullptr ? rewi->as_string() : "");
}

}  // namespace

DaemonServer::DaemonServer(ServerOptions options)
    : options_(std::move(options)),
      registry_(options_.registry_capacity),
      service_(registry_, options_.service) {}

DaemonServer::~DaemonServer() { stop(); }

std::string DaemonServer::handle_line(const std::string& line) {
  JsonValue reply;
  JsonValue id;  // echoed when the request carried one
  try {
    const JsonValue request = obs::parse_json(line);
    if (const JsonValue* requested_id = request.find("id")) id = *requested_id;
    const std::string op = required_string(request, "op");
    if (op == "ping") {
      reply = JsonValue::object();
      reply.set("ok", JsonValue(true));
    } else if (op == "load") {
      const JsonValue* name = request.find("name");
      const auto resident = registry_.add(load_requested_model(request),
                                          name != nullptr ? name->as_string() : "");
      reply = JsonValue::object();
      reply.set("ok", JsonValue(true));
      reply.set("model", JsonValue(resident->fingerprint));
      reply.set("states", JsonValue(static_cast<double>(resident->model->num_states())));
      reply.set("resident", JsonValue(static_cast<double>(registry_.size())));
    } else if (op == "check") {
      const CheckReply checked = service_.submit(check_request_from_json(request)).get();
      reply = check_reply_to_json(checked);
    } else if (op == "stats") {
      reply = JsonValue::object();
      reply.set("ok", JsonValue(true));
      reply.set("stats", obs::snapshot_to_json(obs::StatsRegistry::global().snapshot()));
    } else if (op == "shutdown") {
      {
        const std::lock_guard<std::mutex> lock(shutdown_mutex_);
        shutdown_ = true;
      }
      shutdown_requested_.notify_all();
      reply = JsonValue::object();
      reply.set("ok", JsonValue(true));
    } else {
      reply = error_json("unknown op '" + op + "'");
    }
  } catch (const std::exception& error) {
    reply = error_json(error.what());
  }
  if (!id.is_null()) reply.set("id", id);
  return frame(reply);
}

void DaemonServer::start() {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("mrmcheckd: cannot create socket");

  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(address.sun_path)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("mrmcheckd: socket path too long: " + options_.socket_path);
  }
  std::memcpy(address.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("mrmcheckd: cannot bind '" + options_.socket_path + "'");
  }
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void DaemonServer::accept_loop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load()) return;
      if (errno == EINTR) continue;  // interrupted by a signal: retry
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
        // Out of descriptors or memory: the pending connection stays queued
        // and accept() would fail again at once. Retrying in a tight loop
        // spins a core, starving the dispatcher that would free resources,
        // so wait briefly first.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      continue;  // transient accept failure
    }
    std::vector<std::thread> finished;
    {
      const std::lock_guard<std::mutex> lock(connections_mutex_);
      finished = take_finished_connections_locked();
      const std::uint64_t id = next_connection_id_++;
      connection_fds_.push_back(fd);
      connections_.push_back({id, std::thread([this, fd, id] { serve_connection(fd, id); })});
    }
    // Reap the threads of connections that have closed since the last
    // accept; each has already left serve_connection's loop.
    for (std::thread& thread : finished) thread.join();
  }
}

std::vector<std::thread> DaemonServer::take_finished_connections_locked() {
  std::vector<std::thread> finished;
  for (const std::uint64_t id : finished_) {
    const auto it = std::find_if(connections_.begin(), connections_.end(),
                                 [id](const Connection& c) { return c.id == id; });
    if (it == connections_.end()) continue;
    finished.push_back(std::move(it->thread));
    connections_.erase(it);
  }
  finished_.clear();
  return finished;
}

std::size_t DaemonServer::connection_threads() {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  return connections_.size();
}

std::size_t DaemonServer::open_connections() {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  return connection_fds_.size();
}

void DaemonServer::serve_connection(int fd, std::uint64_t id) {
  obs::counter_add("daemon.connections");
  std::string buffer;
  // Bytes of `buffer` known to hold no newline: a long line is scanned once.
  std::size_t scanned = 0;
  char chunk[4096];
  bool open = true;
  // A stopping server reads and answers nothing more: after stop()'s
  // SHUT_RD, read() still returns what the client had queued.
  while (open && running_.load()) {
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;  // interrupted, not hung up: retry
    if (got <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(got));
    // Answer every complete line, then drop them all with one erase per read.
    std::size_t consumed = 0;
    std::size_t newline;
    bool too_long = false;
    while (open && running_.load() &&
           (newline = buffer.find('\n', scanned)) != std::string::npos) {
      too_long = newline - consumed > kMaxRequestLineBytes;
      if (too_long) break;
      const std::string line = buffer.substr(consumed, newline - consumed);
      consumed = newline + 1;
      scanned = consumed;
      if (!line.empty()) open = send_all(fd, handle_line(line), running_);
    }
    buffer.erase(0, consumed);
    scanned = buffer.size();
    if (open && (too_long || buffer.size() > kMaxRequestLineBytes)) {
      // A line past the cap, finished or not: answer once, then hang up
      // rather than buffer without bound for one client.
      send_all(fd,
               frame(error_json("request line exceeds " + std::to_string(kMaxRequestLineBytes) +
                                " bytes; closing the connection")),
               running_);
      open = false;
    }
  }
  {
    // Deregister before closing so stop() never shutdown()s a recycled fd,
    // and offer the thread for joining at the next accept.
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (std::size_t i = 0; i < connection_fds_.size(); ++i) {
      if (connection_fds_[i] == fd) {
        connection_fds_.erase(connection_fds_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    finished_.push_back(id);
  }
  ::close(fd);
}

void DaemonServer::wait_for_shutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_requested_.wait(lock, [this] { return shutdown_; });
}

void DaemonServer::stop() {
  if (!running_.exchange(false)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Wake the blocking accept(); shutdown() makes it return immediately.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::vector<Connection> connections;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    // SHUT_RD only: the blocking read() returns 0 and the thread winds down,
    // but an in-flight reply — the shutdown ack in particular — can still be
    // written before the thread closes its own fd. A reply the client does
    // not read gives up within kSendWaitMs (send_all), so every join ends.
    for (const int fd : connection_fds_) ::shutdown(fd, SHUT_RD);
    connections.swap(connections_);
    finished_.clear();
  }
  for (Connection& connection : connections) connection.thread.join();
  ::unlink(options_.socket_path.c_str());
  {
    const std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_ = true;
  }
  shutdown_requested_.notify_all();
}

}  // namespace csrlmrm::daemon
