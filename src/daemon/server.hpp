// The unix-domain-socket front of mrmcheckd: an accept loop handing each
// connection to its own thread, which reads newline-delimited JSON requests
// (see daemon/protocol.hpp) and writes one reply line per request.
//
// Connection threads block in submit(...).get() while the dispatcher serves
// their request — which is exactly what makes cross-client batching emerge:
// requests arriving while a batch runs queue up and are grouped into the
// next one. Load/stats/ping are answered inline (they are cheap and take no
// numeric locks).
//
// handle_line() is the transport-free core — tests drive the full protocol
// through it without a socket; the socket layer only does framing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "daemon/model_registry.hpp"
#include "daemon/service.hpp"

namespace csrlmrm::daemon {

struct ServerOptions {
  /// Filesystem path of the listening socket; unlinked on stop. Must fit
  /// sockaddr_un (~100 bytes).
  std::string socket_path;
  std::size_t registry_capacity = ModelRegistry::kDefaultCapacity;
  ServiceOptions service;
};

class DaemonServer {
 public:
  explicit DaemonServer(ServerOptions options);
  ~DaemonServer();

  DaemonServer(const DaemonServer&) = delete;
  DaemonServer& operator=(const DaemonServer&) = delete;

  /// Binds the socket and spawns the accept loop. Throws std::runtime_error
  /// when the path cannot be bound.
  void start();

  /// Blocks until a client sends {"op":"shutdown"} (or stop() is called).
  void wait_for_shutdown();

  /// Closes the listener, joins every connection thread, unlinks the socket.
  /// Idempotent. Returns in bounded time even while a client leaves its
  /// replies unread: once stopping, a connection answers no further line
  /// and gives up a reply its client does not drain within a 50 ms wait.
  void stop();

  /// Handles one request line and returns the reply line (newline-
  /// terminated). Never throws: protocol errors become {"ok":false,...}.
  std::string handle_line(const std::string& line);

  /// Connection threads started and not yet joined. A thread that has
  /// finished is joined when the next connection is accepted (or by
  /// stop()), so a long-lived daemon holds at most the threads of its open
  /// connections plus those that closed since the last accept.
  std::size_t connection_threads();
  /// Connections whose thread is still serving them (it has not yet
  /// deregistered its socket).
  std::size_t open_connections();

  ModelRegistry& registry() { return registry_; }
  CheckService& service() { return service_; }
  const std::string& socket_path() const { return options_.socket_path; }

 private:
  void accept_loop();
  void serve_connection(int fd, std::uint64_t id);
  /// Takes the finished connection threads out of connections_ (caller
  /// holds connections_mutex_), for joining outside the lock.
  std::vector<std::thread> take_finished_connections_locked();

  struct Connection {
    std::uint64_t id;
    std::thread thread;
  };

  ServerOptions options_;
  ModelRegistry registry_;
  CheckService service_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::mutex connections_mutex_;
  std::vector<Connection> connections_;  // lint:guarded_by(connections_mutex_)
  /// Ids of connections whose thread has left serve_connection's loop.
  std::vector<std::uint64_t> finished_;  // lint:guarded_by(connections_mutex_)
  std::uint64_t next_connection_id_ = 0;  // lint:guarded_by(connections_mutex_)
  /// Open connection fds, so stop() can shutdown() blocked readers before
  /// joining. A thread removes its fd (under the mutex) before closing it.
  std::vector<int> connection_fds_;  // lint:guarded_by(connections_mutex_)
  std::atomic<bool> running_{false};

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_requested_;
  bool shutdown_ = false;  // lint:guarded_by(shutdown_mutex_)
};

}  // namespace csrlmrm::daemon
