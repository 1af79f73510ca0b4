// The long-lived analysis server (DESIGN.md §15).
//
// One Server owns a listening socket (Unix-domain or TCP), a
// ContextPool of warm AnalysisContexts, and the process-wide par
// ThreadPool. Connections get a dedicated I/O thread (blocking reads
// are cheap; request *execution* is what must share the pool): each
// request runs as a par::TaskGroup task, so query work lands on the
// same work-stealing lanes as every other parallel region -- including
// the artifact builds the query triggers -- and HP_THREADS=1 degrades
// the whole server to deterministic inline execution.
//
// Lifecycle: start() binds and spawns the accept thread; request_stop()
// (also triggered by the protocol `shutdown` command and by SIGINT in
// `hyperproteome serve`) closes the listener and half-closes every
// connection (SHUT_RD), so in-flight requests drain and their replies
// are still written; wait() joins everything.
//
// Observability: every request runs under a `serve.request` root span
// (command-specific child spans come from the query layer), and the
// server.* metrics family tracks requests, errors, timeouts, cache
// hits/misses/evictions, open connections, queue depth and per-command
// latency histograms. Metric names come from a fixed set: a command
// name a client invents is recorded under `server.cmd.unknown_ns`.
//
// Resources: a connection whose client hung up is joined and dropped
// the next time the accept thread wakes, so threads, stacks and the
// `server.connections` gauge track live connections only.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/context_pool.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"

namespace hp::serve {

struct ServerOptions {
  Endpoint endpoint;
  /// ContextPool byte budget (default 1 GiB).
  std::size_t cache_budget_bytes = std::size_t{1} << 30;
  /// Per-request deadline when the request carries none; 0 = unlimited.
  std::uint64_t default_timeout_ms = 0;
  /// When non-empty, append every request frame here (one per line) for
  /// later replay with `hp_cli query --script`. The file is opened once
  /// by start() and flushed after every frame.
  std::string record_path;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Open the journal (if any), bind, listen, spawn the accept thread.
  /// Throws InvalidInputError when the journal cannot be opened and
  /// SocketError when the endpoint cannot be bound.
  void start();

  /// Begin shutdown: stop accepting, half-close connections. Safe from
  /// any thread, including a request handler. Idempotent.
  void request_stop();

  /// Join the accept thread and every connection thread. Returns once
  /// all in-flight requests have drained.
  void wait();

  bool stopping() const {
    return stop_.load(std::memory_order_acquire);
  }

  /// The bound endpoint; for tcp port 0 this carries the real port
  /// after start().
  const Endpoint& endpoint() const { return options_.endpoint; }

  ContextPool& pool() { return *pool_; }

  /// Execute one parsed request exactly as a connection would (metrics,
  /// tracing, timeout handling included) -- the in-process path used by
  /// tests and the load generator to measure the server without socket
  /// noise.
  proto::Response handle(const proto::Request& request);

 private:
  struct Connection {
    Socket socket;
    std::thread thread;
    bool finished = false;  ///< guarded by connections_mutex_
  };

  void accept_main();
  void connection_main(Connection* connection);
  /// Join and drop every finished connection. Caller holds
  /// connections_mutex_.
  void reap_finished_connections();
  proto::Response dispatch(const proto::Request& request,
                           std::uint64_t deadline_ns);
  void record_frame(const std::string& frame);

  ServerOptions options_;
  Socket listener_;
  std::thread accept_thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::size_t live_connections_ = 0;  ///< guarded by connections_mutex_

  std::mutex record_mutex_;
  std::ofstream journal_;  ///< open iff record_path is set; record_mutex_

  std::unique_ptr<ContextPool> pool_;
};

}  // namespace hp::serve
