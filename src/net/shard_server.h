#ifndef ADAMINE_NET_SHARD_SERVER_H_
#define ADAMINE_NET_SHARD_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "serve/retrieval_service.h"
#include "util/status.h"

namespace adamine::net {

struct ShardServerConfig {
  /// Bind address (IPv4 dotted quad or "localhost").
  std::string host = "127.0.0.1";
  /// TCP port; 0 lets the kernel pick a free one (read it back via port()).
  int port = 0;
  /// Worker threads running QueryBatchScored. The event loop itself never
  /// scores — a slow query must not stall other connections' reads/writes.
  int num_workers = 2;
  /// Connections idle (no bytes, no in-flight work) longer than this are
  /// reaped; 0 disables reaping.
  double idle_timeout_ms = 0.0;
  /// Frames announcing a larger payload are rejected as garbage.
  size_t max_payload_bytes = kDefaultMaxPayload;
  /// Accepted connections beyond this are immediately closed; 0 = no cap.
  int64_t max_connections = 0;
  /// Stop() waits this long for in-flight requests and queued responses to
  /// flush before closing connections anyway.
  double drain_timeout_ms = 2000.0;
  /// Scope string for wire-level fault points: the server consults
  /// "<point>.<fault_scope>" before the bare point (fault::ScopedPoint), so
  /// tests running several servers in one process can tear exactly one.
  std::string fault_scope;

  Status Validate() const;
};

/// Counters since Start (monotonic; Snapshot is a consistent copy).
struct ShardServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_reaped = 0;   // Closed by the idle reaper.
  int64_t frames_rejected = 0;      // Torn/garbage frames (connection dropped).
  int64_t requests_ok = 0;          // Query responses carrying results.
  int64_t requests_failed = 0;      // Query responses carrying an error.
  int64_t resets_injected = 0;      // net.conn.reset firings.
};

/// Nonblocking event-loop TCP server fronting one RetrievalService shard
/// (see DESIGN.md, "Network serving"). One epoll loop thread owns every
/// connection: per-connection state machines absorb partial reads (frames
/// reassembled incrementally by FrameAssembler) and partial writes (pending
/// bytes drain under EPOLLOUT), so a slow or malicious peer can never block
/// the loop. Scoring happens on a small worker pool; responses travel back
/// to the loop over an eventfd-signalled completion queue, keeping all
/// socket writes single-threaded. Writes are SIGPIPE-safe (MSG_NOSIGNAL).
///
/// The request deadline crosses the wire as a remaining-budget duration;
/// the server re-anchors it on arrival and hands the shrunken budget to the
/// service's QueryOptions, so the admission/deadline stack enforces it
/// server-side — a request that expires in the server's own queue is
/// answered with kDeadlineExceeded without scoring.
///
/// A torn or garbage frame is answered with a kDataLoss response (when the
/// stream was intact enough to frame one) and the connection is closed:
/// frame boundaries are length-derived, so a corrupt stream cannot be
/// resynchronised.
///
/// Stop() drains gracefully: the listener closes, in-flight requests finish
/// and flush (bounded by drain_timeout_ms), then connections close.
/// Terminate() is the kill -9 twin: every connection is hard-closed with
/// RST and nothing is flushed — peers observe exactly what a dead process
/// would give them.
class ShardServer {
 public:
  ShardServer() = default;
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Binds, listens, and starts the loop + workers. `service` must outlive
  /// Stop/Terminate.
  Status Start(std::shared_ptr<serve::RetrievalService> service,
               const ShardServerConfig& config);

  /// Graceful drain; idempotent, safe after Terminate.
  void Stop();

  /// Abrupt shutdown: RSTs every connection, discards queued work.
  void Terminate();

  /// The bound port (after Start; the kernel's pick when config.port == 0).
  int port() const { return port_; }

  ShardServerStats Snapshot() const;

 private:
  struct Conn {
    Fd fd;
    std::unique_ptr<FrameAssembler> assembler;
    /// Encoded frames waiting for the socket to accept them; offset is how
    /// much of front() already went out (partial writes).
    std::deque<std::string> out;
    size_t out_offset = 0;
    bool close_after_flush = false;
    /// Hard-close (RST) once in-flight work resolves: net.conn.reset.
    bool reset_pending = false;
    int64_t inflight = 0;
    TimePoint last_active;
  };

  /// A decoded query waiting for a worker. `arrival` anchors the wire
  /// deadline (remaining budget measured from frame decode).
  struct WorkItem {
    uint64_t conn_id = 0;
    QueryRequest request;
    TimePoint arrival;
  };

  /// A worker's finished response heading back to the loop thread.
  struct Completion {
    uint64_t conn_id = 0;
    std::string bytes;
    bool ok = false;           // Status carried inside was kOk.
    bool reset = false;        // net.conn.reset fired: RST, don't write.
  };

  void LoopMain();
  void WorkerMain();

  /// Reads whatever the socket has (honouring net.read.short), feeds the
  /// assembler, dispatches complete frames. Returns false when the
  /// connection must be dropped (EOF, error, or garbage frames).
  bool HandleReadable(uint64_t conn_id, Conn& conn);

  /// Flushes conn.out as far as the socket allows. Returns false when the
  /// connection died under the write.
  bool HandleWritable(uint64_t conn_id, Conn& conn);

  /// Queues encoded bytes on the connection and arms EPOLLOUT.
  void QueueWrite(uint64_t conn_id, Conn& conn, std::string bytes);

  void UpdateEpoll(uint64_t conn_id, Conn& conn);
  void CloseConn(uint64_t conn_id, bool reset);
  void AcceptPending();
  void DrainCompletions();
  void ReapIdle(TimePoint now);

  /// True when the scoped (then bare) variant of a wire fault point fires.
  bool WireFault(const char* point) const;

  ShardServerConfig config_;
  std::shared_ptr<serve::RetrievalService> service_;
  int port_ = 0;

  Fd listen_fd_;
  Fd epoll_fd_;
  Fd wake_fd_;  // eventfd: workers / Stop / Terminate wake the loop.

  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  /// Loop-thread-only state (no lock: only LoopMain touches it).
  std::unordered_map<uint64_t, Conn> conns_;
  uint64_t next_conn_id_ = 1;

  /// Work queue: loop -> workers.
  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::deque<WorkItem> work_;
  bool work_shutdown_ = false;

  /// Completion queue: workers -> loop (paired with a wake_fd_ write).
  std::mutex done_mu_;
  std::deque<Completion> done_;

  /// Lifecycle flags, read by the loop each wakeup.
  std::mutex state_mu_;
  bool draining_ = false;
  bool terminating_ = false;
  bool started_ = false;
  bool loop_exited_ = false;
  std::condition_variable state_cv_;

  mutable std::mutex stats_mu_;
  ShardServerStats stats_;
};

}  // namespace adamine::net

#endif  // ADAMINE_NET_SHARD_SERVER_H_
