// RticServer: the multi-client TCP front-end of the constraint monitor.
//
//   ServerOptions opts;                    // port 0 = ephemeral
//   auto server = Unwrap(RticServer::Start(opts));
//   ... clients connect to server->address() (see server/client.h) ...
//   server->Stop();
//
// Architecture. One accept loop, one thread per client session, one
// monitor per tenant namespace owned by exactly one worker thread — a
// plain ConstraintMonitor, or a shard::ShardedMonitor when the server's
// default_shard_count or the session's hello asks for one. Sessions never touch a monitor directly: each request becomes a
// job on the tenant's BoundedQueue, the worker executes jobs in arrival
// order against its monitor (which therefore needs no locking), and the
// session thread waits for the pre-encoded response frame. The queue bound
// is the admission decision — when a tenant's worker falls behind,
// ApplyBatch requests are refused with OVERLOADED instead of buffering
// without bound, while control requests (create table, register
// constraint, stats) wait for space. Accepted batches always drain, even
// through Stop(), so no accepted batch's violations are lost.
//
// Timestamps. A monitor demands strictly increasing timestamps, which
// concurrent clients cannot coordinate on. A batch sent with timestamp 0
// is stamped current_time + 1 by the worker at execution; the verdict
// response carries the assigned timestamp.
//
// Durability. When monitor_options.wal_dir is set, each tenant, sharded or
// not, owns one log at <wal_dir>/<tenant>/ and the worker runs Recover()
// right before the tenant's first batch — so tables and constraints
// registered earlier on the session are covered. Register everything
// before the first ApplyBatch on durable tenants.

#ifndef RTIC_SERVER_SERVER_H_
#define RTIC_SERVER_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "monitor/monitor.h"
#include "replication/tcp_transport.h"
#include "server/server_format.h"

namespace rtic {
namespace server {

struct ServerOptions {
  /// Port to listen on (127.0.0.1); 0 binds an ephemeral port — read it
  /// back with port().
  std::uint16_t port = 0;

  /// Per-tenant admission queue bound. A tenant with this many requests
  /// in flight refuses further ApplyBatch requests with OVERLOADED.
  std::size_t queue_capacity = 64;

  /// Template for every tenant's monitor. A non-empty wal_dir makes
  /// tenants durable, each under its own <wal_dir>/<tenant> subdirectory.
  MonitorOptions monitor_options;

  /// Shards for tenants whose hello does not request a count (arg 0).
  /// 0 keeps the plain single ConstraintMonitor; N >= 1 gives new tenants
  /// an N-shard ShardedMonitor (a durable one still keeps one log at
  /// <wal_dir>/<tenant>). A hello may request its own count, up
  /// to kMaxTenantShards; a nonzero request against an existing tenant
  /// must match how the tenant was created.
  std::size_t default_shard_count = 0;
};

/// Upper bound on a tenant's shard count (a hello requesting more is
/// refused — shards are per tenant).
inline constexpr std::size_t kMaxTenantShards = 64;

class RticServer {
 public:
  /// Binds, listens, and starts the accept loop.
  static Result<std::unique_ptr<RticServer>> Start(ServerOptions options);

  ~RticServer();
  RticServer(const RticServer&) = delete;
  RticServer& operator=(const RticServer&) = delete;

  std::uint16_t port() const { return listener_->port(); }

  /// "127.0.0.1:<port>", ready for RticClient::Connect / TcpConnect.
  std::string address() const;

  /// Stops accepting, closes every live session, drains each tenant's
  /// accepted jobs, and joins all threads. Idempotent; also run by the
  /// destructor.
  void Stop();

 private:
  struct Job;
  struct Tenant;
  struct Session;

  explicit RticServer(ServerOptions options);

  void AcceptLoop();
  void SessionLoop(std::shared_ptr<replication::Transport> transport);
  std::string HandleRequest(Tenant* tenant, const Message& msg);

  /// Queues `work` for the tenant's worker and waits for its response
  /// frame. With admission=true a full queue yields OVERLOADED instead of
  /// waiting.
  std::string RunOnWorker(Tenant* tenant, std::function<std::string()> work,
                          bool admission);

  /// Finds or creates the named tenant (monitor + worker thread).
  /// `requested_shards` is the hello's arg: 0 accepts the server default
  /// (or the existing tenant as-is); nonzero creates the tenant with that
  /// many shards or fails if an existing tenant was created differently.
  Result<Tenant*> GetTenant(const std::string& name,
                            std::uint64_t requested_shards);

  static void WorkerLoop(Tenant* tenant);
  void StopInternal();

  ServerOptions options_;
  std::unique_ptr<replication::TcpListener> listener_;
  std::thread accept_thread_;
  std::once_flag stop_once_;

  std::mutex mu_;
  bool stopping_ = false;  // guarded by mu_
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;  // guarded by mu_
  std::vector<Session> sessions_;  // guarded by mu_
};

}  // namespace server
}  // namespace rtic

#endif  // RTIC_SERVER_SERVER_H_
