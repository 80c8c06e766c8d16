#include "server/server.h"

#include <atomic>
#include <future>
#include <optional>
#include <utility>

#include "server/bounded_queue.h"
#include "shard/sharded_monitor.h"
#include "storage/codec.h"

namespace rtic {
namespace server {
namespace {

Status SessionError(const std::string& what) {
  return Status::FailedPrecondition("server session: " + what);
}

// Tenant names become WAL subdirectory names, so keep them to a safe
// alphabet (no separators, no dot-dot, no empties).
bool ValidTenantName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

// One queued request: the worker runs `work` (which touches the tenant's
// monitor) and fulfills `reply` with the encoded response frame.
struct RticServer::Job {
  std::function<std::string()> work;
  std::promise<std::string> reply;
};

struct RticServer::Tenant {
  explicit Tenant(std::size_t queue_capacity) : queue(queue_capacity) {}

  std::unique_ptr<MonitorLike> monitor;
  std::size_t shard_count = 0;  // 0: plain ConstraintMonitor
  bool durable = false;
  bool recovered = false;  // worker thread only
  BoundedQueue<Job> queue;
  std::thread worker;
};

struct RticServer::Session {
  std::shared_ptr<replication::Transport> transport;
  std::shared_ptr<std::atomic<bool>> done;
  std::thread thread;
};

RticServer::RticServer(ServerOptions options) : options_(std::move(options)) {}

RticServer::~RticServer() { Stop(); }

Result<std::unique_ptr<RticServer>> RticServer::Start(ServerOptions options) {
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("server: queue_capacity must be > 0");
  }
  std::unique_ptr<RticServer> server(new RticServer(std::move(options)));
  RTIC_ASSIGN_OR_RETURN(server->listener_,
                        replication::TcpListener::Listen(server->options_.port));
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

std::string RticServer::address() const {
  return "127.0.0.1:" + std::to_string(port());
}

void RticServer::Stop() {
  std::call_once(stop_once_, [this] { StopInternal(); });
}

void RticServer::StopInternal() {
  // Start() can fail before listener_ is set (e.g. the port is already
  // bound); the destructor still runs Stop() on that partial server.
  if (listener_) listener_->Close();
  if (accept_thread_.joinable()) accept_thread_.join();

  std::vector<Session> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    sessions.swap(sessions_);
  }
  // Wake sessions blocked in Recv(); then stop the queues so workers drain
  // the accepted jobs — fulfilling the replies sessions are waiting on —
  // and exit.
  for (Session& s : sessions) s.transport->Close();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, tenant] : tenants_) tenant->queue.Stop();
  }
  for (Session& s : sessions) {
    if (s.thread.joinable()) s.thread.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, tenant] : tenants_) {
    if (tenant->worker.joinable()) tenant->worker.join();
  }
}

void RticServer::AcceptLoop() {
  for (;;) {
    Result<std::unique_ptr<replication::Transport>> accepted =
        listener_->Accept();
    if (!accepted.ok()) return;  // listener closed (server stopping)
    std::shared_ptr<replication::Transport> transport(
        std::move(accepted).value());

    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      transport->Close();
      return;
    }
    // Reap sessions whose clients already went away, so a long-lived
    // server's session list tracks live connections, not history.
    for (std::size_t i = 0; i < sessions_.size();) {
      if (sessions_[i].done->load()) {
        sessions_[i].thread.join();
        if (i != sessions_.size() - 1) {
          sessions_[i] = std::move(sessions_.back());
        }
        sessions_.pop_back();
      } else {
        ++i;
      }
    }
    Session session;
    session.transport = transport;
    session.done = std::make_shared<std::atomic<bool>>(false);
    session.thread = std::thread([this, transport, done = session.done] {
      SessionLoop(transport);
      transport->Close();  // hang up once the session is over
      done->store(true);
    });
    sessions_.push_back(std::move(session));
  }
}

void RticServer::SessionLoop(
    std::shared_ptr<replication::Transport> transport) {
  // Handshake: the first frame must be a current-version hello naming the
  // tenant. Anything else is fatal to the session (and only this session).
  std::string bytes;
  Result<bool> got = transport->Recv(&bytes);
  if (!got.ok() || !got.value()) return;  // died before hello
  Result<Message> hello = ParseMessage(bytes);
  if (!hello.ok()) {
    (void)transport->Send(EncodeError(hello.status()));
    return;
  }
  if (hello->version != kServerProtocolVersion) {
    (void)transport->Send(EncodeError(SessionError(
        "protocol version " + std::to_string(hello->version) +
        " not supported (this server speaks version " +
        std::to_string(kServerProtocolVersion) + ")")));
    return;
  }
  if (hello->type != MessageType::kHello) {
    (void)transport->Send(EncodeError(SessionError(
        "expected hello, got frame type " +
        std::to_string(static_cast<int>(hello->type)))));
    return;
  }
  Result<Tenant*> tenant = GetTenant(hello->name, hello->arg);
  if (!tenant.ok()) {
    (void)transport->Send(EncodeError(tenant.status()));
    return;
  }
  if (!transport->Send(EncodeHelloOk(options_.queue_capacity)).ok()) return;

  for (;;) {
    got = transport->Recv(&bytes);
    // EOF — including a client cut mid-frame, whose partial trailing
    // message the transport drops — ends only this session.
    if (!got.ok() || !got.value()) return;
    Result<Message> msg = ParseMessage(bytes);
    if (!msg.ok()) {
      // A frame that fails magic/checksum/length checks means the stream
      // itself can't be trusted: report and hang up.
      (void)transport->Send(EncodeError(msg.status()));
      return;
    }
    if (!transport->Send(HandleRequest(tenant.value(), msg.value())).ok()) {
      return;
    }
  }
}

std::string RticServer::HandleRequest(Tenant* tenant, const Message& msg) {
  switch (msg.type) {
    case MessageType::kCreateTable: {
      Result<Schema> schema = DecodeSchemaPayload(msg.body);
      if (!schema.ok()) return EncodeError(schema.status());
      return RunOnWorker(
          tenant,
          [tenant, table = msg.name, schema = std::move(schema).value()] {
            Status s = tenant->monitor->CreateTable(table, schema);
            return s.ok() ? EncodeOk() : EncodeError(s);
          },
          /*admission=*/false);
    }

    case MessageType::kRegisterConstraint:
      return RunOnWorker(
          tenant,
          [tenant, name = msg.name, text = msg.body] {
            Status s = tenant->monitor->RegisterConstraint(name, text);
            return s.ok() ? EncodeOk() : EncodeError(s);
          },
          /*admission=*/false);

    case MessageType::kApplyBatch: {
      StateReader r(msg.body);
      Result<UpdateBatch> batch = UpdateBatch::DecodeFrom(&r);
      if (!batch.ok()) return EncodeError(batch.status());
      if (!r.AtEnd()) {
        return EncodeError(
            Status::InvalidArgument("server payload: trailing bytes after "
                                    "batch"));
      }
      return RunOnWorker(
          tenant,
          [tenant, batch = std::move(batch).value()]() mutable {
            if (tenant->durable && !tenant->recovered) {
              Result<wal::RecoveryStats> recovered =
                  tenant->monitor->Recover();
              if (!recovered.ok()) return EncodeError(recovered.status());
              tenant->recovered = true;
            }
            if (batch.timestamp() == 0) {
              batch.set_timestamp(tenant->monitor->current_time() + 1);
            }
            Result<std::vector<Violation>> violations =
                tenant->monitor->ApplyUpdate(batch);
            if (!violations.ok()) return EncodeError(violations.status());
            return EncodeVerdict(batch.timestamp(), violations.value());
          },
          /*admission=*/true);
    }

    case MessageType::kGetStats:
      return RunOnWorker(
          tenant, [tenant] { return EncodeStatsReply(*tenant->monitor); },
          /*admission=*/false);

    case MessageType::kHello:
      return EncodeError(SessionError("duplicate hello"));

    default:
      return EncodeError(SessionError(
          "frame type " + std::to_string(static_cast<int>(msg.type)) +
          " is a response, not a request"));
  }
}

std::string RticServer::RunOnWorker(Tenant* tenant,
                                    std::function<std::string()> work,
                                    bool admission) {
  Job job;
  job.work = std::move(work);
  std::future<std::string> reply = job.reply.get_future();
  if (admission) {
    switch (tenant->queue.TryPush(std::move(job))) {
      case PushResult::kOk:
        break;
      case PushResult::kFull:
        return EncodeOverloaded(options_.queue_capacity);
      case PushResult::kStopped:
        return EncodeError(SessionError("server shutting down"));
    }
  } else if (!tenant->queue.Push(std::move(job))) {
    return EncodeError(SessionError("server shutting down"));
  }
  return reply.get();
}

Result<RticServer::Tenant*> RticServer::GetTenant(
    const std::string& name, std::uint64_t requested_shards) {
  if (!ValidTenantName(name)) {
    return Status::InvalidArgument(
        "server session: bad tenant name '" + name +
        "' (want 1-128 chars of [A-Za-z0-9_-])");
  }
  if (requested_shards > kMaxTenantShards) {
    return Status::InvalidArgument(
        "server session: shard count " + std::to_string(requested_shards) +
        " exceeds the per-tenant maximum of " +
        std::to_string(kMaxTenantShards));
  }
  auto matches = [&](const Tenant& t) {
    return requested_shards == 0 ||
           requested_shards == static_cast<std::uint64_t>(t.shard_count);
  };
  const std::size_t shard_count =
      requested_shards != 0 ? static_cast<std::size_t>(requested_shards)
                            : options_.default_shard_count;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return SessionError("server shutting down");
    auto it = tenants_.find(name);
    if (it != tenants_.end()) {
      if (!matches(*it->second)) {
        return SessionError(
            "tenant '" + name + "' exists with " +
            std::to_string(it->second->shard_count) +
            " shards; hello requested " + std::to_string(requested_shards));
      }
      return it->second.get();
    }
  }

  // Construct outside mu_: building a tenant's monitor (a sharded one
  // builds every shard) must not stall the accept loop or other sessions'
  // handshakes.
  MonitorOptions monitor_options = options_.monitor_options;
  auto tenant = std::make_unique<Tenant>(options_.queue_capacity);
  tenant->shard_count = shard_count;
  if (!monitor_options.wal_dir.empty()) {
    // The tenant's log creates the directory at Recover().
    monitor_options.wal_dir += "/" + name;
    tenant->durable = true;
  }
  if (shard_count > 0) {
    // A sharded tenant keeps its one log in the tenant directory too.
    RTIC_ASSIGN_OR_RETURN(
        tenant->monitor,
        shard::ShardedMonitor::Create(shard_count,
                                      std::move(monitor_options)));
  } else {
    tenant->monitor =
        std::make_unique<ConstraintMonitor>(std::move(monitor_options));
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return SessionError("server shutting down");
  auto it = tenants_.find(name);
  if (it != tenants_.end()) {
    // Lost a creation race; the winner's shape must still match.
    if (!matches(*it->second)) {
      return SessionError(
          "tenant '" + name + "' exists with " +
          std::to_string(it->second->shard_count) +
          " shards; hello requested " + std::to_string(requested_shards));
    }
    return it->second.get();
  }
  // The worker must only exist once the tenant is reachable via tenants_,
  // so StopInternal always sees (and joins) every spawned worker.
  tenant->worker = std::thread([t = tenant.get()] { WorkerLoop(t); });
  Tenant* raw = tenant.get();
  tenants_.emplace(name, std::move(tenant));
  return raw;
}

void RticServer::WorkerLoop(Tenant* tenant) {
  while (std::optional<Job> job = tenant->queue.Pop()) {
    job->reply.set_value(job->work());
  }
}

}  // namespace server
}  // namespace rtic
