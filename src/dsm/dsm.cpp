#include "dsm/dsm.hpp"

#include <cassert>
#include <functional>
#include <memory>

namespace vdce::dsm {

namespace {

// Wire payloads (internal to the protocol).
struct GetReq {
  std::string name;
  std::uint64_t op;
  common::HostId requester;
  bool exclusive;
  tasklib::Value new_value;  ///< writes carry the value to install
};
struct DataGrant {
  std::string name;
  std::uint64_t op;
  bool exclusive;
  tasklib::Value value;
};
struct Fetch {
  std::string name;
  bool downgrade;  ///< true: owner keeps a shared copy
};
struct FetchResp {
  std::string name;
  common::HostId from;
  bool downgraded;
  tasklib::Value value;
};
struct Inv {
  std::string name;
};
struct InvAck {
  std::string name;
  common::HostId from;
};
struct LockReq {
  std::string name;
  std::uint64_t op;
  common::HostId requester;
};
struct LockGrant {
  std::string name;
  std::uint64_t op;
};
struct Unlock {
  std::string name;
  std::uint64_t op;
  common::HostId requester;
};
struct BarrierArrive {
  std::string name;
  std::uint64_t op;
  common::HostId requester;
  std::size_t parties;
};

constexpr double kCtrlBytes = 96;

const net::MsgType kGet{"dsm.get"};
const net::MsgType kData{"dsm.data"};
const net::MsgType kFetch{"dsm.fetch"};
const net::MsgType kFetchResp{"dsm.fetch_resp"};
const net::MsgType kInv{"dsm.inv"};
const net::MsgType kInvAck{"dsm.inv_ack"};
const net::MsgType kLock{"dsm.lock"};
const net::MsgType kLockGrant{"dsm.lock_grant"};
const net::MsgType kUnlock{"dsm.unlock"};
const net::MsgType kBarrier{"dsm.barrier"};

/// Every DSM payload names its object (a string) and most carry a value,
/// which outgrows the fabric's inline payload: they travel shared.
template <typename T>
const T& payload_of(const net::Message& message) {
  return *message.payload.get<std::shared_ptr<const T>>();
}

}  // namespace

// ---- client API ----------------------------------------------------------------

void DsmClient::read(const std::string& name, ReadCallback on_value) {
  runtime_->client_read(host_, name, std::move(on_value));
}

void DsmClient::write(const std::string& name, tasklib::Value value,
                      DoneCallback on_done) {
  runtime_->client_write(host_, name, std::move(value), std::move(on_done));
}

void DsmClient::acquire(const std::string& lock_name,
                        DoneCallback on_acquired) {
  runtime_->client_acquire(host_, lock_name, std::move(on_acquired));
}

void DsmClient::release(const std::string& lock_name,
                        DoneCallback on_released) {
  runtime_->client_release(host_, lock_name, std::move(on_released));
}

void DsmClient::barrier(const std::string& barrier_name, std::size_t parties,
                        DoneCallback on_released) {
  runtime_->client_barrier(host_, barrier_name, parties,
                           std::move(on_released));
}

CacheState DsmClient::state(const std::string& name) const {
  auto host_it = runtime_->local_.find(host_);
  if (host_it == runtime_->local_.end()) return CacheState::kInvalid;
  auto obj_it = host_it->second.cache.find(name);
  return obj_it == host_it->second.cache.end() ? CacheState::kInvalid
                                               : obj_it->second.state;
}

// ---- runtime ---------------------------------------------------------------------

DsmRuntime::DsmRuntime(net::Fabric& fabric, std::vector<common::HostId> hosts)
    : fabric_(fabric), hosts_(std::move(hosts)) {
  assert(!hosts_.empty());
}

common::HostId DsmRuntime::home_of(const std::string& name) const {
  return hosts_[std::hash<std::string>{}(name) % hosts_.size()];
}

void DsmRuntime::define_object(const std::string& name, tasklib::Value initial,
                               double size_bytes) {
  ObjectHome home;
  home.value = std::move(initial);
  home.size_bytes = size_bytes;
  objects_[name] = std::move(home);
  // Reset any cached copies from a previous definition.
  for (auto& [host, ops] : local_) ops.cache.erase(name);
}

DsmClient DsmRuntime::client(common::HostId host) {
  return DsmClient(*this, host);
}

common::Expected<tasklib::Value> DsmRuntime::home_value(
    const std::string& name) const {
  auto it = objects_.find(name);
  if (it == objects_.end()) {
    return common::Error{common::ErrorCode::kNotFound,
                         "no DSM object " + name};
  }
  if (it->second.owner.valid()) {
    // A remote M copy is authoritative; consult it directly (in-process
    // shortcut for tests — protocol code never calls this).
    auto host_it = local_.find(it->second.owner);
    if (host_it != local_.end()) {
      auto obj_it = host_it->second.cache.find(name);
      if (obj_it != host_it->second.cache.end()) return obj_it->second.value;
    }
  }
  return it->second.value;
}

bool DsmRuntime::handles(net::MsgType type) {
  return type.name().starts_with("dsm.");
}

template <typename T>
void DsmRuntime::send(common::HostId from, common::HostId to,
                      net::MsgType type, double bytes, T payload) {
  (void)fabric_.send(net::Message{
      from, to, type, bytes, std::make_shared<const T>(std::move(payload))});
}

void DsmRuntime::client_read(common::HostId host, const std::string& name,
                             DsmClient::ReadCallback cb) {
  LocalOps& ops = local_[host];
  auto cached = ops.cache.find(name);
  if (cached != ops.cache.end() &&
      cached->second.state != CacheState::kInvalid) {
    ++stats_.read_hits;
    cb(cached->second.value);
    return;
  }
  ++stats_.read_misses;
  std::uint64_t op = next_op_++;
  ops.reads[op] = std::move(cb);
  send(host, home_of(name), kGet, kCtrlBytes,
       GetReq{name, op, host, /*exclusive=*/false, {}});
}

void DsmRuntime::client_write(common::HostId host, const std::string& name,
                              tasklib::Value value,
                              DsmClient::DoneCallback cb) {
  LocalOps& ops = local_[host];
  auto cached = ops.cache.find(name);
  if (cached != ops.cache.end() &&
      cached->second.state == CacheState::kModified) {
    ++stats_.write_hits;
    cached->second.value = std::move(value);
    cb();
    return;
  }
  ++stats_.write_misses;
  std::uint64_t op = next_op_++;
  ops.dones[op] = std::move(cb);
  send(host, home_of(name), kGet, kCtrlBytes,
       GetReq{name, op, host, /*exclusive=*/true, std::move(value)});
}

void DsmRuntime::client_acquire(common::HostId host, const std::string& name,
                                DsmClient::DoneCallback cb) {
  std::uint64_t op = next_op_++;
  local_[host].dones[op] = std::move(cb);
  send(host, home_of("lock:" + name), kLock, kCtrlBytes,
       LockReq{name, op, host});
}

void DsmRuntime::client_release(common::HostId host, const std::string& name,
                                DsmClient::DoneCallback cb) {
  std::uint64_t op = next_op_++;
  local_[host].dones[op] = std::move(cb);
  send(host, home_of("lock:" + name), kUnlock, kCtrlBytes,
       Unlock{name, op, host});
}

void DsmRuntime::client_barrier(common::HostId host, const std::string& name,
                                std::size_t parties,
                                DsmClient::DoneCallback cb) {
  std::uint64_t op = next_op_++;
  local_[host].dones[op] = std::move(cb);
  send(host, home_of("barrier:" + name), kBarrier, kCtrlBytes,
       BarrierArrive{name, op, host, parties});
}

// ---- home side -------------------------------------------------------------------

void DsmRuntime::home_service_next(const std::string& name) {
  ObjectHome& obj = objects_.at(name);
  if (obj.busy || obj.queue.empty()) return;
  obj.busy = true;
  const ObjectHome::Pending& req = obj.queue.front();
  const common::HostId home = home_of(name);

  obj.inv_acks_outstanding = 0;
  if (req.exclusive) {
    // Recall a remote owner; invalidate every sharer except the requester.
    if (obj.owner.valid() && obj.owner != req.requester) {
      ++stats_.owner_recalls;
      ++obj.inv_acks_outstanding;
      send(home, obj.owner, kFetch, kCtrlBytes,
           Fetch{name, /*downgrade=*/false});
    }
    for (common::HostId sharer : obj.sharers) {
      if (sharer == req.requester) continue;
      ++stats_.invalidations_sent;
      ++obj.inv_acks_outstanding;
      send(home, sharer, kInv, kCtrlBytes, Inv{name});
    }
  } else if (obj.owner.valid() && obj.owner != req.requester) {
    // Read while another host holds M: downgrade the owner to S.
    ++stats_.owner_recalls;
    ++obj.inv_acks_outstanding;
    send(home, obj.owner, kFetch, kCtrlBytes,
         Fetch{name, /*downgrade=*/true});
  }

  if (obj.inv_acks_outstanding == 0) home_grant(name, req);
}

void DsmRuntime::home_grant(const std::string& name,
                            const ObjectHome::Pending& req) {
  ObjectHome& obj = objects_.at(name);
  const common::HostId home = home_of(name);

  if (req.exclusive) {
    obj.sharers.clear();
    obj.owner = req.requester;
    // The new value is installed at the owner; the home copy is stale until
    // the next recall.
    send(home, req.requester, kData, obj.size_bytes,
         DataGrant{name, req.op, true, req.new_value});
  } else {
    obj.sharers.insert(req.requester);
    send(home, req.requester, kData, obj.size_bytes,
         DataGrant{name, req.op, false, obj.value});
  }
  obj.queue.pop_front();
  obj.busy = false;
  home_service_next(name);
}

// ---- message dispatch ---------------------------------------------------------------

void DsmRuntime::handle(const net::Message& message) {
  const net::MsgType type = message.type;

  if (type == kGet) {
    const auto& req = payload_of<GetReq>(message);
    ObjectHome& obj = objects_.at(req.name);
    obj.queue.push_back(ObjectHome::Pending{req.requester, req.exclusive,
                                            req.op, req.new_value});
    home_service_next(req.name);
    return;
  }

  if (type == kFetch) {
    const auto& fetch = payload_of<Fetch>(message);
    LocalOps& ops = local_[message.dst];
    auto cached = ops.cache.find(fetch.name);
    tasklib::Value value;
    if (cached != ops.cache.end()) {
      value = cached->second.value;
      cached->second.state =
          fetch.downgrade ? CacheState::kShared : CacheState::kInvalid;
    }
    const ObjectHome& obj = objects_.at(fetch.name);
    send(message.dst, message.src, kFetchResp, obj.size_bytes,
         FetchResp{fetch.name, message.dst, fetch.downgrade, std::move(value)});
    return;
  }

  if (type == kFetchResp) {
    const auto& resp = payload_of<FetchResp>(message);
    ObjectHome& obj = objects_.at(resp.name);
    obj.value = resp.value;
    if (resp.downgraded) {
      obj.sharers.insert(resp.from);  // the old owner keeps a shared copy
    }
    obj.owner = common::HostId{};
    if (--obj.inv_acks_outstanding == 0 && !obj.queue.empty()) {
      home_grant(resp.name, obj.queue.front());
    }
    return;
  }

  if (type == kInv) {
    const auto& inv = payload_of<Inv>(message);
    LocalOps& ops = local_[message.dst];
    auto cached = ops.cache.find(inv.name);
    if (cached != ops.cache.end()) {
      cached->second.state = CacheState::kInvalid;
      cached->second.value = {};
    }
    send(message.dst, message.src, kInvAck, kCtrlBytes,
         InvAck{inv.name, message.dst});
    return;
  }

  if (type == kInvAck) {
    const auto& ack = payload_of<InvAck>(message);
    ObjectHome& obj = objects_.at(ack.name);
    obj.sharers.erase(ack.from);
    if (--obj.inv_acks_outstanding == 0 && !obj.queue.empty()) {
      home_grant(ack.name, obj.queue.front());
    }
    return;
  }

  if (type == kData) {
    const auto& grant = payload_of<DataGrant>(message);
    LocalOps& ops = local_[message.dst];
    CachedCopy& copy = ops.cache[grant.name];
    copy.state = grant.exclusive ? CacheState::kModified : CacheState::kShared;
    copy.value = grant.value;
    if (grant.exclusive) {
      auto done = ops.dones.find(grant.op);
      if (done != ops.dones.end()) {
        auto cb = std::move(done->second);
        ops.dones.erase(done);
        cb();
      }
    } else {
      auto read = ops.reads.find(grant.op);
      if (read != ops.reads.end()) {
        auto cb = std::move(read->second);
        ops.reads.erase(read);
        cb(copy.value);
      }
    }
    return;
  }

  if (type == kLock) {
    const auto& req = payload_of<LockReq>(message);
    LockHome& lock = locks_[req.name];
    if (!lock.held) {
      lock.held = true;
      lock.holder = req.requester;
      ++stats_.lock_grants;
      send(message.dst, req.requester, kLockGrant, kCtrlBytes,
           LockGrant{req.name, req.op});
    } else {
      lock.waiters.emplace_back(req.requester, req.op);
    }
    return;
  }

  if (type == kLockGrant) {
    const auto& grant = payload_of<LockGrant>(message);
    LocalOps& ops = local_[message.dst];
    auto done = ops.dones.find(grant.op);
    if (done != ops.dones.end()) {
      auto cb = std::move(done->second);
      ops.dones.erase(done);
      cb();
    }
    return;
  }

  if (type == kBarrier) {
    const auto& arrive = payload_of<BarrierArrive>(message);
    BarrierHome& barrier = barriers_[arrive.name];
    barrier.arrived.emplace_back(arrive.requester, arrive.op);
    if (barrier.arrived.size() >= arrive.parties) {
      // Generation complete: release every arrival (reuse lock_grant as the
      // generic completion message) and reset for the next generation.
      auto generation = std::move(barrier.arrived);
      barrier.arrived.clear();
      for (const auto& [host, op] : generation) {
        send(message.dst, host, kLockGrant, kCtrlBytes,
             LockGrant{arrive.name, op});
      }
    }
    return;
  }

  if (type == kUnlock) {
    const auto& req = payload_of<Unlock>(message);
    LockHome& lock = locks_[req.name];
    assert(lock.held);
    // Acknowledge the releaser, then pass the lock down the FIFO.
    send(message.dst, req.requester, kLockGrant, kCtrlBytes,
         LockGrant{req.name, req.op});
    if (lock.waiters.empty()) {
      lock.held = false;
      lock.holder = common::HostId{};
    } else {
      auto [next_host, next_op] = lock.waiters.front();
      lock.waiters.pop_front();
      lock.holder = next_host;
      ++stats_.lock_grants;
      send(message.dst, next_host, kLockGrant, kCtrlBytes,
           LockGrant{req.name, next_op});
    }
    return;
  }
}

}  // namespace vdce::dsm
