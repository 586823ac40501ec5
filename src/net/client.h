// Blocking RPC client for the frame protocol: one Client = one TCP
// connection with a request/reply-in-turn discipline (request ids are
// still stamped and verified so a desynced peer is caught, not silently
// mismatched). Concurrency is via ClientPool — a fixed set of
// connections to one endpoint handed out under RAII leases, which is
// how the router fans queries out to a shard and how NetSubmitter
// (net/submitter.h) runs multi-client load.
//
// Every call returns false on transport error or protocol violation and
// leaves the client marked broken; a broken pooled connection is
// redialed on the next lease.

#ifndef GEER_NET_CLIENT_H_
#define GEER_NET_CLIENT_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/codec.h"
#include "net/socket.h"

namespace geer::net {

class Client {
 public:
  Client() = default;

  /// Dials host:port and runs the kHello handshake; the server's
  /// deployment info lands in info(). False (and *error) on failure.
  bool Connect(const std::string& host, std::uint16_t port,
               std::string* error);

  bool connected() const { return sock_.valid() && !broken_; }
  const HelloAckMsg& info() const { return info_; }

  /// Re-runs the kHello handshake on the open connection, refreshing
  /// info() (the peer's n/m/epoch may have moved since Connect).
  bool Hello(std::string* error);

  /// One effective-resistance query. On success fills *response
  /// (whose status may still be a non-kAnswered ServeStatus — transport
  /// success, service-level verdict). On kError from the server, fills
  /// *error with the server's message and returns false.
  bool Query(const ServiceRequest& request, ServiceResponse* response,
             std::string* error);

  /// Drains the server's pending batch (QueryService::Flush).
  bool Flush(std::string* error);

  /// Ships an update batch and blocks until the epoch swap is acked.
  bool ApplyUpdates(const ApplyUpdatesMsg& msg, ApplyUpdatesAckMsg* ack,
                    std::string* error);

  /// The two halves of ApplyUpdates on a shard server: stage the batch's
  /// epoch (the old one keeps serving), then swap the staged epoch in.
  bool PrepareUpdates(const ApplyUpdatesMsg& msg, ApplyUpdatesAckMsg* ack,
                      std::string* error);
  bool ActivateEpoch(std::uint64_t epoch, ApplyUpdatesAckMsg* ack,
                     std::string* error);

  /// Scrapes the server's metrics snapshot (merged across shards when
  /// the peer is a router).
  bool Stats(const StatsRequestMsg& msg, StatsReplyMsg* reply,
             std::string* error);

  /// Asks the server to shut down (acked before the server exits).
  bool Shutdown(std::string* error);

  void Close();

 private:
  /// Sends `type`+payload, blocks for the reply, verifies the echoed
  /// request id, rejects kError replies (decoding the server message
  /// into *error). Marks the client broken on any failure.
  bool Call(FrameType type, std::span<const std::uint8_t> payload,
            FrameType expect, Frame* reply, std::string* error);
  /// Call() expecting a kApplyUpdatesAck, decoded into *ack.
  bool CallForAck(FrameType type, std::span<const std::uint8_t> payload,
                  ApplyUpdatesAckMsg* ack, std::string* error);

  Socket sock_;
  FrameReader reader_;
  HelloAckMsg info_;
  std::uint64_t next_request_id_ = 1;
  bool broken_ = false;
};

/// Fixed-size pool of connections to one endpoint. Lease() blocks until
/// a connection is free; the lease returns it on destruction. Broken
/// connections are redialed transparently at lease time.
class ClientPool {
 public:
  ClientPool(std::string host, std::uint16_t port, int size);

  class Lease {
   public:
    Lease(ClientPool* pool, Client* client) : pool_(pool), client_(client) {}
    ~Lease() {
      if (pool_ != nullptr) pool_->Return(client_);
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), client_(other.client_) {
      other.pool_ = nullptr;
      other.client_ = nullptr;
    }

    /// Null when the (re)dial failed; the error is in pool->last_error().
    Client* get() const { return client_; }
    Client* operator->() const { return client_; }
    explicit operator bool() const { return client_ != nullptr; }

   private:
    ClientPool* pool_;
    Client* client_;
  };

  /// Blocks for a free slot, (re)connecting it if needed. A lease with a
  /// null client means the dial failed.
  Lease Acquire();

  const std::string& host() const { return host_; }
  std::uint16_t port() const { return port_; }
  int size() const { return static_cast<int>(slots_.size()); }
  std::string last_error() const;

 private:
  friend class Lease;
  void Return(Client* client);

  const std::string host_;
  const std::uint16_t port_;
  mutable std::mutex mu_;
  std::condition_variable free_cv_;
  std::vector<std::unique_ptr<Client>> slots_;
  std::vector<Client*> free_;
  std::string last_error_;
};

}  // namespace geer::net

#endif  // GEER_NET_CLIENT_H_
