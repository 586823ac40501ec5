// The shard router: the one endpoint clients talk to in a sharded
// deployment. It owns the partition map, a connection pool per shard,
// and the cross-shard epoch-swap barrier.
//
// Query path: decode, pick the home shard (net/partition.h — common
// owner for same-shard pairs, owner of min(s,t) for cross-shard pairs,
// which is always a replica holding both endpoints since every shard is
// a full replica), forward, relay the reply. Forwarding holds a SHARED
// lock on the swap barrier.
//
// ApplyUpdates path, two phases (writers serialized on write_mu_):
//   1. Prepare, WITHOUT the barrier: broadcast the batch as
//      kPrepareUpdates. Each shard validates, commits and derives the new
//      epoch's cold λ (Lanczos — the expensive part) while it keeps
//      serving the old epoch, so reads keep flowing.
//   2. Activate, holding the barrier EXCLUSIVELY — every in-flight
//      forward completes first, and no new query dispatches until every
//      shard acked kActivateEpoch (a rebind with the staged λ).
// The client is acked only once EVERY shard activated. Layered over each
// shard's own QueryService submission barrier this extends the
// single-service guarantee to the cluster: queries forwarded before the
// activation are answered on the old epoch everywhere, queries after it
// on the new epoch everywhere, and no query ever observes a half-swapped
// cluster. Incremental epochs derive their warm λ inside the rebind, so
// for them the Lanczos run still falls inside the barrier.
//
// Metrics: geer_router_swap_prepare_ns times the prepare fan-out,
// geer_router_swap_exclusive_ns how long the barrier held reads. A
// kStats scrape merges the shards' snapshots with the router's own
// geer_router_* series.
//
// Hello verifies the replicas agree (same n, same m, same epoch) —
// a mis-deployed cluster fails fast instead of answering garbage.

#ifndef GEER_NET_ROUTER_H_
#define GEER_NET_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/partition.h"
#include "net/server.h"
#include "obs/metrics.h"

namespace geer::net {

struct ShardAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct RouterOptions {
  PartitionStrategy strategy = PartitionStrategy::kRange;
  /// Pooled connections per shard (the router's fan-out parallelism).
  int connections_per_shard = 4;
  /// Forward kShutdown to every shard before acking it (a router-led
  /// teardown of the whole deployment).
  bool propagate_shutdown = true;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral
};

class Router {
 public:
  Router(std::vector<ShardAddress> shards, const RouterOptions& options);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Dials every shard, verifies the replicas agree (n, m, epoch),
  /// builds the partition map and starts listening. False + *error on
  /// any mismatch or connection failure.
  bool Start(std::string* error);

  std::uint16_t port() const { return server_.port(); }
  const PartitionMap* partition() const { return partition_.get(); }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  void Wait() { server_.Wait(); }
  void Stop() { server_.Stop(); }
  bool stopping() const { return server_.stopping(); }

 private:
  HandlerReply Handle(const Frame& frame);
  HandlerReply HandleQuery(const Frame& frame);
  HandlerReply HandleStats(const Frame& frame);
  HandlerReply HandleApplyUpdates(const Frame& frame);
  /// Runs `call` on a pooled connection to every shard, all in parallel.
  /// True when every call returned true; else *error names the first
  /// failing shard.
  using ShardCall = std::function<bool(std::size_t shard, Client& client,
                                       std::string* error)>;
  bool FanOut(const ShardCall& call, std::string* error);
  /// FanOut of an ack-returning control call: false on a transport
  /// failure; *all_ok = every shard acked ok for the same epoch, *epoch.
  bool FanOutAcks(const std::function<bool(Client&, ApplyUpdatesAckMsg*,
                                           std::string*)>& call,
                  bool* all_ok, std::uint64_t* epoch, std::string* error);
  static HandlerReply Error(std::uint16_t code, std::string message);

  const std::vector<ShardAddress> shards_;
  const RouterOptions options_;
  std::vector<std::unique_ptr<ClientPool>> pools_;  // one per shard
  std::unique_ptr<PartitionMap> partition_;
  /// The served epoch: guarded by swap_mu_, written exclusively and
  /// only under write_mu_ (so writers may read it without swap_mu_).
  std::uint64_t epoch_ = 0;
  /// The served epoch's node and edge counts (refreshed after each
  /// activation, before the writer is acked).
  std::atomic<std::uint32_t> num_nodes_{0};
  std::atomic<std::uint64_t> num_edges_{0};

  /// The cross-shard swap barrier: query forwards hold it shared, an
  /// epoch swap holds it exclusive for the activate fan-out only.
  std::shared_mutex swap_mu_;
  /// Serializes epoch swaps (prepare runs outside swap_mu_).
  std::mutex write_mu_;
  obs::Registry::MetricId prepare_ns_;    ///< geer_router_swap_prepare_ns
  obs::Registry::MetricId exclusive_ns_;  ///< geer_router_swap_exclusive_ns

  FrameServer server_;
};

}  // namespace geer::net

#endif  // GEER_NET_ROUTER_H_
