#include "net/router.h"

#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "obs/trace.h"

namespace geer::net {

Router::Router(std::vector<ShardAddress> shards, const RouterOptions& options)
    : shards_(std::move(shards)),
      options_(options),
      prepare_ns_(obs::Registry::Global().Histogram(
          "geer_router_swap_prepare_ns")),
      exclusive_ns_(obs::Registry::Global().Histogram(
          "geer_router_swap_exclusive_ns")) {}

bool Router::Start(std::string* error) {
  if (shards_.empty()) {
    if (error != nullptr) *error = "router needs at least one shard";
    return false;
  }
  pools_.clear();
  pools_.reserve(shards_.size());
  HelloAckMsg cluster;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    pools_.push_back(std::make_unique<ClientPool>(
        shards_[i].host, shards_[i].port, options_.connections_per_shard));
    ClientPool::Lease lease = pools_[i]->Acquire();
    if (!lease) {
      if (error != nullptr) {
        *error = "shard " + std::to_string(i) + " (" + shards_[i].host + ":" +
                 std::to_string(shards_[i].port) +
                 ") unreachable: " + pools_[i]->last_error();
      }
      return false;
    }
    const HelloAckMsg& info = lease->info();
    if (i == 0) {
      cluster = info;
    } else if (info.num_nodes != cluster.num_nodes ||
               info.num_edges != cluster.num_edges ||
               info.epoch != cluster.epoch) {
      // Shards are full replicas: disagreement means a mis-deployed
      // cluster, and routing over it would return inconsistent answers.
      if (error != nullptr) {
        *error = "shard " + std::to_string(i) +
                 " replica mismatch (n/m/epoch differ from shard 0)";
      }
      return false;
    }
  }
  epoch_ = cluster.epoch;
  num_nodes_.store(cluster.num_nodes);
  num_edges_.store(cluster.num_edges);
  // The partition map is FIXED at deployment time: node growth in later
  // epochs routes through ShardOf's clamp (range) or the hash — the map
  // never rebuilds, so a node's home shard is stable for the cluster's
  // lifetime.
  partition_ = std::make_unique<PartitionMap>(
      cluster.num_nodes, static_cast<int>(shards_.size()),
      options_.strategy);
  return server_.Start(options_.host, options_.port,
                       [this](const Frame& frame) { return Handle(frame); },
                       error);
}

HandlerReply Router::Error(std::uint16_t code, std::string message) {
  HandlerReply reply;
  reply.type = FrameType::kError;
  reply.payload = EncodeError({code, std::move(message)});
  return reply;
}

HandlerReply Router::Handle(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      // The aggregate deployment info: the router reports the cluster.
      HelloAckMsg info;
      info.num_nodes = num_nodes_.load();
      info.num_edges = num_edges_.load();
      info.num_shards = static_cast<std::uint32_t>(shards_.size());
      {
        std::shared_lock<std::shared_mutex> lock(swap_mu_);
        info.epoch = epoch_;
      }
      return {FrameType::kHelloAck, EncodeHelloAck(info), false};
    }
    case FrameType::kQuery:
      return HandleQuery(frame);
    case FrameType::kFlush: {
      std::shared_lock<std::shared_mutex> lock(swap_mu_);
      std::string error;
      if (!FanOut([](std::size_t, Client& c, std::string* e) {
            return c.Flush(e);
          }, &error)) {
        return Error(ErrorMsg::kUpstream, "flush failed on " + error);
      }
      return {FrameType::kFlushAck, {}, false};
    }
    case FrameType::kApplyUpdates:
      return HandleApplyUpdates(frame);
    case FrameType::kStats:
      return HandleStats(frame);
    case FrameType::kShutdown: {
      if (options_.propagate_shutdown) {
        std::unique_lock<std::shared_mutex> lock(swap_mu_);
        for (std::size_t i = 0; i < pools_.size(); ++i) {
          ClientPool::Lease lease = pools_[i]->Acquire();
          std::string err;
          if (lease) (void)lease->Shutdown(&err);
        }
      }
      return {FrameType::kShutdownAck, {}, true};
    }
    default:
      return Error(ErrorMsg::kUnknownType,
                   "unhandled frame type " +
                       std::to_string(static_cast<unsigned>(frame.type)));
  }
}

HandlerReply Router::HandleQuery(const Frame& frame) {
  ServiceRequest request;
  if (!DecodeServiceRequest(frame.payload, &request)) {
    return Error(ErrorMsg::kBadRequest, "undecodable query payload");
  }
  // Shared side of the swap barrier: a forward in flight here blocks any
  // epoch swap, and a swap in progress blocks this forward — so every
  // query observes a fully swapped (or fully unswapped) cluster.
  std::shared_lock<std::shared_mutex> lock(swap_mu_);
  const std::uint32_t n = num_nodes_.load();
  if (request.s >= n || request.t >= n) {
    return Error(ErrorMsg::kOutOfRange,
                 "query endpoint out of range (n=" + std::to_string(n) + ")");
  }
  const int shard = partition_->HomeShard(request.pair());
  ClientPool::Lease lease = pools_[static_cast<std::size_t>(shard)]->Acquire();
  if (!lease) {
    return Error(ErrorMsg::kUpstream,
                 "shard " + std::to_string(shard) +
                     " unreachable: " + pools_[shard]->last_error());
  }
  ServiceResponse response;
  std::string err;
  if (!lease->Query(request, &response, &err)) {
    return Error(ErrorMsg::kUpstream,
                 "shard " + std::to_string(shard) + ": " + err);
  }
  return {FrameType::kQueryReply, EncodeServiceResponse(response), false};
}

bool Router::FanOut(const ShardCall& call, std::string* error) {
  std::vector<std::string> errors(pools_.size());
  // Not vector<bool>: the per-shard threads write concurrently, and
  // packed bits of one word are not distinct memory locations.
  std::vector<unsigned char> oks(pools_.size(), 0);
  std::vector<std::thread> threads;
  threads.reserve(pools_.size());
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    threads.emplace_back([this, i, &call, &errors, &oks] {
      ClientPool::Lease lease = pools_[i]->Acquire();
      if (!lease) {
        errors[i] = pools_[i]->last_error();
        return;
      }
      oks[i] = call(i, *lease.get(), &errors[i]) ? 1 : 0;
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < oks.size(); ++i) {
    if (!oks[i]) {
      if (error != nullptr) {
        *error = "shard " + std::to_string(i) + ": " + errors[i];
      }
      return false;
    }
  }
  return true;
}

bool Router::FanOutAcks(
    const std::function<bool(Client&, ApplyUpdatesAckMsg*, std::string*)>&
        call,
    bool* all_ok, std::uint64_t* epoch, std::string* error) {
  std::vector<ApplyUpdatesAckMsg> acks(pools_.size());
  if (!FanOut([&](std::size_t i, Client& c, std::string* e) {
        return call(c, &acks[i], e);
      }, error)) {
    return false;
  }
  *all_ok = true;
  for (const ApplyUpdatesAckMsg& ack : acks) {
    *all_ok = *all_ok && ack.ok && ack.epoch == acks[0].epoch;
  }
  *epoch = acks[0].epoch;
  return true;
}

HandlerReply Router::HandleStats(const Frame& frame) {
  StatsRequestMsg request;
  if (!DecodeStatsRequest(frame.payload, &request)) {
    return Error(ErrorMsg::kBadRequest, "undecodable stats payload");
  }
  std::vector<obs::StatsSnapshot> snapshots(pools_.size());
  std::string error;
  {
    std::shared_lock<std::shared_mutex> lock(swap_mu_);
    if (!FanOut([&](std::size_t i, Client& c, std::string* e) {
          StatsReplyMsg shard_reply;
          if (!c.Stats(request, &shard_reply, e)) return false;
          snapshots[i] = std::move(shard_reply.snapshot);
          return true;
        }, &error)) {
      return Error(ErrorMsg::kUpstream, "stats failed on " + error);
    }
  }
  // The router's own series: names matching both the request's prefix
  // and "geer_router_" (whichever of the two is the longer).
  const std::string own = "geer_router_";
  if (request.prefix.rfind(own, 0) == 0) {
    snapshots.push_back(obs::Registry::Global().Snapshot(request.prefix));
  } else if (own.rfind(request.prefix, 0) == 0) {
    snapshots.push_back(obs::Registry::Global().Snapshot(own));
  }
  StatsReplyMsg reply;
  reply.snapshot = obs::MergeSnapshots(snapshots);
  reply.num_shards = static_cast<std::uint32_t>(pools_.size());
  return {FrameType::kStatsReply, EncodeStatsReply(reply), false};
}

HandlerReply Router::HandleApplyUpdates(const Frame& frame) {
  ApplyUpdatesMsg msg;
  if (!DecodeApplyUpdates(frame.payload, &msg)) {
    return Error(ErrorMsg::kBadRequest, "undecodable apply-updates payload");
  }
  std::lock_guard<std::mutex> writer(write_mu_);
  // Only writers (all under write_mu_) write epoch_, so reading it here
  // needs no barrier.
  const HandlerReply rejected = {FrameType::kApplyUpdatesAck,
                                 EncodeApplyUpdatesAck({false, epoch_}),
                                 false};
  bool all_ok = false;
  std::uint64_t epoch = 0;
  std::string error;

  // Phase 1, no barrier: every shard stages the epoch (commit + cold λ)
  // while reads keep flowing on the old one.
  const std::uint64_t prepare_start = obs::NowNs();
  const bool prepared = FanOutAcks(
      [&msg](Client& c, ApplyUpdatesAckMsg* ack, std::string* e) {
        return c.PrepareUpdates(msg, ack, e);
      },
      &all_ok, &epoch, &error);
  obs::Registry::Global().RecordNs(prepare_ns_,
                                   obs::NowNs() - prepare_start);
  if (!prepared) {
    return Error(ErrorMsg::kUpstream, "prepare-updates transport failure on " +
                                          error);
  }
  // A rejected batch (validation failure) was staged nowhere when the
  // replicas agree, and the cluster keeps serving the old epoch. Shards
  // that DID stage it (a partial failure) now disagree with the rest and
  // refuse later batches: the deployment must be rebuilt (README).
  if (!all_ok) return rejected;

  // Phase 2, exclusive: waits out every in-flight forward, then holds new
  // queries back until EVERY shard serves the staged epoch — the
  // cross-shard extension of QueryService's submission barrier.
  {
    std::unique_lock<std::shared_mutex> lock(swap_mu_);
    const std::uint64_t exclusive_start = obs::NowNs();
    std::uint64_t activated = 0;
    const bool delivered = FanOutAcks(
        [epoch](Client& c, ApplyUpdatesAckMsg* ack, std::string* e) {
          return c.ActivateEpoch(epoch, ack, e);
        },
        &all_ok, &activated, &error);
    if (delivered && all_ok) epoch_ = activated;
    obs::Registry::Global().RecordNs(exclusive_ns_,
                                     obs::NowNs() - exclusive_start);
    if (!delivered) {
      return Error(ErrorMsg::kUpstream,
                   "activate-epoch transport failure on " + error);
    }
    // Shards that swapped and shards that did not now disagree.
    if (!all_ok) return rejected;
  }
  // Node inserts may have grown n: refresh n/m from shard 0 over a pooled
  // connection, outside the barrier but before the client's ack, so every
  // read submitted after the ack is range-checked against the new epoch.
  ClientPool::Lease lease = pools_[0]->Acquire();
  if (lease && lease->Hello(&error)) {
    num_nodes_.store(lease->info().num_nodes);
    num_edges_.store(lease->info().num_edges);
  }
  return {FrameType::kApplyUpdatesAck, EncodeApplyUpdatesAck({true, epoch}),
          false};
}

}  // namespace geer::net
