#include "net/shard_service.h"

#include <algorithm>
#include <map>
#include <utility>

#include "core/registry.h"
#include "dyn/dyn_serve.h"
#include "linalg/spectral.h"
#include "obs/metrics.h"

namespace geer::net {

ShardServer::ShardServer(Graph graph, const ShardOptions& options)
    : options_(options), graph_(std::move(graph)) {}

bool ShardServer::Start(std::string* error) {
  initial_ = graph_.Current();
  const std::string method = CanonicalEstimatorName(options_.method);
  reads_lambda_ = EstimatorReadsLambda(method);
  ErOptions build = options_.er;
  if (reads_lambda_ && !build.lambda.has_value()) {
    // Deterministic λ derivation: every replica (and the in-process
    // truth) runs the same Lanczos on the same graph, so downstream
    // answers stay bit-identical without shipping λ over the wire.
    build.lambda = ComputeSpectralBoundsT<UnitWeight>(*initial_->graph).lambda;
  }
  if (!EstimatorFeasible(method, *initial_->graph, build)) {
    if (error != nullptr) {
      *error = "estimator " + method + " infeasible on this replica";
    }
    return false;
  }
  estimator_ = CreateEstimator(method, *initial_->graph, build);
  if (estimator_ == nullptr) {
    if (error != nullptr) *error = "unknown estimator " + options_.method;
    return false;
  }
  service_ = std::make_unique<QueryService>(*estimator_, options_.serve);
  epoch_.store(initial_->epoch);
  num_nodes_.store(initial_->graph->NumNodes());
  num_edges_.store(initial_->graph->NumEdges());
  return server_.Start(options_.host, options_.port,
                       [this](const Frame& frame) { return Handle(frame); },
                       error);
}

HandlerReply ShardServer::Error(std::uint16_t code, std::string message) {
  HandlerReply reply;
  reply.type = FrameType::kError;
  reply.payload = EncodeError({code, std::move(message)});
  return reply;
}

HandlerReply ShardServer::Handle(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      HelloAckMsg ack;
      ack.num_nodes = num_nodes_.load();
      ack.num_edges = num_edges_.load();
      ack.epoch = epoch_.load();
      ack.num_shards = 1;
      return {FrameType::kHelloAck, EncodeHelloAck(ack), false};
    }
    case FrameType::kQuery:
      return HandleQuery(frame);
    case FrameType::kFlush:
      service_->Flush();
      return {FrameType::kFlushAck, {}, false};
    case FrameType::kApplyUpdates:
    case FrameType::kPrepareUpdates:
      return HandleUpdates(frame);
    case FrameType::kActivateEpoch:
      return HandleActivate(frame);
    case FrameType::kStats: {
      StatsRequestMsg request;
      if (!DecodeStatsRequest(frame.payload, &request)) {
        return Error(ErrorMsg::kBadRequest, "undecodable stats payload");
      }
      StatsReplyMsg reply;
      reply.snapshot = obs::Registry::Global().Snapshot(request.prefix);
      reply.num_shards = 1;
      return {FrameType::kStatsReply, EncodeStatsReply(reply), false};
    }
    case FrameType::kShutdown:
      return {FrameType::kShutdownAck, {}, true};
    default:
      return Error(ErrorMsg::kUnknownType,
                   "unhandled frame type " +
                       std::to_string(static_cast<unsigned>(frame.type)));
  }
}

HandlerReply ShardServer::HandleQuery(const Frame& frame) {
  ServiceRequest request;
  if (!DecodeServiceRequest(frame.payload, &request)) {
    return Error(ErrorMsg::kBadRequest, "undecodable query payload");
  }
  const std::uint32_t n = num_nodes_.load();
  if (request.s >= n || request.t >= n) {
    return Error(ErrorMsg::kOutOfRange,
                 "query endpoint out of range (n=" + std::to_string(n) + ")");
  }
  // Blocking get() is correct here: each connection is a serial
  // request/reply stream, and server-side batching happens across
  // connections inside the QueryService scheduler.
  const QueryResult result =
      service_->Submit(request.pair(), request.deadline_seconds).get();
  return {FrameType::kQueryReply,
          EncodeServiceResponse(ServiceResponse::FromQueryResult(result)),
          false};
}

HandlerReply ShardServer::Ack(const ApplyUpdatesAckMsg& ack) {
  return {FrameType::kApplyUpdatesAck, EncodeApplyUpdatesAck(ack), false};
}

HandlerReply ShardServer::HandleUpdates(const Frame& frame) {
  ApplyUpdatesMsg msg;
  if (!DecodeApplyUpdates(frame.payload, &msg)) {
    return Error(ErrorMsg::kBadRequest, "undecodable apply-updates payload");
  }
  std::lock_guard<std::mutex> lock(update_mu_);
  ApplyUpdatesAckMsg ack = PrepareLocked(msg);
  if (ack.ok && frame.type == FrameType::kApplyUpdates) {
    ack = ActivateLocked(ack.epoch);
  }
  return Ack(ack);
}

HandlerReply ShardServer::HandleActivate(const Frame& frame) {
  ActivateEpochMsg msg;
  if (!DecodeActivateEpoch(frame.payload, &msg)) {
    return Error(ErrorMsg::kBadRequest, "undecodable activate payload");
  }
  std::lock_guard<std::mutex> lock(update_mu_);
  return Ack(ActivateLocked(msg.epoch));
}

ApplyUpdatesAckMsg ShardServer::PrepareLocked(const ApplyUpdatesMsg& msg) {
  const ApplyUpdatesAckMsg rejected{false, epoch_.load()};
  // One staged epoch at a time: the DynamicGraph already holds its
  // commit, so a second batch would build on an epoch nobody serves.
  if (prepared_.has_value()) return rejected;
  // Pre-validate the whole batch against the pending view: the
  // DynamicGraph mutators abort on contract violations (insert of a
  // present edge, delete of an absent one), and a remote peer must get
  // ok=false, never a dead server. Simulate presence across the batch so
  // insert-then-delete sequences validate correctly.
  std::map<Edge, bool> staged;  // canonical edge -> present after ops
  auto present = [&](NodeId u, NodeId v) {
    const auto it = staged.find({std::min(u, v), std::max(u, v)});
    return it != staged.end() ? it->second : graph_.HasEdge(u, v);
  };
  for (const EdgeUpdate& op : msg.updates) {
    const Edge e{std::min(op.u, op.v), std::max(op.u, op.v)};
    switch (op.kind) {
      case EdgeUpdateKind::kInsert:
        if (op.u == op.v || present(op.u, op.v) || op.weight != 1.0) {
          return rejected;
        }
        staged[e] = true;
        break;
      case EdgeUpdateKind::kDelete:
        if (!present(op.u, op.v)) return rejected;
        staged[e] = false;
        break;
      case EdgeUpdateKind::kSetWeight:
        // Unit-weight tier: only the no-op weight is representable.
        if (!present(op.u, op.v) || op.weight != 1.0) return rejected;
        break;
    }
  }
  for (const EdgeUpdate& op : msg.updates) graph_.Apply(op);
  Prepared next{graph_.Commit(), msg.lambda, msg.incremental};
  if (msg.incremental) {
    // Incremental epochs leave λ to the shared cross-epoch holder
    // (warm-started Lanczos inside the rebind, so during activation),
    // exactly like the in-process dynamic workload runner.
    if (spectral_ == nullptr && reads_lambda_) spectral_ = MakeSharedSpectral();
    next.lambda = std::nullopt;
  } else if (!next.lambda.has_value() && reads_lambda_) {
    next.lambda =
        ComputeSpectralBoundsT<UnitWeight>(*next.snapshot->graph).lambda;
  }
  const std::uint64_t epoch = next.snapshot->epoch;
  prepared_ = std::move(next);
  return {true, epoch};
}

ApplyUpdatesAckMsg ShardServer::ActivateLocked(std::uint64_t epoch) {
  if (!prepared_.has_value() || prepared_->snapshot->epoch != epoch) {
    return {false, epoch_.load()};
  }
  Prepared next = std::move(*prepared_);
  prepared_.reset();
  const bool ok =
      ApplyEpochUpdate<UnitWeight>(
          *service_, next.snapshot, next.lambda, next.incremental,
          next.incremental ? spectral_ : nullptr)
          .get();
  if (ok) {
    epoch_.store(next.snapshot->epoch);
    num_nodes_.store(next.snapshot->graph->NumNodes());
    num_edges_.store(next.snapshot->graph->NumEdges());
  }
  return {ok, epoch_.load()};
}

}  // namespace geer::net
