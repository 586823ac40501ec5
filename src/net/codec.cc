#include "net/codec.h"

#include "net/frame.h"

namespace geer::net {
namespace {

// Update-count cap: an ApplyUpdates payload is at least 17 bytes per
// update, so any count exceeding what the frame cap could carry is
// garbage — reject before reserving memory for it.
constexpr std::uint32_t kMaxUpdatesPerMessage =
    static_cast<std::uint32_t>(kMaxFramePayload / 17);

// Stats-entry caps, same construction: a counter/gauge entry is at
// least 12 bytes (name length + value), a histogram entry at least
// 4 + 1 + 48*8 + 16 bytes — any claimed count the frame cap could not
// carry is garbage, rejected before reserve.
constexpr std::uint32_t kMaxStatsScalarEntries =
    static_cast<std::uint32_t>(kMaxFramePayload / 12);
constexpr std::uint32_t kMaxStatsHistogramEntries =
    static_cast<std::uint32_t>(kMaxFramePayload /
                               (4 + 1 + obs::kHistogramBuckets * 8 + 16));

void PutString(std::vector<std::uint8_t>& out, const std::string& s) {
  wire::PutU32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

bool GetString(std::span<const std::uint8_t> in, std::size_t* at,
               std::string* out) {
  std::uint32_t len = 0;
  if (!wire::GetU32(in, at, &len)) return false;
  if (len > in.size() - *at) return false;
  out->assign(in.begin() + static_cast<std::ptrdiff_t>(*at),
              in.begin() + static_cast<std::ptrdiff_t>(*at + len));
  *at += len;
  return true;
}

}  // namespace

std::vector<std::uint8_t> EncodeHelloAck(const HelloAckMsg& msg) {
  std::vector<std::uint8_t> out;
  wire::PutU32(out, msg.num_nodes);
  wire::PutU64(out, msg.num_edges);
  wire::PutU64(out, msg.epoch);
  wire::PutU32(out, msg.num_shards);
  return out;
}

bool DecodeHelloAck(std::span<const std::uint8_t> payload, HelloAckMsg* out) {
  std::size_t at = 0;
  HelloAckMsg msg;
  if (!wire::GetU32(payload, &at, &msg.num_nodes) ||
      !wire::GetU64(payload, &at, &msg.num_edges) ||
      !wire::GetU64(payload, &at, &msg.epoch) ||
      !wire::GetU32(payload, &at, &msg.num_shards)) {
    return false;
  }
  if (at != payload.size()) return false;
  *out = msg;
  return true;
}

std::vector<std::uint8_t> EncodeApplyUpdates(const ApplyUpdatesMsg& msg) {
  std::vector<std::uint8_t> out;
  std::uint8_t flags = 0;
  if (msg.incremental) flags |= 1u;
  if (msg.lambda.has_value()) flags |= 2u;
  wire::PutU8(out, flags);
  wire::PutF64(out, msg.lambda.value_or(0.0));
  wire::PutU32(out, static_cast<std::uint32_t>(msg.updates.size()));
  for (const EdgeUpdate& op : msg.updates) {
    wire::PutU8(out, static_cast<std::uint8_t>(op.kind));
    wire::PutU32(out, op.u);
    wire::PutU32(out, op.v);
    wire::PutF64(out, op.weight);
  }
  return out;
}

bool DecodeApplyUpdates(std::span<const std::uint8_t> payload,
                        ApplyUpdatesMsg* out) {
  std::size_t at = 0;
  std::uint8_t flags = 0;
  double lambda = 0.0;
  std::uint32_t count = 0;
  if (!wire::GetU8(payload, &at, &flags) ||
      !wire::GetF64(payload, &at, &lambda) ||
      !wire::GetU32(payload, &at, &count)) {
    return false;
  }
  if ((flags & ~3u) != 0) return false;
  if (count > kMaxUpdatesPerMessage) return false;
  ApplyUpdatesMsg msg;
  msg.incremental = (flags & 1u) != 0;
  if ((flags & 2u) != 0) msg.lambda = lambda;
  msg.updates.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint8_t kind = 0;
    EdgeUpdate op;
    if (!wire::GetU8(payload, &at, &kind) ||
        !wire::GetU32(payload, &at, &op.u) ||
        !wire::GetU32(payload, &at, &op.v) ||
        !wire::GetF64(payload, &at, &op.weight)) {
      return false;
    }
    if (kind > static_cast<std::uint8_t>(EdgeUpdateKind::kSetWeight)) {
      return false;
    }
    op.kind = static_cast<EdgeUpdateKind>(kind);
    msg.updates.push_back(op);
  }
  if (at != payload.size()) return false;
  *out = std::move(msg);
  return true;
}

std::vector<std::uint8_t> EncodeApplyUpdatesAck(
    const ApplyUpdatesAckMsg& msg) {
  std::vector<std::uint8_t> out;
  wire::PutU8(out, msg.ok ? 1 : 0);
  wire::PutU64(out, msg.epoch);
  return out;
}

bool DecodeApplyUpdatesAck(std::span<const std::uint8_t> payload,
                           ApplyUpdatesAckMsg* out) {
  std::size_t at = 0;
  std::uint8_t ok = 0;
  ApplyUpdatesAckMsg msg;
  if (!wire::GetU8(payload, &at, &ok) ||
      !wire::GetU64(payload, &at, &msg.epoch)) {
    return false;
  }
  if (ok > 1 || at != payload.size()) return false;
  msg.ok = ok == 1;
  *out = msg;
  return true;
}

std::vector<std::uint8_t> EncodeActivateEpoch(const ActivateEpochMsg& msg) {
  std::vector<std::uint8_t> out;
  wire::PutU64(out, msg.epoch);
  return out;
}

bool DecodeActivateEpoch(std::span<const std::uint8_t> payload,
                         ActivateEpochMsg* out) {
  std::size_t at = 0;
  ActivateEpochMsg msg;
  if (!wire::GetU64(payload, &at, &msg.epoch) || at != payload.size()) {
    return false;
  }
  *out = msg;
  return true;
}

std::vector<std::uint8_t> EncodeError(const ErrorMsg& msg) {
  std::vector<std::uint8_t> out;
  wire::PutU16(out, msg.code);
  wire::PutU32(out, static_cast<std::uint32_t>(msg.message.size()));
  out.insert(out.end(), msg.message.begin(), msg.message.end());
  return out;
}

bool DecodeError(std::span<const std::uint8_t> payload, ErrorMsg* out) {
  std::size_t at = 0;
  std::uint16_t code = 0;
  std::uint32_t len = 0;
  if (!wire::GetU16(payload, &at, &code) ||
      !wire::GetU32(payload, &at, &len)) {
    return false;
  }
  if (payload.size() - at != len) return false;
  out->code = code;
  out->message.assign(payload.begin() + static_cast<std::ptrdiff_t>(at),
                      payload.end());
  return true;
}

std::vector<std::uint8_t> EncodeStatsRequest(const StatsRequestMsg& msg) {
  std::vector<std::uint8_t> out;
  PutString(out, msg.prefix);
  return out;
}

bool DecodeStatsRequest(std::span<const std::uint8_t> payload,
                        StatsRequestMsg* out) {
  std::size_t at = 0;
  StatsRequestMsg msg;
  if (!GetString(payload, &at, &msg.prefix)) return false;
  if (at != payload.size()) return false;
  *out = std::move(msg);
  return true;
}

std::vector<std::uint8_t> EncodeStatsReply(const StatsReplyMsg& msg) {
  std::vector<std::uint8_t> out;
  wire::PutU8(out, obs::kHistogramSchemeId);
  wire::PutU32(out, msg.num_shards);
  wire::PutU32(out, static_cast<std::uint32_t>(msg.snapshot.counters.size()));
  for (const auto& [name, value] : msg.snapshot.counters) {
    PutString(out, name);
    wire::PutU64(out, value);
  }
  wire::PutU32(out, static_cast<std::uint32_t>(msg.snapshot.gauges.size()));
  for (const auto& [name, value] : msg.snapshot.gauges) {
    PutString(out, name);
    wire::PutF64(out, value);
  }
  wire::PutU32(out,
               static_cast<std::uint32_t>(msg.snapshot.histograms.size()));
  for (const auto& [name, h] : msg.snapshot.histograms) {
    PutString(out, name);
    wire::PutU8(out, static_cast<std::uint8_t>(obs::kHistogramBuckets));
    for (std::size_t b = 0; b < obs::kHistogramBuckets; ++b) {
      wire::PutU64(out, b < h.buckets.size() ? h.buckets[b] : 0);
    }
    wire::PutU64(out, h.count);
    wire::PutU64(out, h.sum_ns);
  }
  return out;
}

bool DecodeStatsReply(std::span<const std::uint8_t> payload,
                      StatsReplyMsg* out) {
  std::size_t at = 0;
  std::uint8_t scheme = 0;
  std::uint32_t num_counters = 0;
  StatsReplyMsg msg;
  if (!wire::GetU8(payload, &at, &scheme) ||
      !wire::GetU32(payload, &at, &msg.num_shards) ||
      !wire::GetU32(payload, &at, &num_counters)) {
    return false;
  }
  if (scheme != obs::kHistogramSchemeId) return false;
  if (num_counters > kMaxStatsScalarEntries) return false;
  for (std::uint32_t i = 0; i < num_counters; ++i) {
    std::string name;
    std::uint64_t value = 0;
    if (!GetString(payload, &at, &name) ||
        !wire::GetU64(payload, &at, &value)) {
      return false;
    }
    msg.snapshot.counters[std::move(name)] = value;
  }
  std::uint32_t num_gauges = 0;
  if (!wire::GetU32(payload, &at, &num_gauges)) return false;
  if (num_gauges > kMaxStatsScalarEntries) return false;
  for (std::uint32_t i = 0; i < num_gauges; ++i) {
    std::string name;
    double value = 0.0;
    if (!GetString(payload, &at, &name) ||
        !wire::GetF64(payload, &at, &value)) {
      return false;
    }
    msg.snapshot.gauges[std::move(name)] = value;
  }
  std::uint32_t num_histograms = 0;
  if (!wire::GetU32(payload, &at, &num_histograms)) return false;
  if (num_histograms > kMaxStatsHistogramEntries) return false;
  for (std::uint32_t i = 0; i < num_histograms; ++i) {
    std::string name;
    std::uint8_t buckets = 0;
    if (!GetString(payload, &at, &name) ||
        !wire::GetU8(payload, &at, &buckets)) {
      return false;
    }
    if (buckets != obs::kHistogramBuckets) return false;
    obs::HistogramData h;
    for (std::size_t b = 0; b < obs::kHistogramBuckets; ++b) {
      if (!wire::GetU64(payload, &at, &h.buckets[b])) return false;
    }
    if (!wire::GetU64(payload, &at, &h.count) ||
        !wire::GetU64(payload, &at, &h.sum_ns)) {
      return false;
    }
    msg.snapshot.histograms[std::move(name)] = std::move(h);
  }
  if (at != payload.size()) return false;
  *out = std::move(msg);
  return true;
}

std::vector<std::uint8_t> EncodeServiceRequest(const ServiceRequest& msg) {
  std::vector<std::uint8_t> out;
  msg.AppendTo(out);
  return out;
}

std::vector<std::uint8_t> EncodeServiceResponse(const ServiceResponse& msg) {
  std::vector<std::uint8_t> out;
  msg.AppendTo(out);
  return out;
}

bool DecodeServiceRequest(std::span<const std::uint8_t> payload,
                          ServiceRequest* out) {
  std::size_t at = 0;
  return out->ParseFrom(payload, &at) && at == payload.size();
}

bool DecodeServiceResponse(std::span<const std::uint8_t> payload,
                           ServiceResponse* out) {
  std::size_t at = 0;
  return out->ParseFrom(payload, &at) && at == payload.size();
}

}  // namespace geer::net
