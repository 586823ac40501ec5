#include "net/frame.h"

namespace geer::net {

bool IsKnownFrameType(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(FrameType::kHello) &&
         type <= static_cast<std::uint8_t>(FrameType::kActivateEpoch);
}

void AppendFrame(std::vector<std::uint8_t>& out, FrameType type,
                 std::uint64_t request_id,
                 std::span<const std::uint8_t> payload) {
  const std::uint32_t length =
      kFrameLengthOverhead + static_cast<std::uint32_t>(payload.size());
  out.reserve(out.size() + kFrameHeaderBytes + payload.size());
  wire::PutU32(out, length);
  wire::PutU8(out, kServiceProtocolVersion);
  wire::PutU8(out, static_cast<std::uint8_t>(type));
  wire::PutU64(out, request_id);
  out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<std::uint8_t> EncodeFrame(FrameType type,
                                      std::uint64_t request_id,
                                      std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  AppendFrame(out, type, request_id, payload);
  return out;
}

void FrameReader::Feed(std::span<const std::uint8_t> bytes) {
  if (poisoned_) return;  // connection is dead anyway; drop quietly
  // Compact once the decoded prefix dominates, so a long-lived
  // connection does not grow its buffer without bound.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

FrameReader::Status FrameReader::Next(Frame* out, std::string* error) {
  if (poisoned_) {
    if (error != nullptr) *error = poison_reason_;
    return Status::kMalformed;
  }
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < 4) return Status::kNeedMore;
  const std::span<const std::uint8_t> in(buffer_.data() + consumed_, avail);
  std::size_t at = 0;
  std::uint32_t length = 0;
  wire::GetU32(in, &at, &length);
  // Validate the length BEFORE waiting for the body: a garbage prefix
  // must fail fast, not demand 4 GiB of "more bytes".
  if (length < kFrameLengthOverhead ||
      length > kFrameLengthOverhead + kMaxFramePayload) {
    poisoned_ = true;
    poison_reason_ = "frame length " + std::to_string(length) +
                     " outside [" + std::to_string(kFrameLengthOverhead) +
                     ", " +
                     std::to_string(kFrameLengthOverhead + kMaxFramePayload) +
                     "]";
    if (error != nullptr) *error = poison_reason_;
    return Status::kMalformed;
  }
  if (avail < 4u + length) return Status::kNeedMore;

  std::uint8_t version = 0;
  std::uint8_t type = 0;
  std::uint64_t request_id = 0;
  wire::GetU8(in, &at, &version);
  wire::GetU8(in, &at, &type);
  wire::GetU64(in, &at, &request_id);
  if (version != kServiceProtocolVersion) {
    poisoned_ = true;
    poison_reason_ = "protocol version " + std::to_string(version) +
                     " != " + std::to_string(kServiceProtocolVersion);
    if (error != nullptr) *error = poison_reason_;
    return Status::kMalformed;
  }
  // Unknown types pass through as frames (the dispatcher answers kError)
  // so that a NEWER peer's new control frames degrade gracefully instead
  // of severing the connection mid-stream.
  out->type = static_cast<FrameType>(type);
  out->request_id = request_id;
  const std::size_t payload_bytes = length - kFrameLengthOverhead;
  out->payload.assign(in.begin() + static_cast<std::ptrdiff_t>(at),
                      in.begin() + static_cast<std::ptrdiff_t>(at) +
                          static_cast<std::ptrdiff_t>(payload_bytes));
  consumed_ += 4u + length;
  return Status::kFrame;
}

}  // namespace geer::net
