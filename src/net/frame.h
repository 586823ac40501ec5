// The wire framing of the networked serving tier: every message between
// a client, the router and a shard server is one length-prefixed frame
//
//   ┌────────────┬─────────┬──────┬──────────────┬──────────────────┐
//   │ length:u32 │ ver:u8  │ t:u8 │ request_id:  │ payload          │
//   │ (LE)       │         │      │ u64 (LE)     │ (length−10 bytes)│
//   └────────────┴─────────┴──────┴──────────────┴──────────────────┘
//
// `length` counts every byte AFTER the length field (version + type +
// request_id + payload), so a reader always knows how much to buffer
// before touching the body. `ver` is kServiceProtocolVersion
// (serve/service_api.h) and is checked per frame; `request_id` echoes
// from request to reply so clients can pipeline. Frame payloads are the
// typed messages of net/codec.h.
//
// FrameReader is the transport-independent incremental decoder: feed it
// bytes in any fragmentation and it yields whole frames, flags
// truncation-in-progress as "need more", and rejects malformed input
// (bad version, oversized or impossible length) WITHOUT crashing — the
// contract the codec fuzz suite drives with garbage bytes.

#ifndef GEER_NET_FRAME_H_
#define GEER_NET_FRAME_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/service_api.h"

namespace geer::net {

/// Frame types of protocol version 1. Values are wire-stable: never
/// renumber; append only.
enum class FrameType : std::uint8_t {
  kHello = 1,            ///< client → server: version handshake
  kHelloAck = 2,         ///< server → client: deployment info
  kQuery = 3,            ///< ServiceRequest payload
  kQueryReply = 4,       ///< ServiceResponse payload
  kFlush = 5,            ///< control: dispatch whatever is queued
  kFlushAck = 6,         ///< control ack (empty payload)
  kApplyUpdates = 7,     ///< control: edge updates + epoch swap
  kApplyUpdatesAck = 8,  ///< control ack: ok flag + new epoch
  kShutdown = 9,         ///< control: drain and stop serving
  kShutdownAck = 10,     ///< control ack (empty payload)
  kError = 11,           ///< server → client: code + message
  kStats = 12,           ///< control: scrape metrics (prefix filter)
  kStatsReply = 13,      ///< counters + gauges + histogram snapshot
  kPrepareUpdates = 14,  ///< control: stage an epoch, keep serving (acked
                         ///< kApplyUpdatesAck with the prepared epoch)
  kActivateEpoch = 15,   ///< control: swap the prepared epoch in
                         ///< (acked kApplyUpdatesAck)
};

/// True for the version-1 values above (dispatchers reply kError to
/// anything else instead of aborting — forward compatibility).
bool IsKnownFrameType(std::uint8_t type);

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kError;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

/// Frame header: length(4) + version(1) + type(1) + request_id(8).
inline constexpr std::size_t kFrameHeaderBytes = 14;
/// Bytes of the header counted by the length field (everything after
/// the length prefix itself).
inline constexpr std::uint32_t kFrameLengthOverhead = 10;
/// Hard cap on one frame's payload (16 MiB) — a length prefix beyond it
/// is rejected as malformed rather than buffered, so a garbage or
/// hostile length cannot balloon server memory.
inline constexpr std::size_t kMaxFramePayload = 16u << 20;

/// Serializes one frame (header + payload) onto `out`.
void AppendFrame(std::vector<std::uint8_t>& out, FrameType type,
                 std::uint64_t request_id,
                 std::span<const std::uint8_t> payload);

/// Convenience: one frame as a fresh buffer.
std::vector<std::uint8_t> EncodeFrame(FrameType type,
                                      std::uint64_t request_id,
                                      std::span<const std::uint8_t> payload);

/// Incremental frame decoder over an arbitrarily fragmented byte
/// stream. Not thread-safe (one reader per connection).
class FrameReader {
 public:
  enum class Status {
    kFrame,     ///< *out holds the next whole frame
    kNeedMore,  ///< the buffered prefix is a valid partial frame
    kMalformed, ///< protocol violation; the connection should close
  };

  /// Appends raw bytes (any fragmentation, including 1 byte at a time).
  void Feed(std::span<const std::uint8_t> bytes);

  /// Pops the next frame if a whole one is buffered. On kMalformed,
  /// `error` (if non-null) describes the violation and the reader stays
  /// poisoned — every later Next() reports the same violation.
  Status Next(Frame* out, std::string* error = nullptr);

  /// Bytes currently buffered (tests).
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  // decoded prefix, compacted lazily
  bool poisoned_ = false;
  std::string poison_reason_;
};

}  // namespace geer::net

#endif  // GEER_NET_FRAME_H_
