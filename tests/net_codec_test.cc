// The wire-codec contract (net/frame.h + net/codec.h): every message
// round-trips bit-exactly; every decoder survives truncation at EVERY
// byte boundary, trailing garbage and random bytes without crashing;
// the FrameReader reassembles frames under arbitrary fragmentation
// (including 1-byte feeds), poisons itself permanently on a version
// mismatch or an impossible length prefix, and passes unknown frame
// types through for the dispatcher to reject (forward compatibility).
// Also pins the frozen numeric surface of protocol version 1: header
// sizes, FrameType values and the ServeStatus range check.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "dyn/dynamic_graph.h"
#include "net/codec.h"
#include "net/frame.h"
#include "serve/service_api.h"

namespace geer::net {
namespace {

std::vector<std::uint8_t> Bytes(std::initializer_list<int> xs) {
  std::vector<std::uint8_t> out;
  for (int x : xs) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

/// Asserts the truncation-tolerance half of the codec contract: every
/// strict prefix of a valid encoding must decode to false, and one
/// trailing byte must too (strict-length decoders reject padding).
template <typename Msg, typename Decoder>
void ExpectRejectsTruncationAndPadding(const std::vector<std::uint8_t>& enc,
                                       Decoder decode) {
  for (std::size_t cut = 0; cut < enc.size(); ++cut) {
    Msg out;
    std::vector<std::uint8_t> prefix(enc.begin(),
                                     enc.begin() + static_cast<long>(cut));
    EXPECT_FALSE(decode(prefix, &out)) << "prefix of " << cut << " bytes";
  }
  std::vector<std::uint8_t> padded = enc;
  padded.push_back(0);
  Msg out;
  EXPECT_FALSE(decode(padded, &out)) << "trailing byte accepted";
}

// ---------------------------------------------------------------- frames

TEST(FrameTest, WireConstantsAreFrozen) {
  // Protocol version 1 numerics — a change here is a wire break and must
  // bump kServiceProtocolVersion, not edit this test.
  EXPECT_EQ(kServiceProtocolVersion, 1);
  EXPECT_EQ(kFrameHeaderBytes, 14u);
  EXPECT_EQ(kFrameLengthOverhead, 10u);
  EXPECT_EQ(static_cast<int>(FrameType::kHello), 1);
  EXPECT_EQ(static_cast<int>(FrameType::kHelloAck), 2);
  EXPECT_EQ(static_cast<int>(FrameType::kQuery), 3);
  EXPECT_EQ(static_cast<int>(FrameType::kQueryReply), 4);
  EXPECT_EQ(static_cast<int>(FrameType::kFlush), 5);
  EXPECT_EQ(static_cast<int>(FrameType::kFlushAck), 6);
  EXPECT_EQ(static_cast<int>(FrameType::kApplyUpdates), 7);
  EXPECT_EQ(static_cast<int>(FrameType::kApplyUpdatesAck), 8);
  EXPECT_EQ(static_cast<int>(FrameType::kShutdown), 9);
  EXPECT_EQ(static_cast<int>(FrameType::kShutdownAck), 10);
  EXPECT_EQ(static_cast<int>(FrameType::kError), 11);
  EXPECT_EQ(static_cast<int>(FrameType::kStats), 12);
  EXPECT_EQ(static_cast<int>(FrameType::kStatsReply), 13);
  EXPECT_EQ(static_cast<int>(FrameType::kPrepareUpdates), 14);
  EXPECT_EQ(static_cast<int>(FrameType::kActivateEpoch), 15);
  EXPECT_TRUE(IsKnownFrameType(1));
  EXPECT_TRUE(IsKnownFrameType(11));
  EXPECT_TRUE(IsKnownFrameType(12));
  EXPECT_TRUE(IsKnownFrameType(13));
  EXPECT_TRUE(IsKnownFrameType(14));
  EXPECT_TRUE(IsKnownFrameType(15));
  EXPECT_FALSE(IsKnownFrameType(0));
  // Appending a frame type moves this probe to the next free value.
  EXPECT_FALSE(IsKnownFrameType(16));
}

TEST(FrameTest, RoundTripWholeBuffer) {
  const auto payload = Bytes({1, 2, 3, 4, 5});
  const auto enc = EncodeFrame(FrameType::kQuery, 0xABCDEF0123456789ull,
                               payload);
  ASSERT_EQ(enc.size(), kFrameHeaderBytes + payload.size());

  FrameReader reader;
  reader.Feed(enc);
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kQuery);
  EXPECT_EQ(frame.request_id, 0xABCDEF0123456789ull);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(reader.buffered(), 0u);
  EXPECT_EQ(reader.Next(&frame), FrameReader::Status::kNeedMore);
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  const auto enc = EncodeFrame(FrameType::kFlush, 7, {});
  FrameReader reader;
  reader.Feed(enc);
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kFlush);
  EXPECT_EQ(frame.request_id, 7u);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameTest, OneByteFeedsReassemble) {
  const auto payload = Bytes({9, 8, 7});
  const auto enc = EncodeFrame(FrameType::kQueryReply, 42, payload);
  FrameReader reader;
  Frame frame;
  for (std::size_t i = 0; i + 1 < enc.size(); ++i) {
    reader.Feed({&enc[i], 1});
    EXPECT_EQ(reader.Next(&frame), FrameReader::Status::kNeedMore)
        << "whole frame after only " << i + 1 << " bytes";
  }
  reader.Feed({&enc.back(), 1});
  ASSERT_EQ(reader.Next(&frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.payload, payload);
}

TEST(FrameTest, EverySplitPointOfThreeFrames) {
  std::vector<std::uint8_t> stream;
  AppendFrame(stream, FrameType::kHello, 1, {});
  AppendFrame(stream, FrameType::kQuery, 2, Bytes({0xAA, 0xBB}));
  AppendFrame(stream, FrameType::kShutdown, 3, Bytes({1}));

  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    FrameReader reader;
    reader.Feed({stream.data(), cut});
    reader.Feed({stream.data() + cut, stream.size() - cut});
    Frame frame;
    for (std::uint64_t want_id = 1; want_id <= 3; ++want_id) {
      ASSERT_EQ(reader.Next(&frame), FrameReader::Status::kFrame)
          << "cut at " << cut << ", frame " << want_id;
      EXPECT_EQ(frame.request_id, want_id);
    }
    EXPECT_EQ(reader.Next(&frame), FrameReader::Status::kNeedMore);
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

TEST(FrameTest, VersionMismatchPoisonsPermanently) {
  auto enc = EncodeFrame(FrameType::kQuery, 5, Bytes({1, 2}));
  enc[4] = kServiceProtocolVersion + 1;  // version byte follows length
  FrameReader reader;
  reader.Feed(enc);
  Frame frame;
  std::string error;
  EXPECT_EQ(reader.Next(&frame, &error), FrameReader::Status::kMalformed);
  EXPECT_NE(error.find("version"), std::string::npos);

  // Poisoned: even a subsequently fed VALID frame is never surfaced.
  reader.Feed(EncodeFrame(FrameType::kQuery, 6, {}));
  EXPECT_EQ(reader.Next(&frame), FrameReader::Status::kMalformed);
}

TEST(FrameTest, OversizedLengthRejectedBeforeBuffering) {
  // A hostile length prefix must fail fast with only 4 bytes fed, not
  // request 16 MiB of "more bytes".
  std::vector<std::uint8_t> enc;
  wire::PutU32(enc, static_cast<std::uint32_t>(kFrameLengthOverhead +
                                               kMaxFramePayload + 1));
  FrameReader reader;
  reader.Feed(enc);
  Frame frame;
  std::string error;
  EXPECT_EQ(reader.Next(&frame, &error), FrameReader::Status::kMalformed);
  EXPECT_NE(error.find("length"), std::string::npos);
}

TEST(FrameTest, ImpossiblyShortLengthRejected) {
  for (std::uint32_t length : {0u, 1u, kFrameLengthOverhead - 1}) {
    std::vector<std::uint8_t> enc;
    wire::PutU32(enc, length);
    FrameReader reader;
    reader.Feed(enc);
    Frame frame;
    EXPECT_EQ(reader.Next(&frame), FrameReader::Status::kMalformed)
        << "length " << length;
  }
}

TEST(FrameTest, UnknownTypePassesThroughForDispatcher) {
  const auto enc = EncodeFrame(static_cast<FrameType>(200), 9, Bytes({1}));
  FrameReader reader;
  reader.Feed(enc);
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::Status::kFrame);
  EXPECT_EQ(static_cast<std::uint8_t>(frame.type), 200);
  EXPECT_FALSE(IsKnownFrameType(static_cast<std::uint8_t>(frame.type)));
}

TEST(FrameTest, RandomGarbageNeverYieldsEndlessNeedMore) {
  // Deterministic garbage: the reader must terminate each stream in
  // kMalformed or a bounded kNeedMore — never crash, never loop. (A
  // random prefix can by chance form a valid header; draining frames
  // until a non-kFrame status is part of the contract.)
  std::mt19937 rng(20260809);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> junk(1 + rng() % 64);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    FrameReader reader;
    reader.Feed(junk);
    Frame frame;
    int spins = 0;
    while (reader.Next(&frame) == FrameReader::Status::kFrame) {
      ASSERT_LT(++spins, 100);
    }
  }
}

// ---------------------------------------------------------------- codec

TEST(CodecTest, HelloAckRoundTrip) {
  HelloAckMsg msg;
  msg.num_nodes = 4039;
  msg.num_edges = 88234;
  msg.epoch = 17;
  msg.num_shards = 4;
  const auto enc = EncodeHelloAck(msg);
  HelloAckMsg out;
  ASSERT_TRUE(DecodeHelloAck(enc, &out));
  EXPECT_EQ(out.num_nodes, msg.num_nodes);
  EXPECT_EQ(out.num_edges, msg.num_edges);
  EXPECT_EQ(out.epoch, msg.epoch);
  EXPECT_EQ(out.num_shards, msg.num_shards);
  ExpectRejectsTruncationAndPadding<HelloAckMsg>(enc, DecodeHelloAck);
}

TEST(CodecTest, ApplyUpdatesRoundTripAllKinds) {
  ApplyUpdatesMsg msg;
  msg.incremental = true;
  msg.lambda = 0.123456789e-3;
  msg.updates = {
      {EdgeUpdateKind::kInsert, 1, 2, 1.0},
      {EdgeUpdateKind::kDelete, 3, 4, 1.0},
      {EdgeUpdateKind::kSetWeight, 5, 6, 2.5},
  };
  const auto enc = EncodeApplyUpdates(msg);
  ApplyUpdatesMsg out;
  ASSERT_TRUE(DecodeApplyUpdates(enc, &out));
  EXPECT_TRUE(out.incremental);
  ASSERT_TRUE(out.lambda.has_value());
  EXPECT_EQ(*out.lambda, *msg.lambda);  // bit-exact f64 round trip
  EXPECT_EQ(out.updates, msg.updates);
  ExpectRejectsTruncationAndPadding<ApplyUpdatesMsg>(enc, DecodeApplyUpdates);
}

TEST(CodecTest, ApplyUpdatesWithoutLambdaAndEmptyBatch) {
  ApplyUpdatesMsg msg;  // non-incremental, no lambda, no updates
  const auto enc = EncodeApplyUpdates(msg);
  ApplyUpdatesMsg out;
  out.lambda = 1.0;  // must be cleared by decode
  ASSERT_TRUE(DecodeApplyUpdates(enc, &out));
  EXPECT_FALSE(out.incremental);
  EXPECT_FALSE(out.lambda.has_value());
  EXPECT_TRUE(out.updates.empty());
}

TEST(CodecTest, ApplyUpdatesRejectsUnknownFlagBits) {
  auto enc = EncodeApplyUpdates({});
  enc[0] = 4;  // flags: only bits 0 and 1 are defined at version 1
  ApplyUpdatesMsg out;
  EXPECT_FALSE(DecodeApplyUpdates(enc, &out));
}

TEST(CodecTest, ApplyUpdatesRejectsUnknownUpdateKind) {
  ApplyUpdatesMsg msg;
  msg.updates = {{EdgeUpdateKind::kInsert, 1, 2, 1.0}};
  auto enc = EncodeApplyUpdates(msg);
  // kind byte of update 0 sits right after flags(1)+lambda(8)+count(4).
  enc[13] = 3;
  ApplyUpdatesMsg out;
  EXPECT_FALSE(DecodeApplyUpdates(enc, &out));
}

TEST(CodecTest, ApplyUpdatesRejectsHostileCount) {
  // count = 2^32-1 would reserve ~70 GiB; the decoder must refuse from
  // the count alone, before touching (absent) update bytes.
  std::vector<std::uint8_t> enc;
  wire::PutU8(enc, 0);
  wire::PutF64(enc, 0.0);
  wire::PutU32(enc, std::numeric_limits<std::uint32_t>::max());
  ApplyUpdatesMsg out;
  EXPECT_FALSE(DecodeApplyUpdates(enc, &out));
}

TEST(CodecTest, ApplyUpdatesAckRoundTrip) {
  for (bool ok : {false, true}) {
    ApplyUpdatesAckMsg msg;
    msg.ok = ok;
    msg.epoch = 3;
    const auto enc = EncodeApplyUpdatesAck(msg);
    ApplyUpdatesAckMsg out;
    ASSERT_TRUE(DecodeApplyUpdatesAck(enc, &out));
    EXPECT_EQ(out.ok, ok);
    EXPECT_EQ(out.epoch, 3u);
    ExpectRejectsTruncationAndPadding<ApplyUpdatesAckMsg>(
        enc, DecodeApplyUpdatesAck);
  }
}

TEST(CodecTest, ApplyUpdatesAckRejectsNonBooleanOkByte) {
  auto enc = EncodeApplyUpdatesAck({true, 3});
  enc[0] = 2;
  ApplyUpdatesAckMsg out;
  EXPECT_FALSE(DecodeApplyUpdatesAck(enc, &out));
}

TEST(CodecTest, ActivateEpochRoundTrip) {
  for (std::uint64_t epoch :
       {std::uint64_t{0}, std::uint64_t{7},
        std::numeric_limits<std::uint64_t>::max()}) {
    const auto enc = EncodeActivateEpoch({epoch});
    ActivateEpochMsg out;
    ASSERT_TRUE(DecodeActivateEpoch(enc, &out));
    EXPECT_EQ(out.epoch, epoch);
    ExpectRejectsTruncationAndPadding<ActivateEpochMsg>(enc,
                                                        DecodeActivateEpoch);
  }
}

TEST(CodecTest, PrepareAndActivateFramesRoundTrip) {
  // kPrepareUpdates carries an ApplyUpdatesMsg, kActivateEpoch an
  // ActivateEpochMsg; both reassemble through the FrameReader with their
  // type and request id intact.
  ApplyUpdatesMsg prepare;
  prepare.lambda = 0.75;
  prepare.updates = {{EdgeUpdateKind::kInsert, 1, 2, 1.0},
                     {EdgeUpdateKind::kDelete, 3, 4, 1.0}};
  std::vector<std::uint8_t> stream;
  AppendFrame(stream, FrameType::kPrepareUpdates, 41,
              EncodeApplyUpdates(prepare));
  AppendFrame(stream, FrameType::kActivateEpoch, 42, EncodeActivateEpoch({5}));
  FrameReader reader;
  reader.Feed(stream);
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kPrepareUpdates);
  EXPECT_EQ(frame.request_id, 41u);
  ApplyUpdatesMsg got;
  ASSERT_TRUE(DecodeApplyUpdates(frame.payload, &got));
  EXPECT_EQ(got.lambda, prepare.lambda);
  EXPECT_EQ(got.updates, prepare.updates);
  ASSERT_EQ(reader.Next(&frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kActivateEpoch);
  EXPECT_EQ(frame.request_id, 42u);
  ActivateEpochMsg activate;
  ASSERT_TRUE(DecodeActivateEpoch(frame.payload, &activate));
  EXPECT_EQ(activate.epoch, 5u);
  EXPECT_EQ(reader.Next(&frame), FrameReader::Status::kNeedMore);
}

TEST(CodecTest, ErrorRoundTrip) {
  ErrorMsg msg;
  msg.code = ErrorMsg::kOutOfRange;
  msg.message = "node 9999 >= num_nodes 4039";
  const auto enc = EncodeError(msg);
  ErrorMsg out;
  ASSERT_TRUE(DecodeError(enc, &out));
  EXPECT_EQ(out.code, ErrorMsg::kOutOfRange);
  EXPECT_EQ(out.message, msg.message);
  ExpectRejectsTruncationAndPadding<ErrorMsg>(enc, DecodeError);
}

TEST(CodecTest, ErrorWithEmptyMessage) {
  const auto enc = EncodeError({ErrorMsg::kInternal, ""});
  ErrorMsg out;
  ASSERT_TRUE(DecodeError(enc, &out));
  EXPECT_EQ(out.code, ErrorMsg::kInternal);
  EXPECT_TRUE(out.message.empty());
}

TEST(CodecTest, ServiceRequestRoundTrip) {
  ServiceRequest msg;
  msg.s = 12;
  msg.t = 4038;
  msg.deadline_seconds = 0.250;
  const auto enc = EncodeServiceRequest(msg);
  EXPECT_EQ(enc.size(), 16u);  // frozen version-1 layout
  ServiceRequest out;
  ASSERT_TRUE(DecodeServiceRequest(enc, &out));
  EXPECT_EQ(out.s, msg.s);
  EXPECT_EQ(out.t, msg.t);
  EXPECT_EQ(out.deadline_seconds, msg.deadline_seconds);
  ExpectRejectsTruncationAndPadding<ServiceRequest>(enc,
                                                    DecodeServiceRequest);
}

TEST(CodecTest, ServiceResponseRoundTripBitExactValue) {
  ServiceResponse msg;
  msg.status = static_cast<std::uint8_t>(ServeStatus::kAnswered);
  msg.value = 0.7236067977499789;  // irrational-ish; bit pattern matters
  msg.server_ms = 3.25;
  msg.batch_size = 32;
  msg.epoch = 2;
  msg.batch_id = 91;
  const auto enc = EncodeServiceResponse(msg);
  EXPECT_EQ(enc.size(), 37u);  // frozen version-1 layout
  ServiceResponse out;
  ASSERT_TRUE(DecodeServiceResponse(enc, &out));
  EXPECT_EQ(out.value, msg.value);  // bitwise, not approximate
  EXPECT_EQ(out.server_ms, msg.server_ms);
  EXPECT_EQ(out.batch_size, msg.batch_size);
  EXPECT_EQ(out.epoch, msg.epoch);
  EXPECT_EQ(out.batch_id, msg.batch_id);
  ExpectRejectsTruncationAndPadding<ServiceResponse>(enc,
                                                     DecodeServiceResponse);
}

TEST(CodecTest, ServiceResponseRejectsUnknownStatus) {
  ServiceResponse msg;
  auto enc = EncodeServiceResponse(msg);
  enc[0] = kNumServeStatusValues;  // first value beyond the frozen range
  ServiceResponse out;
  EXPECT_FALSE(DecodeServiceResponse(enc, &out));
}

TEST(CodecTest, StatsRequestRoundTrip) {
  for (const std::string& prefix : {std::string(""), std::string("geer_")}) {
    StatsRequestMsg msg;
    msg.prefix = prefix;
    const auto enc = EncodeStatsRequest(msg);
    StatsRequestMsg out;
    out.prefix = "stale";  // must be overwritten, even by the empty prefix
    ASSERT_TRUE(DecodeStatsRequest(enc, &out));
    EXPECT_EQ(out.prefix, prefix);
    if (!prefix.empty()) {
      // The empty prefix encodes to 4 bytes whose every strict prefix is
      // also a truncation of the non-empty encoding; one pass suffices.
      ExpectRejectsTruncationAndPadding<StatsRequestMsg>(enc,
                                                         DecodeStatsRequest);
    }
  }
}

TEST(CodecTest, StatsReplyRoundTrip) {
  StatsReplyMsg msg;
  msg.num_shards = 3;
  msg.snapshot.counters["geer_serve_answered_total{method=\"GEER\"}"] = 12345;
  msg.snapshot.counters["geer_serve_rejected_total"] = 0;
  msg.snapshot.gauges["geer_serve_session_cache_bytes"] = 4096.5;
  obs::HistogramData h;
  h.buckets[0] = 1;
  h.buckets[20] = 7;
  h.buckets[obs::kHistogramBuckets - 1] = 2;
  h.count = 10;
  h.sum_ns = 987654321;
  msg.snapshot.histograms["geer_serve_latency_ns"] = h;

  const auto enc = EncodeStatsReply(msg);
  StatsReplyMsg out;
  ASSERT_TRUE(DecodeStatsReply(enc, &out));
  EXPECT_EQ(out.num_shards, 3u);
  EXPECT_EQ(out.snapshot.counters, msg.snapshot.counters);
  EXPECT_EQ(out.snapshot.gauges, msg.snapshot.gauges);
  ASSERT_EQ(out.snapshot.histograms.size(), 1u);
  const obs::HistogramData& hd =
      out.snapshot.histograms.at("geer_serve_latency_ns");
  EXPECT_EQ(hd.buckets, h.buckets);
  EXPECT_EQ(hd.count, 10u);
  EXPECT_EQ(hd.sum_ns, 987654321u);
  ExpectRejectsTruncationAndPadding<StatsReplyMsg>(enc, DecodeStatsReply);
}

TEST(CodecTest, StatsReplyEmptySnapshotRoundTrips) {
  const auto enc = EncodeStatsReply({});
  StatsReplyMsg out;
  out.snapshot.counters["stale"] = 1;
  ASSERT_TRUE(DecodeStatsReply(enc, &out));
  EXPECT_EQ(out.num_shards, 1u);
  EXPECT_TRUE(out.snapshot.counters.empty());
  EXPECT_TRUE(out.snapshot.gauges.empty());
  EXPECT_TRUE(out.snapshot.histograms.empty());
}

TEST(CodecTest, StatsReplyRejectsForeignBucketScheme) {
  // A re-bucketed histogram must fail decode, never merge wrongly.
  auto enc = EncodeStatsReply({});
  enc[0] = obs::kHistogramSchemeId + 1;  // scheme byte leads the payload
  StatsReplyMsg out;
  EXPECT_FALSE(DecodeStatsReply(enc, &out));
}

TEST(CodecTest, StatsReplyRejectsWrongBucketCount) {
  StatsReplyMsg msg;
  msg.snapshot.histograms["h"] = obs::HistogramData{};
  auto enc = EncodeStatsReply(msg);
  // bucket-count byte: scheme(1)+shards(4)+counters(4)+gauges(4)+
  // histograms(4)+name_len(4)+"h"(1).
  ASSERT_EQ(enc[22], obs::kHistogramBuckets);
  enc[22] = obs::kHistogramBuckets - 1;
  StatsReplyMsg out;
  EXPECT_FALSE(DecodeStatsReply(enc, &out));
}

TEST(CodecTest, StatsReplyRejectsHostileCounts) {
  // A claimed 2^32-1 entries of any section must be refused from the
  // count alone, before any per-entry allocation.
  const std::uint32_t kHuge = std::numeric_limits<std::uint32_t>::max();
  for (int section = 0; section < 3; ++section) {
    std::vector<std::uint8_t> enc;
    wire::PutU8(enc, obs::kHistogramSchemeId);
    wire::PutU32(enc, 1);  // num_shards
    wire::PutU32(enc, section == 0 ? kHuge : 0);  // counters
    if (section >= 1) wire::PutU32(enc, section == 1 ? kHuge : 0);  // gauges
    if (section >= 2) wire::PutU32(enc, kHuge);  // histograms
    StatsReplyMsg out;
    EXPECT_FALSE(DecodeStatsReply(enc, &out)) << "section " << section;
  }
}

TEST(CodecTest, DecodersSurviveRandomGarbage) {
  std::mt19937 rng(987654321);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> junk(rng() % 80);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    // Any of these may "succeed" if the bytes happen to form a valid
    // message; the contract under test is no crash / no throw / no
    // unbounded allocation.
    HelloAckMsg hello;
    DecodeHelloAck(junk, &hello);
    ApplyUpdatesMsg updates;
    DecodeApplyUpdates(junk, &updates);
    ApplyUpdatesAckMsg ack;
    DecodeApplyUpdatesAck(junk, &ack);
    ActivateEpochMsg activate;
    DecodeActivateEpoch(junk, &activate);
    ErrorMsg error;
    DecodeError(junk, &error);
    ServiceRequest request;
    DecodeServiceRequest(junk, &request);
    ServiceResponse response;
    DecodeServiceResponse(junk, &response);
    StatsRequestMsg stats_request;
    DecodeStatsRequest(junk, &stats_request);
    StatsReplyMsg stats_reply;
    DecodeStatsReply(junk, &stats_reply);
  }
}

}  // namespace
}  // namespace geer::net
