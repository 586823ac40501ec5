#include "net/client.h"

namespace geer::net {

bool Client::Connect(const std::string& host, std::uint16_t port,
                     std::string* error) {
  Close();
  sock_ = ConnectTo(host, port, error);
  if (!sock_.valid()) return false;
  broken_ = false;
  if (!Hello(error)) {
    Close();
    return false;
  }
  return true;
}

bool Client::Hello(std::string* error) {
  Frame reply;
  if (!Call(FrameType::kHello, {}, FrameType::kHelloAck, &reply, error)) {
    return false;
  }
  if (!DecodeHelloAck(reply.payload, &info_)) {
    broken_ = true;
    if (error != nullptr) *error = "undecodable hello ack";
    return false;
  }
  return true;
}

bool Client::Call(FrameType type, std::span<const std::uint8_t> payload,
                  FrameType expect, Frame* reply, std::string* error) {
  if (!connected()) {
    if (error != nullptr) *error = "not connected";
    return false;
  }
  const std::uint64_t id = next_request_id_++;
  if (!SendFrame(sock_, type, id, payload)) {
    broken_ = true;
    if (error != nullptr) *error = "send failed";
    return false;
  }
  if (!RecvFrame(sock_, reader_, reply, error)) {
    broken_ = true;
    return false;
  }
  if (reply->request_id != id) {
    broken_ = true;
    if (error != nullptr) *error = "request id mismatch (desynced peer)";
    return false;
  }
  if (reply->type == FrameType::kError) {
    // Service-level rejection; the connection itself is still usable.
    ErrorMsg err;
    if (error != nullptr) {
      *error = DecodeError(reply->payload, &err)
                   ? "server error " + std::to_string(err.code) + ": " +
                         err.message
                   : "server error (undecodable)";
    }
    return false;
  }
  if (reply->type != expect) {
    broken_ = true;
    if (error != nullptr) *error = "unexpected reply frame type";
    return false;
  }
  return true;
}

bool Client::Query(const ServiceRequest& request, ServiceResponse* response,
                   std::string* error) {
  Frame reply;
  if (!Call(FrameType::kQuery, EncodeServiceRequest(request),
            FrameType::kQueryReply, &reply, error)) {
    return false;
  }
  if (!DecodeServiceResponse(reply.payload, response)) {
    broken_ = true;
    if (error != nullptr) *error = "undecodable query reply";
    return false;
  }
  return true;
}

bool Client::Flush(std::string* error) {
  Frame reply;
  return Call(FrameType::kFlush, {}, FrameType::kFlushAck, &reply, error);
}

bool Client::CallForAck(FrameType type, std::span<const std::uint8_t> payload,
                        ApplyUpdatesAckMsg* ack, std::string* error) {
  Frame reply;
  if (!Call(type, payload, FrameType::kApplyUpdatesAck, &reply, error)) {
    return false;
  }
  if (!DecodeApplyUpdatesAck(reply.payload, ack)) {
    broken_ = true;
    if (error != nullptr) *error = "undecodable apply-updates ack";
    return false;
  }
  return true;
}

bool Client::ApplyUpdates(const ApplyUpdatesMsg& msg, ApplyUpdatesAckMsg* ack,
                          std::string* error) {
  return CallForAck(FrameType::kApplyUpdates, EncodeApplyUpdates(msg), ack,
                    error);
}

bool Client::PrepareUpdates(const ApplyUpdatesMsg& msg,
                            ApplyUpdatesAckMsg* ack, std::string* error) {
  return CallForAck(FrameType::kPrepareUpdates, EncodeApplyUpdates(msg), ack,
                    error);
}

bool Client::ActivateEpoch(std::uint64_t epoch, ApplyUpdatesAckMsg* ack,
                           std::string* error) {
  return CallForAck(FrameType::kActivateEpoch, EncodeActivateEpoch({epoch}),
                    ack, error);
}

bool Client::Stats(const StatsRequestMsg& msg, StatsReplyMsg* reply,
                   std::string* error) {
  Frame frame;
  if (!Call(FrameType::kStats, EncodeStatsRequest(msg), FrameType::kStatsReply,
            &frame, error)) {
    return false;
  }
  if (!DecodeStatsReply(frame.payload, reply)) {
    broken_ = true;
    if (error != nullptr) *error = "undecodable stats reply";
    return false;
  }
  return true;
}

bool Client::Shutdown(std::string* error) {
  Frame reply;
  return Call(FrameType::kShutdown, {}, FrameType::kShutdownAck, &reply,
              error);
}

void Client::Close() {
  sock_.Close();
  reader_ = FrameReader();
  broken_ = false;
}

ClientPool::ClientPool(std::string host, std::uint16_t port, int size)
    : host_(std::move(host)), port_(port) {
  if (size < 1) size = 1;
  slots_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    slots_.push_back(std::make_unique<Client>());
    free_.push_back(slots_.back().get());
  }
}

ClientPool::Lease ClientPool::Acquire() {
  Client* client = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    free_cv_.wait(lock, [this] { return !free_.empty(); });
    client = free_.back();
    free_.pop_back();
  }
  if (!client->connected()) {
    std::string error;
    if (!client->Connect(host_, port_, &error)) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        last_error_ = error;
        free_.push_back(client);
      }
      free_cv_.notify_one();
      return Lease(nullptr, nullptr);
    }
  }
  return Lease(this, client);
}

void ClientPool::Return(Client* client) {
  if (client == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(client);
  }
  free_cv_.notify_one();
}

std::string ClientPool::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

}  // namespace geer::net
