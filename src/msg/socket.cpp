#include "msg/socket.h"

#include <algorithm>
#include <utility>

#include "codec/xxhash.h"
#include "common/assert.h"

namespace numastream {

namespace {

// The strict read of one message, shared by PullSocket::recv and
// PushSocket::recv_control: the 32-byte header read in full,
// decode_message_header, the caller's `body_limit` checked against the
// declared size before any body byte is read, the body read in place into
// Message::body, then its xxhash32 check. The body is reserved at its
// declared size (address space only) and grown, zero-filled, one
// `read_size` read at a time, so it is never sized more than one read
// ahead of the bytes that arrived.
//
// A stream that ends before a header byte is UNAVAILABLE. One that ends
// inside a message fails with `cut`. Every failure past the first header
// byte sets the sticky `corrupt`: the connection is unusable after it.
Result<Message> read_strict(ByteStream& stream, std::size_t read_size,
                            std::size_t body_limit, const char* limit_name,
                            StatusCode cut, bool& corrupt,
                            std::uint64_t& bytes_read) {
  if (corrupt) {
    return data_loss_error("message stream previously corrupt");
  }
  const auto fail = [&corrupt](Status status) {
    corrupt = true;
    return status;
  };
  std::uint8_t header[kMessageHeaderSize];
  for (std::size_t got = 0; got < kMessageHeaderSize;) {
    auto n = stream.read_some(
        MutableByteSpan(header + got, kMessageHeaderSize - got));
    if (!n.ok()) {
      return got == 0 ? n.status() : fail(n.status());
    }
    if (n.value() == 0) {
      return got == 0 ? unavailable_error("end of stream")
                      : fail(Status(cut, "stream ended inside a message header"));
    }
    got += n.value();
  }
  bytes_read += kMessageHeaderSize;
  auto decoded = decode_message_header(ByteSpan(header, kMessageHeaderSize));
  if (!decoded.ok()) {
    return fail(decoded.status());
  }
  const std::size_t body_size = decoded.value().body_size;
  if (body_size > body_limit) {
    return fail(data_loss_error("message body of " + std::to_string(body_size) +
                                " bytes exceeds " + limit_name + " (" +
                                std::to_string(body_limit) + ")"));
  }
  Message message = std::move(decoded.value().message);
  Bytes& body = message.body;
  body.reserve(body_size);
  std::size_t filled = 0;
  while (filled < body_size) {
    if (body.size() == filled) {
      body.resize(std::min(body_size, filled + read_size));
    }
    auto n = stream.read_some(MutableByteSpan(body).subspan(filled));
    if (!n.ok()) {
      return fail(n.status());
    }
    if (n.value() == 0) {
      return fail(Status(cut, "connection closed mid-message"));
    }
    filled += n.value();
    bytes_read += n.value();
  }
  if (xxhash32(body) != decoded.value().body_hash) {
    return fail(data_loss_error("message: body checksum mismatch"));
  }
  return message;
}

}  // namespace

PushSocket::PushSocket(std::unique_ptr<ByteStream> stream) : stream_(std::move(stream)) {
  NS_CHECK(stream_ != nullptr, "PushSocket needs a stream");
}

Status PushSocket::send(const Message& message) {
  NS_CHECK(!finished_, "send after finish");
  // Scatter-gather framing: header on the stack, body straight from the
  // message — no join copy. The transport either vectors the two spans
  // (TcpStream's sendmsg) or joins them itself when it must preserve
  // single-write semantics (the default; see ByteStream::write_all_vec).
  std::uint8_t header[kMessageHeaderSize];
  encode_message_header(message, MutableByteSpan(header, kMessageHeaderSize));
  NS_RETURN_IF_ERROR(stream_->write_all_vec(
      {ByteSpan(header, kMessageHeaderSize), ByteSpan(message.body)}));
  bytes_sent_ += kMessageHeaderSize + message.body.size();
  return Status::ok();
}

Status PushSocket::finish(std::uint32_t stream_id) {
  if (finished_) {
    return Status::ok();
  }
  const Status status = send(Message::end_of_stream_marker(stream_id, 0));
  finished_ = true;
  stream_->shutdown_write();
  return status;
}

Result<std::uint64_t> PushSocket::recv_credit() {
  auto message = recv_control();
  if (!message.ok()) {
    return message.status();
  }
  if (!message.value().credit) {
    return data_loss_error("credit channel carried a data message");
  }
  return message.value().sequence;
}

Result<Message> PushSocket::recv_control() {
  // A stream cut inside a control frame is a closed control channel, like
  // a clean close: UNAVAILABLE, so the sender redials.
  std::uint64_t bytes_read = 0;
  auto message =
      read_strict(*stream_, kMaxControlBody, kMaxControlBody, "kMaxControlBody",
                  StatusCode::kUnavailable, control_corrupt_, bytes_read);
  if (message.ok() && !message.value().credit && !message.value().resume) {
    return data_loss_error("control channel carried a data message");
  }
  return message;
}

PullSocket::PullSocket(std::unique_ptr<ByteStream> stream, std::size_t read_size,
                       MessageDecoder::OnCorruption on_corruption)
    : stream_(std::move(stream)),
      read_size_(read_size),
      on_corruption_(on_corruption),
      decoder_(on_corruption) {
  NS_CHECK(stream_ != nullptr, "PullSocket needs a stream");
  NS_CHECK(read_size > 0, "read size must be non-zero");
}

Result<Message> PullSocket::recv() {
  if (on_corruption_ == MessageDecoder::OnCorruption::kResync) {
    return recv_resync();
  }
  return read_strict(*stream_, read_size_, kMaxMessageBody, "kMaxMessageBody",
                     StatusCode::kDataLoss, corrupt_, bytes_received_);
}

Result<Message> PullSocket::recv_resync() {
  if (read_buffer_.empty()) {
    read_buffer_.resize(read_size_);
  }
  while (true) {
    auto message = decoder_.next();
    if (message.ok() ||
        message.status().code() == StatusCode::kDataLoss) {
      return message;
    }
    // Need more bytes.
    auto n = stream_->read_some(read_buffer_);
    if (!n.ok()) {
      return n.status();
    }
    if (n.value() == 0) {
      if (decoder_.buffered() != 0) {
        return data_loss_error("connection closed mid-message");
      }
      return unavailable_error("end of stream");
    }
    bytes_received_ += n.value();
    decoder_.feed(ByteSpan(read_buffer_.data(), n.value()));
  }
}

Status PullSocket::send_credit(std::uint64_t grant) {
  return stream_->write_all(encode_message(Message::credit_grant(grant)));
}

Status PullSocket::send_resume(std::uint64_t session_id,
                               const std::vector<ResumePoint>& points) {
  return stream_->write_all(
      encode_message(Message::resume_frame(session_id, points)));
}

}  // namespace numastream
