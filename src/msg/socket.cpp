#include "msg/socket.h"

#include <algorithm>
#include <utility>

#include "codec/xxhash.h"
#include "common/assert.h"

namespace numastream {

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
  if (credit_buffer_.empty()) {
    credit_buffer_.resize(kMaxControlBody);  // control frames are small
  }
  while (true) {
    auto message = credit_decoder_.next();
    if (message.ok()) {
      if (!message.value().credit && !message.value().resume) {
        return data_loss_error("control channel carried a data message");
      }
      if (message.value().body.size() > kMaxControlBody) {
        // Fail loudly: a control frame this large means a confused or
        // hostile peer, and quietly accepting (or truncating) it would turn
        // a protocol violation into silent state divergence.
        return data_loss_error(
            "control frame body of " +
            std::to_string(message.value().body.size()) +
            " bytes exceeds kMaxControlBody (" +
            std::to_string(kMaxControlBody) + ")");
      }
      return message;
    }
    if (message.status().code() == StatusCode::kDataLoss) {
      return message.status();
    }
    auto n = stream_->read_some(credit_buffer_);
    if (!n.ok()) {
      return n.status();
    }
    if (n.value() == 0) {
      return unavailable_error("peer closed the control channel");
    }
    credit_decoder_.feed(ByteSpan(credit_buffer_.data(), n.value()));
  }
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

void PullSocket::set_buffer_lease(std::function<Bytes()> lease) {
  lease_ = std::move(lease);
}

Result<Message> PullSocket::recv() {
  if (on_corruption_ == MessageDecoder::OnCorruption::kResync) {
    return recv_resync();
  }
  if (corrupt_) {
    return data_loss_error("message stream previously corrupt");
  }
  // Past the first header byte the stream position is inside a message, so
  // every failure from there on leaves the connection unusable.
  const auto fail = [this](Status status) {
    corrupt_ = true;
    return status;
  };
  std::uint8_t header[kMessageHeaderSize];
  const Status header_read =
      read_exact(*stream_, MutableByteSpan(header, kMessageHeaderSize));
  if (header_read.code() == StatusCode::kUnavailable) {
    return header_read;  // end of stream before a header, or stream closed
  }
  if (!header_read.is_ok()) {
    return fail(header_read);  // EOF mid-header (DATA_LOSS) or a read error
  }
  bytes_received_ += kMessageHeaderSize;
  auto decoded = decode_message_header(ByteSpan(header, kMessageHeaderSize));
  if (!decoded.ok()) {
    return fail(decoded.status());
  }
  Message message = std::move(decoded.value().message);
  const std::size_t body_size = decoded.value().body_size;
  // Read the body in place. The reservation is address space only; the
  // body grows (and is zero-filled) one read at a time as bytes arrive.
  Bytes& body = message.body;
  if (lease_) {
    body = lease_();
    body.clear();
  }
  body.reserve(body_size);
  std::size_t filled = 0;
  while (filled < body_size) {
    if (body.size() == filled) {
      body.resize(std::min(body_size, filled + read_size_));
    }
    auto n = stream_->read_some(MutableByteSpan(body).subspan(filled));
    if (!n.ok()) {
      return fail(n.status());
    }
    if (n.value() == 0) {
      return fail(data_loss_error("connection closed mid-message"));
    }
    filled += n.value();
    bytes_received_ += n.value();
  }
  if (xxhash32(body) != decoded.value().body_hash) {
    return fail(data_loss_error("message: body checksum mismatch"));
  }
  return message;
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
