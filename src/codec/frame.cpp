#include "codec/frame.h"

#include <cstring>

#include "codec/xxhash.h"
#include "common/assert.h"

namespace numastream {

Bytes encode_frame(const Codec& codec, ByteSpan raw) {
  Bytes out;
  // Compress straight into the frame's payload region, sized by the codec's
  // bound; no scratch buffer.
  out.resize(kFrameHeaderSize + codec.max_compressed_size(raw.size()));
  auto written = codec.compress(
      raw, MutableByteSpan(out.data() + kFrameHeaderSize,
                           out.size() - kFrameHeaderSize));
  NS_CHECK(written.ok(), "compress into a bound-sized buffer must succeed");

  // Store-uncompressed fallback when the codec did not help.
  const Codec* effective = &codec;
  std::size_t payload_size = written.value();
  if (payload_size >= raw.size() && codec.id() != CodecId::kNull) {
    effective = codec_by_id(CodecId::kNull);
    payload_size = raw.size();
    if (!raw.empty()) {
      std::memcpy(out.data() + kFrameHeaderSize, raw.data(), raw.size());
    }
  }
  out.resize(kFrameHeaderSize + payload_size);

  std::uint8_t* p = out.data();
  store_le32(p, kFrameMagic);
  p[4] = static_cast<std::uint8_t>(effective->id());
  p[5] = 0;             // flags
  store_le16(p + 6, 0); // reserved
  store_le64(p + 8, raw.size());
  store_le64(p + 16, payload_size);
  store_le32(p + 24, xxhash32(ByteSpan(p + kFrameHeaderSize, payload_size)));
  store_le32(p + 28, xxhash32(raw));
  return out;
}

Result<FrameView> decode_frame(ByteSpan frame) {
  ByteReader reader(frame);
  std::uint32_t magic = 0;
  std::uint8_t codec_id = 0;
  std::uint8_t flags = 0;
  std::uint16_t reserved = 0;
  std::uint64_t raw_size = 0;
  std::uint64_t payload_size = 0;
  std::uint32_t payload_hash = 0;
  std::uint32_t content_hash = 0;

  NS_RETURN_IF_ERROR(reader.u32(magic));
  if (magic != kFrameMagic) {
    return data_loss_error("frame: bad magic (got " + hex_preview(frame) + ")");
  }
  NS_RETURN_IF_ERROR(reader.u8(codec_id));
  NS_RETURN_IF_ERROR(reader.u8(flags));
  NS_RETURN_IF_ERROR(reader.u16(reserved));
  if (flags != 0 || reserved != 0) {
    return data_loss_error("frame: nonzero reserved fields (future format?)");
  }
  NS_RETURN_IF_ERROR(reader.u64(raw_size));
  NS_RETURN_IF_ERROR(reader.u64(payload_size));
  NS_RETURN_IF_ERROR(reader.u32(payload_hash));
  NS_RETURN_IF_ERROR(reader.u32(content_hash));

  if (codec_by_id(static_cast<CodecId>(codec_id)) == nullptr) {
    return data_loss_error("frame: unknown codec id " + std::to_string(codec_id));
  }
  if (payload_size != reader.remaining()) {
    return data_loss_error("frame: payload size " + std::to_string(payload_size) +
                           " does not match remaining " +
                           std::to_string(reader.remaining()) + " bytes");
  }
  ByteSpan payload;
  NS_RETURN_IF_ERROR(reader.raw(payload_size, payload));
  if (xxhash32(payload) != payload_hash) {
    return data_loss_error("frame: payload checksum mismatch");
  }

  FrameView view;
  view.codec = static_cast<CodecId>(codec_id);
  view.raw_size = raw_size;
  view.content_hash = content_hash;
  view.payload = payload;
  return view;
}

Result<Bytes> decode_frame_content(ByteSpan frame) {
  auto view = decode_frame(frame);
  if (!view.ok()) {
    return view.status();
  }
  const Codec* codec = codec_by_id(view.value().codec);
  NS_CHECK(codec != nullptr, "decode_frame validated the codec id");

  Bytes raw(view.value().raw_size);
  auto produced = codec->decompress(view.value().payload, raw);
  if (!produced.ok()) {
    return produced.status();
  }
  if (produced.value() != raw.size()) {
    return data_loss_error("frame: decoded size mismatch");
  }
  if (xxhash32(raw) != view.value().content_hash) {
    return data_loss_error("frame: content checksum mismatch after decompression");
  }
  return raw;
}

std::optional<std::size_t> find_frame_magic(ByteSpan data, std::size_t from) {
  std::uint8_t magic[4];
  store_le32(magic, kFrameMagic);
  for (std::size_t pos = from; pos + 4 <= data.size(); ++pos) {
    if (std::memcmp(data.data() + pos, magic, 4) == 0) {
      return pos;
    }
  }
  return std::nullopt;
}

Result<Bytes> decode_frame_content_resync(ByteSpan frame, bool* resynced) {
  if (resynced != nullptr) {
    *resynced = false;
  }
  auto first = decode_frame_content(frame);
  if (first.ok()) {
    return first;
  }
  // The frame at offset 0 is bad; a later magic may still head a valid frame
  // (the checksums make a false positive decoding successfully vanishingly
  // unlikely, so the first decodable candidate is the recovered frame).
  std::size_t search_from = 1;
  while (auto pos = find_frame_magic(frame, search_from)) {
    auto recovered = decode_frame_content(frame.subspan(*pos));
    if (recovered.ok()) {
      if (resynced != nullptr) {
        *resynced = true;
      }
      return recovered;
    }
    search_from = *pos + 1;
  }
  return first.status();
}

}  // namespace numastream
