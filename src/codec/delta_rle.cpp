#include "codec/delta_rle.h"

#include <cstring>

namespace numastream {
namespace {

// RLE tokens over the varint stream:
//   0x01..0x7F      : that many literal bytes follow
//   0x80 | k        : the next byte repeats (k + kMinRun) times
constexpr std::size_t kMinRun = 4;
constexpr std::size_t kMaxRun = kMinRun + 127;
constexpr std::size_t kMaxLiteralRun = 127;

std::uint16_t zigzag16(std::int16_t v) noexcept {
  return static_cast<std::uint16_t>((static_cast<std::uint16_t>(v) << 1) ^
                                    static_cast<std::uint16_t>(v >> 15));
}

std::int16_t unzigzag16(std::uint16_t z) noexcept {
  return static_cast<std::int16_t>((z >> 1) ^ static_cast<std::uint16_t>(-(z & 1)));
}

void append_varint(Bytes& out, std::uint32_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

// RLE-encodes `in` into `op`, respecting `oend`. Returns false on overflow.
bool rle_encode(ByteSpan in, std::uint8_t*& op, const std::uint8_t* oend) {
  std::size_t i = 0;
  std::size_t literal_start = 0;

  const auto flush_literals = [&](std::size_t end) -> bool {
    std::size_t pos = literal_start;
    while (pos < end) {
      const std::size_t n = std::min(end - pos, kMaxLiteralRun);
      if (static_cast<std::size_t>(oend - op) < n + 1) {
        return false;
      }
      *op++ = static_cast<std::uint8_t>(n);
      std::memcpy(op, in.data() + pos, n);
      op += n;
      pos += n;
    }
    return true;
  };

  while (i < in.size()) {
    std::size_t run = 1;
    while (i + run < in.size() && in[i + run] == in[i] && run < kMaxRun) {
      ++run;
    }
    if (run >= kMinRun) {
      if (!flush_literals(i)) {
        return false;
      }
      if (oend - op < 2) {
        return false;
      }
      *op++ = static_cast<std::uint8_t>(0x80 | (run - kMinRun));
      *op++ = in[i];
      i += run;
      literal_start = i;
    } else {
      i += run;
    }
  }
  return flush_literals(in.size());
}

}  // namespace

Result<std::size_t> delta_rle_compress(ByteSpan src, MutableByteSpan dst) {
  const std::size_t n_samples = src.size() / 2;
  const bool odd = (src.size() % 2) != 0;

  // Stage 1-3: delta -> zigzag -> varint.
  Bytes varints;
  varints.reserve(n_samples + n_samples / 4);
  std::uint16_t prev = 0;
  for (std::size_t i = 0; i < n_samples; ++i) {
    const std::uint16_t sample = load_le16(src.data() + 2 * i);
    const auto delta = static_cast<std::int16_t>(
        static_cast<std::uint16_t>(sample - prev));
    prev = sample;
    append_varint(varints, zigzag16(delta));
  }

  std::uint8_t* op = dst.data();
  const std::uint8_t* const oend = dst.data() + dst.size();
  const auto overflow = [] {
    return resource_exhausted_error("delta_rle: destination buffer too small");
  };

  // Header: length of the varint stream, so the decoder knows where RLE ends.
  if (oend - op < 4) {
    return overflow();
  }
  store_le32(op, static_cast<std::uint32_t>(varints.size()));
  op += 4;

  // Stage 4: RLE.
  if (!rle_encode(varints, op, oend)) {
    return overflow();
  }

  if (odd) {
    if (op >= oend) {
      return overflow();
    }
    *op++ = src.back();
  }
  return static_cast<std::size_t>(op - dst.data());
}

Result<std::size_t> delta_rle_decompress(ByteSpan src, MutableByteSpan dst) {
  const std::size_t n_samples = dst.size() / 2;
  const bool odd = (dst.size() % 2) != 0;
  const auto corrupt = [](const char* what) {
    return data_loss_error(std::string("delta_rle: malformed stream: ") + what);
  };

  ByteReader reader(src);
  std::uint32_t varint_len = 0;
  if (!reader.u32(varint_len).is_ok()) {
    return corrupt("truncated header");
  }

  // Each sample is one varint of at most 3 bytes (a zigzagged 16-bit delta),
  // so a longer declared stream is corrupt. Checked before the reserve below,
  // which would otherwise size itself by an untrusted header (up to 4 GiB).
  if (varint_len > 3 * n_samples) {
    return corrupt("declared varint length exceeds 3 bytes per sample");
  }

  // Undo RLE into the varint stream.
  Bytes varints;
  varints.reserve(varint_len);
  while (varints.size() < varint_len) {
    std::uint8_t token = 0;
    if (!reader.u8(token).is_ok()) {
      return corrupt("truncated token");
    }
    if (token == 0) {
      return corrupt("zero token");
    }
    if ((token & 0x80) != 0) {
      const std::size_t run = (token & 0x7F) + kMinRun;
      std::uint8_t value = 0;
      if (!reader.u8(value).is_ok()) {
        return corrupt("truncated run value");
      }
      if (varints.size() + run > varint_len) {
        return corrupt("run overflows declared length");
      }
      varints.insert(varints.end(), run, value);
    } else {
      ByteSpan literals;
      if (!reader.raw(token, literals).is_ok()) {
        return corrupt("truncated literal run");
      }
      if (varints.size() + literals.size() > varint_len) {
        return corrupt("literals overflow declared length");
      }
      varints.insert(varints.end(), literals.begin(), literals.end());
    }
  }

  // Undo varint + zigzag + delta.
  std::size_t vpos = 0;
  std::uint16_t prev = 0;
  for (std::size_t i = 0; i < n_samples; ++i) {
    std::uint32_t z = 0;
    int shift = 0;
    while (true) {
      if (vpos >= varints.size()) {
        return corrupt("varint stream exhausted early");
      }
      const std::uint8_t byte = varints[vpos++];
      z |= static_cast<std::uint32_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        break;
      }
      shift += 7;
      if (shift > 21) {
        return corrupt("varint too long");
      }
    }
    if (z > 0xFFFF) {
      return corrupt("varint exceeds 16-bit range");
    }
    const std::int16_t delta = unzigzag16(static_cast<std::uint16_t>(z));
    prev = static_cast<std::uint16_t>(prev + static_cast<std::uint16_t>(delta));
    store_le16(dst.data() + 2 * i, prev);
  }
  if (vpos != varints.size()) {
    return corrupt("trailing varint bytes");
  }

  if (odd) {
    std::uint8_t last = 0;
    if (!reader.u8(last).is_ok()) {
      return corrupt("missing trailing odd byte");
    }
    dst[dst.size() - 1] = last;
  }
  if (reader.remaining() != 0) {
    return corrupt("trailing garbage");
  }
  return dst.size();
}

}  // namespace numastream
