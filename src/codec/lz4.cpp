#include "codec/lz4.h"

#include <bit>
#include <cstring>

namespace numastream {
namespace {

// Format constants from the LZ4 block specification.
constexpr std::size_t kMinMatch = 4;          // shortest encodable match
constexpr std::size_t kMfLimit = 12;          // last match starts >= 12 bytes from end
constexpr std::size_t kLastLiterals = 5;      // final 5 bytes are always literals
constexpr std::size_t kMaxOffset = 65535;     // 16-bit match offset
constexpr unsigned kTokenMax = 15;            // nibble saturation value

constexpr int kHashLog = 16;
constexpr std::uint32_t kHashMultiplier = 2654435761U;  // Knuth multiplicative

// Decoder over-copy room. A sequence whose nibbles are both short and that
// has kFastInput bytes of input after its token and kFastOutput bytes of
// output room copies its literals as one 16-byte block and (offset >= 16) its
// match as 16 + 2 bytes. copy_match's wild copies stop kWildMargin bytes short
// of the output end, since each may run up to 15 bytes past where it stops.
constexpr std::size_t kFastInput = 18;   // 16-byte literal copy + 2-byte offset
constexpr std::size_t kFastOutput = 32;  // 14 literals + 18-byte match copy
constexpr std::size_t kWildMargin = 16;

inline std::uint32_t hash4(std::uint32_t value) noexcept {
  return (value * kHashMultiplier) >> (32 - kHashLog);
}

// Number of leading bytes that `ip` (stopping at `limit`) shares with the
// earlier `match`. Eight bytes per step: the lowest set bit of the XOR of two
// little-endian loads marks the first differing byte.
inline std::size_t extend_match(const std::uint8_t* ip, const std::uint8_t* match,
                                const std::uint8_t* const limit) noexcept {
  const std::uint8_t* const start = ip;
  while (limit - ip >= 8) {
    const std::uint64_t diff = load_le64(ip) ^ load_le64(match);
    if (diff != 0) {
      return static_cast<std::size_t>(ip - start) +
             static_cast<std::size_t>(std::countr_zero(diff) >> 3);
    }
    ip += 8;
    match += 8;
  }
  while (ip < limit && *ip == *match) {
    ++ip;
    ++match;
  }
  return static_cast<std::size_t>(ip - start);
}

// Emits an LZ4 length using the 15 + 255* + remainder scheme.
// Returns false if dst space ran out.
inline bool emit_length(std::size_t value, std::uint8_t*& op,
                        const std::uint8_t* const oend) noexcept {
  while (value >= 255) {
    if (op >= oend) {
      return false;
    }
    *op++ = 255;
    value -= 255;
  }
  if (op >= oend) {
    return false;
  }
  *op++ = static_cast<std::uint8_t>(value);
  return true;
}

// The output side both compressors share: appends sequences to dst, failing
// (false) when dst runs out.
class SequenceWriter {
 public:
  SequenceWriter(ByteSpan src, MutableByteSpan dst) noexcept
      : src_end_(src.data() + src.size()),
        ostart_(dst.data()),
        op_(dst.data()),
        oend_(dst.data() + dst.size()) {}

  // The literal run [anchor, ip) then a match of `match_len` bytes at
  // `offset` back from ip.
  bool put(const std::uint8_t* anchor, const std::uint8_t* ip, std::size_t offset,
           std::size_t match_len) noexcept {
    std::uint8_t* const token = put_literals(anchor, ip);
    if (token == nullptr || oend_ - op_ < 2) {
      return false;
    }
    store_le16(op_, static_cast<std::uint16_t>(offset));
    op_ += 2;
    const std::size_t stored = match_len - kMinMatch;
    if (stored < kTokenMax) {
      *token |= static_cast<std::uint8_t>(stored);
      return true;
    }
    *token |= static_cast<std::uint8_t>(kTokenMax);
    return emit_length(stored - kTokenMax, op_, oend_);
  }

  // The final, match-less sequence: the literal run [anchor, src end).
  bool put_last(const std::uint8_t* anchor) noexcept {
    return put_literals(anchor, src_end_) != nullptr;
  }

  [[nodiscard]] std::size_t written() const noexcept {
    return static_cast<std::size_t>(op_ - ostart_);
  }

 private:
  // Writes a token (match nibble zero) and the literal run; returns the
  // token, or nullptr if dst ran out.
  std::uint8_t* put_literals(const std::uint8_t* anchor,
                             const std::uint8_t* lit_end) noexcept {
    const std::size_t lit_len = static_cast<std::size_t>(lit_end - anchor);
    if (op_ >= oend_) {
      return nullptr;
    }
    std::uint8_t* const token = op_++;
    if (lit_len < kTokenMax) {
      *token = static_cast<std::uint8_t>(lit_len << 4);
    } else {
      *token = static_cast<std::uint8_t>(kTokenMax << 4);
      if (!emit_length(lit_len - kTokenMax, op_, oend_)) {
        return nullptr;
      }
    }
    const std::size_t room = static_cast<std::size_t>(oend_ - op_);
    if (room < lit_len) {
      return nullptr;
    }
    // Most runs on detector data are 1-2 bytes: one fixed 8-byte copy beats a
    // memcpy call. The bytes past the run are overwritten by what follows.
    if (lit_len <= 8 && room >= 8 && src_end_ - anchor >= 8) {
      std::memcpy(op_, anchor, 8);
    } else {
      std::memcpy(op_, anchor, lit_len);
    }
    op_ += lit_len;
    return token;
  }

  const std::uint8_t* const src_end_;
  std::uint8_t* const ostart_;
  std::uint8_t* op_;
  std::uint8_t* const oend_;
};

// Copies the `len`-byte match that starts `offset` bytes back from op, with
// LZ4's overlap semantics (offset 1 repeats one byte), and returns op + len.
// oend - op must be at least len. Wild copies may write up to 15 scratch bytes
// past op + len, never past oend.
inline std::uint8_t* copy_match(std::uint8_t* op, std::size_t offset, std::size_t len,
                                std::uint8_t* const oend) noexcept {
  const std::uint8_t* match = op - offset;
  std::uint8_t* const end = op + len;
  const std::size_t room = static_cast<std::size_t>(oend - op);
  if (room >= kWildMargin + 8) {
    std::uint8_t* const stop = room - len >= kWildMargin ? end : oend - kWildMargin;
    if (offset >= 16) {
      while (op < stop) {
        std::memcpy(op, match, 16);
        op += 16;
        match += 16;
      }
    } else {
      if (offset < 8) {
        // Lay down the first 8 bytes of the pattern, then step `match` back
        // to a multiple of the period at least 8 behind op, so the 8-byte
        // copies below never read bytes they have not yet written.
        static constexpr int kInc[8] = {0, 1, 2, 1, 0, 4, 4, 4};
        static constexpr int kDec[8] = {0, 0, 0, -1, -4, 1, 2, 3};
        op[0] = match[0];
        op[1] = match[1];
        op[2] = match[2];
        op[3] = match[3];
        match += kInc[offset];
        std::memcpy(op + 4, match, 4);
        match -= kDec[offset];
      } else {
        std::memcpy(op, match, 8);
        match += 8;
      }
      op += 8;
      while (op < stop) {
        std::memcpy(op, match, 8);
        op += 8;
        match += 8;
      }
    }
  }
  // The exact tail within kWildMargin of oend. Bytes up to op are already the
  // pattern's, and op - match is a multiple of the period, so the byte copy
  // continues it.
  while (op < end) {
    *op++ = *match++;
  }
  return end;
}

}  // namespace

Result<std::size_t> lz4_compress_block(ByteSpan src, MutableByteSpan dst) {
  const std::uint8_t* const base = src.data();
  const std::size_t src_size = src.size();
  SequenceWriter out(src, dst);

  if (src_size == 0) {
    return std::size_t{0};
  }

  const std::uint8_t* anchor = base;
  // Inputs too small to ever contain a legal match are a single literal run.
  if (src_size >= kMfLimit + 1) {
    // Position table: each slot holds an absolute offset into src and the 4
    // bytes found there, so a probe verifies its candidate without a
    // dependent load from src. An unused slot reads as position 0 with src's
    // first 4 bytes, exactly what storing position 0 would give; requiring
    // candidate < ip resolves the ambiguity.
    struct Slot {
      std::uint32_t pos;
      std::uint32_t sequence;
    };
    std::vector<Slot> table(std::size_t{1} << kHashLog, Slot{0, load_le32(base)});

    const std::uint8_t* ip = base;
    const std::uint8_t* const mflimit = base + src_size - kMfLimit;
    const std::uint8_t* const matchlimit = base + src_size - kLastLiterals;

    // Skip acceleration (LZ4's fast-mode heuristic): after every 64 failed
    // probes the scan step grows by one, so incompressible regions are
    // crossed in O(n/step) probes instead of stalling the compressor at one
    // hash lookup per byte. Any match resets the step to 1.
    constexpr unsigned kSkipTrigger = 6;
    unsigned search_count = 1U << kSkipTrigger;

    while (ip < mflimit) {
      const std::uint32_t sequence = load_le32(ip);
      const std::uint32_t h = hash4(sequence);
      const Slot slot = table[h];
      const std::uint8_t* const candidate = base + slot.pos;
      table[h] = Slot{static_cast<std::uint32_t>(ip - base), sequence};

      const bool usable = slot.sequence == sequence && candidate < ip &&
                          static_cast<std::size_t>(ip - candidate) <= kMaxOffset;
      if (!usable) {
        ip += search_count++ >> kSkipTrigger;
        continue;
      }
      search_count = 1U << kSkipTrigger;

      // Extend the match backward over pending literals.
      const std::uint8_t* match = candidate;
      while (ip > anchor && match > base && ip[-1] == match[-1]) {
        --ip;
        --match;
      }

      // Extend forward (first 4 bytes already verified when not backed up;
      // after backing up the verified region only grew).
      const std::size_t match_len =
          kMinMatch + extend_match(ip + kMinMatch, match + kMinMatch, matchlimit);
      if (!out.put(anchor, ip, static_cast<std::size_t>(ip - match), match_len)) {
        return resource_exhausted_error("lz4: destination buffer too small");
      }
      ip += match_len;
      anchor = ip;

      // Seed the table near the match end so the next search can chain into
      // data we just skipped over.
      if (ip - 2 > base && ip < mflimit) {
        const std::uint32_t seed = load_le32(ip - 2);
        table[hash4(seed)] = Slot{static_cast<std::uint32_t>((ip - 2) - base), seed};
      }
    }
  }
  if (!out.put_last(anchor)) {
    return resource_exhausted_error("lz4: destination buffer too small");
  }
  return out.written();
}

Result<std::size_t> lz4_decompress_block(ByteSpan src, MutableByteSpan dst) {
  const std::uint8_t* ip = src.data();
  const std::uint8_t* const iend = ip + src.size();
  std::uint8_t* const ostart = dst.data();
  std::uint8_t* op = ostart;
  std::uint8_t* const oend = op + dst.size();

  const auto corrupt = [](const char* what) {
    return data_loss_error(std::string("lz4: malformed block: ") + what);
  };

  if (src.empty()) {
    return std::size_t{0};
  }

  // Why a match offset read at the current op is unusable, or nullptr.
  const auto offset_error = [&](std::size_t offset) -> const char* {
    if (offset == 0) {
      return "zero offset";
    }
    if (static_cast<std::size_t>(op - ostart) < offset) {
      return "offset reaches before output start";
    }
    return nullptr;
  };

  // Reads an extended length; fails on truncation or absurd accumulation.
  const auto read_length = [&](std::size_t base_len, std::size_t& out) -> bool {
    std::size_t len = base_len;
    if (base_len == kTokenMax) {
      std::uint8_t byte = 0;
      do {
        if (ip >= iend) {
          return false;
        }
        byte = *ip++;
        len += byte;
        if (len > dst.size() + src.size()) {
          return false;  // cannot be a valid length for these buffers
        }
      } while (byte == 255);
    }
    out = len;
    return true;
  };

  while (ip < iend) {
    const unsigned token = *ip++;
    const std::size_t lit_nibble = token >> 4;
    const std::size_t match_nibble = token & 0x0F;

    // Fast path: both lengths fit their nibbles and both buffers have room
    // for fixed-size over-copies.
    if (lit_nibble < kTokenMax && match_nibble < kTokenMax &&
        static_cast<std::size_t>(iend - ip) >= kFastInput &&
        static_cast<std::size_t>(oend - op) >= kFastOutput) {
      std::memcpy(op, ip, 16);
      ip += lit_nibble;
      op += lit_nibble;
      const std::size_t offset = load_le16(ip);
      ip += 2;
      if (const char* error = offset_error(offset)) {
        return corrupt(error);
      }
      const std::size_t match_len = match_nibble + kMinMatch;
      if (offset >= 16) {
        std::memcpy(op, op - offset, 16);
        std::memcpy(op + 16, op + 16 - offset, 2);
        op += match_len;
      } else {
        op = copy_match(op, offset, match_len, oend);
      }
      continue;
    }

    // Literals.
    std::size_t lit_len = 0;
    if (!read_length(lit_nibble, lit_len)) {
      return corrupt("bad literal length");
    }
    if (static_cast<std::size_t>(iend - ip) < lit_len) {
      return corrupt("literal run past end of input");
    }
    if (static_cast<std::size_t>(oend - op) < lit_len) {
      return corrupt("literal run past end of output");
    }
    std::memcpy(op, ip, lit_len);
    ip += lit_len;
    op += lit_len;

    if (ip == iend) {
      break;  // last sequence carries no match
    }

    // Match offset.
    if (iend - ip < 2) {
      return corrupt("truncated offset");
    }
    const std::size_t offset = load_le16(ip);
    ip += 2;
    if (const char* error = offset_error(offset)) {
      return corrupt(error);
    }

    // Match length.
    std::size_t match_len = 0;
    if (!read_length(match_nibble, match_len)) {
      return corrupt("bad match length");
    }
    match_len += kMinMatch;
    if (static_cast<std::size_t>(oend - op) < match_len) {
      return corrupt("match past end of output");
    }
    op = copy_match(op, offset, match_len, oend);
  }

  return static_cast<std::size_t>(op - ostart);
}

Result<std::size_t> lz4hc_compress_block(ByteSpan src, MutableByteSpan dst,
                                         int max_chain) {
  NS_CHECK(max_chain > 0, "lz4hc needs a positive chain depth");
  const std::uint8_t* const base = src.data();
  const std::size_t src_size = src.size();
  SequenceWriter out(src, dst);

  if (src_size == 0) {
    return std::size_t{0};
  }

  const std::uint8_t* anchor = base;
  if (src_size >= kMfLimit + 1) {
    // Hash heads + a window-sized chain: chain[p & 0xFFFF] links position p
    // to the previous position with the same hash. Positions further back
    // than the 64 KiB offset limit are unreachable anyway, so the masked
    // chain loses nothing.
    constexpr std::uint32_t kNoPos = 0xFFFFFFFFU;
    std::vector<std::uint32_t> head(std::size_t{1} << kHashLog, kNoPos);
    std::vector<std::uint32_t> chain(kMaxOffset + 1, kNoPos);

    const auto insert_position = [&](std::size_t pos) {
      const std::uint32_t h = hash4(load_le32(base + pos));
      chain[pos & kMaxOffset] = head[h];
      head[h] = static_cast<std::uint32_t>(pos);
    };

    const std::uint8_t* ip = base;
    const std::uint8_t* const mflimit = base + src_size - kMfLimit;
    const std::uint8_t* const matchlimit = base + src_size - kLastLiterals;

    while (ip < mflimit) {
      const std::size_t pos = static_cast<std::size_t>(ip - base);
      const std::uint32_t sequence = load_le32(ip);

      // Walk the chain for the longest reachable match.
      const std::uint8_t* best_match = nullptr;
      std::size_t best_len = kMinMatch - 1;
      std::uint32_t candidate = head[hash4(sequence)];
      for (int depth = 0; depth < max_chain && candidate != kNoPos; ++depth) {
        if (pos - candidate > kMaxOffset) {
          break;  // chain has left the window
        }
        const std::uint8_t* cand_ptr = base + candidate;
        if (load_le32(cand_ptr) == sequence) {
          const std::size_t len =
              kMinMatch + extend_match(ip + kMinMatch, cand_ptr + kMinMatch, matchlimit);
          if (len > best_len) {
            best_len = len;
            best_match = cand_ptr;
          }
        }
        candidate = chain[candidate & kMaxOffset];
      }
      insert_position(pos);

      if (best_match == nullptr) {
        ++ip;
        continue;
      }

      // Extend backward over pending literals.
      const std::uint8_t* match = best_match;
      while (ip > anchor && match > base && ip[-1] == match[-1]) {
        --ip;
        --match;
        ++best_len;
      }
      if (!out.put(anchor, ip, static_cast<std::size_t>(ip - match), best_len)) {
        return resource_exhausted_error("lz4hc: destination buffer too small");
      }

      // Index every covered position so later matches can chain into it.
      const std::uint8_t* const match_end = ip + best_len;
      for (const std::uint8_t* p = ip + 1; p < match_end && p < mflimit; ++p) {
        insert_position(static_cast<std::size_t>(p - base));
      }
      ip = match_end;
      anchor = ip;
    }
  }
  if (!out.put_last(anchor)) {
    return resource_exhausted_error("lz4hc: destination buffer too small");
  }
  return out.written();
}

Bytes lz4hc_compress(ByteSpan src, int max_chain) {
  Bytes out(lz4_compress_bound(src.size()));
  auto written = lz4hc_compress_block(src, out, max_chain);
  NS_CHECK(written.ok(), "lz4hc_compress with a bound-sized buffer cannot fail");
  out.resize(written.value());
  return out;
}

Bytes lz4_compress(ByteSpan src) {
  Bytes out(lz4_compress_bound(src.size()));
  auto written = lz4_compress_block(src, out);
  NS_CHECK(written.ok(), "lz4_compress with a bound-sized buffer cannot fail");
  out.resize(written.value());
  return out;
}

Result<Bytes> lz4_decompress(ByteSpan src, std::size_t raw_size) {
  Bytes out(raw_size);
  auto produced = lz4_decompress_block(src, out);
  if (!produced.ok()) {
    return produced.status();
  }
  if (produced.value() != raw_size) {
    return data_loss_error("lz4: block decoded to " + std::to_string(produced.value()) +
                           " bytes, expected " + std::to_string(raw_size));
  }
  return out;
}

}  // namespace numastream
