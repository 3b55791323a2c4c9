// LZ4 block compression, implemented from scratch against the published LZ4
// block format specification (token / literals / 2-byte offset / extended
// lengths). The paper streams 11.0592 MB projection chunks through LZ4 at a
// ~2:1 ratio; this is that codec, self-contained so the library has no
// external compression dependency.
//
// The compressor is the greedy single-pass variant with a 64 Ki-entry
// hash table over 4-byte windows — the same design point as LZ4's default
// "fast" mode: favours throughput over ratio, exactly what a streaming
// pipeline that must outrun a 100 Gbps NIC wants.
//
// The decompressor is fully bounds-checked and returns DATA_LOSS on any
// malformed input instead of reading or writing out of bounds, because frames
// arrive from a network.
//
// Both directions work a word at a time: matches are extended 8 bytes per
// compare, and short runs are copied with fixed 8- or 16-byte over-copies
// where the buffers have room. An over-copy may leave scratch bytes in `dst`
// past the length returned, never past dst.size().
#pragma once

#include <cstddef>

#include "common/bytes.h"
#include "common/status.h"

namespace numastream {

/// Worst-case compressed size for `raw_size` input bytes (incompressible data
/// expands by 1 byte per 255 plus constant framing).
constexpr std::size_t lz4_compress_bound(std::size_t raw_size) noexcept {
  return raw_size + raw_size / 255 + 16;
}

/// Compresses `src` into `dst`. Returns the number of bytes written.
/// Fails with RESOURCE_EXHAUSTED if `dst` is smaller than the compressed
/// output would need (size `dst` with lz4_compress_bound to be safe).
/// Bytes of `dst` past the returned length may hold scratch.
Result<std::size_t> lz4_compress_block(ByteSpan src, MutableByteSpan dst);

/// Decompresses `src` into `dst`. Returns the number of bytes produced.
/// `dst` must be at least the original raw size (callers know it from the
/// frame header). Any malformed sequence yields DATA_LOSS, detected before
/// anything is read or written out of bounds. The decoder may write scratch
/// bytes past the produced length, but never past dst.size(): slack in `dst`
/// lets more of the copies take the fixed-size fast path.
Result<std::size_t> lz4_decompress_block(ByteSpan src, MutableByteSpan dst);

/// High-compression variant: hash-chain match search that examines up to
/// `max_chain` candidates per position and picks the longest match, instead
/// of the fast mode's single-probe greedy scan. Produces the same block
/// format (decompress with lz4_decompress_block), trades ~5-10x compression
/// speed for a better ratio — the right end of the spectrum when the wire,
/// not the sender's cores, is the bottleneck.
Result<std::size_t> lz4hc_compress_block(ByteSpan src, MutableByteSpan dst,
                                         int max_chain = 64);

/// Convenience: compress into a fresh buffer sized by lz4_compress_bound.
Bytes lz4_compress(ByteSpan src);

/// Convenience: high-compression variant of lz4_compress.
Bytes lz4hc_compress(ByteSpan src, int max_chain = 64);

/// Convenience: decompress a block whose raw size is known.
Result<Bytes> lz4_decompress(ByteSpan src, std::size_t raw_size);

}  // namespace numastream
