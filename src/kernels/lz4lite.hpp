// lz4lite: an LZ77 byte-stream compressor with the LZ4 token layout —
// the software stand-in for the Vitis streaming LZ4 kernel the paper's
// bump-in-the-wire pipeline offloads to an FPGA (Section 5).
//
// Format (per independently-compressed chunk): a sequence of
//   [token] [literal-length extension]* [literals]
//   [match offset: 2 bytes LE] [match-length extension]*
// where the token's high nibble is the literal count (15 = extended by
// 255-run bytes) and the low nibble is match length - 4. The final
// sequence carries literals only. Matches reference up to 64 KiB back.
//
// Like the Vitis kernel, data is compressed in chunks: each chunk is
// self-contained, so chunking reduces cross-chunk redundancy — the effect
// the paper notes when discussing observed compression ratios.
//
// The compressor is greedy with one hash probe per position, hashes the
// next position before it tests the current candidate, and extends
// matches 8 bytes per compare; it writes into a buffer sized once to the
// worst case. The decoder makes one pass: it checks each sequence as it
// decodes it, into a buffer that starts at four times the input size and
// doubles when a sequence would not fit with 16 bytes of slack. Short
// sequences (at most 14 literals, a match of at most 18 bytes from at
// least 16 back) take whole 16-byte copies. Neither affects the format:
// the compressed bytes, the decoded bytes and the error messages are
// those of the byte-serial algorithms they replaced, which the fuzz suite
// keeps as its references.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace streamcalc::kernels {

/// Compresses one self-contained chunk. Never fails; incompressible data
/// expands by at most ~0.5%.
std::vector<std::uint8_t> lz4lite_compress(std::span<const std::uint8_t> in);

/// Decompresses one chunk produced by lz4lite_compress. Throws
/// PreconditionError on malformed input.
std::vector<std::uint8_t> lz4lite_decompress(
    std::span<const std::uint8_t> in);

}  // namespace streamcalc::kernels
