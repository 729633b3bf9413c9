// Batched strong-hash verification: MD5 over many independent messages
// in lockstep. MD5's compression function is one long dependency chain,
// so a single hash cannot use wide execution units — but unrelated
// hashes can run in the same instructions, one per 32-bit SIMD lane: four
// lanes in GNU vectors (SSE2/NEON, or overlapped scalar chains without
// SIMD), sixteen in AVX-512 registers at the simd::DispatchTier::kAvx512
// tier. Every other tier, FSX_FORCE_SCALAR included, runs the 4-lane
// kernel. The
// protocols verify *many* candidate blocks of the same size per round
// (zsync control files, multiround round hashes, group-testing batches),
// which is exactly this shape; so do the tree builders, which fingerprint
// every file of a collection and hash every trie node of a walk.
//
// Messages need not share a length: a lane-refill scheduler gives each
// lane one message and, the moment a lane's message ends, refills it with
// the next one, so a batch of mixed lengths runs full width until the
// queue runs dry. The 16-lane kernel hands its last four messages, state
// and all, to the 4-lane kernel, which then runs 4-wide until its last
// three.
//
// Bit-exactness contract: Md5Batch(m, n, out) leaves out[i] ==
// Md5::Hash(m[i]) and Md5HashBitsBatch(b, n, k, s, out) leaves out[i] ==
// Md5::HashBits(b[i], k, s) for every input — the batch is an execution
// detail, never a wire-visible one (pinned in hash_test.cc).
#ifndef FSYNC_HASH_MD5_BATCH_H_
#define FSYNC_HASH_MD5_BATCH_H_

#include <cstddef>
#include <cstdint>

#include "fsync/hash/md5.h"
#include "fsync/util/bytes.h"

namespace fsx {

/// Computes out[i] = Md5::Hash(msgs[i]) for i in [0, n), four or sixteen
/// messages at a time whatever their lengths.
void Md5Batch(const ByteSpan* msgs, size_t n, Md5Digest* out);

/// Computes out[i] = Md5::HashBits(blocks[i], num_bits, salt) for
/// i in [0, n), on the same scheduler as Md5Batch.
void Md5HashBitsBatch(const ByteSpan* blocks, size_t n, int num_bits,
                      uint64_t salt, uint64_t* out);

/// Md5HashBitsBatch over exactly four blocks:
/// out[i] = Md5::HashBits(blocks[i], num_bits, salt).
void Md5HashBits4(const ByteSpan blocks[4], int num_bits, uint64_t salt,
                  uint64_t out[4]);

}  // namespace fsx

#endif  // FSYNC_HASH_MD5_BATCH_H_
