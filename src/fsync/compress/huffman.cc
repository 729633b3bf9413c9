#include "fsync/compress/huffman.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace fsx {

namespace {

uint32_t ReverseBits(uint32_t v, int n) {
  uint32_t r = 0;
  for (int i = 0; i < n; ++i) {
    r = (r << 1) | ((v >> i) & 1);
  }
  return r;
}

}  // namespace

std::vector<uint8_t> BuildCodeLengths(const std::vector<uint64_t>& freqs,
                                      int max_bits) {
  const size_t n = freqs.size();
  std::vector<uint8_t> code_len(n, 0);

  std::vector<int> used;
  for (size_t i = 0; i < n; ++i) {
    if (freqs[i] > 0) {
      used.push_back(static_cast<int>(i));
    }
  }
  if (used.empty()) {
    return code_len;
  }
  if (used.size() == 1) {
    code_len[used[0]] = 1;
    return code_len;
  }
  assert((size_t{1} << max_bits) >= used.size());

  // Leaves sorted by weight once; reused at every level.
  std::sort(used.begin(), used.end(), [&](int a, int b) {
    return freqs[a] != freqs[b] ? freqs[a] < freqs[b] : a < b;
  });
  const size_t m = used.size();
  std::vector<uint64_t> leaf_weight(m);
  for (size_t i = 0; i < m; ++i) {
    leaf_weight[i] = freqs[used[i]];
  }

  // Each level's list merges the sorted leaves with the packages of the
  // previous level's list (its entries paired in order), a leaf first on
  // equal weight. Only weights are kept, plus whether each entry is a
  // leaf: a prefix of a list holds a prefix of the leaves and a prefix
  // of the packages, and the first p packages cover the first 2p entries
  // of the level below. No list is longer than 2m - 1 entries.
  const size_t width = 2 * m;
  std::vector<uint8_t> is_leaf(width * static_cast<size_t>(max_bits));
  std::vector<uint64_t> prev(width);
  std::vector<uint64_t> merged(width);
  size_t prev_len = 0;
  for (int level = 0; level < max_bits; ++level) {
    uint8_t* leaf_flags = is_leaf.data() + width * level;
    const size_t num_packages = prev_len / 2;
    size_t li = 0, pi = 0, len = 0;
    while (li < m || pi < num_packages) {
      bool take_leaf = pi == num_packages ||
                       (li < m && leaf_weight[li] <= prev[2 * pi] +
                                                         prev[2 * pi + 1]);
      if (take_leaf) {
        merged[len] = leaf_weight[li++];
      } else {
        merged[len] = prev[2 * pi] + prev[2 * pi + 1];
        ++pi;
      }
      leaf_flags[len++] = take_leaf;
    }
    std::swap(prev, merged);
    prev_len = len;
  }

  // The optimal length-limited code corresponds to the first 2(n-1)
  // entries of the final list; a leaf's code length is the number of
  // levels whose chosen prefix holds it. Walking down, the chosen prefix
  // of each level is twice the packages chosen above it.
  size_t take = 2 * (m - 1);
  for (int level = max_bits - 1; level >= 0 && take > 0; --level) {
    const uint8_t* leaf_flags = is_leaf.data() + width * level;
    size_t leaves = 0;
    for (size_t i = 0; i < take; ++i) {
      leaves += leaf_flags[i];
    }
    for (size_t i = 0; i < leaves; ++i) {
      ++code_len[used[i]];
    }
    take = 2 * (take - leaves);
  }
  return code_len;
}

StatusOr<HuffmanEncoder> HuffmanEncoder::Build(
    const std::vector<uint8_t>& lengths) {
  HuffmanEncoder enc;
  enc.lengths_ = lengths;
  enc.reversed_codes_.assign(lengths.size(), 0);

  int max_len = 0;
  for (uint8_t l : lengths) {
    max_len = std::max(max_len, static_cast<int>(l));
  }
  if (max_len == 0) {
    return enc;  // empty alphabet: nothing encodable
  }
  if (max_len > 31) {
    return Status::InvalidArgument("Huffman code length > 31");
  }

  std::vector<uint32_t> count(max_len + 1, 0);
  for (uint8_t l : lengths) {
    if (l > 0) {
      ++count[l];
    }
  }
  // Kraft check: must not oversubscribe.
  uint64_t space = 0;
  for (int l = 1; l <= max_len; ++l) {
    space += static_cast<uint64_t>(count[l]) << (max_len - l);
  }
  if (space > (uint64_t{1} << max_len)) {
    return Status::InvalidArgument("Huffman lengths oversubscribe code space");
  }

  std::vector<uint32_t> next_code(max_len + 2, 0);
  uint32_t code = 0;
  for (int l = 1; l <= max_len; ++l) {
    code = (code + count[l - 1]) << 1;
    next_code[l] = code;
  }
  for (size_t s = 0; s < lengths.size(); ++s) {
    int l = lengths[s];
    if (l > 0) {
      enc.reversed_codes_[s] = ReverseBits(next_code[l]++, l);
    }
  }
  return enc;
}

void HuffmanEncoder::Encode(uint32_t symbol, BitWriter& out) const {
  assert(symbol < lengths_.size() && lengths_[symbol] > 0);
  out.WriteBits(reversed_codes_[symbol], lengths_[symbol]);
}

StatusOr<HuffmanDecoder> HuffmanDecoder::Build(
    const std::vector<uint8_t>& lengths) {
  HuffmanDecoder dec;
  int max_len = 0;
  int min_len = 32;
  size_t used = 0;
  for (uint8_t l : lengths) {
    if (l > 0) {
      max_len = std::max(max_len, static_cast<int>(l));
      min_len = std::min(min_len, static_cast<int>(l));
      ++used;
    }
  }
  if (used == 0) {
    return Status::InvalidArgument("Huffman decoder: empty code");
  }
  if (max_len > 31) {
    return Status::InvalidArgument("Huffman decoder: length > 31");
  }

  dec.min_len_ = min_len;
  dec.max_len_ = max_len;
  dec.count_.assign(max_len + 1, 0);
  for (uint8_t l : lengths) {
    if (l > 0) {
      ++dec.count_[l];
    }
  }
  // Completeness check (allow the degenerate 1-symbol code).
  uint64_t space = 0;
  for (int l = 1; l <= max_len; ++l) {
    space += static_cast<uint64_t>(dec.count_[l]) << (max_len - l);
  }
  if (space > (uint64_t{1} << max_len)) {
    return Status::InvalidArgument("Huffman decoder: oversubscribed code");
  }
  if (space < (uint64_t{1} << max_len) && used != 1) {
    return Status::InvalidArgument("Huffman decoder: incomplete code");
  }

  dec.first_code_.assign(max_len + 1, 0);
  dec.first_index_.assign(max_len + 1, 0);
  uint32_t code = 0;
  uint32_t index = 0;
  for (int l = 1; l <= max_len; ++l) {
    code = (code + (l > 1 ? dec.count_[l - 1] : 0)) << 1;
    dec.first_code_[l] = code;
    dec.first_index_[l] = index;
    index += dec.count_[l];
  }
  dec.symbols_.reserve(used);
  // Symbols in canonical order: by (length, symbol value).
  for (int l = 1; l <= max_len; ++l) {
    for (size_t s = 0; s < lengths.size(); ++s) {
      if (lengths[s] == l) {
        dec.symbols_.push_back(static_cast<uint32_t>(s));
      }
    }
  }
  return dec;
}

StatusOr<uint32_t> HuffmanDecoder::Decode(BitReader& in) const {
  uint32_t code = 0;
  int len = 0;
  // Accumulate MSB-first (codes were written bit-reversed).
  while (len < min_len_) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t bit, in.ReadBits(1));
    code = (code << 1) | static_cast<uint32_t>(bit);
    ++len;
  }
  for (;;) {
    uint32_t offset = code - first_code_[len];
    if (code >= first_code_[len] && offset < count_[len]) {
      return symbols_[first_index_[len] + offset];
    }
    if (len == max_len_) {
      return Status::DataLoss("Huffman decode: invalid code");
    }
    FSYNC_ASSIGN_OR_RETURN(uint64_t bit, in.ReadBits(1));
    code = (code << 1) | static_cast<uint32_t>(bit);
    ++len;
  }
}

}  // namespace fsx

namespace fsx {

namespace {

constexpr int kNumClSymbols = 19;

// Tallies code-length-alphabet symbol frequencies for `lengths`.
void TallyLengthsRle(const std::vector<uint8_t>& lengths,
                     std::vector<uint64_t>& freqs) {
  size_t i = 0;
  int prev = -1;
  while (i < lengths.size()) {
    uint8_t cur = lengths[i];
    size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == cur) {
      ++run;
    }
    i += run;
    if (cur == 0) {
      while (run >= 3) {
        size_t take = std::min<size_t>(run, 138);
        ++freqs[take <= 10 ? 17 : 18];
        run -= take;
      }
      freqs[0] += run;
      prev = 0;
    } else {
      if (prev != cur) {
        ++freqs[cur];
        --run;
        prev = cur;
      }
      while (run >= 3) {
        size_t take = std::min<size_t>(run, 6);
        ++freqs[16];
        run -= take;
      }
      freqs[cur] += run;
    }
  }
}

// Writes `lengths` using the code-length alphabet coded by `cl_enc`.
void WriteLengthsRle(const std::vector<uint8_t>& lengths,
                     const HuffmanEncoder& cl_enc, BitWriter& out) {
  size_t i = 0;
  int prev = -1;
  while (i < lengths.size()) {
    uint8_t cur = lengths[i];
    size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == cur) {
      ++run;
    }
    i += run;
    if (cur == 0) {
      while (run >= 3) {
        size_t take = std::min<size_t>(run, 138);
        if (take <= 10) {
          cl_enc.Encode(17, out);
          out.WriteBits(take - 3, 3);
        } else {
          cl_enc.Encode(18, out);
          out.WriteBits(take - 11, 7);
        }
        run -= take;
      }
      while (run-- > 0) {
        cl_enc.Encode(0, out);
      }
      prev = 0;
    } else {
      if (prev != cur) {
        cl_enc.Encode(cur, out);
        --run;
        prev = cur;
      }
      while (run >= 3) {
        size_t take = std::min<size_t>(run, 6);
        cl_enc.Encode(16, out);
        out.WriteBits(take - 3, 2);
        run -= take;
      }
      while (run-- > 0) {
        cl_enc.Encode(cur, out);
      }
    }
  }
}

}  // namespace

void WriteCodeLengthTable(const std::vector<uint8_t>& lengths,
                          BitWriter& out) {
  std::vector<uint64_t> cl_freq(kNumClSymbols, 0);
  TallyLengthsRle(lengths, cl_freq);
  std::vector<uint8_t> cl_len = BuildCodeLengths(cl_freq, 7);
  HuffmanEncoder cl_enc = std::move(HuffmanEncoder::Build(cl_len)).value();
  for (int i = 0; i < kNumClSymbols; ++i) {
    out.WriteBits(cl_len[i], 3);
  }
  WriteLengthsRle(lengths, cl_enc, out);
}

Status ReadCodeLengthTable(size_t count, BitReader& in,
                           std::vector<uint8_t>& lengths) {
  std::vector<uint8_t> cl_len(kNumClSymbols, 0);
  for (int i = 0; i < kNumClSymbols; ++i) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t v, in.ReadBits(3));
    cl_len[i] = static_cast<uint8_t>(v);
  }
  FSYNC_ASSIGN_OR_RETURN(HuffmanDecoder cl_dec, HuffmanDecoder::Build(cl_len));

  lengths.assign(count, 0);
  size_t i = 0;
  int prev = -1;
  while (i < count) {
    FSYNC_ASSIGN_OR_RETURN(uint32_t sym, cl_dec.Decode(in));
    if (sym < 16) {
      lengths[i++] = static_cast<uint8_t>(sym);
      prev = static_cast<int>(sym);
    } else if (sym == 16) {
      if (prev < 0) {
        return Status::DataLoss("length RLE: repeat with no previous");
      }
      FSYNC_ASSIGN_OR_RETURN(uint64_t extra, in.ReadBits(2));
      size_t run = 3 + extra;
      if (i + run > count) {
        return Status::DataLoss("length RLE: repeat overruns alphabet");
      }
      for (size_t k = 0; k < run; ++k) {
        lengths[i++] = static_cast<uint8_t>(prev);
      }
    } else {
      uint64_t extra;
      size_t run;
      if (sym == 17) {
        FSYNC_ASSIGN_OR_RETURN(extra, in.ReadBits(3));
        run = 3 + extra;
      } else {
        FSYNC_ASSIGN_OR_RETURN(extra, in.ReadBits(7));
        run = 11 + extra;
      }
      if (i + run > count) {
        return Status::DataLoss("length RLE: zero run overruns alphabet");
      }
      i += run;
      prev = 0;
    }
  }
  return Status::Ok();
}

}  // namespace fsx
