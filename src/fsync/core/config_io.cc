#include "fsync/core/config_io.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace fsx {

int EffectiveContinuationBits(const SyncConfig& config, int round) {
  if (round >= 0 &&
      round < static_cast<int>(config.round_overrides.size()) &&
      config.round_overrides[round].continuation_bits >= 0) {
    return config.round_overrides[round].continuation_bits;
  }
  return config.continuation_bits;
}

VerifyConfig EffectiveVerify(const SyncConfig& config, int round) {
  VerifyConfig v = config.verify;
  if (round >= 0 &&
      round < static_cast<int>(config.round_overrides.size())) {
    const SyncConfig::RoundOverride& o = config.round_overrides[round];
    if (o.verify_bits >= 0) {
      v.verify_bits = o.verify_bits;
    }
    if (o.group_size >= 0) {
      v.group_size = o.group_size;
    }
    if (o.max_batches >= 0) {
      v.max_batches = o.max_batches;
    }
  }
  return v;
}

Status ValidateSyncConfig(const SyncConfig& config) {
  if (config.start_block_size == 0 || config.min_block_size == 0 ||
      (config.start_block_size & (config.start_block_size - 1)) != 0) {
    return Status::InvalidArgument(
        "start_block_size must be a nonzero power of two");
  }
  if (config.min_continuation_block == 0 ||
      config.min_continuation_block > config.min_block_size) {
    return Status::InvalidArgument(
        "min_continuation_block must be in [1, min_block_size]");
  }
  if (config.verify.verify_bits < 1 || config.verify.verify_bits > 64 ||
      config.verify.max_batches < 1) {
    return Status::InvalidArgument("bad verification configuration");
  }
  return Status::Ok();
}

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

StatusOr<int64_t> ParseInt(const std::string& v, int line) {
  int64_t out = 0;
  auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || ptr != v.data() + v.size()) {
    return Status::InvalidArgument("config line " + std::to_string(line) +
                                   ": expected integer, got '" + v + "'");
  }
  return out;
}

StatusOr<bool> ParseBool(const std::string& v, int line) {
  if (v == "true" || v == "1") {
    return true;
  }
  if (v == "false" || v == "0") {
    return false;
  }
  return Status::InvalidArgument("config line " + std::to_string(line) +
                                 ": expected bool, got '" + v + "'");
}

}  // namespace

StatusOr<SyncConfig> ParseSyncConfig(const std::string& text) {
  SyncConfig config;
  int current_round = -1;  // -1 = global section
  int line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string raw = eol == std::string::npos
                          ? text.substr(pos)
                          : text.substr(pos, eol - pos);
    pos = eol == std::string::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    std::string line = raw;
    size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = Trim(line);
    if (line.empty()) {
      continue;
    }
    if (line.front() == '[') {
      if (line.back() != ']' || line.substr(1, 6) != "round ") {
        return Status::InvalidArgument("config line " +
                                       std::to_string(line_no) +
                                       ": bad section header");
      }
      FSYNC_ASSIGN_OR_RETURN(
          int64_t r,
          ParseInt(Trim(line.substr(7, line.size() - 8)), line_no));
      if (r < 0 || r > 64) {
        return Status::InvalidArgument("config line " +
                                       std::to_string(line_no) +
                                       ": round out of range");
      }
      current_round = static_cast<int>(r);
      if (static_cast<size_t>(current_round) >=
          config.round_overrides.size()) {
        config.round_overrides.resize(current_round + 1);
      }
      continue;
    }
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("config line " +
                                     std::to_string(line_no) +
                                     ": expected key = value");
    }
    std::string key = Trim(line.substr(0, eq));
    std::string value = Trim(line.substr(eq + 1));

    if (current_round >= 0) {
      SyncConfig::RoundOverride& o = config.round_overrides[current_round];
      FSYNC_ASSIGN_OR_RETURN(int64_t v, ParseInt(value, line_no));
      if (key == "continuation_bits") {
        o.continuation_bits = static_cast<int>(v);
      } else if (key == "verify_bits") {
        o.verify_bits = static_cast<int>(v);
      } else if (key == "group_size") {
        o.group_size = static_cast<int>(v);
      } else if (key == "max_batches") {
        o.max_batches = static_cast<int>(v);
      } else {
        return Status::InvalidArgument("config line " +
                                       std::to_string(line_no) +
                                       ": unknown per-round key '" + key +
                                       "'");
      }
      continue;
    }

    if (key == "start_block_size" || key == "min_block_size" ||
        key == "min_continuation_block" || key == "global_extra_bits" ||
        key == "continuation_bits" || key == "local_radius" ||
        key == "max_roundtrips" || key == "verify_bits" ||
        key == "group_size" || key == "max_batches" ||
        key == "continuation_group_size" || key == "num_threads" ||
        key == "repair_region_size") {
      FSYNC_ASSIGN_OR_RETURN(int64_t v, ParseInt(value, line_no));
      if (key == "start_block_size") {
        config.start_block_size = static_cast<uint32_t>(v);
      } else if (key == "min_block_size") {
        config.min_block_size = static_cast<uint32_t>(v);
      } else if (key == "min_continuation_block") {
        config.min_continuation_block = static_cast<uint32_t>(v);
      } else if (key == "global_extra_bits") {
        config.global_extra_bits = static_cast<int>(v);
      } else if (key == "continuation_bits") {
        config.continuation_bits = static_cast<int>(v);
      } else if (key == "local_radius") {
        config.local_radius = static_cast<int>(v);
      } else if (key == "max_roundtrips") {
        config.max_roundtrips = static_cast<int>(v);
      } else if (key == "verify_bits") {
        config.verify.verify_bits = static_cast<int>(v);
      } else if (key == "group_size") {
        config.verify.group_size = static_cast<int>(v);
      } else if (key == "max_batches") {
        config.verify.max_batches = static_cast<int>(v);
      } else if (key == "num_threads") {
        config.num_threads = static_cast<int>(v);
      } else if (key == "repair_region_size") {
        config.repair.region_size = static_cast<uint32_t>(v);
      } else {
        config.verify.continuation_group_size = static_cast<int>(v);
      }
    } else if (key == "use_decomposable" || key == "use_continuation" ||
               key == "continuation_first" || key == "adaptive_groups" ||
               key == "repair_enabled") {
      FSYNC_ASSIGN_OR_RETURN(bool v, ParseBool(value, line_no));
      if (key == "use_decomposable") {
        config.use_decomposable = v;
      } else if (key == "use_continuation") {
        config.use_continuation = v;
      } else if (key == "continuation_first") {
        config.continuation_first = v;
      } else if (key == "repair_enabled") {
        config.repair.enabled = v;
      } else {
        config.verify.adaptive_groups = v;
      }
    } else if (key == "repair_max_bad_fraction") {
      char* end = nullptr;
      double v = std::strtod(value.c_str(), &end);
      if (end != value.c_str() + value.size() || v < 0.0 || v > 1.0) {
        return Status::InvalidArgument("config line " +
                                       std::to_string(line_no) +
                                       ": expected fraction in [0,1], got '" +
                                       value + "'");
      }
      config.repair.max_bad_fraction = v;
    } else if (key == "delta_codec") {
      if (value == "zd") {
        config.delta_codec = DeltaCodec::kZd;
      } else if (value == "vcdiff") {
        config.delta_codec = DeltaCodec::kVcdiff;
      } else if (value == "bsdiff") {
        config.delta_codec = DeltaCodec::kBsdiff;
      } else {
        return Status::InvalidArgument("config line " +
                                       std::to_string(line_no) +
                                       ": unknown delta codec '" + value +
                                       "'");
      }
    } else {
      return Status::InvalidArgument("config line " +
                                     std::to_string(line_no) +
                                     ": unknown key '" + key + "'");
    }
  }
  FSYNC_RETURN_IF_ERROR(ValidateSyncConfig(config));
  return config;
}

std::string SerializeSyncConfig(const SyncConfig& config) {
  char buf[512];
  std::string out;
  std::snprintf(
      buf, sizeof(buf),
      "start_block_size = %u\nmin_block_size = %u\n"
      "min_continuation_block = %u\nglobal_extra_bits = %d\n"
      "continuation_bits = %d\nuse_decomposable = %s\n"
      "use_continuation = %s\ncontinuation_first = %s\nlocal_radius = %d\n"
      "verify_bits = %d\ngroup_size = %d\nmax_batches = %d\n"
      "continuation_group_size = %d\nadaptive_groups = %s\n"
      "delta_codec = %s\nmax_roundtrips = %d\nnum_threads = %d\n"
      "repair_enabled = %s\nrepair_region_size = %u\n"
      "repair_max_bad_fraction = %g\n",
      config.start_block_size, config.min_block_size,
      config.min_continuation_block, config.global_extra_bits,
      config.continuation_bits, config.use_decomposable ? "true" : "false",
      config.use_continuation ? "true" : "false",
      config.continuation_first ? "true" : "false", config.local_radius,
      config.verify.verify_bits, config.verify.group_size,
      config.verify.max_batches, config.verify.continuation_group_size,
      config.verify.adaptive_groups ? "true" : "false",
      config.delta_codec == DeltaCodec::kZd
          ? "zd"
          : (config.delta_codec == DeltaCodec::kVcdiff ? "vcdiff"
                                                       : "bsdiff"),
      config.max_roundtrips, config.num_threads,
      config.repair.enabled ? "true" : "false", config.repair.region_size,
      config.repair.max_bad_fraction);
  out = buf;
  for (size_t r = 0; r < config.round_overrides.size(); ++r) {
    const SyncConfig::RoundOverride& o = config.round_overrides[r];
    if (o.continuation_bits < 0 && o.verify_bits < 0 && o.group_size < 0 &&
        o.max_batches < 0) {
      continue;
    }
    out += "[round " + std::to_string(r) + "]\n";
    if (o.continuation_bits >= 0) {
      out += "continuation_bits = " + std::to_string(o.continuation_bits) +
             "\n";
    }
    if (o.verify_bits >= 0) {
      out += "verify_bits = " + std::to_string(o.verify_bits) + "\n";
    }
    if (o.group_size >= 0) {
      out += "group_size = " + std::to_string(o.group_size) + "\n";
    }
    if (o.max_batches >= 0) {
      out += "max_batches = " + std::to_string(o.max_batches) + "\n";
    }
  }
  return out;
}

}  // namespace fsx
