#include "fsync/delta/delta.h"

#include "fsync/delta/bsdiff.h"
#include "fsync/delta/vcdiff.h"
#include "fsync/delta/zd.h"

namespace fsx {

StatusOr<Bytes> DeltaEncode(DeltaCodec codec, ByteSpan reference,
                            ByteSpan target,
                            std::span<const KnownRun> known) {
  switch (codec) {
    case DeltaCodec::kZd:
      return ZdEncode(reference, target, known);
    case DeltaCodec::kVcdiff:
      return VcdiffEncode(reference, target);
    case DeltaCodec::kBsdiff:
      return BsdiffEncode(reference, target);
  }
  return Status::InvalidArgument("unknown delta codec");
}

StatusOr<Bytes> DeltaDecode(DeltaCodec codec, ByteSpan reference,
                            ByteSpan delta) {
  switch (codec) {
    case DeltaCodec::kZd:
      return ZdDecode(reference, delta);
    case DeltaCodec::kVcdiff:
      return VcdiffDecode(reference, delta);
    case DeltaCodec::kBsdiff:
      return BsdiffDecode(reference, delta);
  }
  return Status::InvalidArgument("unknown delta codec");
}

}  // namespace fsx
