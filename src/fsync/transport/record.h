// Wire format of one reliable-transport record. Every logical message a
// protocol Sends travels inside exactly one record:
//
//   offset  size  field
//   0       1     type      (0 = data; other values reserved)
//   1       4     seq       (LE32, per-direction sequence number)
//   5       4     ack       (LE32, cumulative ack for the reverse
//                            direction: all seq < ack were delivered)
//   9       n     payload   (the protocol message, opaque)
//   9+n     4     crc       (LE32 CRC32C over bytes [0, 9+n))
//
// The CRC covers header and payload, so a bit flip anywhere in the record
// is detected and the record is treated as lost (the sender's timeout
// retransmits it). See docs/PROTOCOL.md, "Reliable transport framing".
#ifndef FSYNC_TRANSPORT_RECORD_H_
#define FSYNC_TRANSPORT_RECORD_H_

#include <cstdint>

#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx::transport {

inline constexpr uint8_t kRecordTypeData = 0;
/// Types 1 and 2 (per-direction socket-channel frames) are retired and
/// stay reserved, so the numbering below does not move.
/// Daemon control/session frames (fsync/netd/protocol.h).
inline constexpr uint8_t kRecordTypeDaemon = 3;
/// Highest type DecodeRecord accepts; anything above is a torn frame.
inline constexpr uint8_t kRecordTypeMaxValid = 3;

/// Fixed per-record overhead: type + seq + ack + crc.
inline constexpr uint64_t kRecordOverheadBytes = 13;

/// One decoded record.
struct Record {
  uint8_t type = kRecordTypeData;
  uint32_t seq = 0;
  uint32_t ack = 0;
  Bytes payload;
};

/// Frames `payload` into a record with the given header fields.
Bytes EncodeRecord(uint8_t type, uint32_t seq, uint32_t ack,
                   ByteSpan payload);

/// Parses and CRC-verifies a record. Returns kDataLoss for anything that
/// does not check out (short frame, bad CRC, unknown type); the caller
/// treats such records as lost.
StatusOr<Record> DecodeRecord(ByteSpan frame);

}  // namespace fsx::transport

#endif  // FSYNC_TRANSPORT_RECORD_H_
