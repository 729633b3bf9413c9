// SyncClient: the connecting side of the daemon protocol. One blocking
// connection drives the whole-tree sync: handshake (adopting the
// server's negotiated config), then the tree flow's client half
// (core/tree_session.h) on stream 0 — the manifest walk, mirror
// deletes, rename adoption and the small-file bundle, exactly as
// SyncCollectionTree runs them — then up to `max_streams` concurrent
// per-file sessions for the large files, multiplexed over the socket,
// each a ClientFileSession (core/file_session.h) — the same per-file
// flow every in-process driver runs, including checkpoint persistence
// after every completed round, transparent resume on reconnect, and the
// full degradation ladder (region repair, compressed fallback).
//
// Every path the walk delivers is checked before it is used for
// anything, with the rules the apply enforces (IsSafeRelativePath and
// store::IsInternalArtifact): a hostile or corrupted server cannot name
// files outside the client's tree, nor the store's own manifest, temps
// or journals.
#ifndef FSYNC_NETD_CLIENT_H_
#define FSYNC_NETD_CLIENT_H_

#include <cstdint>
#include <string>

#include "fsync/core/collection.h"
#include "fsync/core/config.h"
#include "fsync/netd/fault.h"
#include "fsync/util/status.h"

namespace fsx::netd {

struct ClientOptions {
  /// TCP target (used when unix_path is empty).
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Unix-domain target; non-empty selects it over TCP.
  std::string unix_path;

  /// Directory for per-file session checkpoints ("" disables them). A
  /// client killed mid-session resumes from here on the next run.
  std::string checkpoint_dir;

  /// Concurrent file streams in flight (pipelining across files).
  int max_streams = 8;

  /// Per-frame receive timeout; also bounds connect-to-handshake.
  int io_timeout_ms = 30000;

  /// Socket-level fault injection (chaos tests).
  FaultPlan fault;
};

struct ClientResult {
  /// The synchronized replica: exactly the server's tree on success
  /// (mirror semantics — local-only files are absent from it).
  Collection reconstructed;
  /// The config negotiated in the handshake (the server's).
  SyncConfig config;

  uint64_t files_total = 0;      // files in the server's tree
  uint64_t files_unchanged = 0;  // matched by the walk, no transfer
  uint64_t files_adopted = 0;    // copied from another local path
  uint64_t files_small = 0;      // shipped in the small-file bundle
  uint64_t files_sessioned = 0;  // ran a per-file sync stream
  uint64_t files_new = 0;        // absent locally before the sync
  uint64_t files_deleted = 0;    // local-only files dropped (mirror)
  uint64_t files_resumed = 0;    // sessions resumed from a checkpoint
  uint64_t files_degraded = 0;   // finished via repair/fallback rungs
  uint64_t files_aborted = 0;    // refused (server draining) or errored

  uint64_t physical_bytes_sent = 0;
  uint64_t physical_bytes_received = 0;
  bool server_draining = false;  // saw kDraining during the run

  /// Checkpoint writes retried after a transient disk fault (EIO or a
  /// failed fsync). A retry that also fails — or a disk-full/read-only
  /// failure — sets `checkpoints_disabled`: the sync itself continues
  /// (checkpoints only buy resume coverage), but the client stops
  /// hammering a dead disk once per round.
  uint64_t disk_retries = 0;
  bool checkpoints_disabled = false;
};

/// Synchronizes `local` against the daemon's tree. Fails on connection
/// or handshake errors; per-file failures during drain are reported via
/// files_aborted (the returned collection then holds what completed,
/// plus unchanged files).
StatusOr<ClientResult> RunSyncClient(const Collection& local,
                                     const ClientOptions& options);

}  // namespace fsx::netd

#endif  // FSYNC_NETD_CLIENT_H_
