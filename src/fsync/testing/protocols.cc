#include "fsync/testing/protocols.h"

#include "fsync/cdc/cdc_sync.h"
#include "fsync/core/session.h"
#include "fsync/multiround/multiround.h"
#include "fsync/rsync/rsync.h"
#include "fsync/zsync/zsync.h"

namespace fsx {

namespace {

// Every Run* takes the thread-count execution knob so the registry can be
// instantiated serial (the default) or threaded; the determinism contract
// requires both to behave identically on the wire.

StatusOr<ProtocolOutcome> RunRsync(int num_threads, ByteSpan f_old,
                                   ByteSpan f_new, SimulatedChannel& channel,
                                   obs::SyncObserver* obs) {
  RsyncParams params;
  params.num_threads = num_threads;
  FSYNC_ASSIGN_OR_RETURN(
      RsyncResult r, RsyncSynchronize(f_old, f_new, params, channel, obs));
  ProtocolOutcome out;
  out.reconstructed = std::move(r.reconstructed);
  out.stats = r.stats;
  out.fell_back = r.fell_back_to_full_transfer;
  return out;
}

StatusOr<ProtocolOutcome> RunZsync(int num_threads, ByteSpan f_old,
                                   ByteSpan f_new, SimulatedChannel& channel,
                                   obs::SyncObserver* obs) {
  ZsyncParams params;
  params.num_threads = num_threads;
  FSYNC_ASSIGN_OR_RETURN(
      ZsyncSyncResult r, ZsyncSynchronize(f_old, f_new, params, channel, obs));
  ProtocolOutcome out;
  out.reconstructed = std::move(r.reconstructed);
  out.stats = r.stats;
  out.fell_back = r.fell_back_to_full_transfer;
  return out;
}

StatusOr<ProtocolOutcome> RunCdc(int num_threads, ByteSpan f_old,
                                 ByteSpan f_new, SimulatedChannel& channel,
                                 obs::SyncObserver* obs) {
  CdcSyncParams params;
  params.num_threads = num_threads;
  FSYNC_ASSIGN_OR_RETURN(CdcSyncResult r,
                         CdcSynchronize(f_old, f_new, params, channel, obs));
  ProtocolOutcome out;
  out.reconstructed = std::move(r.reconstructed);
  out.stats = r.stats;
  out.fell_back = r.fell_back_to_full_transfer;
  return out;
}

StatusOr<ProtocolOutcome> RunMultiround(int num_threads, ByteSpan f_old,
                                        ByteSpan f_new,
                                        SimulatedChannel& channel,
                                        obs::SyncObserver* obs) {
  MultiroundParams params;
  params.num_threads = num_threads;
  FSYNC_ASSIGN_OR_RETURN(
      MultiroundResult r,
      MultiroundSynchronize(f_old, f_new, params, channel, obs));
  ProtocolOutcome out;
  out.reconstructed = std::move(r.reconstructed);
  out.stats = r.stats;
  out.fell_back = r.fell_back_to_full_transfer;
  out.rounds = r.rounds;
  return out;
}

StatusOr<ProtocolOutcome> RunSession(int num_threads, ByteSpan f_old,
                                     ByteSpan f_new, SimulatedChannel& channel,
                                     obs::SyncObserver* obs) {
  SyncConfig config;
  config.num_threads = num_threads;
  FSYNC_ASSIGN_OR_RETURN(FileSyncResult r,
                         SynchronizeFile(f_old, f_new, config, channel, obs));
  ProtocolOutcome out;
  out.reconstructed = std::move(r.reconstructed);
  out.stats = r.stats;
  out.fell_back = r.fallback;
  out.rounds = r.rounds;
  return out;
}

StatusOr<ProtocolOutcome> RunSessionCapped(int num_threads, ByteSpan f_old,
                                           ByteSpan f_new,
                                           SimulatedChannel& channel,
                                           obs::SyncObserver* obs) {
  // The paper's restricted-roundtrip mode: the map phase is cut short and
  // the delta phase must absorb whatever is unresolved.
  SyncConfig config;
  config.max_roundtrips = 2;
  config.num_threads = num_threads;
  FSYNC_ASSIGN_OR_RETURN(FileSyncResult r,
                         SynchronizeFile(f_old, f_new, config, channel, obs));
  ProtocolOutcome out;
  out.reconstructed = std::move(r.reconstructed);
  out.stats = r.stats;
  out.fell_back = r.fallback;
  out.rounds = r.rounds;
  return out;
}

std::vector<ProtocolEntry> MakeProtocols(int num_threads) {
  auto bind = [num_threads](auto fn) {
    return [num_threads, fn](ByteSpan f_old, ByteSpan f_new,
                             SimulatedChannel& channel,
                             obs::SyncObserver* obs) {
      return fn(num_threads, f_old, f_new, channel, obs);
    };
  };
  return {
      {"rsync", bind(RunRsync)},
      {"zsync", bind(RunZsync)},
      {"cdc", bind(RunCdc)},
      {"multiround", bind(RunMultiround)},
      {"session", bind(RunSession)},
      {"session-capped", bind(RunSessionCapped)},
  };
}

}  // namespace

const std::vector<ProtocolEntry>& ConformanceProtocols() {
  static const std::vector<ProtocolEntry> kProtocols = MakeProtocols(1);
  return kProtocols;
}

std::vector<ProtocolEntry> ThreadedConformanceProtocols(int num_threads) {
  return MakeProtocols(num_threads);
}

}  // namespace fsx
