// Copyright (c) dimmunix-cpp authors. MIT license.
//
// The flight recorder's event vocabulary (src/obs/trace_ring.h stores these;
// src/obs/export.cc renders them as Chrome trace_event JSON).
//
// Every event is a *completed span*: the instrumentation site reads the
// clock when the interesting interval ends and records (end, duration) in
// one ring push — there are no open/close pairs to correlate, so a ring
// overwrite can never orphan half an event. An event is 24 bytes of payload
// (a 32-byte ring slot including the seqlock word):
//
//   end_ns  steady-clock nanoseconds at span end. steady_clock shares its
//           epoch across processes within one boot, so per-process dumps
//           merge onto one timeline (`dimctl trace merge`).
//   data    type-specific 64-bit payload (lock id, fold count, stall ns).
//   dur_ns  span length, saturated at ~4.29 s (uint32); every interval the
//           engine produces — acquire latencies, yields bounded by
//           Config::yield_timeout, epoch holds — fits with huge margin.
//   aux     type-specific 16-bit payload (signature index, saturated).
//   mode    AcquireMode ordinal where meaningful (0 exclusive, 1 shared).
//   type    TraceEventType.

#ifndef DIMMUNIX_OBS_TRACE_EVENT_H_
#define DIMMUNIX_OBS_TRACE_EVENT_H_

#include <chrono>
#include <cstdint>

#include "src/common/clock.h"

namespace dimmunix {
namespace obs {

enum class TraceEventType : std::uint8_t {
  kNone = 0,
  kAcquire = 1,        // request begin -> acquisition commit (incl. yields)
  kAcquireCancel = 2,  // request rolled back (trylock busy, timed-out lock)
  kYield = 3,          // park -> unpark; aux = signature index avoided
  kEpoch = 4,          // stop-the-stripes hold; data = entry stall ns
  kCoverSearch = 5,    // matcher cover search; aux = signature or kNoMatchAux
  kMonitorPass = 6,    // one monitor RunOnce; data = events drained
  kBridgeFold = 7,     // one IPC bridge tick; data = edges folded/retired
  // 8 is retired: it named a removed store event, and values keep their
  // numbers so older traces still decode.
  kStoreCompact = 9,   // one history compaction; data = foreign sigs merged
  kFleetSync = 10,     // one dimmunixd gossip round; aux = peer index,
                       // data = records_in << 32 | records_out
  kIpcFlush = 11,      // one edge flush into the IPC arena;
                       // aux = arena rows written, data = row writes + frees
};
inline constexpr std::uint8_t kTraceEventTypeMax = 11;

// aux value of a kCoverSearch that found no instantiation.
inline constexpr std::uint16_t kNoMatchAux = 0xffff;

// Stable lowercase event name (Chrome-trace export, incident bundles).
inline const char* TraceEventTypeName(std::uint8_t type) {
  switch (static_cast<TraceEventType>(type)) {
    case TraceEventType::kAcquire:
      return "acquire";
    case TraceEventType::kAcquireCancel:
      return "acquire_cancel";
    case TraceEventType::kYield:
      return "yield";
    case TraceEventType::kEpoch:
      return "epoch";
    case TraceEventType::kCoverSearch:
      return "cover_search";
    case TraceEventType::kMonitorPass:
      return "monitor_pass";
    case TraceEventType::kBridgeFold:
      return "bridge_fold";
    case TraceEventType::kStoreCompact:
      return "store_compact";
    case TraceEventType::kFleetSync:
      return "fleet_sync";
    case TraceEventType::kIpcFlush:
      return "ipc_flush";
    case TraceEventType::kNone:
      break;
  }
  return "unknown";
}

struct TraceEvent {
  std::uint64_t end_ns = 0;
  std::uint64_t data = 0;
  std::uint32_t dur_ns = 0;
  std::uint16_t aux = 0;
  std::uint8_t mode = 0;
  std::uint8_t type = 0;
};

// Steady-clock nanoseconds — the ring timebase.
inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Now().time_since_epoch()).count());
}

inline std::uint32_t SaturateDurNs(std::uint64_t dur_ns) {
  return dur_ns > 0xffffffffULL ? 0xffffffffU : static_cast<std::uint32_t>(dur_ns);
}

inline std::uint16_t SaturateAux(std::int64_t value) {
  if (value < 0) {
    return kNoMatchAux;
  }
  return value >= 0xffff ? 0xfffe : static_cast<std::uint16_t>(value);
}

// Binary layout inside a ring slot: three 64-bit words.
inline void PackEvent(const TraceEvent& e, std::uint64_t* w0, std::uint64_t* w1,
                      std::uint64_t* w2) {
  *w0 = e.end_ns;
  *w1 = (static_cast<std::uint64_t>(e.type) << 56) | (static_cast<std::uint64_t>(e.mode) << 48) |
        (static_cast<std::uint64_t>(e.aux) << 32) | e.dur_ns;
  *w2 = e.data;
}

inline TraceEvent UnpackEvent(std::uint64_t w0, std::uint64_t w1, std::uint64_t w2) {
  TraceEvent e;
  e.end_ns = w0;
  e.type = static_cast<std::uint8_t>(w1 >> 56);
  e.mode = static_cast<std::uint8_t>(w1 >> 48);
  e.aux = static_cast<std::uint16_t>(w1 >> 32);
  e.dur_ns = static_cast<std::uint32_t>(w1);
  e.data = w2;
  return e;
}

}  // namespace obs
}  // namespace dimmunix

#endif  // DIMMUNIX_OBS_TRACE_EVENT_H_
