// Copyright (c) dimmunix-cpp authors. MIT license.
//
// The shared-memory IPC arena: a crash-tolerant, fixed-layout mmap'd file
// (named by DIMMUNIX_IPC / Config::ipc_path) through which every
// participating process publishes its wait/hold edges for *global* locks
// (src/core/global_port.h), so each process's bridge thread can fold the
// others' edges into its local RAG and Allowed sets.
//
// Layout (all offsets 8-byte aligned; spec in docs/ipc-arena.md):
//
//   ArenaHeader        magic "DIMA", version, table geometry
//   Participant[P]     one slot per attached process instance: pid +
//                      /proc start-time (liveness identity), a claim
//                      generation, a heartbeat
//   EdgeRecord[P*E]    per-participant edge table: (thread, lock, wait|hold,
//                      mode, count, proc-qualified stack frames)
//
// Concurrency model:
//   * Each participant writes ONLY its own participant slot and edge rows;
//     there is no cross-process write contention on the hot path. Which
//     (thread, lock) edge a row shows is the bridge's business: the arena
//     only allocates, writes and frees rows (src/ipc/bridge.h).
//   * Every mutable record is seqlock-published (odd seq = write in
//     progress); readers copy and retry, so a reader can never observe a
//     torn edge. Field accesses go through std::atomic_ref, which keeps the
//     same code correct for the in-process multi-runtime case (tests) and
//     visible to TSan.
//   * Crash tolerance: a SIGKILL'd participant leaves its slot claimed and
//     its edges standing. Liveness sweeps (kill(pid,0) + start-time
//     comparison, so pid reuse cannot resurrect a corpse) reclaim the slot:
//     exactly one sweeper wins the pid CAS, then clears the edges. Bridges
//     treat the disappearance as releases, so a dead holder can never wedge
//     the fleet.
//
// The arena holds NO pointers and no process-local values other than pids
// and thread ids interpreted relative to their participant slot; any
// process can mmap it at any address.

#ifndef DIMMUNIX_IPC_ARENA_H_
#define DIMMUNIX_IPC_ARENA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/global_port.h"

namespace dimmunix {
namespace ipc {

// One foreign wait/hold edge copied out of the arena.
struct ForeignEdge {
  int participant = -1;
  std::uint64_t generation = 0;  // claim generation of the publishing slot
  std::uint32_t pid = 0;
  ThreadId thread = kInvalidThreadId;  // publisher-local thread id
  LockId lock = kInvalidLockId;
  bool hold = false;  // false: wait (request/allow) edge
  AcquireMode mode = AcquireMode::kExclusive;
  std::uint32_t count = 0;  // reentrant hold depth (holds only)
  LockRange range;  // byte range for fcntl record locks (group 0 = none)
  std::vector<Frame> frames;  // proc-qualified stack, innermost first
};

// Control-plane summary of one participant slot.
struct ParticipantInfo {
  int index = -1;
  std::uint32_t pid = 0;
  std::uint64_t generation = 0;
  std::uint64_t start_time = 0;
  std::int64_t heartbeat_age_ms = -1;
  std::size_t edges = 0;
  std::uint32_t proto_version = 0;
  std::uint32_t flush_seq = 0;      // completed bridge flushes
  bool alive = false;
  bool self = false;
};

class IpcArena {
 public:
  static constexpr std::uint32_t kMagic = 0x414D4944;  // "DIMA" little-endian
  // Protocol v2 (docs/ipc-arena.md): edge rows carry an fcntl byte range,
  // participant slots publish proto_version + flush_seq. Openers accept
  // only this version.
  static constexpr std::uint16_t kVersion = 2;
  static constexpr int kParticipants = 64;
  static constexpr int kEdgesPerParticipant = 128;
  static constexpr int kMaxFrames = 10;

  // Opens (creating and initializing if absent) the arena at `path` and
  // claims a participant slot. Returns null with `*error` set when the file
  // cannot be mapped, has a wrong magic/version/geometry, or every
  // participant slot is taken by a live process.
  static std::unique_ptr<IpcArena> OpenOrCreate(const std::string& path, std::string* error);

  ~IpcArena();

  IpcArena(const IpcArena&) = delete;
  IpcArena& operator=(const IpcArena&) = delete;

  int participant_index() const { return self_index_; }
  std::uint64_t generation() const { return self_generation_; }
  const std::string& path() const { return path_; }

  // --- Row API (the bridge's flusher; callers serialize these calls) --------
  // This participant's kEdgesPerParticipant edge rows. The arena does not
  // know which (thread, lock) a row shows: the bridge decides that
  // (src/ipc/bridge.h). AllocRow is drop-on-overflow: with every row in use
  // it returns -1 and counts the edge in dropped_publishes() — avoidance
  // degrades to single-process behavior, never blocks.
  int AllocRow();
  // Publishes one edge into `row` under its seqlock.
  void WriteRow(int row, ThreadId thread, LockId lock, bool hold, AcquireMode mode,
                std::uint32_t count, const std::vector<Frame>& frames, const LockRange& range);
  // Unpublishes `row` and returns it to the free list.
  void FreeRow(int row);

  std::uint64_t dropped_publishes() const { return dropped_.load(std::memory_order_relaxed); }

  // Bumps this participant's published flush_seq (one completed bridge
  // flush; protocol v2 observability).
  void BumpFlushSeq();

  // --- Reading (bridge thread, control plane) -------------------------------
  // Copies every published edge of every *other* live-claimed participant.
  std::vector<ForeignEdge> SnapshotForeign() const;
  std::vector<ParticipantInfo> Participants() const;

  // Refreshes this participant's heartbeat (bridge tick).
  void Heartbeat();

  // Reclaims slots whose owner is gone (pid dead, or pid reused by a
  // process with a different start time). Returns slots reclaimed.
  int SweepDeadParticipants();

 private:
  IpcArena(std::string path, void* base, std::size_t size);

  // Row accessors into the mapping.
  void* HeaderPtr() const;
  void* ParticipantPtr(int index) const;
  void* EdgePtr(int participant, int index) const;

  bool Claim(std::string* error);

  const std::string path_;
  void* base_ = nullptr;
  std::size_t size_ = 0;
  int self_index_ = -1;
  std::uint64_t self_generation_ = 0;

  std::vector<int> free_rows_;  // serialized by the row API's caller
  std::atomic<std::uint64_t> dropped_{0};
};

// Liveness probe shared with tests: the start time (clock ticks since boot,
// /proc/<pid>/stat field 22) of `pid`, or 0 when the process is gone.
std::uint64_t ProcessStartTime(std::uint32_t pid);

}  // namespace ipc
}  // namespace dimmunix

#endif  // DIMMUNIX_IPC_ARENA_H_
