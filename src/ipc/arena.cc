// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/ipc/arena.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "src/common/logging.h"

namespace dimmunix {
namespace ipc {
namespace {

// On-disk records. Every field is accessed through std::atomic_ref, so the
// structs hold plain integers; alignment is guaranteed by the layout
// (8-byte multiples from a page-aligned base).
struct ArenaHeader {
  std::uint32_t magic;
  std::uint16_t version;
  std::uint16_t reserved;
  std::uint32_t participants;
  std::uint32_t edges_per_participant;
  std::uint32_t participant_size;
  std::uint32_t edge_size;
  std::uint64_t pad[5];
};
static_assert(sizeof(ArenaHeader) == 64);

struct ParticipantRecord {
  std::uint32_t seq;
  std::uint32_t pid;              // 0 = free; CAS-claimed
  std::uint64_t start_time;       // 0 while the claim is being initialized
  std::uint64_t generation;       // bumped on every (re)claim of this slot
  std::uint64_t heartbeat_ns;     // CLOCK_MONOTONIC, same clock fleet-wide
  std::uint32_t proto_version;    // protocol of the claimant (kVersion)
  std::uint32_t flush_seq;        // completed bridge flushes
  std::uint64_t pad[3];
};
static_assert(sizeof(ParticipantRecord) == 64);

struct EdgeRecord {
  std::uint32_t seq;
  std::uint8_t state;  // 0 free, 1 wait, 2 hold
  std::uint8_t mode;   // 0 exclusive, 1 shared
  std::uint16_t stack_len;
  std::int32_t thread;
  std::uint32_t count;
  std::uint64_t lock;
  std::uint64_t frames[IpcArena::kMaxFrames];
  // The byte range of an fcntl record lock; range_group 0 = not a range
  // lock.
  std::uint64_t range_group;
  std::uint64_t range_start;
  std::uint64_t range_len;
};
static_assert(sizeof(EdgeRecord) == 128);

constexpr std::uint8_t kEdgeFree = 0;
constexpr std::uint8_t kEdgeWait = 1;
constexpr std::uint8_t kEdgeHold = 2;

constexpr std::size_t kHeaderOff = 0;
constexpr std::size_t kParticipantsOff = sizeof(ArenaHeader);
constexpr std::size_t kEdgesOff =
    kParticipantsOff + sizeof(ParticipantRecord) * IpcArena::kParticipants;
constexpr std::size_t kArenaSize =
    kEdgesOff + sizeof(EdgeRecord) * IpcArena::kParticipants * IpcArena::kEdgesPerParticipant;

template <typename T>
std::atomic_ref<T> Ref(T& field) {
  return std::atomic_ref<T>(field);
}

std::uint64_t MonotonicNs() {
  struct timespec ts {};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Copies one edge row consistently (seqlock read side). False when free —
// or when the row cannot be read consistently within a bounded number of
// attempts: a writer SIGKILL'd mid-publication leaves its seq odd forever,
// and a reader must treat that corpse's row as unreadable (the liveness
// sweep will scrub it) rather than spin the bridge thread for good.
bool ReadEdgeRow(const EdgeRecord* row, ForeignEdge* out) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::uint32_t s1 =
        Ref(const_cast<EdgeRecord*>(row)->seq).load(std::memory_order_acquire);
    if ((s1 & 1u) != 0) {
      continue;  // write in progress (or torn by a dead writer)
    }
    auto* r = const_cast<EdgeRecord*>(row);
    const std::uint8_t state = Ref(r->state).load(std::memory_order_relaxed);
    const std::uint8_t mode = Ref(r->mode).load(std::memory_order_relaxed);
    const std::uint16_t stack_len = Ref(r->stack_len).load(std::memory_order_relaxed);
    const std::int32_t thread = Ref(r->thread).load(std::memory_order_relaxed);
    const std::uint32_t count = Ref(r->count).load(std::memory_order_relaxed);
    const std::uint64_t lock = Ref(r->lock).load(std::memory_order_relaxed);
    std::uint64_t frames[IpcArena::kMaxFrames];
    const std::size_t n = std::min<std::size_t>(stack_len, IpcArena::kMaxFrames);
    for (std::size_t i = 0; i < n; ++i) {
      frames[i] = Ref(r->frames[i]).load(std::memory_order_relaxed);
    }
    const std::uint64_t range_group = Ref(r->range_group).load(std::memory_order_relaxed);
    const std::uint64_t range_start = Ref(r->range_start).load(std::memory_order_relaxed);
    const std::uint64_t range_len = Ref(r->range_len).load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint32_t s2 = Ref(r->seq).load(std::memory_order_relaxed);
    if (s1 != s2) {
      continue;  // raced a writer; retry
    }
    if (state == kEdgeFree) {
      return false;
    }
    out->thread = thread;
    out->lock = lock;
    out->hold = state == kEdgeHold;
    out->mode = mode == 1 ? AcquireMode::kShared : AcquireMode::kExclusive;
    out->count = count;
    out->range = LockRange{range_group, range_start, range_len};
    out->frames.assign(frames, frames + n);
    return true;
  }
  return false;  // persistently torn: reported free until scrubbed
}

// Forces an edge row to the free state with an EVEN final seq, whatever
// parity a dead writer left behind. Used when (re)claiming a slot and when
// sweeping a corpse — the paired-increment writer protocol would preserve
// a corpse's odd parity forever.
void ScrubEdgeRow(EdgeRecord* r) {
  const std::uint32_t s = Ref(r->seq).load(std::memory_order_relaxed);
  Ref(r->seq).store(s | 1u, std::memory_order_relaxed);  // write in progress
  std::atomic_thread_fence(std::memory_order_release);
  Ref(r->state).store(kEdgeFree, std::memory_order_relaxed);
  Ref(r->count).store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  Ref(r->seq).store((s | 1u) + 1u, std::memory_order_release);  // even
}

}  // namespace

std::uint64_t ProcessStartTime(std::uint32_t pid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%u/stat", pid);
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    return 0;
  }
  char buf[1024];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  if (n == 0) {
    return 0;
  }
  buf[n] = '\0';
  // Field 2 (comm) may contain spaces and parentheses; scan past the last ')'.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) {
    return 0;
  }
  ++p;
  // Fields 3..21 precede starttime (field 22): consume the 20 separating
  // spaces so `p` lands on starttime itself.
  std::uint64_t start = 0;
  int field = 2;
  while (*p != '\0' && field < 22) {
    if (*p == ' ') {
      ++field;
    }
    ++p;
  }
  if (std::sscanf(p, "%" SCNu64, &start) != 1) {
    return 0;
  }
  return start;
}

void* IpcArena::HeaderPtr() const { return static_cast<char*>(base_) + kHeaderOff; }

void* IpcArena::ParticipantPtr(int index) const {
  return static_cast<char*>(base_) + kParticipantsOff +
         sizeof(ParticipantRecord) * static_cast<std::size_t>(index);
}

void* IpcArena::EdgePtr(int participant, int index) const {
  return static_cast<char*>(base_) + kEdgesOff +
         sizeof(EdgeRecord) *
             (static_cast<std::size_t>(participant) * kEdgesPerParticipant +
              static_cast<std::size_t>(index));
}

IpcArena::IpcArena(std::string path, void* base, std::size_t size)
    : path_(std::move(path)), base_(base), size_(size) {
  free_rows_.reserve(kEdgesPerParticipant);
  for (int i = kEdgesPerParticipant; i-- > 0;) {
    free_rows_.push_back(i);
  }
}

std::unique_ptr<IpcArena> IpcArena::OpenOrCreate(const std::string& path, std::string* error) {
  auto fail = [&](const std::string& message) -> std::unique_ptr<IpcArena> {
    if (error != nullptr) {
      *error = message;
    }
    return nullptr;
  };

  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return fail("open(" + path + "): " + std::strerror(errno));
  }
  // Size the file only when it is fresh/empty; an existing file of any
  // other size is rejected BEFORE being touched — a misconfigured
  // DIMMUNIX_IPC pointing at real data must never be truncated.
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    return fail("fstat(" + path + "): " + std::strerror(saved));
  }
  if (st.st_size != 0 && st.st_size != static_cast<off_t>(kArenaSize)) {
    ::close(fd);
    return fail(path + ": not a Dimmunix IPC arena (unexpected size; refusing to truncate)");
  }
  if (st.st_size == 0 && ::ftruncate(fd, static_cast<off_t>(kArenaSize)) != 0) {
    const int saved = errno;
    ::close(fd);
    return fail("ftruncate(" + path + "): " + std::strerror(saved));
  }
  void* base = ::mmap(nullptr, kArenaSize, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return fail("mmap(" + path + "): " + std::strerror(errno));
  }

  auto* header = static_cast<ArenaHeader*>(base);
  // First attacher initializes; the magic store (release) publishes the
  // geometry. Concurrent creators race benignly: they write identical
  // constants before either can observe the magic.
  std::uint32_t magic = Ref(header->magic).load(std::memory_order_acquire);
  if (magic == 0) {
    Ref(header->version).store(kVersion, std::memory_order_relaxed);
    Ref(header->participants).store(kParticipants, std::memory_order_relaxed);
    Ref(header->edges_per_participant).store(kEdgesPerParticipant, std::memory_order_relaxed);
    Ref(header->participant_size)
        .store(static_cast<std::uint32_t>(sizeof(ParticipantRecord)), std::memory_order_relaxed);
    Ref(header->edge_size)
        .store(static_cast<std::uint32_t>(sizeof(EdgeRecord)), std::memory_order_relaxed);
    Ref(header->magic).store(kMagic, std::memory_order_release);
    magic = kMagic;
  }
  if (magic != kMagic) {
    ::munmap(base, kArenaSize);
    return fail(path + ": not a Dimmunix IPC arena (bad magic)");
  }
  if (Ref(header->version).load(std::memory_order_relaxed) != kVersion ||
      Ref(header->participants).load(std::memory_order_relaxed) != kParticipants ||
      Ref(header->edges_per_participant).load(std::memory_order_relaxed) !=
          kEdgesPerParticipant ||
      Ref(header->edge_size).load(std::memory_order_relaxed) != sizeof(EdgeRecord)) {
    ::munmap(base, kArenaSize);
    return fail(path + ": arena version/geometry mismatch (delete the file to re-create)");
  }

  std::unique_ptr<IpcArena> arena(new IpcArena(path, base, kArenaSize));
  std::string claim_error;
  if (!arena->Claim(&claim_error)) {
    return fail(claim_error);
  }
  return arena;
}

bool IpcArena::Claim(std::string* error) {
  const std::uint32_t pid = static_cast<std::uint32_t>(::getpid());
  const std::uint64_t start = ProcessStartTime(pid);
  for (int attempt = 0; attempt < 2; ++attempt) {
    for (int i = 0; i < kParticipants; ++i) {
      auto* p = static_cast<ParticipantRecord*>(ParticipantPtr(i));
      std::uint32_t expected = 0;
      if (!Ref(p->pid).compare_exchange_strong(expected, pid, std::memory_order_acq_rel)) {
        continue;
      }
      // Slot reserved (start_time still 0 => readers skip it). Scrub any
      // edges a crashed predecessor left — including rows with a torn
      // (odd) seq — then publish the claim.
      self_index_ = i;
      for (int e = 0; e < kEdgesPerParticipant; ++e) {
        ScrubEdgeRow(static_cast<EdgeRecord*>(EdgePtr(i, e)));
      }
      Ref(p->seq).fetch_add(1, std::memory_order_relaxed);  // odd: publishing
      std::atomic_thread_fence(std::memory_order_release);
      self_generation_ = Ref(p->generation).load(std::memory_order_relaxed) + 1;
      Ref(p->generation).store(self_generation_, std::memory_order_relaxed);
      Ref(p->heartbeat_ns).store(MonotonicNs(), std::memory_order_relaxed);
      Ref(p->proto_version)
          .store(static_cast<std::uint32_t>(kVersion), std::memory_order_relaxed);
      Ref(p->flush_seq).store(0, std::memory_order_relaxed);
      Ref(p->start_time).store(start, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_release);
      Ref(p->seq).fetch_add(1, std::memory_order_release);  // even: published
      return true;
    }
    // Every slot claimed: reclaim corpses and retry once.
    if (SweepDeadParticipants() == 0) {
      break;
    }
  }
  if (error != nullptr) {
    *error = path_ + ": all " + std::to_string(kParticipants) +
             " participant slots held by live processes";
  }
  return false;
}

IpcArena::~IpcArena() {
  if (base_ == nullptr) {
    return;
  }
  if (self_index_ >= 0) {
    // Clean shutdown: retract our edges so peers do not need a liveness
    // sweep to learn the locks are free, then release the slot.
    for (int e = 0; e < kEdgesPerParticipant; ++e) {
      ScrubEdgeRow(static_cast<EdgeRecord*>(EdgePtr(self_index_, e)));
    }
    auto* p = static_cast<ParticipantRecord*>(ParticipantPtr(self_index_));
    Ref(p->seq).fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    Ref(p->start_time).store(0, std::memory_order_relaxed);
    Ref(p->heartbeat_ns).store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    Ref(p->seq).fetch_add(1, std::memory_order_release);
    Ref(p->pid).store(0, std::memory_order_release);
  }
  ::munmap(base_, size_);
}

int IpcArena::AllocRow() {
  if (free_rows_.empty()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  const int row = free_rows_.back();
  free_rows_.pop_back();
  return row;
}

void IpcArena::WriteRow(int row, ThreadId thread, LockId lock, bool hold, AcquireMode mode,
                        std::uint32_t count, const std::vector<Frame>& frames,
                        const LockRange& range) {
  auto* r = static_cast<EdgeRecord*>(EdgePtr(self_index_, row));
  Ref(r->seq).fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  const std::size_t n = std::min<std::size_t>(frames.size(), kMaxFrames);
  Ref(r->thread).store(thread, std::memory_order_relaxed);
  Ref(r->lock).store(lock, std::memory_order_relaxed);
  Ref(r->mode).store(mode == AcquireMode::kShared ? 1 : 0, std::memory_order_relaxed);
  Ref(r->count).store(count, std::memory_order_relaxed);
  Ref(r->stack_len).store(static_cast<std::uint16_t>(n), std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    Ref(r->frames[i]).store(frames[i], std::memory_order_relaxed);
  }
  Ref(r->range_group).store(range.group, std::memory_order_relaxed);
  Ref(r->range_start).store(range.start, std::memory_order_relaxed);
  Ref(r->range_len).store(range.len, std::memory_order_relaxed);
  Ref(r->state).store(hold ? kEdgeHold : kEdgeWait, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  Ref(r->seq).fetch_add(1, std::memory_order_release);
}

void IpcArena::FreeRow(int row) {
  ScrubEdgeRow(static_cast<EdgeRecord*>(EdgePtr(self_index_, row)));
  free_rows_.push_back(row);
}

void IpcArena::Heartbeat() {
  auto* p = static_cast<ParticipantRecord*>(ParticipantPtr(self_index_));
  Ref(p->heartbeat_ns).store(MonotonicNs(), std::memory_order_relaxed);
}

void IpcArena::BumpFlushSeq() {
  auto* p = static_cast<ParticipantRecord*>(ParticipantPtr(self_index_));
  Ref(p->flush_seq).fetch_add(1, std::memory_order_relaxed);
}

std::vector<ForeignEdge> IpcArena::SnapshotForeign() const {
  std::vector<ForeignEdge> edges;
  for (int i = 0; i < kParticipants; ++i) {
    if (i == self_index_) {
      continue;
    }
    auto* p = static_cast<ParticipantRecord*>(ParticipantPtr(i));
    const std::uint32_t pid = Ref(p->pid).load(std::memory_order_acquire);
    const std::uint64_t start = Ref(p->start_time).load(std::memory_order_acquire);
    const std::uint64_t generation = Ref(p->generation).load(std::memory_order_relaxed);
    if (pid == 0 || start == 0) {
      continue;  // free, or claim still being initialized
    }
    for (int e = 0; e < kEdgesPerParticipant; ++e) {
      ForeignEdge edge;
      if (!ReadEdgeRow(static_cast<const EdgeRecord*>(EdgePtr(i, e)), &edge)) {
        continue;
      }
      edge.participant = i;
      edge.generation = generation;
      edge.pid = pid;
      edges.push_back(std::move(edge));
    }
  }
  return edges;
}

std::vector<ParticipantInfo> IpcArena::Participants() const {
  std::vector<ParticipantInfo> out;
  const std::uint64_t now = MonotonicNs();
  for (int i = 0; i < kParticipants; ++i) {
    auto* p = static_cast<ParticipantRecord*>(ParticipantPtr(i));
    const std::uint32_t pid = Ref(p->pid).load(std::memory_order_acquire);
    if (pid == 0) {
      continue;
    }
    ParticipantInfo info;
    info.index = i;
    info.pid = pid;
    info.generation = Ref(p->generation).load(std::memory_order_relaxed);
    info.start_time = Ref(p->start_time).load(std::memory_order_relaxed);
    info.proto_version = Ref(p->proto_version).load(std::memory_order_relaxed);
    info.flush_seq = Ref(p->flush_seq).load(std::memory_order_relaxed);
    const std::uint64_t hb = Ref(p->heartbeat_ns).load(std::memory_order_relaxed);
    info.heartbeat_age_ms =
        hb == 0 || hb > now ? -1 : static_cast<std::int64_t>((now - hb) / 1000000ULL);
    const std::uint64_t live_start = ProcessStartTime(pid);
    info.alive = live_start != 0 && live_start == info.start_time;
    info.self = i == self_index_;
    for (int e = 0; e < kEdgesPerParticipant; ++e) {
      ForeignEdge edge;
      if (ReadEdgeRow(static_cast<const EdgeRecord*>(EdgePtr(i, e)), &edge)) {
        ++info.edges;
      }
    }
    out.push_back(info);
  }
  return out;
}

int IpcArena::SweepDeadParticipants() {
  int reclaimed = 0;
  const std::uint32_t self_pid = static_cast<std::uint32_t>(::getpid());
  const std::uint64_t self_start = ProcessStartTime(self_pid);
  for (int i = 0; i < kParticipants; ++i) {
    if (i == self_index_) {
      continue;
    }
    auto* p = static_cast<ParticipantRecord*>(ParticipantPtr(i));
    std::uint32_t pid = Ref(p->pid).load(std::memory_order_acquire);
    const std::uint64_t claimed_start = Ref(p->start_time).load(std::memory_order_relaxed);
    if (pid == 0) {
      continue;  // free
    }
    const std::uint64_t live_start = ProcessStartTime(pid);
    if (live_start != 0 && (claimed_start == 0 || live_start == claimed_start)) {
      // Alive: either the published incarnation, or a claim/scrub in
      // progress by a process that is alive this instant. (A live pid with
      // a DIFFERENT start time falls through: the claimed incarnation is
      // dead, the pid merely reused.)
      continue;
    }
    // Dead (or the pid now names a different process). Take ownership of
    // the corpse's slot under OUR live identity: exactly one sweeper wins
    // the CAS, concurrent sweepers see a live owner and skip, and
    // claimants (who CAS 0 -> pid) stay excluded for the whole scrub. If
    // this process dies mid-scrub, the slot simply looks like its corpse
    // and the next sweep recovers it the same way.
    if (!Ref(p->pid).compare_exchange_strong(pid, self_pid, std::memory_order_acq_rel)) {
      continue;
    }
    Ref(p->start_time).store(self_start, std::memory_order_release);
    Ref(p->heartbeat_ns).store(0, std::memory_order_relaxed);
    for (int e = 0; e < kEdgesPerParticipant; ++e) {
      ScrubEdgeRow(static_cast<EdgeRecord*>(EdgePtr(i, e)));
    }
    // Scrub complete: unpublish, then release the slot to claimants.
    Ref(p->start_time).store(0, std::memory_order_release);
    Ref(p->pid).store(0, std::memory_order_release);
    DIMMUNIX_LOG(kInfo) << "ipc: reclaimed participant slot " << i << " (pid " << pid
                        << " gone)";
    ++reclaimed;
  }
  return reclaimed;
}

}  // namespace ipc
}  // namespace dimmunix
