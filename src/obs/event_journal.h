// Copyright 2026 The OCTOPUS Reproduction Authors
// Lifecycle event journal: a bounded ring of structured events marking
// the moments an operator asks about after the fact — a step applied,
// an epoch published / spilled / reloaded / evicted, a pin taken or
// released, a session opened or closed, an admission-control rejection,
// a drain beginning and ending. Emitters are `VersionedBackend` (step),
// `EpochStore` (epoch lifecycle) and `QueryServer` (sessions, overload,
// drain); consumers are the `/journal` HTTP endpoint, two `/metrics`
// counters, and an optional JSONL sink for tailing.
//
// Unlike the single-writer `FlightRecorder`, the journal IS internally
// synchronized: epoch publication/spill/eviction events fire on the
// stepper thread while session/pin/overload events fire on the event
// loop. Emission is one short critical section (plus the sink write
// when a sink is configured). Zero-cost when disabled: with no
// capacity and no sink, `Emit` is a single predictable branch.
#ifndef OCTOPUS_OBS_EVENT_JOURNAL_H_
#define OCTOPUS_OBS_EVENT_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace octopus::obs {

/// \brief What happened. Wire-stable names via `EventKindName`.
enum class EventKind : uint8_t {
  kStepApplied = 1,    ///< a=step applied, b=pages rewritten (paged)
  kEpochPublished,     ///< epoch=id, a=step, b=resident bytes after
  kEpochSpilled,       ///< epoch=id, a=pages written, b=bytes written
  kEpochReloaded,      ///< epoch=id, a=sidecar pages read (both backends)
  kEpochEvicted,       ///< epoch=id, a=step, b=1 if it was spilled
  kEpochPinned,        ///< epoch=id, session=pinner, a=session pin count
  kEpochUnpinned,      ///< epoch=id, session=unpinner, a=session pin count
  kSessionOpened,      ///< session=id, a=active connections after
  kSessionClosed,      ///< session=id, a=active after, b=pins released
  kOverloadRejected,   ///< session=id, a=request id, b=queries rejected
  kDrainBegan,         ///< a=live sessions at drain start
  kDrainEnded,         ///< a=sessions remaining (0 = clean), b=forced
};

/// Stable snake_case name for `kind` ("step_applied", ...); "unknown"
/// for out-of-range values (a journal never crashes its reader).
const char* EventKindName(EventKind kind);

/// \brief One journal entry. `seq` is a monotone 1-based id that never
/// changes as the ring wraps, so "last N of M" is exact; `unix_nanos`
/// is wall-clock (CLOCK_REALTIME) so lines correlate with external
/// logs. The meaning of `a`/`b` is per-kind (see `EventKind`).
struct JournalEvent {
  uint64_t seq = 0;
  int64_t unix_nanos = 0;
  EventKind kind = EventKind::kStepApplied;
  uint64_t epoch = 0;    ///< epoch id, or 0 when not epoch-scoped
  uint64_t session = 0;  ///< session id, or 0 when not session-scoped
  uint64_t a = 0;
  uint64_t b = 0;

  friend bool operator==(const JournalEvent&, const JournalEvent&) = default;
};

/// Renders one event as a single-line JSON object (no trailing
/// newline): {"seq":..,"unix_nanos":..,"kind":"..","epoch":..,
/// "session":..,"a":..,"b":..}.
std::string JournalEventJson(const JournalEvent& event);

/// \brief Bounded, internally synchronized ring of `JournalEvent`s with
/// an optional line-per-event JSONL sink.
class EventJournal {
 public:
  /// `capacity` ring slots (0 = no ring). `sink`, when non-null, gets
  /// one JSONL line per event (unbuffered beyond stdio; the caller
  /// keeps the FILE* alive and closes it after the journal falls
  /// silent). Either alone enables the journal.
  explicit EventJournal(size_t capacity = 0, std::FILE* sink = nullptr)
      : capacity_(capacity), sink_(sink) {}

  /// True when events are being kept or sunk. Constant after
  /// construction, so emitters may check it without the lock.
  bool enabled() const { return capacity_ != 0 || sink_ != nullptr; }

  /// Records one event, stamping `seq` and the wall clock. A single
  /// predictable branch when disabled. Safe from any thread.
  void Emit(EventKind kind, uint64_t epoch = 0, uint64_t session = 0,
            uint64_t a = 0, uint64_t b = 0) {
    if (!enabled()) return;
    EmitSlow(kind, epoch, session, a, b);
  }

  size_t capacity() const { return capacity_; }
  /// Lifetime events emitted (>= ring size once wrapped).
  uint64_t total_emitted() const;
  /// Events currently held in the ring.
  size_t size() const;

  /// Copies the ring into `*out`, oldest event first.
  void Snapshot(std::vector<JournalEvent>* out) const;

  /// The ring (oldest first, at most `max_events` newest when capped)
  /// as a JSON document: {"total":N,"capacity":C,"events":[...]}.
  std::string RenderJson(size_t max_events = 0) const;

 private:
  void EmitSlow(EventKind kind, uint64_t epoch, uint64_t session,
                uint64_t a, uint64_t b);

  const size_t capacity_;
  std::FILE* const sink_;  // the stream, guarded by mu_ like the ring
  mutable common::Mutex mu_;
  /// Grown lazily up to capacity_.
  std::vector<JournalEvent> ring_ GUARDED_BY(mu_);
  size_t next_ GUARDED_BY(mu_) = 0;    // overwrite cursor once full
  uint64_t total_ GUARDED_BY(mu_) = 0;
};

}  // namespace octopus::obs

#endif  // OCTOPUS_OBS_EVENT_JOURNAL_H_
