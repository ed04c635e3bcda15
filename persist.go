package hotprefetch

import (
	"io"
	"time"

	"hotprefetch/internal/obs"
	"hotprefetch/internal/snapshot"
)

// RestoreInfo describes a successfully restored snapshot: what the warm
// start is now working from.
type RestoreInfo struct {
	// Generation is the snapshot's generation counter — monotonically
	// increasing across checkpoints of the same profile, used by writers to
	// refuse overwriting a newer file.
	Generation uint64

	// CreatedAt is when the snapshot was encoded.
	CreatedAt time.Time

	// Streams and Refs are the restored hot-stream count and their total
	// reference count.
	Streams int
	Refs    int

	// BaselineValid reports whether the snapshot carried supervisor
	// accuracy counters; BaselineAccuracy is their hits/issued ratio — the
	// accuracy the previous run achieved, which a warm-started supervisor
	// reports until its first conclusive live window.
	BaselineValid    bool
	BaselineAccuracy float64
}

// WriteSnapshot encodes the profile's durable state — BankedStreams, the
// base set plus everything banked since (so checkpoints survive
// generations of restarts) — and the attached matcher's accuracy baseline
// to w in the internal/snapshot format under the given generation counter.
//
// Like BankedStreams, the encode is safe while producers and consumers are
// running: it reads the base and each shard's bank under their locks and
// never touches the live grammars, so periodic checkpointing does not stall
// ingestion. Cycles whose background analysis has not landed are simply not
// in the snapshot; the next checkpoint picks them up.
func (sp *ShardedProfile) WriteSnapshot(w io.Writer, generation uint64) error {
	streams := sp.BankedStreams(0)
	p := &snapshot.Profile{
		Generation: generation,
		CreatedAt:  time.Now().UnixNano(),
		Streams:    streams,
	}
	if m := sp.matcher.Load(); m != nil {
		if issued, hits := m.AccuracyCounters(); issued > 0 {
			p.Baseline = snapshot.Baseline{Valid: true, Issued: issued, Hits: hits}
		}
	}
	if err := snapshot.Write(w, p); err != nil {
		return err
	}
	sp.obs.Emit(obs.KindSnapshotWritten, -1, uint64(len(streams)))
	return nil
}

// RestoreSnapshot loads a snapshot into the profile as its base set, the
// warm-start evidence: BankedStreams serves it merged with whatever the
// shards bank afterwards (so a checkpoint sees both), a Supervisor attached
// next optimizes from it, and an attached matcher is pre-compiled over it
// immediately, with the head length it was built with.
//
// Every load failure — bad magic, version skew, checksum mismatch,
// truncation, implausible counts — returns the loader's typed error
// (snapshot.IsFormatError), increments Stats.SnapshotLoadFailures, emits an
// EventSnapshotLoadFailed tracer event, and leaves the profile exactly as
// it was: cold, profiling from zero. A corrupt snapshot can cost a warm
// start, never correctness.
//
// A Supervisor attached after the restore treats the restored set as an
// ordinary optimization: BadWindows bad accuracy windows deoptimize it, and
// its first live retrain trains only on the cycles banked since the restore
// and replaces the base with that training set, so a stale snapshot is
// never relearned.
func (sp *ShardedProfile) RestoreSnapshot(r io.Reader) (RestoreInfo, error) {
	p, err := snapshot.Read(r)
	if err != nil {
		sp.obs.Emit(obs.KindSnapshotLoadFailed, -1, 0)
		return RestoreInfo{}, err
	}
	streams := p.Streams
	totalRefs := 0
	for _, st := range streams {
		totalRefs += len(st.Refs)
	}
	sp.baseMu.Lock()
	sp.base, sp.baseRestored = streams, true
	sp.restoredGen = p.Generation
	sp.restoredBaseline = p.Baseline
	sp.baseMu.Unlock()
	sp.obs.Emit(obs.KindSnapshotRestored, -1, uint64(len(streams)))
	if m := sp.matcher.Load(); m != nil && len(streams) > 0 {
		// Pre-compile the DFSM so prefetching starts before any supervisor
		// tick.
		if err := m.Swap(streams); err != nil {
			return RestoreInfo{}, err
		}
	}
	return RestoreInfo{
		Generation:       p.Generation,
		CreatedAt:        time.Unix(0, p.CreatedAt),
		Streams:          len(streams),
		Refs:             totalRefs,
		BaselineValid:    p.Baseline.Valid,
		BaselineAccuracy: p.Baseline.Accuracy(),
	}, nil
}

// restored returns the base set and the accuracy baseline RestoreSnapshot
// loaded, or nil when the profile is cold: a base that a supervised retrain
// installed is no warm start. The base is replaced, never modified in place,
// so the caller may keep it.
func (sp *ShardedProfile) restored() ([]Stream, snapshot.Baseline) {
	sp.baseMu.Lock()
	defer sp.baseMu.Unlock()
	if !sp.baseRestored {
		return nil, snapshot.Baseline{}
	}
	return sp.base, sp.restoredBaseline
}
